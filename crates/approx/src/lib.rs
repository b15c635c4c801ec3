//! Bidirectional approximate RWR estimation for the reverse top-k screen.
//!
//! The exact pipeline answers "who has `q` in their top-k" by solving the
//! PMPN system to machine precision and refining every undecided candidate
//! with resumable BCA. This crate trades a *bounded* amount of accuracy for
//! a large amount of work, following the bidirectional PPR estimators of
//! Lofgren et al.:
//!
//! 1. **Backward residue push** from the query node `q`. We maintain an
//!    estimate vector `est` and a residual vector `r` with the invariant
//!
//!    ```text
//!    p_u(q) = est[u] + Σ_v r[v] · p_u(v)      for every node u,
//!    ```
//!
//!    initialised as `est = 0`, `r = e_q`. Pushing a node `v` moves
//!    `α·r[v]` into `est[v]` and spills `(1−α)·P(w,v)·r[v]` to each
//!    in-neighbour `w` — the same retain/spill split as the BCA ink kernel,
//!    run over the transpose adjacency. Once every residual is below a
//!    threshold `ρ`, the invariant plus `Σ_v p_u(v) = 1` give the
//!    *deterministic* envelope
//!
//!    ```text
//!    est[u] ≤ p_u(q) ≤ est[u] + ρ          for every node u at once.
//!    ```
//!
//! 2. **Forward Monte Carlo walks** from an individual candidate `u`. The
//!    leftover term `Σ_v r[v]·p_u(v)` is exactly `E[r[X]]` for `X` the
//!    endpoint of a restart-terminated walk from `u`, so averaging `r` over
//!    `walks` seeded walk endpoints (re-using the `rtk-rwr` walk machinery)
//!    tightens `est[u]` toward the truth. Every sample lies in `[0, ρ)`, so
//!    the corrected estimate **stays inside the envelope** — the walks
//!    reduce the typical error well below `ρ` without ever invalidating the
//!    worst-case bound.
//!
//! Walk `w` for candidate `u` draws from its own RNG seeded
//! `mix(seed, u) + w`, making every estimate a pure function of
//! `(graph, q, u, params)` — independent of thread count, shard layout, and
//! evaluation order. That is what lets the serving tier extend its
//! bitwise-determinism contract to the approximate path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use rand::{rngs::StdRng, SeedableRng};
use rtk_graph::TransitionMatrix;
use rtk_rwr::monte_carlo::walk_endpoint;

/// Hard cap on a single walk's length (`1/α · 300` at the default α; the
/// geometric tail beyond this is far below any epsilon worth serving).
const MAX_WALK_STEPS: u32 = 2_000;

/// Safety valve on backward-push work: at most this many pushes per *node*
/// on average before the push gives up and reports the residual bound it
/// actually reached. Generous — real workloads converge orders of magnitude
/// earlier.
const MAX_PUSHES_PER_NODE: u64 = 10_000;

/// Per-request knobs for the approximate screen phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxParams {
    /// Error budget ε: the answer's node set may differ from the exact
    /// answer only on candidates whose true proximity lies within ε of
    /// their top-k decision boundary. `0` disables approximation entirely
    /// (the serving layers fall back to the exact path byte-for-byte).
    pub epsilon: f64,
    /// Forward-walk budget per undecided candidate. `0` means "backward
    /// push only" — still correct, just a looser typical error.
    pub walks: u32,
    /// RNG seed; a fixed seed makes approximate answers bitwise
    /// reproducible across threads, shards, and processes.
    pub seed: u64,
}

impl Default for ApproxParams {
    fn default() -> Self {
        Self { epsilon: 1e-4, walks: 32, seed: 0 }
    }
}

impl ApproxParams {
    /// Whether the parameters request real approximation work. ε=0 is the
    /// documented "exact" degenerate setting, and non-finite or negative ε
    /// never validates at the wire/CLI layer, but is treated as inert here
    /// for defence in depth.
    pub fn is_active(&self) -> bool {
        self.epsilon.is_finite() && self.epsilon > 0.0
    }
}

/// Counters describing what the approximate screen actually did; surfaced
/// through `approx_stats` on wire results and the metrics endpoints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApproxUsage {
    /// Candidates classified from the estimator alone (no exact refinement).
    pub estimated: u64,
    /// Candidates that fell inside the ε-band and went through the exact
    /// `screen_candidate` refinement.
    pub exact_refined: u64,
    /// Total forward walks simulated.
    pub walks: u64,
}

impl ApproxUsage {
    /// Accumulates another usage record (shard merges, batch absorption).
    pub fn absorb(&mut self, other: &ApproxUsage) {
        self.estimated += other.estimated;
        self.exact_refined += other.exact_refined;
        self.walks += other.walks;
    }
}

/// The bidirectional estimator for one query node: a completed backward
/// push (shared by every candidate) plus per-candidate forward-walk
/// refinement.
#[derive(Debug)]
pub struct BidirEstimator {
    alpha: f64,
    walks: u32,
    seed: u64,
    /// Backward-push estimates: `est[u] ≤ p_u(q) ≤ est[u] + bound`.
    est: Vec<f64>,
    /// Backward residuals left below the push threshold.
    residual: Vec<f64>,
    /// The residual ceiling the push actually achieved (≤ the requested
    /// threshold unless the work cap fired).
    bound: f64,
}

impl BidirEstimator {
    /// Runs the backward residue push from `q` until every residual drops
    /// below `threshold` (or the work cap fires). Deterministic: FIFO
    /// processing order, no floating-point reduction races.
    ///
    /// # Panics
    /// Panics when `threshold` is not finite and positive, when `alpha` is
    /// outside `(0, 1)`, or when `q` is out of range.
    pub fn build(
        transition: &TransitionMatrix<'_>,
        q: u32,
        alpha: f64,
        params: &ApproxParams,
        threshold: f64,
    ) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "BidirEstimator: alpha in (0,1)");
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "BidirEstimator: positive finite threshold required"
        );
        let n = transition.node_count();
        assert!((q as usize) < n, "BidirEstimator: node {q} out of range");

        let graph = transition.graph();
        let mut est = vec![0.0f64; n];
        let mut residual = vec![0.0f64; n];
        let mut queued = vec![false; n];
        let mut queue = VecDeque::new();
        residual[q as usize] = 1.0;
        queue.push_back(q);
        queued[q as usize] = true;

        let mut pushes = 0u64;
        let push_cap = MAX_PUSHES_PER_NODE.saturating_mul(n as u64);
        while let Some(v) = queue.pop_front() {
            queued[v as usize] = false;
            let rv = residual[v as usize];
            if rv < threshold {
                continue;
            }
            residual[v as usize] = 0.0;
            est[v as usize] += alpha * rv;
            let spill = (1.0 - alpha) * rv;
            let sources = graph.in_neighbors(v);
            let probs = transition.in_probs(v);
            for (&w, &p) in sources.iter().zip(probs) {
                let slot = &mut residual[w as usize];
                *slot += spill * p;
                if *slot >= threshold && !queued[w as usize] {
                    queued[w as usize] = true;
                    queue.push_back(w);
                }
            }
            pushes += 1;
            if pushes >= push_cap {
                break;
            }
        }
        let bound = residual.iter().cloned().fold(threshold, f64::max);
        Self { alpha, walks: params.walks, seed: params.seed, est, residual, bound }
    }

    /// The deterministic error radius ρ: for every node `u`,
    /// `lower(u) ≤ p_u(q) ≤ lower(u) + bound()`, and [`Self::estimate`]
    /// never leaves that envelope.
    #[inline]
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The walk-free lower estimate for `u` (backward push only).
    #[inline]
    pub fn lower(&self, u: u32) -> f64 {
        self.est[u as usize]
    }

    /// Estimates `p_u(q)` for one candidate: the push estimate plus the
    /// average backward residual observed at `walks` seeded forward-walk
    /// endpoints. Returns the estimate and the number of walks simulated.
    /// Deterministic per `(seed, u)` and thread-count independent.
    pub fn estimate(&self, transition: &TransitionMatrix<'_>, u: u32) -> (f64, u64) {
        let base = self.est[u as usize];
        if self.walks == 0 {
            return (base, 0);
        }
        let mut sum = 0.0f64;
        for w in 0..self.walks {
            let mut rng = StdRng::seed_from_u64(walk_seed(self.seed, u, w));
            let end = walk_endpoint(transition, u, self.alpha, MAX_WALK_STEPS, &mut rng);
            sum += self.residual[end as usize];
        }
        (base + sum / self.walks as f64, self.walks as u64)
    }
}

/// Derives the RNG seed for walk `w` of candidate `u`: a SplitMix64-style
/// multiplicative mix of the candidate id keeps per-candidate streams far
/// apart, and `+ w` gives each walk of a candidate its own stream, so an
/// estimate is a pure function of `(seed, u)`.
#[inline]
fn walk_seed(seed: u64, u: u32, w: u32) -> u64 {
    seed ^ ((u as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(w as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};
    use rtk_rwr::params::RwrParams;
    use rtk_rwr::pmpn::proximity_to;

    fn toy() -> DiGraph {
        GraphBuilder::from_edges(
            6,
            &[
                (0, 1),
                (0, 3),
                (0, 5),
                (1, 0),
                (1, 2),
                (2, 0),
                (2, 1),
                (3, 1),
                (3, 4),
                (4, 1),
                (5, 1),
                (5, 3),
            ],
            DanglingPolicy::Error,
        )
        .unwrap()
    }

    fn truth_to(t: &TransitionMatrix<'_>, q: u32) -> Vec<f64> {
        let params = RwrParams { epsilon: 1e-14, ..RwrParams::default() };
        proximity_to(t, q, &params).0
    }

    #[test]
    fn backward_push_brackets_the_truth() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        for q in 0..6 {
            let est = BidirEstimator::build(
                &t,
                q,
                0.15,
                &ApproxParams { walks: 0, ..Default::default() },
                1e-3,
            );
            let truth = truth_to(&t, q);
            for u in 0..6u32 {
                let lo = est.lower(u);
                let p = truth[u as usize];
                assert!(
                    lo <= p + 1e-12 && p <= lo + est.bound() + 1e-12,
                    "q={q} u={u}: {p} outside [{lo}, {}]",
                    lo + est.bound()
                );
            }
        }
    }

    #[test]
    fn walk_correction_stays_inside_the_envelope_and_tightens() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let q = 1;
        let truth = truth_to(&t, q);
        let params = ApproxParams { epsilon: 1e-2, walks: 256, seed: 9 };
        let est = BidirEstimator::build(&t, q, 0.15, &params, 5e-3);
        let mut err_base = 0.0;
        let mut err_walked = 0.0;
        for u in 0..6u32 {
            let (val, walks) = est.estimate(&t, u);
            assert_eq!(walks, 256);
            let p = truth[u as usize];
            assert!(
                est.lower(u) <= val + 1e-12 && val <= est.lower(u) + est.bound() + 1e-12,
                "estimate left the envelope for u={u}"
            );
            err_base += (p - est.lower(u)).abs();
            err_walked += (p - val).abs();
        }
        assert!(err_walked < err_base, "walks should tighten: {err_walked} vs {err_base}");
    }

    #[test]
    fn estimates_are_deterministic_and_seed_sensitive() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let a = ApproxParams { epsilon: 1e-3, walks: 64, seed: 3 };
        let b = ApproxParams { epsilon: 1e-3, walks: 64, seed: 4 };
        let ea = BidirEstimator::build(&t, 2, 0.15, &a, 5e-4);
        let ea2 = BidirEstimator::build(&t, 2, 0.15, &a, 5e-4);
        let eb = BidirEstimator::build(&t, 2, 0.15, &b, 5e-4);
        let mut any_differs = false;
        for u in 0..6u32 {
            assert_eq!(ea.estimate(&t, u), ea2.estimate(&t, u), "same seed must agree");
            any_differs |= ea.estimate(&t, u) != eb.estimate(&t, u);
        }
        assert!(any_differs, "different seeds should perturb at least one estimate");
    }

    #[test]
    fn inactive_params_are_recognised() {
        assert!(ApproxParams::default().is_active());
        assert!(!ApproxParams { epsilon: 0.0, ..Default::default() }.is_active());
        assert!(!ApproxParams { epsilon: f64::NAN, ..Default::default() }.is_active());
        assert!(!ApproxParams { epsilon: -1.0, ..Default::default() }.is_active());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_zero_threshold() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        BidirEstimator::build(&t, 0, 0.15, &ApproxParams::default(), 0.0);
    }
}
