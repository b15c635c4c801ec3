//! The Bookmark Coloring Algorithm (paper §2.2 and §4.1.2).
//!
//! BCA models RWR as ink propagation: a unit of ink is injected at the source
//! `u`; whenever a node's residue is propagated, an `α` fraction is *retained*
//! there and the remaining `1−α` flows along its out-edges in transition
//! proportion. Ink that reaches a **hub** is parked in the hub-ink vector `s`
//! instead of propagating (Eq. 6) — its effect is recovered later from the
//! precomputed hub proximity vectors (`p^t_u = w^t_u + P_H·s^t_u`, Eq. 7).
//!
//! Propagation follows the paper's batch adaptation (Eqs. 8–9): every node
//! with residue `≥ η` propagates in one iteration, collected *before* any
//! pushes so an iteration exactly matches the equations. It maintains the
//! conservation invariant `‖w‖₁ + ‖s‖₁ + ‖r‖₁ = 1` and the monotonicity of
//! retained ink (Prop. 1), which is what makes the index's values true lower
//! bounds.
//!
//! The engine's state round-trips through compact [`BcaSnapshot`]s so a
//! partially-run computation can be stored in the offline index and *resumed*
//! during query refinement (§4.2.3).

use crate::hubs::HubSet;
use crate::params::BcaParams;
use rtk_graph::TransitionMatrix;
use rtk_sparse::{EpochScratch, SparseVector};

/// Stop condition for a (resumed) BCA run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BcaStop {
    /// Stop once `‖r‖₁ ≤` this threshold (`δ` in the paper).
    pub residue_norm: f64,
    /// Stop after at most this many additional iterations.
    pub max_iterations: u32,
}

impl BcaStop {
    /// Stop rule matching the index-construction defaults of `params`.
    pub fn from_params(params: &BcaParams) -> Self {
        Self { residue_norm: params.residue_threshold, max_iterations: params.max_iterations }
    }

    /// Exactly one more iteration (query-time refinement, Alg. 4 line 13).
    pub fn one_iteration() -> Self {
        Self { residue_norm: 0.0, max_iterations: 1 }
    }
}

/// Work metrics for a run (used by benches and the experiment harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BcaWork {
    /// Iterations executed.
    pub iterations: u32,
    /// Node propagations (frontier members processed).
    pub propagations: u64,
    /// Edge pushes performed.
    pub pushes: u64,
}

/// Compact, resumable state of one BCA computation from a source node.
///
/// The offline index stores one snapshot per graph node (`R`, `W`, `S`
/// matrices of Alg. 1); query-time refinement loads it, advances a few
/// iterations, and stores it back.
#[derive(Clone, Debug, PartialEq)]
pub struct BcaSnapshot {
    /// Source node `u` the ink was injected at.
    pub source: u32,
    /// Total iterations executed so far (`t_u`).
    pub iterations: u32,
    /// Residue ink `r` (non-hub nodes only).
    pub residue: SparseVector,
    /// Retained ink `w` (non-hub nodes only).
    pub retained: SparseVector,
    /// Ink parked at hubs `s`.
    pub hub_ink: SparseVector,
}

impl BcaSnapshot {
    /// `‖r‖₁` — the residual mass that has not yet been retained or parked.
    pub fn residue_norm(&self) -> f64 {
        self.residue.sum()
    }

    /// `‖w‖₁ + ‖s‖₁` — mass already accounted for; with exact hub vectors the
    /// materialized `p^t_u` sums to exactly this.
    pub fn settled_mass(&self) -> f64 {
        self.retained.sum() + self.hub_ink.sum()
    }

    /// Approximate heap footprint in bytes (index size accounting).
    pub fn heap_bytes(&self) -> usize {
        self.residue.heap_bytes() + self.retained.heap_bytes() + self.hub_ink.heap_bytes()
    }
}

/// Reusable BCA executor over one graph + hub set.
///
/// Owns dense scratch buffers sized to the graph, so building one engine and
/// running it across many sources (index construction) performs no per-source
/// allocation beyond the output snapshots.
pub struct BcaEngine {
    hubs: HubSet,
    params: BcaParams,
    residue: EpochScratch,
    retained: EpochScratch,
    hub_ink: EpochScratch,
    residue_norm: f64,
    /// Source and cumulative iteration count of the resident computation.
    source: u32,
    iterations: u32,
    /// Per-iteration selection buffers, kept so an iteration allocates nothing.
    frontier: Vec<(u32, f64)>,
    swept: Vec<u32>,
    work: BcaWork,
}

impl BcaEngine {
    /// Creates an engine. `hubs` may be empty (plain BCA). Scratch buffers
    /// are sized from the hub set's node count; every call takes the
    /// transition matrix explicitly, so one engine can outlive any borrow of
    /// the graph (the facade crate relies on this).
    ///
    /// # Panics
    /// Panics if `params` are invalid.
    pub fn new(hubs: HubSet, params: BcaParams) -> Self {
        params.validate();
        let n = hubs.node_count();
        Self {
            hubs,
            params,
            residue: EpochScratch::new(n),
            retained: EpochScratch::new(n),
            hub_ink: EpochScratch::new(n),
            residue_norm: 0.0,
            source: 0,
            iterations: 0,
            frontier: Vec::new(),
            swept: Vec::new(),
            work: BcaWork::default(),
        }
    }

    /// The hub set this engine propagates against.
    pub fn hubs(&self) -> &HubSet {
        &self.hubs
    }

    /// Cumulative work counters across all runs of this engine.
    pub fn work(&self) -> BcaWork {
        self.work
    }

    /// Injects unit ink at `source` and runs until `stop`.
    ///
    /// The injection always lands in the residue vector — even for a hub
    /// source, whose ink is then swept into `s` by the first iteration's
    /// Eq. 6 step, matching the paper's uniform treatment of all nodes.
    pub fn run_from(
        &mut self,
        transition: &TransitionMatrix<'_>,
        source: u32,
        stop: &BcaStop,
    ) -> BcaSnapshot {
        assert!((source as usize) < self.residue.len(), "BcaEngine: source {source} out of range");
        self.clear();
        self.source = source;
        self.residue.add(source as usize, 1.0);
        self.residue_norm = 1.0;
        self.advance(transition, stop);
        self.snapshot()
    }

    /// Loads `snapshot`, advances it until `stop`, and stores the result back.
    /// Returns the number of iterations actually executed.
    pub fn resume(
        &mut self,
        transition: &TransitionMatrix<'_>,
        snapshot: &mut BcaSnapshot,
        stop: &BcaStop,
    ) -> u32 {
        self.load(snapshot);
        let executed = self.advance(transition, stop);
        *snapshot = self.snapshot();
        executed
    }

    /// Makes `snapshot` the resident computation: [`Self::advance`] then
    /// continues it in place, any number of times, and [`Self::snapshot`]
    /// stores it back — so a caller that re-tests bounds between runs pays
    /// the load and the store once, not once per run.
    pub fn load(&mut self, snapshot: &BcaSnapshot) {
        self.clear();
        self.source = snapshot.source;
        self.iterations = snapshot.iterations;
        snapshot.residue.scatter_into(1.0, &mut self.residue);
        snapshot.retained.scatter_into(1.0, &mut self.retained);
        snapshot.hub_ink.scatter_into(1.0, &mut self.hub_ink);
        self.residue_norm = snapshot.residue.sum();
    }

    /// Advances the resident computation until `stop`; returns the
    /// iterations executed.
    pub fn advance(&mut self, transition: &TransitionMatrix<'_>, stop: &BcaStop) -> u32 {
        assert_eq!(
            transition.node_count(),
            self.residue.len(),
            "BcaEngine: graph/hub-set node count mismatch"
        );
        let executed = self.iterate(transition, stop);
        self.iterations += executed;
        executed
    }

    /// The resident computation as a compact snapshot.
    pub fn snapshot(&self) -> BcaSnapshot {
        BcaSnapshot {
            source: self.source,
            iterations: self.iterations,
            residue: self.residue.to_sparse(0.0),
            retained: self.retained.to_sparse(0.0),
            hub_ink: self.hub_ink.to_sparse(0.0),
        }
    }

    /// `‖r‖₁` of the resident computation, maintained incrementally by the
    /// pushes (equal to the stored norm right after [`Self::load`]).
    pub fn residue_norm(&self) -> f64 {
        self.residue_norm
    }

    /// Retained ink `w` of the resident computation.
    pub fn retained(&self) -> &EpochScratch {
        &self.retained
    }

    /// Ink parked at hubs `s` of the resident computation.
    pub fn hub_ink(&self) -> &EpochScratch {
        &self.hub_ink
    }

    fn clear(&mut self) {
        self.residue.reset();
        self.retained.reset();
        self.hub_ink.reset();
        self.residue_norm = 0.0;
        self.iterations = 0;
    }

    /// Numerical exhaustion floor for `‖r‖₁`. Below the smallest normal
    /// `f64` the remaining "mass" is denormal noise, and propagation can
    /// **livelock**: for a residue at the denormal minimum, `0.85·r` rounds
    /// back up to `r`, so an out-degree-1 node pushes its residue forward
    /// undiminished and a probability-1 cycle circulates it forever. A run
    /// whose norm is under this floor is treated as exhausted — the mass
    /// unaccounted for (`≤ n·2.2e−308`) is far below every tolerance in the
    /// system.
    const RESIDUE_FLOOR: f64 = f64::MIN_POSITIVE;

    /// Core loop; returns iterations executed.
    ///
    /// Each iteration mirrors the paper's simultaneous update of Eqs. 6, 8
    /// and 9: first the ink sitting at hubs (still part of `r_{t−1}` and of
    /// `‖r‖₁` — this is what makes Figure 2's `‖r₄‖ = 0.36` come out) is
    /// swept into `s`; then the frontier chosen from `r_{t−1}` retains `α`
    /// and pushes `1−α`, with pushes *into* hubs landing back in `r` to be
    /// swept next iteration.
    fn iterate(&mut self, transition: &TransitionMatrix<'_>, stop: &BcaStop) -> u32 {
        let mut executed = 0u32;
        let mut frontier = std::mem::take(&mut self.frontier);
        let mut swept = std::mem::take(&mut self.swept);
        let stop_norm = stop.residue_norm.max(Self::RESIDUE_FLOOR);
        let eta = self.params.propagation_threshold;
        while executed < stop.max_iterations && self.residue_norm > stop_norm {
            // One pass over r_{t−1} in touch order picks everything the
            // iteration needs: the hub slots to sweep (Eq. 6), the non-hub
            // slots at or above η (the batch frontier), and the largest
            // non-hub residue (ties to the smaller id) for the sub-η
            // fallbacks.
            swept.clear();
            frontier.clear();
            let mut largest: Option<(u32, f64)> = None;
            for (i, v) in self.residue.iter_touched() {
                if v <= 0.0 {
                    continue;
                }
                if self.hubs.contains(i) {
                    swept.push(i);
                    continue;
                }
                if v >= eta {
                    frontier.push((i, v));
                }
                match largest {
                    Some((bi, bv)) if bv > v || (bv == v && bi < i) => {}
                    _ => largest = Some((i, v)),
                }
            }

            // Eq. 6: s_t = Σ_{i∈H} r_{t−1}(i)·e_i + s_{t−1}, removing the
            // swept ink from the residue.
            let mut progressed = !swept.is_empty();
            for &i in &swept {
                let v = self.residue.get(i as usize);
                self.hub_ink.add(i as usize, v);
                self.residue.set(i as usize, 0.0);
                self.residue_norm -= v;
            }

            // The batch frontier `L_t = {v ∉ H : r_{t−1}(v) ≥ η}` (Eqs. 8–9).
            if frontier.is_empty() {
                // Sub-η regime: the paper's analysis stops refining "until
                // the maximum residue drops below η" (Thm. 3), but deciding
                // borderline candidates *exactly* needs tighter bounds. Batch
                // every node above half the maximum residue so the residual
                // keeps decaying geometrically instead of draining one node
                // at a time.
                if let Some((_, rmax)) = largest {
                    // `rmax / 2` can underflow to 0 once the residue reaches
                    // the denormal floor; the `v > 0` guard keeps zero-valued
                    // touched slots (no-op pushes, the hubs just swept) out
                    // of the frontier.
                    let adaptive = rmax / 2.0;
                    for (i, v) in self.residue.iter_touched() {
                        if v >= adaptive && v > 0.0 {
                            frontier.push((i, v));
                        }
                    }
                }
            }
            if frontier.is_empty() && !progressed {
                // Sub-threshold residue everywhere and nothing parked at
                // hubs: fall back to the single largest residue so
                // refinement always makes progress (the paper is silent
                // here).
                match largest {
                    Some(best) => frontier.push(best),
                    None => {
                        // No residue at all: whatever the running norm still
                        // reads is accumulated rounding, not ink.
                        self.residue_norm = 0.0;
                        break;
                    }
                }
            }

            // Phase 1 (Eq. 9, second term): withdraw the frontier's residue
            // *before* any pushes so this iteration uses r_{t−1} throughout.
            for &(v, rv) in &frontier {
                debug_assert!(rv > 0.0);
                self.residue.set(v as usize, 0.0);
                self.residue_norm -= rv;
            }

            // Phase 2 (Eqs. 8, 9 first term): retain α, push 1−α. Pushes to
            // hubs stay in `r` until next iteration's sweep.
            let alpha = self.params.alpha;
            for &(v, rv) in &frontier {
                self.retained.add(v as usize, alpha * rv);
                let spill = (1.0 - alpha) * rv;
                let (targets, probs) = transition.out_edges(v);
                for (&t, &p) in targets.iter().zip(probs) {
                    let amount = spill * p;
                    self.residue.add(t as usize, amount);
                    self.residue_norm += amount;
                }
                self.work.pushes += targets.len() as u64;
            }
            progressed |= !frontier.is_empty();
            if !progressed {
                break;
            }
            self.work.propagations += frontier.len() as u64;
            executed += 1;
            // Guard against accumulated floating error pushing the norm
            // slightly negative near exhaustion.
            if self.residue_norm < 0.0 {
                self.residue_norm = 0.0;
            }
        }
        self.frontier = frontier;
        self.swept = swept;
        self.work.iterations += executed;
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::proximity_matrix_dense;
    use crate::params::RwrParams;
    use crate::power::proximity_from;
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};

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

    fn exhaustive_stop() -> BcaStop {
        BcaStop { residue_norm: 1e-12, max_iterations: 1_000_000 }
    }

    #[test]
    fn conservation_invariant_holds_throughout() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let mut engine = BcaEngine::new(hubs, BcaParams::default());
        let mut snap = engine.run_from(&t, 3, &BcaStop { residue_norm: 0.5, max_iterations: 1 });
        for _ in 0..20 {
            let total = snap.residue_norm() + snap.settled_mass();
            assert!((total - 1.0).abs() < 1e-12, "mass leaked: {total}");
            engine.resume(&t, &mut snap, &BcaStop::one_iteration());
        }
    }

    #[test]
    fn no_hub_bca_converges_to_power_method() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::exhaustive(0.15));
        for u in 0..6u32 {
            let snap = engine.run_from(&t, u, &exhaustive_stop());
            let (pm, _) = proximity_from(&t, u, &RwrParams::default());
            let w = snap.retained.to_dense(6);
            for v in 0..6 {
                assert!((w[v] - pm[v]).abs() < 1e-8, "u={u} v={v}: {} vs {}", w[v], pm[v]);
            }
            assert!(snap.hub_ink.is_empty());
        }
    }

    #[test]
    fn hub_materialization_recovers_exact_proximity() {
        // w + Σ_h s(h)·p_h must equal p_u when BCA runs to exhaustion.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let exact = proximity_matrix_dense(&t, 0.15);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let mut engine = BcaEngine::new(hubs, BcaParams::exhaustive(0.15));
        for u in 2..6u32 {
            let snap = engine.run_from(&t, u, &exhaustive_stop());
            let mut p = snap.retained.to_dense(6);
            for (h, sh) in snap.hub_ink.iter() {
                for v in 0..6 {
                    p[v] += sh * exact[h as usize][v];
                }
            }
            for v in 0..6 {
                assert!(
                    (p[v] - exact[u as usize][v]).abs() < 1e-8,
                    "u={u} v={v}: {} vs {}",
                    p[v],
                    exact[u as usize][v]
                );
            }
        }
    }

    #[test]
    fn source_at_hub_parks_everything() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let mut engine = BcaEngine::new(hubs, BcaParams::default());
        let snap = engine.run_from(&t, 1, &BcaStop::from_params(&BcaParams::default()));
        assert_eq!(snap.hub_ink.get(1), 1.0);
        assert!(snap.residue.is_empty());
        assert!(snap.retained.is_empty());
        assert_eq!(snap.residue_norm(), 0.0);
    }

    #[test]
    fn retained_ink_is_monotone_under_refinement() {
        // Prop. 1: every entry of w (and s) only grows with more iterations.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![1]);
        let mut engine = BcaEngine::new(hubs, BcaParams::default());
        let mut snap = engine.run_from(&t, 2, &BcaStop { residue_norm: 0.9, max_iterations: 1 });
        let mut prev_w = snap.retained.to_dense(6);
        let mut prev_s = snap.hub_ink.to_dense(6);
        for _ in 0..15 {
            engine.resume(&t, &mut snap, &BcaStop::one_iteration());
            let w = snap.retained.to_dense(6);
            let s = snap.hub_ink.to_dense(6);
            for v in 0..6 {
                assert!(w[v] >= prev_w[v] - 1e-15, "w({v}) shrank");
                assert!(s[v] >= prev_s[v] - 1e-15, "s({v}) shrank");
            }
            prev_w = w;
            prev_s = s;
        }
    }

    #[test]
    fn residue_norm_shrinks_every_iteration() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::default());
        let mut snap = engine.run_from(&t, 0, &BcaStop { residue_norm: 0.99, max_iterations: 1 });
        let mut prev = snap.residue_norm();
        for _ in 0..10 {
            engine.resume(&t, &mut snap, &BcaStop::one_iteration());
            let cur = snap.residue_norm();
            assert!(cur < prev, "residue should strictly shrink: {cur} vs {prev}");
            prev = cur;
        }
    }

    #[test]
    fn stop_rule_residue_threshold_is_respected() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::default());
        let snap = engine.run_from(&t, 0, &BcaStop { residue_norm: 0.3, max_iterations: 10_000 });
        assert!(snap.residue_norm() <= 0.3);
        // ... but not absurdly small: BCA stops as soon as the rule is met.
        assert!(snap.residue_norm() > 1e-6);
    }

    #[test]
    fn resume_equals_uninterrupted_run_for_batch() {
        // Batch propagation is deterministic, so running 2 iterations then 3
        // must equal running 5 straight.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = BcaParams::default();
        fn mk(params: BcaParams) -> BcaEngine {
            BcaEngine::new(HubSet::from_ids(6, vec![1]), params)
        }
        let mut spliced =
            mk(params).run_from(&t, 2, &BcaStop { residue_norm: 0.0, max_iterations: 2 });
        mk(params).resume(&t, &mut spliced, &BcaStop { residue_norm: 0.0, max_iterations: 3 });
        let straight =
            mk(params).run_from(&t, 2, &BcaStop { residue_norm: 0.0, max_iterations: 5 });
        assert_eq!(spliced.iterations, straight.iterations);
        let (a, b) = (spliced.retained.to_dense(6), straight.retained.to_dense(6));
        for v in 0..6 {
            assert!((a[v] - b[v]).abs() < 1e-15);
        }
        assert_eq!(spliced.residue, straight.residue);
    }

    #[test]
    fn a_resident_computation_advances_as_one_uninterrupted_run() {
        // No store and reload between runs: 2 + 3 iterations on the resident
        // state are bitwise the 5 of a straight run, and a loaded snapshot
        // reads back unchanged.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mk = || BcaEngine::new(HubSet::from_ids(6, vec![1]), BcaParams::default());
        let steps = |n| BcaStop { residue_norm: 0.0, max_iterations: n };
        let straight = mk().run_from(&t, 2, &steps(5));
        let mut engine = mk();
        let after_two = engine.run_from(&t, 2, &steps(2));
        assert_eq!(engine.advance(&t, &steps(3)), 3);
        assert_eq!(engine.snapshot(), straight);
        assert!((engine.residue_norm() - straight.residue_norm()).abs() < 1e-15);

        engine.load(&after_two);
        assert_eq!(engine.snapshot(), after_two);
        assert_eq!(engine.residue_norm(), after_two.residue_norm());
        // A stop rule that is already met runs nothing and changes nothing.
        assert_eq!(engine.advance(&t, &BcaStop { residue_norm: 1.0, max_iterations: 9 }), 0);
        assert_eq!(engine.snapshot(), after_two);
    }

    #[test]
    fn work_counters_accumulate() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::default());
        engine.run_from(&t, 0, &BcaStop { residue_norm: 0.1, max_iterations: 100 });
        let w = engine.work();
        assert!(w.iterations > 0 && w.propagations > 0 && w.pushes > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_source() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::default());
        engine.run_from(&t, 6, &BcaStop::one_iteration());
    }
}
