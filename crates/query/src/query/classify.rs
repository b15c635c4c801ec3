//! The classify pass (Alg. 4 lines 3–7 and the first bound test): every
//! node of the range the index holds is tested once against its *stored*
//! state, and everything that state can decide is decided here — pruned,
//! confirmed, or, on the ε-band path, called at its window's midpoint.
//! Only the undecided candidates go on to the refine pass, each with the
//! confirm cost its first refinement run aims at.
//!
//! An exact frozen query then makes one serial [`recall`] step: a candidate
//! the stored state left open is tested against the bounds an earlier frozen
//! query's refinement reached for it, which the index kept.

use super::{bound_test, Decided, QueryCtx, Verdict, TIE_EPSILON};
use rtk_approx::BidirEstimator;
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_sparse::WorkerPool;
use std::ops::Range;

/// Target weight per classify chunk a lane claims, where node `u` weighs
/// `1 + out_degree(u)` — its bound checks plus the edges a refinement would
/// push along. About 16 nodes on a mean-degree-6 graph: small enough to
/// balance uneven chunks, large enough to amortize the claim counter; on
/// skewed (power-law) graphs it keeps a hub node from making one chunk
/// orders of magnitude heavier than the rest.
const SCREEN_CHUNK_EDGES: usize = 96;

/// What classify reads in place of `p_u(q)`. Algorithm 4's tests are the
/// same whichever value stands in; the two sources — and any further sound
/// bound on `p_u(q)` — differ only in how that value is obtained.
/// Monomorphised: the classify loop makes no dynamic call.
pub(super) trait BoundSource: Sync {
    /// Whether [`Self::point`] is an estimate of `p_u(q)` rather than the
    /// value itself; gates the `approx_*` counters.
    const ESTIMATED: bool;

    /// An upper bound on `p_u(q)` that costs nothing extra: a node whose
    /// ceiling fails a pruning test is a certain miss.
    fn ceiling(&self, u: u32) -> f64;

    /// The value a surviving candidate is decided (and reported) with, at
    /// most [`Self::ceiling`], and the forward walks spent obtaining it.
    fn point(&self, u: u32) -> (f64, u64);
}

/// The exact source: the PMPN vector. Ceiling and point are both
/// `p_u(q)` itself.
pub(super) struct ExactSource<'a>(pub(super) &'a [f64]);

impl BoundSource for ExactSource<'_> {
    const ESTIMATED: bool = false;

    #[inline]
    fn ceiling(&self, u: u32) -> f64 {
        self.0[u as usize]
    }

    #[inline]
    fn point(&self, u: u32) -> (f64, u64) {
        (self.0[u as usize], 0)
    }
}

/// The approximate source (`rtk-approx` subsystem): the bidirectional
/// estimator's deterministic envelope `est[u] ≤ p_u(q) ≤ est[u] + ρ`
/// (ρ = ε/2). The ceiling is the envelope's optimistic edge, so nodes the
/// envelope alone prunes cost no walk; the point is the walk-refined
/// estimate `p̃`, still inside the envelope. Any misclassification requires
/// the true proximity to lie within ε of the node's top-k boundary.
pub(super) struct EnvelopeSource<'a> {
    pub(super) est: &'a BidirEstimator,
    pub(super) transition: &'a TransitionMatrix<'a>,
}

impl BoundSource for EnvelopeSource<'_> {
    const ESTIMATED: bool = true;

    #[inline]
    fn ceiling(&self, u: u32) -> f64 {
        self.est.lower(u) + self.est.bound()
    }

    #[inline]
    fn point(&self, u: u32) -> (f64, u64) {
        self.est.estimate(self.transition, u)
    }
}

/// A candidate the stored state could not decide: its bounds are open, so
/// it needs refinement.
pub(super) struct Pending {
    pub(super) node: u32,
    /// `p_node(q)`, or its estimate, as the bound test read it.
    pub(super) p_uq: f64,
    /// The stored state's k-th upper bound — the refine pass's scheduling
    /// key.
    pub(super) ub: f64,
    /// The residual the first refinement run aims at (see
    /// [`Verdict::Open`]).
    pub(super) cost: f64,
}

/// Runs the classify pass over the node range `ctx.index` holds: lanes
/// claim degree-balanced chunks (see [`screen_chunks`]) and fold their
/// outputs. Per-node decisions are independent, so neither the lane count
/// nor the chunking changes any of them.
pub(super) fn classify<S: BoundSource>(ctx: &QueryCtx<'_>, source: &S) -> Decided {
    let chunks = screen_chunks(ctx.index.owned_range(), ctx.transition.graph());
    let lanes =
        WorkerPool::global().claim(ctx.threads, chunks.len(), Decided::default, |local, ci| {
            classify_chunk(ctx, source, chunks[ci], local)
        });
    let mut total = Decided::default();
    for local in lanes {
        total.absorb(local);
    }
    total
}

/// The recall step of an exact frozen query, under one lock of the index's
/// kept bounds: every pending candidate with kept bounds tighter than its
/// stored state (a smaller `‖r‖₁`) takes one [`bound_test`] of them. A miss
/// is dropped and a member joins the results, both counted as
/// [`super::QueryStats::recalled`]; a candidate still open keeps that test's
/// upper bound and cost, so its refinement aims at where the kept bounds
/// left off.
///
/// Kept bounds are a later point of the same refinement the candidate would
/// run from its stored state on this graph, and bounds only tighten along
/// it, so they decide a candidate the way that refinement would.
pub(super) fn recall(ctx: &QueryCtx<'_>, decided: &mut Decided) {
    if decided.pending.is_empty() {
        return;
    }
    let kept = ctx.index.kept();
    let Decided { stats, results, pending, .. } = decided;
    pending.retain_mut(|c| {
        let Some(bounds) = kept.get(c.node) else { return true };
        if bounds.residue_norm >= ctx.index.state(c.node).residue_norm() {
            return true;
        }
        let residual = bounds.residual_mass(ctx.strict);
        match bound_test(&bounds.staircase[..ctx.k], residual, c.p_uq, None) {
            Verdict::Open { ub, cost } => {
                (c.ub, c.cost) = (ub, cost);
                return true;
            }
            Verdict::Member { .. } => results.push((c.node, c.p_uq)),
            Verdict::Miss => {}
            Verdict::Midpoint(_) => unreachable!("an exact query has no ε window"),
        }
        stats.recalled += 1;
        false
    });
}

/// Cuts `nodes` into the classify pass's `[lo, hi)` chunks, ascending and
/// covering every node once. A chunk closes at the first node that brings
/// its `1 + out_degree` weight to [`SCREEN_CHUNK_EDGES`] (the `1` keeps
/// edge-free stretches from collapsing into one giant chunk), so on skewed
/// graphs chunks carry equal *work*: a hub's chunk is small in nodes, not
/// in edges. Per-node decisions are independent and merged by node id, so
/// the chunking only changes scheduling.
fn screen_chunks(nodes: Range<u32>, graph: &DiGraph) -> Vec<(u32, u32)> {
    let mut chunks = Vec::new();
    let (mut lo, mut weight) = (nodes.start, 0usize);
    for u in nodes.clone() {
        weight += 1 + graph.out_neighbors(u).len();
        if weight >= SCREEN_CHUNK_EDGES {
            chunks.push((lo, u + 1));
            (lo, weight) = (u + 1, 0);
        }
    }
    if lo < nodes.end {
        chunks.push((lo, nodes.end));
    }
    chunks
}

/// Classifies the nodes `lo..hi` against `source`'s stand-in for `p_u(q)`:
/// first the pruning tests on the ceiling and the stored k-th lower bound,
/// which read no staircase (the certain misses), then one [`bound_test`]
/// of the stored state.
fn classify_chunk<S: BoundSource>(
    ctx: &QueryCtx<'_>,
    source: &S,
    (lo, hi): (u32, u32),
    local: &mut Decided,
) {
    let k = ctx.k;
    // An estimated source's decisions are reported in the approx counters.
    let estimated = u64::from(S::ESTIMATED);
    for u in lo..hi {
        let ceiling = source.ceiling(u);

        // Membership requires strictly positive proximity: a top-k *set*
        // only contains reachable nodes. Without this, every node whose
        // proximity vector has fewer than k non-zeros (its k-th value is 0)
        // would "contain" every query node — Figure 1's shaded cells are
        // always non-zero.
        if ceiling <= TIE_EPSILON {
            local.stats.pruned_by_lower_bound += 1;
            continue;
        }
        // Fast path: prune on the stored lower bound without copying
        // (Alg. 4 line 4's first evaluation).
        let state = ctx.index.state(u);
        if ceiling < state.kth_lower_bound(k) - TIE_EPSILON {
            local.stats.pruned_by_lower_bound += 1;
            continue;
        }
        local.stats.candidates += 1;
        let (p_uq, walks) = source.point(u);
        local.stats.approx_walks += walks;
        let staircase = state.lower_bounds().prefix_values(k);
        let residual = state.residual_mass(ctx.strict);
        match bound_test(&staircase, residual, p_uq, ctx.epsilon) {
            // Only an estimate can sit below its own ceiling; on the exact
            // source the point *is* the ceiling that just passed.
            Verdict::Miss => local.stats.approx_estimated += estimated,
            Verdict::Member { hit } => {
                local.stats.hits += usize::from(hit); // confirmed without refinement
                local.stats.approx_estimated += estimated;
                local.results.push((u, p_uq));
            }
            // Approximate mode drops what the stored state leaves open, ε
            // window or not: no refinement (paper §5.3's suggested variant).
            Verdict::Midpoint(_) | Verdict::Open { .. } if ctx.options.approximate => {}
            Verdict::Midpoint(member) => {
                local.stats.approx_estimated += 1;
                if member {
                    local.results.push((u, p_uq));
                }
            }
            Verdict::Open { ub, cost } => {
                local.pending.push(Pending { node: u, p_uq, ub, cost });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::{DanglingPolicy, GraphBuilder};

    #[test]
    fn screen_chunks_cover_every_node_once_in_order() {
        // The chunks must partition the range exactly: ascending, non-empty,
        // each starting where the previous one ended.
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(100, 420, 3)).unwrap();
        for nodes in [0..1u32, 0..100, 17..33, 99..100] {
            let chunks = screen_chunks(nodes.clone(), &g);
            let mut next = nodes.start;
            for &(lo, hi) in &chunks {
                assert!(lo == next && lo < hi, "{nodes:?}: {chunks:?}");
                next = hi;
            }
            assert_eq!(next, nodes.end, "{nodes:?}: {chunks:?}");
        }
    }

    #[test]
    fn edge_balanced_chunks_track_degree_weight() {
        // A graph with one very heavy node: its chunk must not also absorb
        // a long run of light nodes (the balance property), while an
        // edge-free stretch still gets cut into bounded pieces.
        let heavy: Vec<(u32, u32)> = (1..=200u32).map(|v| (0, v % 256)).collect();
        let g = GraphBuilder::from_edges(256, &heavy, DanglingPolicy::SelfLoop).unwrap();
        let chunks = screen_chunks(0..256, &g);
        assert!(chunks.len() > 1, "heavy graph should split into several chunks");
        assert_eq!(chunks[0], (0, 1), "the 200-edge hub saturates its chunk alone");
        for &(lo, hi) in &chunks[1..] {
            // Every light node weighs 1 + 1 (self loop or one in-edge), so
            // chunks stay near SCREEN_CHUNK_EDGES / 2 nodes wide.
            assert!((hi - lo) as usize <= SCREEN_CHUNK_EDGES, "{lo}..{hi}");
        }
    }
}
