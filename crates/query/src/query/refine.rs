//! The refine pass (Alg. 4 lines 8–13): each candidate the classify pass
//! left open is loaded into its lane's [`Refiner`] and its BCA resumed,
//! resident there, until [`bound_test`] decides it. The shared index is
//! only read; a refined copy is written out for the commit phase.

use super::classify::Pending;
use super::{bound_test, BoundMode, Decided, QueryCtx, QueryEngine, Verdict};
use super::{EXACT_RESIDUAL_EPS, TIE_EPSILON};
use rtk_graph::TransitionMatrix;
use rtk_index::{HubMatrix, Refiner};
use rtk_rwr::bca::BcaStop;
use rtk_rwr::power::proximity_from;
use rtk_rwr::RwrParams;
use rtk_sparse::WorkerPool;

/// Share of a candidate's confirm cost that one refinement run aims its
/// residual at (see [`screen_candidate`]). The cost is the residual at which
/// a confirm *first becomes possible*, read off the staircase before the
/// run; aiming below it leaves room for the mass that lands outside the
/// top-k steps, so most candidates decide on the first re-test.
const REFINE_TARGET_FRACTION: f64 = 0.7;

/// Most BCA iterations one refinement run takes before the bounds are
/// re-tested — what bounds the overshoot of a candidate that is about to be
/// *pruned*, for which no residual target exists.
const REFINE_RUN_CAP: u32 = 64;

/// Runs the refine pass over `pending` on up to `ctx.threads` lanes, each
/// holding a [`Refiner`] taken from the session's pool beside what it
/// decided.
///
/// Candidates are visited in descending upper-bound order — the loosest
/// bounds first, so the longest refinements start early and the parallel
/// tail stays short — and claimed one at a time: the tail is heavy and
/// skewed, so finer granularity beats lower counter traffic here. The
/// order is a pure scheduling choice: candidates refine inside their lane's
/// scratch against the read-only index, so the visit order (like the
/// thread count) cannot change any answer.
pub(super) fn refine(
    ctx: &QueryCtx<'_>,
    session: &QueryEngine,
    mut pending: Vec<Pending>,
) -> Vec<(Refiner, Decided)> {
    // Ties break by node id so the schedule is reproducible no matter how
    // classify chunks interleaved.
    pending.sort_unstable_by(|a, b| b.ub.total_cmp(&a.ub).then(a.node.cmp(&b.node)));

    // Lanes already refining in parallel solve strict-mode exact fallbacks
    // serially to avoid oversubscription; a lone refiner keeps the full
    // SpMV thread budget for its fallback solves.
    let fallback = RwrParams {
        alpha: ctx.index.config().alpha(),
        threads: if ctx.threads.min(pending.len()) > 1 { 1 } else { ctx.threads },
        ..RwrParams::default()
    };
    WorkerPool::global().claim(
        ctx.threads,
        pending.len(),
        || (session.scratch.take_with(|| session.make_scratch()), Decided::default()),
        |(refiner, lane), i| screen_candidate(ctx, &fallback, refiner, lane, &pending[i]),
    )
}

/// What one refinement run did to the resident candidate.
#[derive(Debug, PartialEq, Eq)]
enum RefineRun {
    /// This many BCA iterations ran; the bounds were rematerialized.
    Advanced(u32),
    /// No ink is left to move: `‖r‖₁` is at most [`EXACT_RESIDUAL_EPS`], or
    /// the engine found nothing above its numerical floor.
    Exhausted,
}

/// Runs the resident candidate's BCA until `‖r‖₁ ≤ target` (at most
/// [`REFINE_RUN_CAP`] iterations). Exhaustion is read off the residue
/// itself, never off the iteration count: a target that is *already met* —
/// which the bound test rules out up to rounding, since `p < ub` means the
/// residual still exceeds the whole cost — takes Alg. 4's single iteration
/// instead, so the caller's loop always moves and never mistakes an idle
/// run for an exhausted one.
fn refine_run(
    refiner: &mut Refiner,
    transition: &TransitionMatrix<'_>,
    hub_matrix: &HubMatrix,
    target: f64,
) -> RefineRun {
    let norm = refiner.residue_norm();
    if norm <= EXACT_RESIDUAL_EPS {
        return RefineRun::Exhausted;
    }
    let stop = if norm <= target {
        BcaStop::one_iteration()
    } else {
        BcaStop { residue_norm: target, max_iterations: REFINE_RUN_CAP }
    };
    match refiner.advance(transition, hub_matrix, &stop) {
        0 => RefineRun::Exhausted,
        executed => RefineRun::Advanced(executed),
    }
}

/// Resolves one candidate the classify pass left open: refinement of its
/// BCA, resident in the lane's refiner, alternating with bound tests of the
/// refined bounds (Alg. 4 lines 8–13).
///
/// Alg. 4 refines "one more iteration" between bound tests. Here each run
/// goes straight to the residual the test needs: by Alg. 3's pouring
/// argument `p_u(q) ≥ ub` holds exactly when the residual is at most
/// [`crate::confirm_cost`], the ink that lifts the top-k steps to `p_u(q)`,
/// so no confirm is possible before the residual gets there and nothing is
/// lost by not looking earlier. Bounds only tighten, so *when* they are
/// re-tested cannot change a decision — the schedule is derived from the
/// candidate's own state and `p_u(q)` alone, and is the same for every
/// thread and shard count.
///
/// On the ε-band path `p_uq` is the bidirectional estimate `p̃`, and the
/// bound test's ε-window exit calls membership at the window's midpoint
/// once it fits in ε; runs aim at whichever of the two exits comes first
/// (see [`Verdict::Open`]). Candidates whose window never narrows to ε are
/// decided by the exact machinery, exactly as on the exact path.
fn screen_candidate(
    ctx: &QueryCtx<'_>,
    fallback: &RwrParams,
    refiner: &mut Refiner,
    lane: &mut Decided,
    c: &Pending,
) {
    let (u, p_uq) = (c.node, c.p_uq);
    lane.stats.refined_nodes += 1;
    refiner.load(ctx.index.state(u));
    let pushes = refiner.work().pushes;
    let mut cost = c.cost;
    let mut advanced = false; // at least one BCA iteration executed
    let mut midpoint_call = false; // decided by the ε-window, not by bounds
    let is_result = loop {
        // The target is on ‖r‖₁; in strict mode the parked deficit is part
        // of the residual and refinement cannot shrink it.
        let deficit = if ctx.strict { refiner.parked_deficit() } else { 0.0 };
        let target = (REFINE_TARGET_FRACTION * cost - deficit).max(0.0);
        match refine_run(refiner, ctx.transition, ctx.index.hub_matrix(), target) {
            RefineRun::Advanced(executed) => {
                advanced = true;
                lane.stats.refine_iterations += u64::from(executed);
                lane.stats.refine_rounds += 1;
            }
            // Residue exhausted but bounds still open. In paper-faithful
            // mode the lower bound then *is* the exact k-th value, which
            // p_uq already cleared (mirroring the paper's treatment of
            // rounded hub vectors as exact). In strict mode the gap is the
            // hub-rounding deficit, which refinement cannot shrink: resolve
            // exactly with one forward solve so strict results stay sound.
            RefineRun::Exhausted => match ctx.options.bound_mode {
                BoundMode::PaperFaithful => break true,
                BoundMode::Strict => {
                    lane.stats.exact_fallbacks += 1;
                    let (col, _) = proximity_from(ctx.transition, u, fallback);
                    let kth = rtk_sparse::dense::kth_largest(&col, ctx.k);
                    break col[ctx.q as usize] >= kth - TIE_EPSILON;
                }
            },
        }
        let staircase = refiner.lower_bounds().prefix_values(ctx.k);
        match bound_test(&staircase, refiner.residual_mass(ctx.strict), p_uq, ctx.epsilon) {
            Verdict::Miss => break false,
            Verdict::Member { .. } => break true,
            Verdict::Midpoint(member) => {
                midpoint_call = true;
                break member;
            }
            Verdict::Open { cost: next, .. } => cost = next,
        }
    };
    lane.stats.refine_pushes += refiner.work().pushes - pushes;
    if ctx.epsilon.is_some() {
        if midpoint_call {
            lane.stats.approx_estimated += 1;
        } else {
            lane.stats.approx_exact_refined += 1;
        }
    }
    if is_result {
        lane.results.push((u, p_uq));
    }
    if ctx.options.update_index && advanced {
        lane.commits.push((u, refiner.unload(ctx.index.hub_matrix())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::tests::{toy, toy_index_config};
    use crate::query::QueryOptions;
    use rtk_index::ReverseIndex;

    #[test]
    fn a_run_whose_target_is_already_met_is_not_mistaken_for_exhaustion() {
        // Node 4 (1-based) of the running example is stored with ‖r‖ = 0.36
        // and open bounds. A target at or above that residual — which the
        // bound test rules out up to rounding — must neither stall the loop
        // nor read as "no ink left": it takes one plain iteration, and only
        // `Exhausted` may lead to a decision on the lower bound or to a
        // strict-mode exact solve. (One iteration parks all of this node's
        // ink at the toy's hubs; runs to a genuine target are covered by
        // `tests/refine_schedule.rs`.)
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let session = QueryEngine::new(&index);
        let mut refiner = session.make_scratch();
        let stored = index.state(3);
        assert!(stored.residue_norm() > 0.3);

        refiner.load(stored);
        let run = refine_run(&mut refiner, &t, index.hub_matrix(), 0.5);
        assert_eq!(run, RefineRun::Advanced(1));
        assert!(refiner.residue_norm() < stored.residue_norm());

        // Exhaustion is read off the residue: a hub's state has none.
        refiner.load(index.state(1));
        assert_eq!(refiner.residue_norm(), 0.0);
        assert_eq!(refine_run(&mut refiner, &t, index.hub_matrix(), 0.0), RefineRun::Exhausted);

        // End to end, strict mode on exact hub vectors: every candidate's
        // bounds close by refinement, so no run may count as a fallback.
        let mut session = session;
        let strict = QueryOptions { bound_mode: BoundMode::Strict, ..Default::default() };
        for q in 0..6u32 {
            let r = session.query_frozen(&t, &index, q, 2, &strict).unwrap();
            assert_eq!(r.stats().exact_fallbacks, 0, "q={q}");
            assert!(r.stats().refine_rounds <= r.stats().refine_iterations, "q={q}");
        }
    }
}
