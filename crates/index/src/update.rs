//! Incremental edge updates — targeted invalidation and recompute
//! (ROADMAP direction 1, the write path).
//!
//! An edge update `u → v` (insert, weight change, or removal) renormalizes
//! exactly one row of the transition matrix: `u`'s out-row. Every index
//! entry is the output of a computation over the transition matrix, so an
//! entry can change only if its computation **reads row `u`** — directly, or
//! through a hub column that does.
//!
//! *Who can read row `u`.* Reading `u`'s out-row takes mass at `u`: a BCA run
//! from `q` reads it only when it pushes residue from `u`, a hub solve only
//! when `x[u] ≠ 0`. Mass reaches `u` only along out-edges, so nothing outside
//! the **affected set** [`affected_set`] — every node that can reach `u`,
//! a BFS from `u` over in-edges — ever reads the row. Outside it everything
//! is untouched *bitwise*: a run from an unaffected `q` replays the exact
//! same pushes; a column `p_h` of an unaffected hub sees `x[u] = +0.0`
//! throughout, and a `p·0.0 = +0.0` term inserted into a non-negative,
//! in-order accumulation leaves every partial sum bit-identical; and an
//! unaffected `q` parks ink only on unaffected hubs (a path `q → h → u`
//! would make `q` affected), so its materialized bounds see only unchanged
//! columns.
//!
//! *Inside the affected set* hub columns are re-solved first (states
//! materialize against `P_H`), then each held state is brought to what the
//! Algorithm 1 recipe yields on the edited graph — which is a from-scratch
//! run only for the states that need one. Reachability over-approximates
//! reading: a push reads the out-row of the node it pushes from and nothing
//! else (the linear push invariant), so a run from an affected `q` that never
//! pushed *from `u`* replays push for push on the edited graph and ends in the
//! same `(r, w, s, t)`. The index's **as-built bit** (see
//! [`crate::ReverseIndex`]) says a stored state *is* the recipe's output on
//! the graph as it stood before the edit, and `never_read_rows` reads off the
//! stored run whether it pushed from `u`; a state passing both keeps its run
//! and only rematerializes top-K and parked deficit against the new columns
//! (`‖r‖₁` is a function of the kept residue). Every hub-tailed edit
//! qualifies all of its as-built states: hub ink is parked, never pushed. A
//! state a query refined, or one that arrived by load or stitch, has no bit
//! and takes the from-scratch run — which is also what *resets* a refined
//! state to the recipe's output, the property that lets `snapshot +
//! replay(log)` reproduce a live index that served update-mode queries
//! between edits. A repartition keeps every bit: it moves no state.
//!
//! Consequently the post-update index is bitwise-equal to a full rebuild of
//! the mutated graph — provided the states outside the affected set were
//! never refined past their build-time stop (queries in `update` mode tighten
//! states monotonically; those remain correct, just no longer
//! byte-comparable to a *fresh* rebuild).
//!
//! The affected set is identical on the pre- and post-update graph: whether
//! `q` can reach `u` never depends on `u`'s own out-edges, and `u` is always
//! in the set. This makes the rule self-inverse and replay-friendly — the
//! update log ([`crate::storage::UpdateRecord`]) stores only the edit, and
//! replaying it deterministically regenerates the same recompute.
//!
//! *Many edits, one recompute.* A log of `m` edits to rows `u₁ … u_m` is
//! applied as `m` splices and **one** recompute
//! ([`crate::ReverseIndex::apply_update`]) over the union of the affected
//! sets, each taken on the graph right after its own splice. This is byte
//! for byte what `m` one-edit recomputes leave. A node outside the union is
//! touched by neither. For a node in the union, let edit `j` be the last
//! whose affected set holds it: the edit-by-edit state is the recipe's
//! output on the graph after edit `j`. No later edit reaches it, so by the
//! rule above the recipe's output is the same on the final graph, which is
//! what the single recompute computes. The same holds for a hub column. A
//! stored run is kept only if it is as built (the recipe's output on the
//! graph before the first edit) and `never_read_rows` holds for *every*
//! edited row: then the run read only rows that no edit touched, so it
//! replays push for push on the final graph. Testing only some of the rows
//! would keep a run that read a row edited earlier in the log.
//!
//! An edit the graph refuses (an absent edge, a node's last out-edge, an
//! out-of-range node, a weight that breaks its row) is refused before it
//! splices anything. The engine then recomputes the edits spliced before it
//! and returns the error, so a log that fails at edit `k` leaves what `k`
//! one-edit updates leave.

use crate::node_state::NodeState;
use rtk_graph::DiGraph;
use rtk_rwr::HubSet;

/// What one recompute ([`crate::ReverseIndex::apply_update`]) invalidated
/// and recomputed, and what its two stages and the BCA runs and record
/// hashing inside the second cost — for one edge update, or for a whole replayed log.
/// Only the first two counts go over the wire; the rest is in-process
/// observability.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateEffect {
    /// Node states recomputed, each once — the union of the edits' affected
    /// sets intersected with the nodes the index holds (all of it for a
    /// whole index, the owned shard's subset for a one-shard index).
    pub recomputed_states: usize,
    /// Hub columns recomputed, each once (hubs inside the union).
    pub recomputed_hubs: usize,
    /// How many of [`Self::recomputed_states`] re-ran their BCA from scratch;
    /// the rest kept a run that never read an edited row. In-process only:
    /// it depends on which states queries refined since they were built, so
    /// two replicas may differ here while agreeing on every byte.
    pub bca_runs: usize,
    /// Wall time of the hub-column recompute.
    pub hubs_seconds: f64,
    /// Wall time of the node-state recompute (BCA runs, rematerialization,
    /// record hashing, install).
    pub states_seconds: f64,
    /// The BCA runs inside [`Self::states_seconds`], broken out: time the
    /// sweep lanes spent in from-scratch runs, snapshot included, summed
    /// over lanes like [`Self::hash_seconds`].
    pub bca_seconds: f64,
    /// The record hashing inside [`Self::states_seconds`], broken out: time
    /// the sweep lanes spent hashing what they produced, summed over lanes
    /// (so with several lanes it is CPU time, not a share of the wall).
    pub hash_seconds: f64,
}

/// The set of nodes whose index entries an update of `source`'s out-row can
/// affect: every `q` that can reach `source` along out-edges, `source`
/// itself included. Computed as a BFS from `source` over in-edges; returned
/// in ascending id order (so downstream recompute schedules are canonical).
pub fn affected_set(graph: &DiGraph, source: u32) -> Vec<u32> {
    let n = graph.node_count();
    assert!((source as usize) < n, "update source {source} out of range");
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[source as usize] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for &p in graph.in_neighbors(v) {
            if !seen[p as usize] {
                seen[p as usize] = true;
                queue.push_back(p);
            }
        }
    }
    (0..n as u32).filter(|&u| seen[u as usize]).collect()
}

/// Whether the **as-built** run stored in `state` provably never read the
/// out-row of any node in `rows` — so it replays identically when only those
/// rows change. Sound, not complete: `false` merely costs a from-scratch run.
///
/// A hub's row is never read: ink arriving at a hub is parked (Eq. 6), not
/// pushed. For any other node, a push from it of residue `r` retains `α·r`
/// there, and retained ink never leaves — so `w[u] == 0` means no push from
/// `u`, *unless* `α·r` rounded to zero. It cannot have: a run starts from
/// one unit of residue, and each iteration turns a positive residue `r` into
/// pushes of `(1−α)·r·p` that are added to non-negative slots, so after `t`
/// iterations every positive residue is at least `((1−α)·p_min)^t`, with
/// `p_min` the smallest transition probability of the rows the run read. Up
/// to its first push from an edited row the run read only rows the edits
/// leave alone, so `min_probability` — taken over the edited matrix — bounds
/// them from below. The rule asks for `α` times that floor, at the run's
/// total iteration count, to be a *normal* number, 2⁵² above the smallest
/// subnormal — far outside what the rounding ignored in this argument can
/// close. As-built runs stop after a handful of iterations; one long enough
/// to fail the test is simply run again.
pub(crate) fn never_read_rows(
    state: &NodeState,
    rows: &[u32],
    hubs: &HubSet,
    alpha: f64,
    min_probability: f64,
) -> bool {
    let mut pushed = rows.iter().filter(|&&u| !hubs.contains(u)).peekable();
    if pushed.peek().is_none() {
        return true;
    }
    let iterations = i32::try_from(state.snapshot().iterations).unwrap_or(i32::MAX);
    let residue_floor = ((1.0 - alpha) * min_probability).powi(iterations);
    let retained = &state.snapshot().retained;
    alpha * residue_floor >= f64::MIN_POSITIVE && pushed.all(|&u| retained.get(u) == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubSelection, HubSolver, IndexConfig};
    use crate::index::ReverseIndex;
    use rtk_graph::{DanglingPolicy, GraphBuilder, TransitionMatrix};
    use rtk_rwr::BcaParams;

    fn config(threads: usize) -> IndexConfig {
        IndexConfig {
            max_k: 5,
            bca: BcaParams { residue_threshold: 0.2, ..Default::default() },
            hub_selection: HubSelection::DegreeBased { b: 4 },
            hub_solver: HubSolver::PowerMethod,
            rounding_threshold: 0.0,
            threads,
        }
    }

    #[test]
    fn affected_set_is_reverse_reachability() {
        // 0 -> 1 -> 2 -> 3, plus 3 -> 3 self loop; only nodes 0..=1 reach 1.
        let g =
            GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 3)], DanglingPolicy::Error)
                .unwrap();
        assert_eq!(affected_set(&g, 1), vec![0, 1]);
        assert_eq!(affected_set(&g, 3), vec![0, 1, 2, 3]);
        assert_eq!(affected_set(&g, 0), vec![0]);
    }

    #[test]
    fn apply_update_matches_fresh_rebuild_bitwise() {
        let mut g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(80, 320, 11)).unwrap();
        let cfg = config(2);

        let t0 = TransitionMatrix::new(&g);
        let mut live = ReverseIndex::build(&t0, cfg.clone()).unwrap();
        drop(t0);

        let script: [(bool, u32, u32, f64); 4] =
            [(true, 3, 77, 1.0), (true, 40, 5, 2.5), (false, 3, 77, 0.0), (true, 12, 12, 1.0)];
        for &(add, from, to, w) in script.iter() {
            let splice = if add { g.add_edge(from, to, w) } else { g.remove_edge(from, to) };
            let splice = splice.unwrap();
            let t = TransitionMatrix::new(&g);
            let effect = live.apply_update(&t, &[splice.from], &affected_set(&g, splice.from));
            assert!(effect.recomputed_states > 0);

            // Rebuild oracle pins the live hub ids so selection can't drift.
            let rebuild_cfg = IndexConfig {
                hub_selection: HubSelection::Explicit(live.hub_matrix().hubs().ids().to_vec()),
                ..cfg.clone()
            };
            let fresh = ReverseIndex::build(&t, rebuild_cfg).unwrap();
            assert_eq!(live.hub_matrix(), fresh.hub_matrix(), "hub matrix diverged");
            for u in 0..g.node_count() as u32 {
                assert_eq!(live.state(u), fresh.state(u), "node {u} diverged");
            }
        }
    }

    #[test]
    fn sharded_updates_union_to_full_update() {
        let mut g = rtk_graph::gen::erdos_renyi(&rtk_graph::gen::ErdosRenyiConfig {
            nodes: 60,
            edges: 300,
            seed: 5,
        })
        .unwrap();
        let t0 = TransitionMatrix::new(&g);
        let mut full = ReverseIndex::build(&t0, config(1)).unwrap();
        full.repartition(3);
        let mut parts: Vec<ReverseIndex> =
            (0..full.shard_count()).map(|i| full.one_shard(i).unwrap()).collect();
        drop(t0);

        let splice = g.add_edge(7, 33, 1.0).unwrap();
        let t = TransitionMatrix::new(&g);
        let affected = affected_set(&g, splice.from);
        let whole = full.apply_update(&t, &[splice.from], &affected);
        let mut recomputed = 0;
        for part in &mut parts {
            let effect = part.apply_update(&t, &[splice.from], &affected);
            // Every process runs the identical hub recompute ...
            assert_eq!(effect.recomputed_hubs, whole.recomputed_hubs);
            assert_eq!(part.hub_matrix(), full.hub_matrix());
            // ... and only its own share of the per-node work.
            recomputed += effect.recomputed_states;
            for u in part.owned_range() {
                assert_eq!(part.state(u), full.state(u), "node {u} diverged");
            }
        }
        assert_eq!(recomputed, whole.recomputed_states);
    }
}
