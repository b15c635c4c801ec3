//! Incremental edge updates — targeted invalidation and recompute
//! (ROADMAP direction 2).
//!
//! An edge update `u → v` (insert, weight change, or removal) renormalizes
//! exactly one row of the transition matrix: `u`'s out-row. The only walks
//! whose probabilities change are those that *visit `u`*, so the only index
//! entries that can change are those of nodes that can reach `u` along
//! out-edges — the **affected set** [`affected_set`], computed as a BFS from
//! `u` over in-edges. Everything outside that set is untouched *bitwise*:
//!
//! * A BCA run from an unaffected `q` never places residue on `u`, so it
//!   never reads the mutated row and replays the exact same pushes.
//! * A hub column `p_h` with `h` unaffected assigns exact `+0.0` to every
//!   node that cannot be reached from `h` without passing through… nothing:
//!   walks from `h` never traverse `u`'s out-edges (`x[u]` stays `+0.0`),
//!   and inserting a `p·0.0 = +0.0` term into a non-negative, in-order
//!   accumulation leaves every partial sum bit-identical.
//! * Unaffected `q` can only park ink on unaffected hubs (if `q` reached an
//!   affected hub `h`, then `q` reaches `u` through `h` and would itself be
//!   affected), so its materialized bounds see only unchanged columns.
//!
//! Affected entries are recomputed *from scratch* with the exact Algorithm 1
//! recipe ([`recompute_states`]), hub columns first (states materialize
//! against `P_H`), then node states. Consequently the post-update index is
//! bitwise-equal to a full rebuild of the mutated graph — provided the
//! untouched states were never refined past their build-time stop (queries
//! in `update` mode tighten states monotonically; those remain correct, just
//! no longer byte-comparable to a *fresh* rebuild).
//!
//! The affected set is identical on the pre- and post-update graph: whether
//! `q` can reach `u` never depends on `u`'s own out-edges, and `u` is always
//! in the set. This makes the rule self-inverse and replay-friendly — the
//! update log ([`crate::storage::UpdateRecord`]) stores only the edit, and
//! replaying it deterministically regenerates the exact recompute schedule.

use crate::config::IndexConfig;
use crate::hub_matrix::{HubMatrix, Materializer};
use crate::node_state::NodeState;
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_rwr::bca::{BcaEngine, BcaStop};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Nodes claimed per worker fetch during a recompute sweep (mirrors the
/// builder's `SWEEP_CHUNK`).
const RECOMPUTE_CHUNK: usize = 64;

/// What one applied edge update invalidated and recomputed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateEffect {
    /// Node states recomputed — the affected set intersected with the nodes
    /// the index holds (all of it for a whole index, the owned shard's
    /// subset for a one-shard index).
    pub recomputed_states: usize,
    /// Hub columns recomputed (hubs inside the affected set).
    pub recomputed_hubs: usize,
}

impl UpdateEffect {
    /// Folds another effect into this one (accumulating over a replay).
    pub fn merge(&mut self, other: UpdateEffect) {
        self.recomputed_states += other.recomputed_states;
        self.recomputed_hubs += other.recomputed_hubs;
    }
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

/// Recomputes fresh node states for `nodes` with the exact Algorithm 1
/// recipe (same engine construction, stop rule, and top-K materialization
/// as [`crate::builder::LbiBuilder::build`]), spread over
/// `config.effective_threads()` pool workers. Returns `(node, state)` pairs
/// in `nodes` order; scheduling cannot change any state (per-node runs are
/// independent and merged by slot).
pub fn recompute_states(
    transition: &TransitionMatrix<'_>,
    hub_matrix: &HubMatrix,
    config: &IndexConfig,
    nodes: &[u32],
) -> Vec<(u32, NodeState)> {
    if nodes.is_empty() {
        return Vec::new();
    }
    let n = transition.node_count();
    let threads = config.effective_threads().max(1).min(nodes.len());
    let stop = BcaStop::from_params(&config.bca);
    let next = AtomicUsize::new(0);
    let collected = std::sync::Mutex::new(Vec::<Vec<(usize, NodeState)>>::new());
    rtk_sparse::WorkerPool::global().scope(|scope| {
        for _ in 0..threads {
            let (next, collected, stop) = (&next, &collected, &stop);
            let hubs = hub_matrix.hubs().clone();
            scope.spawn(move || {
                let mut engine = BcaEngine::new(hubs, config.bca);
                let mut materializer = Materializer::new(n);
                let mut local = Vec::new();
                loop {
                    let lo = next.fetch_add(RECOMPUTE_CHUNK, Ordering::Relaxed);
                    if lo >= nodes.len() {
                        break;
                    }
                    let hi = (lo + RECOMPUTE_CHUNK).min(nodes.len());
                    for (i, &u) in nodes.iter().enumerate().take(hi).skip(lo) {
                        let snapshot = engine.run_from(transition, u, stop);
                        let state = NodeState::from_snapshot(
                            snapshot,
                            hub_matrix,
                            &mut materializer,
                            config.max_k,
                        );
                        local.push((i, state));
                    }
                }
                collected.lock().expect("recompute results poisoned").push(local);
            });
        }
    });
    let mut slots: Vec<Option<NodeState>> = (0..nodes.len()).map(|_| None).collect();
    for chunk in collected.into_inner().expect("recompute results poisoned") {
        for (i, state) in chunk {
            debug_assert!(slots[i].is_none());
            slots[i] = Some(state);
        }
    }
    nodes
        .iter()
        .copied()
        .zip(slots.into_iter().map(|s| s.expect("state missing after recompute")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubSelection, HubSolver};
    use crate::index::ReverseIndex;
    use rtk_graph::{DanglingPolicy, GraphBuilder};
    use rtk_rwr::{BcaParams, RwrParams};

    fn config(threads: usize, shards: usize) -> IndexConfig {
        IndexConfig {
            max_k: 5,
            bca: BcaParams { residue_threshold: 0.2, ..Default::default() },
            hub_selection: HubSelection::DegreeBased { b: 4 },
            hub_solver: HubSolver::PowerMethod(RwrParams::default()),
            rounding_threshold: 0.0,
            threads,
            shards,
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
        let cfg = config(2, 1);

        let t0 = TransitionMatrix::new(&g);
        let mut live = ReverseIndex::build(&t0, cfg.clone()).unwrap();
        drop(t0);

        let script: [(bool, u32, u32, f64); 4] =
            [(true, 3, 77, 1.0), (true, 40, 5, 2.5), (false, 3, 77, 0.0), (true, 12, 12, 1.0)];
        for &(add, from, to, w) in script.iter() {
            let splice = if add { g.add_edge(from, to, w) } else { g.remove_edge(from, to) };
            let splice = splice.unwrap();
            let t = TransitionMatrix::new(&g);
            let effect = live.apply_update(&t, splice.from);
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
        let cfg = config(1, 3);
        let t0 = TransitionMatrix::new(&g);
        let mut full = ReverseIndex::build(&t0, cfg).unwrap();
        let mut parts: Vec<ReverseIndex> =
            (0..full.shard_count()).map(|i| full.one_shard(i).unwrap()).collect();
        drop(t0);

        let splice = g.add_edge(7, 33, 1.0).unwrap();
        let t = TransitionMatrix::new(&g);
        let whole = full.apply_update(&t, splice.from);
        let mut recomputed = 0;
        for part in &mut parts {
            let effect = part.apply_update(&t, splice.from);
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
