//! Parallel index construction — Algorithm 1 (Lower Bound Indexing).
//!
//! The paper notes the per-node BCA sweeps are embarrassingly parallel (its
//! evaluation spread them over 100 cluster cores). Here the sweep is one
//! [`rtk_sparse::WorkerPool::claim`] loop over node chunks; each lane owns
//! its own [`rtk_rwr::BcaEngine`] and [`Materializer`], so the sweep
//! performs no cross-thread synchronization beyond the claim counter. The
//! result is deterministic: per-node computations are independent and
//! merged by id. [`crate::ReverseIndex::build`] runs it over every node;
//! the same `sweep` serves edge updates ([`crate::update`]), which hand it
//! the affected nodes and say which stored runs may be kept.

use crate::config::IndexConfig;
use crate::hub_matrix::{HubMatrix, Materializer};
use crate::node_state::NodeState;
use crate::storage::node_record_digest;
use rtk_graph::TransitionMatrix;
use rtk_rwr::bca::{BcaEngine, BcaStop};
use rtk_sparse::DescendingTopK;
use std::time::Instant;

/// Power-law exponent assumed by the Theorem 1 space prediction (the paper
/// uses β = 0.76, citing Bahmani et al.).
pub const DEFAULT_POWER_LAW_BETA: f64 = 0.76;

/// Nodes per claimed sweep chunk: enough to amortize the claim counter, few
/// enough that the last chunk an update's few hundred affected nodes leave
/// one lane holding is a small share of the sweep.
const SWEEP_CHUNK: usize = 16;

/// One node's outcome of [`sweep`].
pub(crate) enum Swept {
    /// The Algorithm 1 run from scratch, materialized.
    Run(NodeState),
    /// The stored run stands (see [`crate::update`]); only what is
    /// materialized against `P_H` is new: `(top-K lower bounds, parked
    /// deficit)`.
    Rebound(DescendingTopK, f64),
}

/// What [`sweep`] returns.
pub(crate) struct Sweep {
    /// `(outcome, record digest)` per node, in the order the nodes came.
    pub(crate) swept: Vec<(Swept, u64)>,
    /// Iterations the BCA runs took.
    pub(crate) iterations: u64,
    /// Edge pushes the BCA runs made.
    pub(crate) pushes: u64,
    /// Time the lanes spent in BCA runs, snapshot included, summed over
    /// lanes.
    pub(crate) bca_seconds: f64,
    /// Time the lanes spent hashing records, summed over lanes.
    pub(crate) hash_seconds: f64,
}

/// Algorithm 1 lines 3–9 for `nodes`, spread over `config.effective_threads()`
/// lanes: the build's sweep over every node, and an edge update's
/// recompute of the affected ones. `keep(u)` may hand back `u`'s stored state
/// to say its BCA run need not be repeated — then only its bounds are
/// rematerialized against `hub_matrix`; otherwise `u` runs from scratch under
/// the configured stop rule. Each lane also hashes the persisted record of
/// what it produced.
///
/// Returns `(outcome, record digest)` per node in `nodes` order, the
/// iterations and edge pushes the BCA runs took, and the time in the runs
/// and in hashing. Lanes claim [`SWEEP_CHUNK`] nodes at a time; outcomes
/// are put back in node order by index and the work counters are
/// order-independent sums, so scheduling cannot change anything returned
/// but the time.
pub(crate) fn sweep<'a>(
    transition: &TransitionMatrix<'_>,
    hub_matrix: &HubMatrix,
    config: &IndexConfig,
    nodes: &[u32],
    keep: &(dyn Fn(u32) -> Option<&'a NodeState> + Sync),
) -> Sweep {
    let stop = BcaStop::from_params(&config.bca);
    let lanes = rtk_sparse::WorkerPool::global().claim(
        config.effective_threads(),
        nodes.len().div_ceil(SWEEP_CHUNK),
        || {
            (
                BcaEngine::new(hub_matrix.hubs().clone(), config.bca),
                Materializer::default(),
                Vec::new(),
                (0.0, 0.0),
            )
        },
        |(engine, materializer, outputs, (bca_seconds, hash_seconds)), chunk| {
            let lo = chunk * SWEEP_CHUNK;
            for (i, &u) in nodes.iter().enumerate().skip(lo).take(SWEEP_CHUNK) {
                let mut hashed = |state: &NodeState, lower_bounds: &DescendingTopK| {
                    let started = Instant::now();
                    let digest = node_record_digest(state.snapshot(), lower_bounds);
                    *hash_seconds += started.elapsed().as_secs_f64();
                    digest
                };
                let outcome = match keep(u) {
                    Some(state) => {
                        let (lower_bounds, parked_deficit) =
                            state.rebound(hub_matrix, materializer);
                        let digest = hashed(state, &lower_bounds);
                        (Swept::Rebound(lower_bounds, parked_deficit), digest)
                    }
                    None => {
                        let started = Instant::now();
                        let snapshot = engine.run_from(transition, u, &stop);
                        *bca_seconds += started.elapsed().as_secs_f64();
                        let state = NodeState::from_snapshot(
                            snapshot,
                            hub_matrix,
                            materializer,
                            config.max_k,
                        );
                        let digest = hashed(&state, state.lower_bounds());
                        (Swept::Run(state), digest)
                    }
                };
                outputs.push((i, outcome));
            }
        },
    );
    // Outcomes are large: each moves once, into its node's slot, unsorted.
    let mut slots: Vec<Option<(Swept, u64)>> = (0..nodes.len()).map(|_| None).collect();
    let (mut iterations, mut pushes, mut bca_seconds, mut hash_seconds) = (0u64, 0u64, 0.0, 0.0);
    for (engine, _, outputs, (running, hashing)) in lanes {
        iterations += u64::from(engine.work().iterations);
        pushes += engine.work().pushes;
        bca_seconds += running;
        hash_seconds += hashing;
        for (i, outcome) in outputs {
            slots[i] = Some(outcome);
        }
    }
    let swept = slots.into_iter().map(|s| s.expect("node missing after sweep")).collect();
    Sweep { swept, iterations, pushes, bca_seconds, hash_seconds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubSelection, HubSolver};
    use crate::index::ReverseIndex;
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};
    use rtk_rwr::BcaParams;

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

    fn toy_config() -> IndexConfig {
        IndexConfig {
            max_k: 3,
            bca: BcaParams { residue_threshold: 0.8, ..Default::default() },
            hub_selection: HubSelection::DegreeBased { b: 1 },
            hub_solver: HubSolver::PowerMethod,
            rounding_threshold: 0.0,
            threads: 1,
        }
    }

    #[test]
    fn reproduces_paper_figure_2_index() {
        // Paper Figure 2 (δ=0.8, η=1e-4, K=3, hubs {1,2} 1-based): the top-3
        // lower-bound columns are
        //   p̂1 = [.32 .28 .13], p̂2 = [.39 .24 .17], p̂3 = [.29 .27 .24],
        //   p̂4 = [.19 .17 .10], p̂5 = [.33 .20 .18], p̂6 = [.18 .17 .10]
        // and ‖r₃‖=‖r₅‖=0, ‖r₄‖=‖r₆‖=0.36.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let index = ReverseIndex::build(&t, toy_config()).unwrap();
        let expected: [[f64; 3]; 6] = [
            [0.32, 0.28, 0.13],
            [0.39, 0.24, 0.17],
            [0.29, 0.27, 0.24],
            [0.19, 0.17, 0.10],
            [0.33, 0.20, 0.18],
            [0.18, 0.17, 0.10],
        ];
        for u in 0..6u32 {
            for k in 1..=3usize {
                let got = index.state(u).kth_lower_bound(k);
                assert!(
                    (got - expected[u as usize][k - 1]).abs() < 5e-3,
                    "p̂_{}({k}) = {got} vs paper {}",
                    u + 1,
                    expected[u as usize][k - 1]
                );
            }
        }
        let residues: Vec<f64> = (0..6).map(|u| index.state(u).residue_norm()).collect();
        assert!(residues[0].abs() < 1e-12 && residues[1].abs() < 1e-12); // hubs
        assert!(residues[2].abs() < 1e-9, "‖r₃‖ = {}", residues[2]);
        assert!(residues[4].abs() < 1e-9, "‖r₅‖ = {}", residues[4]);
        assert!((residues[3] - 0.36).abs() < 5e-3, "‖r₄‖ = {}", residues[3]);
        assert!((residues[5] - 0.36).abs() < 5e-3, "‖r₆‖ = {}", residues[5]);
    }

    #[test]
    fn lower_bounds_never_exceed_exact_proximities() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(150, 600, 9)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 10,
            hub_selection: HubSelection::DegreeBased { b: 5 },
            rounding_threshold: 1e-6,
            threads: 2,
            ..Default::default()
        };
        let index = ReverseIndex::build(&t, config).unwrap();
        let exact = rtk_rwr::exact::proximity_matrix_dense(&t, 0.15);
        for u in 0..g.node_count() as u32 {
            let mut col: Vec<f64> = exact[u as usize].clone();
            col.sort_by(|a, b| b.partial_cmp(a).unwrap());
            for k in 1..=10usize {
                let lb = index.state(u).kth_lower_bound(k);
                assert!(lb <= col[k - 1] + 1e-9, "u={u} k={k}: lb {lb} > exact {}", col[k - 1]);
            }
        }
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let g =
            rtk_graph::gen::scale_free(&rtk_graph::gen::ScaleFreeConfig::new(300, 4, 21)).unwrap();
        let t = TransitionMatrix::new(&g);
        let mk = |threads| IndexConfig {
            max_k: 20,
            hub_selection: HubSelection::DegreeBased { b: 8 },
            threads,
            ..Default::default()
        };
        let a = ReverseIndex::build(&t, mk(1)).unwrap();
        let b = ReverseIndex::build(&t, mk(4)).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        for u in 0..300u32 {
            assert_eq!(a.state(u), b.state(u), "node {u} differs across thread counts");
        }
    }

    #[test]
    fn stats_are_populated() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let index = ReverseIndex::build(&t, toy_config()).unwrap();
        let s = index.stats();
        assert_eq!(s.hub_count, 2);
        assert!(s.actual_bytes > 0);
        assert!(s.no_rounding_bytes >= s.actual_bytes);
        assert!(s.lower_bound_bytes > 0 && s.lower_bound_bytes < s.actual_bytes);
        assert!(s.total_seconds > 0.0);
        assert!(s.total_iterations > 0);
    }

    #[test]
    fn no_hub_config_builds() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            hub_selection: HubSelection::Explicit(vec![]),
            max_k: 3,
            threads: 1,
            ..Default::default()
        };
        let index = ReverseIndex::build(&t, config).unwrap();
        assert_eq!(index.hub_matrix().hub_count(), 0);
        for u in 0..6u32 {
            assert!(index.state(u).kth_lower_bound(1) > 0.0);
        }
    }

    #[test]
    fn rejects_invalid_config() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        assert!(ReverseIndex::build(&t, IndexConfig { max_k: 0, ..Default::default() }).is_err());
    }
}
