//! Forward top-k RWR search with early termination (BPA-style).
//!
//! The paper's related work (§6.2) describes Gupta et al.'s *Basic Push
//! Algorithm*: run bookmark coloring from the query node and stop as soon as
//! the top-k set is provably final, long before the proximities converge.
//! This module implements that idea on the batched BCA engine:
//!
//! after iteration `t`, every node's final proximity lies in
//! `[p^t_u(v), p^t_u(v) + ‖r‖₁]` (any remaining ink could land anywhere), so
//! the current top-k *set* is final once
//!
//! ```text
//! k-th largest lower bound ≥ (k+1)-th largest lower bound + ‖r‖₁
//! ```
//!
//! Exact ties between the k-th and (k+1)-th proximity can make that
//! condition unreachable; the search therefore also stops when
//! `‖r‖₁ < tie-epsilon`, at which point the set is exact within the same
//! [`crate::query::TIE_EPSILON`] used everywhere else.

use rtk_graph::TransitionMatrix;
use rtk_rwr::bca::{BcaEngine, BcaStop};
use rtk_rwr::{BcaParams, HubSet};
use rtk_sparse::top_k_of_pairs;

/// Diagnostics of one early-terminating top-k search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopkReport {
    /// BCA iterations executed.
    pub iterations: u32,
    /// Residual ink when the search stopped.
    pub final_residual: f64,
    /// True when the separation condition proved the set final (false means
    /// the tie-epsilon fallback fired — the set is exact up to ties).
    pub separated: bool,
}

/// Early-terminating top-k proximity search from `u` (BPA-style).
///
/// Returns the top-k `(node, lower-bound proximity)` pairs in descending
/// order of their *current lower bounds* plus a [`TopkReport`]. The returned
/// **set** matches the exact power-method answer (up to value ties below
/// `1e-9`); the internal order and the reported values are those of the
/// final BCA iterate and may differ from the converged ranking — callers
/// needing exact values/order can run [`crate::baseline::top_k_rwr`]. This
/// set-exact/order-approximate contract is the classic BPA trade-off.
pub fn top_k_rwr_early(
    transition: &TransitionMatrix<'_>,
    u: u32,
    k: usize,
    params: &BcaParams,
) -> (Vec<(u32, f64)>, TopkReport) {
    let n = transition.node_count();
    assert!((u as usize) < n, "top_k_rwr_early: node {u} out of range");
    assert!(k >= 1, "top_k_rwr_early: k must be ≥ 1");
    params.validate();

    let mut engine = BcaEngine::new(HubSet::empty(n), *params);
    // Run one iteration at a time on the resident computation, testing the
    // separation condition between iterations. `residue_norm: 0.0` makes
    // each run exactly one step.
    let step = BcaStop { residue_norm: 0.0, max_iterations: 1 };
    engine.run_from(transition, u, &step);
    let mut iterations = 1u32;
    let tie_eps = crate::query::TIE_EPSILON;

    loop {
        // `‖r‖₁` summed in ascending id, as a snapshot's norm is (its zeros
        // add nothing).
        let residual = engine.residue().map(|(_, v)| v).sum::<f64>() + 0.0;
        // Top k+1 retained values decide both the set and the separation;
        // the selection would keep the zeros.
        let mut top = top_k_of_pairs(engine.retained().filter(|&(_, v)| v != 0.0), k + 1);
        let kth = top.get(k - 1).map_or(0.0, |&(_, v)| v);
        let next = top.get(k).map_or(0.0, |&(_, v)| v);
        let separated = top.len() >= k && kth >= next + residual;
        let done = separated || residual < tie_eps || iterations >= params.max_iterations;
        if done || engine.advance(transition, &step) == 0 {
            top.truncate(k);
            return (top, TopkReport { iterations, final_residual: residual, separated });
        }
        iterations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::top_k_rwr;
    use rtk_graph::gen::{rmat, scale_free, RmatConfig, ScaleFreeConfig};
    use rtk_graph::{DanglingPolicy, GraphBuilder};
    use rtk_rwr::RwrParams;

    fn toy() -> rtk_graph::DiGraph {
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

    fn bpa_params() -> BcaParams {
        BcaParams {
            propagation_threshold: 1e-7,
            residue_threshold: 0.0,
            max_iterations: 100_000,
            ..Default::default()
        }
    }

    fn sorted_ids(pairs: &[(u32, f64)]) -> Vec<u32> {
        let mut ids: Vec<u32> = pairs.iter().map(|&(i, _)| i).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn matches_exact_top_k_set_on_toy() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        for u in 0..6u32 {
            for k in [1usize, 2, 3] {
                let (early, report) = top_k_rwr_early(&t, u, k, &bpa_params());
                let exact = top_k_rwr(&t, u, k, &RwrParams::default());
                assert_eq!(sorted_ids(&early), sorted_ids(&exact), "u={u} k={k} report={report:?}");
            }
        }
    }

    #[test]
    fn matches_exact_top_k_set_on_random_graphs() {
        for seed in [3u64, 9] {
            let g = rmat(&RmatConfig::new(200, 800, seed)).unwrap();
            let t = TransitionMatrix::new(&g);
            for u in [0u32, 50, 150] {
                let (early, _) = top_k_rwr_early(&t, u, 5, &bpa_params());
                let exact = top_k_rwr(&t, u, 5, &RwrParams::default());
                assert_eq!(sorted_ids(&early), sorted_ids(&exact), "seed={seed} u={u}");
            }
        }
    }

    #[test]
    fn usually_terminates_early() {
        // The point of BPA: far fewer iterations than full convergence.
        let g = scale_free(&ScaleFreeConfig::new(500, 4, 2)).unwrap();
        let t = TransitionMatrix::new(&g);
        let (_, report) = top_k_rwr_early(&t, 123, 5, &bpa_params());
        assert!(report.separated, "expected separation before exhaustion");
        // Full convergence at η=1e-7 takes hundreds of iterations; BPA
        // should stop in well under a hundred.
        assert!(report.iterations < 100, "iterations {}", report.iterations);
    }

    #[test]
    fn values_are_lower_bounds_of_exact() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let exact = rtk_rwr::exact::proximity_matrix_dense(&t, 0.15);
        let (early, _) = top_k_rwr_early(&t, 2, 3, &bpa_params());
        for (v, lb) in early {
            assert!(lb <= exact[2][v as usize] + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_source() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        top_k_rwr_early(&t, 6, 2, &bpa_params());
    }
}
