//! PMPN — Power Method for Proximity to Node (Alg. 2, Thm. 2).
//!
//! Computes the *row* `p_{q,*}` of the proximity matrix: the exact RWR
//! proximity from **every** node to a fixed query node `q`. The paper proves
//! (Thm. 2) that iterating
//!
//! ```text
//! x ← (1−α)·Aᵀ·x + α·e_q
//! ```
//!
//! converges from any start to the unique solution at rate `1−α`, even though
//! the iterates are not probability distributions (`‖x‖₁` may grow between
//! steps — the classical Perron–Frobenius argument does not apply, which is
//! why the theorem is a contribution). The cost matches computing a single
//! forward column: `O(m·log(ε/α)/log(1−α))`.
//!
//! [`proximity_to`] always starts from `e_q`; the any-start half of the
//! theorem is checked by iterating the operator directly
//! (`converges_from_arbitrary_start`). Every iteration is one
//! [`TransitionMatrix::apply_transpose_threaded`], the sliced 4-lane `Aᵀ·x`
//! gather: each row still sums in CSR edge order, so the iterates — and the
//! iteration count and final delta — are bitwise the naive row loop's for
//! any thread count.

use crate::params::RwrParams;
use crate::power::SolveReport;
use rtk_graph::TransitionMatrix;
use rtk_sparse::dense;

/// Computes exact proximities *to* node `q` from every node: the vector
/// `x` with `x[u] = p_u(q) = p_{q,u}`.
///
/// This is the first step of every online reverse top-k query (Alg. 4
/// line 1) and independently useful (e.g. exact PageRank contributions to
/// a suspected spam page, per the paper's SpamRank discussion).
///
/// Iterates from `x⁰ = e_q`. Each `Aᵀ·x` product runs over
/// `params.threads` workers (`0` = all cores); the result is bitwise
/// identical for any thread count.
pub fn proximity_to(
    transition: &TransitionMatrix<'_>,
    q: u32,
    params: &RwrParams,
) -> (Vec<f64>, SolveReport) {
    params.validate();
    let n = transition.node_count();
    assert!((q as usize) < n, "proximity_to: node {q} out of range");

    let mut x = vec![0.0; n];
    x[q as usize] = 1.0;
    let mut y = vec![0.0; n];
    let mut iterations = 0;
    let mut delta = f64::INFINITY;
    while iterations < params.max_iterations {
        transition.apply_transpose_threaded(params.alpha, &x, q, &mut y, params.threads);
        iterations += 1;
        delta = dense::l1_distance(&x, &y);
        std::mem::swap(&mut x, &mut y);
        if delta < params.epsilon {
            break;
        }
    }
    let converged = delta < params.epsilon;
    (x, SolveReport { iterations, final_delta: delta, converged })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The defining property: PMPN's row must equal the transposed columns.
    #[test]
    fn row_matches_transposed_columns_on_toy() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        for q in 0..6u32 {
            let (row, report) = proximity_to(&t, q, &params);
            assert!(report.converged);
            for u in 0..6u32 {
                let (col, _) = proximity_from(&t, u, &params);
                assert!(
                    (row[u as usize] - col[q as usize]).abs() < 1e-8,
                    "p_{u}({q}): row {} vs column {}",
                    row[u as usize],
                    col[q as usize]
                );
            }
        }
    }

    #[test]
    fn row_matches_paper_example() {
        // §4.2.3: p_{q,*} for q = node 1 is [0.32 0.24 0.24 0.19 0.20 0.18].
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (row, _) = proximity_to(&t, 0, &RwrParams::default());
        let expected = [0.32, 0.24, 0.24, 0.19, 0.20, 0.18];
        for u in 0..6 {
            assert!((row[u] - expected[u]).abs() < 5e-3, "u={u}: {} vs {}", row[u], expected[u]);
        }
    }

    #[test]
    fn converges_from_arbitrary_start() {
        // Theorem 2(a): any x⁰ converges to the same fixpoint. Iterate the
        // operator itself from an odd start (negative and zero entries, a
        // norm far above 1) until the step falls under ε.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        let (from_unit, _) = proximity_to(&t, 2, &params);
        let mut x = vec![7.0, -3.0, 0.0, 100.0, 0.5, 2.0];
        let mut y = vec![0.0; 6];
        let mut iterations = 0;
        loop {
            t.apply_transpose_threaded(params.alpha, &x, 2, &mut y, 1);
            iterations += 1;
            let delta = rtk_sparse::dense::l1_distance(&x, &y);
            std::mem::swap(&mut x, &mut y);
            if delta < params.epsilon {
                break;
            }
            assert!(iterations < params.max_iterations, "no convergence from the odd start");
        }
        for u in 0..6 {
            assert!((from_unit[u] - x[u]).abs() < 1e-7, "u={u}: {} vs {}", from_unit[u], x[u]);
        }
    }

    #[test]
    fn every_query_matches_a_row_loop_solve_bitwise() {
        // The reference iterates Alg. 2 with one naive gather per CSR row;
        // the solver's sliced gather must reproduce its vector, iteration
        // count and final delta bit for bit, on one thread and on two (the
        // graph clears the parallel cutoff and spans two windows). A looser
        // ε keeps the 3 × 520 solves short in unoptimized builds.
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(520, 8_200, 3)).unwrap();
        assert!(g.edge_count() >= 8_192, "below the graph crate's parallel cutoff");
        let t = TransitionMatrix::new(&g);
        let n = g.node_count();
        let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<u64>>();
        let params = RwrParams { epsilon: 1e-7, ..RwrParams::default() };
        for q in 0..n as u32 {
            let (mut x, mut y) = (vec![0.0; n], vec![0.0; n]);
            x[q as usize] = 1.0;
            let (mut iterations, mut delta) = (0, f64::INFINITY);
            while iterations < params.max_iterations {
                for u in 0..n as u32 {
                    let mut acc = 0.0;
                    for (&i, &p) in g.out_neighbors(u).iter().zip(t.out_probs(u)) {
                        acc += p * x[i as usize];
                    }
                    y[u as usize] = (1.0 - params.alpha) * acc;
                }
                y[q as usize] += params.alpha;
                iterations += 1;
                delta = dense::l1_distance(&x, &y);
                std::mem::swap(&mut x, &mut y);
                if delta < params.epsilon {
                    break;
                }
            }
            for threads in [1, 2] {
                let (row, report) = proximity_to(&t, q, &RwrParams { threads, ..params });
                assert!(bits(&row) == bits(&x), "q = {q}, {threads} threads: vector");
                assert_eq!(report.iterations, iterations, "q = {q}, {threads} threads");
                assert_eq!(report.final_delta.to_bits(), delta.to_bits(), "q = {q}");
            }
        }
    }

    #[test]
    fn iterations_respect_theorem_2c_bound() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        let (_, report) = proximity_to(&t, 1, &params);
        assert!(
            report.iterations <= params.iteration_bound() + 1,
            "{} vs bound {}",
            report.iterations,
            params.iteration_bound()
        );
    }

    #[test]
    fn intermediate_norms_may_exceed_one_yet_converge() {
        // The non-obvious part of Thm. 2: {x_i} is NOT non-expansive. On a
        // high-in-degree target the first iterate's norm exceeds 1.
        let mut b = GraphBuilder::new(5);
        for u in 1..5u32 {
            b.add_edge(u, 0).unwrap();
        }
        b.add_edge(0, 1).unwrap();
        let g = b.build(DanglingPolicy::Error).unwrap();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        // One manual step from e_0: x1 = (1-α) Aᵀ e_0 + α e_0.
        let mut x0 = vec![0.0; 5];
        x0[0] = 1.0;
        let mut x1 = vec![0.0; 5];
        t.apply_transpose_threaded(params.alpha, &x0, 0, &mut x1, 1);
        assert!(rtk_sparse::dense::l1_norm(&x1) > 1.0);
        let (_, report) = proximity_to(&t, 0, &params);
        assert!(report.converged);
    }

    #[test]
    fn singleton_self_loop_graph() {
        let g = GraphBuilder::from_edges(1, &[(0, 0)], DanglingPolicy::Error).unwrap();
        let t = TransitionMatrix::new(&g);
        let (row, _) = proximity_to(&t, 0, &RwrParams::default());
        assert!((row[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_query() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        proximity_to(&t, 6, &RwrParams::default());
    }
}
