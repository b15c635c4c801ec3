//! Dense direct solver — the test oracle.
//!
//! Solves `(I − (1−α)·A)·p = α·e_u` by Gaussian elimination with partial
//! pivoting. `O(n³)`: intended for graphs of at most a few thousand nodes,
//! where it provides machine-precision ground truth for validating every
//! iterative engine (and for the IBF baseline on the toy/figure-8 graphs).

use rtk_graph::TransitionMatrix;

/// Hard cap on the dense solver's size: beyond this the `O(n³)` cost and the
/// `O(n²)` memory stop being a sensible oracle.
pub const DENSE_ORACLE_MAX_NODES: usize = 4_096;

/// Computes the full proximity matrix `P = α·(I − (1−α)·A)⁻¹` column-major:
/// `result[u]` is the proximity vector `p_u`.
///
/// # Panics
/// Panics when the graph exceeds [`DENSE_ORACLE_MAX_NODES`] nodes.
pub fn proximity_matrix_dense(transition: &TransitionMatrix<'_>, alpha: f64) -> Vec<Vec<f64>> {
    let n = transition.node_count();
    assert!(
        n <= DENSE_ORACLE_MAX_NODES,
        "dense oracle limited to {DENSE_ORACLE_MAX_NODES} nodes (got {n})"
    );
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0,1)");

    // M = I - (1-α) A, built densely.
    let mut m = vec![vec![0.0; n]; n];
    for j in 0..n as u32 {
        let col = transition.column_dense(j);
        for i in 0..n {
            m[i][j as usize] = -(1.0 - alpha) * col[i];
        }
    }
    for (i, row) in m.iter_mut().enumerate() {
        row[i] += 1.0;
    }

    // LU factorization with partial pivoting (in place), then n solves.
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        let pivot = (k..n)
            .max_by(|&a, &b| m[a][k].abs().partial_cmp(&m[b][k].abs()).unwrap())
            .unwrap();
        m.swap(k, pivot);
        perm.swap(k, pivot);
        let pv = m[k][k];
        assert!(pv.abs() > 1e-14, "singular system (graph not stochastic?)");
        for i in k + 1..n {
            let f = m[i][k] / pv;
            m[i][k] = f; // store the multiplier in the lower triangle
            if f != 0.0 {
                let (upper, lower) = m.split_at_mut(i);
                let mk = &upper[k];
                let mi = &mut lower[0];
                for j in k + 1..n {
                    mi[j] -= f * mk[j];
                }
            }
        }
    }

    let mut columns = Vec::with_capacity(n);
    for u in 0..n {
        // Right-hand side α·e_u, permuted.
        let mut x = vec![0.0; n];
        for (i, &pi) in perm.iter().enumerate() {
            x[i] = if pi == u { alpha } else { 0.0 };
        }
        // Forward substitution (unit lower triangle).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= m[i][j] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= m[i][j] * x[j];
            }
            x[i] = acc / m[i][i];
        }
        columns.push(x);
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RwrParams;
    use crate::power::proximity_from;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rtk_graph::{DanglingPolicy, GraphBuilder};

    #[test]
    fn oracle_matches_power_method_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..10 {
            let n = rng.gen_range(2..25);
            let mut b = GraphBuilder::new(n);
            for _ in 0..rng.gen_range(n..4 * n) {
                let f = rng.gen_range(0..n) as u32;
                let t = rng.gen_range(0..n) as u32;
                b.add_edge(f, t).unwrap();
            }
            let g = b.build(DanglingPolicy::SelfLoop).unwrap();
            let t = rtk_graph::TransitionMatrix::new(&g);
            let params = RwrParams::default();
            let exact = proximity_matrix_dense(&t, params.alpha);
            for u in 0..n as u32 {
                let (pm, _) = proximity_from(&t, u, &params);
                for v in 0..n {
                    assert!(
                        (pm[v] - exact[u as usize][v]).abs() < 1e-8,
                        "trial {trial} p_{u}({v}): {} vs {}",
                        pm[v],
                        exact[u as usize][v]
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_columns_are_distributions() {
        let g =
            GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)], DanglingPolicy::Error).unwrap();
        let t = rtk_graph::TransitionMatrix::new(&g);
        for col in proximity_matrix_dense(&t, 0.15) {
            assert!((col.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(col.iter().all(|&v| v >= -1e-15));
        }
    }

    #[test]
    fn directed_cycle_has_closed_form() {
        // On a 3-cycle with restart at u, proximity decays geometrically along
        // the cycle: p_u(u+j) ∝ (1-α)^j, normalized over one loop.
        let g =
            GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)], DanglingPolicy::Error).unwrap();
        let t = rtk_graph::TransitionMatrix::new(&g);
        let alpha = 0.15;
        let p = &proximity_matrix_dense(&t, alpha)[0];
        let d = 1.0 - alpha;
        let loop_gain = 1.0 - d * d * d;
        for (j, &got) in p.iter().enumerate() {
            // Closed form: p_0(j) = α·d^j / (1 − d³).
            let expected = alpha * d.powi(j as i32) / loop_gain;
            assert!((got - expected).abs() < 1e-12, "j={j}: {got} vs {expected}");
        }
    }

    #[test]
    #[should_panic(expected = "dense oracle limited")]
    fn refuses_huge_graphs() {
        let g = rtk_graph::gen::erdos_renyi(&rtk_graph::gen::ErdosRenyiConfig {
            nodes: DENSE_ORACLE_MAX_NODES + 1,
            edges: DENSE_ORACLE_MAX_NODES + 1,
            seed: 0,
        })
        .unwrap();
        let t = rtk_graph::TransitionMatrix::new(&g);
        proximity_matrix_dense(&t, 0.15);
    }
}
