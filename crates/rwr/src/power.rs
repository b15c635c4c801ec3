//! Forward power-method solvers (Eq. 12 of the paper).

use crate::params::RwrParams;
use rtk_graph::TransitionMatrix;
use rtk_sparse::dense;

/// Convergence report attached to every solver result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveReport {
    /// Iterations actually performed.
    pub iterations: u32,
    /// Final L1 distance between the last two iterates.
    pub final_delta: f64,
    /// Whether `final_delta < ε` was reached within the iteration cap.
    pub converged: bool,
}

/// Computes the proximity vector `p_u` — column `u` of the proximity matrix
/// `P` — by the iteration `x ← (1−α)·A·x + α·e_u` (Eq. 12), until the L1
/// step-change drops below `ε`. Each `A·x` product runs over
/// `params.threads` workers (`0` = all cores) with bitwise identical
/// results for any thread count.
///
/// Returns the vector and a [`SolveReport`]. The result is non-negative and
/// sums to 1 (up to `ε`).
pub fn proximity_from(
    transition: &TransitionMatrix<'_>,
    u: u32,
    params: &RwrParams,
) -> (Vec<f64>, SolveReport) {
    params.validate();
    let n = transition.node_count();
    assert!((u as usize) < n, "proximity_from: node {u} out of range");
    let mut x = vec![0.0; n];
    x[u as usize] = 1.0;
    let mut y = vec![0.0; n];
    let mut iterations = 0;
    let mut delta = f64::INFINITY;
    while iterations < params.max_iterations {
        // y = (1-α) A x + α e_u, via the CSC gather.
        transition.apply_forward_threaded(params.alpha, &x, u, &mut y, params.threads);
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

/// Columns [`proximity_from_many`] carries per node: one walk of an in-edge
/// row feeds this many accumulators, so the edge ids and probabilities are
/// loaded once per tile of columns instead of once per column.
pub const BLOCK_WIDTH: usize = 8;

/// [`proximity_from`] for every node of `sources`, in order, solved
/// [`BLOCK_WIDTH`] columns per pass over the edges.
///
/// Each column is bit for bit the vector and report [`proximity_from`]
/// returns for that source: per column the tile adds the same products in
/// the same in-edge order as [`rtk_graph::gather_dot`], applies
/// the same `(1−α)·dot + α·restart` and the same in-order L1 step, and is
/// captured at the iteration its *own* step drops below `ε` (or at the
/// iteration cap) — its tile-mates iterating on does not touch it. Tiles run
/// one after another on the calling thread (`params.threads` is the width of
/// a *single* solve's products and is not read here); callers wanting
/// parallelism hand tiles to workers.
///
/// # Panics
/// Panics if a source is out of range.
pub fn proximity_from_many(
    transition: &TransitionMatrix<'_>,
    sources: &[u32],
    params: &RwrParams,
) -> Vec<(Vec<f64>, SolveReport)> {
    params.validate();
    let n = transition.node_count();
    if let Some(&u) = sources.iter().find(|&&u| u as usize >= n) {
        panic!("proximity_from_many: node {u} out of range");
    }
    sources
        .chunks(BLOCK_WIDTH)
        .flat_map(|tile| solve_tile(transition, tile, params))
        .collect()
}

/// One tile of [`proximity_from_many`]: at most [`BLOCK_WIDTH`] sources,
/// unused columns stay all-zero.
fn solve_tile(
    transition: &TransitionMatrix<'_>,
    sources: &[u32],
    params: &RwrParams,
) -> Vec<(Vec<f64>, SolveReport)> {
    type Tile = [f64; BLOCK_WIDTH];
    let n = transition.node_count();
    let (alpha, damp) = (params.alpha, 1.0 - params.alpha);
    let mut restart: Vec<Tile> = vec![[0.0; BLOCK_WIDTH]; n];
    for (c, &u) in sources.iter().enumerate() {
        restart[u as usize][c] = 1.0;
    }
    let mut x = restart.clone();
    let mut y: Vec<Tile> = vec![[0.0; BLOCK_WIDTH]; n];
    let mut solved: Vec<Option<(Vec<f64>, SolveReport)>> = vec![None; sources.len()];
    let mut pending = sources.len();
    let mut iterations = 0;
    while pending > 0 {
        let mut delta: Tile = [0.0; BLOCK_WIDTH];
        for (v, (yv, (xv, rv))) in y.iter_mut().zip(x.iter().zip(&restart)).enumerate() {
            let (ids, probs) = transition.in_edges(v as u32);
            let mut acc: Tile = [0.0; BLOCK_WIDTH];
            for (&j, &p) in ids.iter().zip(probs) {
                let xj = &x[j as usize];
                for c in 0..BLOCK_WIDTH {
                    acc[c] += p * xj[c];
                }
            }
            for c in 0..BLOCK_WIDTH {
                yv[c] = damp * acc[c] + alpha * rv[c];
                delta[c] += (xv[c] - yv[c]).abs();
            }
        }
        iterations += 1;
        std::mem::swap(&mut x, &mut y);
        for (c, slot) in solved.iter_mut().enumerate() {
            let converged = delta[c] < params.epsilon;
            if slot.is_none() && (converged || iterations == params.max_iterations) {
                let report = SolveReport { iterations, final_delta: delta[c], converged };
                *slot = Some((x.iter().map(|tile| tile[c]).collect(), report));
                pending -= 1;
            }
        }
    }
    solved
        .into_iter()
        .map(|s| s.expect("every column is captured by the iteration cap"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::{DanglingPolicy, GraphBuilder};

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

    #[test]
    fn reproduces_paper_figure_1_matrix() {
        // Column-by-column check of Figure 1's proximity matrix (2 decimals).
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        let expected: [[f64; 6]; 6] = [
            [0.32, 0.28, 0.12, 0.13, 0.06, 0.09],
            [0.24, 0.39, 0.17, 0.10, 0.04, 0.07],
            [0.24, 0.29, 0.27, 0.10, 0.04, 0.07],
            [0.19, 0.31, 0.13, 0.23, 0.10, 0.05],
            [0.20, 0.33, 0.14, 0.08, 0.18, 0.06],
            [0.18, 0.30, 0.13, 0.14, 0.06, 0.20],
        ];
        for u in 0..6u32 {
            let (p, report) = proximity_from(&t, u, &params);
            assert!(report.converged);
            for v in 0..6 {
                assert!(
                    (p[v] - expected[u as usize][v]).abs() < 5e-3,
                    "p_{}({}) = {} vs paper {}",
                    u + 1,
                    v + 1,
                    p[v],
                    expected[u as usize][v]
                );
            }
        }
    }

    #[test]
    fn proximity_vector_is_a_distribution() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (p, _) = proximity_from(&t, 3, &RwrParams::default());
        assert!(p.iter().all(|&v| v >= 0.0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn restart_node_dominates_with_high_alpha() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (p, _) = proximity_from(&t, 2, &RwrParams::with_alpha(0.9));
        let max = rtk_sparse::dense::argmax(&p).unwrap();
        assert_eq!(max, 2);
        assert!(p[2] > 0.9);
    }

    #[test]
    fn iteration_count_respects_theorem_bound() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        let (_, report) = proximity_from(&t, 0, &params);
        assert!(report.iterations <= params.iteration_bound() + 1);
    }

    /// `graph` plus one extra node whose only out-edge is a self-loop: a
    /// sink, whose column `α·e + (1−α)·e` is reached at iteration 1.
    fn with_sink(graph: &rtk_graph::DiGraph) -> (rtk_graph::DiGraph, u32) {
        let sink = graph.node_count() as u32;
        let mut edges: Vec<(u32, u32)> = graph.edges().map(|(f, t, _)| (f, t)).collect();
        edges.push((0, sink));
        edges.push((sink, sink));
        let g = GraphBuilder::from_edges(sink as usize + 1, &edges, DanglingPolicy::Error).unwrap();
        (g, sink)
    }

    fn assert_blocked_equals_single(t: &TransitionMatrix<'_>, sources: &[u32], params: &RwrParams) {
        let blocked = proximity_from_many(t, sources, params);
        assert_eq!(blocked.len(), sources.len());
        for (&u, (column, report)) in sources.iter().zip(&blocked) {
            let (single, single_report) = proximity_from(t, u, params);
            assert_eq!(report, &single_report, "report of column {u}");
            let same = column.iter().zip(&single).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same && column.len() == single.len(), "column {u} differs bitwise");
        }
    }

    #[test]
    fn blocked_solve_equals_proximity_from_bit_for_bit() {
        use rtk_graph::gen::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
        let graphs = [
            toy(),
            erdos_renyi(&ErdosRenyiConfig { nodes: 120, edges: 700, seed: 4 }).unwrap(),
            rmat(&RmatConfig::new(300, 1_800, 9)).unwrap(),
        ];
        let params = RwrParams::default();
        for base in &graphs {
            let (g, sink) = with_sink(base);
            let t = TransitionMatrix::new(&g);
            let n = g.node_count() as u32;
            // Highest-degree nodes first, the sink in the middle of a tile.
            let mut hubs = crate::HubSet::degree_based(&g, 12).ids().to_vec();
            hubs.retain(|&h| h != sink);
            hubs.insert(hubs.len().min(3), sink);
            let spread = |len: usize| -> Vec<u32> {
                let mut ids: Vec<u32> = (0..len as u32).map(|i| (i * 7 + 1) % (n - 1)).collect();
                ids[len / 2] = sink;
                ids
            };
            for len in [1, BLOCK_WIDTH - 1, BLOCK_WIDTH, BLOCK_WIDTH + 1] {
                assert_blocked_equals_single(&t, &spread(len), &params);
            }
            assert_blocked_equals_single(&t, &hubs, &params);
            assert!(proximity_from_many(&t, &[], &params).is_empty());

            // The sink converges at once while its tile-mates need dozens of
            // iterations — each column is captured at its own.
            let reports = proximity_from_many(&t, &[0, sink, 1], &params);
            assert_eq!(reports[1].1.iterations, 1);
            assert!(reports[0].1.iterations > 20 && reports[2].1.iterations > 20);
            assert_eq!(reports[1].0[sink as usize], 1.0);

            // An iteration cap below convergence: unconverged columns are
            // captured at the cap, exactly like the single solve.
            let capped = RwrParams { max_iterations: 5, ..params };
            assert_blocked_equals_single(&t, &[0, sink, 1], &capped);
            let cut = proximity_from_many(&t, &[0, sink, 1], &capped);
            assert!(!cut[0].1.converged && cut[0].1.iterations == 5);
            assert!(cut[1].1.converged);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_node() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        proximity_from(&t, 99, &RwrParams::default());
    }
}
