//! Degree statistics and top-`B` degree selection.
//!
//! The paper's hub selection (§4.1.1) takes `H = Hin ∪ Hout`, where `Hin`
//! (`Hout`) holds the `B` nodes with largest in-degree (out-degree). Ties are
//! broken by smaller node id so selection is deterministic.

use crate::csr::DiGraph;

/// Which degree a selection or statistic refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegreeKind {
    /// Number of incoming edges.
    In,
    /// Number of outgoing edges.
    Out,
}

/// Returns the `b` nodes with the largest degree of `kind`, descending by
/// degree with ties broken by smaller id. Returns all nodes when `b ≥ |V|`.
pub fn top_b_by_degree(graph: &DiGraph, kind: DegreeKind, b: usize) -> Vec<u32> {
    let n = graph.node_count();
    let degree = |u: u32| match kind {
        DegreeKind::In => graph.in_degree(u),
        DegreeKind::Out => graph.out_degree(u),
    };
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    nodes.sort_by(|&a, &bb| degree(bb).cmp(&degree(a)).then(a.cmp(&bb)));
    nodes.truncate(b);
    nodes
}

/// The union `Hin ∪ Hout` of the paper's degree-based hub candidates,
/// ascending by node id.
pub fn degree_hub_union(graph: &DiGraph, b: usize) -> Vec<u32> {
    let mut hubs = top_b_by_degree(graph, DegreeKind::In, b);
    hubs.extend(top_b_by_degree(graph, DegreeKind::Out, b));
    hubs.sort_unstable();
    hubs.dedup();
    hubs
}

/// Summary statistics for one degree distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Arithmetic mean degree.
    pub mean: f64,
    /// Number of degree-zero nodes.
    pub zeros: usize,
}

/// Computes [`DegreeStats`] over the given degree kind.
pub fn degree_stats(graph: &DiGraph, kind: DegreeKind) -> DegreeStats {
    let n = graph.node_count();
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    let mut zeros = 0usize;
    for u in 0..n as u32 {
        let d = match kind {
            DegreeKind::In => graph.in_degree(u),
            DegreeKind::Out => graph.out_degree(u),
        };
        min = min.min(d);
        max = max.max(d);
        sum += d;
        if d == 0 {
            zeros += 1;
        }
    }
    DegreeStats { min, max, mean: sum as f64 / n as f64, zeros }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DanglingPolicy, GraphBuilder};

    fn star_plus_chain() -> DiGraph {
        // 0 -> {1,2,3,4}; 1 -> 0; 2 -> 0; 3 -> 0; 4 -> 0; 1 -> 2.
        GraphBuilder::from_edges(
            5,
            &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (2, 0), (3, 0), (4, 0), (1, 2)],
            DanglingPolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn top_b_out_degree() {
        let g = star_plus_chain();
        assert_eq!(top_b_by_degree(&g, DegreeKind::Out, 2), vec![0, 1]);
    }

    #[test]
    fn top_b_in_degree() {
        let g = star_plus_chain();
        // in-degrees: 0:4, 1:1, 2:2, 3:1, 4:1
        assert_eq!(top_b_by_degree(&g, DegreeKind::In, 2), vec![0, 2]);
    }

    #[test]
    fn top_b_ties_break_by_id() {
        let g = star_plus_chain();
        // nodes 1,3,4 all have in-degree 1.
        assert_eq!(top_b_by_degree(&g, DegreeKind::In, 4), vec![0, 2, 1, 3]);
    }

    #[test]
    fn top_b_clamps_to_node_count() {
        let g = star_plus_chain();
        assert_eq!(top_b_by_degree(&g, DegreeKind::Out, 100).len(), 5);
    }

    #[test]
    fn hub_union_dedups() {
        let g = star_plus_chain();
        // B=1: Hin={0}, Hout={0} -> union {0}.
        assert_eq!(degree_hub_union(&g, 1), vec![0]);
        let h2 = degree_hub_union(&g, 2);
        assert!(h2.windows(2).all(|w| w[0] < w[1]));
        assert!(h2.contains(&0) && h2.contains(&1) && h2.contains(&2));
    }

    #[test]
    fn stats_and_histogram() {
        let g = star_plus_chain();
        let s = degree_stats(&g, DegreeKind::Out);
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.zeros, 0);
        assert!((s.mean - 9.0 / 5.0).abs() < 1e-12);
    }
}
