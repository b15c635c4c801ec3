//! Edge-list ingestion and graph construction.
//!
//! [`GraphBuilder`] accumulates edges, merges parallel edges (summing their
//! weights, matching the co-authorship construction of paper §5.4 where
//! `w_{i,j}` counts coauthored papers), validates endpoints and weights, and
//! repairs dangling nodes according to a [`DanglingPolicy`] before producing
//! an immutable [`DiGraph`].

use crate::csr::DiGraph;
use crate::error::GraphError;
use std::collections::HashMap;

/// What to do with dangling nodes (out-degree zero) at build time.
///
/// RWR requires a column-stochastic transition matrix; a dangling node's
/// column would be all zeros. The paper's footnote 1 deletes such nodes or
/// links them to a self-linked sink; both renumber or grow the node set, so
/// the builder repairs in place with a self-loop instead, or refuses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DanglingPolicy {
    /// Add a self-loop to every dangling node (default; preserves node ids).
    #[default]
    SelfLoop,
    /// Fail with [`GraphError::DanglingNode`] if any dangling node exists.
    Error,
}

/// Accumulates edges and produces a validated [`DiGraph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    // (from, to) -> accumulated weight
    edges: HashMap<(u32, u32), f64>,
    weighted: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with nodes `0..node_count`.
    pub fn new(node_count: usize) -> Self {
        Self { n: node_count, edges: HashMap::new(), weighted: false }
    }

    /// Number of nodes the graph will have (before any dangling repair).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of distinct edges accumulated so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an unweighted edge `from → to` (weight 1). Parallel additions
    /// accumulate weight, turning multi-edges into weighted single edges.
    pub fn add_edge(&mut self, from: u32, to: u32) -> Result<&mut Self, GraphError> {
        self.add_weighted_edge_inner(from, to, 1.0, false)
    }

    /// Adds a weighted edge; parallel additions sum their weights.
    ///
    /// # Errors
    /// Rejects endpoints outside `0..node_count`, weights that are not
    /// strictly positive finite numbers, and parallel additions whose merged
    /// weight overflows.
    pub fn add_weighted_edge(
        &mut self,
        from: u32,
        to: u32,
        weight: f64,
    ) -> Result<&mut Self, GraphError> {
        self.add_weighted_edge_inner(from, to, weight, true)
    }

    fn add_weighted_edge_inner(
        &mut self,
        from: u32,
        to: u32,
        weight: f64,
        explicit: bool,
    ) -> Result<&mut Self, GraphError> {
        if from as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: from, node_count: self.n });
        }
        if to as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: to, node_count: self.n });
        }
        if !weight.is_finite() || weight <= 0.0 {
            return Err(GraphError::InvalidWeight { from, to, weight });
        }
        let slot = self.edges.entry((from, to)).or_insert(0.0);
        let had = *slot != 0.0;
        // Valid weights can still merge to `inf`.
        if !(*slot + weight).is_finite() {
            return Err(GraphError::InvalidWeight { from, to, weight });
        }
        *slot += weight;
        // A repeated unweighted edge makes the graph effectively weighted.
        if explicit || had {
            self.weighted = true;
        }
        Ok(self)
    }

    /// Convenience: builds a graph from an unweighted edge list.
    pub fn from_edges(
        node_count: usize,
        edges: &[(u32, u32)],
        policy: DanglingPolicy,
    ) -> Result<DiGraph, GraphError> {
        let mut b = Self::new(node_count);
        for &(f, t) in edges {
            b.add_edge(f, t)?;
        }
        b.build(policy)
    }

    /// Builds the graph, applying `policy` to dangling nodes.
    ///
    /// # Errors
    /// Besides the policy's own, [`GraphError::InvalidWeight`] when some
    /// node's out-weights cannot be normalized to finite probabilities (the
    /// row sums to `inf`, or to something so small its inverse does).
    pub fn build(self, policy: DanglingPolicy) -> Result<DiGraph, GraphError> {
        if self.n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let n = self.n;
        let mut edges: Vec<(u32, u32, f64)> =
            self.edges.into_iter().map(|((f, t), w)| (f, t, w)).collect();
        let mut weighted = self.weighted;

        let mut out_deg = vec![0usize; n];
        for &(f, _, _) in &edges {
            out_deg[f as usize] += 1;
        }
        let dangling: Vec<u32> = (0..n as u32).filter(|&u| out_deg[u as usize] == 0).collect();

        match (dangling.first(), policy) {
            (None, _) => {}
            (Some(&node), DanglingPolicy::Error) => {
                return Err(GraphError::DanglingNode { node, count: dangling.len() });
            }
            (Some(_), DanglingPolicy::SelfLoop) => {
                edges.extend(dangling.iter().map(|&u| (u, u, 1.0)));
            }
        }

        // A graph whose accumulated weights are all exactly 1.0 can drop its
        // weight arrays even if weighted additions occurred.
        if weighted && edges.iter().all(|&(_, _, w)| w == 1.0) {
            weighted = false;
        }

        // Row sums are only final here, in the built row's summation order.
        let graph = DiGraph::from_sorted_edges(n, edges, weighted);
        graph.validate()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 5).unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, node_count: 2 }
        ));
    }

    #[test]
    fn rejects_bad_weights() {
        let mut b = GraphBuilder::new(2);
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                b.add_weighted_edge(0, 1, w).unwrap_err(),
                GraphError::InvalidWeight { .. }
            ));
        }
    }

    #[test]
    fn rejects_rows_that_cannot_normalize() {
        // Valid weights whose parallel-edge merge overflows.
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 1e308).unwrap();
        assert!(matches!(
            b.add_weighted_edge(0, 1, 1e308).unwrap_err(),
            GraphError::InvalidWeight { from: 0, to: 1, .. }
        ));
        // Distinct edges whose row sum overflows.
        b.add_weighted_edge(0, 0, 1e308).unwrap();
        b.add_weighted_edge(1, 0, 1.0).unwrap();
        assert!(matches!(
            b.build(DanglingPolicy::Error).unwrap_err(),
            GraphError::InvalidWeight { from: 0, .. }
        ));
        // A lone out-edge so light that its row's inverse is inf.
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 5e-324).unwrap();
        b.add_weighted_edge(1, 0, 1.0).unwrap();
        assert!(matches!(
            b.build(DanglingPolicy::Error).unwrap_err(),
            GraphError::InvalidWeight { from: 0, to: 1, .. }
        ));
    }

    #[test]
    fn rejects_empty_graph() {
        assert!(matches!(
            GraphBuilder::new(0).build(DanglingPolicy::SelfLoop).unwrap_err(),
            GraphError::EmptyGraph
        ));
    }

    #[test]
    fn parallel_edges_merge_to_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(2, 0).unwrap();
        let g = b.build(DanglingPolicy::Error).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0), Some(&[2.0, 1.0][..]));
    }

    #[test]
    fn self_loop_policy_repairs_in_place() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)], DanglingPolicy::SelfLoop).unwrap();
        assert_eq!(g.node_count(), 3);
        assert!(g.dangling_nodes().is_empty());
        assert!(g.has_edge(2, 2));
    }

    #[test]
    fn error_policy_reports_danglings() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let err = b.build(DanglingPolicy::Error).unwrap_err();
        assert!(matches!(err, GraphError::DanglingNode { node: 1, count: 2 }));
    }

    #[test]
    fn unit_weight_weighted_edges_collapse_to_unweighted() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 1.0).unwrap();
        b.add_weighted_edge(1, 0, 1.0).unwrap();
        let g = b.build(DanglingPolicy::Error).unwrap();
        assert!(!g.is_weighted());
    }
}
