//! Hub selection (paper §4.1.1).
//!
//! Hubs are nodes whose exact proximity vectors are precomputed so that ink
//! arriving at them during BCA can be parked (`s` vector) and distributed in
//! one batch at materialization time. The paper selects the `B` highest
//! in-degree and `B` highest out-degree nodes — cheap and graph-size
//! independent — and argues this beats Berkhin's greedy BCA-driven scheme at
//! scale, so only the degree heuristic is implemented; callers may also
//! name the hubs outright.

use rtk_graph::degree::degree_hub_union;
use rtk_graph::DiGraph;

/// An immutable set of hub nodes with `O(1)` membership tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HubSet {
    /// Sorted hub ids.
    ids: Vec<u32>,
    /// `positions[u]` = index of `u` within `ids`, or `u32::MAX`.
    positions: Vec<u32>,
}

impl HubSet {
    /// An empty hub set over `node_count` nodes (plain BCA).
    pub fn empty(node_count: usize) -> Self {
        Self { ids: Vec::new(), positions: vec![u32::MAX; node_count] }
    }

    /// Builds a hub set from explicit ids.
    ///
    /// # Panics
    /// Panics if any id is out of range or duplicated.
    pub fn from_ids(node_count: usize, mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        let mut positions = vec![u32::MAX; node_count];
        for (pos, &u) in ids.iter().enumerate() {
            assert!((u as usize) < node_count, "HubSet: node {u} out of range");
            assert!(positions[u as usize] == u32::MAX, "HubSet: duplicate hub {u}");
            positions[u as usize] = pos as u32;
        }
        Self { ids, positions }
    }

    /// The paper's selection: union of the `b` largest in-degree and `b`
    /// largest out-degree nodes.
    pub fn degree_based(graph: &DiGraph, b: usize) -> Self {
        Self::from_ids(graph.node_count(), degree_hub_union(graph, b))
    }

    /// Number of hubs.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no hubs are selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sorted hub ids.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// `O(1)` membership test.
    #[inline]
    pub fn contains(&self, node: u32) -> bool {
        self.positions[node as usize] != u32::MAX
    }

    /// Position of `node` within [`Self::ids`], if it is a hub.
    #[inline]
    pub fn position(&self, node: u32) -> Option<usize> {
        let p = self.positions[node as usize];
        (p != u32::MAX).then_some(p as usize)
    }

    /// Number of nodes in the underlying graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::{DanglingPolicy, GraphBuilder};

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

    #[test]
    fn degree_based_matches_paper_example() {
        // Paper Figure 2: with B = 1 the hubs are nodes 1 and 2 (1-based),
        // i.e. 0 and 1 here: node 1 has max in-degree (5), node 0 max
        // out-degree (3).
        let hubs = HubSet::degree_based(&toy(), 1);
        assert_eq!(hubs.ids(), &[0, 1]);
    }

    #[test]
    fn membership_and_positions() {
        let hubs = HubSet::from_ids(6, vec![4, 1]);
        assert!(hubs.contains(1) && hubs.contains(4));
        assert!(!hubs.contains(0));
        assert_eq!(hubs.position(1), Some(0));
        assert_eq!(hubs.position(4), Some(1));
        assert_eq!(hubs.position(2), None);
        assert_eq!(hubs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicates() {
        HubSet::from_ids(6, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        HubSet::from_ids(3, vec![5]);
    }
}
