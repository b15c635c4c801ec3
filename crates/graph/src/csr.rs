//! Compressed sparse adjacency storage.
//!
//! [`DiGraph`] keeps both directions of every edge:
//! * **CSR** (`out_offsets` / `out_targets`): out-neighbors of each node in
//!   ascending order — drives ink *pushes* and `Aᵀ·x` gathers;
//! * **CSC** (`in_offsets` / `in_sources`): in-neighbors of each node —
//!   drives `A·x` gathers and in-degree statistics.
//!
//! Edge weights are optional; an unweighted graph stores no weight arrays and
//! every edge behaves as weight 1 (the paper's uniform `1/OD(j)` transition).

use crate::error::GraphError;

/// Structural effect of one edge mutation on the flat edge arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpliceKind {
    /// A new slot was inserted at `out_pos` / `in_pos`.
    Inserted,
    /// The edge already existed; only its weight changed (parallel-edge
    /// merge, matching [`crate::GraphBuilder`]'s accumulation).
    Accumulated,
    /// The slot at `out_pos` / `in_pos` was removed.
    Removed,
}

/// What one [`DiGraph::add_edge`] / [`DiGraph::remove_edge`] did to the flat
/// CSR/CSC edge arrays — the splice that parallel arrays derived from edge
/// order (the transition probabilities) must mirror to stay bitwise-equal to
/// a from-scratch rebuild.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeSplice {
    /// Source of the mutated edge.
    pub from: u32,
    /// Target of the mutated edge.
    pub to: u32,
    /// Position of the edge in CSR edge order (index into the flat
    /// out-target array): where it sits after an add, where it sat before a
    /// remove.
    pub out_pos: usize,
    /// Position of the edge in CSC edge order.
    pub in_pos: usize,
    /// Structural effect on the edge arrays.
    pub kind: SpliceKind,
    /// The edge's weight after an add (accumulated total), or the weight the
    /// removed edge carried.
    pub weight: f64,
}

/// Whether a row with out-weight sum `sum` normalizes to finite
/// probabilities: `w / sum` needs both `sum` and `1 / sum` finite. Weights
/// that are each valid can still break this together — two `1e308`s sum to
/// `inf` (probabilities `NaN`), a lone `5e-324` inverts to `inf`.
fn normalizable(sum: f64) -> bool {
    sum.is_finite() && (1.0 / sum).is_finite()
}

/// A directed graph in CSR + CSC form, optionally edge-weighted.
///
/// Construct via [`crate::GraphBuilder`] (which validates, merges parallel
/// edges and repairs dangling nodes) or the generators in [`crate::gen`].
/// Built graphs support in-place edge mutation ([`Self::add_edge`],
/// [`Self::remove_edge`]) that preserves every builder invariant, so a
/// mutated graph is always bitwise-identical to building the same edge set
/// from scratch.
#[derive(Clone, Debug, PartialEq)]
pub struct DiGraph {
    n: usize,
    // CSR: out-edges. targets within a node's range are ascending.
    out_offsets: Vec<u64>,
    out_targets: Vec<u32>,
    out_weights: Option<Vec<f64>>,
    // CSC: in-edges. sources within a node's range are ascending.
    in_offsets: Vec<u64>,
    in_sources: Vec<u32>,
    in_weights: Option<Vec<f64>>,
}

impl DiGraph {
    /// Builds a graph directly from a *validated* edge list.
    ///
    /// `edges` are `(from, to, weight)` triples; parallel edges must already
    /// have been merged and endpoints range-checked (the builder does this).
    /// `weighted` selects whether weight arrays are materialized.
    pub(crate) fn from_sorted_edges(
        n: usize,
        mut edges: Vec<(u32, u32, f64)>,
        weighted: bool,
    ) -> Self {
        edges.sort_unstable_by_key(|a| (a.0, a.1));
        let m = edges.len();

        let mut out_offsets = vec![0u64; n + 1];
        for &(f, _, _) in &edges {
            out_offsets[f as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(m);
        let mut out_weights = if weighted { Vec::with_capacity(m) } else { Vec::new() };
        for &(_, t, w) in &edges {
            out_targets.push(t);
            if weighted {
                out_weights.push(w);
            }
        }

        // CSC from the same edge set, sorted by (to, from).
        edges.sort_unstable_by_key(|a| (a.1, a.0));
        let mut in_offsets = vec![0u64; n + 1];
        for &(_, t, _) in &edges {
            in_offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = Vec::with_capacity(m);
        let mut in_weights = if weighted { Vec::with_capacity(m) } else { Vec::new() };
        for &(f, _, w) in &edges {
            in_sources.push(f);
            if weighted {
                in_weights.push(w);
            }
        }

        Self {
            n,
            out_offsets,
            out_targets,
            out_weights: weighted.then_some(out_weights),
            in_offsets,
            in_sources,
            in_weights: weighted.then_some(in_weights),
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges `|E|` (after parallel-edge merging).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// True when edge weights are stored.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.out_weights.is_some()
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: u32) -> usize {
        let u = node as usize;
        (self.out_offsets[u + 1] - self.out_offsets[u]) as usize
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: u32) -> usize {
        let u = node as usize;
        (self.in_offsets[u + 1] - self.in_offsets[u]) as usize
    }

    /// Out-neighbors of `node`, ascending.
    #[inline]
    pub fn out_neighbors(&self, node: u32) -> &[u32] {
        &self.out_targets[self.out_edge_range(node)]
    }

    /// Positions of `node`'s out-edges in CSR edge order. Parallel arrays
    /// (e.g. [`crate::TransitionMatrix`] probabilities) index with this range.
    #[inline]
    pub fn out_edge_range(&self, node: u32) -> std::ops::Range<usize> {
        let u = node as usize;
        self.out_offsets[u] as usize..self.out_offsets[u + 1] as usize
    }

    /// Positions of `node`'s in-edges in CSC edge order.
    #[inline]
    pub fn in_edge_range(&self, node: u32) -> std::ops::Range<usize> {
        let u = node as usize;
        self.in_offsets[u] as usize..self.in_offsets[u + 1] as usize
    }

    /// In-neighbors of `node`, ascending.
    #[inline]
    pub fn in_neighbors(&self, node: u32) -> &[u32] {
        &self.in_sources[self.in_edge_range(node)]
    }

    /// The whole CSR side, `(out_offsets, out_targets)`: row `u` is
    /// `out_targets[out_offsets[u]..out_offsets[u + 1]]`. The transition
    /// operators resolve the arrays once per apply, not once per row.
    #[inline]
    pub(crate) fn csr(&self) -> (&[u64], &[u32]) {
        (&self.out_offsets, &self.out_targets)
    }

    /// The whole CSC side, `(in_offsets, in_sources)` — see [`Self::csr`].
    #[inline]
    pub(crate) fn csc(&self) -> (&[u64], &[u32]) {
        (&self.in_offsets, &self.in_sources)
    }

    /// Weights parallel to [`Self::out_neighbors`]; `None` when unweighted.
    #[inline]
    pub fn out_weights(&self, node: u32) -> Option<&[f64]> {
        self.out_weights.as_ref().map(|w| &w[self.out_edge_range(node)])
    }

    /// Weights parallel to [`Self::in_neighbors`]; `None` when unweighted.
    #[inline]
    pub fn in_weights(&self, node: u32) -> Option<&[f64]> {
        self.in_weights.as_ref().map(|w| &w[self.in_edge_range(node)])
    }

    /// Total outgoing weight of `node` (out-degree when unweighted).
    pub fn out_weight_sum(&self, node: u32) -> f64 {
        match self.out_weights(node) {
            Some(ws) => ws.iter().sum(),
            None => self.out_degree(node) as f64,
        }
    }

    /// True when the edge `from → to` exists. `O(log out_degree(from))`.
    pub fn has_edge(&self, from: u32, to: u32) -> bool {
        self.out_neighbors(from).binary_search(&to).is_ok()
    }

    /// Iterates every edge as `(from, to, weight)` (weight 1.0 when
    /// unweighted), in ascending `(from, to)` order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.n as u32).flat_map(move |u| {
            let nbrs = self.out_neighbors(u);
            let ws = self.out_weights(u);
            nbrs.iter().enumerate().map(move |(k, &v)| {
                let w = ws.map_or(1.0, |ws| ws[k]);
                (u, v, w)
            })
        })
    }

    /// Nodes with out-degree zero (ascending). A graph built through
    /// [`crate::GraphBuilder`] with a repairing policy has none.
    pub fn dangling_nodes(&self) -> Vec<u32> {
        (0..self.n as u32).filter(|&u| self.out_degree(u) == 0).collect()
    }

    /// Validates internal consistency (used by tests and after decoding).
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        for &t in &self.out_targets {
            if t as usize >= self.n {
                return Err(GraphError::NodeOutOfRange { node: t, node_count: self.n });
            }
        }
        for &s in &self.in_sources {
            if s as usize >= self.n {
                return Err(GraphError::NodeOutOfRange { node: s, node_count: self.n });
            }
        }
        if let Some(ws) = &self.out_weights {
            for (k, &w) in ws.iter().enumerate() {
                if !w.is_finite() || w <= 0.0 {
                    // Recover endpoints for the error message.
                    let from =
                        self.out_offsets.partition_point(|&o| o as usize <= k).saturating_sub(1)
                            as u32;
                    return Err(GraphError::InvalidWeight {
                        from,
                        to: self.out_targets[k],
                        weight: w,
                    });
                }
            }
            for from in 0..self.n as u32 {
                let row = self.out_edge_range(from);
                if !row.is_empty() && !normalizable(self.out_weight_sum(from)) {
                    let k = row.start;
                    return Err(GraphError::InvalidWeight {
                        from,
                        to: self.out_targets[k],
                        weight: ws[k],
                    });
                }
            }
        }
        Ok(())
    }

    /// Adds edge `from → to` with `weight`, splicing both CSR and CSC in
    /// place. If the edge already exists its weight accumulates — the same
    /// parallel-edge merge [`crate::GraphBuilder`] performs.
    ///
    /// The builder's weight-array invariant is maintained (`is_weighted()`
    /// iff any edge weight differs from 1.0), so the result is always
    /// bitwise-identical to building the post-mutation edge set from
    /// scratch. Cost: `O(|E|)` for the array splice plus `O(|V|)` for the
    /// offset bump — cheap next to any index maintenance the caller does.
    ///
    /// # Errors
    /// Rejects endpoints outside `0..node_count`, weights that are not
    /// strictly positive finite numbers, and weights that would leave
    /// `from`'s out-weight sum impossible to normalize (overflow to `inf`,
    /// or so small its inverse is) — always before mutating anything.
    pub fn add_edge(&mut self, from: u32, to: u32, weight: f64) -> Result<EdgeSplice, GraphError> {
        if from as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: from, node_count: self.n });
        }
        if to as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: to, node_count: self.n });
        }
        if !weight.is_finite() || weight <= 0.0 {
            return Err(GraphError::InvalidWeight { from, to, weight });
        }
        let out_range = self.out_edge_range(from);
        let in_range = self.in_edge_range(to);
        let slot = self.out_targets[out_range.clone()].binary_search(&to);
        let sum = self.edited_out_weight_sum(from, |row| match slot {
            Ok(i) => row[i] += weight,
            Err(i) => row.insert(i, weight),
        });
        if !normalizable(sum) {
            return Err(GraphError::InvalidWeight { from, to, weight });
        }
        match slot {
            Ok(i) => {
                // Existing edge: accumulate the weight in both mirrors. The
                // total is never 1.0-able back to unweighted unless every
                // other weight is also exactly 1.0 — checked below.
                let out_pos = out_range.start + i;
                let j = self.in_sources[in_range.clone()]
                    .binary_search(&from)
                    .expect("CSC mirrors CSR");
                let in_pos = in_range.start + j;
                self.materialize_weights();
                let ws = self.out_weights.as_mut().expect("just materialized");
                ws[out_pos] += weight;
                let total = ws[out_pos];
                self.in_weights.as_mut().expect("just materialized")[in_pos] += weight;
                if total == 1.0 {
                    self.collapse_unit_weights();
                }
                Ok(EdgeSplice {
                    from,
                    to,
                    out_pos,
                    in_pos,
                    kind: SpliceKind::Accumulated,
                    weight: total,
                })
            }
            Err(i) => {
                let out_pos = out_range.start + i;
                let j = self.in_sources[in_range.clone()]
                    .binary_search(&from)
                    .expect_err("CSC mirrors CSR: edge absent from CSR must be absent from CSC");
                let in_pos = in_range.start + j;
                if weight != 1.0 {
                    self.materialize_weights();
                }
                self.out_targets.insert(out_pos, to);
                self.in_sources.insert(in_pos, from);
                for o in self.out_offsets[from as usize + 1..].iter_mut() {
                    *o += 1;
                }
                for o in self.in_offsets[to as usize + 1..].iter_mut() {
                    *o += 1;
                }
                if let Some(ws) = self.out_weights.as_mut() {
                    ws.insert(out_pos, weight);
                }
                if let Some(ws) = self.in_weights.as_mut() {
                    ws.insert(in_pos, weight);
                }
                Ok(EdgeSplice { from, to, out_pos, in_pos, kind: SpliceKind::Inserted, weight })
            }
        }
    }

    /// Removes edge `from → to`, splicing both CSR and CSC in place.
    ///
    /// # Errors
    /// [`GraphError::EdgeNotFound`] when the edge does not exist,
    /// [`GraphError::DanglingNode`] when removing it would leave `from` with
    /// out-degree zero (RWR needs a column-stochastic transition matrix, so
    /// dangling nodes are never allowed to appear), and
    /// [`GraphError::InvalidWeight`], naming an edge left behind, when the
    /// remaining out-weights of `from` are too small to normalize. A refused
    /// removal mutates nothing.
    pub fn remove_edge(&mut self, from: u32, to: u32) -> Result<EdgeSplice, GraphError> {
        if from as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: from, node_count: self.n });
        }
        if to as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: to, node_count: self.n });
        }
        let out_range = self.out_edge_range(from);
        let Ok(i) = self.out_targets[out_range.clone()].binary_search(&to) else {
            return Err(GraphError::EdgeNotFound { from, to });
        };
        if out_range.len() == 1 {
            return Err(GraphError::DanglingNode { node: from, count: 1 });
        }
        let out_pos = out_range.start + i;
        let left_sum = self.edited_out_weight_sum(from, |row| {
            row.remove(i);
        });
        if !normalizable(left_sum) {
            let k = out_range.start + usize::from(i == 0);
            let weight = self.out_weights.as_ref().map_or(1.0, |ws| ws[k]);
            return Err(GraphError::InvalidWeight { from, to: self.out_targets[k], weight });
        }
        let in_range = self.in_edge_range(to);
        let j = self.in_sources[in_range.clone()].binary_search(&from).expect("CSC mirrors CSR");
        let in_pos = in_range.start + j;
        let weight = self.out_weights.as_ref().map_or(1.0, |ws| ws[out_pos]);
        self.out_targets.remove(out_pos);
        self.in_sources.remove(in_pos);
        for o in self.out_offsets[from as usize + 1..].iter_mut() {
            *o -= 1;
        }
        for o in self.in_offsets[to as usize + 1..].iter_mut() {
            *o -= 1;
        }
        if let Some(ws) = self.out_weights.as_mut() {
            ws.remove(out_pos);
        }
        if let Some(ws) = self.in_weights.as_mut() {
            ws.remove(in_pos);
        }
        if weight != 1.0 {
            // The removed edge may have been the last non-unit weight.
            self.collapse_unit_weights();
        }
        Ok(EdgeSplice { from, to, out_pos, in_pos, kind: SpliceKind::Removed, weight })
    }

    /// The out-weight sum `from` would have once `edit` is applied to its
    /// row of weights, added up in the order [`Self::out_weight_sum`] uses —
    /// so a mutation can be refused before anything is touched.
    fn edited_out_weight_sum(&self, from: u32, edit: impl FnOnce(&mut Vec<f64>)) -> f64 {
        let mut row = match self.out_weights(from) {
            Some(ws) => ws.to_vec(),
            None => vec![1.0; self.out_degree(from)],
        };
        edit(&mut row);
        row.iter().sum()
    }

    /// Materializes all-1.0 weight arrays so a non-unit weight can be
    /// spliced in (no-op when already weighted).
    fn materialize_weights(&mut self) {
        if self.out_weights.is_none() {
            self.out_weights = Some(vec![1.0; self.out_targets.len()]);
            self.in_weights = Some(vec![1.0; self.in_sources.len()]);
        }
    }

    /// Drops the weight arrays when every weight is exactly 1.0 — the same
    /// collapse [`crate::GraphBuilder::build`] applies, keeping mutated
    /// graphs bitwise-identical to freshly built ones.
    fn collapse_unit_weights(&mut self) {
        if self.out_weights.as_ref().is_some_and(|ws| ws.iter().all(|&w| w == 1.0)) {
            self.out_weights = None;
            self.in_weights = None;
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        let w = self.out_weights.as_ref().map_or(0, |v| v.len() * 8)
            + self.in_weights.as_ref().map_or(0, |v| v.len() * 8);
        (self.out_offsets.len() + self.in_offsets.len()) * 8
            + (self.out_targets.len() + self.in_sources.len()) * 4
            + w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DanglingPolicy, GraphBuilder};

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        let mut b = GraphBuilder::new(4);
        for (f, t) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)] {
            b.add_edge(f, t).unwrap();
        }
        b.build(DanglingPolicy::Error).unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.in_degree(0), 1);
    }

    #[test]
    fn neighbor_slices_are_sorted() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_neighbors(3), &[0]);
    }

    #[test]
    fn csr_csc_are_mirror_images() {
        let g = diamond();
        let mut from_csr: Vec<(u32, u32)> = g.edges().map(|(f, t, _)| (f, t)).collect();
        let mut from_csc: Vec<(u32, u32)> = (0..g.node_count() as u32)
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (u, v)))
            .collect();
        from_csr.sort_unstable();
        from_csc.sort_unstable();
        assert_eq!(from_csr, from_csc);
    }

    #[test]
    fn has_edge_lookup() {
        let g = diamond();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
    }

    #[test]
    fn unweighted_weight_sum_is_out_degree() {
        let g = diamond();
        assert_eq!(g.out_weight_sum(0), 2.0);
        assert!(g.out_weights(0).is_none());
        assert!(!g.is_weighted());
    }

    #[test]
    fn weighted_graph_stores_weights() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 2.5).unwrap();
        b.add_weighted_edge(1, 0, 0.5).unwrap();
        let g = b.build(DanglingPolicy::Error).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0), Some(&[2.5][..]));
        assert_eq!(g.in_weights(0), Some(&[0.5][..]));
        assert_eq!(g.out_weight_sum(0), 2.5);
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 5);
        assert!(edges.contains(&(3, 0, 1.0)));
    }

    #[test]
    fn dangling_detection() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build(DanglingPolicy::SelfLoop).unwrap();
        assert!(g.dangling_nodes().is_empty());
        assert!(g.has_edge(1, 1));
        assert!(g.has_edge(2, 2));
    }

    #[test]
    fn validate_accepts_well_formed() {
        diamond().validate().unwrap();
    }

    /// Builds a fresh graph from `g`'s exact edge set via the builder — the
    /// rebuild oracle every mutation must match bitwise.
    fn rebuild(g: &DiGraph) -> DiGraph {
        let mut b = GraphBuilder::new(g.node_count());
        for (f, t, w) in g.edges() {
            b.add_weighted_edge(f, t, w).unwrap();
        }
        b.build(DanglingPolicy::Error).unwrap()
    }

    #[test]
    fn add_edge_matches_fresh_build() {
        let mut g = diamond();
        let splice = g.add_edge(1, 2, 1.0).unwrap();
        assert_eq!(splice.kind, SpliceKind::Inserted);
        assert!(g.has_edge(1, 2));
        assert_eq!(g.edge_count(), 6);
        assert!(!g.is_weighted());
        assert_eq!(g, rebuild(&g));
        // Splice positions point at the new edge in both mirrors.
        assert_eq!(g.out_targets[splice.out_pos], 2);
        assert_eq!(g.in_sources[splice.in_pos], 1);
    }

    #[test]
    fn weighted_add_materializes_and_matches_fresh_build() {
        let mut g = diamond();
        let splice = g.add_edge(3, 2, 2.5).unwrap();
        assert_eq!(splice.kind, SpliceKind::Inserted);
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0), Some(&[1.0, 1.0][..]));
        assert_eq!(g.out_weight_sum(3), 3.5);
        assert_eq!(g, rebuild(&g));
    }

    #[test]
    fn accumulating_add_merges_parallel_edges() {
        let mut g = diamond();
        let splice = g.add_edge(0, 1, 1.0).unwrap();
        assert_eq!(splice.kind, SpliceKind::Accumulated);
        assert_eq!(splice.weight, 2.0);
        assert_eq!(g.edge_count(), 5);
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0), Some(&[2.0, 1.0][..]));
        assert_eq!(g, rebuild(&g));
    }

    #[test]
    fn remove_edge_matches_fresh_build() {
        let mut g = diamond();
        let splice = g.remove_edge(0, 1).unwrap();
        assert_eq!(splice.kind, SpliceKind::Removed);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g, rebuild(&g));
    }

    #[test]
    fn remove_last_non_unit_weight_collapses_to_unweighted() {
        let mut g = diamond();
        g.add_edge(3, 2, 2.5).unwrap();
        assert!(g.is_weighted());
        g.remove_edge(3, 2).unwrap();
        assert!(!g.is_weighted());
        assert_eq!(g, diamond());
    }

    #[test]
    fn accumulate_to_exactly_unit_collapses() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 0.5).unwrap();
        b.add_weighted_edge(1, 0, 1.0).unwrap();
        let mut g = b.build(DanglingPolicy::Error).unwrap();
        assert!(g.is_weighted());
        let splice = g.add_edge(0, 1, 0.5).unwrap();
        assert_eq!(splice.weight, 1.0);
        assert!(!g.is_weighted(), "all-unit weights must collapse as the builder would");
        assert_eq!(g, rebuild(&g));
    }

    #[test]
    fn mutation_rejects_invalid_input() {
        let mut g = diamond();
        assert!(matches!(g.add_edge(0, 9, 1.0), Err(GraphError::NodeOutOfRange { node: 9, .. })));
        assert!(matches!(g.add_edge(0, 1, -1.0), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(g.add_edge(0, 1, f64::NAN), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(g.remove_edge(2, 0), Err(GraphError::EdgeNotFound { from: 2, to: 0 })));
        assert!(matches!(g.remove_edge(3, 0), Err(GraphError::DanglingNode { node: 3, count: 1 })));
        // Failed mutations leave the graph untouched.
        assert_eq!(g, diamond());
    }

    #[test]
    fn weights_that_cannot_normalize_are_refused_before_mutating() {
        // Each weight below is valid on its own; the row it would leave is
        // not. Row 0 becomes [1e308, 1]: fine so far.
        let mut g = diamond();
        g.add_edge(0, 1, 1e308).unwrap();
        let before = g.clone();
        // Accumulating onto 0→1, or a new edge in the same row: the row
        // sums to inf, and `w · 1/inf` would be a NaN probability.
        assert!(matches!(
            g.add_edge(0, 1, 1e308),
            Err(GraphError::InvalidWeight { from: 0, to: 1, .. })
        ));
        assert!(matches!(g.add_edge(0, 3, 1e308), Err(GraphError::InvalidWeight { .. })));
        assert_eq!(g, before);

        // Row 3 becomes [1, 5e-324]; removing 3→0 would leave the denormal
        // alone, whose inverse is inf.
        g.add_edge(3, 2, 5e-324).unwrap();
        let before = g.clone();
        assert!(matches!(
            g.remove_edge(3, 0),
            Err(GraphError::InvalidWeight { from: 3, to: 2, .. })
        ));
        assert_eq!(g, before);
        g.validate().unwrap();
        assert_eq!(g, rebuild(&g));
    }

    #[test]
    fn long_mutation_sequence_stays_builder_identical() {
        let mut g = diamond();
        let script: &[(bool, u32, u32, f64)] = &[
            (true, 1, 0, 1.0),
            (true, 2, 1, 3.0),
            (false, 0, 2, 0.0),
            (true, 3, 3, 1.0),
            (true, 2, 1, 1.0),
            (false, 2, 1, 0.0),
            (true, 0, 2, 0.25),
            (false, 3, 3, 0.0),
        ];
        for &(add, f, t, w) in script {
            if add {
                g.add_edge(f, t, w).unwrap();
            } else {
                g.remove_edge(f, t).unwrap();
            }
            g.validate().unwrap();
            assert_eq!(g, rebuild(&g), "after {:?}", (add, f, t, w));
        }
    }
}
