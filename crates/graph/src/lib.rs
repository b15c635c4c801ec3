//! Directed graph substrate for the reverse top-k RWR library.
//!
//! The paper (§2.1) models the data as a directed graph `G(V,E)` with a
//! column-stochastic transition matrix `A` where `a_{i,j} = w_{i,j} / w_j` for
//! an edge `j → i` (uniform `1/OD(j)` in the unweighted case). This crate
//! owns that model:
//!
//! * [`DiGraph`] — compressed sparse row (out-edges) + compressed sparse
//!   column (in-edges) adjacency with optional edge weights;
//! * [`GraphBuilder`] — edge-list ingestion with parallel-edge merging and
//!   dangling-node repair by self-loop, which keeps node ids (the paper's
//!   footnote 1 deletes dangling nodes or adds a sink, and renumbers);
//! * [`TransitionMatrix`] — the normalized probabilities laid out twice (edge
//!   order and reverse-edge order) so both `A·x` and `Aᵀ·x` are cache-friendly
//!   gathers;
//! * [`gen`] — deterministic random-graph generators (Erdős–Rényi, directed
//!   Barabási–Albert, R-MAT, Watts–Strogatz) used to synthesize analogues of
//!   the paper's evaluation datasets;
//! * [`io`] — TSV edge-list and versioned binary persistence;
//! * [`degree`] — degree statistics and the top-`B` degree selections backing
//!   hub choice (paper §4.1.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod degree;
pub mod error;
pub mod gen;
pub mod io;
pub mod transition;

pub use builder::{DanglingPolicy, GraphBuilder};
pub use csr::{DiGraph, EdgeSplice, SpliceKind};
pub use error::GraphError;
pub use transition::{gather_dot, resolve_threads, TransitionMatrix, TransitionProbs};

/// A node identifier: a dense index in `0..graph.node_count()`.
///
/// `NodeId` is a transparent wrapper over `u32`; the numeric kernels work on
/// raw indices while public APIs use this newtype to keep graph positions
/// from mixing with other integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index as `usize`, for slice addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips() {
        let n = NodeId::from(7u32);
        assert_eq!(n.index(), 7);
        assert_eq!(u32::from(n), 7);
        assert_eq!(n.to_string(), "7");
    }
}
