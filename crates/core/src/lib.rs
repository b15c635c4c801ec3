//! High-level facade for reverse top-k RWR search.
//!
//! [`ReverseTopkEngine`] owns a graph and its offline index and exposes the
//! paper's operations behind a minimal API:
//!
//! ```
//! use rtk_core::prelude::*;
//!
//! // The 6-node toy graph of the paper's Figure 1 (0-based ids).
//! let graph = GraphBuilder::from_edges(
//!     6,
//!     &[
//!         (0, 1), (0, 3), (0, 5),
//!         (1, 0), (1, 2),
//!         (2, 0), (2, 1),
//!         (3, 1), (3, 4),
//!         (4, 1),
//!         (5, 1), (5, 3),
//!     ],
//!     DanglingPolicy::SelfLoop,
//! )
//! .unwrap();
//!
//! let mut engine = ReverseTopkEngine::builder(graph)
//!     .max_k(3)
//!     .hubs_per_direction(1)
//!     .build()
//!     .unwrap();
//!
//! // Reverse top-2 of node 0: who ranks node 0 among their 2 closest?
//! let result = engine.query(NodeId(0), 2).unwrap();
//! assert_eq!(result.nodes(), &[0, 1, 4]);
//! ```
//!
//! The same engine type serves one shard of a partitioned index when its
//! index holds only that shard (`ReverseTopkEngine::from_parts` with
//! `index.one_shard(i)`): it then answers the shard-scoped slice of a query
//! and refuses whole answers — see "Whole or one shard" on
//! [`ReverseTopkEngine`].
//!
//! The lower layers remain fully public for power users:
//! [`rtk_graph`] (graphs + generators), [`rtk_rwr`] (solvers),
//! [`rtk_index`] (the LBI index), [`rtk_query`] (Alg. 4 + baselines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;

pub use engine::{EngineBuilder, ReverseTopkEngine};
pub use error::EngineError;
pub use rtk_index::{fnv1a64, UpdateEffect, UpdateRecord};

// ---- Deprecated aliases -------------------------------------------------
// Old name the repo benchmark (`crates/bench/src/bin/benchmark`, which may
// not be edited alongside the code it measures) still calls. Nothing else
// in the tree may use it (`-D warnings`); a `[benchmark]` PR drops it.

/// Old name of a [`ReverseTopkEngine`] whose index holds one shard.
#[deprecated(note = "a one-shard engine is a `ReverseTopkEngine` over `index.one_shard(i)`")]
pub type ShardEngine = ReverseTopkEngine;

// Re-export the layer crates under stable names.
pub use rtk_graph as graph;
pub use rtk_index as index;
pub use rtk_query as query;
pub use rtk_rwr as rwr;
pub use rtk_sparse as sparse;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use crate::engine::{EngineBuilder, ReverseTopkEngine};
    pub use crate::error::EngineError;
    pub use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder, NodeId};
    pub use rtk_index::{HubSelection, HubSolver, IndexConfig};
    pub use rtk_query::{BoundMode, QueryOptions, QueryResult};
    pub use rtk_rwr::{BcaParams, RwrParams};
}

/// One-shard ownership tests. The module keeps the name of the separate
/// engine type these were written against, so their test ids are stable.
#[cfg(test)]
mod shard_engine {
    mod tests {
        use crate::ReverseTopkEngine;
        use rtk_graph::NodeId;
        use rtk_index::storage;
        use rtk_query::QueryOptions;

        fn sharded_engine(shards: usize) -> ReverseTopkEngine {
            ReverseTopkEngine::builder(rtk_datasets::toy_graph())
                .max_k(3)
                .hubs_per_direction(1)
                // The paper's running example: node 3 is stored with open
                // bounds, so reverse top-2 of node 0 has something to refine.
                .residue_threshold(0.8)
                .threads(1)
                .shards(shards)
                .build()
                .unwrap()
        }

        fn backend(whole: &ReverseTopkEngine, sid: usize) -> ReverseTopkEngine {
            let index = whole.index().one_shard(sid).unwrap();
            ReverseTopkEngine::from_parts(rtk_datasets::toy_graph(), index).unwrap()
        }

        #[test]
        fn shard_engines_cover_the_full_answer() {
            let mut whole = sharded_engine(1);
            let reference = whole.query(NodeId(0), 2).unwrap();
            let sharded = sharded_engine(3);
            let mut merged = Vec::new();
            for sid in 0..3 {
                let backend = backend(&sharded, sid);
                assert_eq!(backend.index().owned_shard(), Some(sid));
                assert_eq!(backend.shard_count(), 3);
                let partial = backend
                    .query_shard_frozen(NodeId(0), 2, &QueryOptions::default(), None)
                    .unwrap();
                merged.extend_from_slice(partial.nodes());
            }
            assert_eq!(merged, reference.nodes());
        }

        #[test]
        fn update_mode_commits_into_the_owned_shard() {
            let sharded = sharded_engine(2);
            let mut backend = backend(&sharded, 1);
            // Node 3 (paper running example) needs refinement for q=0, k=2
            // and lives in shard 1 of a 2-way split (nodes 3..6).
            assert!(backend.index().owned_range().contains(&3));
            let before = backend.index_digest();
            let opts = QueryOptions::default();
            let r1 = backend.query_shard(NodeId(0), 2, &opts, None).unwrap();
            assert!(r1.stats().refined_nodes > 0);
            assert_ne!(backend.index_digest(), before, "update mode must commit");
            let after = backend.index_digest();
            let r2 = backend.query_shard_frozen(NodeId(0), 2, &opts, None).unwrap();
            assert_eq!(backend.index_digest(), after, "frozen mode must not");
            assert_eq!(r1.nodes(), r2.nodes());
            assert!(
                r2.stats().refine_iterations <= r1.stats().refine_iterations,
                "committed refinements must make the repeat cheaper or equal"
            );
        }

        #[test]
        fn shard_section_round_trips_through_save() {
            let sharded = sharded_engine(2);
            let backend = backend(&sharded, 0);
            let mut buf = Vec::new();
            backend.save(&mut buf).unwrap();
            // A one-shard snapshot loads back as the one-shard engine, and
            // holds shard 0 only.
            let back = ReverseTopkEngine::load(buf.as_slice()).unwrap();
            assert_eq!(back.index().owned_shard(), Some(0));
            let shard0 = sharded.index().shard_map().range(0);
            assert!(back.index().iter_states().eq(shard0.map(|u| sharded.index().state(u))));
            assert!(storage::load_one_shard(buf.as_slice(), 1).is_err());
        }

        #[test]
        fn rejects_mismatched_graph_and_bad_nodes() {
            let sharded = sharded_engine(2);
            let index = sharded.index().one_shard(0).unwrap();
            let small = rtk_graph::GraphBuilder::from_edges(
                2,
                &[(0, 1), (1, 0)],
                rtk_graph::DanglingPolicy::Error,
            )
            .unwrap();
            assert!(ReverseTopkEngine::from_parts(small, index).is_err());

            let backend = backend(&sharded, 0);
            let opts = QueryOptions::default();
            assert!(backend.query_shard_frozen(NodeId(9), 2, &opts, None).is_err());
            assert!(backend.top_k(NodeId(9), 2).is_err());
        }
    }
}
