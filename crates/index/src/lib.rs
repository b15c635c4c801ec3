//! The offline Lower-Bound Index (LBI) of the paper (§4.1, Alg. 1).
//!
//! For every node `u` the index keeps a *resumable*, partially-run Bookmark
//! Coloring computation together with the `K` largest entries of its
//! materialized lower-bound proximity vector `p^t_u = w^t_u + P_H·s^t_u`
//! (Eq. 7). Because BCA's retained ink only grows (Prop. 1), every stored
//! value is a true lower bound of the corresponding exact proximity, and the
//! `k`-th entry of a column lower-bounds `p^{kmax}_u` (Prop. 2) — the
//! pruning test that makes reverse top-k queries fast.
//!
//! Components:
//!
//! * [`HubMatrix`] — the precomputed hub proximity vectors `P_H` after
//!   rounding away entries below `ω` (§4.1.3), held as one dense panel over
//!   their common support. We additionally
//!   track each hub's *mass deficit* (rounded-away + solver-truncated mass),
//!   which lets the query layer keep its upper bounds sound under aggressive
//!   rounding (an extension over the paper; see the [`hub_matrix`] module
//!   docs);
//! * [`NodeState`] — one column of the index: the BCA snapshot (`r`, `w`,
//!   `s`) plus the descending top-K lower bounds `p̂^t_u(1:K)`;
//! * [`ReverseIndex::build`] — parallel index construction
//!   (Alg. 1) as `rtk_sparse::WorkerPool::claim` loops over hub tiles and
//!   node chunks, deterministic regardless of thread count;
//! * [`ShardMap`] — the cut of the node range into `S` contiguous shards.
//!   It is layout metadata: a snapshot holds one section per shard, and a
//!   backend process holds one shard's range. In memory a [`ReverseIndex`]
//!   keeps the states of its owned range as one block in id order, whatever
//!   the map says, so the shard count never changes answers, only wall time
//!   and layout;
//! * [`storage`] — versioned binary persistence: one snapshot format, the
//!   shard manifest, holding the graph and the index — every shard's
//!   section, or one (a backend's `persist`; [`storage::stitch`]
//!   re-assembles those). A [`ReverseIndex`] holds every node's state or
//!   one shard's ([`ReverseIndex::one_shard`]): [`storage::load_one_shard`]
//!   reads the graph, the shared hub matrix and shard map plus *one* shard
//!   section — the loading unit of multi-process serving, where each
//!   backend process owns one shard;
//! * [`kept`] — the bounds frozen queries' refinements reached, kept beside
//!   the states (never persisted) until an edge update changes the graph;
//! * [`update`] — incremental edge updates: which entries an edit can
//!   change, which stored runs it may keep, and [`digest`] — the index
//!   digest replicas are compared by, folded from per-record hashes cached
//!   beside the records;
//! * [`refine_state`] — the shared refinement step (Alg. 1 lines 6–7) on a
//!   copy of a stored state, and [`Refiner`] — the same step with the
//!   computation held resident in a worker's scratch, which is how query
//!   processing re-tests a candidate's bounds between runs; a refined copy
//!   goes back through [`ReverseIndex::commit_states`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod config;
pub mod digest;
pub mod error;
pub mod hub_matrix;
pub mod index;
pub mod kept;
pub mod node_state;
pub mod shard;
pub mod stats;
pub mod storage;
pub mod update;

pub use config::{HubSelection, HubSolver, IndexConfig};
pub use digest::fnv1a64;
pub use error::IndexError;
pub use hub_matrix::{HubMatrix, Materializer};
pub use index::ReverseIndex;
pub use kept::{Kept, KeptBounds};
pub use node_state::{refine_state, NodeState, Refiner};
pub use shard::ShardMap;
pub use stats::IndexStats;
pub use storage::UpdateRecord;
pub use update::{affected_set, UpdateEffect};

// ---- Deprecated aliases -------------------------------------------------
// Old names the repo benchmark (`crates/bench/src/bin/benchmark`, which may
// not be edited alongside the code it measures) still calls. Nothing else
// in the tree may use them (`-D warnings`); a `[benchmark]` PR drops them.

/// Old name of a [`ReverseIndex`] holding one shard.
#[deprecated(note = "a one-shard index is a `ReverseIndex`; see `ReverseIndex::one_shard`")]
pub type ShardSlice = ReverseIndex;

impl ReverseIndex {
    /// Old spelling of [`ReverseIndex::one_shard`].
    #[deprecated(note = "use `index.one_shard(shard_id)`")]
    pub fn from_index(index: &ReverseIndex, shard_id: usize) -> Result<Self, IndexError> {
        index.one_shard(shard_id)
    }
}
