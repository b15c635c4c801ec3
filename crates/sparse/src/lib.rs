//! Numeric substrate for the reverse top-k RWR library.
//!
//! This crate provides the small, allocation-conscious building blocks shared
//! by every other crate in the workspace:
//!
//! * [`dense`] — kernels over dense `f64` slices (norms, axpy, argmax, …);
//! * [`SparseVector`] — a compact sorted `(index, value)` vector used to store
//!   per-node Bookmark-Coloring state (residues, retained ink, hub ink);
//! * [`ScratchPool`] — a mutexed free list recycling per-thread scratch
//!   objects across parallel query phases;
//! * [`WorkerPool`] — a persistent pool of parked worker threads with a
//!   `std::thread::scope`-shaped borrowing-task API, so fork/join hot paths
//!   stop paying a spawn/join round trip per region;
//! * [`topk`] — descending top-K selection and maintenance;
//! * [`LatencyHistogram`] — a fixed-bucket histogram with deterministic
//!   p50/p95/p99, shared by the serving metrics and the bench harness;
//! * [`codec`] — a minimal versioned little-endian binary codec used for graph
//!   and index persistence (hand-rolled instead of serde: byte-level control,
//!   no derive machinery, round-trip tested).
//!
//! Everything here is deliberately independent of graph types: indices are
//! plain `usize`/`u32` and values are `f64`.

// `deny` instead of `forbid`: the worker pool needs exactly one audited
// unsafe block (a scoped-task lifetime erasure, documented at the site);
// every other module remains unsafe-free and cannot opt out silently.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod dense;
pub mod hist;
pub mod pool;
pub mod sparse_vec;
pub mod topk;
pub mod worker_pool;

pub use hist::LatencyHistogram;
pub use pool::ScratchPool;
pub use sparse_vec::SparseVector;
pub use topk::{top_k_of_dense, top_k_of_pairs, DescendingTopK, TopKSelection};
pub use worker_pool::{PoolScope, WorkerPool};
