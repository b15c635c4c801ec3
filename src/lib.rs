//! # reverse-topk-rwr
//!
//! A production-quality reproduction of *"Reverse Top-k Search using Random
//! Walk with Restart"* (Yu, Mamoulis, Su — PVLDB 7(5), VLDB 2014).
//!
//! Given a directed graph and a query node `q`, a **reverse top-k query**
//! returns every node `u` that has `q` among its `k` highest random-walk-
//! with-restart (RWR) proximities. This workspace implements the paper's
//! full framework:
//!
//! * an offline, resumable **lower-bound index** built by a batched Bookmark
//!   Coloring Algorithm with degree-selected hubs (paper §4.1);
//! * **PMPN**, the power method computing exact proximities *to* a node
//!   (paper §4.2.1, Theorem 2);
//! * the **online query algorithm** with staircase upper bounds, candidate
//!   refinement and dynamic index updates (paper §4.2.2–4.2.3);
//! * exact baselines (IBF / FBF), a bounded-error approximate screen built
//!   on backward push and restart-terminated walks, and deterministic
//!   synthetic dataset generators mirroring the paper's evaluation graphs.
//!
//! This facade crate re-exports the whole public API; see the `examples/`
//! directory for end-to-end walkthroughs and `crates/bench` for the
//! experiment harness regenerating every table and figure of the paper.
//!
//! # Performance & parallelism
//!
//! The online query runs as a three-stage pipeline — **PMPN → screen →
//! commit** — designed so every stage can use all cores while answers stay
//! **bitwise identical** for any thread count:
//!
//! * **PMPN** spreads each `Aᵀ·x` (and the forward solvers each `A·x`)
//!   over edge-balanced contiguous row ranges; every row still sums in its
//!   serial edge order, so the iterates are exactly the serial ones.
//! * The **screen phase** is two passes, each a `WorkerPool::claim` loop.
//!   *Classify* scans degree-balanced chunks of the node range the index
//!   holds and decides every node its stored bounds can decide; *refine*
//!   takes the open candidates, loosest bounds first. Each refine lane owns
//!   a private BCA engine + materializer (recycled across queries through
//!   a scratch pool) and refines each candidate *inside that scratch* — the
//!   shared index is only read. Both passes decide with one bound test.
//!   Per-node decisions never depend on another node's refinement, and
//!   results merge by node id, so any interleaving yields the same results
//!   and statistics.
//! * The **commit phase** (update mode) serially writes the refined states
//!   back into the index's one block of states by node id, leaving exactly
//!   the index a serial in-place run would have produced.
//!
//! Three thread-count knobs, all accepting `0` = "all cores":
//!
//! * [`IndexConfig::threads`](prelude::IndexConfig) — offline index
//!   construction (per-node BCA sweep + hub solves);
//! * [`QueryOptions::query_threads`](prelude::QueryOptions) (builder:
//!   `EngineBuilder::query_threads`) — the single-query hot path: PMPN SpMV
//!   plus the screen phase. Defaults to all cores;
//! * the same `query_threads` sets the fan-out width of
//!   `ReverseTopkEngine::query_batch` /
//!   `QueryEngine::query_batch`, which runs *independent* queries
//!   concurrently (frozen index, one serial query per worker) for
//!   throughput-bound serving.
//!
//! `ReverseTopkEngine` additionally caches the `O(|E|)` transition
//! probability arrays once and wraps them in an `O(1)` view per call, so no
//! query, top-k, or proximity call ever recomputes them. The
//! `parallel_determinism` integration suite pins the equivalence contract;
//! the repo benchmark (`BENCHMARK.json`) measures latency and throughput.
//!
//! # Sharding
//!
//! A `ShardMap` cuts the node range into `S` contiguous **shards**
//! (builder: `EngineBuilder::shards`, CLI: `rtk index build --shards S`,
//! both applied to the built index with `ReverseIndex::repartition`). The
//! cut is a layout of the snapshot and of processes, not of memory: an
//! index keeps the states of the range it holds as one block in id order,
//! whatever `S` is. The paper's screen phase evaluates every node
//! independently, so the partition is answer-invariant by construction —
//! `tests/parallel_determinism.rs` pins results, statistics, and the
//! post-query index bitwise-equal to the unsharded engine for shard
//! counts {1, 2, 4, 8}, both bound modes, frozen and update.
//!
//! What sharding changes:
//!
//! * **Scan scope** — a one-shard index screens only its own node range,
//!   the structural door to multi-process serving where each shard lives
//!   in its own process;
//! * **Persistence** — every file is one versioned snapshot, the **shard
//!   manifest** (`RTKMANI1`): the graph, the shared hub matrix and one
//!   self-contained section per shard (`RTKSHRD1`) — all of them for a
//!   whole engine, its own for a one-shard backend; `S = 1` is the same
//!   layout with one section;
//! * **Operations** — `rtk shard split|info` re-partitions a saved index
//!   offline (states preserved bitwise), `rtk index info` and the
//!   server's `stats` report per-shard node counts and sizes.
//!
//! # Serving
//!
//! The `rtk-server` crate (not re-exported here — depend on it directly)
//! turns an engine into a long-running TCP service, std-only, so many
//! remote clients share one index across sessions:
//!
//! | frame field | size | meaning                                   |
//! |-------------|------|-------------------------------------------|
//! | magic       | 8 B  | `"RTKWIRE1"`                              |
//! | version     | 4 B  | `u32`, currently 4                        |
//! | request id  | 8 B  | `u64`, echoed on the response             |
//! | length      | 4 B  | `u32` payload bytes, capped per config    |
//! | payload     | *n*  | tagged request / status-prefixed response |
//!
//! The request id makes the protocol **pipelined** (wire v4): one
//! connection can carry many requests at once, the server dispatches
//! frames — not connections — to its worker pool, and responses return
//! in completion order, re-associated by id (`Client::submit`/`wait`/
//! `batch`). Requests: `ping`, `reverse_topk`, `topk(u, k, early)`,
//! `stats`, `shutdown`, `persist(path)`, and the shard-scoped
//! `shard_reverse_topk` that multi-process serving is built on — one
//! trait, `rtk_api::RtkService`, covers the whole surface for local
//! engines, remote clients, and the router alike, and its two query
//! methods take one `rtk_api::QueryCall` value whose fields (`q`, `k`,
//! `update`, `trace`, `approx`) are every per-query feature there is.
//! Proximities travel as exact IEEE-754 bits, so remote answers are
//! **bitwise identical** to local engine calls (pinned by
//! `tests/server_loopback.rs`). `docs/FORMATS.md` is the normative
//! byte-level spec; optional `--auth-token` gates every request with a
//! shared secret (constant-time compare, `auth_failures` metric).
//!
//! Concurrency: the engine sits behind one `RwLock` — frozen-mode queries
//! share the read lock and run concurrently across the worker pool, while
//! update-mode queries serialize through the write lock so refinements
//! commit via `ReverseIndex::commit_states` exactly as in a serial run.
//! `persist(path)` flushes the refined engine snapshot to disk under the
//! read lock — every mutation holds the write lock, so the image is
//! quiescent — making update mode durable on demand. Corrupt or
//! oversized frames are counted, answered with an error when possible, and
//! never take the server down; with `--max-connections` set, connections
//! beyond the cap get a clean `busy` error frame and are counted in
//! `rejected_connections`, and with `--max-inflight` set, requests beyond
//! the per-connection pipeline depth are answered `busy` too
//! (`inflight_rejections`; `inflight_peak` reports the high-water mark).
//!
//! Knobs (`rtk serve` flags in parentheses): worker threads (`--workers`,
//! `0` = all cores), per-frame byte cap (`--max-frame-mib`), connection cap
//! (`--max-connections`, default 1024, `0` = unlimited), and per-request SpMV/screen
//! threads (`--query-threads`, default 1 — a server's parallelism budget
//! goes to concurrent requests). `rtk remote
//! query|topk|batch|persist|stats|ping|shutdown` is the matching client.
//!
//! # Multi-process serving
//!
//! Each shard can live in its own process. There is one engine type: a
//! [`ReverseTopkEngine`] always holds the full graph, and its index holds
//! the node states of every shard or of exactly one. `rtk serve
//! --shard-only --shard i` loads the full graph plus **one** `RTKSHRD1`
//! section of the snapshot (`rtk_index::storage::load_one_shard`) and
//! answers the shard-scoped slice of each query — whole answers on a
//! one-shard engine, and shard-scoped calls on a whole one, are errors
//! naming the owned node range, never partial answers; `rtk router
//! --backends …`
//! owns the shard map, fans each query out **concurrently** (all
//! backends in flight at once over pipelined connections, merged in
//! deterministic shard order), and merges the partial answers — bitwise equal to a single-process server, so the
//! determinism contract now reads **{threads, shards, processes} may
//! only change wall time, never answers** (pinned by
//! `tests/router_equivalence.rs`). The router retries and marks
//! unreachable backends `degraded` in `stats` instead of serving partial
//! answers. See `docs/ARCHITECTURE.md` for the tier diagram; the repo
//! benchmark's `routed_closed` workload (`BENCHMARK.json`) measures the
//! tier against the same stream run in-process.
//!
//! ```
//! use reverse_topk_rwr::prelude::*;
//!
//! // The 6-node toy graph from Figure 1 of the paper.
//! let graph = toy_graph();
//! let mut engine = ReverseTopkEngine::builder(graph)
//!     .max_k(3)
//!     .hubs_per_direction(1)
//!     .build()
//!     .expect("toy engine");
//!
//! // Nodes 1, 2 and 5 (1-based; 0, 1, 4 here) rank node 1 in their top-2.
//! let result = engine.query(NodeId(0), 2).expect("query");
//! assert_eq!(result.nodes(), &[0, 1, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtk_core::*;
pub use rtk_datasets as datasets;

/// Convenience prelude: the facade types plus the toy-graph fixture.
pub mod prelude {
    pub use rtk_core::prelude::*;
    pub use rtk_datasets::toy_graph;
}
