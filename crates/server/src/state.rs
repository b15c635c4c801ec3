//! The shared, lock-guarded engine every worker dispatches against.
//!
//! Concurrency model (mirrors the paper's two query modes):
//!
//! * **frozen-mode** queries (`reverse_topk` with `update = false`, `topk`,
//!   `batch`) take the **read lock** and run concurrently — the engine's
//!   frozen paths (`query_batch`, `top_k`, `top_k_early`) only need `&self`;
//! * **update-mode** queries take the **write lock** and serialize, so the
//!   refined bounds commit back into the shared index through the engine's
//!   normal commit phase (`ReverseIndex::commit_states`) exactly as a serial
//!   embedder would observe.
//!
//! Result sets and proximities are identical in both modes (refinement only
//! tightens bounds; it never changes answers), so interleaving update-mode
//! traffic cannot perturb concurrent frozen readers' results.
//!
//! One engine type sits behind the lock: a [`ReverseTopkEngine`] holding
//! every shard of its index (`rtk serve`) or exactly one (`rtk serve
//! --shard-only`, the backend of an `rtk router` tier). The engine itself
//! refuses the request family it cannot answer — whole answers on one
//! shard, the shard-scoped slice on a whole index — with an error naming
//! the owned node range; the shard-independent requests (`topk`, `stats`,
//! `persist`, edge updates, `ping`, `shutdown`) work on both.

use crate::wire::{ApproxParams, WireQueryResult, WireShardResult, WireTopk, WireUpdateResult};
use rtk_api::service::{to_wire, to_wire_shard};
use rtk_api::QueryCall;
use rtk_core::{ReverseTopkEngine, UpdateRecord};
use rtk_graph::NodeId;
use rtk_obs::{log_event, Json, Level};
use rtk_query::QueryOptions;
use std::sync::RwLock;
use std::time::Instant;

/// Shared engine plus the per-request query options the server uses.
pub(crate) struct SharedEngine {
    engine: RwLock<ReverseTopkEngine>,
    /// Thread count for the *inside* of one request (PMPN SpMV + screen).
    /// Servers parallelize across requests, so this defaults to 1.
    query_threads: usize,
    /// When set, `persist` paths must be relative (no `..`) and resolve
    /// inside this directory (see `ServerConfig::persist_dir`).
    persist_dir: Option<std::path::PathBuf>,
    /// When set, every applied edge update is appended (and fsynced) to
    /// this `RTKULOG1` file inside the same write-lock critical section,
    /// so log order is exactly apply order (see `ServerConfig::update_log`).
    update_log: Option<std::path::PathBuf>,
}

impl SharedEngine {
    pub(crate) fn new(
        engine: ReverseTopkEngine,
        query_threads: usize,
        persist_dir: Option<std::path::PathBuf>,
        update_log: Option<std::path::PathBuf>,
    ) -> Self {
        Self {
            engine: RwLock::new(engine),
            query_threads: query_threads.max(1),
            persist_dir,
            update_log,
        }
    }

    /// `(nodes, edges, max_k, shard_lo, shard_hi)` of the served engine;
    /// the shard range is the node range its index holds.
    pub(crate) fn info(&self) -> (u64, u64, u64, u64, u64) {
        let engine = self.engine.read().expect("engine lock");
        let owned = engine.index().owned_range();
        (
            engine.node_count() as u64,
            engine.graph().edge_count() as u64,
            engine.index().max_k() as u64,
            u64::from(owned.start),
            u64::from(owned.end),
        )
    }

    fn options(&self, update: bool, approx: Option<ApproxParams>) -> QueryOptions {
        QueryOptions {
            update_index: update,
            query_threads: self.query_threads,
            approx,
            ..Default::default()
        }
    }

    /// One reverse top-k query; frozen calls share the read lock, update
    /// calls serialize through the write lock. A traced call executes
    /// identically (determinism contract) — the span tree is rebuilt from
    /// the timings the engine records anyway.
    pub(crate) fn reverse_topk(&self, call: &QueryCall) -> Result<WireQueryResult, String> {
        let started = Instant::now();
        let opts = self.options(call.update, call.approx);
        let (q, k) = (NodeId(call.q), call.k as usize);
        let result = if call.update {
            let mut engine = self.engine.write().expect("engine lock");
            engine.query_with(q, k, &opts).map_err(|e| e.to_string())?
        } else {
            let engine = self.engine.read().expect("engine lock");
            let mut results = engine.query_batch(&[(q, k)], &opts).map_err(|e| e.to_string())?;
            results.pop().expect("one result for one query")
        };
        let trace = call.trace.then_some("engine:reverse_topk");
        Ok(to_wire(&result, started.elapsed().as_secs_f64(), trace))
    }

    /// The shard-scoped slice of one reverse top-k query (wire v3), under
    /// the same lock choice. Only an engine holding one shard answers it: a
    /// router fans these out and merges.
    pub(crate) fn shard_reverse_topk(
        &self,
        call: &QueryCall,
        pmpn: Option<&[f64]>,
        want_pmpn: bool,
    ) -> Result<WireShardResult, String> {
        let started = Instant::now();
        let opts = self.options(call.update, call.approx);
        let (q, k) = (NodeId(call.q), call.k as usize);
        let owned = |e: &ReverseTopkEngine| {
            let shard = e.index().owned_shard().expect("query_shard checked ownership");
            (shard, e.index().owned_range())
        };
        let ((result, pmpn_out), owned) = if call.update {
            let mut engine = self.engine.write().expect("engine lock");
            let answer =
                engine.query_shard(q, k, &opts, pmpn, want_pmpn).map_err(|e| e.to_string())?;
            (answer, owned(&engine))
        } else {
            let engine = self.engine.read().expect("engine lock");
            let answer = engine
                .query_shard_frozen(q, k, &opts, pmpn, want_pmpn)
                .map_err(|e| e.to_string())?;
            (answer, owned(&engine))
        };
        Ok(to_wire_shard(&result, started.elapsed().as_secs_f64(), call.trace, owned, pmpn_out))
    }

    /// Forward top-k from `u`; always frozen. Every engine holds the full
    /// graph, so shard-only backends answer it too.
    pub(crate) fn topk(&self, u: u32, k: u32, early: bool) -> Result<WireTopk, String> {
        let engine = self.engine.read().expect("engine lock");
        let top = if early {
            engine.top_k_early(NodeId(u), k as usize)
        } else {
            engine.top_k(NodeId(u), k as usize)
        }
        .map_err(|e| e.to_string())?;
        let (nodes, scores): (Vec<u32>, Vec<f64>) = top.into_iter().map(|(v, p)| (v.0, p)).unzip();
        Ok(WireTopk { node: u, k, nodes, scores })
    }

    /// Per-shard `(nodes, heap bytes)` of the held index shards, sampled
    /// fresh — update-mode refinement grows shard states over time. A
    /// shard-only backend reports its single shard.
    pub(crate) fn shard_info(&self) -> (Vec<u64>, Vec<u64>) {
        let engine = self.engine.read().expect("engine lock");
        let shards = engine.index().shards();
        (
            shards.iter().map(|s| s.len() as u64).collect(),
            shards.iter().map(|s| s.heap_bytes() as u64).collect(),
        )
    }

    /// Flushes the current engine state to `path` on the server's
    /// filesystem, under the **write lock** so the snapshot is quiescent.
    /// An engine holding every shard writes an engine snapshot
    /// (`RTKENGN1`); a shard-only backend writes its shard section
    /// (`RTKSHRD1`). Returns the byte size.
    pub(crate) fn persist(&self, path: &str) -> Result<u64, String> {
        let target = self.resolve_persist_path(path)?;
        let file = std::fs::File::create(&target)
            .map_err(|e| format!("persist: cannot create {target:?}: {e}"))?;
        self.engine
            .write()
            .expect("engine lock")
            .save_owned(std::io::BufWriter::new(file))
            .map_err(|e| format!("persist: snapshot write failed: {e}"))?;
        std::fs::metadata(&target)
            .map(|m| m.len())
            .map_err(|e| format!("persist: cannot stat {target:?}: {e}"))
    }

    /// Applies the `persist_dir` fence: with a fence configured, the
    /// requested path must be relative, must not climb out via `..`, and is
    /// resolved inside the fence directory.
    fn resolve_persist_path(&self, path: &str) -> Result<std::path::PathBuf, String> {
        use std::path::{Component, Path};
        let Some(dir) = &self.persist_dir else {
            return Ok(Path::new(path).to_path_buf());
        };
        let rel = Path::new(path);
        let escapes = rel.is_absolute()
            || rel
                .components()
                .any(|c| matches!(c, Component::ParentDir | Component::Prefix(_)));
        if escapes || rel.file_name().is_none() {
            return Err(format!(
                "persist: {path:?} rejected — this server only writes snapshots to \
                 relative paths (no `..`) under {dir:?}"
            ));
        }
        Ok(dir.join(rel))
    }

    /// Applies one edge update under the **write lock**: the graph
    /// mutates, the touched transition rows rebuild, and the affected
    /// index entries recompute before the lock drops — readers never
    /// observe a half-applied update. With an update log configured, the
    /// record is appended (and fsynced) inside the same critical section,
    /// so `snapshot + replay(log)` reproduces this engine byte for byte.
    /// Every engine holds the full graph; a shard-only backend repairs
    /// just the states it holds.
    pub(crate) fn apply_update(&self, record: UpdateRecord) -> Result<WireUpdateResult, String> {
        let mut engine = self.engine.write().expect("engine lock");
        let effect = engine.replay_updates(&[record]).map_err(|e| e.to_string())?;
        let started = Instant::now();
        self.log_update(&record)?;
        let log_append_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let index_digest = engine.index_digest();
        let digest_ms = started.elapsed().as_secs_f64() * 1e3;
        // Where the write path's time went, stage by stage (debug level:
        // one line per update, free when filtered out).
        log_event(
            Level::Debug,
            "server",
            "edge update applied",
            &[
                ("hubs_ms", Json::F64(effect.hubs_seconds * 1e3)),
                ("states_ms", Json::F64(effect.states_seconds * 1e3)),
                ("digest_ms", Json::F64(digest_ms)),
                ("log_append_ms", Json::F64(log_append_ms)),
                ("recomputed_states", Json::U64(effect.recomputed_states as u64)),
                ("bca_runs", Json::U64(effect.bca_runs as u64)),
                ("recomputed_hubs", Json::U64(effect.recomputed_hubs as u64)),
            ],
        );
        Ok(WireUpdateResult {
            recomputed_states: effect.recomputed_states as u64,
            recomputed_hubs: effect.recomputed_hubs as u64,
            index_digest,
        })
    }

    fn log_update(&self, record: &UpdateRecord) -> Result<(), String> {
        let Some(path) = &self.update_log else { return Ok(()) };
        rtk_core::index::storage::append_update_log(path, record)
            .map_err(|e| format!("update applied but logging to {path:?} failed: {e}"))
    }

    /// Stable FNV-1a digest of the index as currently held — the
    /// replica-convergence check `stats` reports. Under the read lock it
    /// hashes the records whose cached hash a commit dropped since the last
    /// call and folds 8 bytes per record; it runs per `stats` call, not per
    /// query.
    pub(crate) fn index_digest(&self) -> u64 {
        self.engine.read().expect("engine lock").index_digest()
    }

    /// Live edge count — dynamic updates move it after startup.
    pub(crate) fn edge_count(&self) -> u64 {
        self.engine.read().expect("engine lock").graph().edge_count() as u64
    }

    /// Many independent frozen queries in one read-lock hold.
    pub(crate) fn batch(&self, queries: &[(u32, u32)]) -> Result<Vec<WireQueryResult>, String> {
        let engine = self.engine.read().expect("engine lock");
        let opts = self.options(false, None);
        let raw: Vec<(NodeId, usize)> =
            queries.iter().map(|&(q, k)| (NodeId(q), k as usize)).collect();
        let results = engine.query_batch(&raw, &opts).map_err(|e| e.to_string())?;
        // Each result already carries its own wall time, so the per-query
        // `server_seconds` stays accurate inside a batch too.
        Ok(results.iter().map(|r| to_wire(r, r.stats().total_seconds, None)).collect())
    }
}
