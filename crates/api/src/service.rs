//! [`RtkService`] — one trait for the full reverse top-k request surface.
//!
//! Every way of answering reverse top-k traffic implements this trait:
//!
//! * [`rtk_core::ReverseTopkEngine`] — the in-process engine (implemented
//!   here), holding every shard of its index or exactly one; the requests
//!   of the family it cannot answer (whole answers on one shard,
//!   shard-scoped slices on a whole index) are clean
//!   [`ServiceError::Unsupported`] errors;
//! * `&ReverseTopkEngine` — the engine's read-only view (implemented
//!   here): every request except the writes [`Request::writes`] names,
//!   which it refuses as [`ServiceError::Unsupported`]. The owned engine
//!   answers the writes itself and forwards everything else to this view;
//! * `rtk_server::Client` — a remote server or router over the wire;
//! * the router's backend aggregate inside `rtk-server`.
//!
//! A server answers through the two engine impls too — `&mut` under its
//! write lock, the view under its read lock — so a served answer is the
//! in-process answer of the same engine, options included. Callers
//! written against `&mut impl RtkService` (the CLI's `rtk remote`
//! commands, embedders, tests) cannot tell the flavors apart — the same
//! code drives a local engine or a sharded multi-process tier. Servers use
//! [`dispatch_request`] to map a decoded wire [`Request`] onto the trait,
//! so the request enum is matched in exactly one place outside the codec.
//!
//! The trait has two query methods — `reverse_topk` and the shard-scoped
//! `shard_reverse_topk` — and both take a [`QueryCall`]: update mode,
//! tracing and the approximate screen are fields of that value, so a new
//! per-query feature is a new field, not a new method on every implementor.

use crate::model::{
    EngineInfo, QueryCall, Request, RequestKind, Response, StatsSnapshot, WireApproxStats,
    WireQueryResult, WireShardResult, WireTopk, WireUpdateResult, STATUS_ENGINE_ERROR,
};
use rtk_core::graph::NodeId;
use rtk_core::query::{QueryOptions, QueryResult};
use rtk_core::{EngineError, ReverseTopkEngine};
use rtk_obs::{log_event, Json, Level, TraceSpan};
use std::ops::Range;
use std::time::Instant;

/// What a service call can fail with.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// The engine rejected or failed the request (bad node id, `k` out of
    /// range, I/O failure while persisting, …).
    Engine(String),
    /// This service flavor cannot answer this request (e.g. a full
    /// `reverse_topk` against a shard-only backend).
    Unsupported(String),
    /// The transport to a remote service failed (connection refused,
    /// timeout, protocol violation).
    Transport(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Engine(m) => write!(f, "{m}"),
            ServiceError::Unsupported(m) => write!(f, "{m}"),
            ServiceError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Result alias for [`RtkService`] calls.
pub type ServiceResult<T> = Result<T, ServiceError>;

/// The full reverse top-k request surface, independent of where the index
/// lives (in-process, one shard, behind a socket, or behind a router).
pub trait RtkService {
    /// Liveness probe. Local services are trivially alive; remote
    /// implementations round-trip a `ping` frame.
    fn ping(&mut self) -> ServiceResult<()> {
        Ok(())
    }

    /// One reverse top-k query. Every per-query feature — update mode,
    /// tracing, the approximate screen — is a field of `call`; a service
    /// honours every field or fails the call, never silently ignores one.
    fn reverse_topk(&mut self, call: &QueryCall) -> ServiceResult<WireQueryResult>;

    /// The shard-scoped slice of one reverse top-k query. `pmpn` supplies a
    /// precomputed PMPN vector to screen against; `want_pmpn` makes the call
    /// solve-only — the answer is the PMPN vector with an empty partial
    /// answer, which a router ships to every shard's screen. A solve-only
    /// call with `update`, an active `approx` or a `pmpn` is refused. Only
    /// engines holding exactly one shard answer it; everything else reports
    /// `Unsupported`.
    fn shard_reverse_topk(
        &mut self,
        _call: &QueryCall,
        _pmpn: Option<&[f64]>,
        _want_pmpn: bool,
    ) -> ServiceResult<WireShardResult> {
        Err(ServiceError::Unsupported(
            "shard_reverse_topk requires a shard backend; send reverse_topk instead".to_string(),
        ))
    }

    /// Inserts the edge `from -> to` with `weight` (accumulating onto an
    /// existing edge) and incrementally repairs the index (wire v7). The
    /// post-update index is bitwise-equal to a from-scratch rebuild of the
    /// updated graph, so every service flavor answers identically afterward.
    fn add_edge(&mut self, from: u32, to: u32, weight: f64) -> ServiceResult<WireUpdateResult>;

    /// Removes the edge `from -> to` and incrementally repairs the index
    /// (wire v7). Fails loudly if the edge does not exist or removal would
    /// leave `from` dangling.
    fn remove_edge(&mut self, from: u32, to: u32) -> ServiceResult<WireUpdateResult>;

    /// Forward top-k proximity search from `u`.
    fn topk(&mut self, u: u32, k: u32, early: bool) -> ServiceResult<WireTopk>;

    /// Service metrics + engine info. In-process services report engine
    /// facts with zeroed traffic counters ([`StatsSnapshot::local`]).
    fn stats(&mut self) -> ServiceResult<StatsSnapshot>;

    /// Flush the current (refined) state to `path` on the service's
    /// filesystem; returns the byte size written.
    fn persist(&mut self, path: &str) -> ServiceResult<u64>;

    /// Ask the service to shut down. A no-op for in-process services.
    fn shutdown(&mut self) -> ServiceResult<()>;
}

impl ServiceError {
    /// The wire status code this error maps to.
    pub fn status(&self) -> u32 {
        STATUS_ENGINE_ERROR
    }
}

/// Maps one decoded wire [`Request`] onto the matching [`RtkService`]
/// method and wraps the outcome as a [`Response`]. This is the single
/// request-enum dispatch point shared by every server flavor.
pub fn dispatch_request<S: RtkService + ?Sized>(
    svc: &mut S,
    request: Request,
) -> (RequestKind, Response) {
    let kind = request.kind();
    let result = match request {
        Request::Ping => svc.ping().map(|()| Response::Pong),
        Request::ReverseTopk { q, k, update, trace, approx } => svc
            .reverse_topk(&QueryCall { q, k, update, trace, approx })
            .map(Response::ReverseTopk),
        Request::ShardReverseTopk { q, k, update, trace, approx, pmpn, want_pmpn } => svc
            .shard_reverse_topk(
                &QueryCall { q, k, update, trace, approx },
                pmpn.as_deref(),
                want_pmpn,
            )
            .map(Response::ShardReverseTopk),
        Request::AddEdge { from, to, weight } => {
            svc.add_edge(from, to, weight).map(Response::Updated)
        }
        Request::RemoveEdge { from, to } => svc.remove_edge(from, to).map(Response::Updated),
        Request::Topk { u, k, early } => svc.topk(u, k, early).map(Response::Topk),
        Request::Stats => svc.stats().map(|s| Response::Stats(Box::new(s))),
        Request::Shutdown => svc.shutdown().map(|()| Response::ShuttingDown),
        Request::Persist { path } => svc.persist(&path).map(|bytes| Response::Persisted { bytes }),
    };
    let response =
        result.unwrap_or_else(|e| Response::Error { code: e.status(), message: e.to_string() });
    (kind, response)
}

/// Converts an engine-layer [`QueryResult`] into its wire shape. The
/// approx counter block rides along automatically whenever the query ran
/// through the approximate screen. `trace` names the root of the span tree
/// to attach (a call that asked for one); the tree is rebuilt from the
/// timings the engine records for every query anyway, so tracing adds no
/// timing syscalls and cannot change the answer.
pub fn to_wire(r: &QueryResult, server_seconds: f64, trace: Option<&str>) -> WireQueryResult {
    let s = r.stats();
    WireQueryResult {
        query: r.query(),
        k: r.k() as u32,
        nodes: r.nodes().to_vec(),
        proximities: r.proximities().to_vec(),
        candidates: s.candidates as u64,
        hits: s.hits as u64,
        refined_nodes: s.refined_nodes as u64,
        refine_iterations: s.refine_iterations,
        server_seconds,
        trace: trace.map(|name| s.to_trace(name)),
        approx: s.approx_active.then_some(WireApproxStats {
            estimated: s.approx_estimated,
            exact_refined: s.approx_exact_refined,
            walks: s.approx_walks,
        }),
    }
}

/// [`to_wire`] for the shard-scoped slice `owned_shard` answered over its
/// node range `owned`; a traced slice is annotated with its shard id so a
/// router can stitch it into the full query trace.
pub fn to_wire_shard(
    r: &QueryResult,
    server_seconds: f64,
    trace: bool,
    (owned_shard, owned): (usize, Range<u32>),
) -> WireShardResult {
    let shard_id = owned_shard as u32;
    let mut result = to_wire(r, server_seconds, trace.then_some("engine:shard_reverse_topk"));
    result.trace = result.trace.map(|t| t.annotate("shard", shard_id.to_string()));
    WireShardResult { shard_id, node_lo: owned.start, node_hi: owned.end, result, pmpn: None }
}

/// The engine's default options with `call`'s fields applied.
fn call_options(engine: &ReverseTopkEngine, call: &QueryCall) -> QueryOptions {
    QueryOptions { update_index: call.update, approx: call.approx, ..*engine.options() }
}

fn engine_err(e: EngineError) -> ServiceError {
    match e {
        EngineError::Ownership(m) => ServiceError::Unsupported(m),
        other => ServiceError::Engine(other.to_string()),
    }
}

/// The wire answer of a whole-index query, stamped with its own wall time.
fn query_wire(result: &QueryResult, call: &QueryCall) -> WireQueryResult {
    let trace = call.trace.then_some("engine:reverse_topk");
    to_wire(result, result.stats().total_seconds, trace)
}

/// The wire answer of the one-shard `engine`'s slice.
fn shard_wire(
    engine: &ReverseTopkEngine,
    result: QueryResult,
    call: &QueryCall,
) -> WireShardResult {
    let shard = engine.index().owned_shard().expect("the shard query checked ownership");
    let owned = (shard, engine.index().owned_range());
    to_wire_shard(&result, result.stats().total_seconds, call.trace, owned)
}

/// A `want_pmpn` call: the one-shard `engine`'s PMPN solve alone — the
/// vector, an empty partial answer, and (traced) one `pmpn_solve` phase.
fn solve_only(
    engine: &ReverseTopkEngine,
    call: &QueryCall,
    pmpn: Option<&[f64]>,
) -> ServiceResult<WireShardResult> {
    if call.update || call.approx.is_some_and(|a| a.is_active()) || pmpn.is_some() {
        return Err(ServiceError::Unsupported(
            "want_pmpn is solve-only: it takes no update, active approx or shipped pmpn"
                .to_string(),
        ));
    }
    let started = Instant::now();
    let (vector, report) = engine.solve_shard(NodeId(call.q)).map_err(engine_err)?;
    let seconds = started.elapsed().as_secs_f64();
    let shard = engine.index().owned_shard().expect("the solve checked ownership");
    let owned = engine.index().owned_range();
    let trace = call.trace.then(|| {
        let solve = TraceSpan::new("pmpn_solve", seconds)
            .annotate("iterations", report.iterations.to_string());
        let mut root = TraceSpan::new("engine:shard_reverse_topk", seconds)
            .annotate("shard", shard.to_string());
        root.children.push(solve);
        root
    });
    let result = WireQueryResult {
        query: call.q,
        k: call.k,
        nodes: Vec::new(),
        proximities: Vec::new(),
        candidates: 0,
        hits: 0,
        refined_nodes: 0,
        refine_iterations: 0,
        server_seconds: seconds,
        trace,
        approx: None,
    };
    let (node_lo, node_hi) = (owned.start, owned.end);
    Ok(WireShardResult { shard_id: shard as u32, node_lo, node_hi, result, pmpn: Some(vector) })
}

/// Folds the post-update digest into the wire answer and logs where the
/// write path's time went (debug level: one line per update, free when
/// filtered out).
fn updated(engine: &ReverseTopkEngine, effect: rtk_core::UpdateEffect) -> WireUpdateResult {
    let started = Instant::now();
    let index_digest = engine.index_digest();
    log_event(
        Level::Debug,
        "engine",
        "edge update applied",
        &[
            ("hubs_ms", Json::F64(effect.hubs_seconds * 1e3)),
            ("states_ms", Json::F64(effect.states_seconds * 1e3)),
            ("bca_ms", Json::F64(effect.bca_seconds * 1e3)),
            ("hash_ms", Json::F64(effect.hash_seconds * 1e3)),
            ("digest_ms", Json::F64(started.elapsed().as_secs_f64() * 1e3)),
            ("recomputed_states", Json::U64(effect.recomputed_states as u64)),
            ("bca_runs", Json::U64(effect.bca_runs as u64)),
            ("recomputed_hubs", Json::U64(effect.recomputed_hubs as u64)),
        ],
    );
    WireUpdateResult {
        recomputed_states: effect.recomputed_states as u64,
        recomputed_hubs: effect.recomputed_hubs as u64,
        index_digest,
    }
}

/// The `&` view's refusal of a request that needs `&mut`.
fn read_only(what: &str) -> ServiceError {
    ServiceError::Unsupported(format!("{what} mutates the engine; it needs `&mut` access"))
}

/// The owned engine: answers the writes ([`Request::writes`]) — update-mode
/// queries commit refinements, edge updates repair the index — and
/// forwards every other request to the read-only view, so each request has
/// exactly one answering path.
impl RtkService for ReverseTopkEngine {
    fn reverse_topk(&mut self, call: &QueryCall) -> ServiceResult<WireQueryResult> {
        if !call.update {
            return (&*self).reverse_topk(call);
        }
        let opts = call_options(self, call);
        let result = self.query_with(NodeId(call.q), call.k as usize, &opts).map_err(engine_err)?;
        Ok(query_wire(&result, call))
    }

    fn shard_reverse_topk(
        &mut self,
        call: &QueryCall,
        pmpn: Option<&[f64]>,
        want_pmpn: bool,
    ) -> ServiceResult<WireShardResult> {
        if !call.update || want_pmpn {
            return (&*self).shard_reverse_topk(call, pmpn, want_pmpn);
        }
        let opts = call_options(self, call);
        let answer = self
            .query_shard(NodeId(call.q), call.k as usize, &opts, pmpn)
            .map_err(engine_err)?;
        Ok(shard_wire(self, answer, call))
    }

    fn add_edge(&mut self, from: u32, to: u32, weight: f64) -> ServiceResult<WireUpdateResult> {
        let effect = ReverseTopkEngine::add_edge(self, NodeId(from), NodeId(to), weight)
            .map_err(engine_err)?;
        Ok(updated(self, effect))
    }

    fn remove_edge(&mut self, from: u32, to: u32) -> ServiceResult<WireUpdateResult> {
        let effect =
            ReverseTopkEngine::remove_edge(self, NodeId(from), NodeId(to)).map_err(engine_err)?;
        Ok(updated(self, effect))
    }

    fn topk(&mut self, u: u32, k: u32, early: bool) -> ServiceResult<WireTopk> {
        (&*self).topk(u, k, early)
    }

    fn stats(&mut self) -> ServiceResult<StatsSnapshot> {
        (&*self).stats()
    }

    fn persist(&mut self, path: &str) -> ServiceResult<u64> {
        (&*self).persist(path)
    }

    fn shutdown(&mut self) -> ServiceResult<()> {
        (&*self).shutdown()
    }
}

/// The read-only view: frozen queries, forward top-k, stats, persist,
/// ping and shutdown. Update-mode queries and edge updates are
/// refused as [`ServiceError::Unsupported`]; they go through the owned
/// engine.
impl RtkService for &ReverseTopkEngine {
    fn reverse_topk(&mut self, call: &QueryCall) -> ServiceResult<WireQueryResult> {
        if call.update {
            return Err(read_only("an update-mode reverse_topk"));
        }
        let opts = call_options(self, call);
        let mut results = self
            .query_batch(&[(NodeId(call.q), call.k as usize)], &opts)
            .map_err(engine_err)?;
        Ok(query_wire(&results.pop().expect("one result for one query"), call))
    }

    fn shard_reverse_topk(
        &mut self,
        call: &QueryCall,
        pmpn: Option<&[f64]>,
        want_pmpn: bool,
    ) -> ServiceResult<WireShardResult> {
        if want_pmpn {
            return solve_only(self, call, pmpn);
        }
        if call.update {
            return Err(read_only("an update-mode shard_reverse_topk"));
        }
        let opts = call_options(self, call);
        let answer = self
            .query_shard_frozen(NodeId(call.q), call.k as usize, &opts, pmpn)
            .map_err(engine_err)?;
        Ok(shard_wire(self, answer, call))
    }

    fn add_edge(&mut self, _: u32, _: u32, _: f64) -> ServiceResult<WireUpdateResult> {
        Err(read_only("add_edge"))
    }

    fn remove_edge(&mut self, _: u32, _: u32) -> ServiceResult<WireUpdateResult> {
        Err(read_only("remove_edge"))
    }

    fn topk(&mut self, u: u32, k: u32, early: bool) -> ServiceResult<WireTopk> {
        let top = if early {
            self.top_k_early(NodeId(u), k as usize)
        } else {
            self.top_k(NodeId(u), k as usize)
        }
        .map_err(engine_err)?;
        let (nodes, scores) = top.into_iter().map(|(v, p)| (v.0, p)).unzip();
        Ok(WireTopk { node: u, k, nodes, scores })
    }

    fn stats(&mut self) -> ServiceResult<StatsSnapshot> {
        let owned = self.index().owned_range();
        let info = EngineInfo {
            nodes: self.node_count() as u64,
            edges: self.graph().edge_count() as u64,
            max_k: self.index().max_k() as u64,
            workers: 0,
            shard_lo: u64::from(owned.start),
            shard_hi: u64::from(owned.end),
            index_digest: self.index_digest(),
        };
        let (nodes, bytes) = (self.index().held_shards())
            .map(|(_, range, bytes)| (range.len() as u64, bytes as u64))
            .unzip();
        Ok(StatsSnapshot::local(info, nodes, bytes))
    }

    fn persist(&mut self, path: &str) -> ServiceResult<u64> {
        let file = std::fs::File::create(path)
            .map_err(|e| ServiceError::Engine(format!("persist: cannot create {path:?}: {e}")))?;
        self.save(std::io::BufWriter::new(file)).map_err(engine_err)?;
        std::fs::metadata(path)
            .map(|m| m.len())
            .map_err(|e| ServiceError::Engine(format!("persist: cannot stat {path:?}: {e}")))
    }

    fn shutdown(&mut self) -> ServiceResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_engine(shards: usize) -> ReverseTopkEngine {
        ReverseTopkEngine::builder(rtk_datasets::toy_graph())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .shards(shards)
            .build()
            .unwrap()
    }

    fn one_shard_engine(whole: &ReverseTopkEngine, shard: usize) -> ReverseTopkEngine {
        let index = whole.index().one_shard(shard).unwrap();
        ReverseTopkEngine::from_parts(rtk_datasets::toy_graph(), index).unwrap()
    }

    /// Drives any service flavor through the same paper running example —
    /// the point of the trait is that this function cannot tell them apart.
    fn exercise(svc: &mut impl RtkService) {
        svc.ping().unwrap();
        let r = svc.reverse_topk(&QueryCall::new(0, 2, false)).unwrap();
        assert_eq!(r.nodes, vec![0, 1, 4]);
        let t = svc.topk(2, 2, false).unwrap();
        assert_eq!(t.nodes[0], 1);
        let r = svc.reverse_topk(&QueryCall::new(1, 2, false)).unwrap();
        assert_eq!(r.query, 1);
        let s = svc.stats().unwrap();
        assert_eq!(s.nodes, 6);
        svc.shutdown().unwrap();
    }

    #[test]
    fn local_engine_implements_the_full_surface() {
        let mut engine = toy_engine(1);
        exercise(&mut engine);
        // The read-only view answers the same surface and refuses the writes.
        let mut view = &engine;
        exercise(&mut view);
        for refused in [
            view.reverse_topk(&QueryCall::new(0, 2, true)).map(drop),
            view.add_edge(0, 2, 1.0).map(drop),
            view.remove_edge(0, 1).map(drop),
        ] {
            assert!(matches!(refused, Err(ServiceError::Unsupported(_))), "{refused:?}");
        }
        // Update mode commits without changing answers.
        let r = engine.reverse_topk(&QueryCall::new(0, 2, true)).unwrap();
        assert_eq!(r.nodes, vec![0, 1, 4]);
        // Dispatching a decoded wire request lands on the same method.
        let (kind, resp) = dispatch_request(
            &mut engine,
            Request::ReverseTopk { q: 0, k: 2, update: false, trace: false, approx: None },
        );
        assert_eq!(kind, RequestKind::ReverseTopk);
        let Response::ReverseTopk(r) = resp else { panic!("wrong response: {resp:?}") };
        assert_eq!(r.nodes, vec![0, 1, 4]);
        assert!(r.trace.is_none());
        // Unknown nodes surface as engine errors, not panics.
        let (_, resp) = dispatch_request(
            &mut engine,
            Request::ReverseTopk { q: 99, k: 2, update: false, trace: false, approx: None },
        );
        assert!(matches!(resp, Response::Error { code: STATUS_ENGINE_ERROR, .. }), "{resp:?}");
    }

    #[test]
    fn traced_queries_attach_phase_spans_without_changing_answers() {
        let mut engine = toy_engine(1);
        let plain = engine.reverse_topk(&QueryCall::new(0, 2, false)).unwrap();
        let (_, resp) = dispatch_request(
            &mut engine,
            Request::ReverseTopk { q: 0, k: 2, update: false, trace: true, approx: None },
        );
        let Response::ReverseTopk(traced) = resp else { panic!("wrong response: {resp:?}") };
        // Bitwise-identical answer, plus a span tree with the two-phase
        // breakdown whose child durations sum to the root.
        assert_eq!(traced.nodes, plain.nodes);
        assert_eq!(traced.proximities, plain.proximities);
        let trace = traced.trace.expect("traced response carries a span tree");
        assert_eq!(trace.name, "engine:reverse_topk");
        let names: Vec<&str> = trace.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["pmpn_solve", "screen", "commit"]);
        let child_sum: f64 = trace.children.iter().map(|c| c.duration_seconds).sum();
        assert!(
            (child_sum - trace.duration_seconds).abs() <= 1e-12 * trace.duration_seconds.max(1.0)
        );

        // A one-shard engine traces too, annotated with its shard id.
        let mut shard = one_shard_engine(&toy_engine(2), 0);
        let call = QueryCall { trace: true, ..QueryCall::new(0, 2, false) };
        let partial = shard.shard_reverse_topk(&call, None, false).unwrap();
        let trace = partial.result.trace.expect("traced shard response carries a span tree");
        assert_eq!(trace.name, "engine:shard_reverse_topk");
        assert!(trace.annotations.iter().any(|(k, v)| k == "shard" && v == "0"));
    }

    #[test]
    fn shard_engine_answers_the_shard_scoped_surface() {
        let mut whole = toy_engine(2);
        let mut shard = one_shard_engine(&whole, 0);

        // Whole-answer requests are clean Unsupported errors naming the
        // owned range — and so is the shard-scoped one on a whole engine.
        assert!(matches!(
            shard.reverse_topk(&QueryCall::new(0, 2, false)),
            Err(ServiceError::Unsupported(m)) if m.contains("--shard-only") && m.contains("0..3")
        ));
        assert!(matches!(
            shard.reverse_topk(&QueryCall::new(1, 2, true)),
            Err(ServiceError::Unsupported(m)) if m.contains("0..3")
        ));
        assert!(matches!(
            whole.shard_reverse_topk(&QueryCall::new(0, 2, false), None, false),
            Err(ServiceError::Unsupported(m)) if m.contains("0..6")
        ));

        // The shard-scoped slice answers (nodes 0..3 of {0, 1, 4} = {0, 1}).
        let partial = shard.shard_reverse_topk(&QueryCall::new(0, 2, false), None, false).unwrap();
        assert_eq!(partial.result.nodes, vec![0, 1]);
        assert_eq!((partial.node_lo, partial.node_hi), (0, 3));

        // Shard-independent requests work like any service.
        shard.ping().unwrap();
        let s = shard.stats().unwrap();
        assert_eq!((s.shard_lo, s.shard_hi), (0, 3));
        assert_eq!(s.shard_count(), 1);
        let t = shard.topk(2, 2, false).unwrap();
        assert_eq!(t.nodes[0], 1);
    }

    #[test]
    fn persist_writes_loadable_snapshots() {
        let dir = std::env::temp_dir().join("rtk_api_service_persist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.rtke");
        let mut engine = toy_engine(1);
        let bytes = engine.persist(path.to_str().unwrap()).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        let mut restored = ReverseTopkEngine::load_path(&path).unwrap();
        assert_eq!(restored.query(NodeId(0), 2).unwrap().nodes(), &[0, 1, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
