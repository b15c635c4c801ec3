//! The request/response model of the reverse top-k serving surface.
//!
//! These types are the *semantic* layer of the `RTKWIRE1` protocol: every
//! request a service can receive, every response it can produce, and the
//! data shapes they carry. The byte-level codec (framing, payload
//! encoding) lives in `rtk-server`'s `wire` module; everything that is not
//! about bytes lives here so local engines, remote clients, and routers
//! can share one vocabulary through [`crate::service::RtkService`].

pub use rtk_core::query::ApproxParams;

use rtk_obs::TraceSpan;
use rtk_sparse::codec::{self, DecodeError};
use std::io::{Read, Write};

/// Cap on a `persist` request's path length in bytes.
pub const MAX_PERSIST_PATH_BYTES: u64 = 4096;

/// Cap on the auth-token field of a request.
pub const MAX_AUTH_TOKEN_BYTES: u64 = 1024;

/// Response status: the request succeeded.
pub const STATUS_OK: u32 = 0;
/// The request could not be parsed or violated framing limits.
pub const STATUS_PROTOCOL_ERROR: u32 = 1;
/// The engine rejected or failed the request.
pub const STATUS_ENGINE_ERROR: u32 = 2;
/// The server is at its connection cap or the connection is at its
/// pipeline-depth cap; retry later (backpressure).
pub const STATUS_BUSY: u32 = 3;
/// The request's auth token did not match the server's `--auth-token`.
pub const STATUS_UNAUTHORIZED: u32 = 4;

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One reverse top-k query. `update` selects the paper's update mode
    /// (refinements commit back into the shared index, serialized through
    /// the write lock); otherwise the query runs frozen and concurrently.
    ReverseTopk {
        /// Query node id.
        q: u32,
        /// Result set size.
        k: u32,
        /// Commit refinements back into the index.
        update: bool,
        /// Ask the service to attach a span tree to the answer (wire v6).
        /// Tracing is observational only: a traced and an untraced run of
        /// the same query return bitwise-identical results.
        trace: bool,
        /// Run the approximate screen with this error budget (wire v8).
        /// `None` (or an inactive ε) answers exactly; an absent knob adds
        /// no bytes to the encoded frame.
        approx: Option<ApproxParams>,
    },
    /// Forward top-k proximity search from `u`.
    Topk {
        /// Source node id.
        u: u32,
        /// Result set size.
        k: u32,
        /// Use the early-terminating BPA-style search.
        early: bool,
    },
    /// Server metrics + engine info.
    Stats,
    /// Graceful shutdown: in-flight requests finish, then the server exits.
    Shutdown,
    /// Flush the current (refined) engine snapshot to `path` on the
    /// *server's* filesystem, so the paper's update mode becomes durable on
    /// demand. A read: every mutation holds the write lock, so the image
    /// is quiescent under the read lock.
    Persist {
        /// Server-side destination path.
        path: String,
    },
    /// The shard-scoped slice of one reverse top-k query: screen only the
    /// receiving backend's shard range. Sent by the router to its
    /// per-shard backends; a backend started with `--shard-only` answers
    /// with [`Response::ShardReverseTopk`]. The partial results of every
    /// shard, concatenated in shard order with counters summed, equal the
    /// single-process answer bitwise.
    ShardReverseTopk {
        /// Query node id (global).
        q: u32,
        /// Result set size.
        k: u32,
        /// Commit refinements into the backend's shard (update mode).
        update: bool,
        /// Attach the shard's span tree to the partial answer (wire v6) so
        /// the router can stitch it into the full query trace.
        trace: bool,
        /// Run the approximate screen with this error budget (wire v8),
        /// forwarded verbatim by the router so every shard classifies
        /// against the identical ε / walk budget / seed.
        approx: Option<ApproxParams>,
        /// A precomputed PMPN vector (`p_u(q)` for every global node u),
        /// shipped by the router so only one backend pays the solve
        /// (wire v8). Every backend solves the identical full-graph
        /// system, so a shipped vector is bitwise-equal to a local solve.
        pmpn: Option<Vec<f64>>,
        /// Solve only (wire v10): the backend answers with its PMPN vector
        /// alone — no screen, an empty partial answer — so the router can
        /// ship it to every shard's screen. Refused together with `update`,
        /// an active `approx` or a shipped `pmpn`.
        want_pmpn: bool,
    },
    /// Insert the edge `from → to` into the served graph, or accumulate
    /// `weight` onto an existing one, with targeted index repair (wire v7).
    /// An update mutates shared state, so the router routes it like
    /// update-mode queries: to every shard, pinned to each shard's stable
    /// replica owner.
    AddEdge {
        /// Edge tail.
        from: u32,
        /// Edge head.
        to: u32,
        /// Weight to add (finite, `> 0`).
        weight: f64,
    },
    /// Remove the edge `from → to` entirely (wire v7). Fails if the edge
    /// does not exist or removing it would leave `from` with no out-edges.
    RemoveEdge {
        /// Edge tail.
        from: u32,
        /// Edge head.
        to: u32,
    },
}

/// Request kinds tracked individually in metrics (indices into the
/// server-side counter array).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// [`Request::Ping`].
    Ping = 0,
    /// [`Request::ReverseTopk`].
    ReverseTopk = 1,
    /// [`Request::Topk`].
    Topk = 2,
    /// [`Request::Stats`].
    Stats = 3,
    /// [`Request::Shutdown`].
    Shutdown = 4,
    /// [`Request::Persist`].
    Persist = 5,
    /// [`Request::ShardReverseTopk`].
    ShardReverseTopk = 6,
    /// [`Request::AddEdge`].
    AddEdge = 7,
    /// [`Request::RemoveEdge`].
    RemoveEdge = 8,
}

/// Number of distinct [`RequestKind`]s.
pub const REQUEST_KINDS: usize = 9;

impl RequestKind {
    /// Every kind, in counter-array index order.
    pub const ALL: [RequestKind; REQUEST_KINDS] = [
        RequestKind::Ping,
        RequestKind::ReverseTopk,
        RequestKind::Topk,
        RequestKind::Stats,
        RequestKind::Shutdown,
        RequestKind::Persist,
        RequestKind::ShardReverseTopk,
        RequestKind::AddEdge,
        RequestKind::RemoveEdge,
    ];

    /// The stable snake_case name used in stats JSON and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Ping => "ping",
            RequestKind::ReverseTopk => "reverse_topk",
            RequestKind::Topk => "topk",
            RequestKind::Stats => "stats",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Persist => "persist",
            RequestKind::ShardReverseTopk => "shard_reverse_topk",
            RequestKind::AddEdge => "add_edge",
            RequestKind::RemoveEdge => "remove_edge",
        }
    }
}

impl Request {
    /// The metrics kind of this request.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::Ping => RequestKind::Ping,
            Request::ReverseTopk { .. } => RequestKind::ReverseTopk,
            Request::Topk { .. } => RequestKind::Topk,
            Request::Stats => RequestKind::Stats,
            Request::Shutdown => RequestKind::Shutdown,
            Request::Persist { .. } => RequestKind::Persist,
            Request::ShardReverseTopk { .. } => RequestKind::ShardReverseTopk,
            Request::AddEdge { .. } => RequestKind::AddEdge,
            Request::RemoveEdge { .. } => RequestKind::RemoveEdge,
        }
    }

    /// Whether answering this request mutates the engine: update-mode
    /// queries commit refinements, edge updates change the graph. Only an
    /// owned engine answers these; its `&` view refuses them, so a server
    /// takes the write lock for exactly these and the read lock otherwise.
    pub fn writes(&self) -> bool {
        matches!(
            self,
            Request::ReverseTopk { update: true, .. }
                | Request::ShardReverseTopk { update: true, .. }
                | Request::AddEdge { .. }
                | Request::RemoveEdge { .. }
        )
    }
}

/// One reverse top-k query as a value: exactly the fields
/// [`Request::ReverseTopk`] carries. Every per-query feature is a field
/// here — never a method of its own on [`crate::RtkService`] — so each
/// layer (client, router, server, engine) has one query entry point and
/// reads the fields it acts on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryCall {
    /// Query node id.
    pub q: u32,
    /// Result set size.
    pub k: u32,
    /// Commit refinements back into the index (the paper's update mode).
    pub update: bool,
    /// Attach a span tree to the answer. Observational only: a traced and
    /// an untraced run return bitwise-identical results.
    pub trace: bool,
    /// Answer through the approximate screen with this error budget: the
    /// node set is correct for every node farther than ε from its top-k
    /// decision boundary, and the reported proximities are the
    /// bidirectional estimates (within ε/2 of the truth). `None` (or an
    /// inactive ε) answers exactly.
    pub approx: Option<ApproxParams>,
}

impl QueryCall {
    /// An untraced, exact query.
    pub fn new(q: u32, k: u32, update: bool) -> Self {
        Self { q, k, update, trace: false, approx: None }
    }
}

/// How the approximate screen classified a query's candidates (wire v8).
/// Attached to an answer only when the query ran with an active
/// [`ApproxParams`]; exact answers carry nothing and cost zero bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireApproxStats {
    /// Candidates decided from the bidirectional estimate (no exact
    /// refinement ran to completion for them).
    pub estimated: u64,
    /// Candidates inside the ε-band that fell back to exact refinement.
    pub exact_refined: u64,
    /// Forward walks simulated by the estimator.
    pub walks: u64,
}

/// One reverse top-k answer with its server-side diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub struct WireQueryResult {
    /// Echo of the query node.
    pub query: u32,
    /// Echo of `k`.
    pub k: u32,
    /// Result nodes in ascending id order.
    pub nodes: Vec<u32>,
    /// `p_u(q)` per result node (bitwise-exact f64s).
    pub proximities: Vec<f64>,
    /// Nodes surviving the lower-bound prune.
    pub candidates: u64,
    /// Candidates confirmed by their first upper-bound check.
    pub hits: u64,
    /// Candidates that needed refinement.
    pub refined_nodes: u64,
    /// Total BCA refinement iterations.
    pub refine_iterations: u64,
    /// Server-side wall time for this query, seconds.
    pub server_seconds: f64,
    /// Span tree for this query, present only when the request asked for
    /// tracing (wire v6). `None` costs zero bytes on the wire.
    pub trace: Option<TraceSpan>,
    /// Approximate-screen counters, present only when the query ran with
    /// an active approx knob (wire v8).
    pub approx: Option<WireApproxStats>,
}

/// One backend's shard-scoped slice of a reverse top-k answer.
#[derive(Clone, Debug, PartialEq)]
pub struct WireShardResult {
    /// The answering shard's position in the shard map.
    pub shard_id: u32,
    /// First global node id the shard screened.
    pub node_lo: u32,
    /// One past the last global node id the shard screened.
    pub node_hi: u32,
    /// The partial answer: result nodes within `[node_lo, node_hi)` and the
    /// shard's own counter statistics.
    pub result: WireQueryResult,
    /// The backend's solved PMPN vector: the whole answer of a `want_pmpn`
    /// (solve-only) request, absent otherwise (wire v8).
    pub pmpn: Option<Vec<f64>>,
}

/// The outcome of one applied edge update (wire v7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireUpdateResult {
    /// Node states the targeted invalidation recomputed (the service's
    /// owned subset: the whole affected set on a full engine, the
    /// shard-owned part on a shard backend, the sum over shards on a
    /// router).
    pub recomputed_states: u64,
    /// Hub columns recomputed.
    pub recomputed_hubs: u64,
    /// Index digest (`docs/FORMATS.md`, "Index digest": FNV-1a 64 over the
    /// persisted stream with each record folded to its own hash) of the
    /// service's post-update index. Replicas that applied the same update
    /// stream must report the same digest — the router's convergence
    /// check. A router reports the digest of the concatenated per-shard
    /// digests, in shard order.
    pub index_digest: u64,
}

/// A forward top-k answer.
#[derive(Clone, Debug, PartialEq)]
pub struct WireTopk {
    /// Echo of the source node.
    pub node: u32,
    /// Echo of `k`.
    pub k: u32,
    /// Result nodes, best first.
    pub nodes: Vec<u32>,
    /// Proximity (or lower bound, in early mode) per result node.
    pub scores: Vec<f64>,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::ReverseTopk`].
    ReverseTopk(WireQueryResult),
    /// Answer to [`Request::Topk`].
    Topk(WireTopk),
    /// Answer to [`Request::Stats`]. Boxed: the per-kind latency tail
    /// makes the snapshot by far the largest response payload.
    Stats(Box<StatsSnapshot>),
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// Answer to [`Request::Persist`]: bytes written to the snapshot.
    Persisted {
        /// Size of the flushed snapshot file in bytes.
        bytes: u64,
    },
    /// Answer to [`Request::ShardReverseTopk`].
    ShardReverseTopk(WireShardResult),
    /// Answer to [`Request::AddEdge`] / [`Request::RemoveEdge`] (wire v7).
    Updated(WireUpdateResult),
    /// The request failed; `code` is one of the `STATUS_*` constants.
    Error {
        /// `STATUS_PROTOCOL_ERROR`, `STATUS_ENGINE_ERROR`, `STATUS_BUSY`,
        /// or `STATUS_UNAUTHORIZED`.
        code: u32,
        /// Human-readable cause.
        message: String,
    },
}

/// Static facts about the served engine, folded into every snapshot.
#[derive(Clone, Copy, Debug)]
pub struct EngineInfo {
    /// Node count of the served graph.
    pub nodes: u64,
    /// Edge count of the served graph.
    pub edges: u64,
    /// Largest `k` the index supports.
    pub max_k: u64,
    /// Worker threads the server runs (`0` for an in-process service).
    pub workers: u32,
    /// First global node id this process screens (`0` unless shard-only).
    pub shard_lo: u64,
    /// One past the last global node id this process screens (the node
    /// count unless shard-only).
    pub shard_hi: u64,
    /// Index digest of the index this service currently holds (wire v7) —
    /// see [`WireUpdateResult::index_digest`].
    pub index_digest: u64,
}

/// Latency summary for one request kind (wire v6). Splitting the global
/// histogram per kind keeps `ping` round-trips from diluting the
/// `reverse_topk` tail the router's hedge-delay quantile is based on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KindLatency {
    /// Observations for this kind.
    pub count: u64,
    /// Mean latency, seconds.
    pub mean_seconds: f64,
    /// Median latency (bucket upper edge), seconds.
    pub p50_seconds: f64,
    /// 95th percentile latency, seconds.
    pub p95_seconds: f64,
    /// 99th percentile latency, seconds.
    pub p99_seconds: f64,
    /// Largest observed latency, seconds.
    pub max_seconds: f64,
}

/// A point-in-time metrics report, encodable over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsSnapshot {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Malformed frames / requests observed.
    pub protocol_errors: u64,
    /// Requests the engine rejected or failed.
    pub engine_errors: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Connections refused at the `max_connections` cap (backpressure).
    pub rejected_connections: u64,
    /// Requests rejected because their auth token did not match.
    pub auth_failures: u64,
    /// Router only: backend replicas currently marked unhealthy (`0` on a
    /// plain server). Unhealthy replicas are probed in the background and
    /// re-admitted on recovery; a shard keeps answering as long as one of
    /// its replicas is healthy.
    pub unhealthy_backends: u64,
    /// Router only: shard calls that fired a second replica because the
    /// first had not answered within the hedge delay (wire v5).
    pub hedged_requests: u64,
    /// Router only: shard calls transparently retried on another replica
    /// after the first replica failed (wire v5).
    pub failovers: u64,
    /// Peak number of requests simultaneously in flight (queued + being
    /// executed) since start — the pipelining high-water mark (wire v4).
    pub inflight_peak: u64,
    /// Requests answered with a `busy` frame because their connection was
    /// at the `max_inflight` pipeline-depth cap (wire v4).
    pub inflight_rejections: u64,
    /// Mean request latency, seconds.
    pub mean_seconds: f64,
    /// Median request latency (bucket upper edge), seconds.
    pub p50_seconds: f64,
    /// 95th percentile request latency, seconds.
    pub p95_seconds: f64,
    /// 99th percentile request latency, seconds.
    pub p99_seconds: f64,
    /// Largest observed request latency, seconds.
    pub max_seconds: f64,
    /// Node count of the served graph.
    pub nodes: u64,
    /// Edge count of the served graph.
    pub edges: u64,
    /// Largest `k` the index supports.
    pub max_k: u64,
    /// Worker threads the server runs.
    pub workers: u32,
    /// First global node id this process screens (`0` unless shard-only).
    pub shard_lo: u64,
    /// One past the last global node id this process screens.
    pub shard_hi: u64,
    /// Index digest of the index currently held (wire v7; see
    /// [`WireUpdateResult::index_digest`]): bitwise replica convergence,
    /// checkable with one `stats` round-trip.
    pub index_digest: u64,
    /// Nodes per index shard (length = shard count).
    pub shard_nodes: Vec<u64>,
    /// Heap bytes per index shard, sampled at snapshot time (refinement
    /// drift included).
    pub shard_bytes: Vec<u64>,
    /// Latency summary per request kind, indexed by [`RequestKind`]
    /// (wire v6). The aggregate fields above merge all kinds. A kind's
    /// `count` is its number of completed requests.
    pub kind_latency: [KindLatency; REQUEST_KINDS],
    /// Reverse top-k queries answered through the approximate screen
    /// (wire v8).
    pub approx_queries: u64,
    /// Candidates decided from bidirectional estimates across all approx
    /// queries (wire v8).
    pub approx_estimated: u64,
    /// Candidates that fell back to exact refinement inside the ε-band
    /// across all approx queries (wire v8).
    pub approx_exact_refined: u64,
    /// Forward walks simulated by approx queries (wire v8).
    pub approx_walks: u64,
}

impl StatsSnapshot {
    /// An all-zero snapshot over `engine` facts — what an in-process
    /// service (no server in front, hence no traffic counters) reports.
    pub fn local(engine: EngineInfo, shard_nodes: Vec<u64>, shard_bytes: Vec<u64>) -> Self {
        Self {
            uptime_seconds: 0.0,
            protocol_errors: 0,
            engine_errors: 0,
            connections: 0,
            rejected_connections: 0,
            auth_failures: 0,
            unhealthy_backends: 0,
            hedged_requests: 0,
            failovers: 0,
            inflight_peak: 0,
            inflight_rejections: 0,
            mean_seconds: 0.0,
            p50_seconds: 0.0,
            p95_seconds: 0.0,
            p99_seconds: 0.0,
            max_seconds: 0.0,
            nodes: engine.nodes,
            edges: engine.edges,
            max_k: engine.max_k,
            workers: engine.workers,
            shard_lo: engine.shard_lo,
            shard_hi: engine.shard_hi,
            index_digest: engine.index_digest,
            shard_nodes,
            shard_bytes,
            kind_latency: [KindLatency::default(); REQUEST_KINDS],
            approx_queries: 0,
            approx_estimated: 0,
            approx_exact_refined: 0,
            approx_walks: 0,
        }
    }

    /// Completed requests of `kind`.
    pub fn requests(&self, kind: RequestKind) -> u64 {
        self.kind_latency[kind as usize].count
    }

    /// Total completed requests across all kinds.
    pub fn total_requests(&self) -> u64 {
        self.kind_latency.iter().map(|l| l.count).sum()
    }

    /// Number of index shards the server reports.
    pub fn shard_count(&self) -> usize {
        self.shard_nodes.len()
    }

    /// Renders the snapshot as one JSON object — the shared serializer
    /// behind `rtk remote stats --json` and the bench harness's machine-
    /// readable reports. Per-kind latency appears under `kind_latency`,
    /// keyed by [`RequestKind::name`].
    pub fn to_json(&self) -> rtk_obs::Json {
        use rtk_obs::Json;
        let field = |k: &str, v: Json| (k.to_string(), v);
        let u64s = |vs: &[u64]| Json::Arr(vs.iter().map(|&v| Json::U64(v)).collect());
        let kinds = RequestKind::ALL
            .iter()
            .map(|&kind| {
                let l = &self.kind_latency[kind as usize];
                (
                    kind.name().to_string(),
                    Json::Obj(vec![
                        field("count", Json::U64(l.count)),
                        field("mean_seconds", Json::F64(l.mean_seconds)),
                        field("p50_seconds", Json::F64(l.p50_seconds)),
                        field("p95_seconds", Json::F64(l.p95_seconds)),
                        field("p99_seconds", Json::F64(l.p99_seconds)),
                        field("max_seconds", Json::F64(l.max_seconds)),
                    ]),
                )
            })
            .collect();
        // One count per kind, then the total, under the keys they have
        // always had.
        let counts = RequestKind::ALL.iter().map(|&k| field(k.name(), Json::U64(self.requests(k))));
        let mut fields = vec![field("uptime_seconds", Json::F64(self.uptime_seconds))];
        fields.extend(counts);
        fields.extend([
            field("total_requests", Json::U64(self.total_requests())),
            field("protocol_errors", Json::U64(self.protocol_errors)),
            field("engine_errors", Json::U64(self.engine_errors)),
            field("connections", Json::U64(self.connections)),
            field("rejected_connections", Json::U64(self.rejected_connections)),
            field("auth_failures", Json::U64(self.auth_failures)),
            field("unhealthy_backends", Json::U64(self.unhealthy_backends)),
            field("hedged_requests", Json::U64(self.hedged_requests)),
            field("failovers", Json::U64(self.failovers)),
            field("inflight_peak", Json::U64(self.inflight_peak)),
            field("inflight_rejections", Json::U64(self.inflight_rejections)),
            field("latency_count", Json::U64(self.total_requests())),
            field("mean_seconds", Json::F64(self.mean_seconds)),
            field("p50_seconds", Json::F64(self.p50_seconds)),
            field("p95_seconds", Json::F64(self.p95_seconds)),
            field("p99_seconds", Json::F64(self.p99_seconds)),
            field("max_seconds", Json::F64(self.max_seconds)),
            field("nodes", Json::U64(self.nodes)),
            field("edges", Json::U64(self.edges)),
            field("max_k", Json::U64(self.max_k)),
            field("workers", Json::U64(u64::from(self.workers))),
            field("shard_lo", Json::U64(self.shard_lo)),
            field("shard_hi", Json::U64(self.shard_hi)),
            field("index_digest", Json::U64(self.index_digest)),
            field("shard_nodes", u64s(&self.shard_nodes)),
            field("shard_bytes", u64s(&self.shard_bytes)),
            field("kind_latency", Json::Obj(kinds)),
            // Wire-v8 approximate-serving counters: appended after every
            // pre-existing key so v7-era consumers indexing by key (or by
            // prefix) keep parsing unchanged.
            field(
                "approx",
                Json::Obj(vec![
                    field("queries", Json::U64(self.approx_queries)),
                    field("estimated", Json::U64(self.approx_estimated)),
                    field("exact_refined", Json::U64(self.approx_exact_refined)),
                    field("walks", Json::U64(self.approx_walks)),
                ]),
            ),
        ]);
        Json::Obj(fields)
    }

    /// Serializes the snapshot (fixed-width fields plus the per-shard size
    /// lists). The byte layout is part of the wire protocol — see
    /// `docs/FORMATS.md`.
    pub fn encode<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        codec::write_f64(w, self.uptime_seconds)?;
        for v in [
            self.protocol_errors,
            self.engine_errors,
            self.connections,
            self.rejected_connections,
            self.auth_failures,
            self.unhealthy_backends,
            self.hedged_requests,
            self.failovers,
            self.inflight_peak,
            self.inflight_rejections,
        ] {
            codec::write_u64(w, v)?;
        }
        for v in [
            self.mean_seconds,
            self.p50_seconds,
            self.p95_seconds,
            self.p99_seconds,
            self.max_seconds,
        ] {
            codec::write_f64(w, v)?;
        }
        codec::write_u64(w, self.nodes)?;
        codec::write_u64(w, self.edges)?;
        codec::write_u64(w, self.max_k)?;
        codec::write_u32(w, self.workers)?;
        codec::write_u64(w, self.shard_lo)?;
        codec::write_u64(w, self.shard_hi)?;
        codec::write_u64(w, self.index_digest)?;
        // Per-shard sizes: one count, then (nodes, bytes) pairs.
        codec::write_u64(w, self.shard_nodes.len() as u64)?;
        for (&n, &b) in self.shard_nodes.iter().zip(&self.shard_bytes) {
            codec::write_u64(w, n)?;
            codec::write_u64(w, b)?;
        }
        // Per-kind latency summaries (wire v6): one count, then a fixed
        // record per kind in [`RequestKind::ALL`] order.
        codec::write_u64(w, REQUEST_KINDS as u64)?;
        for kl in &self.kind_latency {
            codec::write_u64(w, kl.count)?;
            for v in
                [kl.mean_seconds, kl.p50_seconds, kl.p95_seconds, kl.p99_seconds, kl.max_seconds]
            {
                codec::write_f64(w, v)?;
            }
        }
        for v in [
            self.approx_queries,
            self.approx_estimated,
            self.approx_exact_refined,
            self.approx_walks,
        ] {
            codec::write_u64(w, v)?;
        }
        Ok(())
    }

    /// Deserializes a snapshot written by [`Self::encode`]. `max_shards`
    /// bounds the declared shard count (derive it from the payload size:
    /// each shard entry occupies 16 bytes).
    pub fn decode<R: Read>(r: &mut R, max_shards: u64) -> Result<Self, DecodeError> {
        let mut snap = Self {
            uptime_seconds: codec::read_f64(r)?,
            protocol_errors: codec::read_u64(r)?,
            engine_errors: codec::read_u64(r)?,
            connections: codec::read_u64(r)?,
            rejected_connections: codec::read_u64(r)?,
            auth_failures: codec::read_u64(r)?,
            unhealthy_backends: codec::read_u64(r)?,
            hedged_requests: codec::read_u64(r)?,
            failovers: codec::read_u64(r)?,
            inflight_peak: codec::read_u64(r)?,
            inflight_rejections: codec::read_u64(r)?,
            mean_seconds: codec::read_f64(r)?,
            p50_seconds: codec::read_f64(r)?,
            p95_seconds: codec::read_f64(r)?,
            p99_seconds: codec::read_f64(r)?,
            max_seconds: codec::read_f64(r)?,
            nodes: codec::read_u64(r)?,
            edges: codec::read_u64(r)?,
            max_k: codec::read_u64(r)?,
            workers: codec::read_u32(r)?,
            shard_lo: codec::read_u64(r)?,
            shard_hi: codec::read_u64(r)?,
            index_digest: codec::read_u64(r)?,
            shard_nodes: Vec::new(),
            shard_bytes: Vec::new(),
            kind_latency: [KindLatency::default(); REQUEST_KINDS],
            approx_queries: 0,
            approx_estimated: 0,
            approx_exact_refined: 0,
            approx_walks: 0,
        };
        let shards = codec::check_len(codec::read_u64(r)?, max_shards, "shard count")?;
        snap.shard_nodes.reserve(shards.min(1 << 20));
        snap.shard_bytes.reserve(shards.min(1 << 20));
        for _ in 0..shards {
            snap.shard_nodes.push(codec::read_u64(r)?);
            snap.shard_bytes.push(codec::read_u64(r)?);
        }
        let kinds = codec::read_u64(r)?;
        if kinds != REQUEST_KINDS as u64 {
            return Err(DecodeError::Corrupt(format!(
                "stats snapshot declares {kinds} request kinds, expected {REQUEST_KINDS}"
            )));
        }
        for kl in snap.kind_latency.iter_mut() {
            *kl = KindLatency {
                count: codec::read_u64(r)?,
                mean_seconds: codec::read_f64(r)?,
                p50_seconds: codec::read_f64(r)?,
                p95_seconds: codec::read_f64(r)?,
                p99_seconds: codec::read_f64(r)?,
                max_seconds: codec::read_f64(r)?,
            };
        }
        snap.approx_queries = codec::read_u64(r)?;
        snap.approx_estimated = codec::read_u64(r)?;
        snap.approx_exact_refined = codec::read_u64(r)?;
        snap.approx_walks = codec::read_u64(r)?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_kinds_are_stable() {
        assert_eq!(Request::Ping.kind() as usize, 0);
        assert_eq!(Request::Shutdown.kind() as usize, 4);
        let shard = Request::ShardReverseTopk {
            q: 0,
            k: 1,
            update: false,
            trace: false,
            approx: None,
            pmpn: None,
            want_pmpn: false,
        };
        assert_eq!(shard.kind() as usize, 6);
        assert!(!shard.writes() && !Request::Persist { path: String::new() }.writes());
        assert!(Request::RemoveEdge { from: 0, to: 1 }.writes());
        assert_eq!(Request::RemoveEdge { from: 0, to: 1 }.kind() as usize, REQUEST_KINDS - 1);
        assert_eq!(Request::Stats.kind(), RequestKind::Stats);
        for (i, kind) in RequestKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
        assert_eq!(RequestKind::ReverseTopk.name(), "reverse_topk");
    }

    #[test]
    fn local_snapshot_carries_engine_facts_and_zero_counters() {
        let info = EngineInfo {
            nodes: 10,
            edges: 20,
            max_k: 3,
            workers: 0,
            shard_lo: 0,
            shard_hi: 10,
            index_digest: 0xdead_beef,
        };
        let snap = StatsSnapshot::local(info, vec![5, 5], vec![64, 64]);
        assert_eq!(snap.total_requests(), 0);
        assert_eq!(snap.nodes, 10);
        assert_eq!(snap.shard_count(), 2);

        let mut buf = Vec::new();
        snap.encode(&mut buf).unwrap();
        let back = StatsSnapshot::decode(&mut Cursor::new(buf), 4).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn per_kind_latency_round_trips_and_count_is_enforced() {
        let info = EngineInfo {
            nodes: 10,
            edges: 20,
            max_k: 3,
            workers: 2,
            shard_lo: 0,
            shard_hi: 10,
            index_digest: 7,
        };
        let mut snap = StatsSnapshot::local(info, vec![10], vec![128]);
        snap.kind_latency[RequestKind::ReverseTopk as usize] = KindLatency {
            count: 7,
            mean_seconds: 0.002,
            p50_seconds: 0.001,
            p95_seconds: 0.004,
            p99_seconds: 0.005,
            max_seconds: 0.006,
        };
        let mut buf = Vec::new();
        snap.encode(&mut buf).unwrap();
        let back = StatsSnapshot::decode(&mut Cursor::new(buf.clone()), 4).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.kind_latency[1].count, 7);

        // A snapshot claiming the wrong number of kinds is corrupt, not
        // silently misaligned. The 4 approx counters sit after the kind
        // records.
        let approx_bytes = 8 * 4;
        let kinds_at = buf.len() - approx_bytes - 8 * (1 + REQUEST_KINDS * 6);
        buf[kinds_at..kinds_at + 8].copy_from_slice(&(REQUEST_KINDS as u64 + 1).to_le_bytes());
        let err = StatsSnapshot::decode(&mut Cursor::new(buf), 4).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn approx_counters_round_trip_and_are_required() {
        let info = EngineInfo {
            nodes: 10,
            edges: 20,
            max_k: 3,
            workers: 2,
            shard_lo: 0,
            shard_hi: 10,
            index_digest: 7,
        };
        let mut snap = StatsSnapshot::local(info, vec![10], vec![128]);
        snap.approx_queries = 5;
        snap.approx_estimated = 40;
        snap.approx_exact_refined = 3;
        snap.approx_walks = 1280;
        let mut buf = Vec::new();
        snap.encode(&mut buf).unwrap();
        let back = StatsSnapshot::decode(&mut Cursor::new(buf.clone()), 4).unwrap();
        assert_eq!(back, snap);

        // The counters are fixed fields: a snapshot ending before any or
        // all of them is truncated, never read as zeros.
        for missing in [8 * 4, 8] {
            let cut = &buf[..buf.len() - missing];
            let err = StatsSnapshot::decode(&mut Cursor::new(cut), 4).unwrap_err();
            assert!(matches!(err, DecodeError::Io(_)), "{missing} bytes short: {err:?}");
        }

        // JSON exposes the counters as one nested object.
        let json = snap.to_json().render();
        assert!(json.contains("\"approx\""), "{json}");
        assert!(json.contains("\"walks\":1280"), "{json}");
    }
}
