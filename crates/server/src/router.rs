//! The replicated fan-out router: one client-facing process in front of
//! per-shard **replica sets**.
//!
//! A [`Router`] owns the **shard map** of a partitioned index and speaks
//! the same `RTKWIRE1` surface as a single [`crate::Server`] — a client
//! cannot tell the two apart. `--backends` may list **several backends for
//! the same shard range**: the startup handshake groups backends by their
//! announced `shard_lo..shard_hi` into one `ReplicaSet` per shard (the
//! distinct ranges must still tile `0..n` exactly; overlapping-but-not-
//! identical ranges are a startup error, duplicate addresses are
//! deduplicated). Each `reverse_topk` fans out as one shard-scoped
//! `shard_reverse_topk` per *shard* — **concurrently**, over the pipelined
//! wire: the router *submits* to one replica of every shard first (each
//! submit is one frame write, so all shards start computing at once) and
//! then *waits* in deterministic shard order, merging as the answers land:
//!
//! * result nodes and proximities concatenate in shard order (shard ranges
//!   are disjoint and ascending, so the concatenation is id-sorted exactly
//!   like a single-process answer);
//! * counter statistics (`candidates`, `hits`, `refined_nodes`,
//!   `refine_iterations`) sum — they were per-shard sums already;
//! * update-mode refinements commit **backend-locally**, routed to the
//!   set's *first healthy* replica (each backend owns its shard, so
//!   cross-process commits never race), and the router collects every
//!   shard's answer before replying, so per-query ordering matches a
//!   single process.
//!
//! Replicas never change answers — only *which process* computes them.
//! Every replica of a shard serves the same section, every partial is a
//! pure function of (section, query), and the merge order is pinned by the
//! shard map, so answers stay **bitwise equal** to single-process serving
//! for any replica count, any load-balancing choice, and any failover
//! path. The determinism contract now reads: {threads, shards, processes,
//! pipelining, **replicas**} may only change wall time, never answers
//! (pinned by `tests/router_equivalence.rs` and
//! `tests/router_replication.rs`).
//!
//! ## Health, failover, hedging
//!
//! Frozen queries **load-balance** round-robin across a shard's healthy
//! replicas. Every replica call is one *submit* (a pooled connection, else
//! a fresh dial, then one frame write) and one *settle*, under **one retry
//! rule**: a transport failure on a *pooled* connection retries once on a
//! fresh dial to the same replica (a stale or severed pooled connection is
//! not an outage); a transport failure on a *fresh* connection marks the
//! replica **unhealthy** (`unhealthy_backends` in `stats`) and the call
//! **fails over** transparently to the next healthy replica (`failovers`)
//! — re-executing even an update-mode slice is safe because refinement is
//! monotone. The rule holds inside a hedge race too. Edge updates are the
//! one exception: they are not idempotent, so they never retry and never
//! fail over. Unhealthy replicas back off exponentially (capped, with a
//! jitter stream seeded per replica so failing replicas never retry in
//! lockstep) and a background **prober** pings them each
//! [`RouterConfig::probe_interval`], re-admitting a restarted backend
//! automatically — recovery no longer waits for a query to trip over the
//! dead address. Only a shard with **zero** live replicas surfaces an
//! error to the client; answers are all-or-nothing (a missing shard would
//! silently drop results), so the router never serves partial answers.
//!
//! Tail latency gets the same treatment as faults: when a shard has a
//! second healthy replica, a frozen call that has not answered within the
//! observed [`RouterConfig::hedge_quantile`] of past shard-call latency
//! **hedges** — fires the same call at another replica and takes whichever
//! answers first (`hedged_requests`). Bitwise-identical partials make the
//! race safe by construction.
//!
//! `stats` aggregates the tier (router-side request counters and latency,
//! per-shard sizes sampled from one live replica); `persist` asks each
//! shard to flush its one-shard snapshot to `<path>.shard<i>` (reassemble
//! with `rtk shard stitch`); `shutdown` propagates to every replica of
//! every shard.

use crate::client::{Client, ClientBuilder, Pending};
use crate::handler::{Host, ServiceHost};
use crate::metrics::{EngineInfo, RequestKind};
use crate::server::serve_loop;
use crate::wire::{Request, Response, WireQueryResult, WireUpdateResult, DEFAULT_MAX_FRAME_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtk_api::service::{dispatch_request, RtkService, ServiceError, ServiceResult};
use rtk_api::{QueryCall, StatsSnapshot, WireTopk};
use rtk_index::ShardMap;
use rtk_obs::{log_event, Json, Level, TraceSpan};
use rtk_sparse::LatencyHistogram;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// First unhealthy-replica retry delay; doubles per consecutive failure.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Backoff ceiling — a long-dead replica is still probed this often.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Router knobs. The client-facing knobs mirror [`crate::ServerConfig`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Worker threads executing client requests (`0` = all cores).
    pub workers: usize,
    /// Per-frame payload cap in bytes (client side and backend side).
    pub max_frame_bytes: u32,
    /// Backpressure cap on admitted client connections (`0` = unlimited;
    /// defaults to 1024 — each connection owns a reader thread).
    pub max_connections: usize,
    /// Pipeline-depth cap per client connection (`0` = unlimited); excess
    /// requests are answered `busy` (see `ServerConfig::max_inflight`).
    pub max_inflight: usize,
    /// Shared-secret auth token for the whole tier: required from clients
    /// *and* presented to backends (start the backends with the same
    /// token). `None` runs unauthenticated.
    pub auth_token: Option<String>,
    /// TCP connect timeout per backend dial.
    pub connect_timeout: Duration,
    /// Socket read/write timeout on backend calls — bounds how long a hung
    /// backend can pin a router worker. Generous by default: a slow query
    /// is not a dead backend.
    pub backend_io_timeout: Duration,
    /// Latency quantile of past shard calls after which a frozen call
    /// hedges to a second healthy replica (`0.0` disables hedging).
    /// Requires at least two healthy replicas on the shard to fire.
    pub hedge_quantile: f64,
    /// Floor under the hedge delay — prevents hedge storms while the
    /// latency histogram is still cold or the index is trivially fast.
    pub hedge_min_delay: Duration,
    /// How often the background prober pings unhealthy replicas (whose
    /// backoff has expired) to re-admit recovered backends.
    pub probe_interval: Duration,
    /// When set, an HTTP/1.0 metrics endpoint binds this address and
    /// serves the tier's counters at `GET /metrics` in Prometheus text
    /// format (see the `http` module). `None` (the default) serves none.
    pub metrics_addr: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_connections: crate::server::DEFAULT_MAX_CONNECTIONS,
            max_inflight: 0,
            auth_token: None,
            connect_timeout: Duration::from_secs(5),
            backend_io_timeout: Duration::from_secs(120),
            hedge_quantile: 0.99,
            hedge_min_delay: Duration::from_millis(10),
            probe_interval: Duration::from_millis(250),
            metrics_addr: None,
        }
    }
}

/// Mutable health of one replica, behind its own lock.
struct HealthState {
    healthy: bool,
    consecutive_failures: u32,
    /// Before this instant an unhealthy replica is not re-attempted (by
    /// queries or the prober) — the capped exponential backoff.
    next_retry_at: Instant,
    /// Jitter source seeded from the replica index, so two replicas failing
    /// together do not retry in lockstep — and so chaos runs reproduce.
    rng: StdRng,
}

/// One backend process serving (a copy of) one shard.
struct Replica {
    addr: SocketAddr,
    /// Idle pooled connections; cleared when the replica is marked
    /// unhealthy (every pooled entry is stale after a restart).
    pool: Mutex<Vec<Client>>,
    health: Mutex<HealthState>,
}

/// All replicas announcing the same shard range, plus the round-robin
/// cursor frozen queries load-balance with.
struct ReplicaSet {
    shard_id: usize,
    node_lo: u32,
    node_hi: u32,
    replicas: Vec<Replica>,
    cursor: AtomicU64,
}

/// Which replica a call went to, whether its connection came from the
/// pool, and when it was submitted.
#[derive(Clone, Copy)]
struct Attempt {
    idx: usize,
    pooled: bool,
    started: Instant,
}

/// A submitted replica call: the connection plus the handle its answer is
/// redeemed with — or the error that already ended it (a failed dial or
/// frame write).
struct InFlight {
    attempt: Attempt,
    sent: Result<(Client, Pending<Response>), String>,
}

/// A replica call's transport outcome, ready for `RouterCtx::settle`.
type Landed = (Attempt, Result<(Client, Response), String>);

impl InFlight {
    /// Blocks on the connection until this call's answer (or a transport
    /// failure) lands.
    fn wait(self) -> Landed {
        let outcome = self.sent.and_then(|(mut client, pending)| {
            let resp = client.wait(pending).map_err(|e| e.to_string())?;
            Ok((client, resp))
        });
        (self.attempt, outcome)
    }
}

/// How one shard call was actually served: which replica answered,
/// whether the hedge fired, how many failovers were walked. The metrics
/// counters record the same events independently — this struct exists so
/// a *traced* query can annotate its span tree with them.
#[derive(Default)]
struct CallMeta {
    /// Address of the replica whose answer was used.
    replica: Option<SocketAddr>,
    /// Whether a hedge was launched for this call (the hedge may or may
    /// not have been the answer that won).
    hedged: bool,
    /// Failovers walked before an answer (0 on the happy path).
    failovers: u32,
}

/// One shard's resolved slice of a fan-out: the response (or error), how
/// it was served, and — when the query is traced — when this shard's call
/// was submitted and answered, as offsets from the router's root span.
struct ShardCall {
    outcome: Result<Response, String>,
    meta: CallMeta,
    submit_offset: f64,
    answer_offset: f64,
}

impl ShardCall {
    /// This call's span in a traced query, annotated with how it was
    /// served; the backend's own engine sub-trace nests under it.
    fn span(&self, name: &str) -> TraceSpan {
        let mut span = TraceSpan::new(name, (self.answer_offset - self.submit_offset).max(0.0));
        span.start_seconds = self.submit_offset;
        if let Some(addr) = self.meta.replica {
            span = span.annotate("replica", addr.to_string());
        }
        if self.meta.hedged {
            span = span.annotate("hedged", "true");
        }
        if self.meta.failovers > 0 {
            span = span.annotate("failovers", self.meta.failovers.to_string());
        }
        span
    }
}

/// Everything the router's workers share.
struct RouterCtx {
    host: Host,
    shards: Vec<ReplicaSet>,
    /// The shard map assembled from the backend handshakes — the router's
    /// authoritative picture of the partition.
    shard_map: ShardMap,
    engine_info: EngineInfo,
    /// How every backend connection is dialed: connect and I/O timeouts,
    /// plus the tier's auth token.
    backend: ClientBuilder,
    hedge_quantile: f64,
    hedge_min_delay: Duration,
    probe_interval: Duration,
    /// Observed shard-call latency (successful calls only) — what the
    /// hedge delay is quantiled from.
    shard_latency: Mutex<LatencyHistogram>,
}

/// A bound (but not yet running) replicated fan-out router.
///
/// ```no_run
/// use rtk_server::{Router, RouterConfig};
/// // Two replicas of shard 0, two of shard 1 — any order, any grouping.
/// let backends = [
///     "127.0.0.1:7401".to_string(),
///     "127.0.0.1:7402".to_string(),
///     "127.0.0.1:7403".to_string(),
///     "127.0.0.1:7404".to_string(),
/// ];
/// let router = Router::bind(&backends, "127.0.0.1:7400", RouterConfig::default()).unwrap();
/// println!("routing on {}", router.local_addr());
/// router.run().unwrap(); // blocks until a Shutdown request arrives
/// ```
pub struct Router {
    listener: TcpListener,
    ctx: Arc<RouterCtx>,
    workers: usize,
    /// Where the optional Prometheus endpoint is bound (ephemeral ports
    /// resolved); `None` when `RouterConfig::metrics_addr` was unset.
    metrics_addr: Option<SocketAddr>,
}

impl Router {
    /// Binds `addr` and performs the startup handshake: every backend in
    /// `backend_addrs` is dialed (duplicates deduplicated after
    /// resolution), its shard range read from `stats`, and backends
    /// announcing the **same** range grouped into one replica set per
    /// shard. The distinct ranges must tile `0..n` exactly — a gap,
    /// an overlap, or a partially-overlapping "replica" would silently
    /// corrupt answers, so each is a startup error. All backends must
    /// serve the same graph (`nodes`/`edges`/`max_k` must agree) and must
    /// be `--shard-only` processes.
    pub fn bind<A: ToSocketAddrs>(
        backend_addrs: &[String],
        addr: A,
        config: RouterConfig,
    ) -> io::Result<Self> {
        if backend_addrs.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "router: no backends given"));
        }
        crate::server::check_auth_token_len(config.auth_token.as_deref())?;
        if !(0.0..1.0).contains(&config.hedge_quantile) && config.hedge_quantile != 0.0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "router: hedge quantile {} must lie in [0, 1) (0 disables hedging)",
                    config.hedge_quantile
                ),
            ));
        }
        let bad_input = |m: String| io::Error::new(io::ErrorKind::InvalidInput, m);
        // The same timeouts for the handshake as for every later dial —
        // without them, a hung backend could wedge the handshake (or, once
        // this connection is pooled, pin a router worker forever).
        let mut backend = Client::builder()
            .connect_timeout(config.connect_timeout)
            .io_timeout(config.backend_io_timeout);
        if let Some(token) = &config.auth_token {
            backend = backend.auth_token(token);
        }
        // Handshake every distinct backend; group by announced range.
        type RangeGroup = (u32, u32, Vec<(SocketAddr, Client)>);
        let mut groups: Vec<RangeGroup> = Vec::new();
        let mut seen: Vec<SocketAddr> = Vec::new();
        let mut graph_info: Option<(u64, u64, u64)> = None;
        for spec in backend_addrs {
            let backend_addr = spec
                .to_socket_addrs()
                .map_err(|e| bad_input(format!("router: cannot resolve backend {spec:?}: {e}")))?
                .next()
                .ok_or_else(|| {
                    bad_input(format!("router: backend {spec:?} resolves to nothing"))
                })?;
            // The same process listed twice is not a second replica — it
            // would double-dial one backend and fake redundancy.
            if seen.contains(&backend_addr) {
                continue;
            }
            seen.push(backend_addr);
            let mut client = backend
                .clone()
                .connect(backend_addr)
                .map_err(|e| bad_input(format!("router: cannot reach backend {spec}: {e}")))?;
            let stats = client
                .stats()
                .map_err(|e| bad_input(format!("router: handshake with {spec} failed: {e}")))?;
            // Probe the shard-scoped surface: a plain full server reports a
            // plausible range (0..n) but cannot answer shard_reverse_topk —
            // catch that here as a startup error instead of failing every
            // query at runtime.
            client.shard_query(&QueryCall::new(0, 1, false), None, false).map_err(|e| {
                bad_input(format!(
                    "router: backend {spec} does not answer shard-scoped queries — is it \
                     running with --shard-only? ({e})"
                ))
            })?;
            match graph_info {
                None => graph_info = Some((stats.nodes, stats.edges, stats.max_k)),
                Some((n, e, k)) => {
                    if (stats.nodes, stats.edges, stats.max_k) != (n, e, k) {
                        return Err(bad_input(format!(
                            "router: backend {spec} serves a different index \
                             ({}/{}/{} vs {n}/{e}/{k} nodes/edges/max_k)",
                            stats.nodes, stats.edges, stats.max_k
                        )));
                    }
                }
            }
            if stats.shard_hi <= stats.shard_lo {
                return Err(bad_input(format!(
                    "router: backend {spec} reports empty shard range {}..{}",
                    stats.shard_lo, stats.shard_hi
                )));
            }
            let (lo, hi) = (stats.shard_lo as u32, stats.shard_hi as u32);
            match groups.iter_mut().find(|(glo, ghi, _)| (*glo, *ghi) == (lo, hi)) {
                Some((_, _, members)) => members.push((backend_addr, client)),
                None => groups.push((lo, hi, vec![(backend_addr, client)])),
            }
        }
        let (nodes, edges, max_k) = graph_info.expect("at least one backend");

        // The distinct ranges must tile 0..n exactly. Replicas are only
        // replicas if their ranges match *exactly* — a backend overlapping
        // a neighbour is a misconfiguration, not redundancy.
        groups.sort_by_key(|&(lo, hi, _)| (lo, hi));
        let mut starts = Vec::with_capacity(groups.len());
        let mut expect = 0u32;
        let mut shards = Vec::with_capacity(groups.len());
        let mut replica_index = 0u64;
        for (shard_id, (lo, hi, members)) in groups.into_iter().enumerate() {
            if lo < expect {
                return Err(bad_input(format!(
                    "router: backend ranges {lo}..{hi} and ..{expect} overlap without \
                     matching — replicas must announce identical shard ranges"
                )));
            }
            if lo != expect {
                return Err(bad_input(format!(
                    "router: shard ranges do not tile the node space: expected a shard \
                     starting at {expect}, got {lo}..{hi} ({})",
                    members[0].0
                )));
            }
            starts.push(lo);
            expect = hi;
            let replicas = members
                .into_iter()
                .map(|(addr, client)| {
                    // Distinct jitter stream per replica, derived from its
                    // index: reproducible, but never lockstep.
                    let rng =
                        StdRng::seed_from_u64(replica_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    replica_index += 1;
                    Replica {
                        addr,
                        pool: Mutex::new(vec![client]),
                        health: Mutex::new(HealthState {
                            healthy: true,
                            consecutive_failures: 0,
                            next_retry_at: Instant::now(),
                            rng,
                        }),
                    }
                })
                .collect();
            shards.push(ReplicaSet {
                shard_id,
                node_lo: lo,
                node_hi: hi,
                replicas,
                cursor: AtomicU64::new(0),
            });
        }
        if u64::from(expect) != nodes {
            return Err(bad_input(format!(
                "router: shards cover 0..{expect} but the index has {nodes} nodes \
                 (missing backends?)"
            )));
        }
        let shard_map = ShardMap::from_starts(nodes as usize, starts)
            .map_err(|e| bad_input(format!("router: invalid shard map: {e}")))?;

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = rtk_graph::resolve_threads(config.workers).max(1);
        let ctx = Arc::new(RouterCtx {
            host: Host::new(
                local_addr,
                config.max_frame_bytes,
                config.auth_token,
                config.max_connections,
                config.max_inflight,
            ),
            shards,
            shard_map,
            engine_info: EngineInfo {
                nodes,
                edges,
                max_k,
                workers: workers as u32,
                shard_lo: 0,
                shard_hi: nodes,
                // Filled per `stats` call from the live shard digests.
                index_digest: 0,
            },
            backend,
            hedge_quantile: config.hedge_quantile,
            hedge_min_delay: config.hedge_min_delay,
            probe_interval: config.probe_interval,
            shard_latency: Mutex::new(LatencyHistogram::new()),
        });
        let metrics_addr = match &config.metrics_addr {
            Some(maddr) => Some(crate::http::spawn_metrics_endpoint(maddr, Arc::clone(&ctx))?),
            None => None,
        };
        Ok(Self { listener, ctx, workers, metrics_addr })
    }

    /// The bound client-facing address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.host.local_addr
    }

    /// Where the Prometheus `GET /metrics` endpoint is bound, when
    /// [`RouterConfig::metrics_addr`] was set (ephemeral ports resolved).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Number of backend replicas behind this router (across all shards).
    pub fn backend_count(&self) -> usize {
        self.ctx.shards.iter().map(|s| s.replicas.len()).sum()
    }

    /// Number of shards (replica sets) behind this router.
    pub fn shard_count(&self) -> usize {
        self.ctx.shards.len()
    }

    /// Serves until a `Shutdown` request arrives (which also propagates to
    /// every backend), then drains exactly like [`crate::Server::run`].
    /// Also runs the background health prober for the lifetime of the
    /// serve loop.
    pub fn run(self) -> io::Result<()> {
        let Router { listener, ctx, workers, metrics_addr: _ } = self;
        let prober = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || ctx.probe_loop())
        };
        let result = serve_loop(listener, ctx, workers);
        // serve_loop only returns after the shutdown flag is set, which is
        // also the prober's exit condition.
        let _ = prober.join();
        result
    }

    /// Runs the router on a background thread; returns a handle with the
    /// bound address.
    pub fn spawn(self) -> crate::ServerHandle {
        let addr = self.local_addr();
        let thread = std::thread::spawn(move || self.run());
        crate::server::handle_from_parts(addr, thread)
    }
}

impl RouterCtx {
    // ---- replica health ----------------------------------------------

    /// Records a successful call: the replica is healthy, failures reset.
    fn mark_success(&self, replica: &Replica) {
        let mut h = replica.health.lock().expect("replica health lock");
        h.healthy = true;
        h.consecutive_failures = 0;
    }

    /// Records a failed call: the replica goes unhealthy with a capped
    /// exponential backoff (seeded jitter ×[0.5, 1.5)), and its pool is
    /// cleared — after a restart every pooled connection is stale.
    fn mark_failure(&self, replica: &Replica) {
        let mut h = replica.health.lock().expect("replica health lock");
        h.healthy = false;
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        let doublings = (h.consecutive_failures - 1).min(16);
        let backoff = (BACKOFF_BASE.as_secs_f64() * f64::from(1u32 << doublings))
            .min(BACKOFF_CAP.as_secs_f64());
        let jitter: f64 = h.rng.gen_range(0.5..1.5);
        h.next_retry_at = Instant::now() + Duration::from_secs_f64(backoff * jitter);
        let failures = h.consecutive_failures;
        drop(h);
        replica.pool.lock().expect("replica pool lock").clear();
        log_event(
            Level::Warn,
            "router",
            "replica marked unhealthy",
            &[
                ("replica", Json::Str(replica.addr.to_string())),
                ("consecutive_failures", Json::U64(u64::from(failures))),
                ("backoff_seconds", Json::F64(backoff * jitter)),
            ],
        );
    }

    /// Number of replicas currently marked unhealthy, tier-wide.
    fn unhealthy_count(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.replicas)
            .filter(|r| !r.health.lock().expect("replica health lock").healthy)
            .count() as u64
    }

    /// Attempt order for one call on `set`: healthy replicas first —
    /// rotated round-robin for frozen calls (load balancing), in set order
    /// for update-mode calls (a stable owner keeps refinement traffic on
    /// one copy) — then unhealthy replicas whose backoff has expired,
    /// earliest-due first. Empty means the shard is down right now.
    fn candidates(&self, set: &ReplicaSet, frozen: bool) -> Vec<usize> {
        let now = Instant::now();
        let mut healthy = Vec::new();
        let mut retryable: Vec<(Instant, usize)> = Vec::new();
        for (i, r) in set.replicas.iter().enumerate() {
            let h = r.health.lock().expect("replica health lock");
            if h.healthy {
                healthy.push(i);
            } else if h.next_retry_at <= now {
                retryable.push((h.next_retry_at, i));
            }
        }
        if frozen && healthy.len() > 1 {
            let start = set.cursor.fetch_add(1, Ordering::Relaxed) as usize % healthy.len();
            healthy.rotate_left(start);
        }
        retryable.sort();
        healthy.extend(retryable.into_iter().map(|(_, i)| i));
        healthy
    }

    /// Background health prober: pings unhealthy replicas whose backoff
    /// has expired and re-admits them on success — recovery does not wait
    /// for a query to trip over the dead address. Runs until shutdown.
    fn probe_loop(&self) {
        let slice = Duration::from_millis(50);
        while !self.host.shutting_down() {
            let mut slept = Duration::ZERO;
            while slept < self.probe_interval && !self.host.shutting_down() {
                let step = slice.min(self.probe_interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
            if self.host.shutting_down() {
                break;
            }
            for set in &self.shards {
                for (idx, replica) in set.replicas.iter().enumerate() {
                    let due = {
                        let h = replica.health.lock().expect("replica health lock");
                        !h.healthy && h.next_retry_at <= Instant::now()
                    };
                    if !due {
                        continue;
                    }
                    // A ping is an ordinary replica call: a `Pong` re-admits
                    // the replica and its connection seeds the fresh pool; a
                    // transport failure extends the backoff, and so does any
                    // other answer (e.g. an auth rejection).
                    match self.try_replica(set, idx, &Request::Ping, &mut CallMeta::default()) {
                        Ok(Response::Pong) => log_event(
                            Level::Info,
                            "router",
                            "replica re-admitted by prober",
                            &[("replica", Json::Str(replica.addr.to_string()))],
                        ),
                        Ok(_) => self.mark_failure(replica),
                        Err(_) => {}
                    }
                }
            }
        }
    }

    /// Current hedge delay: the configured quantile of observed shard-call
    /// latency, floored by `hedge_min_delay` (which also covers the cold
    /// histogram).
    fn hedge_delay(&self) -> Duration {
        let quantile = self
            .shard_latency
            .lock()
            .expect("shard latency lock")
            .quantile(self.hedge_quantile);
        Duration::from_secs_f64(quantile).max(self.hedge_min_delay)
    }

    // ---- one replica call: submit + settle ----------------------------

    /// Sends `request` to replica `idx` of `set` on an idle pooled
    /// connection, else on a fresh dial. Never blocks on the answer.
    fn submit(&self, set: &ReplicaSet, idx: usize, request: &Request) -> InFlight {
        let pooled = set.replicas[idx].pool.lock().expect("replica pool lock").pop();
        self.send(set, idx, pooled, request)
    }

    /// Writes `request` on `client`, or on a fresh dial when `None`.
    fn send(
        &self,
        set: &ReplicaSet,
        idx: usize,
        client: Option<Client>,
        request: &Request,
    ) -> InFlight {
        let attempt = Attempt { idx, pooled: client.is_some(), started: Instant::now() };
        let sent = client
            .map_or_else(|| self.backend.clone().connect(set.replicas[idx].addr), Ok)
            .and_then(|mut client| {
                let pending = client.submit(request)?;
                Ok((client, pending))
            })
            .map_err(|e| e.to_string());
        InFlight { attempt, sent }
    }

    /// All outcome bookkeeping of one replica call. An answer — even an
    /// application `Response::Error`: the replica answered, the request is
    /// just wrong — marks the replica healthy, returns the connection to
    /// the pool, and feeds a shard call's latency to the hedge histogram.
    /// A transport failure on a pooled connection retries once on a fresh
    /// dial when `retry` allows (a stale pool entry is not an outage); any
    /// other transport failure marks the replica unhealthy.
    fn settle(
        &self,
        set: &ReplicaSet,
        (attempt, outcome): Landed,
        request: &Request,
        retry: bool,
        meta: &mut CallMeta,
    ) -> Result<Response, String> {
        let replica = &set.replicas[attempt.idx];
        match outcome {
            Ok((client, resp)) => {
                if matches!(request, Request::ShardReverseTopk { .. }) {
                    self.shard_latency
                        .lock()
                        .expect("shard latency lock")
                        .record(attempt.started.elapsed().as_secs_f64());
                }
                self.mark_success(replica);
                replica.pool.lock().expect("replica pool lock").push(client);
                meta.replica = Some(replica.addr);
                Ok(resp)
            }
            Err(_) if attempt.pooled && retry => {
                let fresh = self.send(set, attempt.idx, None, request).wait();
                self.settle(set, fresh, request, retry, meta)
            }
            Err(e) => {
                self.mark_failure(replica);
                Err(format!(
                    "shard {} replica {} ({}): {e}",
                    set.shard_id, attempt.idx, replica.addr
                ))
            }
        }
    }

    /// One blocking request against replica `idx`: submit, wait, settle.
    fn try_replica(
        &self,
        set: &ReplicaSet,
        idx: usize,
        request: &Request,
        meta: &mut CallMeta,
    ) -> Result<Response, String> {
        self.settle(set, self.submit(set, idx, request).wait(), request, true, meta)
    }

    /// One request against a shard, walking its replicas until one
    /// answers: healthy replicas (load-balanced when frozen), then
    /// expired-backoff unhealthy ones. Each move to a further replica
    /// after a failure counts as a **failover**. Only a shard with no
    /// attemptable replica at all — or every attempt failing — surfaces
    /// an error.
    fn set_call(
        &self,
        set: &ReplicaSet,
        request: &Request,
        frozen: bool,
        mut prior_failure: bool,
        meta: &mut CallMeta,
    ) -> Result<Response, String> {
        let candidates = self.candidates(set, frozen);
        if candidates.is_empty() {
            return Err(format!(
                "shard {} has no live replicas ({} configured, all unhealthy and backing off)",
                set.shard_id,
                set.replicas.len()
            ));
        }
        let mut errors: Vec<String> = Vec::new();
        for idx in candidates {
            if prior_failure {
                self.host.metrics.record_failover();
                meta.failovers += 1;
            }
            match self.try_replica(set, idx, request, meta) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    errors.push(e);
                    prior_failure = true;
                }
            }
        }
        Err(format!("shard {}: every replica failed: {}", set.shard_id, errors.join("; ")))
    }

    // ---- hedged concurrent fan-out ------------------------------------

    /// Whether a frozen call on `set` (currently running on `first_idx`)
    /// may hedge: hedging enabled and a *different* healthy replica
    /// exists to race.
    fn should_hedge(&self, set: &ReplicaSet, first_idx: usize) -> bool {
        self.hedge_quantile > 0.0
            && set.replicas.iter().enumerate().any(|(i, r)| {
                i != first_idx && r.health.lock().expect("replica health lock").healthy
            })
    }

    /// Waits on an in-flight frozen call, hedging to a second replica if
    /// the first has not answered within [`Self::hedge_delay`]. Whichever
    /// replica answers first wins — partials are bitwise identical, so the
    /// race cannot change the merged answer. Each racer's outcome settles
    /// under the same retry rule as any replica call; the error lists every
    /// racer that failed for good.
    fn wait_hedged(
        &self,
        set: &ReplicaSet,
        call: InFlight,
        request: &Request,
        meta: &mut CallMeta,
    ) -> Result<Response, String> {
        let first = call.attempt;
        let (tx, rx) = mpsc::channel::<Landed>();
        // Each racer waits on its own thread and reports exactly once. The
        // loser of a race is simply never received; its send fails and its
        // connection drops — the pool re-dials later.
        let race = |call: InFlight| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send(call.wait());
            });
        };
        race(call);
        let mut outstanding = 1usize;
        let mut hedged = false;
        let mut errors: Vec<String> = Vec::new();
        while outstanding > 0 {
            let landed = if hedged {
                // Both racers launched (or no second replica available):
                // their io timeouts bound this wait.
                match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            } else {
                match rx.recv_timeout(self.hedge_delay()) {
                    Ok(m) => m,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        hedged = true;
                        let second =
                            self.candidates(set, true).into_iter().find(|&i| i != first.idx);
                        if let Some(idx) = second {
                            self.host.metrics.record_hedged_request();
                            meta.hedged = true;
                            log_event(
                                Level::Debug,
                                "router",
                                "hedged slow shard call",
                                &[
                                    ("shard", Json::U64(set.shard_id as u64)),
                                    ("replica", Json::Str(set.replicas[idx].addr.to_string())),
                                ],
                            );
                            let mut hedge = self.submit(set, idx, request);
                            // Whichever racer wins answers the original
                            // call: its latency counts from the first submit.
                            hedge.attempt.started = first.started;
                            race(hedge);
                            outstanding += 1;
                        }
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            };
            outstanding -= 1;
            match self.settle(set, landed, request, true, meta) {
                Ok(resp) => return Ok(resp),
                Err(e) => errors.push(e),
            }
        }
        Err(errors.join("; "))
    }

    /// Issues one shard-scoped query to **every shard concurrently** (one
    /// pipelined submit per shard, all in flight at once), then collects
    /// the responses in deterministic shard order — hedging and failing
    /// over per shard as needed.
    ///
    /// An exact query first solves PMPN once (Alg. 4 line 1): a solve-only
    /// `want_pmpn` call to the replica set owning `q`, so solves spread
    /// across shards. It goes out frozen (the backend's read lock) but
    /// picks its replica as the query does — an update-mode query solves
    /// on the stable owner that applied every edge update. Every shard then
    /// screens against the returned vector at the same time — the screens
    /// are independent per node, so none waits on another shard's screen.
    /// A solve that fails or brings no vector back leaves each shard
    /// solving for itself. The solve's call comes back beside the screens;
    /// approximate screens never solve the full system, so they ship
    /// nothing and make no solve call.
    ///
    /// `started` is the root instant of the query: a traced call carries
    /// the trace flag to the backends and each [`ShardCall`] records its
    /// submit/answer offsets from it. Untraced fan-outs take zero timing
    /// syscalls beyond what the untraced path always took.
    fn fan_out(&self, call: &QueryCall, started: Instant) -> (Option<ShardCall>, Vec<ShardCall>) {
        let QueryCall { q, k, update, trace, approx } = *call;
        let trace_from = trace.then_some(started);
        let exact = !approx.is_some_and(|a| a.is_active());
        let mut solve = None;
        let mut pmpn = None;
        let q_in_range = u64::from(q) < self.engine_info.nodes;
        if exact && self.shards.len() > 1 && q_in_range && self.pmpn_fits_frame() {
            let request = Request::ShardReverseTopk {
                q,
                k,
                update: false,
                trace,
                approx: None,
                pmpn: None,
                want_pmpn: true,
            };
            let owner = std::slice::from_ref(&self.shards[self.shard_map.shard_of(q)]);
            let mut call = self.fan_out_request(&request, update, trace_from, owner).remove(0);
            if let Ok(Response::ShardReverseTopk(s)) = &mut call.outcome {
                pmpn = s.pmpn.take();
            }
            solve = Some(call);
        }
        let request =
            Request::ShardReverseTopk { q, k, update, trace, approx, pmpn, want_pmpn: false };
        (solve, self.fan_out_request(&request, update, trace_from, &self.shards))
    }

    /// Whether the full PMPN vector (8 bytes per node plus framing slack)
    /// fits the backend frame cap — the gate on shipping it at all.
    fn pmpn_fits_frame(&self) -> bool {
        let bytes = self.engine_info.nodes.saturating_mul(8).saturating_add(256);
        bytes <= u64::from(self.host.max_frame_bytes)
    }

    /// The concurrent fan-out of one prepared request across `sets`,
    /// collecting responses in deterministic shard order.
    fn fan_out_request(
        &self,
        request: &Request,
        update: bool,
        trace_from: Option<Instant>,
        sets: &[ReplicaSet],
    ) -> Vec<ShardCall> {
        let frozen = !update;
        let offset = || trace_from.map_or(0.0, |t| t.elapsed().as_secs_f64());
        // Submit phase: one frame write per shard, on each shard's chosen
        // replica — every shard is computing its slice while the later
        // submits are still going out.
        let calls: Vec<(Option<InFlight>, f64)> = sets
            .iter()
            .map(|set| {
                let submit_offset = offset();
                let first = self.candidates(set, frozen).first().copied();
                (first.map(|idx| self.submit(set, idx, request)), submit_offset)
            })
            .collect();
        // Wait phase, shard order: merge determinism comes from here, not
        // from response arrival order.
        let wait = |call: Option<InFlight>, set: &ReplicaSet, submit_offset: f64, hedge: bool| {
            let mut meta = CallMeta::default();
            let outcome = match call {
                // No replica was attemptable at submit time; the walk
                // re-checks (the prober may have re-admitted one).
                None => self.set_call(set, request, frozen, false, &mut meta),
                Some(call) => {
                    let answer = if hedge {
                        self.wait_hedged(set, call, request, &mut meta)
                    } else {
                        self.settle(set, call.wait(), request, true, &mut meta)
                    };
                    // Failed for good on the chosen replica(s): fail
                    // over across whatever is still attemptable.
                    answer.or_else(|_| self.set_call(set, request, frozen, true, &mut meta))
                }
            };
            ShardCall { outcome, meta, submit_offset, answer_offset: offset() }
        };
        // A call that may hedge is waited on its own thread from submit
        // time: waiting behind another shard would start its hedge clock
        // late and record its latency — the hedge delay's input — late.
        std::thread::scope(|scope| {
            let pending: Vec<_> = calls
                .into_iter()
                .zip(sets)
                .map(|((mut call, submit_offset), set)| {
                    let hedge = frozen
                        && call.as_ref().is_some_and(|c| self.should_hedge(set, c.attempt.idx));
                    let waiter = hedge.then(|| {
                        let call = call.take();
                        scope.spawn(move || wait(call, set, submit_offset, true))
                    });
                    (waiter, call, set, submit_offset)
                })
                .collect();
            pending
                .into_iter()
                .map(|(waiter, call, set, submit_offset)| match waiter {
                    Some(waiter) => waiter.join().expect("a shard wait panicked"),
                    None => wait(call, set, submit_offset, false),
                })
                .collect()
        })
    }

    // ---- the tier-level operations ------------------------------------

    /// The concurrent fan-out + shard-order merge of one reverse top-k
    /// query. The approximate-screen knob is forwarded to every shard; the
    /// per-shard usage reports are summed into the merged answer's
    /// `approx_stats` tail and into the router's `rtk_approx_*` counters.
    /// A traced call's merged answer carries a span tree — one child per
    /// shard call (annotated with the answering replica, hedge, and
    /// failover facts, wrapping the backend's own engine sub-trace) plus a
    /// `merge` span. The fan-out and merge are byte-identical to the
    /// untraced path.
    fn reverse_topk(&self, call: &QueryCall) -> Result<WireQueryResult, String> {
        let QueryCall { q, k, trace: traced, .. } = *call;
        let started = Instant::now();
        let mut merged = WireQueryResult {
            query: q,
            k,
            nodes: Vec::new(),
            proximities: Vec::new(),
            candidates: 0,
            hits: 0,
            refined_nodes: 0,
            refine_iterations: 0,
            server_seconds: 0.0,
            trace: None,
            approx: None,
        };
        let (solve, calls) = self.fan_out(call, started);
        // The merge starts once every shard's answer is in hand (fan_out
        // waits in shard order); only traced queries pay the clock read.
        let merge_start = if traced { started.elapsed().as_secs_f64() } else { 0.0 };
        let mut shard_spans: Vec<TraceSpan> =
            Vec::with_capacity(if traced { self.shards.len() + 2 } else { 0 });
        // The solve is its own `pmpn` span ahead of the shard screens — not
        // named `shard…`, as it screens no range.
        if let (true, Some(solve)) = (traced, solve) {
            let mut span = solve.span("pmpn");
            if let Ok(Response::ShardReverseTopk(s)) = solve.outcome {
                span.children.extend(s.result.trace);
            }
            shard_spans.push(span);
        }
        for (call, set) in calls.into_iter().zip(&self.shards) {
            let span = traced.then(|| call.span(&format!("shard{}", set.shard_id)));
            match call.outcome? {
                Response::ShardReverseTopk(mut s) => {
                    if s.node_lo != set.node_lo || s.node_hi != set.node_hi {
                        return Err(format!(
                            "shard {} answered for range {}..{}, expected {}..{} — was a \
                             backend restarted with a different shard?",
                            set.shard_id, s.node_lo, s.node_hi, set.node_lo, set.node_hi
                        ));
                    }
                    if let Some(mut span) = span {
                        // Taking the backend's trace keeps the merged
                        // answer's payload free of stray sub-traces.
                        span.children.extend(s.result.trace.take());
                        shard_spans.push(span);
                    }
                    // Shard ranges ascend and partials are id-sorted within
                    // their range, so plain concatenation is id-sorted.
                    merged.nodes.extend(s.result.nodes);
                    merged.proximities.extend(s.result.proximities);
                    merged.candidates += s.result.candidates;
                    merged.hits += s.result.hits;
                    merged.refined_nodes += s.result.refined_nodes;
                    merged.refine_iterations += s.result.refine_iterations;
                    if let Some(a) = s.result.approx {
                        let m = merged.approx.get_or_insert_with(Default::default);
                        m.estimated += a.estimated;
                        m.exact_refined += a.exact_refined;
                        m.walks += a.walks;
                    }
                }
                Response::Error { message, .. } => {
                    return Err(format!("shard {}: {message}", set.shard_id));
                }
                other => {
                    return Err(format!("shard {}: unexpected {other:?}", set.shard_id));
                }
            }
        }
        merged.server_seconds = started.elapsed().as_secs_f64();
        if traced {
            let mut root = TraceSpan::new("router:reverse_topk", merged.server_seconds);
            let mut merge = TraceSpan::new("merge", (merged.server_seconds - merge_start).max(0.0));
            merge.start_seconds = merge_start;
            root.children = shard_spans;
            root.children.push(merge);
            if let Some(a) = &merged.approx {
                let mut span = TraceSpan::new("approx", 0.0);
                span.start_seconds = merged.server_seconds;
                span = span
                    .annotate("estimated", a.estimated.to_string())
                    .annotate("exact_refined", a.exact_refined.to_string())
                    .annotate("walks", a.walks.to_string());
                root.children.push(span);
            }
            merged.trace = Some(root);
        }
        if let Some(a) = &merged.approx {
            self.host.metrics.record_approx(a.estimated, a.exact_refined, a.walks);
        }
        Ok(merged)
    }

    /// Forwards a shard-independent request to the replica set owning node
    /// `u` (all backends hold the full graph; routing by owner spreads
    /// load deterministically, and the set load-balances across its
    /// healthy replicas).
    fn forward_to_owner(&self, u: u32, request: &Request) -> Result<Response, String> {
        if u64::from(u) >= self.engine_info.nodes {
            return Err(format!("node {u} out of range for {} nodes", self.engine_info.nodes));
        }
        let set = &self.shards[self.shard_map.shard_of(u)];
        match self.set_call(set, request, true, false, &mut CallMeta::default())? {
            Response::Error { message, .. } => Err(format!("shard {}: {message}", set.shard_id)),
            resp => Ok(resp),
        }
    }

    /// Aggregated tier stats: the router's own client-facing counters and
    /// latency, plus per-shard sizes sampled live from one replica (a
    /// shard with no sampleable replica reports its handshake node count
    /// with zero bytes). Unhealthy replicas are never dialed here — stats
    /// sampling must not churn the failure counters.
    fn stats(&self) -> StatsSnapshot {
        let mut shard_nodes = Vec::with_capacity(self.shards.len());
        let mut shard_bytes = Vec::with_capacity(self.shards.len());
        // Per-shard digests, concatenated little-endian in shard order —
        // the tier digest folds them with the same FNV the backends use,
        // so one `stats` round-trip checks replica convergence end to end.
        let mut digest_bytes = Vec::with_capacity(self.shards.len() * 8);
        let mut all_sampled = true;
        let mut live_edges = None;
        for set in &self.shards {
            let healthy = set
                .replicas
                .iter()
                .position(|r| r.health.lock().expect("replica health lock").healthy);
            let sampled = healthy.and_then(|idx| {
                match self.try_replica(set, idx, &Request::Stats, &mut CallMeta::default()) {
                    Ok(Response::Stats(s)) => {
                        Some((s.shard_nodes, s.shard_bytes, s.index_digest, s.edges))
                    }
                    _ => None,
                }
            });
            match sampled {
                Some((nodes, bytes, digest, edges)) => {
                    shard_nodes.extend(nodes);
                    shard_bytes.extend(bytes);
                    digest_bytes.extend_from_slice(&digest.to_le_bytes());
                    // Dynamic updates move the edge count after the
                    // handshake; every backend serves the full graph, so
                    // any live sample is authoritative.
                    live_edges.get_or_insert(edges);
                }
                None => {
                    shard_nodes.push(u64::from(set.node_hi - set.node_lo));
                    shard_bytes.push(0);
                    all_sampled = false;
                }
            }
        }
        let mut engine_info = self.engine_info;
        if let Some(edges) = live_edges {
            engine_info.edges = edges;
        }
        // A digest over a partial sample would look like divergence; report
        // 0 ("unknown") unless every shard answered.
        engine_info.index_digest = if all_sampled { rtk_core::fnv1a64(&digest_bytes) } else { 0 };
        let engine = StatsSnapshot::local(engine_info, shard_nodes, shard_bytes);
        self.host.metrics.snapshot(engine, self.unhealthy_count())
    }

    /// One dynamic-graph update against the shard's **stable owner** (the
    /// first healthy replica in set order — the same copy update-mode
    /// refinements commit to, so one replica per shard accumulates all
    /// write traffic). Updates never retry and never fail over:
    /// re-executing a non-idempotent edge update could double-apply it
    /// (`add_edge` accumulates weight), and a restarted owner has lost its
    /// un-persisted updates anyway — both must surface **loudly** so the
    /// operator replays the update log (`rtk log replay`) and confirms
    /// convergence via the stats `index_digest`.
    fn update_call(&self, set: &ReplicaSet, request: &Request) -> Result<Response, String> {
        let Some(&idx) = self.candidates(set, false).first() else {
            return Err(format!(
                "shard {} has no live replicas to apply the update ({} configured, all \
                 unhealthy and backing off)",
                set.shard_id,
                set.replicas.len()
            ));
        };
        let landed = self.submit(set, idx, request).wait();
        self.settle(set, landed, request, false, &mut CallMeta::default())
    }

    /// Applies one edge update to **every shard's** stable owner, in shard
    /// order. Each backend holds the full graph, so each applies the whole
    /// update and repairs only its owned section; the effects sum to
    /// exactly one full-index repair. Any shard failing fails the request
    /// loudly — and names how many shards already applied the update, so
    /// the operator knows the tier is divergent until the log is replayed.
    /// The reported digest folds the per-shard digests in shard order
    /// (same fold as the stats `index_digest`).
    fn apply_update(&self, request: &Request) -> Result<WireUpdateResult, String> {
        let mut recomputed_states = 0u64;
        let mut recomputed_hubs = 0u64;
        let mut digest_bytes = Vec::with_capacity(self.shards.len() * 8);
        for (applied, set) in self.shards.iter().enumerate() {
            let divergence = |m: String| {
                format!(
                    "{m} — update applied on {applied} of {} shards; the tier is divergent \
                     until the update log is replayed (rtk log replay)",
                    self.shards.len()
                )
            };
            match self.update_call(set, request).map_err(&divergence)? {
                Response::Updated(u) => {
                    recomputed_states += u.recomputed_states;
                    recomputed_hubs += u.recomputed_hubs;
                    digest_bytes.extend_from_slice(&u.index_digest.to_le_bytes());
                }
                Response::Error { message, .. } => {
                    // An application rejection (bad node, missing edge) is
                    // atomic per backend: shard 0 rejects it exactly like
                    // every later shard would, so nothing applied anywhere.
                    return Err(if applied == 0 {
                        format!("shard {}: {message}", set.shard_id)
                    } else {
                        divergence(format!("shard {}: {message}", set.shard_id))
                    });
                }
                other => {
                    return Err(divergence(format!(
                        "shard {}: unexpected {other:?}",
                        set.shard_id
                    )));
                }
            }
        }
        Ok(WireUpdateResult {
            recomputed_states,
            recomputed_hubs,
            index_digest: rtk_core::fnv1a64(&digest_bytes),
        })
    }

    /// Fans `persist` out: each shard flushes its one-shard snapshot to
    /// `<path>.shard<i>` on the answering replica's filesystem (reassemble
    /// with `rtk shard stitch`). Returns the summed bytes; any shard
    /// failure fails the whole request (partial snapshots are worse than
    /// none).
    fn persist(&self, path: &str) -> Result<u64, String> {
        let mut total = 0u64;
        for set in &self.shards {
            let shard_path = format!("{path}.shard{}", set.shard_id);
            let request = Request::Persist { path: shard_path };
            match self.set_call(set, &request, false, false, &mut CallMeta::default())? {
                Response::Persisted { bytes } => total += bytes,
                Response::Error { message, .. } => {
                    return Err(format!("shard {}: {message}", set.shard_id));
                }
                other => {
                    return Err(format!("shard {}: unexpected {other:?}", set.shard_id));
                }
            }
        }
        Ok(total)
    }

    /// Propagates shutdown to **every replica of every shard** (best
    /// effort — an unreachable replica cannot block the tier from
    /// stopping).
    fn shutdown_backends(&self) {
        for set in &self.shards {
            for idx in 0..set.replicas.len() {
                let _ = self.try_replica(set, idx, &Request::Shutdown, &mut CallMeta::default());
            }
        }
    }
}

/// The router's [`RtkService`] view — the tier aggregate: `reverse_topk`
/// fans out across the replica sets and merges, `topk` routes to the
/// owning set, `stats` aggregates, `persist` and `shutdown` propagate.
struct RouterService<'a>(&'a RouterCtx);

impl RtkService for RouterService<'_> {
    fn reverse_topk(&mut self, call: &QueryCall) -> ServiceResult<WireQueryResult> {
        self.0.reverse_topk(call).map_err(ServiceError::Engine)
    }

    fn add_edge(&mut self, from: u32, to: u32, weight: f64) -> ServiceResult<WireUpdateResult> {
        self.0
            .apply_update(&Request::AddEdge { from, to, weight })
            .map_err(ServiceError::Engine)
    }

    fn remove_edge(&mut self, from: u32, to: u32) -> ServiceResult<WireUpdateResult> {
        self.0
            .apply_update(&Request::RemoveEdge { from, to })
            .map_err(ServiceError::Engine)
    }

    fn topk(&mut self, u: u32, k: u32, early: bool) -> ServiceResult<WireTopk> {
        match self.0.forward_to_owner(u, &Request::Topk { u, k, early }) {
            Ok(Response::Topk(t)) => Ok(t),
            Ok(other) => {
                Err(ServiceError::Engine(format!("unexpected backend response {other:?}")))
            }
            Err(m) => Err(ServiceError::Engine(m)),
        }
    }

    fn stats(&mut self) -> ServiceResult<StatsSnapshot> {
        Ok(self.0.stats())
    }

    fn persist(&mut self, path: &str) -> ServiceResult<u64> {
        self.0.persist(path).map_err(ServiceError::Engine)
    }

    /// Propagates to every backend; the router's own drain starts once the
    /// acknowledgement is written (see `execute_job`).
    fn shutdown(&mut self) -> ServiceResult<()> {
        self.0.shutdown_backends();
        Ok(())
    }
}

impl crate::http::MetricsSource for RouterCtx {
    fn render_metrics(&self) -> String {
        self.host.metrics.render_prometheus(self.unhealthy_count())
    }
}

impl ServiceHost for RouterCtx {
    fn host(&self) -> &Host {
        &self.host
    }

    fn dispatch(&self, request: Request) -> (RequestKind, Response) {
        dispatch_request(&mut RouterService(self), request)
    }
}
