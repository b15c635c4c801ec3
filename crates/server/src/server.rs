//! The std-only TCP server: listener + per-connection readers + a worker
//! pool executing individual requests (wire v4 pipelining).

use crate::chaos::{ChaosConfig, ChaosState};
use crate::handler::{execute_job, read_connection, Host, Job, ServiceHost};
use crate::metrics::{EngineInfo, RequestKind};
use crate::state::SharedEngine;
use crate::wire::{Request, Response, DEFAULT_MAX_FRAME_BYTES};
use rtk_api::service::{dispatch_request, RtkService, ServiceError, ServiceResult};
use rtk_api::{
    QueryCall, StatsSnapshot, WireQueryResult, WireShardResult, WireTopk, WireUpdateResult,
};
use rtk_core::{ReverseTopkEngine, UpdateRecord};
use rtk_graph::resolve_threads;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default cap on admitted connections. Wire v4 gives every admitted
/// connection a reader thread, so "unlimited" would let a connection
/// flood exhaust process threads; `0` still means unlimited for operators
/// who want it.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Server knobs. All have serving-oriented defaults.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests (`0` = all cores). Workers are
    /// shared by every connection — a connection never pins one.
    pub workers: usize,
    /// Per-frame payload cap in bytes (both directions).
    pub max_frame_bytes: u32,
    /// Threads *inside* one query (PMPN SpMV + screen). Defaults to 1: a
    /// server's parallelism budget goes to concurrent requests, and results
    /// are identical for any value.
    pub query_threads: usize,
    /// Backpressure: maximum admitted connections; `0` = unlimited.
    /// Defaults to 1024 — each admitted connection owns a reader thread,
    /// so an unbounded accept loop would let a connection flood exhaust
    /// process threads. Excess connections receive a clean `busy` error
    /// frame, are counted in `rejected_connections`, and are closed
    /// without occupying a reader.
    pub max_connections: usize,
    /// Pipeline-depth cap per connection (`0` = unlimited): a request
    /// arriving while this many are already in flight on its connection is
    /// answered with a `busy` frame (counted in `inflight_rejections`)
    /// instead of queuing — one greedy pipelining client cannot monopolize
    /// the worker pool.
    pub max_inflight: usize,
    /// When set, `persist` requests may only name *relative* paths (no
    /// `..`), resolved inside this directory — this fences what a peer can
    /// write. `None` (the default) allows any path the process can create,
    /// matching the trusted-network posture of `shutdown`.
    pub persist_dir: Option<std::path::PathBuf>,
    /// Shared-secret auth token. When set, every request frame must carry
    /// a matching token (constant-time compare); mismatches are answered
    /// `unauthorized`, counted in `auth_failures`, and the connection is
    /// dropped. `None` (the default) accepts any token.
    pub auth_token: Option<String>,
    /// Deterministic fault injection (`rtk serve --chaos`): seeded
    /// drop/delay/sever/refuse decisions for exercising the router's
    /// failover, hedging, and re-admission paths. `None` (the default)
    /// serves faithfully.
    pub chaos: Option<ChaosConfig>,
    /// When set, an HTTP/1.0 metrics endpoint binds this address and
    /// serves the process's counters at `GET /metrics` in Prometheus text
    /// format (see the `http` module). `None` (the default) serves none.
    pub metrics_addr: Option<String>,
    /// When set, every applied `add_edge` / `remove_edge` is appended (and
    /// fsynced) to this `RTKULOG1` file inside the update's write-lock
    /// critical section — `snapshot + rtk log replay` then reproduces the
    /// live engine byte for byte. `None` (the default) keeps no log.
    pub update_log: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            query_threads: 1,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            max_inflight: 0,
            persist_dir: None,
            auth_token: None,
            chaos: None,
            metrics_addr: None,
            update_log: None,
        }
    }
}

/// Everything the workers share.
pub(crate) struct ServerCtx {
    host: Host,
    shared: SharedEngine,
    engine_info: EngineInfo,
    /// Seeded fault injection; `None` serves faithfully.
    chaos: Option<ChaosState>,
}

/// The server's [`RtkService`] view: one short-lived value per dispatched
/// request, delegating to the `RwLock`-disciplined [`SharedEngine`] (frozen
/// queries share the read lock, update/persist take the write lock) and to
/// the server's metrics for `stats`.
struct ServerService<'a>(&'a ServerCtx);

impl ServerService<'_> {
    /// Folds an answer's approx usage report (present exactly when the
    /// approximate screen ran) into the `rtk_approx_*` counters.
    fn record_approx(&self, answer: &WireQueryResult) {
        if let Some(stats) = &answer.approx {
            self.0
                .host
                .metrics
                .record_approx(stats.estimated, stats.exact_refined, stats.walks);
        }
    }
}

impl RtkService for ServerService<'_> {
    fn reverse_topk(&mut self, call: &QueryCall) -> ServiceResult<WireQueryResult> {
        let wire = self.0.shared.reverse_topk(call).map_err(ServiceError::Engine)?;
        self.record_approx(&wire);
        Ok(wire)
    }

    fn shard_reverse_topk(
        &mut self,
        call: &QueryCall,
        pmpn: Option<&[f64]>,
        want_pmpn: bool,
    ) -> ServiceResult<WireShardResult> {
        let wire = self
            .0
            .shared
            .shard_reverse_topk(call, pmpn, want_pmpn)
            .map_err(ServiceError::Engine)?;
        self.record_approx(&wire.result);
        Ok(wire)
    }

    fn topk(&mut self, u: u32, k: u32, early: bool) -> ServiceResult<WireTopk> {
        self.0.shared.topk(u, k, early).map_err(ServiceError::Engine)
    }

    fn batch(&mut self, queries: &[(u32, u32)]) -> ServiceResult<Vec<WireQueryResult>> {
        self.0.shared.batch(queries).map_err(ServiceError::Engine)
    }

    fn add_edge(&mut self, from: u32, to: u32, weight: f64) -> ServiceResult<WireUpdateResult> {
        self.0
            .shared
            .apply_update(UpdateRecord::AddEdge { from, to, weight })
            .map_err(ServiceError::Engine)
    }

    fn remove_edge(&mut self, from: u32, to: u32) -> ServiceResult<WireUpdateResult> {
        self.0
            .shared
            .apply_update(UpdateRecord::RemoveEdge { from, to })
            .map_err(ServiceError::Engine)
    }

    fn stats(&mut self) -> ServiceResult<StatsSnapshot> {
        let (shard_nodes, shard_bytes) = self.0.shared.shard_info();
        // Edge count and digest are sampled live: dynamic updates move
        // both after the bind-time snapshot in `engine_info`.
        let mut info = self.0.engine_info;
        info.edges = self.0.shared.edge_count();
        info.index_digest = self.0.shared.index_digest();
        Ok(self.0.host.metrics.snapshot(info, shard_nodes, shard_bytes, 0))
    }

    fn persist(&mut self, path: &str) -> ServiceResult<u64> {
        self.0.shared.persist(path).map_err(ServiceError::Engine)
    }

    /// Acknowledge only — the worker flips the shutdown flag *after* the
    /// acknowledgement frame is written (see `execute_job`).
    fn shutdown(&mut self) -> ServiceResult<()> {
        Ok(())
    }
}

impl crate::http::MetricsSource for ServerCtx {
    fn render_metrics(&self) -> String {
        // A single server has no backends, so nothing can be unhealthy.
        self.host.metrics.render_prometheus(0)
    }
}

impl ServiceHost for ServerCtx {
    fn host(&self) -> &Host {
        &self.host
    }

    fn chaos(&self) -> Option<&ChaosState> {
        self.chaos.as_ref()
    }

    /// Executes one request through the [`RtkService`] surface.
    fn dispatch(&self, request: Request) -> (RequestKind, Response) {
        dispatch_request(&mut ServerService(self), request)
    }
}

/// Rejects auth tokens longer than the wire field allows at configuration
/// time — otherwise every request would fail later as a baffling
/// "malformed request" protocol error instead of pointing at the token.
pub(crate) fn check_auth_token_len(token: Option<&str>) -> io::Result<()> {
    if let Some(token) = token {
        if token.len() as u64 > crate::wire::MAX_AUTH_TOKEN_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "auth token of {} bytes exceeds the {}-byte wire field",
                    token.len(),
                    crate::wire::MAX_AUTH_TOKEN_BYTES
                ),
            ));
        }
    }
    Ok(())
}

/// The shared serve loop: an acceptor spawning one frame-reader per
/// connection, and a worker pool draining the shared *request* queue —
/// requests from all connections interleave freely, so a connection never
/// pins a worker (the v3 `--workers ≥ router workers + 1` footgun is
/// structurally gone). Connection backpressure (the `busy` frame at the
/// accept cap) and graceful drain on shutdown are handled here. Used by
/// both [`Server`] and [`crate::Router`].
pub(crate) fn serve_loop<H: ServiceHost>(
    listener: TcpListener,
    ctx: Arc<H>,
    workers: usize,
) -> io::Result<()> {
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let rx = Arc::clone(&jobs_rx);
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || loop {
                let job = {
                    let guard = rx.lock().expect("job queue lock");
                    guard.recv()
                };
                match job {
                    Ok(job) => execute_job(job, &*ctx),
                    Err(_) => break, // every sender (acceptor + readers) gone
                }
            })
        })
        .collect();

    let host = ctx.host();
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if host.shutting_down() {
            break; // the wake-up connection (or a late client) lands here
        }
        match stream {
            Ok(s) => {
                // Chaos: a refused accept is dropped before any frame is
                // exchanged — the peer sees an immediate close, exactly
                // like a backend dying between connect and first write.
                if ctx.chaos().is_some_and(|c| c.refuse_accept()) {
                    drop(s);
                    continue;
                }
                // Reap finished readers so the handle list tracks live
                // connections instead of growing with connection history.
                readers.retain(|h| !h.is_finished());
                // Backpressure: over the cap, the connection gets one
                // clean `busy` error frame and is closed — it never gets
                // a reader, so admitted clients keep their latency.
                if host.max_connections > 0
                    && host.active_connections.load(Ordering::Acquire)
                        >= host.max_connections as u64
                {
                    host.metrics.record_rejected_connection();
                    reject_busy(s, host.max_connections);
                    continue;
                }
                host.active_connections.fetch_add(1, Ordering::AcqRel);
                let ctx = Arc::clone(&ctx);
                let jobs = jobs_tx.clone();
                readers.push(std::thread::spawn(move || {
                    read_connection(s, &*ctx, jobs);
                    ctx.host().active_connections.fetch_sub(1, Ordering::AcqRel);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): back
                // off briefly instead of busy-spinning the acceptor.
                std::thread::sleep(std::time::Duration::from_millis(20));
                continue;
            }
        }
    }

    // Drain: readers notice the shutdown flag within one idle poll and
    // stop feeding the queue; once the last sender is gone the workers
    // finish the queued requests and exit.
    for h in readers {
        let _ = h.join();
    }
    drop(jobs_tx);
    for h in worker_handles {
        let _ = h.join();
    }
    Ok(())
}

/// A bound (but not yet running) reverse top-k server.
///
/// ```no_run
/// use rtk_server::{Server, ServerConfig};
/// # fn engine() -> rtk_core::ReverseTopkEngine { unimplemented!() }
/// let server = Server::bind(engine(), "127.0.0.1:0", ServerConfig::default()).unwrap();
/// println!("serving on {}", server.local_addr());
/// server.run().unwrap(); // blocks until a Shutdown request arrives
/// ```
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    workers: usize,
    /// Where the optional Prometheus endpoint is bound (ephemeral ports
    /// resolved); `None` when `ServerConfig::metrics_addr` was unset.
    metrics_addr: Option<SocketAddr>,
}

impl Server {
    /// Binds `addr` and wraps `engine` for serving. Port `0` picks an
    /// ephemeral port — read it back with [`Self::local_addr`].
    ///
    /// An engine holding every shard of its index serves whole answers; one
    /// holding a single shard is the `--shard-only` flavor: it answers
    /// `shard_reverse_topk` (plus the shard-independent requests) and
    /// expects a [`crate::Router`] in front for full answers.
    pub fn bind<A: ToSocketAddrs>(
        engine: ReverseTopkEngine,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Self> {
        check_auth_token_len(config.auth_token.as_deref())?;
        let shared = SharedEngine::new(
            engine,
            config.query_threads,
            config.persist_dir.clone(),
            config.update_log.clone(),
        );
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = resolve_threads(config.workers).max(1);
        let (nodes, edges, max_k, shard_lo, shard_hi) = shared.info();
        let ctx = Arc::new(ServerCtx {
            host: Host::new(
                local_addr,
                config.max_frame_bytes,
                config.auth_token,
                config.max_connections,
                config.max_inflight,
            ),
            shared,
            engine_info: EngineInfo {
                nodes,
                edges,
                max_k,
                workers: workers as u32,
                shard_lo,
                shard_hi,
                // Sampled live per `stats` call — see `ServerService::stats`.
                index_digest: 0,
            },
            chaos: config.chaos.map(ChaosConfig::into_state),
        });
        let metrics_addr = match &config.metrics_addr {
            Some(addr) => Some(crate::http::spawn_metrics_endpoint(addr, Arc::clone(&ctx))?),
            None => None,
        };
        Ok(Self { listener, ctx, workers, metrics_addr })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.host.local_addr
    }

    /// Where the Prometheus `GET /metrics` endpoint is bound, when
    /// [`ServerConfig::metrics_addr`] was set (ephemeral ports resolved).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Serves until a `Shutdown` request arrives, then drains: the accept
    /// loop stops, in-flight requests finish, and every reader and worker
    /// joins before this returns.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, ctx, workers, metrics_addr: _ } = self;
        serve_loop(listener, ctx, workers)
    }

    /// Runs the server on a background thread; returns a handle with the
    /// bound address. Shut it down with a client `shutdown()` call, then
    /// [`ServerHandle::join`].
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, thread }
    }
}

// ---- Deprecated aliases -------------------------------------------------
// Old name the repo benchmark (`crates/bench/src/bin/benchmark`, which may
// not be edited alongside the code it measures) still calls. Nothing else
// in the tree may use it (`-D warnings`); a `[benchmark]` PR drops it.
impl Server {
    /// Old spelling of [`Server::bind`] for an engine holding one shard.
    #[deprecated(note = "use `Server::bind`; the engine knows which shards it holds")]
    pub fn bind_shard<A: ToSocketAddrs>(
        engine: ReverseTopkEngine,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::bind(engine, addr, config)
    }
}

/// Tells a rejected connection the server is at capacity. Runs on the
/// acceptor thread, so the write gets a short timeout — a peer that will
/// not read its rejection cannot stall accepting. No request was read, so
/// the frame goes out under request id 0.
pub(crate) fn reject_busy(mut stream: TcpStream, cap: usize) {
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(1)));
    let resp = crate::wire::Response::Error {
        code: crate::wire::STATUS_BUSY,
        message: format!("server busy: {cap} connections already admitted; retry later"),
    };
    let _ = crate::wire::write_frame(&mut stream, 0, &crate::wire::encode_response(&resp));
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

/// Assembles a handle for any host run on a background thread (used by the
/// router's `spawn`, which shares this handle type).
pub(crate) fn handle_from_parts(
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
) -> ServerHandle {
    ServerHandle { addr, thread }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to exit (after a `Shutdown` request).
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}
