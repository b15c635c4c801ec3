//! The std-only TCP server: listener + per-connection readers + a worker
//! pool executing individual requests (wire v4 pipelining).

use crate::chaos::{ChaosConfig, ChaosState};
use crate::handler::{execute_job, read_connection, Host, Job, ServiceHost};
use crate::metrics::RequestKind;
use crate::wire::{Request, Response, DEFAULT_MAX_FRAME_BYTES, STATUS_ENGINE_ERROR};
use rtk_api::service::dispatch_request;
use rtk_api::{StatsSnapshot, WireQueryResult, WireUpdateResult};
use rtk_core::index::storage::append_update_log;
use rtk_core::query::QueryOptions;
use rtk_core::{ReverseTopkEngine, UpdateRecord};
use rtk_graph::resolve_threads;
use rtk_obs::{log_event, Json, Level};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

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

/// Everything the workers share: the engine behind one lock, plus what a
/// host adds around the engine's own answer.
pub(crate) struct ServerCtx {
    host: Host,
    engine: RwLock<ReverseTopkEngine>,
    /// Worker threads, reported in `stats`.
    workers: u32,
    /// See [`ServerConfig::persist_dir`].
    persist_dir: Option<PathBuf>,
    /// See [`ServerConfig::update_log`].
    update_log: Option<PathBuf>,
    /// Seeded fault injection; `None` serves faithfully.
    chaos: Option<ChaosState>,
}

impl ServerCtx {
    /// Applies the `persist_dir` fence: with a fence configured, the
    /// requested path must be relative, must not climb out via `..`, and is
    /// resolved inside the fence directory.
    fn fence(&self, path: &str) -> Result<String, String> {
        let Some(dir) = &self.persist_dir else { return Ok(path.to_string()) };
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
        let target = dir.join(rel).into_os_string();
        target.into_string().map_err(|t| format!("persist: {t:?} is not UTF-8"))
    }

    /// Appends (and fsyncs) an applied update to the `RTKULOG1` log. Runs
    /// under the update's write guard, so log order is apply order and
    /// `snapshot + replay(log)` reproduces this engine byte for byte.
    fn log_update(&self, log: &Path, record: &UpdateRecord, updated: WireUpdateResult) -> Response {
        let started = Instant::now();
        if let Err(e) = append_update_log(log, record) {
            return engine_error(format!("update applied but logging to {log:?} failed: {e}"));
        }
        let log_append_ms = Json::F64(started.elapsed().as_secs_f64() * 1e3);
        log_event(
            Level::Debug,
            "server",
            "edge update logged",
            &[("log_append_ms", log_append_ms)],
        );
        Response::Updated(updated)
    }

    /// What the host adds to a query answer: its wall time inside this
    /// server, and its approx usage report folded into `rtk_approx_*`.
    fn answered(&self, answer: &mut WireQueryResult, started: Instant) {
        answer.server_seconds = started.elapsed().as_secs_f64();
        if let Some(a) = &answer.approx {
            self.host.metrics.record_approx(a.estimated, a.exact_refined, a.walks);
        }
    }
}

fn engine_error(message: String) -> Response {
    Response::Error { code: STATUS_ENGINE_ERROR, message }
}

/// The `RTKULOG1` record of an edge-update request.
fn update_record(request: &Request) -> Option<UpdateRecord> {
    match *request {
        Request::AddEdge { from, to, weight } => Some(UpdateRecord::AddEdge { from, to, weight }),
        Request::RemoveEdge { from, to } => Some(UpdateRecord::RemoveEdge { from, to }),
        _ => None,
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

    /// Executes one request through the engine's own [`RtkService`] impls:
    /// the owned engine under the write lock for the requests that write
    /// ([`Request::writes`]), its `&` view under the read lock otherwise.
    fn dispatch(&self, mut request: Request) -> (RequestKind, Response) {
        let started = Instant::now();
        if let Request::Persist { path } = &mut request {
            match self.fence(path) {
                Ok(target) => *path = target,
                Err(message) => return (RequestKind::Persist, engine_error(message)),
            }
        }
        let (kind, mut response) = if request.writes() {
            let mut engine = self.engine.write().expect("engine lock");
            let record = update_record(&request);
            match (dispatch_request(&mut *engine, request), record, &self.update_log) {
                ((kind, Response::Updated(u)), Some(record), Some(log)) => {
                    (kind, self.log_update(log, &record, u))
                }
                (dispatched, _, _) => dispatched,
            }
        } else {
            dispatch_request(&mut &*self.engine.read().expect("engine lock"), request)
        };
        match &mut response {
            Response::ReverseTopk(r) => self.answered(r, started),
            Response::ShardReverseTopk(s) => self.answered(&mut s.result, started),
            Response::Stats(s) => {
                let engine = StatsSnapshot { workers: self.workers, ..(**s).clone() };
                **s = self.host.metrics.snapshot(engine, 0);
            }
            _ => {}
        }
        (kind, response)
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
        mut engine: ReverseTopkEngine,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Self> {
        check_auth_token_len(config.auth_token.as_deref())?;
        // Every other option is the engine's own: served answers are the
        // in-process answers of the same engine.
        let query_threads = config.query_threads.max(1);
        engine.set_options(QueryOptions { query_threads, ..*engine.options() });
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = resolve_threads(config.workers).max(1);
        let ctx = Arc::new(ServerCtx {
            host: Host::new(
                local_addr,
                config.max_frame_bytes,
                config.auth_token,
                config.max_connections,
                config.max_inflight,
            ),
            engine: RwLock::new(engine),
            workers: workers as u32,
            persist_dir: config.persist_dir,
            update_log: config.update_log,
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
