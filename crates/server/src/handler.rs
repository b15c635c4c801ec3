//! Per-connection frame reader + per-request job execution (pipelined
//! wire, v4+).
//!
//! Under the pipelined protocol a connection no longer pins a worker.
//! Each accepted connection gets a lightweight **reader** (spawned by the
//! accept loop) that parses frames, authenticates them, and enqueues one
//! `Job` per request into the shared worker queue; the worker pool
//! executes requests from *all* connections interleaved and writes each
//! response — tagged with its request id — back through the connection's
//! shared writer. Responses therefore leave in completion order, not
//! arrival order, and a slow query on one connection never blocks another
//! connection's (or even the same connection's) cheap requests.
//!
//! The machinery is generic over a (crate-private) `ServiceHost` trait so
//! the same framing, limits, auth check, and shutdown discipline — one
//! `Host` struct both embed — serve both hosts in this crate: the
//! engine-backed [`crate::Server`] and the fan-out [`crate::Router`]. Request execution itself goes through
//! [`rtk_api::service::dispatch_request`] against each host's
//! [`rtk_api::RtkService`] view — the request enum is never matched here.

use crate::chaos::ChaosState;
use crate::metrics::{RequestKind, ServerMetrics};
use crate::wire::{
    self, constant_time_eq, Request, Response, STATUS_BUSY, STATUS_PROTOCOL_ERROR,
    STATUS_UNAUTHORIZED,
};
use rtk_sparse::codec::{self, DecodeError};
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Poll interval for idle connections: reads time out this often so the
/// reader can notice a shutdown without a byte arriving.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Cap on how long one response write may block. A client that stops
/// reading would otherwise pin a worker forever (writes, unlike reads, are
/// not shutdown-polled) — after this long the write fails and the response
/// is dropped with the connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The serving state every wire host owns: limits, metrics, the shutdown
/// flag, the optional auth token, and the connection counter.
pub(crate) struct Host {
    /// The host's request metrics.
    pub(crate) metrics: ServerMetrics,
    /// The shutdown flag the readers poll.
    pub(crate) shutdown: AtomicBool,
    /// Per-frame payload cap, both directions.
    pub(crate) max_frame_bytes: u32,
    /// When set, every request's token must match (constant-time compare).
    /// Kept as the original string: a router also presents it to backends.
    pub(crate) auth_token: Option<String>,
    /// Admitted (reader alive) connection counter.
    pub(crate) active_connections: AtomicU64,
    /// Backpressure cap on connections (`0` = unlimited).
    pub(crate) max_connections: usize,
    /// Pipeline-depth cap per connection (`0` = unlimited): requests
    /// arriving while this many are already in flight on the connection
    /// are answered with a `busy` frame instead of queuing.
    pub(crate) max_inflight: usize,
    /// Where the listener is bound — used to self-connect on shutdown so a
    /// blocked `accept` wakes up without busy-polling.
    pub(crate) local_addr: SocketAddr,
}

impl Host {
    pub(crate) fn new(
        local_addr: SocketAddr,
        max_frame_bytes: u32,
        auth_token: Option<String>,
        max_connections: usize,
        max_inflight: usize,
    ) -> Self {
        Self {
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            max_frame_bytes,
            auth_token,
            active_connections: AtomicU64::new(0),
            max_connections,
            max_inflight,
            local_addr,
        }
    }

    /// Whether shutdown has been requested.
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flags shutdown and wakes the accept loop.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_acceptor(self.local_addr);
    }
}

/// Connects to the (possibly wildcard-bound) listener so a blocked `accept`
/// returns and observes the shutdown flag.
fn wake_acceptor(mut wake: SocketAddr) {
    // Wildcard binds (0.0.0.0 / ::) are not connectable addresses on
    // every platform — wake the acceptor through loopback instead.
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect(wake);
}

/// What a process serving the wire protocol provides to the shared
/// connection machinery: its [`Host`] state and the request dispatcher.
pub(crate) trait ServiceHost: Send + Sync + 'static {
    /// Limits, metrics, shutdown flag, auth token.
    fn host(&self) -> &Host;
    /// Deterministic fault injection, when configured (`rtk serve
    /// --chaos`). The default host serves faithfully.
    fn chaos(&self) -> Option<&ChaosState> {
        None
    }
    /// Executes one (already authenticated) request.
    fn dispatch(&self, request: Request) -> (RequestKind, Response);
}

/// The write half of a connection, shared between its reader and every
/// worker holding one of its in-flight requests.
pub(crate) struct Conn {
    /// Serializes response frames — a frame must hit the socket whole.
    writer: Mutex<TcpStream>,
    /// Requests currently in flight on this connection.
    inflight: AtomicU64,
}

impl Conn {
    /// Writes one response frame under the writer lock.
    fn send(&self, request_id: u64, response: &Response) -> io::Result<()> {
        self.send_encoded(request_id, &wire::encode_response(response))
    }

    /// Writes pre-encoded response bytes under the writer lock. A failed
    /// (or timed-out) write may leave a partial frame on the socket, after
    /// which the byte stream cannot be resynchronized — so the whole
    /// connection is shut down: the reader sees EOF and exits, the peer
    /// sees a closed stream instead of interleaved garbage, and every
    /// remaining in-flight response fails fast the same way.
    fn send_encoded(&self, request_id: u64, encoded: &[u8]) -> io::Result<()> {
        let mut writer = self.writer.lock().expect("connection writer lock");
        let result = wire::write_frame(&mut *writer, request_id, encoded);
        if result.is_err() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        result
    }
}

/// One decoded, authenticated request waiting for (or running on) a worker.
pub(crate) struct Job {
    conn: Arc<Conn>,
    request_id: u64,
    request: Request,
    /// When the reader accepted the frame — latency is measured from here,
    /// so queue wait under load is part of the reported percentiles.
    accepted: Instant,
}

/// Executes one job on a worker: dispatch, frame-limit check, metrics,
/// response write (tagged with the job's request id), inflight bookkeeping,
/// and — for an acknowledged shutdown — flipping the host's flag *after*
/// the acknowledgement is on the wire.
pub(crate) fn execute_job<H: ServiceHost>(job: Job, ctx: &H) {
    let Job { conn, request_id, request, accepted } = job;
    let host = ctx.host();
    let kind = request.kind();
    // A panicking request costs one error response, not the worker: the
    // bookkeeping below must run or the connection's inflight count and the
    // waiting client are stranded. Unwind safety: everything a host shares
    // sits behind locks and atomics, and lock poisoning is left alone — after
    // a panic under the engine's write lock every later request fails loudly.
    let dispatched = std::panic::catch_unwind(AssertUnwindSafe(|| ctx.dispatch(request).1));
    let response = dispatched.unwrap_or_else(|_| {
        // The panic hook has already logged the message and its location.
        let message = format!("internal error: the {} handler panicked", kind.name());
        Response::Error { code: wire::STATUS_ENGINE_ERROR, message }
    });
    // A response that cannot fit through the frame limit is replaced by an
    // error frame: sending it anyway would only be rejected client-side
    // after the transfer.
    let mut encoded = wire::encode_response(&response);
    if encoded.len() as u64 > u64::from(host.max_frame_bytes) {
        let err = Response::Error {
            code: wire::STATUS_ENGINE_ERROR,
            message: format!(
                "response of {} bytes exceeds the {}-byte frame limit; split the request",
                encoded.len(),
                host.max_frame_bytes
            ),
        };
        encoded = wire::encode_response(&err);
        host.metrics.record_engine_error();
    } else if matches!(response, Response::Error { code: wire::STATUS_ENGINE_ERROR, .. }) {
        host.metrics.record_engine_error();
    } else {
        host.metrics.record_request(kind, accepted.elapsed().as_secs_f64());
    }
    // Chaos: the request *executed* (engine state is whatever it would
    // have been) — only the answer goes missing or late, exactly the
    // failure a crashed-after-commit or stalled backend produces.
    if let Some(chaos) = ctx.chaos() {
        if chaos.drop_response() {
            conn.inflight.fetch_sub(1, Ordering::AcqRel);
            host.metrics.end_request();
            if kind == RequestKind::Shutdown {
                host.begin_shutdown();
            }
            return;
        }
        if let Some(delay) = chaos.delay_response() {
            std::thread::sleep(delay);
        }
    }
    // A failed write means the connection died; the reader notices on its
    // side and the remaining in-flight responses fail the same way.
    let _ = conn.send_encoded(request_id, &encoded);
    conn.inflight.fetch_sub(1, Ordering::AcqRel);
    host.metrics.end_request();
    if kind == RequestKind::Shutdown {
        host.begin_shutdown();
    }
}

/// What one attempt to read a full frame produced.
enum FrameOutcome {
    /// A complete frame: `(request_id, payload)`.
    Frame(u64, Vec<u8>),
    /// Peer closed (or shutdown arrived while the connection was idle).
    Closed,
    /// The stream contained garbage or violated limits. The id is the
    /// offending frame's request id when the header got far enough to
    /// carry one, else `0`.
    Malformed(u64, DecodeError),
}

/// Reads one client connection until EOF, protocol error, auth failure, or
/// shutdown, feeding decoded requests into the worker queue. Responses are
/// written by the workers (out of order); this reader only ever writes
/// *connection-level* error frames and `busy` rejections.
pub(crate) fn read_connection<H: ServiceHost>(stream: TcpStream, ctx: &H, jobs: mpsc::Sender<Job>) {
    let host = ctx.host();
    host.metrics.record_connection();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(writer) = stream.try_clone() else {
        return; // no usable write half — nothing can be answered anyway
    };
    let conn = Arc::new(Conn { writer: Mutex::new(writer), inflight: AtomicU64::new(0) });
    let mut reader = stream;
    let mut frames_read = 0u64;
    loop {
        match read_frame_polling(&mut reader, host) {
            FrameOutcome::Closed => break,
            FrameOutcome::Malformed(id, e) => {
                // A corrupt frame must not take the server down: count it,
                // tell the peer if the socket still works, drop the
                // connection (resynchronizing a byte stream after garbage
                // is not possible), and keep serving everyone else.
                host.metrics.record_protocol_error();
                let resp = Response::Error {
                    code: STATUS_PROTOCOL_ERROR,
                    message: format!("malformed frame: {e}"),
                };
                let _ = conn.send(id, &resp);
                break;
            }
            FrameOutcome::Frame(request_id, payload) => {
                frames_read += 1;
                let accepted = Instant::now();
                let (token, request) = match wire::decode_request(&payload) {
                    Ok(r) => r,
                    Err(e) => {
                        host.metrics.record_protocol_error();
                        let resp = Response::Error {
                            code: STATUS_PROTOCOL_ERROR,
                            message: format!("malformed request: {e}"),
                        };
                        let _ = conn.send(request_id, &resp);
                        break;
                    }
                };
                // Auth gate: with a token configured, every request —
                // including shutdown — must present a matching one. The
                // compare is constant-time so timing does not leak prefix
                // matches; the connection is dropped after one failure.
                if let Some(expected) = host.auth_token.as_deref() {
                    if !constant_time_eq(expected.as_bytes(), &token) {
                        host.metrics.record_auth_failure();
                        let resp = Response::Error {
                            code: STATUS_UNAUTHORIZED,
                            message: "auth token missing or mismatched".to_string(),
                        };
                        let _ = conn.send(request_id, &resp);
                        break;
                    }
                }
                // Pipeline-depth cap: over the cap the request is answered
                // `busy` immediately and the connection stays up — the
                // client backs off and re-submits; admitted requests keep
                // their latency.
                let cap = host.max_inflight;
                if cap > 0 && conn.inflight.load(Ordering::Acquire) >= cap as u64 {
                    host.metrics.record_inflight_rejection();
                    let resp = Response::Error {
                        code: STATUS_BUSY,
                        message: format!(
                            "connection at its pipeline-depth cap ({cap} requests in flight); \
                             wait for responses before submitting more"
                        ),
                    };
                    if conn.send(request_id, &resp).is_err() {
                        break;
                    }
                    continue;
                }
                conn.inflight.fetch_add(1, Ordering::AcqRel);
                host.metrics.begin_request();
                let job = Job { conn: Arc::clone(&conn), request_id, request, accepted };
                if jobs.send(job).is_err() {
                    // Worker pool gone (shutdown drained) — undo the
                    // bookkeeping for the job that will never run.
                    conn.inflight.fetch_sub(1, Ordering::AcqRel);
                    host.metrics.end_request();
                    break;
                }
            }
        }
        // Chaos: sever the whole connection after N frames — in-flight
        // responses are cut off mid-conversation, the failure a crashing
        // backend hands a pipelining router.
        if let Some(limit) = ctx.chaos().and_then(|c| c.close_after_frames()) {
            if frames_read >= limit {
                let _ = conn
                    .writer
                    .lock()
                    .expect("connection writer lock")
                    .shutdown(std::net::Shutdown::Both);
                break;
            }
        }
        if host.shutting_down() {
            break;
        }
    }
}

/// Reads one frame, polling so an idle connection notices shutdown.
///
/// Only the *first* byte of a frame is allowed to wait indefinitely; once a
/// frame has started, timeouts keep retrying (the peer is mid-write) unless
/// shutdown is requested, in which case the connection is abandoned.
fn read_frame_polling(stream: &mut TcpStream, host: &Host) -> FrameOutcome {
    // Header: magic + version + request id + payload length.
    let mut header = [0u8; wire::FRAME_HEADER_BYTES];
    match read_exact_polling(stream, &mut header, true, host) {
        ReadStatus::Done => {}
        ReadStatus::Closed => return FrameOutcome::Closed,
        ReadStatus::Failed(e) => return FrameOutcome::Malformed(0, DecodeError::Io(e)),
    }
    let mut cursor = io::Cursor::new(&header[..]);
    match codec::read_header(&mut cursor, wire::WIRE_MAGIC, wire::WIRE_VERSION) {
        // Older peers must fail loudly too: the frame header itself grew
        // the request-id field in v4, so a v3 frame would otherwise be
        // misparsed instead of rejected.
        Ok(version) if version != wire::WIRE_VERSION => {
            return FrameOutcome::Malformed(
                0,
                DecodeError::UnsupportedVersion { found: version, supported: wire::WIRE_VERSION },
            );
        }
        Ok(_) => {}
        Err(e) => return FrameOutcome::Malformed(0, e),
    }
    let request_id = match codec::read_u64(&mut cursor) {
        Ok(id) => id,
        Err(e) => return FrameOutcome::Malformed(0, DecodeError::Io(e)),
    };
    let len = match codec::read_u32(&mut cursor) {
        Ok(l) => l,
        Err(e) => return FrameOutcome::Malformed(request_id, DecodeError::Io(e)),
    };
    if len > host.max_frame_bytes {
        return FrameOutcome::Malformed(
            request_id,
            DecodeError::Corrupt(format!(
                "frame payload of {len} bytes exceeds limit {}",
                host.max_frame_bytes
            )),
        );
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_polling(stream, &mut payload, false, host) {
        ReadStatus::Done => FrameOutcome::Frame(request_id, payload),
        ReadStatus::Closed => FrameOutcome::Malformed(
            request_id,
            DecodeError::Corrupt("frame truncated mid-payload".into()),
        ),
        ReadStatus::Failed(e) => FrameOutcome::Malformed(request_id, DecodeError::Io(e)),
    }
}

enum ReadStatus {
    Done,
    Closed,
    Failed(io::Error),
}

/// `read_exact` over a timeout-polled socket. `idle_ok` marks the position
/// between frames, where EOF and shutdown are clean exits.
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    idle_ok: bool,
    host: &Host,
) -> ReadStatus {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && idle_ok {
                    ReadStatus::Closed
                } else {
                    ReadStatus::Failed(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                };
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if host.shutting_down() {
                    // Idle between frames: clean close. Mid-frame: abandon.
                    return if filled == 0 && idle_ok {
                        ReadStatus::Closed
                    } else {
                        ReadStatus::Failed(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "server shutting down mid-frame",
                        ))
                    };
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return ReadStatus::Failed(e),
        }
    }
    ReadStatus::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// Answers `ping` and `shutdown`; panics on every other kind.
    struct PanickyHost(Host);

    impl ServiceHost for PanickyHost {
        fn host(&self) -> &Host {
            &self.0
        }
        fn dispatch(&self, request: Request) -> (RequestKind, Response) {
            match request {
                Request::Ping => (RequestKind::Ping, Response::Pong),
                Request::Shutdown => (RequestKind::Shutdown, Response::ShuttingDown),
                other => panic!("no handler for {}", other.kind().name()),
            }
        }
    }

    #[test]
    fn a_panicking_request_costs_one_error_frame_not_the_worker() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let host =
            Arc::new(PanickyHost(Host::new(addr, wire::DEFAULT_MAX_FRAME_BYTES, None, 0, 0)));
        let serving = {
            let host = Arc::clone(&host);
            std::thread::spawn(move || crate::server::serve_loop(listener, host, 1))
        };
        let mut client = Client::connect(addr).unwrap();
        let err = client.topk(0, 1, false).unwrap_err().to_string();
        assert_eq!(err, "server error: internal error: the topk handler panicked");
        // The pool's only worker outlived the panic and serves the next
        // requests; once it has drained, nothing is left in flight.
        client.ping().unwrap();
        client.shutdown().unwrap();
        serving.join().unwrap().unwrap();
        assert_eq!(host.0.metrics.inflight(), 0);
    }
}
