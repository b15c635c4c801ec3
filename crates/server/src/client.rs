//! Client for the `RTKWIRE1` protocol: blocking calls plus a pipelined
//! submit/wait surface (wire v4).

use crate::error::ServerError;
use crate::metrics::StatsSnapshot;
use crate::wire::{
    self, Request, Response, WireQueryResult, WireShardResult, WireTopk, WireUpdateResult,
    DEFAULT_MAX_FRAME_BYTES,
};
use rtk_api::service::{RtkService, ServiceError, ServiceResult};
use rtk_api::QueryCall;
use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connection to an `rtk-server` (or `rtk router` — the wire surface is
/// identical, which is what makes the router transparent).
///
/// Every request frame carries a client-chosen `u64` request id (wire v4),
/// so a connection may have **many requests in flight**: [`Client::submit`]
/// (and its typed sibling [`Client::submit_query`]) writes a frame and returns a
/// [`Pending`] handle immediately, [`Client::wait`] blocks until *that*
/// request's response arrives — re-associating out-of-order responses by
/// id and parking the ones that belong to other in-flight requests.
/// [`Client::batch`] drives N reverse top-k queries concurrently over
/// this one connection. The blocking methods ([`Client::reverse_topk`],
/// [`Client::stats`], …) are thin submit-then-wait wrappers.
///
/// ```
/// use rtk_core::ReverseTopkEngine;
/// use rtk_server::{Client, QueryCall, Server, ServerConfig};
///
/// // An in-process loopback server over the paper's toy graph.
/// let engine = ReverseTopkEngine::builder(rtk_datasets::toy_graph())
///     .max_k(3)
///     .hubs_per_direction(1)
///     .build()
///     .unwrap();
/// let handle = Server::bind(engine, "127.0.0.1:0", ServerConfig::default())
///     .unwrap()
///     .spawn();
///
/// let mut client = Client::connect(handle.addr()).unwrap();
/// client.ping().unwrap();
/// // Reverse top-2 of node 0 — the paper's running example: {0, 1, 4}.
/// let r = client.reverse_topk(0, 2, false).unwrap();
/// assert_eq!(r.nodes, vec![0, 1, 4]);
///
/// // The same two queries pipelined: both in flight at once.
/// let a = client.submit_query(&QueryCall::new(0, 2, false)).unwrap();
/// let b = client.submit_query(&QueryCall::new(1, 2, false)).unwrap();
/// let rb = client.wait(b).unwrap(); // waiting out of submit order is fine
/// let ra = client.wait(a).unwrap();
/// assert_eq!(ra.nodes, vec![0, 1, 4]);
/// assert_eq!(rb.query, 1);
///
/// client.shutdown().unwrap();
/// handle.join().unwrap();
/// ```
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_frame_bytes: u32,
    auth_token: Vec<u8>,
    /// Next request id to assign (ids start at 1; id 0 is reserved for
    /// connection-level server errors that precede any request).
    next_id: u64,
    /// Ids submitted but not yet answered.
    outstanding: HashSet<u64>,
    /// Responses that arrived while waiting for a different id.
    parked: HashMap<u64, Response>,
}

/// Handle to one in-flight request: redeem it with [`Client::wait`]. The
/// type parameter is the decoded response shape; the handle is consumed by
/// `wait`, so a response cannot be claimed twice.
#[derive(Debug)]
pub struct Pending<T> {
    id: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Pending<T> {
    /// The wire request id this handle is waiting on.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Conversion from a raw [`Response`] to a typed result — what
/// [`Client::wait`] runs after re-associating a response with its request.
pub trait FromResponse: Sized {
    /// Decodes `resp` into `Self`, mapping `Response::Error` to
    /// [`ServerError::Remote`].
    fn from_response(resp: Response) -> Result<Self, ServerError>;
}

fn remote_err<T>(resp: Response, wanted: &str) -> Result<T, ServerError> {
    match resp {
        Response::Error { code: _, message } => Err(ServerError::Remote(message)),
        other => Err(unexpected(wanted, &other)),
    }
}

impl FromResponse for Response {
    /// Identity: application errors stay values — the raw escape hatch the
    /// router's fan-out is built on.
    fn from_response(resp: Response) -> Result<Self, ServerError> {
        Ok(resp)
    }
}

impl FromResponse for WireQueryResult {
    fn from_response(resp: Response) -> Result<Self, ServerError> {
        match resp {
            Response::ReverseTopk(r) => Ok(r),
            other => remote_err(other, "reverse_topk result"),
        }
    }
}

impl FromResponse for WireShardResult {
    fn from_response(resp: Response) -> Result<Self, ServerError> {
        match resp {
            Response::ShardReverseTopk(r) => Ok(r),
            other => remote_err(other, "shard_reverse_topk result"),
        }
    }
}

impl FromResponse for WireTopk {
    fn from_response(resp: Response) -> Result<Self, ServerError> {
        match resp {
            Response::Topk(t) => Ok(t),
            other => remote_err(other, "topk result"),
        }
    }
}

impl FromResponse for WireUpdateResult {
    fn from_response(resp: Response) -> Result<Self, ServerError> {
        match resp {
            Response::Updated(u) => Ok(u),
            other => remote_err(other, "update ack"),
        }
    }
}

impl FromResponse for StatsSnapshot {
    fn from_response(resp: Response) -> Result<Self, ServerError> {
        match resp {
            Response::Stats(s) => Ok(*s),
            other => remote_err(other, "stats snapshot"),
        }
    }
}

/// Configures a [`Client`] before connecting: timeouts, framing limits,
/// and the auth token — the one place every `rtk remote` flag lands.
///
/// ```no_run
/// use rtk_server::Client;
/// use std::time::Duration;
///
/// let mut client = Client::builder()
///     .timeout(Duration::from_secs(30)) // connect + per-call I/O
///     .auth_token("tier-secret")
///     .connect("127.0.0.1:7313")
///     .unwrap();
/// client.ping().unwrap();
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClientBuilder {
    connect_timeout: Option<Duration>,
    io_timeout: Option<Duration>,
    max_frame_bytes: Option<u32>,
    auth_token: Option<String>,
}

impl ClientBuilder {
    /// Starts a default-configured builder (no timeouts, default frame
    /// cap, unauthenticated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the TCP connect.
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Bounds every socket read/write, so a hung peer cannot block a call
    /// forever.
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// Sets both the connect and the I/O timeout (`rtk remote --timeout`).
    pub fn timeout(self, timeout: Duration) -> Self {
        self.connect_timeout(timeout).io_timeout(timeout)
    }

    /// Overrides the response-frame size cap (e.g. for very large graphs,
    /// whose shipped PMPN vectors grow with the node count).
    pub fn max_frame_bytes(mut self, bytes: u32) -> Self {
        self.max_frame_bytes = Some(bytes);
        self
    }

    /// Shared-secret token carried by every request.
    pub fn auth_token(mut self, token: &str) -> Self {
        self.auth_token = Some(token.to_string());
        self
    }

    /// Connects to `addr` with this configuration.
    pub fn connect<A: ToSocketAddrs>(self, addr: A) -> Result<Client, ServerError> {
        let stream = match self.connect_timeout {
            None => TcpStream::connect(&addr)?,
            Some(timeout) => {
                // connect_timeout needs concrete addresses; try each
                // resolution until one answers.
                let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
                let mut last = None;
                let mut stream = None;
                for a in &addrs {
                    match TcpStream::connect_timeout(a, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::AddrNotAvailable,
                            "address resolved to nothing",
                        )
                    })
                })?
            }
        };
        let mut client = Client::from_stream(stream)?;
        if let Some(timeout) = self.io_timeout {
            client.set_io_timeout(Some(timeout))?;
        }
        if let Some(bytes) = self.max_frame_bytes {
            client.set_max_frame_bytes(bytes);
        }
        if let Some(token) = &self.auth_token {
            client.set_auth_token(token);
        }
        Ok(client)
    }
}

impl Client {
    /// Starts configuring a client (timeouts, auth, frame cap).
    pub fn builder() -> ClientBuilder {
        ClientBuilder::new()
    }

    /// Connects to `addr` with default framing limits and no timeouts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServerError> {
        ClientBuilder::new().connect(addr)
    }

    fn from_stream(stream: TcpStream) -> Result<Self, ServerError> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            auth_token: Vec::new(),
            next_id: 1,
            outstanding: HashSet::new(),
            parked: HashMap::new(),
        })
    }

    /// Overrides the response-frame size cap (e.g. for very large graphs,
    /// whose shipped PMPN vectors grow with the node count).
    pub fn set_max_frame_bytes(&mut self, bytes: u32) {
        self.max_frame_bytes = bytes;
    }

    /// Sets (or clears, with `None`) a read/write timeout on the underlying
    /// socket, bounding how long any single call can block on a hung peer.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServerError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Sets the shared-secret auth token carried by every subsequent
    /// request (capped at [`wire::MAX_AUTH_TOKEN_BYTES`] bytes — servers
    /// reject longer tokens at startup, so a matching token always fits).
    /// Required when the server was started with `--auth-token`; harmless
    /// otherwise (unauthenticated servers ignore the field).
    pub fn set_auth_token(&mut self, token: &str) {
        self.auth_token = token.as_bytes().to_vec();
    }

    /// Number of requests submitted on this connection and not yet waited
    /// to completion.
    pub fn inflight(&self) -> usize {
        self.outstanding.len() + self.parked.len()
    }

    // ---- pipelined surface -------------------------------------------

    /// Writes one raw request frame under a fresh request id and returns
    /// immediately — the response is claimed later with [`Self::wait`].
    /// Any number of requests may be in flight on this connection (servers
    /// may cap the depth with `--max-inflight`, answering the excess with
    /// `busy` error frames).
    pub fn submit(&mut self, request: &Request) -> Result<Pending<Response>, ServerError> {
        self.submit_typed(request)
    }

    /// [`Self::submit`] with a typed handle for a reverse top-k query;
    /// update mode, tracing and the approximate screen are fields of `call`.
    ///
    /// Pipelining update-mode queries is allowed: result sets and
    /// proximities do not depend on execution order (refinement is
    /// monotone), but in-flight requests may *execute* in any order, so
    /// counter statistics can differ from a serial submission.
    pub fn submit_query(
        &mut self,
        call: &QueryCall,
    ) -> Result<Pending<WireQueryResult>, ServerError> {
        let QueryCall { q, k, update, trace, approx } = *call;
        self.submit_typed(&Request::ReverseTopk { q, k, update, trace, approx })
    }

    fn submit_typed<T>(&mut self, request: &Request) -> Result<Pending<T>, ServerError> {
        let id = self.next_id;
        wire::write_frame(
            &mut self.writer,
            id,
            &wire::encode_request_authed(request, &self.auth_token),
        )?;
        self.next_id += 1;
        self.outstanding.insert(id);
        Ok(Pending { id, _marker: PhantomData })
    }

    /// Blocks until the response for `pending` arrives and decodes it.
    /// Responses for *other* in-flight requests that arrive first are
    /// parked and claimed by their own `wait` calls; a response carrying an
    /// id this connection never submitted (or already answered) is a
    /// protocol error — except connection-level error frames (e.g. a
    /// `busy` rejection at the accept cap, sent under id 0), which surface
    /// as [`ServerError::Remote`].
    pub fn wait<T: FromResponse>(&mut self, pending: Pending<T>) -> Result<T, ServerError> {
        let resp = self.recv_for(pending.id)?;
        T::from_response(resp)
    }

    fn recv_for(&mut self, id: u64) -> Result<Response, ServerError> {
        if let Some(resp) = self.parked.remove(&id) {
            return Ok(resp);
        }
        if !self.outstanding.contains(&id) {
            return Err(ServerError::Protocol(format!(
                "wait on unknown or already-completed request id {id}"
            )));
        }
        loop {
            let (rid, payload) = wire::read_frame(&mut self.reader, self.max_frame_bytes)?;
            let resp = wire::decode_response(&payload)?;
            if rid == id {
                self.outstanding.remove(&id);
                return Ok(resp);
            }
            if self.outstanding.remove(&rid) {
                // Out-of-order completion for another in-flight request:
                // park it for that request's own wait call.
                self.parked.insert(rid, resp);
                continue;
            }
            if let Response::Error { message, .. } = resp {
                // A connection-level rejection (id 0 busy frame, or an
                // error for a request this client no longer tracks).
                return Err(ServerError::Remote(message));
            }
            return Err(ServerError::Protocol(format!(
                "response for unknown or duplicate request id {rid}"
            )));
        }
    }

    /// Many independent frozen reverse top-k queries, answered in request
    /// order. Every query is submitted before any response is read, so all
    /// are in flight at once over this one connection and the server's
    /// whole worker pool (or a router's fan-out) works on them together.
    ///
    /// The batch succeeds or fails as a whole: it collects the response of
    /// every query it submitted — leaving nothing in flight — and then
    /// returns the first error in request order. Queries a server-side
    /// `--max-inflight` pipeline-depth cap answered `busy` are re-issued one
    /// at a time once the burst has drained (a single in-flight request is
    /// always admitted), so they still return their results.
    pub fn batch(&mut self, queries: &[(u32, u32)]) -> Result<Vec<WireQueryResult>, ServerError> {
        let pending: Vec<Pending<Response>> = queries
            .iter()
            .map(|&(q, k)| {
                self.submit(&Request::ReverseTopk {
                    q,
                    k,
                    update: false,
                    trace: false,
                    approx: None,
                })
            })
            .collect::<Result<_, _>>()?;
        // Collect the whole burst before re-issuing anything — a retry
        // while later submissions are still in flight could bounce off the
        // depth cap again.
        let answers: Vec<Response> =
            pending.into_iter().map(|p| self.wait(p)).collect::<Result<_, _>>()?;
        answers
            .into_iter()
            .zip(queries)
            .map(|(resp, &(q, k))| match resp {
                Response::Error { code: wire::STATUS_BUSY, .. } => self.reverse_topk(q, k, false),
                resp => WireQueryResult::from_response(resp),
            })
            .collect()
    }

    // ---- blocking wrappers -------------------------------------------

    /// Sends one raw request and returns the raw response — the escape
    /// hatch the router's fan-out is built on. Application errors come back
    /// as [`Response::Error`] (not `Err`); transport and protocol failures
    /// are `Err`.
    pub fn request(&mut self, request: &Request) -> Result<Response, ServerError> {
        let pending = self.submit(request)?;
        self.wait(pending)
    }

    fn call(&mut self, request: &Request) -> Result<Response, ServerError> {
        match self.request(request)? {
            Response::Error { code: _, message } => Err(ServerError::Remote(message)),
            resp => Ok(resp),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServerError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// One reverse top-k query. `call.update` commits refinements into the
    /// server's index (serialized through the server's write lock); with
    /// `call.trace` the answer's `trace` field carries the span tree of
    /// every hop that served it; with `call.approx` (wire v8) candidates
    /// farther than ε from their top-k decision boundary are classified by
    /// the bidirectional estimator, only the ε-band falls back to exact
    /// refinement, and the answer's `approx` field reports the usage split.
    pub fn query(&mut self, call: &QueryCall) -> Result<WireQueryResult, ServerError> {
        let pending = self.submit_query(call)?;
        self.wait(pending)
    }

    /// Shorthand for an untraced, exact [`Self::query`].
    pub fn reverse_topk(
        &mut self,
        q: u32,
        k: u32,
        update: bool,
    ) -> Result<WireQueryResult, ServerError> {
        self.query(&QueryCall::new(q, k, update))
    }

    /// Shorthand for a traced, exact [`Self::query`].
    pub fn reverse_topk_traced(
        &mut self,
        q: u32,
        k: u32,
        update: bool,
    ) -> Result<WireQueryResult, ServerError> {
        self.query(&QueryCall { trace: true, ..QueryCall::new(q, k, update) })
    }

    /// The shard-scoped slice of one reverse top-k query: only the
    /// receiving backend's shard range is screened, against `pmpn` when
    /// given; `want_pmpn` asks for the PMPN solve alone instead. Answered
    /// by `rtk serve --shard-only` backends; the router sends these and
    /// merges.
    pub fn shard_query(
        &mut self,
        call: &QueryCall,
        pmpn: Option<&[f64]>,
        want_pmpn: bool,
    ) -> Result<WireShardResult, ServerError> {
        let QueryCall { q, k, update, trace, approx } = *call;
        let pmpn = pmpn.map(<[f64]>::to_vec);
        let pending = self.submit_typed(&Request::ShardReverseTopk {
            q,
            k,
            update,
            trace,
            approx,
            pmpn,
            want_pmpn,
        })?;
        self.wait(pending)
    }

    /// Inserts (or accumulates onto) the edge `from -> to` on the server
    /// and incrementally repairs its index, serialized through the server's
    /// write lock (wire v7). A router applies the update to every shard
    /// backend's stable owner and reports the combined effect.
    pub fn add_edge(
        &mut self,
        from: u32,
        to: u32,
        weight: f64,
    ) -> Result<WireUpdateResult, ServerError> {
        let pending = self.submit(&Request::AddEdge { from, to, weight })?;
        let resp = self.wait(pending)?;
        WireUpdateResult::from_response(resp)
    }

    /// Removes the edge `from -> to` on the server (wire v7); fails loudly
    /// if the edge does not exist or removal would orphan `from`.
    pub fn remove_edge(&mut self, from: u32, to: u32) -> Result<WireUpdateResult, ServerError> {
        let pending = self.submit(&Request::RemoveEdge { from, to })?;
        let resp = self.wait(pending)?;
        WireUpdateResult::from_response(resp)
    }

    /// Forward top-k proximity search from `u`.
    pub fn topk(&mut self, u: u32, k: u32, early: bool) -> Result<WireTopk, ServerError> {
        let pending = self.submit_typed(&Request::Topk { u, k, early })?;
        self.wait(pending)
    }

    /// Server metrics + engine info.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServerError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(unexpected("stats snapshot", &other)),
        }
    }

    /// Asks the server to flush its current (refined) engine snapshot to
    /// `path` on the **server's** filesystem, under the server's write
    /// lock. Returns the snapshot size in bytes.
    pub fn persist(&mut self, path: &str) -> Result<u64, ServerError> {
        match self.call(&Request::Persist { path: path.to_string() })? {
            Response::Persisted { bytes } => Ok(bytes),
            other => Err(unexpected("persist ack", &other)),
        }
    }

    /// Asks the server to shut down gracefully. Returns once the server
    /// acknowledges; pair with [`crate::ServerHandle::join`] to wait for
    /// the drain to finish.
    pub fn shutdown(&mut self) -> Result<(), ServerError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown ack", &other)),
        }
    }
}

/// The remote [`RtkService`]: every trait call is one wire round-trip, so
/// code written against the trait (the CLI's `rtk remote`, embedders)
/// drives a remote server or router exactly like a local engine.
impl RtkService for Client {
    fn ping(&mut self) -> ServiceResult<()> {
        Client::ping(self).map_err(transport)
    }

    fn reverse_topk(&mut self, call: &QueryCall) -> ServiceResult<WireQueryResult> {
        self.query(call).map_err(transport)
    }

    fn shard_reverse_topk(
        &mut self,
        call: &QueryCall,
        pmpn: Option<&[f64]>,
        want_pmpn: bool,
    ) -> ServiceResult<WireShardResult> {
        self.shard_query(call, pmpn, want_pmpn).map_err(transport)
    }

    fn add_edge(&mut self, from: u32, to: u32, weight: f64) -> ServiceResult<WireUpdateResult> {
        Client::add_edge(self, from, to, weight).map_err(transport)
    }

    fn remove_edge(&mut self, from: u32, to: u32) -> ServiceResult<WireUpdateResult> {
        Client::remove_edge(self, from, to).map_err(transport)
    }

    fn topk(&mut self, u: u32, k: u32, early: bool) -> ServiceResult<WireTopk> {
        Client::topk(self, u, k, early).map_err(transport)
    }

    fn stats(&mut self) -> ServiceResult<StatsSnapshot> {
        Client::stats(self).map_err(transport)
    }

    fn persist(&mut self, path: &str) -> ServiceResult<u64> {
        Client::persist(self, path).map_err(transport)
    }

    fn shutdown(&mut self) -> ServiceResult<()> {
        Client::shutdown(self).map_err(transport)
    }
}

/// Maps a client error onto the service vocabulary: the server's own
/// rejections stay engine errors, everything else is transport.
fn transport(e: ServerError) -> ServiceError {
    match e {
        ServerError::Remote(m) => ServiceError::Engine(m),
        other => ServiceError::Transport(other.to_string()),
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServerError {
    let variant = match got {
        Response::Pong => "pong",
        Response::ReverseTopk(_) => "reverse_topk",
        Response::Topk(_) => "topk",
        Response::Stats(_) => "stats",
        Response::ShuttingDown => "shutting_down",
        Response::Persisted { .. } => "persisted",
        Response::ShardReverseTopk(_) => "shard_reverse_topk",
        Response::Updated(_) => "updated",
        Response::Error { .. } => "error",
    };
    ServerError::Protocol(format!("expected {wanted}, got {variant} response"))
}
