//! The `RTKWIRE1` wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! magic      "RTKWIRE1"               8 bytes
//! version    u32 ([`WIRE_VERSION`])  4 bytes   (must match exactly)
//! request_id u64                      8 bytes   (echoed on the response)
//! length     u32 payload byte count   4 bytes   (bounded by the receiver)
//! payload    `length` bytes
//! ```
//!
//! The **request id** is what makes the protocol pipelined: a connection
//! may have many requests in flight, the server answers each frame with the
//! same id it arrived under, and responses may come back in *any order* —
//! the client re-associates them by id. Ids are chosen by the client; the
//! server treats them as opaque and echoes them verbatim. Connection-level
//! failures that precede any readable id (bad magic, busy-at-accept) are
//! answered under id `0`.
//!
//! Payloads are built exclusively from [`rtk_sparse::codec`] primitives
//! (little-endian scalars and `u64`-length-prefixed sequences), so the wire
//! format shares its auditability and its hardened bounded decoding with the
//! on-disk graph/index formats. The receiver rejects any frame whose
//! declared length exceeds its configured cap *before* allocating, and every
//! sequence inside a payload is decoded with a payload-derived bound.
//!
//! Request payloads start with a length-prefixed **auth token** (empty when
//! the deployment runs unauthenticated), then a `u32` tag ([`Request`]);
//! response payloads start with a `u32` status — `0` for success followed by
//! the body, nonzero for an error followed by a message string
//! ([`Response`]). The request/response *model* lives in [`rtk_api::model`];
//! this module is only the bytes. See `docs/FORMATS.md` for the normative
//! byte-level spec.

use crate::error::ServerError;
use rtk_sparse::codec::{self, DecodeError};
use std::io::{Cursor, Read, Write};

pub use rtk_api::model::{
    ApproxParams, Request, Response, StatsSnapshot, WireApproxStats, WireQueryResult,
    WireShardResult, WireTopk, WireUpdateResult, MAX_AUTH_TOKEN_BYTES, MAX_PERSIST_PATH_BYTES,
    STATUS_BUSY, STATUS_ENGINE_ERROR, STATUS_OK, STATUS_PROTOCOL_ERROR, STATUS_UNAUTHORIZED,
};

/// Magic tag opening every frame.
pub const WIRE_MAGIC: &[u8; 8] = b"RTKWIRE1";
/// Current protocol version; peers must match it exactly (see
/// [`read_frame`]). 2 added `persist`, per-shard stats, and the `busy`
/// backpressure status; 3 the shard-scoped `shard_reverse_topk` pair and
/// the per-request auth-token field; 4 made the protocol **pipelined**: a
/// `u64` request id in every frame header, out-of-order responses, and the
/// `inflight_peak` / `inflight_rejections` stats fields; 5 the
/// replicated-router health triple `unhealthy_backends` /
/// `hedged_requests` / `failovers`; 6 the opt-in **trace** on
/// `reverse_topk` / `shard_reverse_topk` and the per-kind latency section
/// of the stats snapshot; 7 the dynamic-graph update pair `add_edge` /
/// `remove_edge`, the `updated` response, and the update counters +
/// `index_digest` stats fields; 8 the **tail-flags word** on query
/// requests and responses (trace, approx knob and counters, shipped and
/// returned PMPN vectors, `want_pmpn`) and the approx stats counters; 9
/// made those counters plain fixed fields of the stats snapshot; 10, with
/// the same bytes, made `want_pmpn` **solve-only** — the backend answers
/// with its PMPN vector and an empty partial answer, no screen; 11 dropped
/// the stats snapshot's per-kind request counters and `latency_count`,
/// which repeated the per-kind latency records' counts; 12 retired the
/// `batch` request and response (tag 3) and its `batch` request kind —
/// many queries on one connection are pipelined `reverse_topk` requests.
pub const WIRE_VERSION: u32 = 12;
/// Default per-frame payload cap (16 MiB) — generous for shipped PMPN
/// vectors, small enough that a malicious length prefix cannot balloon
/// memory.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Byte size of the fixed frame header (magic + version + request id +
/// payload length).
pub const FRAME_HEADER_BYTES: usize = 8 + 4 + 8 + 4;

/// Request tags (first `u32` of a request payload, after the auth token).
const TAG_PING: u32 = 0;
const TAG_REVERSE_TOPK: u32 = 1;
const TAG_TOPK: u32 = 2;
// Tag 3 (the `batch` request, retired in v12) stays unassigned.
const TAG_STATS: u32 = 4;
const TAG_SHUTDOWN: u32 = 5;
const TAG_PERSIST: u32 = 6;
const TAG_SHARD_REVERSE_TOPK: u32 = 7;
const TAG_ADD_EDGE: u32 = 8;
const TAG_REMOVE_EDGE: u32 = 9;

/// Tail-flags bits. On requests the word follows the fixed fields of
/// `reverse_topk` / `shard_reverse_topk`; on responses it follows the
/// fixed query result. Each set bit announces one optional section,
/// appended in bit order. The word itself is trailing-optional: a payload
/// that ends at the fixed fields means "no flags set", so a plain query
/// pays no bytes for the features it does not use.
const FLAG_TRACE: u32 = 1;
/// Approx knob on requests (`f64` ε, `u32` walks, `u64` seed); approx
/// counter block on responses (3 × `u64`).
const FLAG_APPROX: u32 = 1 << 1;
/// PMPN vector section (`u64` count + that many `f64`s): router-shipped
/// on shard requests, backend-returned on shard responses.
const FLAG_PMPN: u32 = 1 << 2;
/// Shard requests only: solve PMPN alone and return the vector (v10).
const FLAG_WANT_PMPN: u32 = 1 << 3;

/// Writes one frame (header + length-prefixed payload) carrying
/// `request_id`. Fails (rather than silently truncating the length prefix)
/// when the payload cannot be described by the `u32` length field.
pub fn write_frame<W: Write>(w: &mut W, request_id: u64, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds the u32 frame length field", payload.len()),
        )
    })?;
    codec::write_header(w, WIRE_MAGIC, WIRE_VERSION)?;
    codec::write_u64(w, request_id)?;
    codec::write_u32(w, len)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, rejecting payloads larger than `max_frame_bytes` before
/// allocating; returns `(request_id, payload)`. The caller is responsible
/// for distinguishing clean EOF (no bytes at all) from a truncated frame.
pub fn read_frame<R: Read>(r: &mut R, max_frame_bytes: u32) -> Result<(u64, Vec<u8>), DecodeError> {
    let version = codec::read_header(r, WIRE_MAGIC, WIRE_VERSION)?;
    // The conversation is versioned as a whole: the frame header itself
    // changed in v4 (the request-id field), so an *older* peer must fail
    // loudly here rather than have its frames misparsed.
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version, supported: WIRE_VERSION });
    }
    let request_id = codec::read_u64(r)?;
    let len = codec::read_u32(r)?;
    if len > max_frame_bytes {
        return Err(DecodeError::Corrupt(format!(
            "frame payload of {len} bytes exceeds limit {max_frame_bytes}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((request_id, payload))
}

/// Encodes a request payload with an empty auth-token field (the
/// unauthenticated form of [`encode_request_authed`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_request_authed(req, b"")
}

/// Encodes a request payload. Every request starts with the
/// length-prefixed `token` (empty when the deployment runs
/// unauthenticated); servers started with an auth token reject requests
/// whose token does not match (constant-time compare, counted in
/// `auth_failures`).
pub fn encode_request_authed(req: &Request, token: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let w = &mut out;
    codec::write_bytes(w, token).unwrap();
    match req {
        Request::Ping => codec::write_u32(w, TAG_PING).unwrap(),
        Request::ReverseTopk { q, k, update, trace, approx } => {
            codec::write_u32(w, TAG_REVERSE_TOPK).unwrap();
            codec::write_u32(w, *q).unwrap();
            codec::write_u32(w, *k).unwrap();
            codec::write_u32(w, u32::from(*update)).unwrap();
            // The tail-flags word is trailing-optional: plain requests
            // omit it entirely.
            write_request_tail(w, *trace, approx.as_ref(), None, false);
        }
        Request::ShardReverseTopk { q, k, update, trace, approx, pmpn, want_pmpn } => {
            codec::write_u32(w, TAG_SHARD_REVERSE_TOPK).unwrap();
            codec::write_u32(w, *q).unwrap();
            codec::write_u32(w, *k).unwrap();
            codec::write_u32(w, u32::from(*update)).unwrap();
            write_request_tail(w, *trace, approx.as_ref(), pmpn.as_deref(), *want_pmpn);
        }
        Request::Topk { u, k, early } => {
            codec::write_u32(w, TAG_TOPK).unwrap();
            codec::write_u32(w, *u).unwrap();
            codec::write_u32(w, *k).unwrap();
            codec::write_u32(w, u32::from(*early)).unwrap();
        }
        Request::AddEdge { from, to, weight } => {
            codec::write_u32(w, TAG_ADD_EDGE).unwrap();
            codec::write_u32(w, *from).unwrap();
            codec::write_u32(w, *to).unwrap();
            codec::write_f64(w, *weight).unwrap();
        }
        Request::RemoveEdge { from, to } => {
            codec::write_u32(w, TAG_REMOVE_EDGE).unwrap();
            codec::write_u32(w, *from).unwrap();
            codec::write_u32(w, *to).unwrap();
        }
        Request::Stats => codec::write_u32(w, TAG_STATS).unwrap(),
        Request::Shutdown => codec::write_u32(w, TAG_SHUTDOWN).unwrap(),
        Request::Persist { path } => {
            codec::write_u32(w, TAG_PERSIST).unwrap();
            codec::write_bytes(w, path.as_bytes()).unwrap();
        }
    }
    out
}

/// Decodes a request payload into its auth token and request. Sequence
/// lengths are bounded by what the payload could physically contain, so a
/// corrupt count fails fast.
pub fn decode_request(payload: &[u8]) -> Result<(Vec<u8>, Request), DecodeError> {
    let mut r = Cursor::new(payload);
    let token_bound = (payload.len() as u64).min(MAX_AUTH_TOKEN_BYTES);
    let token = codec::read_bytes_bounded(&mut r, token_bound)?;
    let tag = codec::read_u32(&mut r)?;
    let req = match tag {
        TAG_PING => Request::Ping,
        TAG_REVERSE_TOPK => {
            let q = codec::read_u32(&mut r)?;
            let k = codec::read_u32(&mut r)?;
            let update = codec::read_u32(&mut r)? != 0;
            let tail = read_request_tail(&mut r, payload.len(), FLAG_TRACE | FLAG_APPROX)?;
            Request::ReverseTopk { q, k, update, trace: tail.trace, approx: tail.approx }
        }
        TAG_SHARD_REVERSE_TOPK => {
            let q = codec::read_u32(&mut r)?;
            let k = codec::read_u32(&mut r)?;
            let update = codec::read_u32(&mut r)? != 0;
            let tail = read_request_tail(
                &mut r,
                payload.len(),
                FLAG_TRACE | FLAG_APPROX | FLAG_PMPN | FLAG_WANT_PMPN,
            )?;
            Request::ShardReverseTopk {
                q,
                k,
                update,
                trace: tail.trace,
                approx: tail.approx,
                pmpn: tail.pmpn,
                want_pmpn: tail.want_pmpn,
            }
        }
        TAG_TOPK => Request::Topk {
            u: codec::read_u32(&mut r)?,
            k: codec::read_u32(&mut r)?,
            early: codec::read_u32(&mut r)? != 0,
        },
        TAG_ADD_EDGE => {
            let from = codec::read_u32(&mut r)?;
            let to = codec::read_u32(&mut r)?;
            let weight = codec::read_f64(&mut r)?;
            // The engine enforces this too, but rejecting at the codec keeps
            // NaN / zero weights out of every server flavor uniformly.
            if !(weight.is_finite() && weight > 0.0) {
                return Err(DecodeError::Corrupt(format!(
                    "add_edge weight must be finite and positive, got {weight}"
                )));
            }
            Request::AddEdge { from, to, weight }
        }
        TAG_REMOVE_EDGE => {
            Request::RemoveEdge { from: codec::read_u32(&mut r)?, to: codec::read_u32(&mut r)? }
        }
        TAG_STATS => Request::Stats,
        TAG_SHUTDOWN => Request::Shutdown,
        TAG_PERSIST => {
            let bound = (payload.len() as u64).min(MAX_PERSIST_PATH_BYTES);
            let raw = codec::read_bytes_bounded(&mut r, bound)?;
            let path = String::from_utf8(raw)
                .map_err(|_| DecodeError::Corrupt("persist path is not UTF-8".into()))?;
            Request::Persist { path }
        }
        other => {
            return Err(DecodeError::Corrupt(format!("unknown request tag {other}")));
        }
    };
    expect_exhausted(&r, payload.len())?;
    Ok((token, req))
}

/// Constant-time byte-slice equality: the comparison touches every byte of
/// both slices regardless of where they first differ, so response timing
/// does not leak how much of a guessed auth token was correct.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Encodes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    let w = &mut out;
    match resp {
        Response::Error { code, message } => {
            codec::write_u32(w, *code).unwrap();
            codec::write_bytes(w, message.as_bytes()).unwrap();
            return out;
        }
        _ => codec::write_u32(w, STATUS_OK).unwrap(),
    }
    match resp {
        Response::Pong => codec::write_u32(w, TAG_PING).unwrap(),
        Response::ReverseTopk(r) => {
            codec::write_u32(w, TAG_REVERSE_TOPK).unwrap();
            write_query_result(w, r);
            // Tail sections are trailing-optional: plain answers append
            // nothing.
            write_result_tail(w, r, None);
        }
        Response::Topk(t) => {
            codec::write_u32(w, TAG_TOPK).unwrap();
            codec::write_u32(w, t.node).unwrap();
            codec::write_u32(w, t.k).unwrap();
            codec::write_u32_seq(w, &t.nodes).unwrap();
            codec::write_f64_seq(w, &t.scores).unwrap();
        }
        Response::Stats(s) => {
            codec::write_u32(w, TAG_STATS).unwrap();
            s.encode(w).unwrap();
        }
        Response::ShuttingDown => codec::write_u32(w, TAG_SHUTDOWN).unwrap(),
        Response::Persisted { bytes } => {
            codec::write_u32(w, TAG_PERSIST).unwrap();
            codec::write_u64(w, *bytes).unwrap();
        }
        Response::ShardReverseTopk(s) => {
            codec::write_u32(w, TAG_SHARD_REVERSE_TOPK).unwrap();
            codec::write_u32(w, s.shard_id).unwrap();
            codec::write_u32(w, s.node_lo).unwrap();
            codec::write_u32(w, s.node_hi).unwrap();
            write_query_result(w, &s.result);
            write_result_tail(w, &s.result, s.pmpn.as_deref());
        }
        Response::Updated(u) => {
            // One tag for both update kinds: the response shape is identical
            // and the client already knows which request it sent.
            codec::write_u32(w, TAG_ADD_EDGE).unwrap();
            codec::write_u64(w, u.recomputed_states).unwrap();
            codec::write_u64(w, u.recomputed_hubs).unwrap();
            codec::write_u64(w, u.index_digest).unwrap();
        }
        Response::Error { .. } => unreachable!("handled above"),
    }
    out
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ServerError> {
    let mut r = Cursor::new(payload);
    let status = codec::read_u32(&mut r)?;
    if status != STATUS_OK {
        // The message string fills exactly the rest of the payload.
        let remaining = payload.len() as u64 - r.position();
        let message = codec::read_bytes_bounded(&mut r, remaining)?;
        expect_exhausted(&r, payload.len())?;
        return Ok(Response::Error {
            code: status,
            message: String::from_utf8_lossy(&message).into_owned(),
        });
    }
    let tag = codec::read_u32(&mut r)?;
    let resp = match tag {
        TAG_PING => Response::Pong,
        TAG_REVERSE_TOPK => {
            let mut result = read_query_result(&mut r, payload.len())?;
            let tail = read_result_tail(&mut r, payload.len(), FLAG_TRACE | FLAG_APPROX)?;
            result.trace = tail.trace;
            result.approx = tail.approx;
            Response::ReverseTopk(result)
        }
        TAG_TOPK => {
            let node = codec::read_u32(&mut r)?;
            let k = codec::read_u32(&mut r)?;
            let bound = payload.len() as u64 / 4;
            let nodes = codec::read_u32_seq_bounded(&mut r, bound)?;
            let scores = codec::read_f64_seq_bounded(&mut r, bound)?;
            if nodes.len() != scores.len() {
                return Err(ServerError::Protocol(format!(
                    "topk response: {} nodes but {} scores",
                    nodes.len(),
                    scores.len()
                )));
            }
            Response::Topk(WireTopk { node, k, nodes, scores })
        }
        TAG_STATS => {
            // Per-shard size lists cost 16 payload bytes each — a
            // stream-derived bound for the snapshot decoder.
            let shard_bound = payload.len() as u64 / 16;
            Response::Stats(Box::new(StatsSnapshot::decode(&mut r, shard_bound)?))
        }
        TAG_ADD_EDGE => Response::Updated(WireUpdateResult {
            recomputed_states: codec::read_u64(&mut r)?,
            recomputed_hubs: codec::read_u64(&mut r)?,
            index_digest: codec::read_u64(&mut r)?,
        }),
        TAG_SHUTDOWN => Response::ShuttingDown,
        TAG_PERSIST => Response::Persisted { bytes: codec::read_u64(&mut r)? },
        TAG_SHARD_REVERSE_TOPK => {
            let shard_id = codec::read_u32(&mut r)?;
            let node_lo = codec::read_u32(&mut r)?;
            let node_hi = codec::read_u32(&mut r)?;
            let mut result = read_query_result(&mut r, payload.len())?;
            let tail =
                read_result_tail(&mut r, payload.len(), FLAG_TRACE | FLAG_APPROX | FLAG_PMPN)?;
            result.trace = tail.trace;
            result.approx = tail.approx;
            Response::ShardReverseTopk(WireShardResult {
                shard_id,
                node_lo,
                node_hi,
                result,
                pmpn: tail.pmpn,
            })
        }
        other => {
            return Err(ServerError::Protocol(format!("unknown response tag {other}")));
        }
    };
    expect_exhausted(&r, payload.len())?;
    Ok(resp)
}

/// Decoded request tail: everything the tail-flags word can
/// announce after a query request's fixed fields.
#[derive(Default)]
struct RequestTail {
    trace: bool,
    approx: Option<ApproxParams>,
    pmpn: Option<Vec<f64>>,
    want_pmpn: bool,
}

/// Writes the trailing-optional tail of a query request: nothing when no
/// feature is engaged, otherwise the flags word followed by the announced
/// sections in bit order.
fn write_request_tail<W: Write>(
    w: &mut W,
    trace: bool,
    approx: Option<&ApproxParams>,
    pmpn: Option<&[f64]>,
    want_pmpn: bool,
) {
    let mut flags = 0u32;
    if trace {
        flags |= FLAG_TRACE;
    }
    if approx.is_some() {
        flags |= FLAG_APPROX;
    }
    if pmpn.is_some() {
        flags |= FLAG_PMPN;
    }
    if want_pmpn {
        flags |= FLAG_WANT_PMPN;
    }
    if flags == 0 {
        return;
    }
    codec::write_u32(w, flags).unwrap();
    if let Some(a) = approx {
        codec::write_f64(w, a.epsilon).unwrap();
        codec::write_u32(w, a.walks).unwrap();
        codec::write_u64(w, a.seed).unwrap();
    }
    if let Some(v) = pmpn {
        codec::write_f64_seq(w, v).unwrap();
    }
}

/// Reads the trailing-optional tail of a query request: absent means no
/// feature engaged. `allowed` masks the bits
/// this request kind may carry — anything else is corrupt, so a future
/// flag cannot be silently dropped by an older server.
fn read_request_tail(
    r: &mut Cursor<&[u8]>,
    payload_len: usize,
    allowed: u32,
) -> Result<RequestTail, DecodeError> {
    if r.position() as usize == payload_len {
        return Ok(RequestTail::default());
    }
    let flags = codec::read_u32(r)?;
    if flags & !allowed != 0 {
        return Err(DecodeError::Corrupt(format!(
            "request tail flags {flags:#x} carry unsupported bits (allowed {allowed:#x})"
        )));
    }
    let mut tail = RequestTail { trace: flags & FLAG_TRACE != 0, ..RequestTail::default() };
    if flags & FLAG_APPROX != 0 {
        let epsilon = codec::read_f64(r)?;
        // The error budget is a distance: NaN / infinite / negative values
        // have no meaning and are rejected at the codec so every server
        // flavor refuses them uniformly. ε = 0 is legal (exact serving).
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(DecodeError::Corrupt(format!(
                "approx epsilon must be finite and non-negative, got {epsilon}"
            )));
        }
        let walks = codec::read_u32(r)?;
        let seed = codec::read_u64(r)?;
        tail.approx = Some(ApproxParams { epsilon, walks, seed });
    }
    if flags & FLAG_PMPN != 0 {
        let bound = payload_len as u64 / 8;
        let v = codec::read_f64_seq_bounded(r, bound)?;
        if v.iter().any(|p| !p.is_finite()) {
            return Err(DecodeError::Corrupt("pmpn vector carries non-finite values".into()));
        }
        tail.pmpn = Some(v);
    }
    tail.want_pmpn = flags & FLAG_WANT_PMPN != 0;
    Ok(tail)
}

/// Decoded response tail: the optional sections a single-result
/// answer can append after its fixed query result.
#[derive(Default)]
struct ResultTail {
    trace: Option<rtk_obs::TraceSpan>,
    approx: Option<WireApproxStats>,
    pmpn: Option<Vec<f64>>,
}

/// Writes the trailing-optional tail of a single-result response: nothing
/// when the answer carries no section, otherwise the flags word followed
/// by the announced sections in bit order.
fn write_result_tail<W: Write>(w: &mut W, r: &WireQueryResult, pmpn: Option<&[f64]>) {
    let mut flags = 0u32;
    if r.trace.is_some() {
        flags |= FLAG_TRACE;
    }
    if r.approx.is_some() {
        flags |= FLAG_APPROX;
    }
    if pmpn.is_some() {
        flags |= FLAG_PMPN;
    }
    if flags == 0 {
        return;
    }
    codec::write_u32(w, flags).unwrap();
    if let Some(trace) = &r.trace {
        trace.encode(w).unwrap();
    }
    if let Some(a) = &r.approx {
        codec::write_u64(w, a.estimated).unwrap();
        codec::write_u64(w, a.exact_refined).unwrap();
        codec::write_u64(w, a.walks).unwrap();
    }
    if let Some(v) = pmpn {
        codec::write_f64_seq(w, v).unwrap();
    }
}

/// Reads the trailing-optional tail of a single-result response. The
/// span-tree node budget is derived from the bytes actually present, so a
/// forged child count cannot balloon memory; `allowed` masks the bits this
/// response kind may carry.
fn read_result_tail(
    r: &mut Cursor<&[u8]>,
    payload_len: usize,
    allowed: u32,
) -> Result<ResultTail, ServerError> {
    let remaining = payload_len as u64 - r.position();
    if remaining == 0 {
        return Ok(ResultTail::default());
    }
    let flags = codec::read_u32(r)?;
    if flags & !allowed != 0 {
        return Err(ServerError::Protocol(format!(
            "response tail flags {flags:#x} carry unsupported bits (allowed {allowed:#x})"
        )));
    }
    let mut tail = ResultTail::default();
    if flags & FLAG_TRACE != 0 {
        let budget = (payload_len as u64 - r.position()) / rtk_obs::trace::MIN_SPAN_BYTES + 1;
        tail.trace = Some(rtk_obs::TraceSpan::decode_bounded(r, budget)?);
    }
    if flags & FLAG_APPROX != 0 {
        tail.approx = Some(WireApproxStats {
            estimated: codec::read_u64(r)?,
            exact_refined: codec::read_u64(r)?,
            walks: codec::read_u64(r)?,
        });
    }
    if flags & FLAG_PMPN != 0 {
        let bound = payload_len as u64 / 8;
        tail.pmpn = Some(codec::read_f64_seq_bounded(r, bound)?);
    }
    Ok(tail)
}

/// Writes the fixed part of a query result; the response encoders append
/// the optional tail after it.
fn write_query_result<W: Write>(w: &mut W, r: &WireQueryResult) {
    codec::write_u32(w, r.query).unwrap();
    codec::write_u32(w, r.k).unwrap();
    codec::write_u32_seq(w, &r.nodes).unwrap();
    codec::write_f64_seq(w, &r.proximities).unwrap();
    codec::write_u64(w, r.candidates).unwrap();
    codec::write_u64(w, r.hits).unwrap();
    codec::write_u64(w, r.refined_nodes).unwrap();
    codec::write_u64(w, r.refine_iterations).unwrap();
    codec::write_f64(w, r.server_seconds).unwrap();
}

fn read_query_result<R: Read>(
    r: &mut R,
    payload_len: usize,
) -> Result<WireQueryResult, ServerError> {
    let query = codec::read_u32(r)?;
    let k = codec::read_u32(r)?;
    let bound = payload_len as u64 / 4;
    let nodes = codec::read_u32_seq_bounded(r, bound)?;
    let proximities = codec::read_f64_seq_bounded(r, bound)?;
    if nodes.len() != proximities.len() {
        return Err(ServerError::Protocol(format!(
            "query result: {} nodes but {} proximities",
            nodes.len(),
            proximities.len()
        )));
    }
    Ok(WireQueryResult {
        query,
        k,
        nodes,
        proximities,
        candidates: codec::read_u64(r)?,
        hits: codec::read_u64(r)?,
        refined_nodes: codec::read_u64(r)?,
        refine_iterations: codec::read_u64(r)?,
        server_seconds: codec::read_f64(r)?,
        trace: None,
        approx: None,
    })
}

/// Trailing garbage after a well-formed payload means a framing bug —
/// reject it instead of silently ignoring attacker-controlled bytes.
fn expect_exhausted(r: &Cursor<&[u8]>, len: usize) -> Result<(), DecodeError> {
    let pos = r.position() as usize;
    if pos != len {
        return Err(DecodeError::Corrupt(format!("{} trailing bytes after payload", len - pos)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_md_states_the_current_wire_version() {
        // `docs/FORMATS.md` is the normative spec; the version it states —
        // in its summary, its section heading and its header table — is the
        // one this crate speaks. So is the version in both places the
        // README names one (the serving section and the documentation
        // table's FORMATS.md row).
        fn stated_after(text: &str, lead: &str, from: usize) -> (u32, usize) {
            let at =
                from + text[from..].find(lead).unwrap_or_else(|| panic!("the docs lost {lead:?}"));
            let digits: String =
                text[at + lead.len()..].chars().take_while(char::is_ascii_digit).collect();
            (digits.parse().unwrap_or_else(|_| panic!("no version after {lead:?}")), at + 1)
        }
        let spec = include_str!("../../../docs/FORMATS.md");
        for lead in [
            "`RTKWIRE1` wire protocol (version ",
            "## `RTKWIRE1` — the wire protocol (version ",
            "u32 version (currently ",
        ] {
            assert_eq!(stated_after(spec, lead, 0).0, WIRE_VERSION, "FORMATS.md: {lead:?}");
        }
        let readme = include_str!("../../../README.md");
        let (serving, next) = stated_after(readme, "`RTKWIRE1` v", 0);
        let (table_row, _) = stated_after(readme, "`RTKWIRE1` v", next);
        assert_eq!((serving, table_row), (WIRE_VERSION, WIRE_VERSION), "README.md");
    }

    fn sample_result(q: u32) -> WireQueryResult {
        WireQueryResult {
            query: q,
            k: 5,
            nodes: vec![1, 4, 9],
            proximities: vec![0.25, 0.125, 1e-9],
            candidates: 17,
            hits: 2,
            refined_nodes: 3,
            refine_iterations: 40,
            server_seconds: 0.0123,
            trace: None,
            approx: None,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::ReverseTopk { q: 7, k: 10, update: true, trace: false, approx: None },
            Request::ReverseTopk { q: 0, k: 1, update: false, trace: true, approx: None },
            Request::ShardReverseTopk {
                q: 42,
                k: 10,
                update: true,
                trace: false,
                approx: None,
                pmpn: None,
                want_pmpn: false,
            },
            Request::ShardReverseTopk {
                q: 3,
                k: 2,
                update: false,
                trace: true,
                approx: None,
                pmpn: None,
                want_pmpn: false,
            },
            Request::Topk { u: 3, k: 2, early: true },
            Request::Stats,
            Request::Shutdown,
            Request::Persist { path: "/tmp/snapshot.rtke".into() },
            Request::AddEdge { from: 3, to: 9, weight: 2.5 },
            Request::AddEdge { from: 0, to: 0, weight: f64::MIN_POSITIVE },
            Request::RemoveEdge { from: 9, to: 3 },
        ];
        for req in reqs {
            let payload = encode_request(&req);
            let (token, back) = decode_request(&payload).unwrap();
            assert!(token.is_empty());
            assert_eq!(back, req, "{req:?}");
        }
    }

    #[test]
    fn auth_tokens_round_trip_and_are_bounded() {
        let req = Request::ReverseTopk { q: 1, k: 2, update: false, trace: false, approx: None };
        let payload = encode_request_authed(&req, b"s3cret");
        let (token, back) = decode_request(&payload).unwrap();
        assert_eq!(token, b"s3cret");
        assert_eq!(back, req);

        // An absurd token length fails before allocating.
        let mut bogus = Vec::new();
        codec::write_u64(&mut bogus, u64::MAX).unwrap();
        assert!(matches!(decode_request(&bogus).unwrap_err(), DecodeError::Corrupt(_)));
    }

    #[test]
    fn constant_time_eq_compares_correctly() {
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"token", b"token"));
        assert!(!constant_time_eq(b"token", b"Token"));
        assert!(!constant_time_eq(b"token", b"token2"));
        assert!(!constant_time_eq(b"token", b""));
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Pong,
            Response::ReverseTopk(sample_result(3)),
            Response::Topk(WireTopk { node: 2, k: 3, nodes: vec![0, 5], scores: vec![0.5, 0.25] }),
            Response::ShuttingDown,
            Response::Persisted { bytes: 123_456 },
            Response::Updated(WireUpdateResult {
                recomputed_states: 41,
                recomputed_hubs: 2,
                index_digest: 0x1234_5678_9abc_def0,
            }),
            Response::ShardReverseTopk(WireShardResult {
                shard_id: 2,
                node_lo: 100,
                node_hi: 150,
                result: sample_result(7),
                pmpn: None,
            }),
            Response::Error { code: STATUS_ENGINE_ERROR, message: "k out of range".into() },
            Response::Error { code: STATUS_BUSY, message: "server busy".into() },
            Response::Error { code: STATUS_UNAUTHORIZED, message: "bad token".into() },
        ];
        for resp in resps {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn frames_round_trip_with_their_request_id() {
        let payload = encode_request(&Request::ReverseTopk {
            q: 9,
            k: 4,
            update: false,
            trace: false,
            approx: None,
        });
        for id in [0u64, 1, 7, u64::MAX] {
            let mut buf = Vec::new();
            write_frame(&mut buf, id, &payload).unwrap();
            assert_eq!(buf.len(), FRAME_HEADER_BYTES + payload.len());
            let (back_id, back) =
                read_frame(&mut Cursor::new(buf), DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(back_id, id);
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        codec::write_header(&mut buf, WIRE_MAGIC, WIRE_VERSION).unwrap();
        codec::write_u64(&mut buf, 1).unwrap(); // request id
        codec::write_u32(&mut buf, u32::MAX).unwrap(); // absurd payload length
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt(_)));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"x").unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), 1024).unwrap_err(),
            DecodeError::BadMagic { .. }
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut buf = Vec::new();
        codec::write_header(&mut buf, WIRE_MAGIC, WIRE_VERSION + 1).unwrap();
        codec::write_u64(&mut buf, 1).unwrap();
        codec::write_u32(&mut buf, 0).unwrap();
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), 1024).unwrap_err(),
            DecodeError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn v3_peer_is_rejected_not_misparsed() {
        // A v3 frame has no request-id field: its header is magic + version
        // + u32 length. Accepting it would misread the length as the id's
        // low bytes. The version must match exactly, and the error must
        // name both versions so the operator knows to upgrade the tier.
        let mut buf = Vec::new();
        codec::write_header(&mut buf, WIRE_MAGIC, 3).unwrap();
        codec::write_u32(&mut buf, 4).unwrap(); // v3 length field
        codec::write_u32(&mut buf, 0).unwrap(); // v3-style bare PING tag
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), 1024).unwrap_err(),
            DecodeError::UnsupportedVersion { found: 3, supported: WIRE_VERSION }
        ));
    }

    #[test]
    fn add_edge_weight_is_validated_at_the_codec() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut payload = Vec::new();
            codec::write_bytes(&mut payload, b"").unwrap(); // empty auth token
            codec::write_u32(&mut payload, 8).unwrap(); // TAG_ADD_EDGE
            codec::write_u32(&mut payload, 1).unwrap();
            codec::write_u32(&mut payload, 2).unwrap();
            codec::write_f64(&mut payload, bad).unwrap();
            assert!(
                matches!(decode_request(&payload).unwrap_err(), DecodeError::Corrupt(_)),
                "weight {bad} must be rejected"
            );
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_corrupt() {
        // 3 is the retired `batch` tag.
        for tag in [3, 99] {
            let mut payload = Vec::new();
            codec::write_bytes(&mut payload, b"").unwrap(); // empty auth token
            codec::write_u32(&mut payload, tag).unwrap();
            assert!(decode_request(&payload).is_err(), "tag {tag}");
        }

        let mut payload = encode_request(&Request::Ping);
        payload.push(0xFF);
        assert!(decode_request(&payload).is_err());
    }

    #[test]
    fn trailing_garbage_after_error_response_is_rejected() {
        let mut payload =
            encode_response(&Response::Error { code: STATUS_ENGINE_ERROR, message: "boom".into() });
        assert!(decode_response(&payload).is_ok());
        payload.push(0xAB);
        assert!(decode_response(&payload).is_err());
    }

    #[test]
    fn persist_path_is_bounded_and_utf8_checked() {
        let mut payload = Vec::new();
        codec::write_bytes(&mut payload, b"").unwrap(); // empty auth token
        codec::write_u32(&mut payload, 6).unwrap(); // TAG_PERSIST
        codec::write_u64(&mut payload, u64::MAX).unwrap(); // absurd length
        assert!(matches!(decode_request(&payload).unwrap_err(), DecodeError::Corrupt(_)));

        let mut payload = Vec::new();
        codec::write_bytes(&mut payload, b"").unwrap();
        codec::write_u32(&mut payload, 6).unwrap();
        codec::write_bytes(&mut payload, &[0xFF, 0xFE]).unwrap(); // not UTF-8
        assert!(matches!(decode_request(&payload).unwrap_err(), DecodeError::Corrupt(_)));
    }

    #[test]
    fn untraced_frames_carry_zero_trace_overhead() {
        // An untraced request carries no flags word: empty token (8) +
        // tag (4) + q/k/update (12) = 24 bytes.
        let plain = encode_request(&Request::ReverseTopk {
            q: 7,
            k: 10,
            update: true,
            trace: false,
            approx: None,
        });
        assert_eq!(plain.len(), 24);
        let traced = encode_request(&Request::ReverseTopk {
            q: 7,
            k: 10,
            update: true,
            trace: true,
            approx: None,
        });
        assert_eq!(traced.len(), plain.len() + 4);
        assert_eq!(&traced[..plain.len()], &plain[..]);

        // An untraced response appends nothing after the result.
        let no_trace = encode_response(&Response::ReverseTopk(sample_result(3)));
        let mut with_trace = sample_result(3);
        with_trace.trace = Some(rtk_obs::TraceSpan::new("engine:reverse_topk", 0.001));
        let traced = encode_response(&Response::ReverseTopk(with_trace));
        assert!(traced.len() > no_trace.len());
        assert_eq!(&traced[..no_trace.len()], &no_trace[..]);
    }

    #[test]
    fn traced_responses_round_trip_their_span_tree() {
        use rtk_obs::TraceSpan;
        let mut root = TraceSpan::new("router:reverse_topk", 0.01);
        let mut shard = TraceSpan::new("shard0", 0.007).annotate("replica", "127.0.0.1:7401");
        shard.start_seconds = 0.001;
        shard.children.push(TraceSpan::new("pmpn_solve", 0.002));
        root.children.push(shard);

        let mut result = sample_result(3);
        result.trace = Some(root.clone());
        let payload = encode_response(&Response::ReverseTopk(result.clone()));
        let Response::ReverseTopk(back) = decode_response(&payload).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back, result);
        assert_eq!(back.trace.unwrap(), root);

        // The shard flavor carries the section too.
        let mut sr = sample_result(7);
        sr.trace = Some(TraceSpan::new("engine:shard_reverse_topk", 0.002));
        let wrapped = Response::ShardReverseTopk(WireShardResult {
            shard_id: 2,
            node_lo: 100,
            node_hi: 150,
            result: sr,
            pmpn: None,
        });
        let payload = encode_response(&wrapped);
        assert_eq!(decode_response(&payload).unwrap(), wrapped);
    }

    #[test]
    fn trace_flag_and_section_are_bounded() {
        // A trace flag other than 0/1 is corrupt.
        let mut payload = encode_request(&Request::ReverseTopk {
            q: 1,
            k: 2,
            update: false,
            trace: false,
            approx: None,
        });
        codec::write_u32(&mut payload, 7).unwrap();
        assert!(matches!(decode_request(&payload).unwrap_err(), DecodeError::Corrupt(_)));

        // A trace section declaring more spans than its bytes could hold
        // fails cleanly instead of allocating.
        let mut payload = encode_response(&Response::ReverseTopk(sample_result(1)));
        codec::write_bytes(&mut payload, b"x").unwrap(); // span name
        codec::write_f64(&mut payload, 0.0).unwrap();
        codec::write_f64(&mut payload, 0.0).unwrap();
        codec::write_u32(&mut payload, 0).unwrap(); // no annotations
        codec::write_u32(&mut payload, u32::MAX).unwrap(); // absurd child count
        assert!(decode_response(&payload).is_err());
    }

    #[test]
    fn proximities_survive_bitwise() {
        let mut r = sample_result(0);
        r.proximities =
            vec![f64::from_bits(0.1f64.to_bits() + 1), f64::MIN_POSITIVE, 1.0 - f64::EPSILON];
        let payload = encode_response(&Response::ReverseTopk(r.clone()));
        let Response::ReverseTopk(back) = decode_response(&payload).unwrap() else {
            panic!("wrong variant");
        };
        for (a, b) in back.proximities.iter().zip(&r.proximities) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
