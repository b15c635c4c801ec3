//! Wire codec (request-id framing, v4+) and pipelining tests.
//!
//! Seeded property tests for the request-id framing — round-trips for
//! arbitrary ids/payloads, truncation at every prefix, exact-version-match
//! rejection of v3 peers — plus live-socket tests of the pipelined client:
//! out-of-order response association, duplicate/unknown request ids
//! rejected without panicking, the per-connection `--max-inflight` cap
//! answering `busy`, the `inflight_peak` gauge, and a failed batch leaving
//! nothing in flight. Cuts and bit flips of a stats snapshot and of a
//! traced shard answer check the response decoder.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_core::ReverseTopkEngine;
use rtk_server::wire::{self, FRAME_HEADER_BYTES, WIRE_MAGIC, WIRE_VERSION};
use rtk_server::{Client, QueryCall, Request, Response, Server, ServerConfig, ServerError};
use rtk_sparse::codec::{self, DecodeError};
use std::io::Cursor;
use std::net::TcpListener;

const CASES: u64 = 64;

fn arb_payload(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0usize..256);
    (0..len).map(|_| (rng.gen::<u32>() & 0xFF) as u8).collect()
}

#[test]
fn frames_round_trip_for_arbitrary_ids_and_payloads() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x51D0 + case);
        let id: u64 = rng.gen();
        let payload = arb_payload(&mut rng);
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, id, &payload).unwrap();
        assert_eq!(buf.len(), FRAME_HEADER_BYTES + payload.len(), "case {case}");
        let (back_id, back) =
            wire::read_frame(&mut Cursor::new(&buf), 1 << 20).unwrap_or_else(|e| {
                panic!("case {case}: {e}");
            });
        assert_eq!(back_id, id, "case {case}");
        assert_eq!(back, payload, "case {case}");
    }
}

#[test]
fn truncation_at_every_prefix_errors_never_panics() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7A11 + case);
        let payload = arb_payload(&mut rng);
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, rng.gen(), &payload).unwrap();
        for cut in 0..buf.len() {
            let err = wire::read_frame(&mut Cursor::new(&buf[..cut]), 1 << 20);
            assert!(err.is_err(), "case {case}: truncation at byte {cut} must fail");
        }
        // The full frame still parses (the loop above really was prefixes).
        assert!(wire::read_frame(&mut Cursor::new(&buf), 1 << 20).is_ok(), "case {case}");
    }
}

#[test]
fn exact_version_match_v3_and_future_peers_rejected_loudly() {
    // A v3 frame: magic + version + u32 length + payload — no request id.
    // The current reader must reject it on the version field, before the
    // length bytes could be misread as the id's low half.
    let mut v3 = Vec::new();
    codec::write_header(&mut v3, WIRE_MAGIC, 3).unwrap();
    codec::write_u32(&mut v3, 4).unwrap(); // v3 length
    codec::write_u32(&mut v3, 0).unwrap(); // v3 bare PING tag
    match wire::read_frame(&mut Cursor::new(&v3), 1 << 20).unwrap_err() {
        DecodeError::UnsupportedVersion { found, supported } => {
            assert_eq!((found, supported), (3, WIRE_VERSION));
        }
        other => panic!("v3 frame must be UnsupportedVersion, got {other:?}"),
    }
    // Same for every other version, both directions (every older peer
    // speaks a different stats layout, future peers may change anything).
    for version in (0..WIRE_VERSION).chain([WIRE_VERSION + 1, u32::MAX]) {
        let mut buf = Vec::new();
        codec::write_header(&mut buf, WIRE_MAGIC, version).unwrap();
        codec::write_u64(&mut buf, 1).unwrap();
        codec::write_u32(&mut buf, 0).unwrap();
        assert!(
            matches!(
                wire::read_frame(&mut Cursor::new(&buf), 1 << 20).unwrap_err(),
                DecodeError::UnsupportedVersion { .. }
            ),
            "version {version} must be rejected"
        );
    }
}

#[test]
fn live_server_rejects_a_v3_peer_with_unsupported_version() {
    use std::io::{Read, Write};
    let handle = Server::bind(toy_engine(), "127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .spawn();
    // Speak v3 at the server: header + u32 length + payload. Sized to
    // exactly one v4 header (24 bytes) so the server's version check —
    // not an EOF mid-header — is what fires, and no unread bytes linger
    // to turn the close into a TCP reset.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut frame = Vec::new();
    codec::write_header(&mut frame, WIRE_MAGIC, 3).unwrap();
    codec::write_u32(&mut frame, 8).unwrap(); // v3 length field
    frame.extend_from_slice(&[0u8; 8]); // v3 payload (never parsed)
    assert_eq!(frame.len(), FRAME_HEADER_BYTES);
    stream.write_all(&frame).unwrap();
    stream.shutdown(std::net::Shutdown::Write).ok();
    // The server answers with a protocol-error frame naming the version
    // mismatch, then drops the connection.
    let mut raw = Vec::new();
    stream.take(1 << 16).read_to_end(&mut raw).unwrap();
    let (id, resp_payload) = wire::read_frame(&mut Cursor::new(&raw), 1 << 20).unwrap();
    assert_eq!(id, 0, "no request id was readable from a v3 frame");
    match wire::decode_response(&resp_payload).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, wire::STATUS_PROTOCOL_ERROR);
            assert!(message.contains("version"), "error must name the version: {message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }

    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.protocol_errors >= 1, "{stats:?}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

fn toy_engine() -> ReverseTopkEngine {
    ReverseTopkEngine::builder(rtk_datasets::toy_graph())
        .max_k(3)
        .hubs_per_direction(1)
        .threads(1)
        .build()
        .unwrap()
}

/// A hand-rolled one-connection server that reads `n` request frames and
/// answers them in **reverse** arrival order — the pathological reordering
/// a real pipelined server could legally produce.
fn reversing_server(n: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut frames = Vec::new();
        for _ in 0..n {
            let (id, payload) = wire::read_frame(&mut stream, 1 << 20).unwrap();
            let (_, request) = wire::decode_request(&payload).unwrap();
            let Request::ReverseTopk { q, k, .. } = request else {
                panic!("test server only answers reverse_topk");
            };
            frames.push((id, q, k));
        }
        for (id, q, k) in frames.into_iter().rev() {
            let resp = Response::ReverseTopk(rtk_server::WireQueryResult {
                query: q,
                k,
                nodes: vec![q],
                proximities: vec![1.0],
                candidates: 1,
                hits: 1,
                refined_nodes: 0,
                refine_iterations: 0,
                server_seconds: 0.0,
                trace: None,
                approx: None,
            });
            wire::write_frame(&mut stream, id, &wire::encode_response(&resp)).unwrap();
        }
    });
    (addr, thread)
}

#[test]
fn out_of_order_responses_reassociate_by_request_id() {
    let (addr, server) = reversing_server(4);
    let mut client = Client::connect(addr).unwrap();
    let pending: Vec<_> = (0..4u32)
        .map(|q| client.submit_query(&QueryCall::new(q, 1, false)).unwrap())
        .collect();
    assert_eq!(client.inflight(), 4);
    // Wait in submit order even though the wire delivers reverse order:
    // every result must land on the query that asked for it.
    for (q, p) in pending.into_iter().enumerate() {
        let r = client.wait(p).unwrap();
        assert_eq!(r.query, q as u32, "response mis-associated");
        assert_eq!(r.nodes, vec![q as u32]);
    }
    assert_eq!(client.inflight(), 0);
    server.join().unwrap();
}

/// A raw server that answers one request twice (duplicate id) or under a
/// fabricated id the client never issued.
fn misbehaving_server(duplicate: bool) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (id, _) = wire::read_frame(&mut stream, 1 << 20).unwrap();
        let resp = Response::Pong;
        let encoded = wire::encode_response(&resp);
        if duplicate {
            wire::write_frame(&mut stream, id, &encoded).unwrap();
            let _ = wire::write_frame(&mut stream, id, &encoded); // duplicate
        } else {
            let _ = wire::write_frame(&mut stream, id ^ 0xDEAD_BEEF, &encoded); // unknown id
        }
        // Hold the socket open until the client is done asserting.
        let _ = wire::read_frame(&mut stream, 1 << 20);
    });
    (addr, thread)
}

#[test]
fn duplicate_response_ids_are_rejected_without_panicking() {
    let (addr, server) = misbehaving_server(true);
    let mut client = Client::connect(addr).unwrap();
    let a = client.submit(&Request::Ping).unwrap();
    let b = client.submit(&Request::Ping).unwrap();
    // First response matches request a; the duplicate of a's id arrives
    // while waiting for b and is neither b's nor outstanding → protocol
    // error, not a panic and not b's answer.
    assert!(matches!(client.wait(a).unwrap(), Response::Pong));
    let err = client.wait(b).unwrap_err();
    assert!(
        matches!(err, ServerError::Protocol(ref m) if m.contains("duplicate")),
        "duplicate id must be a protocol error: {err}"
    );
    drop(client);
    server.join().unwrap();
}

#[test]
fn unknown_response_ids_are_rejected_without_panicking() {
    let (addr, server) = misbehaving_server(false);
    let mut client = Client::connect(addr).unwrap();
    let a = client.submit(&Request::Ping).unwrap();
    let err = client.wait(a).unwrap_err();
    assert!(
        matches!(err, ServerError::Protocol(ref m) if m.contains("unknown")),
        "unknown id must be a protocol error: {err}"
    );
    drop(client);
    server.join().unwrap();
}

#[test]
fn pipeline_results_match_serial_and_batch_bitwise() {
    let reference = toy_engine();
    let handle = Server::bind(
        toy_engine(),
        "127.0.0.1:0",
        ServerConfig { workers: 3, ..Default::default() },
    )
    .unwrap()
    .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let queries: Vec<(u32, u32)> = vec![(0, 2), (1, 2), (2, 3), (3, 1), (4, 2), (5, 3)];

    let batched = client.batch(&queries).unwrap();
    let serial: Vec<_> = queries
        .iter()
        .map(|&(q, k)| client.reverse_topk(q, k, false).unwrap())
        .collect();
    assert_eq!(batched.len(), queries.len());
    for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
        assert_eq!(b.nodes, s.nodes, "query {i}");
        for (x, y) in b.proximities.iter().zip(&s.proximities) {
            assert_eq!(x.to_bits(), y.to_bits(), "query {i}");
        }
        // And both equal the direct engine answer.
        let direct = reference
            .query_batch(
                &[(rtk_core::graph::NodeId(queries[i].0), queries[i].1 as usize)],
                reference.options(),
            )
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(b.nodes, direct.nodes(), "query {i}");
    }

    // Update-mode pipelining is allowed and keeps answers identical.
    let pending: Vec<_> = queries
        .iter()
        .map(|&(q, k)| client.submit_query(&QueryCall::new(q, k, true)).unwrap())
        .collect();
    for (p, b) in pending.into_iter().zip(&batched) {
        assert_eq!(client.wait(p).unwrap().nodes, b.nodes);
    }

    // The server saw real pipelining depth.
    let stats = client.stats().unwrap();
    assert!(stats.inflight_peak >= 2, "pipeline must overlap requests: {stats:?}");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn max_inflight_cap_answers_busy_and_keeps_the_connection() {
    let handle = Server::bind(
        toy_engine(),
        "127.0.0.1:0",
        // One worker and a tiny depth cap: submits beyond 2 must be
        // answered `busy` while earlier requests still complete.
        ServerConfig { workers: 1, max_inflight: 2, ..Default::default() },
    )
    .unwrap()
    .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Flood 8 pipelined queries; with the cap at 2 some must bounce.
    let pending: Vec<_> = (0..8)
        .map(|_| client.submit_query(&QueryCall::new(0, 2, false)).unwrap())
        .collect();
    let mut ok = 0usize;
    let mut busy = 0usize;
    for p in pending {
        match client.wait(p) {
            Ok(r) => {
                assert_eq!(r.nodes, vec![0, 1, 4]);
                ok += 1;
            }
            Err(ServerError::Remote(m)) if m.contains("pipeline-depth") => busy += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(ok >= 1, "some requests must be admitted");
    assert!(busy >= 1, "the cap must reject some of an 8-deep burst");

    // The connection survived the rejections: normal traffic still works.
    let r = client.reverse_topk(0, 2, false).unwrap();
    assert_eq!(r.nodes, vec![0, 1, 4]);
    let stats = client.stats().unwrap();
    assert_eq!(stats.inflight_rejections as usize, busy, "{stats:?}");
    assert!(stats.inflight_peak <= 2 + 1, "cap must bound the gauge: {stats:?}");

    // batch() plays fair with the cap: busy-rejected queries are
    // re-issued after the burst drains, so every result still comes back.
    let queries: Vec<(u32, u32)> = (0..6).map(|i| (i % 6, 2)).collect();
    let rs = client.batch(&queries).unwrap();
    assert_eq!(rs.len(), queries.len());
    for (r, &(q, _)) in rs.iter().zip(&queries) {
        assert_eq!(r.query, q, "a batch under a depth cap must return every answer");
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn a_failed_batch_leaves_nothing_in_flight() {
    let handle = Server::bind(
        toy_engine(),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .unwrap()
    .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    // k = 999 is beyond the toy index's largest k: the batch fails as a
    // whole, naming the first error.
    let err = client.batch(&[(0, 999), (1, 2), (2, 2)]).unwrap_err();
    assert!(matches!(&err, ServerError::Remote(m) if m.contains("999")), "{err}");
    // It still collected the answers of the two queries behind it, so no
    // stale response lingers to be parked by a later call.
    assert_eq!(client.inflight(), 0);
    assert_eq!(client.reverse_topk(0, 2, false).unwrap().nodes, vec![0, 1, 4]);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Cuts `payload` at every offset and flips every bit of every byte. The
/// decoder must never panic. Of the cuts, only the one at `tail_start`
/// decodes: to `stripped`, the value without its trailing-optional tail.
/// A flipped payload either errors or decodes to a value that re-encodes
/// to exactly the flipped bytes.
fn assert_hostile_bytes_are_refused(payload: &[u8], tail_start: usize, stripped: &Response) {
    let full = wire::decode_response(payload).expect("the intact payload decodes");
    assert_eq!(wire::encode_response(&full), payload);
    for cut in 0..payload.len() {
        let decoded = wire::decode_response(&payload[..cut]);
        if cut == tail_start {
            assert_eq!(&decoded.expect("the payload without its tail decodes"), stripped);
        } else {
            assert!(decoded.is_err(), "a cut at byte {cut} of {} decoded", payload.len());
        }
    }
    let mut flipped = payload.to_vec();
    for byte in 0..payload.len() {
        for bit in 0..8 {
            flipped[byte] ^= 1 << bit;
            if let Ok(resp) = wire::decode_response(&flipped) {
                assert_eq!(wire::encode_response(&resp), flipped, "bit {bit} of byte {byte}");
            }
            flipped[byte] ^= 1 << bit;
        }
    }
}

#[test]
fn stats_and_traced_shard_responses_survive_hostile_bytes() {
    use rtk_api::model::KindLatency;
    use rtk_obs::TraceSpan;
    use rtk_server::{EngineInfo, RequestKind, StatsSnapshot, WireQueryResult, WireShardResult};

    // A stats snapshot with two shards and two kinds' latency records.
    let info = EngineInfo {
        nodes: 6,
        edges: 11,
        max_k: 3,
        workers: 2,
        shard_lo: 0,
        shard_hi: 6,
        index_digest: 0x0123_4567_89ab_cdef,
    };
    let mut stats = StatsSnapshot::local(info, vec![3, 3], vec![640, 768]);
    stats.inflight_peak = 4;
    stats.approx_walks = 1280;
    let latency = |count| KindLatency {
        count,
        mean_seconds: 0.002,
        p50_seconds: 0.001,
        p95_seconds: 0.004,
        p99_seconds: 0.005,
        max_seconds: 0.006,
    };
    stats.kind_latency[RequestKind::ReverseTopk as usize] = latency(7);
    stats.kind_latency[RequestKind::Stats as usize] = latency(1);
    let stats = Response::Stats(Box::new(stats));
    let payload = wire::encode_response(&stats);
    // The snapshot has no optional tail: only the whole payload decodes.
    assert_hostile_bytes_are_refused(&payload, payload.len(), &stats);

    // A traced shard answer carrying its solved PMPN vector: the trace and
    // PMPN sections of the response tail.
    let mut engine = TraceSpan::new("engine:shard_reverse_topk", 0.003).annotate("shard", "1");
    engine
        .children
        .push(TraceSpan::new("pmpn_solve", 0.002).annotate("iterations", "41"));
    let result = WireQueryResult {
        query: 4,
        k: 2,
        nodes: vec![3, 5],
        proximities: vec![0.25, 1e-9],
        candidates: 3,
        hits: 1,
        refined_nodes: 1,
        refine_iterations: 12,
        server_seconds: 0.003,
        trace: None,
        approx: None,
    };
    let plain =
        WireShardResult { shard_id: 1, node_lo: 3, node_hi: 6, result: result.clone(), pmpn: None };
    let stripped = Response::ShardReverseTopk(plain.clone());
    let traced = Response::ShardReverseTopk(WireShardResult {
        result: WireQueryResult { trace: Some(engine), ..result },
        pmpn: Some(vec![0.5, 0.125, 0.0, 0.25, 0.0625, 1.0 / 3.0]),
        ..plain
    });
    let payload = wire::encode_response(&traced);
    let tail_start = wire::encode_response(&stripped).len();
    assert!(tail_start < payload.len());
    assert_hostile_bytes_are_refused(&payload, tail_start, &stripped);
}
