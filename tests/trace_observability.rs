//! End-to-end observability (wire v6): stitched query traces through the
//! router tier and the Prometheus metrics endpoints.
//!
//! Pins the three contracts the tracing layer makes:
//!
//! * a traced query through a router over shard backends returns one span
//!   tree with ≥ 3 levels (router → backend → engine phase) whose child
//!   spans all land inside the root span; an exact query's one PMPN solve
//!   is its own `pmpn` span ahead of the shard screens, which solve
//!   nothing;
//! * tracing never changes answers — traced and untraced runs are bitwise
//!   equal, and untraced responses carry no trace at all;
//! * with one replica chaos-stalled, the hedge (or failover) that hides
//!   the stall is visible in the stitched trace, and answers still match
//!   the single-process reference bitwise.
//!
//! Plus the metrics tier: `metrics_addr` on server and router serves
//! `GET /metrics` in Prometheus text format with a nonzero
//! `rtk_requests_total{kind="reverse_topk"}` after traffic.

use rtk_core::ReverseTopkEngine;
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::DiGraph;
use rtk_obs::TraceSpan;
use rtk_server::wire::ApproxParams;
use rtk_server::{
    ChaosConfig, Client, QueryCall, Router, RouterConfig, Server, ServerConfig, ServerHandle,
};
use std::io::{Read, Write};
use std::time::Duration;

const NODES: usize = 260;
const EDGES: usize = 1200;
const SEED: u64 = 0xCAFE;
const MAX_K: usize = 8;
const SHARDS: usize = 2;

fn graph() -> DiGraph {
    rmat(&RmatConfig::new(NODES, EDGES, SEED)).expect("rmat")
}

fn build_engine(shards: usize) -> ReverseTopkEngine {
    ReverseTopkEngine::builder(graph())
        .max_k(MAX_K)
        .hubs_per_direction(6)
        .threads(1)
        .shards(shards)
        .build()
        .expect("engine build")
}

fn spawn_replica(engine: &ReverseTopkEngine, sid: usize, chaos: Option<&str>) -> ServerHandle {
    let index = engine.index().one_shard(sid).expect("shard index");
    let shard_engine = ReverseTopkEngine::from_parts(graph(), index).expect("shard engine");
    let config = ServerConfig {
        workers: 2,
        chaos: chaos.map(|spec| ChaosConfig::parse(spec).expect("chaos spec")),
        ..Default::default()
    };
    Server::bind(shard_engine, "127.0.0.1:0", config).expect("bind replica").spawn()
}

fn workload() -> Vec<(u32, u32)> {
    [0u32, 19, 77, 133, 200, 259, 41, 88, 5, 120, 250, 63]
        .iter()
        .enumerate()
        .map(|(i, &q)| (q, 1 + (i as u32 % MAX_K as u32)))
        .collect()
}

fn assert_bitwise(a: &rtk_server::WireQueryResult, b: &rtk_server::WireQueryResult, context: &str) {
    assert_eq!(a.nodes, b.nodes, "{context}: node sets differ");
    assert_eq!(a.proximities.len(), b.proximities.len(), "{context}: proximity counts differ");
    for (x, y) in a.proximities.iter().zip(&b.proximities) {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: proximity bits differ");
    }
}

/// Depth of the span tree (a lone root is 1).
fn depth(span: &TraceSpan) -> usize {
    1 + span.children.iter().map(depth).max().unwrap_or(0)
}

/// First span (depth-first) whose name starts with `prefix`.
fn find_span<'a>(span: &'a TraceSpan, prefix: &str) -> Option<&'a TraceSpan> {
    if span.name.starts_with(prefix) {
        return Some(span);
    }
    span.children.iter().find_map(|c| find_span(c, prefix))
}

/// True when any span in the tree carries the annotation key.
fn has_annotation(span: &TraceSpan, key: &str) -> bool {
    span.annotations.iter().any(|(k, _)| k == key)
        || span.children.iter().any(|c| has_annotation(c, key))
}

/// Every child span must land inside its parent (recursively). Spans may
/// overlap each other — concurrent fan-out — but never escape the parent.
fn assert_children_contained(span: &TraceSpan, context: &str) {
    for c in &span.children {
        assert!(
            c.start_seconds + c.duration_seconds <= span.duration_seconds + 1e-9,
            "{context}: span {:?} ({} + {}s) escapes parent {:?} ({}s)",
            c.name,
            c.start_seconds,
            c.duration_seconds,
            span.name,
            span.duration_seconds
        );
        assert_children_contained(c, context);
    }
}

#[test]
fn routed_trace_stitches_backend_spans_and_never_changes_answers() {
    let single = Server::bind(
        build_engine(SHARDS),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .expect("bind single")
    .spawn();
    let mut direct = Client::connect(single.addr()).expect("connect single");

    let sharded = build_engine(SHARDS);
    let handles: Vec<ServerHandle> =
        (0..SHARDS).map(|sid| spawn_replica(&sharded, sid, None)).collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default())
        .expect("bind router")
        .spawn();
    let mut client = Client::connect(router.addr()).expect("connect router");

    for (q, k) in workload() {
        // Untraced first: no trace section at all — the v5-shaped fast path.
        let plain = client.reverse_topk(q, k, false).expect("untraced query");
        assert!(plain.trace.is_none(), "untraced answers must not carry a trace");

        // Traced: same answer, bitwise, plus the stitched tree.
        let traced = client.reverse_topk_traced(q, k, false).expect("traced query");
        assert_bitwise(&traced, &plain, &format!("traced vs untraced q={q} k={k}"));
        let reference = direct.reverse_topk(q, k, false).expect("direct query");
        assert_bitwise(&traced, &reference, &format!("traced vs single-process q={q} k={k}"));

        let trace = traced.trace.as_ref().expect("traced answer carries a trace");
        assert_eq!(trace.name, "router:reverse_topk");
        assert!(
            depth(trace) >= 3,
            "want router → backend → phase (≥ 3 levels), got {}:\n{}",
            depth(trace),
            trace.render()
        );
        // Every shard answered and stitched its backend sub-trace in.
        for sid in 0..SHARDS {
            let shard = find_span(trace, &format!("shard{sid}"))
                .unwrap_or_else(|| panic!("no shard{sid} span:\n{}", trace.render()));
            assert!(
                shard.annotations.iter().any(|(k, _)| k == "replica"),
                "shard{sid} span must say which replica answered"
            );
            let engine = find_span(shard, "engine:shard_reverse_topk")
                .unwrap_or_else(|| panic!("shard{sid} lacks its backend trace"));
            // The engine phases tile their root exactly.
            let phase_sum: f64 = engine.children.iter().map(|c| c.duration_seconds).sum();
            assert!(
                (phase_sum - engine.duration_seconds).abs() <= 1e-9,
                "engine phases must tile the engine span: {phase_sum} vs {}",
                engine.duration_seconds
            );
            for phase in ["pmpn_solve", "screen", "commit"] {
                assert!(
                    find_span(engine, phase).is_some(),
                    "engine span lacks phase {phase}:\n{}",
                    trace.render()
                );
            }
        }
        // The solve-only call: one `pmpn` child ahead of the shard spans,
        // annotated like them, wrapping the backend's one-phase sub-trace;
        // the shard screens then read the shipped vector.
        assert_solved_once(trace);
        assert!(find_span(trace, "merge").is_some(), "router must record its merge span");
        assert_children_contained(trace, &format!("q={q} k={k}"));

        // The renderer shows one line per span — the CLI's --trace output.
        assert_eq!(trace.render().lines().count(), trace.node_count());
    }

    // Update mode on the one-shard engines: the commit of the refined states
    // happens inside the span tree (its duration is stamped after the
    // commit), and the three phases still tile the engine span.
    let (q, k) = workload()[0];
    let traced = client.reverse_topk_traced(q, k, true).expect("traced update query");
    let trace = traced.trace.as_ref().expect("traced answer carries a trace");
    assert_solved_once(trace);
    for sid in 0..SHARDS {
        let engine = find_span(trace, &format!("shard{sid}"))
            .and_then(|shard| find_span(shard, "engine:shard_reverse_topk"))
            .unwrap_or_else(|| panic!("shard{sid} lacks its backend trace"));
        let names: Vec<&str> = engine.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["pmpn_solve", "screen", "commit"]);
        let phase_sum: f64 = engine.children.iter().map(|c| c.duration_seconds).sum();
        assert!((phase_sum - engine.duration_seconds).abs() <= 1e-9);
    }

    // An approximate screen solves nothing to share: no `pmpn` span.
    let call = QueryCall {
        trace: true,
        approx: Some(ApproxParams { epsilon: 1e-3, walks: 24, seed: 42 }),
        ..QueryCall::new(q, k, false)
    };
    let approx = client.query(&call).expect("traced approx query");
    let trace = approx.trace.as_ref().expect("traced answer carries a trace");
    assert!(trace.children.iter().all(|c| c.name != "pmpn"), "{}", trace.render());
    assert_children_contained(trace, "approx");

    client.shutdown().expect("router shutdown");
    router.join().expect("router join");
    for h in handles {
        h.join().expect("backend join");
    }
    direct.shutdown().expect("single shutdown");
    single.join().expect("single join");
}

/// The iteration count a `pmpn_solve` span reports.
fn iterations(solve: &TraceSpan) -> u32 {
    let (_, n) = solve.annotations.iter().find(|(k, _)| k == "iterations").expect("iterations");
    n.parse().expect("an iteration count")
}

/// An exact routed trace solves PMPN once: exactly one `pmpn` child of the
/// router span, before every `shard{i}` span, annotated with its replica
/// and wrapping a backend sub-trace whose one phase is a real solve — and
/// every shard screen's `pmpn_solve` ran no iteration.
fn assert_solved_once(trace: &TraceSpan) {
    let names: Vec<&str> = trace.children.iter().map(|c| c.name.as_str()).collect();
    let at = names.iter().position(|&n| n == "pmpn").expect("a pmpn span");
    assert_eq!(names.iter().filter(|&&n| n == "pmpn").count(), 1, "{names:?}");
    assert!(names[..at].iter().all(|n| !n.starts_with("shard")), "{names:?}");
    let pmpn = &trace.children[at];
    assert!(pmpn.annotations.iter().any(|(k, _)| k == "replica"), "{pmpn:?}");
    let [engine] = pmpn.children.as_slice() else { panic!("one sub-trace: {pmpn:?}") };
    assert_eq!(engine.name, "engine:shard_reverse_topk");
    let [solve] = engine.children.as_slice() else { panic!("one phase: {engine:?}") };
    assert_eq!(solve.name, "pmpn_solve");
    assert!(iterations(solve) > 0, "{solve:?}");
    for sid in 0..SHARDS {
        let shard = find_span(trace, &format!("shard{sid}")).expect("a shard span");
        let solve = find_span(shard, "pmpn_solve").expect("a shard pmpn_solve phase");
        assert_eq!(iterations(solve), 0, "shard{sid} must screen the shipped vector");
    }
}

#[test]
fn hedge_around_stalled_replica_is_visible_in_the_stitched_trace() {
    let single = Server::bind(
        build_engine(SHARDS),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .expect("bind single")
    .spawn();
    let mut direct = Client::connect(single.addr()).expect("connect single");

    // Two replicas per shard; the odd ones stall every response far past
    // the hedge delay, so roughly half of all first submits must hedge.
    let sharded = build_engine(SHARDS);
    let handles: Vec<ServerHandle> = (0..SHARDS * 2)
        .map(|i| {
            let chaos = (i % 2 == 1).then_some("seed=3,delay=1:250ms");
            spawn_replica(&sharded, i / 2, chaos)
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let config = RouterConfig {
        hedge_quantile: 0.9,
        hedge_min_delay: Duration::from_millis(5),
        ..Default::default()
    };
    let router = Router::bind(&addrs, "127.0.0.1:0", config).expect("bind router").spawn();
    let mut client = Client::connect(router.addr()).expect("connect router");

    let mut hedged_traces = 0usize;
    for (q, k) in workload() {
        let traced = client.reverse_topk_traced(q, k, false).expect("traced hedged query");
        let plain = client.reverse_topk(q, k, false).expect("untraced query");
        let reference = direct.reverse_topk(q, k, false).expect("direct query");
        assert_bitwise(&traced, &plain, &format!("hedged traced vs untraced q={q} k={k}"));
        assert_bitwise(&traced, &reference, &format!("hedged traced vs direct q={q} k={k}"));
        let trace = traced.trace.as_ref().expect("trace section");
        if has_annotation(trace, "hedged") || has_annotation(trace, "failovers") {
            hedged_traces += 1;
        }
    }
    // The chaos stall guarantees hedges fire across the workload, and the
    // stitched traces must show them where they happened.
    let stats = client.stats().expect("stats");
    assert!(stats.hedged_requests + stats.failovers >= 1, "stall must trigger hedging: {stats:?}");
    assert!(
        hedged_traces >= 1,
        "at least one stitched trace must carry a hedged/failovers annotation \
         ({} hedges in stats)",
        stats.hedged_requests
    );

    client.shutdown().expect("router shutdown");
    router.join().expect("router join");
    for h in handles {
        h.join().expect("replica join");
    }
    direct.shutdown().expect("single shutdown");
    single.join().expect("single join");
}

/// One blocking HTTP/1.0 exchange against a metrics endpoint.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("write request");
    let mut body = String::new();
    s.read_to_string(&mut body).expect("read response");
    body
}

/// Extracts the value of `rtk_requests_total{kind="reverse_topk"}`.
fn reverse_topk_count(text: &str) -> u64 {
    let line = text
        .lines()
        .find(|l| l.starts_with("rtk_requests_total{kind=\"reverse_topk\"}"))
        .unwrap_or_else(|| panic!("no reverse_topk counter in scrape:\n{text}"));
    line.split_whitespace()
        .last()
        .expect("counter value")
        .parse()
        .expect("integer counter")
}

#[test]
fn metrics_endpoints_serve_prometheus_text_on_server_and_router() {
    // Single server with a metrics endpoint.
    let server = Server::bind(
        build_engine(1),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..Default::default()
        },
    )
    .expect("bind server");
    let server_metrics = server.metrics_addr().expect("server metrics endpoint bound");
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).expect("connect server");
    for (q, k) in workload().into_iter().take(3) {
        client.reverse_topk(q, k, false).expect("query");
    }
    // `stats` round-trips after the queries, so their counters are visible.
    client.stats().expect("stats");

    let response = scrape(server_metrics, "/metrics");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    assert_eq!(reverse_topk_count(body), 3, "{body}");
    // Histogram series for the kind that saw traffic, ending at +Inf.
    assert!(
        body.contains("rtk_request_latency_seconds_bucket{kind=\"reverse_topk\",le=\"+Inf\"} 3"),
        "{body}"
    );
    // Anything but GET /metrics is a 404.
    assert!(scrape(server_metrics, "/other").starts_with("HTTP/1.0 404"), "wrong status for 404");

    client.shutdown().expect("server shutdown");
    handle.join().expect("server join");

    // Router tier with its own endpoint in front of shard backends.
    let sharded = build_engine(SHARDS);
    let handles: Vec<ServerHandle> =
        (0..SHARDS).map(|sid| spawn_replica(&sharded, sid, None)).collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let router = Router::bind(
        &addrs,
        "127.0.0.1:0",
        RouterConfig { metrics_addr: Some("127.0.0.1:0".to_string()), ..Default::default() },
    )
    .expect("bind router");
    let router_metrics = router.metrics_addr().expect("router metrics endpoint bound");
    let router = router.spawn();
    let mut client = Client::connect(router.addr()).expect("connect router");
    for (q, k) in workload().into_iter().take(2) {
        client.reverse_topk(q, k, false).expect("routed query");
    }
    client.stats().expect("stats");

    let body = scrape(router_metrics, "/metrics");
    assert!(body.starts_with("HTTP/1.0 200 OK\r\n"), "{body}");
    assert_eq!(reverse_topk_count(&body), 2, "{body}");

    client.shutdown().expect("router shutdown");
    router.join().expect("router join");
    for h in handles {
        h.join().expect("backend join");
    }
}
