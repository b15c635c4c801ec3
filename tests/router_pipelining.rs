//! Wire-v4 pipelining across the router tier (ISSUE 5 acceptance
//! criteria).
//!
//! `tests/router_equivalence.rs` pins the determinism contract; this suite
//! pins what the v4 redesign *added*:
//!
//! * backends with **one worker** serve a router plus direct admin clients
//!   concurrently — under v3 a connection pinned its worker, so this exact
//!   topology (backend workers < connections) deadlocked and forced the
//!   `--workers ≥ router workers + 1` ops rule that this PR deletes;
//! * a pipelined client driving the router keeps answers bitwise equal to
//!   serial queries against a single-process server.

use rtk_core::ReverseTopkEngine;
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::DiGraph;
use rtk_server::{Client, Router, RouterConfig, Server, ServerConfig, ServerHandle};

const NODES: usize = 220;
const EDGES: usize = 1000;
const SEED: u64 = 0xBEAD;
const MAX_K: usize = 6;

fn graph() -> DiGraph {
    rmat(&RmatConfig::new(NODES, EDGES, SEED)).expect("rmat")
}

fn build_engine(shards: usize) -> ReverseTopkEngine {
    ReverseTopkEngine::builder(graph())
        .max_k(MAX_K)
        .hubs_per_direction(5)
        .threads(1)
        .shards(shards)
        .build()
        .expect("engine build")
}

/// One-worker backends: the configuration that deadlocked under v3.
fn spawn_backend(engine: &ReverseTopkEngine, sid: usize) -> ServerHandle {
    let index = engine.index().one_shard(sid).expect("shard index");
    let shard_engine = ReverseTopkEngine::from_parts(graph(), index).expect("shard engine");
    Server::bind(shard_engine, "127.0.0.1:0", ServerConfig { workers: 1, ..Default::default() })
        .expect("bind backend")
        .spawn()
}

fn queries() -> Vec<(u32, u32)> {
    (0..24u32).map(|i| ((i * 37) % NODES as u32, 1 + i % MAX_K as u32)).collect()
}

#[test]
fn one_worker_backends_serve_router_and_admin_clients_concurrently() {
    let backends = 2usize;
    let single = Server::bind(
        build_engine(backends),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .expect("bind single")
    .spawn();
    let mut direct = Client::connect(single.addr()).expect("connect single");

    let sharded = build_engine(backends);
    let backend_handles: Vec<ServerHandle> =
        (0..backends).map(|sid| spawn_backend(&sharded, sid)).collect();
    let addrs: Vec<String> = backend_handles.iter().map(|h| h.addr().to_string()).collect();
    // Router workers exceed every backend's worker count — the v3
    // deadlock topology. The handshake alone (stats + probe over a pooled
    // connection, while this test later pings the backends directly)
    // would have wedged under connection-pinned workers.
    let router =
        Router::bind(&addrs, "127.0.0.1:0", RouterConfig { workers: 4, ..RouterConfig::default() })
            .expect("bind router")
            .spawn();
    let mut via_router = Client::connect(router.addr()).expect("connect router");

    // Direct admin connections to the single-worker backends while the
    // router's pooled connections are alive — v3 would hang here.
    for addr in &addrs {
        let mut admin = Client::connect(addr.as_str()).expect("admin connect");
        admin.ping().expect("admin ping while router is connected");
        let stats = admin.stats().expect("admin stats");
        assert_eq!(stats.workers, 1, "backend must really be single-worker");
    }

    // Routed answers stay bitwise equal to single-process ones.
    for &(q, k) in &queries() {
        let a = via_router.reverse_topk(q, k, false).expect("router query");
        let b = direct.reverse_topk(q, k, false).expect("direct query");
        assert_eq!(a.nodes, b.nodes, "q={q} k={k}");
        for (x, y) in a.proximities.iter().zip(&b.proximities) {
            assert_eq!(x.to_bits(), y.to_bits(), "q={q} k={k}");
        }
    }

    via_router.shutdown().expect("router shutdown");
    router.join().expect("router join");
    for h in backend_handles {
        h.join().expect("backend join");
    }
    direct.shutdown().expect("single shutdown");
    single.join().expect("single join");
}

#[test]
fn pipelined_client_through_the_router_matches_single_process() {
    let backends = 2usize;
    let single = Server::bind(
        build_engine(backends),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .expect("bind single")
    .spawn();
    let mut direct = Client::connect(single.addr()).expect("connect single");
    let reference: Vec<_> = queries()
        .iter()
        .map(|&(q, k)| direct.reverse_topk(q, k, false).expect("direct query"))
        .collect();

    let sharded = build_engine(backends);
    let backend_handles: Vec<ServerHandle> =
        (0..backends).map(|sid| spawn_backend(&sharded, sid)).collect();
    let addrs: Vec<String> = backend_handles.iter().map(|h| h.addr().to_string()).collect();
    let router =
        Router::bind(&addrs, "127.0.0.1:0", RouterConfig { workers: 3, ..RouterConfig::default() })
            .expect("bind router")
            .spawn();

    // All 24 queries in flight at once over one client connection; the
    // router fans each out concurrently to both backends.
    let mut client = Client::connect(router.addr()).expect("connect router");
    let piped = client.batch(&queries()).expect("pipelined queries");
    assert_eq!(piped.len(), reference.len());
    for (i, (p, r)) in piped.iter().zip(&reference).enumerate() {
        assert_eq!(p.nodes, r.nodes, "query {i}");
        for (x, y) in p.proximities.iter().zip(&r.proximities) {
            assert_eq!(x.to_bits(), y.to_bits(), "query {i}");
        }
    }

    // The router really pipelined (its gauge saw overlapping requests).
    let stats = client.stats().expect("router stats");
    assert!(stats.inflight_peak >= 2, "router must have overlapped requests: {stats:?}");

    client.shutdown().expect("router shutdown");
    router.join().expect("router join");
    for h in backend_handles {
        h.join().expect("backend join");
    }
    direct.shutdown().expect("single shutdown");
    single.join().expect("single join");
}
