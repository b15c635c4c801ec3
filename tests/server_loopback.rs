//! Integration test for the serving layer.
//!
//! Starts an in-process `rtk-server` on an ephemeral loopback port and
//! checks that:
//!
//! * ≥ 4 concurrent client threads issuing frozen-mode `reverse_topk`
//!   requests — with update-mode queries interleaved from another client —
//!   receive results **bitwise identical** to direct `ReverseTopkEngine`
//!   calls on an identically built index;
//! * a served answer equals the in-process `RtkService` answer of the same
//!   engine — nodes, proximity bits and counters — under every engine
//!   configuration: the defaults, the strict bound over a coarsely rounded
//!   index, and the paper's §5.3 drop mode;
//! * a corrupt frame is rejected (counted, connection dropped) without
//!   killing the server;
//! * graceful shutdown drains and joins cleanly.

use rtk_core::query::{BoundMode, QueryOptions};
use rtk_core::ReverseTopkEngine;
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::NodeId;
use rtk_server::{Client, QueryCall, RequestKind, RtkService, Server, ServerConfig, ServerError};

const NODES: usize = 400;
const EDGES: usize = 1800;
const SEED: u64 = 0xD1CE;
const MAX_K: usize = 8;
const CLIENT_THREADS: usize = 4;
const QUERIES_PER_CLIENT: usize = 12;

/// The engine configurations the loopback tests serve.
#[derive(Clone, Copy, Debug)]
enum Config {
    /// The builder's defaults.
    Default,
    /// `BoundMode::Strict` over an index rounded at ω = 1e-2.
    Strict,
    /// The paper's §5.3 drop mode (`approximate: true`).
    DropMode,
}

const CONFIGS: [Config; 3] = [Config::Default, Config::Strict, Config::DropMode];

/// Deterministic engine build: same graph + config ⇒ identical index, so a
/// second build serves as the direct-call reference for the served one.
fn build_engine(config: Config) -> ReverseTopkEngine {
    let graph = rmat(&RmatConfig::new(NODES, EDGES, SEED)).expect("rmat");
    let builder = ReverseTopkEngine::builder(graph).max_k(MAX_K).hubs_per_direction(6).threads(1);
    let builder = match config {
        Config::Default => builder,
        Config::Strict => builder
            .rounding_threshold(1e-2)
            .query_options(QueryOptions { bound_mode: BoundMode::Strict, ..Default::default() }),
        Config::DropMode => {
            builder.query_options(QueryOptions { approximate: true, ..Default::default() })
        }
    };
    builder.build().expect("engine build")
}

/// The `(q, k)` of the frozen client `t`'s query `i`.
fn frozen_query(t: usize, i: usize) -> (u32, usize) {
    (((t * 89 + i * 31) % NODES) as u32, 1 + ((t + i) % MAX_K))
}

/// The `(q, k)` of the update-mode client's query `i`.
fn update_query(i: usize) -> (u32, usize) {
    (((i * 53) % NODES) as u32, 1 + (i % MAX_K))
}

#[test]
fn concurrent_remote_queries_match_direct_engine_calls_bitwise() {
    let reference = build_engine(Config::Default);
    let handle = Server::bind(
        build_engine(Config::Default),
        "127.0.0.1:0",
        ServerConfig { workers: 4, ..Default::default() },
    )
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // Frozen-mode fan-out from 4 client threads, with one extra thread
    // interleaving update-mode queries (which serialize through the
    // server's write lock and commit refinements into the shared index).
    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..QUERIES_PER_CLIENT {
                    let (q, k) = frozen_query(t, i);
                    let remote = client
                        .reverse_topk(q, k as u32, false)
                        .unwrap_or_else(|e| panic!("t={t} i={i} q={q} k={k}: {e}"));
                    let direct = reference
                        .query_batch(&[(NodeId(q), k)], reference.options())
                        .expect("direct query")
                        .pop()
                        .expect("one result");
                    assert_eq!(remote.nodes, direct.nodes(), "t={t} q={q} k={k}");
                    assert_eq!(
                        remote.proximities.len(),
                        direct.proximities().len(),
                        "t={t} q={q} k={k}"
                    );
                    for (a, b) in remote.proximities.iter().zip(direct.proximities()) {
                        // Bitwise: the wire carries exact IEEE-754 bits.
                        assert_eq!(a.to_bits(), b.to_bits(), "t={t} q={q} k={k}");
                    }
                    assert_eq!(remote.query, q);
                    assert_eq!(remote.k as usize, k);
                }
            });
        }
        // Interleaved update-mode traffic: refinements commit, answers stay
        // identical (refinement only tightens bounds).
        let reference = &reference;
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            for i in 0..QUERIES_PER_CLIENT {
                let (q, k) = update_query(i);
                let remote = client
                    .reverse_topk(q, k as u32, true)
                    .unwrap_or_else(|e| panic!("update i={i} q={q} k={k}: {e}"));
                let direct = reference
                    .query_batch(&[(NodeId(q), k)], reference.options())
                    .expect("direct query")
                    .pop()
                    .expect("one result");
                assert_eq!(remote.nodes, direct.nodes(), "update q={q} k={k}");
                for (a, b) in remote.proximities.iter().zip(direct.proximities()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "update q={q} k={k}");
                }
            }
        });
    });

    // A corrupt frame must not take the server down.
    {
        use std::io::{Read, Write};
        let mut garbage = std::net::TcpStream::connect(addr).expect("garbage connect");
        garbage.write_all(b"THIS IS NOT RTKWIRE1 TRAFFIC").expect("write garbage");
        garbage.shutdown(std::net::Shutdown::Write).ok();
        let mut sink = Vec::new();
        let _ = garbage.take(8192).read_to_end(&mut sink); // error frame or EOF
    }

    // Server still answers after the corrupt frame, and counted it.
    let mut client = Client::connect(addr).expect("post-garbage connect");
    client.ping().expect("ping after corrupt frame");
    let r = client.reverse_topk(0, 2, false).expect("query after corrupt frame");
    let direct = reference
        .query_batch(&[(NodeId(0), 2)], reference.options())
        .expect("direct")
        .pop()
        .expect("one");
    assert_eq!(r.nodes, direct.nodes());
    let stats = client.stats().expect("stats");
    assert!(stats.protocol_errors >= 1, "corrupt frame not counted: {stats:?}");
    assert_eq!(stats.engine_errors, 0, "clean traffic must not log engine errors: {stats:?}");
    let expected_queries = (CLIENT_THREADS + 1) * QUERIES_PER_CLIENT + 1;
    let queries = stats.requests(RequestKind::ReverseTopk);
    assert_eq!(queries as usize, expected_queries, "{stats:?}");
    assert!(stats.total_requests() >= queries, "{stats:?}");
    assert!(stats.p50_seconds <= stats.p99_seconds, "{stats:?}");
    assert_eq!(stats.nodes as usize, NODES);

    // Graceful shutdown: acknowledged, then the server thread joins.
    client.shutdown().expect("shutdown");
    handle.join().expect("server drained cleanly");

    // Post-shutdown connections must fail (nothing is listening anymore).
    assert!(matches!(
        Client::connect(addr).and_then(|mut c| c.ping()),
        Err(ServerError::Io(_)) | Err(ServerError::Decode(_))
    ));
}

#[test]
fn batch_and_topk_match_direct_calls() {
    let reference = build_engine(Config::Default);
    let handle = Server::bind(
        build_engine(Config::Default),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .expect("bind")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let queries: Vec<(u32, u32)> =
        (0..20u32).map(|i| ((i * 17) % NODES as u32, 1 + i % 5)).collect();
    let remote = client.batch(&queries).expect("batch");
    let direct_queries: Vec<(NodeId, usize)> =
        queries.iter().map(|&(q, k)| (NodeId(q), k as usize)).collect();
    let direct = reference.query_batch(&direct_queries, reference.options()).expect("direct");
    assert_eq!(remote.len(), direct.len());
    for (r, d) in remote.iter().zip(&direct) {
        assert_eq!(r.nodes, d.nodes());
        for (a, b) in r.proximities.iter().zip(d.proximities()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    for u in [0u32, 7, 99] {
        let remote = client.topk(u, 5, false).expect("topk");
        let direct = reference.top_k(NodeId(u), 5).expect("direct topk");
        let direct_nodes: Vec<u32> = direct.iter().map(|&(v, _)| v.0).collect();
        assert_eq!(remote.nodes, direct_nodes, "u={u}");
        for (a, (_, b)) in remote.scores.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits(), "u={u}");
        }
    }

    // Out-of-range requests surface as remote errors, not hangs or drops.
    assert!(matches!(client.reverse_topk(NODES as u32 + 5, 2, false), Err(ServerError::Remote(_))));
    // Forward top-k has no index K cap; an oversized k just truncates.
    assert!(client.topk(0, (MAX_K + 999) as u32, false).is_ok());

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn served_answers_equal_the_in_process_service_under_every_configuration() {
    for config in CONFIGS {
        let mut local = build_engine(config);
        let handle = Server::bind(
            build_engine(config),
            "127.0.0.1:0",
            ServerConfig { workers: 2, ..Default::default() },
        )
        .expect("bind")
        .spawn();
        let mut client = Client::connect(handle.addr()).expect("connect");

        // The concurrent test's queries, serialized: every frozen client's
        // round, then one update-mode query, so both engines refine alike.
        for i in 0..QUERIES_PER_CLIENT {
            let frozen = (0..CLIENT_THREADS).map(|t| (frozen_query(t, i), false));
            for ((q, k), update) in frozen.chain([(update_query(i), true)]) {
                let call = QueryCall::new(q, k as u32, update);
                let served = client.query(&call).expect("served query");
                let direct = local.reverse_topk(&call).expect("in-process query");
                let context = format!("{config:?} {call:?}");
                assert_eq!(served.nodes, direct.nodes, "{context}");
                let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&served.proximities), bits(&direct.proximities), "{context}");
                let counters = |r: &rtk_server::WireQueryResult| {
                    (r.candidates, r.hits, r.refined_nodes, r.refine_iterations)
                };
                assert_eq!(counters(&served), counters(&direct), "{context}");
            }
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("join");
    }
}
