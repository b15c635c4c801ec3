//! Approximate-serving equivalence (PR 10 acceptance criteria).
//!
//! Pins the `rtk-approx` error contract end to end:
//!
//! * approx and exact answers agree on every node farther than ε from its
//!   top-k decision boundary, on Erdős–Rényi and R-MAT graphs (any
//!   disagreement sits inside the ε-band);
//! * a fixed `(epsilon, walks, seed)` triple gives **bitwise identical**
//!   answers across {1, 2, 4} query threads × {1, 2, 4} shards × routed
//!   vs single-process serving;
//! * ε = 0 takes the exact path byte-for-byte (and reports no approx
//!   stats), locally and through the tier;
//! * requests that engage no v8 feature stay byte-identical to the
//!   v7-shaped frame on the wire.

use rtk_core::ReverseTopkEngine;
use rtk_graph::gen::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_index::{HubSelection, IndexConfig, ReverseIndex};
use rtk_query::baseline::brute_force_reverse_topk;
use rtk_query::query::TIE_EPSILON;
use rtk_query::{ApproxParams, QueryEngine, QueryOptions};
use rtk_rwr::{proximity_from, RwrParams};
use rtk_server::wire;
use rtk_server::{
    Client, QueryCall, Request, Router, RouterConfig, RtkService, Server, ServerConfig,
    ServerHandle,
};

const NODES: usize = 260;
const EDGES: usize = 1200;
const SEED: u64 = 0xCAFE;
const MAX_K: usize = 8;

/// The fixed triple every serving topology below must answer identically.
const PINNED: ApproxParams = ApproxParams { epsilon: 1e-3, walks: 24, seed: 42 };

fn graph() -> DiGraph {
    rmat(&RmatConfig::new(NODES, EDGES, SEED)).expect("rmat")
}

/// Deterministic build (same graph + config ⇒ identical index), so separate
/// builds serve as bitwise references for each other.
fn build_engine(shards: usize) -> ReverseTopkEngine {
    ReverseTopkEngine::builder(graph())
        .max_k(MAX_K)
        .hubs_per_direction(6)
        .threads(1)
        .shards(shards)
        .build()
        .expect("engine build")
}

fn server_config(query_threads: usize) -> ServerConfig {
    ServerConfig { workers: 2, query_threads, ..Default::default() }
}

fn spawn_backend(engine: &ReverseTopkEngine, sid: usize, query_threads: usize) -> ServerHandle {
    let index = engine.index().one_shard(sid).expect("shard index");
    let shard_engine = ReverseTopkEngine::from_parts(graph(), index).expect("shard engine");
    Server::bind(shard_engine, "127.0.0.1:0", server_config(query_threads))
        .expect("bind backend")
        .spawn()
}

/// The frozen query mix used by every serving-topology sweep below.
fn queries() -> Vec<(u32, u32)> {
    vec![(0, 3), (19, 1), (133, 8), (259, 5)]
}

fn assert_bitwise_equal(
    a: &rtk_server::WireQueryResult,
    b: &rtk_server::WireQueryResult,
    context: &str,
) {
    assert_eq!(a.nodes, b.nodes, "{context}: node sets differ");
    assert_eq!(a.proximities.len(), b.proximities.len(), "{context}: proximity counts");
    for (x, y) in a.proximities.iter().zip(&b.proximities) {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: proximity bits differ");
    }
    assert_eq!(a.candidates, b.candidates, "{context}: candidates");
    assert_eq!(a.hits, b.hits, "{context}: hits");
    assert_eq!(a.refined_nodes, b.refined_nodes, "{context}: refined");
    assert_eq!(a.refine_iterations, b.refine_iterations, "{context}: refine iterations");
}

/// Approx vs exact on ER and R-MAT graphs: any node on which the two
/// answers disagree must sit within ε of its own top-k decision boundary
/// `p̂_u(k)` — that is the whole error contract of the subsystem.
#[test]
fn approx_agrees_with_exact_outside_the_epsilon_band() {
    let er = erdos_renyi(&ErdosRenyiConfig { nodes: 140, edges: 700, seed: 11 }).expect("er");
    let rm = rmat(&RmatConfig::new(140, 700, 11)).expect("rmat");
    for (name, g) in [("er", er), ("rmat", rm)] {
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 8,
            hub_selection: HubSelection::DegreeBased { b: 5 },
            threads: 1,
            ..Default::default()
        };
        let index = ReverseIndex::build(&t, config).expect("index build");
        let mut session = QueryEngine::new(&index);
        let epsilon = 1e-4;
        let opts = QueryOptions {
            approx: Some(ApproxParams { epsilon, walks: 16, seed: 7 }),
            ..Default::default()
        };
        let exact_params = RwrParams { epsilon: 1e-14, ..Default::default() };
        for q in [0u32, 13, 77, 139] {
            for k in [1usize, 4, 8] {
                let approx = session.query_frozen(&t, &index, q, k, &opts).expect("approx query");
                assert!(approx.stats().approx_active, "{name} q={q} k={k}: screen inactive");
                let exact: std::collections::BTreeSet<u32> =
                    brute_force_reverse_topk(&t, q, k, &exact_params).into_iter().collect();
                let got: std::collections::BTreeSet<u32> = approx.nodes().iter().copied().collect();
                for &u in exact.symmetric_difference(&got) {
                    let (col, _) = proximity_from(&t, u, &exact_params);
                    let kth = rtk_sparse::dense::kth_largest(&col, k);
                    let margin = (col[q as usize] - kth).abs();
                    assert!(
                        margin <= epsilon + TIE_EPSILON,
                        "{name} q={q} k={k} u={u}: margin {margin:.3e} escapes the ε-band"
                    );
                }
            }
        }
    }
}

/// One fixed `(epsilon, walks, seed)` triple, twelve serving topologies
/// ({1,2,4} query threads × {1,2,4} shards, each routed *and*
/// single-process): every answer is bitwise identical to the
/// threads=1/shards=1 single-process reference, approx stats included.
#[test]
fn pinned_seed_is_bitwise_stable_across_threads_shards_and_routing() {
    let mut reference: Vec<rtk_server::WireQueryResult> = Vec::new();
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 2, 4] {
            // Single-process server over the identical index.
            let single = Server::bind(build_engine(shards), "127.0.0.1:0", server_config(threads))
                .expect("bind single")
                .spawn();
            let mut direct = Client::connect(single.addr()).expect("connect single");

            // The tier: one shard-only backend per shard behind the router.
            let sharded = build_engine(shards);
            let backends: Vec<ServerHandle> =
                (0..shards).map(|sid| spawn_backend(&sharded, sid, threads)).collect();
            let addrs: Vec<String> = backends.iter().map(|h| h.addr().to_string()).collect();
            let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default())
                .expect("bind router")
                .spawn();
            let mut routed = Client::connect(router.addr()).expect("connect router");

            for (i, (q, k)) in queries().into_iter().enumerate() {
                let ctx = format!("shards={shards} threads={threads} q={q} k={k}");
                let call = QueryCall { approx: Some(PINNED), ..QueryCall::new(q, k, false) };
                let a = direct.query(&call).expect("direct approx query");
                let b = routed.query(&call).expect("routed approx query");
                assert_bitwise_equal(&a, &b, &format!("{ctx}: routed vs single"));
                let (sa, sb) = (a.approx.as_ref().expect("direct stats"), b.approx.as_ref());
                assert_eq!(Some(sa), sb, "{ctx}: approx stats diverge across routing");
                assert!(sa.estimated + sa.exact_refined > 0, "{ctx}: screen classified nothing");
                match reference.get(i) {
                    None => reference.push(a),
                    Some(r) => {
                        assert_bitwise_equal(&a, r, &format!("{ctx}: vs t=1 s=1 reference"));
                        assert_eq!(a.approx, r.approx, "{ctx}: approx stats vs reference");
                    }
                }
            }

            routed.shutdown().expect("router shutdown");
            router.join().expect("router join");
            for h in backends {
                h.join().expect("backend join");
            }
            direct.shutdown().expect("single shutdown");
            single.join().expect("single join");
        }
    }
}

/// ε = 0 is the exact path, not a very accurate approximation: answers are
/// byte-identical to a plain exact query and no approx stats are reported —
/// both on a single server and through the routed tier.
///
/// Exact frozen queries keep the bounds they refine, so each side runs the
/// same sequence on its own index: the plain exact twin in process, the ε = 0
/// calls on the server and on the tier. Equal histories make equal work.
#[test]
fn zero_epsilon_is_byte_identical_to_exact() {
    let zero = ApproxParams { epsilon: 0.0, walks: 32, seed: 3 };
    for shards in [1usize, 2] {
        let mut plain = build_engine(shards);
        let single = Server::bind(build_engine(shards), "127.0.0.1:0", server_config(1))
            .expect("bind single")
            .spawn();
        let mut direct = Client::connect(single.addr()).expect("connect single");

        let sharded = build_engine(shards);
        let backends: Vec<ServerHandle> =
            (0..shards).map(|sid| spawn_backend(&sharded, sid, 1)).collect();
        let addrs: Vec<String> = backends.iter().map(|h| h.addr().to_string()).collect();
        let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default())
            .expect("bind router")
            .spawn();
        let mut routed = Client::connect(router.addr()).expect("connect router");

        for (q, k) in queries() {
            let ctx = format!("shards={shards} q={q} k={k}");
            let exact = plain.reverse_topk(&QueryCall::new(q, k, false)).expect("exact query");
            for (who, client) in [("direct", &mut direct), ("routed", &mut routed)] {
                let call = QueryCall { approx: Some(zero), ..QueryCall::new(q, k, false) };
                let r = client.query(&call).expect("ε=0 query");
                assert!(r.approx.is_none(), "{ctx} {who}: ε=0 must report no approx stats");
                assert_bitwise_equal(&r, &exact, &format!("{ctx} {who}: ε=0 vs exact"));
            }
        }

        routed.shutdown().expect("router shutdown");
        router.join().expect("router join");
        for h in backends {
            h.join().expect("backend join");
        }
        direct.shutdown().expect("single shutdown");
        single.join().expect("single join");
    }
}

/// A request that engages no v8 feature must not grow a tail word: its
/// payload stays byte-identical to the v7-shaped frame (the fixed fields),
/// and the approx tail is a strict 24-byte suffix on top of it.
#[test]
fn untouched_frames_stay_byte_identical_to_v7() {
    let plain = Request::ReverseTopk { q: 42, k: 5, update: false, trace: false, approx: None };
    let tailed =
        Request::ReverseTopk { q: 42, k: 5, update: false, trace: false, approx: Some(PINNED) };
    let plain_payload = wire::encode_request(&plain);
    let tailed_payload = wire::encode_request(&tailed);
    assert_eq!(tailed_payload.len(), plain_payload.len() + 24, "approx tail is 24 bytes");
    assert_eq!(
        &tailed_payload[..plain_payload.len()],
        &plain_payload[..],
        "fixed fields must not change when a tail is appended"
    );
    // And the plain frame round-trips to itself — nothing was reserved or
    // rewritten for v8 in the fixed fields.
    let (_token, back) = wire::decode_request(&plain_payload).expect("decode plain");
    assert_eq!(back, plain);
}
