//! Multi-process serving determinism (ISSUE 4 acceptance criteria).
//!
//! Spins up per-shard `rtk-server` backends (each holding a one-shard index
//! of the same index) behind an `rtk-server` router, and pins the tier's
//! answers **bitwise equal** to a single-process server over the identical
//! index:
//!
//! * one conformance list of [`QueryCall`]s covering every field (update ×
//!   trace × approx) runs through `&mut impl RtkService` on the in-process
//!   engine, a single server, and the routed tier at backend counts
//!   {1, 2, 4} — result nodes, proximities (exact IEEE-754 bits), and
//!   counter statistics all match;
//! * the shard-scoped surface ships PMPN vectors without changing a bit;
//! * one backend is killed and restarted mid-sequence: during the outage
//!   the router degrades loudly (engine errors + `unhealthy_backends` in
//!   stats, never a partial answer), and after the restart answers are
//!   again bitwise equal;
//! * the shared-secret auth token gates every entry point of the tier.

use rtk_core::ReverseTopkEngine;
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::{DiGraph, NodeId};
use rtk_server::wire::ApproxParams;
use rtk_server::{
    Client, QueryCall, Router, RouterConfig, RtkService, Server, ServerConfig, ServerHandle,
    WireQueryResult,
};

const NODES: usize = 260;
const EDGES: usize = 1200;
const SEED: u64 = 0xCAFE;
const MAX_K: usize = 8;

/// An active approx knob with a pinned seed (answers are reproducible), and
/// the inert ε = 0 setting that must take the exact path.
const PINNED: ApproxParams = ApproxParams { epsilon: 1e-3, walks: 24, seed: 42 };
const ZERO: ApproxParams = ApproxParams { epsilon: 0.0, ..PINNED };

fn graph() -> DiGraph {
    rmat(&RmatConfig::new(NODES, EDGES, SEED)).expect("rmat")
}

/// Deterministic build: same graph + config ⇒ identical index, so separate
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

fn backend_config(auth: Option<&str>) -> ServerConfig {
    // Wire v4 dispatches frames, not connections, to the worker pool, so
    // even `workers: 1` cannot deadlock under the router's pooled
    // connections (tests/router_pipelining.rs pins exactly that); 2 is
    // just a little concurrency for the suite.
    ServerConfig { workers: 2, auth_token: auth.map(str::to_string), ..Default::default() }
}

/// Starts one shard-only backend for shard `sid` of `engine`'s index.
fn spawn_backend(
    engine: &ReverseTopkEngine,
    sid: usize,
    addr: &str,
    auth: Option<&str>,
) -> ServerHandle {
    let index = engine.index().one_shard(sid).expect("shard index");
    let shard_engine = ReverseTopkEngine::from_parts(graph(), index).expect("shard engine");
    Server::bind(shard_engine, addr, backend_config(auth))
        .expect("bind backend")
        .spawn()
}

/// The conformance list every service flavor executes: each field of
/// [`QueryCall`] at every value — `update` × `trace` × `approx` ∈ {none,
/// ε = 0, pinned ε > 0}. Update calls make later calls depend on earlier
/// commits, so ordering bugs in the cross-process merge would surface here.
/// Each ε = 0 call directly follows its `approx: None` twin.
fn sequence() -> Vec<QueryCall> {
    let mut seq = Vec::new();
    for (q, k) in [(0u32, 1u32), (77, 4), (200, 8), (41, 3)] {
        for update in [false, true] {
            for trace in [false, true] {
                for approx in [None, Some(ZERO), Some(PINNED)] {
                    seq.push(QueryCall { q, k, update, trace, approx });
                }
            }
        }
    }
    seq
}

/// Drives `calls` through any service flavor — the point of the trait is
/// that this function cannot tell them apart.
fn run(svc: &mut impl RtkService, calls: &[QueryCall]) -> Vec<WireQueryResult> {
    calls
        .iter()
        .map(|call| svc.reverse_topk(call).unwrap_or_else(|e| panic!("{call:?}: {e}")))
        .collect()
}

/// Asserts one router answer equals one single-process answer bitwise
/// (`check_stats` also pins the counter statistics — disable it after a
/// backend restart, where committed refinements were legitimately lost).
fn assert_equal(
    via_router: &WireQueryResult,
    direct: &WireQueryResult,
    check_stats: bool,
    context: &str,
) {
    assert_eq!(via_router.nodes, direct.nodes, "{context}: node sets differ");
    assert_eq!(
        via_router.proximities.len(),
        direct.proximities.len(),
        "{context}: proximity counts differ"
    );
    for (a, b) in via_router.proximities.iter().zip(&direct.proximities) {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: proximity bits differ");
    }
    if check_stats {
        assert_eq!(via_router.candidates, direct.candidates, "{context}: candidates");
        assert_eq!(via_router.hits, direct.hits, "{context}: hits");
        assert_eq!(via_router.refined_nodes, direct.refined_nodes, "{context}: refined");
        assert_eq!(
            via_router.refine_iterations, direct.refine_iterations,
            "{context}: refine iterations"
        );
    }
}

#[test]
fn router_matches_single_process_bitwise_across_backend_counts() {
    for backends in [1usize, 2, 4] {
        // Reference: a single-process server over the same index (shard
        // count never changes answers, so S = backends keeps builds equal).
        let single = Server::bind(build_engine(backends), "127.0.0.1:0", backend_config(None))
            .expect("bind single")
            .spawn();
        let mut direct = Client::connect(single.addr()).expect("connect single");

        // The tier: one shard-only backend per shard, plus the router.
        let sharded = build_engine(backends);
        let backend_handles: Vec<ServerHandle> = (0..backends)
            .map(|sid| spawn_backend(&sharded, sid, "127.0.0.1:0", None))
            .collect();
        let addrs: Vec<String> = backend_handles.iter().map(|h| h.addr().to_string()).collect();
        let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default())
            .expect("bind router")
            .spawn();
        let mut via_router = Client::connect(router.addr()).expect("connect router");

        let calls = sequence();
        let local = run(&mut build_engine(backends), &calls);
        let served = run(&mut direct, &calls);
        let routed = run(&mut via_router, &calls);
        for (i, call) in calls.iter().enumerate() {
            let ctx = format!("backends={backends} {call:?}");
            for (who, answers) in [("in-process", &local), ("routed", &routed)] {
                assert_equal(&answers[i], &served[i], true, &format!("{ctx}: {who} vs served"));
                assert_eq!(answers[i].approx, served[i].approx, "{ctx}: {who} approx stats");
                assert_eq!(answers[i].trace.is_some(), call.trace, "{ctx}: {who} trace");
            }
            assert_eq!(served[i].trace.is_some(), call.trace, "{ctx}: served trace");
            assert_eq!(served[i].approx.is_some(), call.approx == Some(PINNED), "{ctx}: approx");
            if call.approx == Some(ZERO) {
                // ε = 0 is the exact path: the same bits as the `None` twin
                // just before it, and — when no commit fell between the two
                // (frozen calls) — the same work.
                assert_equal(&served[i], &served[i - 1], !call.update, &format!("{ctx}: ε=0"));
            }
        }

        // The router is transparent for the rest of the surface too.
        let t_a = via_router.topk(7, 5, true).expect("router topk");
        let t_b = direct.topk(7, 5, true).expect("direct topk");
        assert_eq!(t_a.nodes, t_b.nodes);
        for (a, b) in t_a.scores.iter().zip(&t_b.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let batch_a = via_router.batch(&[(3, 4), (100, 2)]).expect("router batch");
        let batch_b = direct.batch(&[(3, 4), (100, 2)]).expect("direct batch");
        for (a, b) in batch_a.iter().zip(&batch_b) {
            assert_equal(a, b, true, &format!("backends={backends} batch"));
        }

        // Aggregated stats describe the whole tier.
        let stats = via_router.stats().expect("router stats");
        assert_eq!(stats.nodes, NODES as u64);
        assert_eq!(stats.max_k, MAX_K as u64);
        assert_eq!(stats.shard_count(), backends);
        assert_eq!(stats.shard_nodes.iter().sum::<u64>(), NODES as u64);
        assert_eq!(stats.unhealthy_backends, 0);
        assert!(stats.reverse_topk >= sequence().len() as u64);

        // Shutdown through the router propagates to every backend.
        via_router.shutdown().expect("router shutdown");
        router.join().expect("router join");
        for h in backend_handles {
            h.join().expect("backend join");
        }
        direct.shutdown().expect("single shutdown");
        single.join().expect("single join");
    }
}

/// The shard-scoped surface on one service flavor: `want_pmpn` hands back
/// exactly the PMPN vector, and screening against the shipped vector skips
/// the solve without changing a bit of the answer.
fn ship_pmpn(svc: &mut impl RtkService, call: &QueryCall, pmpn: &[f64]) -> WireQueryResult {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let solved = svc.shard_reverse_topk(call, None, true).expect("solving slice");
    assert_eq!(solved.pmpn.as_deref().map(bits), Some(bits(pmpn)), "want_pmpn vector");
    let reused = svc.shard_reverse_topk(call, Some(pmpn), false).expect("reusing slice");
    assert!(reused.pmpn.is_none(), "no vector was asked back");
    assert_equal(&reused.result, &solved.result, true, "shipped vs solved PMPN");
    let solve = &reused.result.trace.as_ref().expect("traced call").children[0];
    assert_eq!(solve.name, "pmpn_solve");
    assert!(solve.annotations.contains(&("iterations".into(), "0".into())), "{solve:?}");
    solved.result
}

#[test]
fn shipped_pmpn_is_the_local_solve_on_the_shard_surface() {
    let whole = build_engine(2);
    let index = whole.index().one_shard(1).expect("shard index");
    let mut local = ReverseTopkEngine::from_parts(graph(), index).expect("shard engine");
    let backend = spawn_backend(&whole, 1, "127.0.0.1:0", None);
    let mut remote = Client::connect(backend.addr()).expect("connect backend");

    let call = QueryCall { trace: true, ..QueryCall::new(133, 5, false) };
    let pmpn = whole.proximities_to(NodeId(call.q)).expect("pmpn");
    let a = ship_pmpn(&mut local, &call, &pmpn);
    let b = ship_pmpn(&mut remote, &call, &pmpn);
    assert_equal(&a, &b, true, "in-process vs --shard-only server");

    remote.shutdown().expect("backend shutdown");
    backend.join().expect("backend join");
}

#[test]
fn backend_restart_mid_sequence_degrades_then_recovers() {
    let backends = 2usize;
    let single = Server::bind(build_engine(backends), "127.0.0.1:0", backend_config(None))
        .expect("bind single")
        .spawn();
    let mut direct = Client::connect(single.addr()).expect("connect single");

    let sharded = build_engine(backends);
    let b0 = spawn_backend(&sharded, 0, "127.0.0.1:0", None);
    let b0_addr = b0.addr();
    let b1 = spawn_backend(&sharded, 1, "127.0.0.1:0", None);
    let addrs = vec![b0_addr.to_string(), b1.addr().to_string()];
    let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default())
        .expect("bind router")
        .spawn();
    let mut via_router = Client::connect(router.addr()).expect("connect router");

    // Phase 1: a prefix with commits, fully pinned (stats included).
    let seq = sequence();
    let (prefix, suffix) = seq.split_at(seq.len() / 2);
    for (a, b) in run(&mut via_router, prefix).iter().zip(&run(&mut direct, prefix)) {
        assert_equal(a, b, true, &format!("prefix q={} k={}", b.query, b.k));
    }

    // Kill backend 0 directly (not through the router).
    let mut backdoor = Client::connect(b0_addr).expect("connect backend 0");
    backdoor.shutdown().expect("backend shutdown");
    b0.join().expect("backend 0 join");

    // The router degrades loudly: whole-query errors, never partial
    // answers, and the outage is visible in stats.
    let err = via_router
        .reverse_topk(5, 3, false)
        .expect_err("must fail while backend is down");
    assert!(err.to_string().contains("shard 0"), "unhelpful outage error: {err}");
    let stats = via_router.stats().expect("stats during outage");
    assert_eq!(stats.unhealthy_backends, 1, "outage must show in unhealthy_backends");

    // Restart backend 0 on the same address, from its on-boot state (as a
    // process restarted from disk would: in-memory refinements are gone).
    let restarted = {
        let mut attempt = 0;
        loop {
            // The freed port can linger in TIME_WAIT briefly; retry.
            let index = sharded.index().one_shard(0).expect("index");
            let engine = ReverseTopkEngine::from_parts(graph(), index).expect("shard engine");
            match Server::bind(engine, b0_addr, backend_config(None)) {
                Ok(server) => break server.spawn(),
                Err(e) if attempt < 50 => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    let _ = e;
                }
                Err(e) => panic!("cannot rebind backend 0 on {b0_addr}: {e}"),
            }
        }
    };

    // Wait for the router's health prober to re-admit the restarted
    // backend (its retry backoff must lapse first), so the suffix below
    // exercises steady-state serving, not the re-admission race.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let s = via_router.stats().expect("stats while waiting for re-admission");
        if s.unhealthy_backends == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "backend 0 was not re-admitted within 30s of restarting"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // Phase 2: once the failure backoff lapses the router re-dials on
    // demand (the background prober would also re-admit it) — no router
    // restart needed. Result nodes and proximities are still bitwise equal
    // (answers never depend on refinement state); counters may differ
    // because backend 0 lost its committed refinements, exactly like a
    // process restarted from its last snapshot.
    for (a, b) in run(&mut via_router, suffix).iter().zip(&run(&mut direct, suffix)) {
        assert_equal(a, b, false, &format!("suffix q={} k={}", b.query, b.k));
    }
    let stats = via_router.stats().expect("stats after recovery");
    assert_eq!(stats.unhealthy_backends, 0, "recovered backend must clear the unhealthy mark");

    via_router.shutdown().expect("router shutdown");
    router.join().expect("router join");
    restarted.join().expect("restarted backend join");
    b1.join().expect("backend 1 join");
    direct.shutdown().expect("single shutdown");
    single.join().expect("single join");
}

#[test]
fn auth_token_gates_the_whole_tier() {
    let token = "tier-secret";
    let sharded = build_engine(2);
    let handles: Vec<ServerHandle> = (0..2)
        .map(|sid| spawn_backend(&sharded, sid, "127.0.0.1:0", Some(token)))
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

    // A router without the token cannot even complete its handshake.
    assert!(
        Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default()).is_err(),
        "router must not come up against auth-protected backends without the token"
    );

    let config = RouterConfig { auth_token: Some(token.to_string()), ..RouterConfig::default() };
    let router = Router::bind(&addrs, "127.0.0.1:0", config).expect("bind router").spawn();

    // Unauthenticated client: rejected and counted.
    let mut anon = Client::connect(router.addr()).expect("connect");
    let err = anon.reverse_topk(0, 2, false).expect_err("must be unauthorized");
    assert!(err.to_string().contains("auth"), "unhelpful auth error: {err}");

    // Wrong token: also rejected.
    let mut wrong = Client::connect(router.addr()).expect("connect");
    wrong.set_auth_token("tier-secret-but-wrong");
    assert!(wrong.ping().is_err());

    // Right token: full service, and the failures were counted.
    let mut good = Client::connect(router.addr()).expect("connect");
    good.set_auth_token(token);
    good.ping().expect("authed ping");
    let r = good.reverse_topk(0, 2, false).expect("authed query");
    assert_eq!(r.query, 0);
    let stats = good.stats().expect("authed stats");
    assert!(stats.auth_failures >= 2, "auth failures must be counted: {stats:?}");

    good.shutdown().expect("shutdown");
    router.join().expect("router join");
    for h in handles {
        h.join().expect("backend join");
    }
}
