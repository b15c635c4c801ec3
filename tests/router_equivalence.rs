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
//!   counter statistics all match. The list includes the graph's highest
//!   in-degree node at `k = MAX_K`, for which every shard refines, and each
//!   backend's request count shows who solved PMPN: one solve-only call per
//!   exact query, on the backend owning `q`;
//! * the shard-scoped surface: a `want_pmpn` call is the PMPN solve alone,
//!   and screening against its vector changes no bit;
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
    Client, QueryCall, RequestKind, Router, RouterConfig, RtkService, Server, ServerConfig,
    ServerHandle, WireQueryResult,
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

/// The graph's highest in-degree node (lowest id on a tie): the query
/// with the most candidates, so every shard refines for it.
fn hub() -> u32 {
    let g = graph();
    (0..NODES as u32)
        .max_by_key(|&u| (g.in_degree(u), std::cmp::Reverse(u)))
        .expect("nodes")
}

/// The conformance list every service flavor executes: each field of
/// [`QueryCall`] at every value — `update` × `trace` × `approx` ∈ {none,
/// ε = 0, pinned ε > 0}. Update calls make later calls depend on earlier
/// commits, so ordering bugs in the cross-process merge would surface here.
/// Each ε = 0 call directly follows its `approx: None` twin.
fn sequence() -> Vec<QueryCall> {
    let mut seq = Vec::new();
    for (q, k) in [(0u32, 1u32), (77, 4), (200, 8), (41, 3), (hub(), MAX_K as u32)] {
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

        // Every shard refines for the hub query, so the concurrent screens
        // below run real refinement on every backend (asked before any
        // update-mode call commits refinements).
        let probe = QueryCall::new(hub(), MAX_K as u32, false);
        let mut backend_clients: Vec<Client> = addrs
            .iter()
            .map(|a| Client::connect(a.as_str()).expect("connect backend"))
            .collect();
        for (sid, backend) in backend_clients.iter_mut().enumerate() {
            let slice = backend.shard_query(&probe, None, false).expect("hub probe");
            assert!(slice.result.refined_nodes > 0, "backends={backends}: shard {sid} refines");
        }

        // The probe is a frozen query, which keeps the bounds it refines;
        // every other side runs it too, so all sides share one history.
        // ε = 0 twin: the same sequence with each ε = 0 call replaced by
        // its `None` twin, on an engine of its own.
        let calls = sequence();
        let twins: Vec<QueryCall> = calls
            .iter()
            .map(|&c| if c.approx == Some(ZERO) { QueryCall { approx: None, ..c } } else { c })
            .collect();
        let local = run(&mut build_engine(backends), &[&[probe], &calls[..]].concat());
        let twin = run(&mut build_engine(backends), &[&[probe], &twins[..]].concat());
        let served = run(&mut direct, &[&[probe], &calls[..]].concat());
        let (local, twin, served) = (&local[1..], &twin[1..], &served[1..]);
        let routed = run(&mut via_router, &calls);
        for (i, call) in calls.iter().enumerate() {
            let ctx = format!("backends={backends} {call:?}");
            for (who, answers) in [("in-process", local), ("routed", &routed[..])] {
                assert_equal(&answers[i], &served[i], true, &format!("{ctx}: {who} vs served"));
                assert_eq!(answers[i].approx, served[i].approx, "{ctx}: {who} approx stats");
                assert_eq!(answers[i].trace.is_some(), call.trace, "{ctx}: {who} trace");
            }
            assert_eq!(served[i].trace.is_some(), call.trace, "{ctx}: served trace");
            assert_eq!(served[i].approx.is_some(), call.approx == Some(PINNED), "{ctx}: approx");
            if call.approx == Some(ZERO) {
                // ε = 0 is the exact path: the same bits and the same work
                // as the `None` call in its place.
                assert_equal(&served[i], &twin[i], true, &format!("{ctx}: ε=0"));
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

        // Who served what: every routed query (the batch's two included)
        // screens on every backend, and with more than one shard each exact
        // query adds one solve-only call on the backend owning `q`. The
        // router's handshake and the hub probe add one call each.
        let routed_queries = calls.iter().map(|c| (c.q, c.approx != Some(PINNED)));
        let routed_queries: Vec<(u32, bool)> =
            routed_queries.chain([(3, true), (100, true)]).collect();
        for (sid, backend) in backend_clients.iter_mut().enumerate() {
            let s = backend.stats().expect("backend stats");
            let owned = s.shard_lo..s.shard_hi;
            let solves = routed_queries
                .iter()
                .filter(|(q, exact)| *exact && owned.contains(&u64::from(*q)));
            let solves = if backends > 1 { solves.count() } else { 0 };
            assert_eq!(
                s.requests(RequestKind::ShardReverseTopk),
                (2 + routed_queries.len() + solves) as u64,
                "backends={backends}: shard {sid}'s shard_reverse_topk count"
            );
        }

        // Aggregated stats describe the whole tier.
        let stats = via_router.stats().expect("router stats");
        assert_eq!(stats.nodes, NODES as u64);
        assert_eq!(stats.max_k, MAX_K as u64);
        assert_eq!(stats.shard_count(), backends);
        assert_eq!(stats.shard_nodes.iter().sum::<u64>(), NODES as u64);
        assert_eq!(stats.unhealthy_backends, 0);
        assert!(stats.requests(RequestKind::ReverseTopk) >= sequence().len() as u64);

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

/// The shard-scoped surface on one service flavor: a `want_pmpn` call is
/// the PMPN solve alone — exactly the `proximities_to(q)` bits, an empty
/// partial answer, one traced `pmpn_solve` phase — and screening against
/// that vector skips the solve without changing a bit of the plain
/// (self-solving) answer. A solve-only call that also asks for an update,
/// an active approx screen or carries a vector is refused.
fn ship_pmpn(svc: &mut impl RtkService, call: &QueryCall, pmpn: &[f64]) -> WireQueryResult {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let solved = svc.shard_reverse_topk(call, None, true).expect("solve-only call");
    assert_eq!(solved.pmpn.as_deref().map(bits), Some(bits(pmpn)), "want_pmpn vector");
    let empty = &solved.result;
    assert!(empty.nodes.is_empty() && empty.proximities.is_empty(), "{empty:?}");
    assert_eq!(
        (empty.candidates, empty.hits, empty.refined_nodes, empty.refine_iterations),
        (0, 0, 0, 0)
    );
    let engine = empty.trace.as_ref().expect("traced call");
    assert_eq!(engine.name, "engine:shard_reverse_topk");
    let [solve] = engine.children.as_slice() else { panic!("one phase: {engine:?}") };
    assert_eq!(solve.name, "pmpn_solve");
    let iterations = solve.annotations.iter().find(|(k, _)| k == "iterations").expect("iterations");
    assert!(iterations.1.parse::<u32>().expect("a count") > 0, "{solve:?}");

    let plain = svc.shard_reverse_topk(call, None, false).expect("self-solving slice");
    let reused = svc.shard_reverse_topk(call, Some(pmpn), false).expect("reusing slice");
    assert!(plain.pmpn.is_none() && reused.pmpn.is_none(), "a screen returns no vector");
    assert_equal(&reused.result, &plain.result, true, "shipped vs self-solved PMPN");
    let solve = &reused.result.trace.as_ref().expect("traced call").children[0];
    assert_eq!(solve.name, "pmpn_solve");
    assert!(solve.annotations.contains(&("iterations".into(), "0".into())), "{solve:?}");

    for refused in
        [QueryCall { update: true, ..*call }, QueryCall { approx: Some(PINNED), ..*call }]
    {
        let err = svc.shard_reverse_topk(&refused, None, true).expect_err("solve-only refuses");
        assert!(err.to_string().contains("want_pmpn"), "{refused:?}: {err}");
    }
    let err = svc.shard_reverse_topk(call, Some(pmpn), true).expect_err("a shipped vector");
    assert!(err.to_string().contains("want_pmpn"), "{err}");
    // ε = 0 is the exact path: a solve-only call may carry it.
    let zero = QueryCall { approx: Some(ZERO), ..*call };
    assert!(svc.shard_reverse_topk(&zero, None, true).expect("ε = 0 solve").pmpn.is_some());
    plain.result
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
