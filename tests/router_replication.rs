//! Replicated-router HA determinism (replica groups, failover, hedging).
//!
//! Spins up **two replicas per shard** behind the router and pins the
//! tier's answers bitwise equal to a single-process server through every
//! failure mode the replica layer handles:
//!
//! * any single backend killed mid-load: queries keep succeeding with
//!   bitwise-identical answers, the kill registers as `failovers` in the
//!   aggregated stats, and after a restart the health prober re-admits the
//!   backend (`unhealthy_backends` returns to 0);
//! * a stalled replica (chaos `delay`): hedged requests race a second
//!   replica, the fast answer wins, and answers stay bitwise equal —
//!   replicas can change wall time, never answers;
//! * a replica that severs connections every few frames (chaos
//!   `close-after`): transparent fresh-dial retries, no client-visible
//!   error;
//! * startup validation: overlapping-but-not-identical replica ranges are
//!   rejected, duplicate backend addresses are deduplicated, and a tier
//!   whose backends are all down fails to bind with a clean error;
//! * an edge-update stream whose stable owner is killed mid-stream: the
//!   next update fails loudly (naming how many shards applied it — the
//!   tier is divergent, updates never silently fail over), and replaying
//!   the surviving owner's `RTKULOG1` log over the seed slices rebuilds a
//!   tier that is bitwise identical to a single-process engine that
//!   applied the same updates.

use rtk_core::ReverseTopkEngine;
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::DiGraph;
use rtk_server::{ChaosConfig, Client, Router, RouterConfig, Server, ServerConfig, ServerHandle};
use std::time::{Duration, Instant};

const NODES: usize = 260;
const EDGES: usize = 1200;
const SEED: u64 = 0xCAFE;
const MAX_K: usize = 8;
const SHARDS: usize = 2;

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

/// Starts one replica of shard `sid`, optionally with fault injection.
fn spawn_replica(
    engine: &ReverseTopkEngine,
    sid: usize,
    addr: &str,
    chaos: Option<&str>,
) -> ServerHandle {
    let index = engine.index().one_shard(sid).expect("shard index");
    let shard_engine = ReverseTopkEngine::from_parts(graph(), index).expect("shard engine");
    let config = ServerConfig {
        workers: 2,
        chaos: chaos.map(|spec| ChaosConfig::parse(spec).expect("chaos spec")),
        ..Default::default()
    };
    Server::bind(shard_engine, addr, config).expect("bind replica").spawn()
}

/// The frozen query workload; replicas never see update-mode commits here
/// because replica state divergence is irrelevant to answers, not to
/// counters.
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

/// Polls the router until no backend is marked unhealthy.
fn await_readmission(client: &mut Client, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = client.stats().expect("stats while awaiting re-admission");
        if s.unhealthy_backends == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: not re-admitted within 30s");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn killing_any_single_replica_mid_load_is_invisible_and_heals() {
    let single = Server::bind(
        build_engine(SHARDS),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .expect("bind single")
    .spawn();
    let mut direct = Client::connect(single.addr()).expect("connect single");
    let queries = workload();
    let reference = direct.batch(&queries).expect("reference batch");

    let sharded = build_engine(SHARDS);
    // Every backend in turn plays the victim: replica 0 and 1 of each shard.
    for victim in 0..SHARDS * 2 {
        let handles: Vec<ServerHandle> = (0..SHARDS * 2)
            .map(|i| spawn_replica(&sharded, i / 2, "127.0.0.1:0", None))
            .collect();
        let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
        let victim_addr = handles[victim].addr();
        let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default())
            .expect("bind router")
            .spawn();
        let mut client = Client::connect(router.addr()).expect("connect router");

        // Pipelined batch before the kill: fully healthy tier.
        let before = client.batch(&queries).expect("pre-kill batch");
        for (i, (a, b)) in before.iter().zip(&reference).enumerate() {
            assert_bitwise(a, b, &format!("victim={victim} pre-kill query {i}"));
        }

        // Kill the victim behind the router's back, then keep the load
        // coming: every query must still answer, bitwise identically.
        let mut backdoor = Client::connect(victim_addr).expect("victim backdoor");
        backdoor.shutdown().expect("victim shutdown");
        let after = client.batch(&queries).expect("post-kill batch must not error");
        for (i, (a, b)) in after.iter().zip(&reference).enumerate() {
            assert_bitwise(a, b, &format!("victim={victim} post-kill query {i}"));
        }
        let stats = client.stats().expect("post-kill stats");
        assert!(
            stats.failovers >= 1,
            "victim={victim}: the kill must register as a failover, got {stats:?}"
        );

        // Restart the victim on its old address (TIME_WAIT may linger) and
        // wait for the health prober to re-admit it.
        let restarted = {
            let mut attempt = 0;
            loop {
                let index = sharded.index().one_shard(victim / 2).expect("index");
                let engine = ReverseTopkEngine::from_parts(graph(), index).expect("shard engine");
                let config = ServerConfig { workers: 2, ..Default::default() };
                match Server::bind(engine, victim_addr, config) {
                    Ok(server) => break server.spawn(),
                    Err(e) if attempt < 50 => {
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(100));
                        let _ = e;
                    }
                    Err(e) => panic!("cannot rebind victim {victim} on {victim_addr}: {e}"),
                }
            }
        };
        await_readmission(&mut client, &format!("victim={victim}"));

        // Healed tier: still bitwise equal.
        let healed = client.batch(&queries).expect("post-restart batch");
        for (i, (a, b)) in healed.iter().zip(&reference).enumerate() {
            assert_bitwise(a, b, &format!("victim={victim} post-restart query {i}"));
        }

        client.shutdown().expect("router shutdown");
        router.join().expect("router join");
        restarted.join().expect("restarted victim join");
        for (i, h) in handles.into_iter().enumerate() {
            h.join().unwrap_or_else(|e| panic!("replica {i} join: {e}"));
        }
    }

    direct.shutdown().expect("single shutdown");
    single.join().expect("single join");
}

#[test]
fn stalled_replica_is_hedged_around_with_bitwise_equal_answers() {
    let single = Server::bind(
        build_engine(SHARDS),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .expect("bind single")
    .spawn();
    let mut direct = Client::connect(single.addr()).expect("connect single");

    // One fast and one universally-stalled replica per shard: chaos delays
    // every response frame by far more than the hedge delay.
    let sharded = build_engine(SHARDS);
    let handles: Vec<ServerHandle> = (0..SHARDS * 2)
        .map(|i| {
            let chaos = (i % 2 == 1).then_some("seed=3,delay=1:250ms");
            spawn_replica(&sharded, i / 2, "127.0.0.1:0", chaos)
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

    // Round-robin sends roughly half of all first submits to the stalled
    // replica; each of those must hedge to the fast one and win the race.
    // The traced answer names, per shard call, whether a hedge fired and
    // which replica's answer was used: a hedged call answered by a stalled
    // replica would mean the hedge did not hide the stall.
    let stalled: Vec<String> = addrs.iter().skip(1).step_by(2).cloned().collect();
    for (q, k) in workload() {
        let a = client.reverse_topk_traced(q, k, false).expect("hedged query");
        let b = direct.reverse_topk(q, k, false).expect("direct query");
        assert_bitwise(&a, &b, &format!("hedged q={q} k={k}"));
        let trace = a.trace.expect("traced query carries its span tree");
        for span in trace.children.iter().filter(|s| s.name.starts_with("shard")) {
            let note = |key: &str| {
                span.annotations.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
            };
            if note("hedged") == Some("true") {
                let replica = note("replica").expect("shard span names its replica");
                assert!(
                    !stalled.iter().any(|s| s == replica),
                    "q={q} k={k} {}: hedged, yet answered by stalled replica {replica}",
                    span.name
                );
            }
        }
    }
    let stats = client.stats().expect("hedge stats");
    assert!(
        stats.hedged_requests >= 1,
        "a universally stalled replica must trigger hedging, got {stats:?}"
    );
    // A stalled replica is slow, not broken — it must not be marked down.
    assert_eq!(stats.unhealthy_backends, 0, "stall must not mark the replica unhealthy");

    client.shutdown().expect("router shutdown");
    router.join().expect("router join");
    for h in handles {
        h.join().expect("replica join");
    }
    direct.shutdown().expect("single shutdown");
    single.join().expect("single join");
}

#[test]
fn connection_severing_replica_is_retried_transparently() {
    let single = Server::bind(
        build_engine(SHARDS),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .expect("bind single")
    .spawn();
    let mut direct = Client::connect(single.addr()).expect("connect single");

    // One replica per shard drops its connection after every 3rd frame —
    // the handshake itself consumes 2, so the first severance lands right
    // inside the query load.
    let sharded = build_engine(SHARDS);
    let handles: Vec<ServerHandle> = (0..SHARDS * 2)
        .map(|i| {
            let chaos = (i % 2 == 1).then_some("seed=9,close-after=3");
            spawn_replica(&sharded, i / 2, "127.0.0.1:0", chaos)
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default())
        .expect("bind router")
        .spawn();
    let mut client = Client::connect(router.addr()).expect("connect router");

    for round in 0..3 {
        for (q, k) in workload() {
            let a = client.reverse_topk(q, k, false).expect("query across severed connections");
            let b = direct.reverse_topk(q, k, false).expect("direct query");
            assert_bitwise(&a, &b, &format!("round={round} q={q} k={k}"));
        }
    }
    // A severed pooled connection is retried on a fresh dial to the same
    // replica — inside a hedge race too — so it is neither an outage nor a
    // failover.
    let stats = client.stats().expect("router stats");
    assert_eq!(stats.failovers, 0, "a severed pooled connection must not fail over: {stats:?}");
    assert_eq!(
        stats.unhealthy_backends, 0,
        "a severed pooled connection must not evict its replica: {stats:?}"
    );

    client.shutdown().expect("router shutdown");
    router.join().expect("router join");
    for h in handles {
        h.join().expect("replica join");
    }
    direct.shutdown().expect("single shutdown");
    single.join().expect("single join");
}

/// Like [`build_engine`] but with rounding disabled: update tests compare
/// serialized-index digests of incrementally-maintained engines against
/// replayed ones, and rounded hub vectors persist an aggregate
/// unrounded-nnz count an incremental recompute cannot reproduce.
fn build_exact_engine() -> ReverseTopkEngine {
    ReverseTopkEngine::builder(graph())
        .max_k(MAX_K)
        .hubs_per_direction(6)
        .threads(1)
        .shards(SHARDS)
        .rounding_threshold(0.0)
        .build()
        .expect("engine build")
}

/// Starts one replica of shard `sid` that appends every applied update to
/// `log`, exactly as `rtk serve --shard-only --update-log` would.
fn spawn_logged_replica(
    engine: &ReverseTopkEngine,
    sid: usize,
    addr: &str,
    log: &std::path::Path,
) -> ServerHandle {
    let index = engine.index().one_shard(sid).expect("shard index");
    let shard_engine = ReverseTopkEngine::from_parts(graph(), index).expect("shard engine");
    let config =
        ServerConfig { workers: 2, update_log: Some(log.to_path_buf()), ..Default::default() };
    Server::bind(shard_engine, addr, config).expect("bind replica").spawn()
}

/// A deterministic edge-update stream that is valid against `g` at every
/// step: fresh inserts between live nodes, with every third step removing
/// one of its own earlier inserts (never an original edge, so no node can
/// be orphaned). Mutates `g` as the mirror of the applied stream.
fn update_stream(g: &mut DiGraph, len: usize) -> Vec<rtk_core::UpdateRecord> {
    use rtk_core::UpdateRecord;
    let n = g.node_count() as u32;
    let mut live_inserts: Vec<(u32, u32)> = Vec::new();
    let mut records = Vec::with_capacity(len);
    let mut cursor = 0u32;
    for step in 0..len {
        if step % 3 == 2 && !live_inserts.is_empty() {
            let (from, to) = live_inserts.remove(0);
            g.remove_edge(from, to).expect("mirror removal");
            records.push(UpdateRecord::RemoveEdge { from, to });
            continue;
        }
        // Next fresh pair: a `from` that keeps out-degree >= 1 after any
        // later removal, and a `to` it does not reach yet.
        let (from, to) = loop {
            let from = (cursor * 37 + 11) % n;
            cursor += 1;
            if g.out_degree(from) == 0 {
                continue;
            }
            if let Some(to) = (0..n).find(|&t| t != from && !g.has_edge(from, t)) {
                break (from, to);
            }
        };
        let weight = 0.5 + step as f64 * 0.25;
        g.add_edge(from, to, weight).expect("mirror insert");
        live_inserts.push((from, to));
        records.push(UpdateRecord::AddEdge { from, to, weight });
    }
    records
}

#[test]
fn update_stream_survives_owner_kill_with_loud_errors_and_replay_recovery() {
    use rtk_core::UpdateRecord;

    let dir = std::env::temp_dir().join("rtk_test_router_updates");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let logs: Vec<std::path::PathBuf> = (0..SHARDS * 2)
        .map(|i| dir.join(format!("shard{}-rep{}.rtkl", i / 2, i % 2)))
        .collect();

    // One full engine for slicing and (later) the single-process reference,
    // plus in-process mirror shard engines that track what each shard's
    // owner should hold after every acknowledged update.
    let mut sharded = build_exact_engine();
    let mut mirrors: Vec<ReverseTopkEngine> = (0..SHARDS)
        .map(|sid| {
            let index = sharded.index().one_shard(sid).expect("mirror index");
            ReverseTopkEngine::from_parts(graph(), index).expect("mirror engine")
        })
        .collect();

    let mut handles: Vec<Option<ServerHandle>> = (0..SHARDS * 2)
        .map(|i| Some(spawn_logged_replica(&sharded, i / 2, "127.0.0.1:0", &logs[i])))
        .collect();
    let addrs: Vec<String> =
        handles.iter().map(|h| h.as_ref().unwrap().addr().to_string()).collect();
    // A long probe interval freezes the health view for the whole test:
    // after the owner kill, the router still targets the dead owner — the
    // update must fail loudly instead of quietly failing over (re-applying
    // an `add_edge` on another replica would double-accumulate weight).
    let config = RouterConfig { probe_interval: Duration::from_secs(30), ..Default::default() };
    let router = Router::bind(&addrs, "127.0.0.1:0", config).expect("bind router").spawn();
    let mut client = Client::connect(router.addr()).expect("connect router");

    // Healthy phase: stream updates through the tier. Every ack's digest
    // must equal the fold of the mirror shard digests — the replica layer
    // may move bytes around, never change them.
    let mut reference_graph = graph();
    let records = update_stream(&mut reference_graph, 12);
    for (step, record) in records.iter().enumerate() {
        let ack = match *record {
            UpdateRecord::AddEdge { from, to, weight } => client.add_edge(from, to, weight),
            UpdateRecord::RemoveEdge { from, to } => client.remove_edge(from, to),
        }
        .unwrap_or_else(|e| panic!("healthy-phase update {step} failed: {e}"));
        let mut digest_bytes = Vec::with_capacity(SHARDS * 8);
        for mirror in &mut mirrors {
            mirror.replay_updates(std::slice::from_ref(record)).expect("mirror replay");
            digest_bytes.extend_from_slice(&mirror.index_digest().to_le_bytes());
        }
        assert_eq!(
            ack.index_digest,
            rtk_core::fnv1a64(&digest_bytes),
            "step {step}: tier digest diverged from the in-process mirrors"
        );
    }

    // Each shard has exactly one stable owner: the backend whose log holds
    // the stream. Standbys never see updates (they go stale by design,
    // repaired below by log replay) — their logs must not even exist.
    let log_len = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let owners: Vec<usize> = (0..SHARDS)
        .map(|sid| {
            let (a, b) = (2 * sid, 2 * sid + 1);
            match (log_len(&logs[a]) > 0, log_len(&logs[b]) > 0) {
                (true, false) => a,
                (false, true) => b,
                other => panic!("shard {sid}: expected exactly one owner log, got {other:?}"),
            }
        })
        .collect();

    // Kill shard 1's owner, then push one more update. Shard 0 (applied
    // first, in shard order) succeeds; shard 1 fails — the error must name
    // the partial application and point at log replay. Joining the handle
    // makes the kill synchronous: a draining victim could still serve one
    // last update.
    let victim = handles[owners[1]].take().expect("victim handle");
    let mut backdoor = Client::connect(victim.addr()).expect("owner backdoor");
    backdoor.shutdown().expect("owner shutdown");
    victim.join().expect("victim join");
    let failed = match update_stream(&mut reference_graph, 1).remove(0) {
        UpdateRecord::AddEdge { from, to, weight } => (from, to, weight),
        r => panic!("expected an insert, got {r:?}"),
    };
    let err = client
        .add_edge(failed.0, failed.1, failed.2)
        .expect_err("update with a dead owner must fail loudly")
        .to_string();
    assert!(
        err.contains("update applied on 1 of 2 shards"),
        "error must name the partial application: {err}"
    );
    assert!(err.contains("rtk log replay"), "error must point at log replay: {err}");

    // Tear the divergent tier down before rebuilding from the logs.
    client.shutdown().expect("router shutdown");
    router.join().expect("router join");
    for (i, h) in handles.into_iter().enumerate() {
        if let Some(h) = h {
            h.join().unwrap_or_else(|e| panic!("backend {i} join: {e}"));
        }
    }

    // The logs tell the divergence story exactly: shard 0's owner logged
    // the half-applied update, shard 1's owner died before it.
    let partial = UpdateRecord::AddEdge { from: failed.0, to: failed.1, weight: failed.2 };
    let mut applied = records.clone();
    applied.push(partial);
    let shard0_log =
        rtk_index::storage::load_update_log(&logs[owners[0]]).expect("shard 0 owner log");
    assert_eq!(shard0_log, applied, "shard 0 log must include the half-applied update");
    let shard1_log =
        rtk_index::storage::load_update_log(&logs[owners[1]]).expect("shard 1 owner log");
    assert_eq!(shard1_log, records, "shard 1 log must stop at the last full application");

    // Recovery: replay the *most complete* owner log over every shard's
    // seed slice. Digests must converge on the mirrors (which now also
    // apply the partial update) — bitwise, not approximately.
    for mirror in &mut mirrors {
        mirror.replay_updates(std::slice::from_ref(&partial)).expect("mirror catch-up");
    }
    let recovered: Vec<ReverseTopkEngine> = (0..SHARDS)
        .map(|sid| {
            let index = sharded.index().one_shard(sid).expect("recovery index");
            let mut engine =
                ReverseTopkEngine::from_parts(graph(), index).expect("recovery engine");
            engine.replay_updates(&shard0_log).expect("recovery replay");
            assert_eq!(
                engine.index_digest(),
                mirrors[sid].index_digest(),
                "shard {sid}: seed + replay(log) must reproduce the live owner bitwise"
            );
            engine
        })
        .collect();

    // Respawn the tier from the recovered engines and pin its answers to a
    // single-process engine that applied the same stream.
    let tier_digest = {
        let mut bytes = Vec::with_capacity(SHARDS * 8);
        for e in &recovered {
            bytes.extend_from_slice(&e.index_digest().to_le_bytes());
        }
        rtk_core::fnv1a64(&bytes)
    };
    let handles: Vec<ServerHandle> = recovered
        .into_iter()
        .map(|engine| {
            let config = ServerConfig { workers: 2, ..Default::default() };
            Server::bind(engine, "127.0.0.1:0", config).expect("bind recovered").spawn()
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default())
        .expect("bind recovered router")
        .spawn();
    let mut client = Client::connect(router.addr()).expect("connect recovered router");
    let stats = client.stats().expect("recovered stats");
    assert_eq!(
        stats.index_digest, tier_digest,
        "one stats round-trip must confirm replica convergence after replay"
    );

    sharded.replay_updates(&applied).expect("reference replay");
    assert_eq!(sharded.graph(), &reference_graph, "reference engine graph drifted");
    let single = Server::bind(sharded, "127.0.0.1:0", ServerConfig::default())
        .expect("bind single")
        .spawn();
    let mut direct = Client::connect(single.addr()).expect("connect single");
    let queries = workload();
    let reference = direct.batch(&queries).expect("reference batch");
    let recovered_answers = client.batch(&queries).expect("recovered batch");
    for (i, (a, b)) in recovered_answers.iter().zip(&reference).enumerate() {
        assert_bitwise(a, b, &format!("post-recovery query {i}"));
    }

    client.shutdown().expect("recovered router shutdown");
    router.join().expect("recovered router join");
    for h in handles {
        h.join().expect("recovered replica join");
    }
    direct.shutdown().expect("single shutdown");
    single.join().expect("single join");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn startup_rejects_mismatched_replicas_and_dedupes_addresses() {
    // Overlapping but not identical ranges: shard 0 of a 2-way split
    // (0..130) vs shard 0 of a 3-way split (0..87) overlap without
    // matching — that is a misconfiguration, not redundancy.
    let two_way = build_engine(2);
    let three_way = build_engine(3);
    let a = spawn_replica(&two_way, 0, "127.0.0.1:0", None);
    let b = spawn_replica(&three_way, 0, "127.0.0.1:0", None);
    let addrs = vec![a.addr().to_string(), b.addr().to_string()];
    let err = match Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("overlapping non-identical ranges must be rejected"),
    };
    assert!(err.to_string().contains("overlap"), "unhelpful overlap error: {err}");

    // Shut the probes' targets down cleanly.
    for h in [a, b] {
        let mut c = Client::connect(h.addr()).expect("backdoor");
        c.shutdown().expect("backend shutdown");
        h.join().expect("backend join");
    }

    // Duplicate addresses: the same backend listed twice is one replica,
    // not two — the tier must come up with the deduplicated count.
    let sharded = build_engine(SHARDS);
    let handles: Vec<ServerHandle> = (0..SHARDS)
        .map(|sid| spawn_replica(&sharded, sid, "127.0.0.1:0", None))
        .collect();
    let mut addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    addrs.push(addrs[0].clone()); // backend 0 listed twice
    let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default())
        .expect("duplicate addresses must dedupe, not fail");
    assert_eq!(router.backend_count(), SHARDS, "duplicate address was not deduplicated");
    assert_eq!(router.shard_count(), SHARDS);
    let router = router.spawn();
    let mut client = Client::connect(router.addr()).expect("connect router");
    client.ping().expect("deduped tier serves");
    client.shutdown().expect("router shutdown");
    router.join().expect("router join");
    for h in handles {
        h.join().expect("backend join");
    }

    // All replicas down at boot: a clean bind error, not a tier that
    // cannot answer.
    let dead = vec!["127.0.0.1:1".to_string(), "127.0.0.1:1".to_string()];
    let err = match Router::bind(&dead, "127.0.0.1:0", RouterConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("all-backends-down must fail the bind"),
    };
    assert!(err.to_string().contains("backend"), "unhelpful all-down error: {err}");
}
