//! The traced run's reduction: per-layer metrics taken from outside, by
//! timing calls into each crate's public functions and by reading the spans
//! and counters the run collected. A metric of a layer the workload does not
//! run (the router on `local_frozen`, the arrival ladder on a closed loop)
//! reads 0 there.

use crate::run::{proximity_and_kth, Kind, Metric, Op, Traced};
use crate::spans::{self_time_by_name, self_times};
use crate::stats::{mean, median, percentile};
use crate::tier::{self, Shape, Tier, K};
use rtk_core::graph::NodeId;
use rtk_core::index::storage::append_update_log;
use rtk_core::index::UpdateRecord;
use rtk_core::query::query::TIE_EPSILON;
use rtk_core::query::{ApproxParams, QueryOptions};
use rtk_core::sparse::WorkerPool;
use rtk_obs::TraceSpan;
use rtk_server::wire::{decode_request, decode_response, encode_request, encode_response};
use rtk_server::{Request, Response};
use std::hint::black_box;
use std::time::Instant;

const APPROX_EPSILON: f64 = 1e-3;
const APPROX_WALKS: u32 = 8;

fn secs(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// Sum of the durations of every span called `name` in the tree.
fn named_seconds(trace: &TraceSpan, name: &str) -> f64 {
    let own = if trace.name == name { trace.duration_seconds } else { 0.0 };
    own + trace.children.iter().map(|c| named_seconds(c, name)).sum::<f64>()
}

pub fn reduce(t: Traced<'_>, notes: &mut Vec<String>) -> Result<(Vec<Metric>, u64), String> {
    let mut metrics: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| metrics.push(Metric::new(name, value, unit));
    let mut gate_failures = 0u64;
    let err = |e: rtk_core::EngineError| e.to_string();
    let mut scratch = t.recovery.engine;
    let cores = tier::nproc();

    // The first distinct query nodes of the stream: every probe uses these.
    let mut probe_nodes: Vec<u32> = Vec::new();
    for op in t.ops {
        if let Op::Query { q, .. } = op {
            if !probe_nodes.contains(q) {
                probe_nodes.push(*q);
            }
        }
        if probe_nodes.len() == t.profile.probe_ops {
            break;
        }
    }

    // graph, rwr: the transposed SpMV and the two solvers, as the engine
    // runs them.
    let edges = t.facts.edges as f64;
    let (mut pmpn_s, mut power_s, mut iterations, mut ns_per_edge) =
        (vec![], vec![], vec![], vec![]);
    for &q in &probe_nodes {
        let solve = secs(|| {
            black_box(scratch.proximities_to(NodeId(q)).expect("probe node in range"));
        });
        power_s.push(secs(|| {
            black_box(scratch.proximities_from(NodeId(q)).expect("probe node in range"));
        }));
        let exact =
            scratch.query_batch(&[(NodeId(q), K)], &tier::frozen_options(0)).map_err(err)?;
        let its = f64::from(exact[0].stats().pmpn_iterations);
        pmpn_s.push(solve);
        iterations.push(its);
        ns_per_edge.push(solve * 1e9 / (its.max(1.0) * edges));
    }
    put("graph.spmv_t_ns_per_edge", median(&ns_per_edge), "ns");
    put("rwr.pmpn_ms", median(&pmpn_s) * 1e3, "ms");
    put("rwr.pmpn_iterations", mean(&iterations), "count");
    put("rwr.power_ms", median(&power_s) * 1e3, "ms");
    let build = &t.facts.build;
    put(
        "rwr.bca_ns_per_push",
        build.node_sweep_seconds * 1e9 / (build.total_pushes as f64).max(1.0),
        "ns",
    );

    // query: where the time of the timed answers went, and how much of the
    // screen's work was useful. Times come from the program's own span tree
    // of each answer, counts from the answers.
    let traces: Vec<&TraceSpan> = t.answers.iter().filter_map(|a| a.trace.as_ref()).collect();
    let engine_s: f64 = traces
        .iter()
        .map(|tr| {
            named_seconds(tr, "engine:reverse_topk")
                + named_seconds(tr, "engine:shard_reverse_topk")
        })
        .sum();
    let share = |name: &str| {
        traces.iter().map(|tr| named_seconds(tr, name)).sum::<f64>() / engine_s.max(1e-12)
    };
    put("query.pmpn_share", share("pmpn_solve"), "ratio");
    put("query.screen_share", share("screen"), "ratio");
    let n = t.answers.len().max(1) as f64;
    let total = |f: fn(&tier::Answer) -> u64| t.answers.iter().map(|a| f(a)).sum::<u64>() as f64;
    let candidates = total(|a| a.candidates);
    let refine_iterations = total(|a| a.refine_iterations);
    put("query.candidates_per_query", candidates / n, "count");
    put("query.hits_per_query", total(|a| a.hits) / n, "count");
    put("query.refined_per_query", total(|a| a.refined) / n, "count");
    put("query.refine_iters_per_query", refine_iterations / n, "count");
    let mut costliest: Vec<u64> = t.answers.iter().map(|a| a.refine_iterations).collect();
    costliest.sort_unstable_by(|a, b| b.cmp(a));
    let top = costliest.len().div_ceil(100);
    put(
        "query.refine_iters_top1pct_share",
        costliest[..top].iter().sum::<u64>() as f64 / refine_iterations.max(1.0),
        "ratio",
    );
    put(
        "query.result_per_candidate",
        total(|a| a.nodes.len() as u64) / candidates.max(1.0),
        "ratio",
    );
    let refining_screen_s: f64 = t
        .answers
        .iter()
        .filter(|a| a.refine_iterations > 0)
        .filter_map(|a| a.trace.as_ref())
        .map(|tr| named_seconds(tr, "screen"))
        .sum();
    put("query.us_per_refine_iter", refining_screen_s * 1e6 / refine_iterations.max(1.0), "us");

    // approx: the keep-or-delete row. The same prefix exact and through the
    // approximate screen, on one thread each.
    let exact_options = tier::frozen_options(1);
    let approx_options = QueryOptions {
        approx: Some(ApproxParams { epsilon: APPROX_EPSILON, walks: APPROX_WALKS, seed: t.seed }),
        ..exact_options
    };
    let (mut exact_s, mut approx_s, mut build_s) = (0.0, 0.0, vec![]);
    let (mut estimated, mut fell_back, mut violations) = (0u64, 0u64, 0u64);
    for &q in &probe_nodes {
        let started = Instant::now();
        let exact = scratch.query_with(NodeId(q), K, &exact_options).map_err(err)?;
        exact_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let approx = scratch.query_with(NodeId(q), K, &approx_options).map_err(err)?;
        approx_s += started.elapsed().as_secs_f64();
        build_s.push(approx.stats().approx_build_seconds);
        estimated += approx.stats().approx_estimated;
        fell_back += approx.stats().approx_exact_refined;
        // The contract: answers differ only on nodes within epsilon of
        // their decision boundary.
        for &u in exact
            .nodes()
            .iter()
            .filter(|u| !approx.contains(**u))
            .chain(approx.nodes().iter().filter(|u| !exact.contains(**u)))
        {
            let (to_q, kth) = proximity_and_kth(&scratch, u, q)?;
            violations += u64::from((to_q - kth).abs() > APPROX_EPSILON + TIE_EPSILON);
        }
    }
    put("approx.speedup_vs_exact", exact_s / approx_s.max(1e-12), "ratio");
    put("approx.build_ms", mean(&build_s) * 1e3, "ms");
    put(
        "approx.fallback_ratio",
        fell_back as f64 / ((estimated + fell_back) as f64).max(1.0),
        "ratio",
    );
    put("approx.contract_violations", violations as f64, "count");
    if violations > 0 {
        notes.push(format!("approx: {violations} node(s) outside the epsilon contract"));
        gate_failures += violations;
    }

    // index: what the build cost, and what one edge update costs in-process
    // (the same edits the front door took).
    put("index.build_hubs_s", build.hub_selection_seconds + build.hub_vectors_seconds, "s");
    put("index.build_sweep_s", build.node_sweep_seconds, "s");
    put("index.build_pushes", build.total_pushes as f64, "count");
    put("index.bytes_per_edge", t.facts.index_bytes as f64 / edges, "B");
    let (mut update_ms, mut update_states) = (vec![], vec![]);
    for record in &t.recovery.records {
        let started = Instant::now();
        let effect = scratch.replay_updates(std::slice::from_ref(record)).map_err(err)?;
        update_ms.push(started.elapsed().as_secs_f64() * 1e3);
        update_states.push(effect.recomputed_states as f64);
    }
    put("index.update_ms_mean", mean(&update_ms), "ms");
    put("index.update_states_mean", mean(&update_states), "count");
    put("index.bytes_growth_ratio", t.bytes_after as f64 / t.bytes_before as f64, "ratio");

    // query.commit_ms: what update mode adds to a query, on answers that
    // commit. Last of the in-process probes: it refines the scratch index.
    let update_options =
        QueryOptions { update_index: true, query_threads: 1, ..Default::default() };
    let mut commit_ms = vec![];
    for &q in &probe_nodes {
        let answer = scratch.query_with(NodeId(q), K, &update_options).map_err(err)?;
        let s = answer.stats();
        commit_ms.push((s.total_seconds - s.pmpn_seconds - s.screen_seconds).max(0.0) * 1e3);
    }
    put("query.commit_ms", mean(&commit_ms), "ms");

    // core: persistence.
    let mut snapshot = Vec::new();
    let save_s = secs(|| scratch.save(&mut snapshot).expect("save into memory"));
    put("core.save_s", save_s, "s");
    put("core.load_s", t.recovery.load_s, "s");
    put("core.snapshot_mib", snapshot.len() as f64 / (1024.0 * 1024.0), "MiB");
    drop(snapshot);
    let digest_ms: Vec<f64> = (0..5)
        .map(|_| {
            secs(|| {
                black_box(scratch.index_digest());
            }) * 1e3
        })
        .collect();
    put("core.digest_ms", median(&digest_ms), "ms");
    put("core.replay_s", t.recovery.replay_s, "s");

    // sparse: the fork/join a parallel query pays per region.
    let pool = WorkerPool::global();
    let scope_us: Vec<f64> = (0..1000)
        .map(|_| {
            secs(|| {
                pool.scope(|scope| {
                    for _ in 0..cores {
                        scope.spawn(|| {});
                    }
                })
            }) * 1e6
        })
        .collect();
    put("sparse.pool_scope_us", median(&scope_us), "us");

    // server: one probe server over the scratch engine, one connection.
    let probe_dir = t.dir.join("probe");
    std::fs::create_dir_all(&probe_dir).map_err(|e| e.to_string())?;
    let probe = Tier::start(Shape::Single, scratch, &probe_dir, cores)?;
    let probe_stats;
    let mut single_ms = vec![];
    {
        let mut conn = probe.connect()?;
        let client = conn.client();
        let rtt_us: Vec<f64> = (0..t.profile.probe_ops * 20)
            .map(|_| secs(|| client.ping().expect("probe ping")) * 1e6)
            .collect();
        put("server.ping_rtt_us", median(&rtt_us), "us");

        let (mut overhead_ms, mut plain_s, mut traced_s) = (vec![], 0.0, 0.0);
        let (mut req_enc, mut req_dec, mut resp_enc, mut resp_dec, mut resp_bytes) =
            (vec![], vec![], vec![], vec![], vec![]);
        for &q in &probe_nodes {
            let started = Instant::now();
            let reply = client.reverse_topk(q, K as u32, false).map_err(|e| e.to_string())?;
            let plain = started.elapsed().as_secs_f64();
            plain_s += plain;
            single_ms.push(plain * 1e3);
            overhead_ms.push((plain - reply.server_seconds) * 1e3);
            let started = Instant::now();
            black_box(client.reverse_topk_traced(q, K as u32, false).map_err(|e| e.to_string())?);
            traced_s += started.elapsed().as_secs_f64();

            // The codec, on the frames this request produced.
            let request =
                Request::ReverseTopk { q, k: K as u32, update: false, trace: false, approx: None };
            let mut frame = Vec::new();
            req_enc.push(secs(|| frame = encode_request(black_box(&request))) * 1e9);
            req_dec.push(secs(|| drop(black_box(decode_request(&frame)))) * 1e9);
            let response = Response::ReverseTopk(reply);
            resp_enc.push(secs(|| frame = encode_response(black_box(&response))) * 1e9);
            resp_dec.push(secs(|| drop(black_box(decode_response(&frame)))) * 1e9);
            resp_bytes.push(frame.len() as f64);
        }
        put("server.overhead_ms_p50", median(&overhead_ms), "ms");
        put("server.wire_req_encode_ns", median(&req_enc), "ns");
        put("server.wire_req_decode_ns", median(&req_dec), "ns");
        put("server.wire_resp_encode_ns", median(&resp_enc), "ns");
        put("server.wire_resp_decode_ns", median(&resp_dec), "ns");
        put("server.wire_resp_bytes", mean(&resp_bytes), "B");
        put("obs.trace_overhead_ratio", traced_s / plain_s.max(1e-12), "ratio");
        probe_stats = client.stats().map_err(|e| e.to_string())?;
    }
    probe.stop()?;
    let log = probe_dir.join("append.ulog");
    let append_ms: Vec<f64> = (0..10u32)
        .map(|i| {
            let record = UpdateRecord::AddEdge { from: i, to: i + 1, weight: 1.0 };
            secs(|| append_update_log(&log, &record).expect("append to the probe log")) * 1e3
        })
        .collect();
    put("server.ulog_append_ms", median(&append_ms), "ms");

    // server: the arrival ladder (open loop only).
    for r in &t.rungs {
        notes.push(format!(
            "rung offered {:.1}/s achieved {:.2}/s n={} failed={} p50 {:.2} ms p95 {:.2} ms wait-p95 {:.2} ms late-max {:.2} ms {}",
            r.offered, r.achieved, r.requests, r.failed, r.p50_ms, r.p95_ms, r.wait_p95_ms, r.late_max_ms,
            if r.ok() { "ok" } else { "over the limit" }
        ));
    }
    let rung = |i: usize| t.rungs.get(i);
    put("server.rung2_wait_ms_p95", rung(1).map_or(0.0, |r| r.wait_p95_ms), "ms");
    put("server.rung2_p95_ms", rung(1).map_or(0.0, |r| r.p95_ms), "ms");
    put("server.rung3_p95_ms", rung(2).map_or(0.0, |r| r.p95_ms), "ms");
    put("server.rung3_achieved_qps", rung(2).map_or(0.0, |r| r.achieved), "1/s");
    put("server.gen_late_ms_max", t.rungs.iter().map(|r| r.late_max_ms).fold(0.0, f64::max), "ms");
    put(
        "server.max_ok_rate_qps",
        t.rungs.iter().filter(|r| r.ok()).map(|r| r.offered).fold(0.0, f64::max),
        "1/s",
    );
    // The workload's own tier if it has one, the probe server otherwise.
    let stats = t.stats.unwrap_or(&probe_stats);
    put(
        "server.busy_rejections",
        (stats.rejected_connections + stats.inflight_rejections) as f64,
        "count",
    );
    put("server.protocol_errors", stats.protocol_errors as f64, "count");
    put("server.engine_errors", stats.engine_errors as f64, "count");

    // router: its own time per query (its span minus what the shard calls
    // cover), how unevenly the shards finish, and what the tier adds over
    // one server, one connection each.
    let routed = t.kind == Kind::RoutedClosed;
    let spans = t.recorder.spans();
    let own = self_times(spans).map_err(|e| format!("span set: {e:?}"))?;
    let router_self_ms: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "router:reverse_topk")
        .map(|(_, own)| own * 1e3)
        .collect();
    let skew: Vec<f64> = traces
        .iter()
        .filter(|tr| tr.name == "router:reverse_topk")
        .filter_map(|tr| {
            let shards: Vec<f64> = tr
                .children
                .iter()
                .filter(|c| c.name.starts_with("shard"))
                .map(|c| c.duration_seconds)
                .collect();
            let slowest = shards.iter().copied().fold(0.0, f64::max);
            (mean(&shards) > 0.0).then(|| slowest / mean(&shards))
        })
        .collect();
    let or_zero = |v: &[f64], f: fn(&[f64]) -> f64| if v.is_empty() { 0.0 } else { f(v) };
    put("router.self_ms_p50", or_zero(&router_self_ms, median), "ms");
    put("router.shard_skew_ratio", or_zero(&skew, median), "ratio");
    put(
        "router.added_ms_p50",
        if routed {
            percentile(&t.front_probe_ms, 50.0) - percentile(&single_ms, 50.0)
        } else {
            0.0
        },
        "ms",
    );
    let router_stats = t.stats.filter(|_| routed);
    let counter =
        |f: fn(&rtk_server::StatsSnapshot) -> u64| router_stats.map_or(0.0, |s| f(s) as f64);
    put("router.hedged_requests", counter(|s| s.hedged_requests), "count");
    put("router.failovers", counter(|s| s.failovers), "count");
    put("router.unhealthy_backends", counter(|s| s.unhealthy_backends), "count");
    if let Some(s) = router_stats {
        let unexpected = s.hedged_requests + s.failovers + s.unhealthy_backends;
        if unexpected > 0 {
            notes
                .push(format!("router hedged, failed over or lost a backend {unexpected} time(s)"));
            gate_failures += unexpected;
        }
    }

    // load: the whole timed phase pooled, where the end-to-end latencies
    // come from the middle half of the blocks. This is where the rare worst
    // case shows.
    put("load.pooled_p99_ms", percentile(&t.query_ms, 99.0), "ms");
    put("load.max_ms", percentile(&t.query_ms, 100.0), "ms");

    notes.push("self time by span name (s, spans):".to_string());
    for (name, seconds, count) in
        self_time_by_name(spans).map_err(|e| format!("span set: {e:?}"))?
    {
        notes.push(format!("  {name:<28} {seconds:>10.4} {count:>7}"));
    }
    Ok((metrics, gate_failures))
}
