//! Serving-layer load study — loopback `rtk-server` under client fan-out.
//!
//! Starts an in-process server on an ephemeral loopback port and drives it
//! from `M` concurrent client threads issuing frozen reverse top-k queries,
//! sweeping `M` over 1/2/4/8. Reports throughput plus client-side latency
//! percentiles (the shared fixed-bucket histogram), a one-round-trip batch
//! comparison, and the server's own metrics snapshot. Writes the
//! machine-readable `BENCH_serve.json` (`p50_seconds` / `p95_seconds` /
//! `p99_seconds`).
//!
//! ```sh
//! cargo run --release -p rtk-bench --bin serve_study            # full
//! cargo run --release -p rtk-bench --bin serve_study -- --quick
//! ```

use rtk_bench::{
    banner, graph_json, graph_summary, obj, print_table, query_workload, write_json_artifact,
};
use rtk_core::ReverseTopkEngine;
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_obs::Json;
use rtk_server::{Client, Server, ServerConfig};
use rtk_sparse::LatencyHistogram;
use std::time::Instant;

const K: u32 = 20;
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
const OUT_PATH: &str = "BENCH_serve.json";

fn main() {
    let args = rtk_bench::Args::parse();
    let (nodes, edges, requests) = if args.quick {
        (5_000usize, 30_000usize, args.workload(80, 80))
    } else {
        (50_000usize, 300_000usize, args.workload(80, 400))
    };
    let seed = 42u64;
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);

    banner(
        "Serving study",
        "loopback rtk-server under concurrent client load (RTKWIRE1)",
        &format!("rmat n={nodes} m={edges} seed={seed}"),
        &format!("{requests} requests per sweep, k={K}, {cores} core(s) available"),
    );

    let graph = rmat(&RmatConfig::new(nodes, edges, seed)).expect("graph generation");
    println!("graph: {}", graph_summary(&graph));
    let build_t0 = Instant::now();
    let engine = ReverseTopkEngine::builder(graph)
        .max_k(K as usize)
        .hubs_per_direction(25)
        .build()
        .expect("engine build");
    println!("engine built in {:.2}s", build_t0.elapsed().as_secs_f64());

    // One worker per swept client: each connection pins a worker for its
    // lifetime, so fewer workers than clients would serialize the top rows
    // of the sweep into queueing noise.
    let max_clients = *CLIENT_COUNTS.last().unwrap_or(&1);
    let config = ServerConfig { workers: cores.max(max_clients) + 1, ..Default::default() };
    let workers = config.workers;
    let handle = Server::bind(engine, "127.0.0.1:0", config).expect("bind loopback").spawn();
    let addr = handle.addr();
    println!("server on {addr} ({workers} workers)\n");

    let workload = query_workload(nodes, requests, 0x5E7E);

    // --- 1. Concurrent single-query sweep ---
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    let mut serial_qps = 0.0f64;
    for &clients in &CLIENT_COUNTS {
        let t0 = Instant::now();
        let hist = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(clients);
            for c in 0..clients {
                let workload = &workload;
                handles.push(scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connect");
                    let mut hist = LatencyHistogram::new();
                    // Interleave the shared workload across clients.
                    for &q in workload.iter().skip(c).step_by(clients) {
                        let t = Instant::now();
                        let r = client.reverse_topk(q, K, false).expect("reverse_topk");
                        hist.record(t.elapsed().as_secs_f64());
                        assert_eq!(r.query, q);
                    }
                    hist
                }));
            }
            let mut merged = LatencyHistogram::new();
            for h in handles {
                merged.merge(&h.join().expect("client thread"));
            }
            merged
        });
        let secs = t0.elapsed().as_secs_f64();
        let qps = requests as f64 / secs;
        if clients == 1 {
            serial_qps = qps;
        }
        let (p50, p95, p99) = hist.percentiles();
        rows.push(vec![
            clients.to_string(),
            format!("{secs:.3}"),
            format!("{qps:.1}"),
            format!("{p50:.5}"),
            format!("{p95:.5}"),
            format!("{p99:.5}"),
            format!("{:.2}x", qps / serial_qps),
        ]);
        sweep_json.push(obj(vec![
            ("clients", Json::U64(clients as u64)),
            ("total_seconds", Json::F64(secs)),
            ("queries_per_second", Json::F64(qps)),
            ("p50_seconds", Json::F64(p50)),
            ("p95_seconds", Json::F64(p95)),
            ("p99_seconds", Json::F64(p99)),
            ("mean_seconds", Json::F64(hist.mean())),
            ("speedup_vs_serial", Json::F64(qps / serial_qps)),
        ]));
    }
    println!("### Concurrent frozen reverse top-{K} queries ({requests} per sweep)");
    print_table(
        &["clients", "total (s)", "req/s", "p50 (s)", "p95 (s)", "p99 (s)", "speedup"],
        &rows,
    );
    println!();

    // --- 2. One batch round-trip for the same workload ---
    let mut client = Client::connect(addr).expect("batch client");
    let batch: Vec<(u32, u32)> = workload.iter().map(|&q| (q, K)).collect();
    let t0 = Instant::now();
    let results = client.batch(&batch).expect("batch");
    let batch_secs = t0.elapsed().as_secs_f64();
    assert_eq!(results.len(), batch.len());
    let batch_qps = batch.len() as f64 / batch_secs;
    println!(
        "### Batch: {} queries in one round-trip: {batch_secs:.3}s ({batch_qps:.1} queries/s)\n",
        batch.len()
    );

    // --- 3. Server-side metrics ---
    let stats = client.stats().expect("stats");
    println!(
        "server: {} requests | p50 {:.6}s p95 {:.6}s p99 {:.6}s | {} connections | {} protocol errors",
        stats.total_requests(),
        stats.p50_seconds,
        stats.p95_seconds,
        stats.p99_seconds,
        stats.connections,
        stats.protocol_errors
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server join");

    // `"server"` is the snapshot's own serialization — byte-for-byte the
    // same schema `rtk remote stats --json` prints.
    let artifact = obj(vec![
        ("bench", Json::Str("serve_study".into())),
        ("graph", graph_json("rmat", nodes, edges, seed)),
        ("k", Json::U64(K as u64)),
        ("requests", Json::U64(requests as u64)),
        ("server_workers", Json::U64(workers as u64)),
        ("threads_available", Json::U64(cores as u64)),
        ("concurrent", Json::Arr(sweep_json)),
        (
            "batch",
            obj(vec![
                ("queries", Json::U64(batch.len() as u64)),
                ("total_seconds", Json::F64(batch_secs)),
                ("queries_per_second", Json::F64(batch_qps)),
            ]),
        ),
        ("server", stats.to_json()),
    ]);
    write_json_artifact(OUT_PATH, &artifact);
}
