//! `rtk remote` — query a running `rtk serve` or `rtk router` instance
//! over the wire.
//!
//! Every subcommand but `batch` is written against the [`RtkService`]
//! trait, not the concrete client: the command logic cannot tell (and
//! does not care) whether the address belongs to a single server or a
//! routed tier — exactly the transparency the trait pins down. `batch` is
//! the one `Client`-specific surface: its queries are pipelined
//! `reverse_topk` requests, all in flight at once on one connection.

use crate::args::Parsed;
use rtk_server::{Client, QueryCall, RequestKind, RtkService};
use std::time::Duration;

pub(crate) fn run(argv: &[String]) -> Result<(), String> {
    const SUBCOMMANDS: &str = "query|topk|batch|add-edge|remove-edge|persist|stats|ping|shutdown";
    let Some(sub) = argv.first() else {
        return Err(format!("remote: expected {SUBCOMMANDS}"));
    };
    let flags: &[&str] = match sub.as_str() {
        "query" => &["node", "k", "update", "trace", "approx", "approx-walks", "approx-seed"],
        "topk" => &["node", "k", "early"],
        "batch" => &["nodes", "k"],
        "add-edge" => &["from", "to", "weight"],
        "remove-edge" => &["from", "to"],
        "persist" => &["out"],
        "stats" => &["json"],
        "ping" | "shutdown" => &[],
        _ => return Err(format!("remote: expected {SUBCOMMANDS}, got {sub:?}")),
    };
    // Every subcommand also takes the connection flags.
    let args = Parsed::parse(&argv[1..], &[&["addr", "timeout", "auth-token"], flags].concat())?;
    let addr = args.get("addr").unwrap_or(super::serve::DEFAULT_ADDR);
    let mut builder = Client::builder();
    // `--timeout <secs>` bounds the TCP connect and every socket
    // read/write, so a hung server fails the command instead of wedging it.
    if args.get("timeout").is_some() {
        let secs: u64 = args.get_num("timeout", 0u64)?;
        if secs == 0 {
            return Err("remote: --timeout expects a positive number of seconds".into());
        }
        builder = builder.timeout(Duration::from_secs(secs));
    }
    if let Some(token) = args.get("auth-token") {
        builder = builder.auth_token(token);
    }
    let mut client = builder
        .connect(addr)
        .map_err(|e| format!("remote: cannot connect to {addr}: {e}"))?;
    match sub.as_str() {
        "query" => query(&mut client, &args),
        "topk" => topk(&mut client, &args),
        "batch" => batch(&mut client, &args),
        "add-edge" => add_edge(&mut client, &args),
        "remove-edge" => remove_edge(&mut client, &args),
        "persist" => persist(&mut client, &args),
        "stats" if args.has("json") => stats_json(&mut client),
        "stats" => stats(&mut client),
        "ping" => {
            RtkService::ping(&mut client).map_err(|e| format!("remote ping: {e}"))?;
            outln!("pong from {addr}");
            Ok(())
        }
        "shutdown" => {
            RtkService::shutdown(&mut client).map_err(|e| format!("remote shutdown: {e}"))?;
            outln!("server at {addr} acknowledged shutdown");
            Ok(())
        }
        _ => unreachable!("subcommand validated above"),
    }
}

fn node_flag(args: &Parsed) -> Result<u32, String> {
    args.get("node")
        .ok_or_else(|| "remote: --node <id> is required".to_string())?
        .parse()
        .map_err(|_| "remote: --node expects a node id".to_string())
}

/// Parses `--nodes a,b,c` into `(q, k)` pairs with one shared `k`.
fn node_list(args: &Parsed, k: u32) -> Result<Vec<(u32, u32)>, String> {
    args.get("nodes")
        .ok_or_else(|| "remote batch: --nodes <id,id,…> is required".to_string())?
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .map(|q| (q, k))
                .map_err(|_| format!("remote batch: bad node id {s:?}"))
        })
        .collect()
}

fn query(svc: &mut impl RtkService, args: &Parsed) -> Result<(), String> {
    let q = node_flag(args)?;
    let k = args.get_num("k", 10u32)?;
    let update = args.has("update");
    let traced = args.has("trace");
    let approx =
        super::query::approx_from_args(args).map_err(|e| e.replace("query:", "remote query:"))?;
    let started = std::time::Instant::now();
    let r = svc
        .reverse_topk(&QueryCall { q, k, update, trace: traced, approx })
        .map_err(|e| format!("remote query: {e}"))?;
    let round_trip = started.elapsed().as_secs_f64();
    outln!(
        "reverse top-{k} of node {q}{}: {} result(s)",
        if update { " (update mode)" } else { "" },
        r.nodes.len()
    );
    for (u, p) in r.nodes.iter().zip(&r.proximities) {
        outln!("  node {u}  (p_u(q) = {p:.6})");
    }
    outln!(
        "stats: {} candidates | {} hits | {} refined ({} iterations) | {:.4}s server-side",
        r.candidates,
        r.hits,
        r.refined_nodes,
        r.refine_iterations,
        r.server_seconds
    );
    if let Some(a) = &r.approx {
        outln!(
            "approx: {} estimated | {} exact-refined | {} walks",
            a.estimated,
            a.exact_refined,
            a.walks
        );
    }
    if traced {
        match r.trace {
            Some(server_trace) => {
                // Wrap the service's tree in a client-side root so the
                // breakdown also shows what the network + wire cost on
                // top of server-side time.
                let mut root = rtk_obs::TraceSpan::new("client:remote_query", round_trip);
                root.children.push(server_trace);
                outln!("\ntrace ({} span(s)):", root.node_count());
                crate::write_stdout(format_args!("{}", root.render()));
            }
            None => outln!("\ntrace: the service answered without a trace section"),
        }
    }
    Ok(())
}

fn topk(svc: &mut impl RtkService, args: &Parsed) -> Result<(), String> {
    let u = node_flag(args)?;
    let k = args.get_num("k", 10u32)?;
    let early = args.has("early");
    let t = svc.topk(u, k, early).map_err(|e| format!("remote topk: {e}"))?;
    outln!("top-{k} from node {u}{}:", if early { " (early termination)" } else { "" });
    for (v, p) in t.nodes.iter().zip(&t.scores) {
        outln!("  node {v}  (p = {p:.6})");
    }
    Ok(())
}

/// `--nodes a,b,c --k K`: frozen queries as individual requests, all in
/// flight at once over this one connection (wire v4) — the server's whole
/// worker pool can work on them concurrently.
fn batch(client: &mut Client, args: &Parsed) -> Result<(), String> {
    let k = args.get_num("k", 10u32)?;
    let queries = node_list(args, k)?;
    let rs = client.batch(&queries).map_err(|e| format!("remote batch: {e}"))?;
    for r in rs {
        outln!("node {}: {} result(s): {:?}", r.query, r.nodes.len(), r.nodes);
    }
    Ok(())
}

/// Parses the `--from U --to V` pair shared by the edge-update verbs.
fn edge_flags(args: &Parsed) -> Result<(u32, u32), String> {
    let parse = |key: &str| -> Result<u32, String> {
        args.get(key)
            .ok_or_else(|| format!("remote: --{key} <node id> is required"))?
            .parse()
            .map_err(|_| format!("remote: --{key} expects a node id"))
    };
    Ok((parse("from")?, parse("to")?))
}

fn print_update(verb: &str, from: u32, to: u32, u: &rtk_server::WireUpdateResult) {
    outln!(
        "{verb} edge {from} -> {to}: {} state(s) + {} hub vector(s) recomputed; \
         index digest {:016x}",
        u.recomputed_states,
        u.recomputed_hubs,
        u.index_digest
    );
}

/// `add-edge --from U --to V [--weight W]`: one edge insertion through the
/// service — the server mutates its graph and repairs the affected index
/// entries under its write lock, then answers with the recompute effect
/// plus the post-update index digest (replica convergence check).
fn add_edge(svc: &mut impl RtkService, args: &Parsed) -> Result<(), String> {
    let (from, to) = edge_flags(args)?;
    let weight = args.get_num("weight", 1.0f64)?;
    let u = svc.add_edge(from, to, weight).map_err(|e| format!("remote add-edge: {e}"))?;
    print_update("added", from, to, &u);
    Ok(())
}

/// `remove-edge --from U --to V`: the inverse operation; removing a node's
/// last out-edge is rejected by the server (dangling nodes are forbidden).
fn remove_edge(svc: &mut impl RtkService, args: &Parsed) -> Result<(), String> {
    let (from, to) = edge_flags(args)?;
    let u = svc.remove_edge(from, to).map_err(|e| format!("remote remove-edge: {e}"))?;
    print_update("removed", from, to, &u);
    Ok(())
}

/// `--out <path>`: flush the server's current (refined) engine snapshot to
/// a path on the *server's* filesystem, under its read lock (every
/// mutation holds the write lock, so the image is quiescent).
fn persist(svc: &mut impl RtkService, args: &Parsed) -> Result<(), String> {
    let out = args
        .get("out")
        .ok_or_else(|| "remote persist: --out <server-side path> is required".to_string())?;
    let bytes = svc.persist(out).map_err(|e| format!("remote persist: {e}"))?;
    outln!(
        "server flushed its engine snapshot to {out} ({:.2} MiB)",
        bytes as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

/// `stats --json`: the full snapshot as one pretty-printed JSON object —
/// the same serializer the bench harness uses, so dashboards can ingest
/// either source identically.
fn stats_json(svc: &mut impl RtkService) -> Result<(), String> {
    let s = svc.stats().map_err(|e| format!("remote stats: {e}"))?;
    outln!("{}", s.to_json().render_pretty());
    Ok(())
}

fn stats(svc: &mut impl RtkService) -> Result<(), String> {
    let s = svc.stats().map_err(|e| format!("remote stats: {e}"))?;
    outln!("server stats:");
    outln!("  uptime:           {:.1}s", s.uptime_seconds);
    outln!("  graph:            {} nodes / {} edges (max k {})", s.nodes, s.edges, s.max_k);
    outln!("  workers:          {}", s.workers);
    let shard_sizes: Vec<String> = s
        .shard_nodes
        .iter()
        .zip(&s.shard_bytes)
        .map(|(&n, &b)| format!("{n} nodes/{:.2} MiB", b as f64 / (1024.0 * 1024.0)))
        .collect();
    outln!("  shards:           {} [{}]", s.shard_count(), shard_sizes.join(", "));
    if s.shard_lo != 0 || s.shard_hi != s.nodes {
        outln!("  shard-only:       serving nodes {}..{}", s.shard_lo, s.shard_hi);
    }
    if s.unhealthy_backends > 0 {
        outln!("  DEGRADED:         {} backend(s) unhealthy", s.unhealthy_backends);
    }
    if s.hedged_requests > 0 || s.failovers > 0 {
        outln!(
            "  resilience:       {} hedged request(s), {} failover(s)",
            s.hedged_requests,
            s.failovers
        );
    }
    if s.approx_queries > 0 {
        outln!(
            "  approx:           {} query(ies): {} estimated, {} exact-refined, {} walks",
            s.approx_queries,
            s.approx_estimated,
            s.approx_exact_refined,
            s.approx_walks
        );
    }
    outln!("  connections:      {} ({} rejected at cap)", s.connections, s.rejected_connections);
    outln!(
        "  pipelining:       {} peak in-flight ({} rejected at depth cap)",
        s.inflight_peak,
        s.inflight_rejections
    );
    outln!(
        "  requests:         {} total (ping {}, reverse_topk {}, shard_rtk {}, topk {}, add_edge {}, remove_edge {}, persist {}, stats {}, shutdown {})",
        s.total_requests(),
        s.requests(RequestKind::Ping),
        s.requests(RequestKind::ReverseTopk),
        s.requests(RequestKind::ShardReverseTopk),
        s.requests(RequestKind::Topk),
        s.requests(RequestKind::AddEdge),
        s.requests(RequestKind::RemoveEdge),
        s.requests(RequestKind::Persist),
        s.requests(RequestKind::Stats),
        s.requests(RequestKind::Shutdown)
    );
    if s.index_digest != 0 {
        outln!("  index digest:     {:016x}", s.index_digest);
    }
    outln!(
        "  errors:           {} protocol, {} engine, {} auth",
        s.protocol_errors,
        s.engine_errors,
        s.auth_failures
    );
    outln!(
        "  latency:          p50 {:.6}s | p95 {:.6}s | p99 {:.6}s | mean {:.6}s | max {:.6}s ({} samples)",
        s.p50_seconds, s.p95_seconds, s.p99_seconds, s.mean_seconds, s.max_seconds, s.total_requests()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_unknown_subcommand_and_dead_server() {
        // No server on a (very likely) unused port: connect must fail fast
        // with a clean message rather than hang.
        let argv: Vec<String> = vec!["ping".into(), "--addr".into(), "127.0.0.1:1".into()];
        let err = run(&argv).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");

        let err = run(&["frobnicate".into()]).unwrap_err();
        assert!(err.contains("expected"), "{err}");

        // A zero timeout is a usage error, not a hang.
        let argv: Vec<String> = vec![
            "ping".into(),
            "--addr".into(),
            "127.0.0.1:1".into(),
            "--timeout".into(),
            "0".into(),
        ];
        let err = run(&argv).unwrap_err();
        assert!(err.contains("--timeout"), "{err}");
    }

    /// The trait-written subcommand helpers run against *any* service —
    /// here a local engine, proving the CLI's dispatch layer is
    /// transport-agnostic. (`batch` takes a `Client`; the end-to-end test
    /// below drives it.)
    #[test]
    fn helpers_drive_a_local_engine_through_the_trait() {
        let mut engine = rtk_core::ReverseTopkEngine::builder(rtk_datasets::toy_graph())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .build()
            .unwrap();
        let argv: Vec<String> = vec!["--node".into(), "0".into(), "--k".into(), "2".into()];
        let args = Parsed::parse(&argv, &["node", "k"]).unwrap();
        query(&mut engine, &args).unwrap();
        topk(&mut engine, &args).unwrap();
        stats(&mut engine).unwrap();
    }

    #[test]
    fn end_to_end_against_in_process_server() {
        use rtk_core::ReverseTopkEngine;
        let engine = ReverseTopkEngine::builder(rtk_datasets::toy_graph())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .build()
            .unwrap();
        let handle = rtk_server::Server::bind(
            engine,
            "127.0.0.1:0",
            rtk_server::ServerConfig { workers: 1, ..Default::default() },
        )
        .unwrap()
        .spawn();
        let addr = handle.addr().to_string();
        let dir = std::env::temp_dir().join("rtk_cli_test_remote");
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("flush.rtke");

        for argv in [
            vec![
                "ping".to_string(),
                "--addr".into(),
                addr.clone(),
                "--timeout".into(),
                "30".into(),
            ],
            vec![
                "query".into(),
                "--addr".into(),
                addr.clone(),
                "--node".into(),
                "0".into(),
                "--k".into(),
                "2".into(),
            ],
            vec![
                "topk".into(),
                "--addr".into(),
                addr.clone(),
                "--node".into(),
                "2".into(),
                "--k".into(),
                "2".into(),
                "--early".into(),
            ],
            vec![
                "batch".into(),
                "--addr".into(),
                addr.clone(),
                "--nodes".into(),
                "0,1,2".into(),
                "--k".into(),
                "2".into(),
            ],
            vec![
                "add-edge".into(),
                "--addr".into(),
                addr.clone(),
                "--from".into(),
                "0".into(),
                "--to".into(),
                "3".into(),
                "--weight".into(),
                "0.5".into(),
            ],
            vec![
                "remove-edge".into(),
                "--addr".into(),
                addr.clone(),
                "--from".into(),
                "0".into(),
                "--to".into(),
                "3".into(),
            ],
            vec![
                "persist".into(),
                "--addr".into(),
                addr.clone(),
                "--out".into(),
                snapshot.to_str().unwrap().into(),
            ],
            vec![
                "query".into(),
                "--addr".into(),
                addr.clone(),
                "--node".into(),
                "0".into(),
                "--k".into(),
                "2".into(),
                "--trace".into(),
            ],
            vec![
                "query".into(),
                "--addr".into(),
                addr.clone(),
                "--node".into(),
                "0".into(),
                "--k".into(),
                "2".into(),
                "--approx".into(),
                "1e-4".into(),
                "--approx-seed".into(),
                "7".into(),
            ],
            vec!["stats".into(), "--addr".into(), addr.clone()],
            vec!["stats".into(), "--addr".into(), addr.clone(), "--json".into()],
            vec!["shutdown".into(), "--addr".into(), addr.clone()],
        ] {
            run(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        }
        handle.join().unwrap();
        assert!(snapshot.exists(), "persist must have written the snapshot");
        std::fs::remove_dir_all(&dir).ok();
    }
}
