//! `rtk serve` — run the reverse top-k network server over a saved index,
//! either whole (`rtk serve`) or one shard per process (`--shard-only
//! --shard <i>`, fronted by `rtk router`). `--chaos <spec>` arms seeded
//! fault injection (drop/delay/close-after/refuse — see
//! [`rtk_server::ChaosConfig`]) for exercising the router's failover.

use crate::args::Parsed;
use rtk_core::ReverseTopkEngine;
use rtk_server::{Server, ServerConfig};

/// Default listen address when `--addr` is omitted.
pub(crate) const DEFAULT_ADDR: &str = "127.0.0.1:7313";

/// The flags `rtk serve` reads.
pub(crate) const FLAGS: &[&str] = &[
    "index",
    "shard-only",
    "shard",
    "addr",
    "workers",
    "query-threads",
    "max-frame-mib",
    "max-connections",
    "max-inflight",
    "persist-dir",
    "auth-token",
    "chaos",
    "metrics-addr",
    "update-log",
    "log-file",
    "log-level",
];

pub(crate) fn run(args: &Parsed) -> Result<(), String> {
    super::init_logging(args).map_err(|e| format!("serve: {e}"))?;
    let addr = args.get("addr").unwrap_or(DEFAULT_ADDR);
    let config = ServerConfig {
        workers: args.get_num("workers", 0usize)?,
        max_frame_bytes: args
            .get_num("max-frame-mib", 16u32)?
            .saturating_mul(1024 * 1024)
            .max(1024),
        query_threads: args.get_num("query-threads", 1usize)?,
        max_connections: args
            .get_num("max-connections", rtk_server::server::DEFAULT_MAX_CONNECTIONS)?,
        max_inflight: args.get_num("max-inflight", 0usize)?,
        persist_dir: args.get("persist-dir").map(std::path::PathBuf::from),
        auth_token: args.get("auth-token").map(str::to_string),
        chaos: args
            .get("chaos")
            .map(|spec| rtk_server::ChaosConfig::parse(spec).map_err(|e| format!("serve: {e}")))
            .transpose()?,
        metrics_addr: args.get("metrics-addr").map(str::to_string),
        update_log: args.get("update-log").map(std::path::PathBuf::from),
    };

    let engine = load_engine(args)?;
    let what = match engine.index().owned_shard() {
        Some(shard) => {
            let owned = engine.index().owned_range();
            format!(
                "shard {shard} of {} (nodes {}..{})",
                engine.shard_count(),
                owned.start,
                owned.end
            )
        }
        None => format!("{} index shard(s)", engine.shard_count()),
    };
    let server = Server::bind(engine, addr, config.clone())
        .map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
    outln!(
        "rtk-server listening on {} ({} workers, {what}{}{}); \
         stop with `rtk remote shutdown --addr {}`",
        server.local_addr(),
        if config.workers == 0 { "all-core".to_string() } else { config.workers.to_string() },
        if config.max_connections > 0 {
            format!(", ≤{} connections", config.max_connections)
        } else {
            String::new()
        },
        if config.auth_token.is_some() { ", auth required" } else { "" },
        server.local_addr()
    );
    if let Some(maddr) = server.metrics_addr() {
        outln!("rtk-server metrics on http://{maddr}/metrics (Prometheus text format)");
    }
    if config.chaos.is_some() {
        outln!("rtk-server CHAOS injection enabled — answers may be dropped, delayed, or cut");
    }
    server.run().map_err(|e| format!("serve: {e}"))
}

/// Loads the engine from the `--index` snapshot: what the file holds, or
/// with `--shard-only` only shard `--shard` of it (a router backend, which
/// walks the whole graph but holds one shard's states).
fn load_engine(args: &Parsed) -> Result<ReverseTopkEngine, String> {
    let index_path = args
        .get("index")
        .ok_or_else(|| "serve: --index <file> is required".to_string())?;
    if !args.has("shard-only") {
        return ReverseTopkEngine::load_path(index_path)
            .map_err(|e| format!("serve: snapshot load: {e}"));
    }
    let shard_id = args.get_num("shard", 0usize)?;
    let (graph, index) = rtk_index::storage::load_one_shard_path(index_path, shard_id)
        .map_err(|e| format!("serve: shard {shard_id} of {index_path:?}: {e}"))?;
    ReverseTopkEngine::from_parts(graph, index).map_err(|e| format!("serve: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_engine_reads_whole_and_one_shard() {
        let dir = std::env::temp_dir().join("rtk_cli_test_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = ReverseTopkEngine::builder(rtk_datasets::toy_graph())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .shards(2)
            .build()
            .unwrap();
        let path = dir.join("g.rtki");
        engine.save_path(&path).unwrap();
        let path = path.to_str().unwrap().to_string();
        let load = |extra: &[&str]| {
            let mut argv = vec!["--index".to_string(), path.clone()];
            argv.extend(extra.iter().map(|s| s.to_string()));
            load_engine(&Parsed::parse(&argv, FLAGS).unwrap())
        };

        let whole = load(&[]).unwrap();
        assert_eq!(whole.node_count(), 6);
        assert_eq!(whole.index().owned_shard(), None);
        let one = load(&["--shard-only", "--shard", "1"]).unwrap();
        assert_eq!(one.index().owned_shard(), Some(1));
        assert_eq!(one.graph(), whole.graph());
        let err = load(&["--shard-only", "--shard", "2"]).err().expect("no shard 2");
        assert!(err.contains("shard 2"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_index_flag_errors() {
        let err = run(&Parsed::parse(&[], FLAGS).unwrap()).unwrap_err();
        assert!(err.contains("--index"), "{err}");
    }
}
