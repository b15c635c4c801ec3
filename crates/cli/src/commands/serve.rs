//! `rtk serve` — run the reverse top-k network server over a saved index,
//! either whole (`rtk serve`) or one shard per process (`--shard-only
//! --shard <i>`, fronted by `rtk router`). `--chaos <spec>` arms seeded
//! fault injection (drop/delay/close-after/refuse — see
//! [`rtk_server::ChaosConfig`]) for exercising the router's failover.

use crate::args::Parsed;
use rtk_core::ReverseTopkEngine;
use rtk_server::{Server, ServerConfig};
use std::io::Read;

/// Default listen address when `--addr` is omitted.
pub(crate) const DEFAULT_ADDR: &str = "127.0.0.1:7313";

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

    let engine = if args.has("shard-only") { load_shard_engine(args)? } else { load_engine(args)? };
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
    println!(
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
        println!("rtk-server metrics on http://{maddr}/metrics (Prometheus text format)");
    }
    if config.chaos.is_some() {
        println!("rtk-server CHAOS injection enabled — answers may be dropped, delayed, or cut");
    }
    server.run().map_err(|e| format!("serve: {e}"))
}

/// Loads the engine whose index holds only shard `--shard` of a sharded
/// snapshot (`--shard-only`): `--index` must be a bare index snapshot
/// (an `RTKMANI1` manifest, of any shard count) and
/// `--graph` is required — every backend walks the full graph even though
/// it holds only its shard's states.
fn load_shard_engine(args: &Parsed) -> Result<ReverseTopkEngine, String> {
    let index_path = args
        .get("index")
        .ok_or_else(|| "serve: --index <file> is required".to_string())?;
    let shard_id = args.get_num("shard", 0usize)?;
    let graph_path = args.get("graph").ok_or_else(|| {
        "serve --shard-only: --graph <file> is required (backends hold the full graph)".to_string()
    })?;
    let graph = super::load_graph(graph_path)?;
    let index = rtk_index::storage::load_one_shard_path(index_path, shard_id)
        .map_err(|e| format!("serve: shard {shard_id} of {index_path:?}: {e}"))?;
    ReverseTopkEngine::from_parts(graph, index).map_err(|e| format!("serve: {e}"))
}

/// Loads the engine from `--index`, which may be either an engine snapshot
/// (`RTKENGN1`: graph + index in one file, written by `ReverseTopkEngine::
/// save_path`) or a bare index (`RTKMANI1`) paired with `--graph`.
fn load_engine(args: &Parsed) -> Result<ReverseTopkEngine, String> {
    let index_path = args
        .get("index")
        .ok_or_else(|| "serve: --index <file> is required".to_string())?;
    let mut magic = [0u8; 8];
    std::fs::File::open(index_path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .map_err(|e| format!("serve: cannot read {index_path:?}: {e}"))?;

    if &magic == b"RTKENGN1" {
        return ReverseTopkEngine::load_path(index_path)
            .map_err(|e| format!("serve: engine snapshot load: {e}"));
    }
    let graph_path = args.get("graph").ok_or_else(|| {
        format!("serve: {index_path:?} is a bare index; add --graph <file> (or pass an engine snapshot)")
    })?;
    let graph = super::load_graph(graph_path)?;
    let index =
        rtk_index::storage::load_path(index_path).map_err(|e| format!("serve: index load: {e}"))?;
    ReverseTopkEngine::from_parts(graph, index).map_err(|e| format!("serve: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::TransitionMatrix;
    use rtk_index::{HubSelection, IndexConfig, ReverseIndex};

    #[test]
    fn load_engine_accepts_both_formats() {
        let dir = std::env::temp_dir().join("rtk_cli_test_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let g = rtk_datasets::toy_graph();
        let gpath = dir.join("g.rtkg");
        super::super::save_graph(&g, gpath.to_str().unwrap()).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 3,
            hub_selection: HubSelection::DegreeBased { b: 1 },
            threads: 1,
            ..Default::default()
        };
        let index = ReverseIndex::build(&t, config).unwrap();
        let ipath = dir.join("g.rtki");
        rtk_index::storage::save_path(&index, &ipath).unwrap();

        // Bare index + graph.
        let argv: Vec<String> = vec![
            "--index".into(),
            ipath.to_str().unwrap().into(),
            "--graph".into(),
            gpath.to_str().unwrap().into(),
        ];
        let engine = load_engine(&Parsed::parse(&argv).unwrap()).unwrap();
        assert_eq!(engine.node_count(), 6);

        // Engine snapshot.
        let epath = dir.join("g.rtke");
        engine.save_path(&epath).unwrap();
        let argv: Vec<String> = vec!["--index".into(), epath.to_str().unwrap().into()];
        let engine = load_engine(&Parsed::parse(&argv).unwrap()).unwrap();
        assert_eq!(engine.node_count(), 6);

        // Bare index without --graph: a helpful error.
        let argv: Vec<String> = vec!["--index".into(), ipath.to_str().unwrap().into()];
        let err = match load_engine(&Parsed::parse(&argv).unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("bare index without --graph should fail"),
        };
        assert!(err.contains("--graph"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_index_flag_errors() {
        let err = run(&Parsed::parse(&[]).unwrap()).unwrap_err();
        assert!(err.contains("--index"), "{err}");
    }
}
