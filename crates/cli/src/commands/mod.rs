//! Subcommand dispatch and shared graph/index loading helpers.

mod convert;
mod generate;
mod index_cmd;
mod log_cmd;
mod pmpn;
mod query;
mod remote;
mod router;
mod serve;
mod shard;
mod stats;
mod topk;

use crate::args::Parsed;
use rtk_graph::{DanglingPolicy, DiGraph};
use std::path::Path;

const USAGE: &str = "\
usage:
  rtk generate <dataset> --out <file>            synthesize a graph
  rtk stats <graph>                              graph summary
  rtk index build <graph> --out <file> [--max-k K] [--hubs B] [--omega W] [--threads T] [--shards S]
                                                 build the index; the snapshot holds graph + index
  rtk index info <snapshot>                      index statistics
  rtk shard split <snapshot> --shards S [--balance nodes|edges] [--out F]
                                                 re-partition a saved index
  rtk shard info <snapshot>                      shard manifest summary
  rtk shard stitch <prefix> [--out F]            one snapshot from <prefix>.shard<i> persists
  rtk query <snapshot> --node Q --k K [--update] [--strict] [--approximate] [--threads T]
  rtk topk <graph> --node U --k K [--early] [--threads T]   forward top-k search
  rtk pmpn <graph> --node Q [--top N] [--threads T]         proximities to a node
  rtk convert <in> <out>                         tsv <-> binary graph formats
  rtk serve --index <snapshot> [--addr A] [--workers N]
            [--query-threads T] [--max-frame-mib M] [--max-connections C]
            [--persist-dir D] [--auth-token T] [--metrics-addr A]
            [--update-log F] [--log-file F] [--log-level L]   run the TCP server
  rtk serve --shard-only --shard I --index <snapshot> [...]
                                                 serve ONE shard (router backend)
  rtk router --backends a:p,b:p,… [--addr A] [--workers N] [--max-connections C]
             [--max-frame-mib M] [--auth-token T] [--metrics-addr A]
             [--log-file F] [--log-level L]     fan-out router over shard backends
  rtk remote query --node Q --k K [--update] [--trace] [--addr A]   query a server/router
  rtk remote topk --node U --k K [--early] [--addr A]
  rtk remote batch --nodes a,b,c --k K [--addr A]
  rtk remote add-edge --from U --to V [--weight W] [--addr A]   apply an edge insert
  rtk remote remove-edge --from U --to V [--addr A]             apply an edge removal
  rtk remote persist --out <server-path> [--addr A]         flush snapshot to disk
  rtk remote stats [--json] [--addr A]           server/tier counters
  rtk remote ping|shutdown [--addr A]            (all remote cmds take --auth-token)
  rtk log info <log> [--limit N]                 update-log (RTKULOG1) summary
  rtk log replay --index <snapshot> --log <log> --out <file>
                                                 deterministic snapshot + log replay

datasets for `generate`: toy, web-cs-small, web-cs-sim, epinions-sim,
web-std-sim, web-google-sim, webspam-sim, dblp-sim, rmat:<n>:<m>[:seed],
er:<n>:<m>[:seed], sf:<n>:<deg>[:seed]";

/// Routes `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err(format!("no command given\n{USAGE}"));
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "generate" => generate::run(&Parsed::parse(rest)?),
        "stats" => stats::run(&Parsed::parse(rest)?),
        "index" => index_cmd::run(rest),
        "query" => query::run(&Parsed::parse(rest)?),
        "topk" => topk::run(&Parsed::parse(rest)?),
        "pmpn" => pmpn::run(&Parsed::parse(rest)?),
        "convert" => convert::run(&Parsed::parse(rest)?),
        "serve" => serve::run(&Parsed::parse(rest)?),
        "router" => router::run(&Parsed::parse(rest)?),
        "shard" => shard::run(rest),
        "remote" => remote::run(rest),
        "log" => log_cmd::run(rest),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Installs the process logger from `--log-level <error|warn|info|debug>`
/// and `--log-file <path>` (stderr by default) — shared by the serving
/// commands, which emit structured events for the tier's health changes.
pub(crate) fn init_logging(args: &Parsed) -> Result<(), String> {
    let level = match args.get("log-level") {
        None => rtk_obs::Level::Info,
        Some(s) => rtk_obs::Level::parse(s)
            .ok_or_else(|| format!("--log-level: expected error|warn|info|debug, got {s:?}"))?,
    };
    rtk_obs::log::init(level, args.get("log-file").map(Path::new))
}

/// True when `path` should use the TSV edge-list format.
pub(crate) fn is_tsv(path: &str) -> bool {
    let lower = path.to_ascii_lowercase();
    [".tsv", ".txt", ".edges"].iter().any(|ext| lower.ends_with(ext))
}

/// Loads a graph, picking the format from the extension.
pub(crate) fn load_graph(path: &str) -> Result<DiGraph, String> {
    if !Path::new(path).exists() {
        return Err(format!("graph file {path:?} does not exist"));
    }
    let result = if is_tsv(path) {
        rtk_graph::io::read_edge_list_path(path, None, DanglingPolicy::SelfLoop)
    } else {
        rtk_graph::io::read_binary_path(path)
    };
    result.map_err(|e| format!("failed to load {path:?}: {e}"))
}

/// Saves a graph, picking the format from the extension.
pub(crate) fn save_graph(graph: &DiGraph, path: &str) -> Result<(), String> {
    let result = if is_tsv(path) {
        std::fs::File::create(path)
            .map_err(rtk_graph::GraphError::Io)
            .and_then(|f| rtk_graph::io::write_edge_list(graph, f))
    } else {
        rtk_graph::io::write_binary_path(graph, path)
    };
    result.map_err(|e| format!("failed to write {path:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_detection() {
        assert!(is_tsv("graph.tsv"));
        assert!(is_tsv("GRAPH.TXT"));
        assert!(is_tsv("a/b/c.edges"));
        assert!(!is_tsv("graph.rtkg"));
        assert!(!is_tsv("graph"));
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let err = dispatch(&["frobnicate".into()]).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("usage:"));
    }

    #[test]
    fn no_command_mentions_usage() {
        assert!(dispatch(&[]).unwrap_err().contains("usage:"));
    }

    #[test]
    fn help_succeeds() {
        dispatch(&["help".into()]).unwrap();
    }

    #[test]
    fn graph_round_trip_via_helpers() {
        let g = rtk_datasets::toy_graph();
        let dir = std::env::temp_dir().join("rtk_cli_test_mod");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["toy.tsv", "toy.rtkg"] {
            let path = dir.join(name);
            let path = path.to_str().unwrap();
            save_graph(&g, path).unwrap();
            let back = load_graph(path).unwrap();
            assert_eq!(back, g, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_fails_cleanly() {
        let err = load_graph("/definitely/not/here.tsv").unwrap_err();
        assert!(err.contains("does not exist"));
    }
}
