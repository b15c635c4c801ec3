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
  rtk shard split <snapshot> --shards S [--out F]
                                                 re-partition a saved index into even node ranges
  rtk shard info <snapshot>                      shard manifest summary
  rtk shard stitch <prefix> [--out F]            one snapshot from <prefix>.shard<i> persists
  rtk query <snapshot> --node Q --k K [--update] [--strict] [--approximate] [--threads T]
            [--approx EPS [--approx-walks N] [--approx-seed S]]
  rtk topk <graph> --node U --k K [--early] [--alpha A] [--threads T]   forward top-k search
  rtk pmpn <graph> --node Q [--top N] [--alpha A] [--threads T]         proximities to a node
  rtk convert <in> <out>                         tsv <-> binary graph formats
  rtk serve --index <snapshot> [--addr A] [--workers N]
            [--query-threads T] [--max-frame-mib M] [--max-connections C]
            [--max-inflight D] [--persist-dir D] [--auth-token T] [--metrics-addr A]
            [--chaos SPEC] [--update-log F] [--log-file F] [--log-level L]   run the TCP server
  rtk serve --shard-only --shard I --index <snapshot> [...]
                                                 serve ONE shard (router backend)
  rtk router --backends a:p,b:p,… [--addr A] [--workers N] [--timeout S]
             [--max-frame-mib M] [--max-connections C] [--max-inflight D]
             [--auth-token T] [--hedge-quantile Q] [--hedge-min-delay-ms MS]
             [--probe-interval-ms MS] [--metrics-addr A]
             [--log-file F] [--log-level L]     fan-out router over shard backends
  rtk remote query --node Q --k K [--update] [--trace]
                   [--approx EPS [--approx-walks N] [--approx-seed S]]   query a server/router
  rtk remote topk --node U --k K [--early]
  rtk remote batch --nodes a,b,c --k K           queries in flight at once
  rtk remote add-edge --from U --to V [--weight W]   apply an edge insert
  rtk remote remove-edge --from U --to V             apply an edge removal
  rtk remote persist --out <server-path>         flush snapshot to disk
  rtk remote stats [--json]                      server/tier counters
  rtk remote ping|shutdown
      (every remote command also takes [--addr A] [--timeout S] [--auth-token T])
  rtk log info <log> [--limit N]                 update-log (RTKULOG1) summary
  rtk log replay --index <snapshot> --log <log> --out <file>
                                                 deterministic snapshot + log replay

datasets for `generate`: toy, web-cs-small, web-cs-sim, epinions-sim,
web-std-sim, web-google-sim, webspam-sim, dblp-sim, rmat:<n>:<m>[:seed],
er:<n>:<m>[:seed], sf:<n>:<deg>[:seed]

any flag not listed for a command is an error";

/// Routes `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err(format!("no command given\n{USAGE}"));
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "generate" => generate::run(&Parsed::parse(rest, generate::FLAGS)?),
        "stats" => stats::run(&Parsed::parse(rest, stats::FLAGS)?),
        "index" => index_cmd::run(rest),
        "query" => query::run(&Parsed::parse(rest, query::FLAGS)?),
        "topk" => topk::run(&Parsed::parse(rest, topk::FLAGS)?),
        "pmpn" => pmpn::run(&Parsed::parse(rest, pmpn::FLAGS)?),
        "convert" => convert::run(&Parsed::parse(rest, convert::FLAGS)?),
        "serve" => serve::run(&Parsed::parse(rest, serve::FLAGS)?),
        "router" => router::run(&Parsed::parse(rest, router::FLAGS)?),
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

    /// One misspelt flag per command family: each fails before doing any
    /// work, with an error naming the flag.
    #[test]
    fn unknown_flags_fail_by_name() {
        for (argv, flag) in [
            ("generate toy --outt g.rtkg", "--outt"),
            ("stats g.rtkg --json", "--json"),
            ("index build g.rtkg --out t.rtki --sharsd 2", "--sharsd"),
            ("index info t.rtki --verbose", "--verbose"),
            ("shard split t.rtki --shards 2 --balance edges", "--balance"),
            ("query t.rtki --node 0 --k 2 --aprox 1e-3", "--aprox"),
            ("topk g.rtkg --node 0 --k 2 --erly", "--erly"),
            ("pmpn g.rtkg --node 0 --tpo 3", "--tpo"),
            ("convert a.tsv b.rtkg --force", "--force"),
            ("serve --index t.rtki --worker 2", "--worker"),
            ("router --backends 127.0.0.1:1 --hedge-quantil 0.9", "--hedge-quantil"),
            ("remote query --addr 127.0.0.1:1 --node 0 --k 2 --aprox 1e-3", "--aprox"),
            ("remote ping --adr 127.0.0.1:1", "--adr"),
            ("log replay --index t.rtki --log u.rtkl --out r.rtki --limit 3", "--limit"),
        ] {
            let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
            let err = dispatch(&argv).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag}")), "{argv:?}: {err}");
        }
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
