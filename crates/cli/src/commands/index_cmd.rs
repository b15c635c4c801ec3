//! `rtk index build` / `rtk index info`: the snapshot file holds the graph
//! and its index.

use crate::args::Parsed;
use rtk_graph::TransitionMatrix;
use rtk_index::{HubSelection, IndexConfig, ReverseIndex};

pub(crate) fn run(argv: &[String]) -> Result<(), String> {
    let Some(sub) = argv.first() else {
        return Err("index: expected `build` or `info`".into());
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "build" => {
            build(&Parsed::parse(rest, &["out", "max-k", "hubs", "omega", "threads", "shards"])?)
        }
        "info" => info(&Parsed::parse(rest, &[])?),
        other => Err(format!("index: unknown subcommand {other:?}")),
    }
}

fn build(args: &Parsed) -> Result<(), String> {
    let graph_path = args.positional(0, "graph")?;
    let out = args
        .get("out")
        .ok_or_else(|| "index build: --out <file> is required".to_string())?;
    let max_k = args.get_num("max-k", 200usize)?;
    let hubs = args.get_num("hubs", 50usize)?;
    let omega = args.get_num("omega", 1e-6f64)?;
    let threads = args.get_num("threads", 0usize)?;
    let shards = args.get_num("shards", 1usize)?;

    let graph = super::load_graph(graph_path)?;
    let transition = TransitionMatrix::new(&graph);
    let config = IndexConfig {
        max_k,
        hub_selection: HubSelection::DegreeBased { b: hubs },
        rounding_threshold: omega,
        threads,
        ..Default::default()
    };
    let mut index =
        ReverseIndex::build(&transition, config).map_err(|e| format!("index build: {e}"))?;
    index.repartition(shards);
    rtk_index::storage::save_path(&graph, &index, out)
        .map_err(|e| format!("snapshot save: {e}"))?;
    outln!(
        "built index over {graph_path} ({} shard(s)): {}",
        index.shard_count(),
        index.stats().summary()
    );
    outln!("wrote {out}");
    Ok(())
}

fn info(args: &Parsed) -> Result<(), String> {
    let path = args.positional(0, "snapshot")?;
    let (graph, index) =
        rtk_index::storage::load_path(path).map_err(|e| format!("snapshot load: {e}"))?;
    let s = index.stats();
    outln!("snapshot: {path}");
    outln!("  nodes:       {}", index.node_count());
    outln!("  edges:       {}", graph.edge_count());
    outln!("  max k (K):   {}", index.max_k());
    outln!("  shards:      {}", index.shard_count());
    outln!("  hubs:        {}", s.hub_count);
    outln!("  rounding ω:  {:e}", index.config().rounding_threshold);
    outln!("  α:           {}", index.config().alpha());
    outln!("  built in:    {:.2}s on {} threads", s.total_seconds, s.threads);
    outln!(
        "  size:        {:.1} MiB ({:.1} MiB without rounding, {:.1} MiB lower bounds only)",
        s.actual_bytes as f64 / (1024.0 * 1024.0),
        s.no_rounding_bytes as f64 / (1024.0 * 1024.0),
        s.lower_bound_bytes as f64 / (1024.0 * 1024.0),
    );
    outln!(
        "  BCA: η = {:e}, δ = {:e}",
        index.config().bca.propagation_threshold,
        index.config().bca.residue_threshold
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_info_round_trip() {
        let dir = std::env::temp_dir().join("rtk_cli_test_index");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.rtkg");
        super::super::save_graph(&rtk_datasets::toy_graph(), gpath.to_str().unwrap()).unwrap();
        let ipath = dir.join("g.rtki");

        let argv: Vec<String> = vec![
            "build".into(),
            gpath.to_str().unwrap().into(),
            "--out".into(),
            ipath.to_str().unwrap().into(),
            "--max-k".into(),
            "3".into(),
            "--hubs".into(),
            "1".into(),
            "--threads".into(),
            "1".into(),
        ];
        run(&argv).unwrap();
        assert!(ipath.exists());

        let argv: Vec<String> = vec!["info".into(), ipath.to_str().unwrap().into()];
        run(&argv).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_unknown_subcommand() {
        assert!(run(&["frob".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }
}
