//! `rtk shard split|info|stitch` — offline re-partitioning and
//! re-assembly of a saved index.
//!
//! Sharding is a pure layout change: `split` re-partitions an existing
//! index into `--shards N` contiguous node ranges (even by node count, or
//! by total out-degree with `--balance edges`; `--shards 1` flattens it),
//! `info` prints the shard manifest, and `stitch` re-assembles the
//! `<path>.shard<i>` section files a router-tier `persist` leaves behind
//! into one manifest. Per-node states are preserved bitwise, so a
//! re-partitioned or stitched index answers every query identically.

use crate::args::Parsed;

pub(crate) fn run(argv: &[String]) -> Result<(), String> {
    let Some(sub) = argv.first() else {
        return Err("shard: expected `split`, `info`, or `stitch`".into());
    };
    let rest = Parsed::parse(&argv[1..])?;
    match sub.as_str() {
        "split" => split(&rest),
        "info" => info(&rest),
        "stitch" => stitch(&rest),
        other => Err(format!("shard: unknown subcommand {other:?}")),
    }
}

fn load(path: &str) -> Result<rtk_index::ReverseIndex, String> {
    rtk_index::storage::load_path(path).map_err(|e| format!("shard: index load: {e}"))
}

fn save(index: &rtk_index::ReverseIndex, path: &str) -> Result<(), String> {
    rtk_index::storage::save_path(index, path).map_err(|e| format!("shard: index save: {e}"))
}

/// `rtk shard split <index> --shards N [--balance nodes|edges --graph <g>]
/// [--out <file>]`
///
/// `--balance nodes` (the default) cuts even node ranges; `--balance
/// edges` cuts ranges of roughly equal total out-degree, read from
/// `--graph`, so skewed graphs give every shard the same screen *work*.
/// Either layout preserves per-node states bitwise.
fn split(args: &Parsed) -> Result<(), String> {
    let path = args.positional(0, "index")?;
    let shards = args.get_num("shards", 0usize)?;
    if shards == 0 {
        return Err("shard split: --shards <N ≥ 1> is required".into());
    }
    let out = args.get("out").unwrap_or(path);
    let balance = args.get("balance").unwrap_or("nodes");
    let mut index = load(path)?;
    let before = index.shard_count();
    match balance {
        "nodes" => index.repartition(shards),
        "edges" => {
            let Some(graph_path) = args.get("graph") else {
                return Err(
                    "shard split: --balance edges needs --graph <graph> for out-degrees".into()
                );
            };
            let graph = super::load_graph(graph_path)?;
            if graph.node_count() != index.node_count() {
                return Err(format!(
                    "shard split: graph has {} nodes but the index covers {}",
                    graph.node_count(),
                    index.node_count()
                ));
            }
            let n = index.node_count();
            let weights: Vec<u64> =
                (0..n as u32).map(|u| graph.out_neighbors(u).len() as u64).collect();
            index.repartition_by_map(rtk_index::ShardMap::balanced(n, shards, &weights));
        }
        other => {
            return Err(format!(
                "shard split: unknown --balance {other:?} (expected `nodes` or `edges`)"
            ))
        }
    }
    save(&index, out)?;
    println!(
        "re-partitioned {path} from {before} to {} shard(s) (balance: {balance}); wrote {out}",
        index.shard_count()
    );
    Ok(())
}

/// `rtk shard stitch <prefix> --index <donor> [--out <file>]`: re-assemble
/// the `<prefix>.shard0..N-1` sections written by a router-tier `persist`
/// into one index, taking everything shared (hub matrix, parameters,
/// stats) from the donor snapshot the backends were loaded from.
fn stitch(args: &Parsed) -> Result<(), String> {
    let prefix = args.positional(0, "section prefix")?;
    let Some(donor_path) = args.get("index") else {
        return Err("shard stitch: --index <donor snapshot> is required".into());
    };
    let out = args.get("out").unwrap_or(prefix);
    let donor = load(donor_path)?;
    let stitched = rtk_index::storage::stitch_path_prefix(&donor, prefix)
        .map_err(|e| format!("shard stitch: {e}"))?;
    save(&stitched, out)?;
    println!(
        "stitched {} section(s) at {prefix}.shard* over donor {donor_path}; wrote {out}",
        stitched.shard_count()
    );
    Ok(())
}

/// `rtk shard info <index>`: the shard manifest at a glance.
fn info(args: &Parsed) -> Result<(), String> {
    let path = args.positional(0, "index")?;
    let index = load(path)?;
    println!("index: {path}");
    println!("  nodes:   {}", index.node_count());
    println!("  max k:   {}", index.max_k());
    println!("  shards:  {}", index.shard_count());
    for shard in index.shards() {
        let r = shard.range();
        println!(
            "  shard {:>3}: nodes {:>8}..{:<8} ({} nodes, {:.2} MiB)",
            shard.id(),
            r.start,
            r.end,
            shard.len(),
            shard.heap_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::TransitionMatrix;
    use rtk_index::{HubSelection, IndexConfig, ReverseIndex};

    fn build_index(dir: &std::path::Path) -> std::path::PathBuf {
        let g = rtk_datasets::toy_graph();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 3,
            hub_selection: HubSelection::DegreeBased { b: 1 },
            threads: 1,
            ..Default::default()
        };
        let index = ReverseIndex::build(&t, config).unwrap();
        let path = dir.join("g.rtki");
        rtk_index::storage::save_path(&index, &path).unwrap();
        path
    }

    #[test]
    fn split_merge_info_round_trip() {
        let dir = std::env::temp_dir().join("rtk_cli_test_shard");
        std::fs::create_dir_all(&dir).unwrap();
        let ipath = build_index(&dir);
        let ipath_str = ipath.to_str().unwrap().to_string();
        let sharded = dir.join("g4.rtki");
        let sharded_str = sharded.to_str().unwrap().to_string();

        // Split a one-shard index into 3 shards.
        run(&[
            "split".into(),
            ipath_str.clone(),
            "--shards".into(),
            "3".into(),
            "--out".into(),
            sharded_str.clone(),
        ])
        .unwrap();
        let loaded = rtk_index::storage::load_path(&sharded).unwrap();
        assert_eq!(loaded.shard_count(), 3);
        let original = rtk_index::storage::load_path(&ipath).unwrap();
        for u in 0..6u32 {
            assert_eq!(loaded.state(u), original.state(u), "node {u}");
        }

        // Info runs on both shard counts.
        run(&["info".into(), ipath_str.clone()]).unwrap();
        run(&["info".into(), sharded_str.clone()]).unwrap();

        // Split back to one shard: byte-identical to the original file.
        let flat = dir.join("flat.rtki");
        run(&[
            "split".into(),
            sharded_str,
            "--shards".into(),
            "1".into(),
            "--out".into(),
            flat.to_str().unwrap().into(),
        ])
        .unwrap();
        let a = std::fs::read(&ipath).unwrap();
        let b = std::fs::read(&flat).unwrap();
        assert_eq!(a, b, "splitting back to one shard must restore the original bytes");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stitch_reassembles_router_persist_outputs() {
        let dir = std::env::temp_dir().join("rtk_cli_test_stitch");
        std::fs::create_dir_all(&dir).unwrap();
        let donor_path = build_index(&dir);
        let donor_str = donor_path.to_str().unwrap().to_string();

        // Simulate a 2-backend router persist: one standalone section per
        // shard, named `<prefix>.shard<i>`.
        let mut donor = rtk_index::storage::load_path(&donor_path).unwrap();
        donor.repartition(2);
        let prefix = dir.join("persisted.rtki");
        for shard in donor.shards() {
            let path = dir.join(format!("persisted.rtki.shard{}", shard.id()));
            let file = std::fs::File::create(&path).unwrap();
            rtk_index::storage::save_shard(shard, donor.node_count(), donor.max_k(), file).unwrap();
        }

        let out = dir.join("stitched.rtki");
        run(&[
            "stitch".into(),
            prefix.to_str().unwrap().into(),
            "--index".into(),
            donor_str,
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let stitched = rtk_index::storage::load_path(&out).unwrap();
        assert_eq!(stitched.shard_count(), 2);
        for u in 0..6u32 {
            assert_eq!(stitched.state(u), donor.state(u), "node {u}");
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_balance_edges_uses_degree_weights() {
        let dir = std::env::temp_dir().join("rtk_cli_test_balance");
        std::fs::create_dir_all(&dir).unwrap();
        let ipath = build_index(&dir);
        let ipath_str = ipath.to_str().unwrap().to_string();
        let gpath = dir.join("g.tsv");
        super::super::save_graph(&rtk_datasets::toy_graph(), gpath.to_str().unwrap()).unwrap();
        let out = dir.join("balanced.rtki");

        // --balance edges without --graph is rejected.
        assert!(run(&[
            "split".into(),
            ipath_str.clone(),
            "--shards".into(),
            "2".into(),
            "--balance".into(),
            "edges".into(),
        ])
        .unwrap_err()
        .contains("--graph"));
        // Unknown balance modes are rejected.
        assert!(run(&[
            "split".into(),
            ipath_str.clone(),
            "--shards".into(),
            "2".into(),
            "--balance".into(),
            "degrees".into(),
        ])
        .is_err());

        run(&[
            "split".into(),
            ipath_str.clone(),
            "--shards".into(),
            "2".into(),
            "--balance".into(),
            "edges".into(),
            "--graph".into(),
            gpath.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let loaded = rtk_index::storage::load_path(&out).unwrap();
        assert_eq!(loaded.shard_count(), 2);
        // The layout matches ShardMap::balanced over the graph's out-degrees…
        let g = rtk_datasets::toy_graph();
        let weights: Vec<u64> = (0..6u32).map(|u| g.out_neighbors(u).len() as u64).collect();
        let expect = rtk_index::ShardMap::balanced(6, 2, &weights);
        assert_eq!(loaded.shard_map(), &expect);
        // …and every per-node state survives the move bitwise.
        let original = rtk_index::storage::load_path(&ipath).unwrap();
        for u in 0..6u32 {
            assert_eq!(loaded.state(u), original.state(u), "node {u}");
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(run(&[]).is_err());
        assert!(run(&["frob".into()]).is_err());
        assert!(run(&["split".into(), "x.rtki".into()]).is_err()); // no --shards
        assert!(run(&["stitch".into(), "x.rtki".into()]).is_err()); // no --index
    }
}
