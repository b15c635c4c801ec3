//! `rtk shard split|info|stitch` — offline re-partitioning and
//! re-assembly of a saved snapshot.
//!
//! Sharding is a pure layout change: `split` re-partitions an existing
//! index into `--shards N` even contiguous node ranges (`--shards 1`
//! flattens it), `info` prints the shard manifest, and `stitch`
//! re-assembles the `<path>.shard<i>` one-shard snapshots a router-tier
//! `persist` leaves behind into one snapshot. Per-node states are preserved bitwise, so a
//! re-partitioned or stitched index answers every query identically.

use crate::args::Parsed;
use rtk_graph::DiGraph;
use rtk_index::ReverseIndex;

pub(crate) fn run(argv: &[String]) -> Result<(), String> {
    let Some(sub) = argv.first() else {
        return Err("shard: expected `split`, `info`, or `stitch`".into());
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "split" => split(&Parsed::parse(rest, &["shards", "out"])?),
        "info" => info(&Parsed::parse(rest, &[])?),
        "stitch" => stitch(&Parsed::parse(rest, &["out"])?),
        other => Err(format!("shard: unknown subcommand {other:?}")),
    }
}

fn load(path: &str) -> Result<(DiGraph, ReverseIndex), String> {
    rtk_index::storage::load_path(path).map_err(|e| format!("shard: snapshot load: {e}"))
}

fn save(graph: &DiGraph, index: &ReverseIndex, path: &str) -> Result<(), String> {
    rtk_index::storage::save_path(graph, index, path)
        .map_err(|e| format!("shard: snapshot save: {e}"))
}

/// `rtk shard split <snapshot> --shards N [--out <file>]`: cut even node
/// ranges; per-node states are preserved bitwise.
fn split(args: &Parsed) -> Result<(), String> {
    let path = args.positional(0, "snapshot")?;
    let shards = args.get_num("shards", 0usize)?;
    if shards == 0 {
        return Err("shard split: --shards <N ≥ 1> is required".into());
    }
    let out = args.get("out").unwrap_or(path);
    let (graph, mut index) = load(path)?;
    if let Some(shard) = index.owned_shard() {
        return Err(format!(
            "shard split: {path} holds only shard {shard}; stitch the shards into one snapshot first"
        ));
    }
    let before = index.shard_count();
    index.repartition(shards);
    save(&graph, &index, out)?;
    outln!("re-partitioned {path} from {before} to {} shard(s); wrote {out}", index.shard_count());
    Ok(())
}

/// `rtk shard stitch <prefix> [--out <file>]`: re-assemble the
/// `<prefix>.shard0..N-1` one-shard snapshots written by a router-tier
/// `persist` into one snapshot, with the graph and hub matrix they carry
/// (they must agree).
fn stitch(args: &Parsed) -> Result<(), String> {
    let prefix = args.positional(0, "snapshot prefix")?;
    let out = args.get("out").unwrap_or(prefix);
    let (graph, stitched) =
        rtk_index::storage::stitch_path_prefix(prefix).map_err(|e| format!("shard stitch: {e}"))?;
    save(&graph, &stitched, out)?;
    outln!("stitched {} shard(s) at {prefix}.shard*; wrote {out}", stitched.shard_count());
    Ok(())
}

/// `rtk shard info <snapshot>`: the shard manifest at a glance.
fn info(args: &Parsed) -> Result<(), String> {
    let path = args.positional(0, "snapshot")?;
    let (_, index) = load(path)?;
    outln!("snapshot: {path}");
    outln!("  nodes:   {}", index.node_count());
    outln!("  max k:   {}", index.max_k());
    outln!("  shards:  {}", index.shard_count());
    for (id, range, bytes) in index.held_shards() {
        outln!(
            "  shard {id:>3}: nodes {:>8}..{:<8} ({} nodes, {:.2} MiB)",
            range.start,
            range.end,
            range.len(),
            bytes as f64 / (1024.0 * 1024.0),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_index(dir: &std::path::Path) -> std::path::PathBuf {
        let engine = rtk_core::ReverseTopkEngine::builder(rtk_datasets::toy_graph())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .build()
            .unwrap();
        let path = dir.join("g.rtki");
        engine.save_path(&path).unwrap();
        path
    }

    fn index_at(path: &std::path::Path) -> ReverseIndex {
        rtk_index::storage::load_path(path).unwrap().1
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
        let loaded = index_at(&sharded);
        assert_eq!(loaded.shard_count(), 3);
        let original = index_at(&ipath);
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
        let (graph, mut index) = rtk_index::storage::load_path(build_index(&dir)).unwrap();

        // Simulate a 2-backend router persist: one one-shard snapshot per
        // shard, named `<prefix>.shard<i>`.
        index.repartition(2);
        let prefix = dir.join("persisted.rtki");
        for sid in 0..2 {
            let path = dir.join(format!("persisted.rtki.shard{sid}"));
            let one = index.one_shard(sid).unwrap();
            rtk_index::storage::save_path(&graph, &one, &path).unwrap();
        }
        // A one-shard snapshot cannot be re-split.
        let shard0 = dir.join("persisted.rtki.shard0").to_str().unwrap().to_string();
        let err = run(&["split".into(), shard0, "--shards".into(), "3".into()]).unwrap_err();
        assert!(err.contains("holds only shard 0"), "{err}");

        let out = dir.join("stitched.rtki");
        run(&[
            "stitch".into(),
            prefix.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let stitched = index_at(&out);
        assert_eq!(stitched.shard_count(), 2);
        for u in 0..6u32 {
            assert_eq!(stitched.state(u), index.state(u), "node {u}");
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(run(&[]).is_err());
        assert!(run(&["frob".into()]).is_err());
        assert!(run(&["split".into(), "x.rtki".into()]).is_err()); // no --shards
        assert!(run(&["stitch".into(), "x.rtki".into()]).is_err()); // no x.rtki.shard0
    }
}
