//! `rtk log` — inspect and replay `RTKULOG1` edge-update logs.
//!
//! The update log is the recovery half of the dynamic-graph contract:
//! a server started with `--update-log` appends every applied edge update
//! inside the update's write-lock critical section, so `rtk log replay`
//! over the snapshot the server started from reproduces the live engine
//! **byte for byte** (`RTKMANI1` output, comparable with `cmp`).

use crate::args::Parsed;
use rtk_core::{ReverseTopkEngine, UpdateEffect, UpdateRecord};
use std::time::Instant;

pub(crate) fn run(argv: &[String]) -> Result<(), String> {
    let Some(sub) = argv.first() else {
        return Err("log: expected info|replay".into());
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "info" => info(&Parsed::parse(rest, &["limit"])?),
        "replay" => replay(&Parsed::parse(rest, &["index", "log", "out"])?),
        other => Err(format!("log: expected info|replay, got {other:?}")),
    }
}

/// `rtk log info <log>`: decode the log and summarize it. `--limit N`
/// additionally prints the first N records.
fn info(args: &Parsed) -> Result<(), String> {
    let path = args.positional(0, "log")?;
    let records = rtk_index::storage::load_update_log(path)
        .map_err(|e| format!("log info: cannot read {path:?}: {e}"))?;
    let adds = records.iter().filter(|r| matches!(r, UpdateRecord::AddEdge { .. })).count();
    outln!(
        "{path}: RTKULOG1 v1, {} record(s) ({adds} add_edge, {} remove_edge)",
        records.len(),
        records.len() - adds
    );
    let limit = args.get_num("limit", 0usize)?;
    for (i, r) in records.iter().take(limit).enumerate() {
        match r {
            UpdateRecord::AddEdge { from, to, weight } => {
                outln!("  [{i}] add_edge    {from} -> {to}  (weight {weight})");
            }
            UpdateRecord::RemoveEdge { from, to } => {
                outln!("  [{i}] remove_edge {from} -> {to}");
            }
        }
    }
    if limit > 0 && records.len() > limit {
        outln!("  … {} more (raise --limit to see them)", records.len() - limit);
    }
    Ok(())
}

/// `rtk log replay --index <snapshot> --log <log> --out <file>`:
/// load the snapshot, apply every logged update in order with one index
/// recompute, and save the result. Replay is deterministic, so the output is
/// byte-identical to a `persist` from the live server that wrote the log. A
/// record that cannot be applied fails the command, and no `--out` file is
/// written.
fn replay(args: &Parsed) -> Result<(), String> {
    let index = args
        .get("index")
        .ok_or_else(|| "log replay: --index <snapshot> is required".to_string())?;
    let log = args
        .get("log")
        .ok_or_else(|| "log replay: --log <file> is required".to_string())?;
    let out = args
        .get("out")
        .ok_or_else(|| "log replay: --out <file> is required".to_string())?;

    let mut engine = ReverseTopkEngine::load_path(index)
        .map_err(|e| format!("log replay: snapshot {index:?}: {e}"))?;
    let records = rtk_index::storage::load_update_log(log)
        .map_err(|e| format!("log replay: cannot read {log:?}: {e}"))?;
    let started = Instant::now();
    let effect = engine
        .replay_updates(&records)
        .map_err(|e| format!("log replay: applying {log:?} over {index:?}: {e}"))?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    engine.save_path(out).map_err(|e| format!("log replay: writing {out:?}: {e}"))?;
    outln!("{}", replay_summary(records.len(), index, &effect, wall_ms));
    outln!("wrote {out} (index digest {:016x})", engine.index_digest());
    Ok(())
}

/// The `rtk log replay` report: records replayed, what the one recompute
/// did (each state and hub vector counted once), and the replay's wall time.
fn replay_summary(records: usize, index: &str, effect: &UpdateEffect, wall_ms: f64) -> String {
    format!(
        "replayed {records} update(s) over {index}: {} state(s) recomputed once \
         ({} BCA run(s)), {} hub vector(s), {wall_ms:.1} ms",
        effect.recomputed_states, effect.bca_runs, effect.recomputed_hubs
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_live_updates_byte_for_byte() {
        let dir = std::env::temp_dir().join("rtk_cli_test_log");
        std::fs::create_dir_all(&dir).unwrap();
        // ω = 0: rounded hub vectors persist only an aggregate
        // unrounded-nnz count, which an incremental recompute cannot
        // reproduce exactly — byte-equality legs disable rounding.
        let mut live = ReverseTopkEngine::builder(rtk_datasets::toy_graph())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .rounding_threshold(0.0)
            .build()
            .unwrap();

        // Snapshot the pristine engine, then keep updating it live while
        // logging, exactly as `rtk serve --update-log` would.
        let snapshot = dir.join("seed.rtke");
        live.save_path(&snapshot).unwrap();
        let records = vec![
            UpdateRecord::AddEdge { from: 0, to: 3, weight: 0.5 },
            UpdateRecord::RemoveEdge { from: 0, to: 3 },
            UpdateRecord::AddEdge { from: 4, to: 1, weight: 2.0 },
        ];
        live.replay_updates(&records).unwrap();
        let live_out = dir.join("live.rtke");
        live.save_path(&live_out).unwrap();

        let log = dir.join("updates.rtkl");
        rtk_index::storage::save_update_log(&log, &records).unwrap();
        let replayed_out = dir.join("replayed.rtke");
        let argv: Vec<String> = vec![
            "replay".into(),
            "--index".into(),
            snapshot.to_str().unwrap().into(),
            "--log".into(),
            log.to_str().unwrap().into(),
            "--out".into(),
            replayed_out.to_str().unwrap().into(),
        ];
        run(&argv).unwrap();
        assert_eq!(
            std::fs::read(&live_out).unwrap(),
            std::fs::read(&replayed_out).unwrap(),
            "snapshot + replay(log) must reproduce the live engine byte for byte"
        );

        // What the report counts: each state and hub vector of the union of
        // the records' affected sets once. A loaded snapshot keeps no
        // as-built bits, so every one of those states re-runs its BCA.
        let mut graph = rtk_datasets::toy_graph();
        let mut union = std::collections::BTreeSet::new();
        for record in &records {
            let splice = match *record {
                UpdateRecord::AddEdge { from, to, weight } => graph.add_edge(from, to, weight),
                UpdateRecord::RemoveEdge { from, to } => graph.remove_edge(from, to),
            };
            union.extend(rtk_index::affected_set(&graph, splice.unwrap().from));
        }
        let mut replayed = ReverseTopkEngine::load_path(&snapshot).unwrap();
        let effect = replayed.replay_updates(&records).unwrap();
        let hubs = union.iter().filter(|&&u| replayed.index().hub_matrix().hubs().contains(u));
        assert_eq!((effect.recomputed_states, effect.bca_runs), (union.len(), union.len()));
        assert_eq!(effect.recomputed_hubs, hubs.count());
        assert_eq!(
            replay_summary(records.len(), "seed.rtke", &effect, 1.25),
            "replayed 3 update(s) over seed.rtke: 6 state(s) recomputed once (6 BCA run(s)), \
             2 hub vector(s), 1.2 ms"
        );

        // `info` decodes the same log.
        let argv: Vec<String> =
            vec!["info".into(), log.to_str().unwrap().into(), "--limit".into(), "2".into()];
        run(&argv).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_replay_writes_no_output() {
        let dir = std::env::temp_dir().join("rtk_cli_test_log_failure");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = ReverseTopkEngine::builder(rtk_datasets::toy_graph())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .build()
            .unwrap();
        let snapshot = dir.join("seed.rtke");
        engine.save_path(&snapshot).unwrap();
        let log = dir.join("updates.rtkl");
        let records = vec![
            UpdateRecord::AddEdge { from: 0, to: 3, weight: 0.5 },
            UpdateRecord::RemoveEdge { from: 4, to: 4 },
        ];
        rtk_index::storage::save_update_log(&log, &records).unwrap();
        let out = dir.join("replayed.rtke");
        let argv: Vec<String> = vec![
            "replay".into(),
            "--index".into(),
            snapshot.to_str().unwrap().into(),
            "--log".into(),
            log.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ];
        let err = run(&argv).unwrap_err();
        assert!(err.contains("edge 4 -> 4 does not exist"), "{err}");
        assert!(!out.exists(), "a failed replay must not write --out");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_clean() {
        let err = run(&[]).unwrap_err();
        assert!(err.contains("info|replay"), "{err}");
        let err = run(&["frobnicate".into()]).unwrap_err();
        assert!(err.contains("info|replay"), "{err}");
        let err = run(&["replay".into()]).unwrap_err();
        assert!(err.contains("--index"), "{err}");
        let argv: Vec<String> = vec!["info".into(), "/definitely/not/here.rtkl".into()];
        let err = run(&argv).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
