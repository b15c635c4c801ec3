//! `rtk query` — run a reverse top-k search against a saved snapshot.

use crate::args::Parsed;
use rtk_core::{graph::NodeId, ReverseTopkEngine};
use rtk_query::{ApproxParams, BoundMode, QueryOptions};

/// Parses the shared `--approx <eps> [--approx-walks N] [--approx-seed S]`
/// flag family (used by `rtk query` and `rtk remote query`).
pub(crate) fn approx_from_args(args: &Parsed) -> Result<Option<ApproxParams>, String> {
    let Some(raw) = args.get("approx") else { return Ok(None) };
    let epsilon: f64 = raw
        .parse()
        .map_err(|_| "query: --approx expects an error bound like 1e-4".to_string())?;
    if !epsilon.is_finite() || epsilon < 0.0 {
        return Err("query: --approx must be finite and non-negative".to_string());
    }
    let walks = args.get_num("approx-walks", ApproxParams::default().walks)?;
    let seed = args.get_num("approx-seed", ApproxParams::default().seed)?;
    Ok(Some(ApproxParams { epsilon, walks, seed }))
}

/// The flags `rtk query` reads.
pub(crate) const FLAGS: &[&str] = &[
    "node",
    "k",
    "threads",
    "update",
    "strict",
    "approximate",
    "approx",
    "approx-walks",
    "approx-seed",
];

pub(crate) fn run(args: &Parsed) -> Result<(), String> {
    let path = args.positional(0, "snapshot")?;
    let q: u32 = args
        .get("node")
        .ok_or_else(|| "query: --node <id> is required".to_string())?
        .parse()
        .map_err(|_| "query: --node expects a node id".to_string())?;
    let k = args.get_num("k", 10usize)?;
    let threads = args.get_num("threads", 0usize)?;

    let mut engine =
        ReverseTopkEngine::load_path(path).map_err(|e| format!("snapshot load: {e}"))?;

    let options = QueryOptions {
        update_index: args.has("update"),
        bound_mode: if args.has("strict") { BoundMode::Strict } else { BoundMode::PaperFaithful },
        approximate: args.has("approximate"),
        query_threads: threads,
        approx: approx_from_args(args)?,
    };
    let result = engine.query_with(NodeId(q), k, &options).map_err(|e| format!("query: {e}"))?;

    outln!("reverse top-{k} of node {q}: {} result(s)", result.len());
    for (u, p) in result.nodes().iter().zip(result.proximities()) {
        outln!("  node {u}  (p_u(q) = {p:.6})");
    }
    let s = result.stats();
    outln!(
        "stats: {} candidates | {} hits | {} pruned | {} refined ({} iterations) | {:.4}s",
        s.candidates,
        s.hits,
        s.pruned_by_lower_bound,
        s.refined_nodes,
        s.refine_iterations,
        s.total_seconds
    );
    if s.approx_active {
        outln!(
            "approx: {} estimated | {} exact-refined | {} walks",
            s.approx_estimated,
            s.approx_exact_refined,
            s.approx_walks
        );
    }

    if args.has("update") {
        engine.save_path(path).map_err(|e| format!("snapshot save: {e}"))?;
        outln!("index refinements saved back to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(dir: &std::path::Path) -> String {
        std::fs::create_dir_all(dir).unwrap();
        // Coarse index (the paper's Figure 2 δ = 0.8) so the walkthrough
        // query actually refines — the --update test relies on it.
        let engine = ReverseTopkEngine::builder(rtk_datasets::toy_graph())
            .max_k(3)
            .residue_threshold(0.8)
            .hubs_per_direction(1)
            .threads(1)
            .build()
            .unwrap();
        let path = dir.join("g.rtki");
        engine.save_path(&path).unwrap();
        path.to_str().unwrap().into()
    }

    #[test]
    fn query_runs_and_optionally_updates() {
        let dir = std::env::temp_dir().join("rtk_cli_test_query");
        let ipath = setup(&dir);
        let argv: Vec<String> =
            vec![ipath.clone(), "--node".into(), "0".into(), "--k".into(), "2".into()];
        run(&Parsed::parse(&argv, FLAGS).unwrap()).unwrap();

        // With --update the index file is rewritten with refinements.
        let before = std::fs::read(&ipath).unwrap();
        let argv: Vec<String> = vec![
            ipath.clone(),
            "--node".into(),
            "0".into(),
            "--k".into(),
            "2".into(),
            "--update".into(),
        ];
        run(&Parsed::parse(&argv, FLAGS).unwrap()).unwrap();
        let after = std::fs::read(&ipath).unwrap();
        assert_ne!(before, after, "refinements should change the stored index");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_node_flag_errors() {
        let dir = std::env::temp_dir().join("rtk_cli_test_query2");
        let argv: Vec<String> = vec![setup(&dir)];
        assert!(run(&Parsed::parse(&argv, FLAGS).unwrap()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
