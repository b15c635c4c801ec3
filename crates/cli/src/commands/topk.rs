//! `rtk topk` — forward top-k RWR proximity search.

use crate::args::Parsed;
use rtk_graph::TransitionMatrix;
use rtk_rwr::{BcaParams, RwrParams};

/// The flags `rtk topk` reads.
pub(crate) const FLAGS: &[&str] = &["node", "k", "alpha", "threads", "early"];

pub(crate) fn run(args: &Parsed) -> Result<(), String> {
    let graph_path = args.positional(0, "graph")?;
    let u: u32 = args
        .get("node")
        .ok_or_else(|| "topk: --node <id> is required".to_string())?
        .parse()
        .map_err(|_| "topk: --node expects a node id".to_string())?;
    let k = args.get_num("k", 10usize)?;
    let alpha = args.get_num("alpha", 0.15f64)?;
    let threads = args.get_num("threads", 0usize)?;

    let graph = super::load_graph(graph_path)?;
    if u as usize >= graph.node_count() {
        return Err(format!("topk: node {u} out of range (graph has {})", graph.node_count()));
    }
    if k == 0 {
        let err = rtk_query::QueryError::KOutOfRange { k, max_k: graph.node_count() };
        return Err(format!("topk: {err}"));
    }
    let transition = TransitionMatrix::new(&graph);

    let top = if args.has("early") {
        let params = BcaParams {
            alpha,
            propagation_threshold: 1e-7,
            residue_threshold: 0.0,
            max_iterations: 100_000,
        };
        let (top, report) = rtk_query::top_k_rwr_early(&transition, u, k, &params);
        outln!(
            "top-{k} from node {u} (early termination after {} iterations, residual {:.2e}):",
            report.iterations,
            report.final_residual
        );
        top
    } else {
        let params = RwrParams::with_alpha(alpha).with_threads(threads);
        let top = rtk_query::baseline::top_k_rwr(&transition, u, k, &params);
        outln!("top-{k} from node {u} (exact power method):");
        top
    };
    for (rank, (v, p)) in top.iter().enumerate() {
        outln!("  {:>3}. node {v}  (proximity {p:.6})", rank + 1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_early_both_run() {
        let dir = std::env::temp_dir().join("rtk_cli_test_topk");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.rtkg");
        super::super::save_graph(&rtk_datasets::toy_graph(), path.to_str().unwrap()).unwrap();
        for extra in [vec![], vec!["--early".to_string()]] {
            let mut argv: Vec<String> = vec![
                path.to_str().unwrap().into(),
                "--node".into(),
                "2".into(),
                "--k".into(),
                "2".into(),
            ];
            argv.extend(extra);
            run(&Parsed::parse(&argv, FLAGS).unwrap()).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_node_errors() {
        let dir = std::env::temp_dir().join("rtk_cli_test_topk2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.rtkg");
        super::super::save_graph(&rtk_datasets::toy_graph(), path.to_str().unwrap()).unwrap();
        let argv: Vec<String> = vec![path.to_str().unwrap().into(), "--node".into(), "99".into()];
        assert!(run(&Parsed::parse(&argv, FLAGS).unwrap()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
