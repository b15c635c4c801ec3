//! `rtk pmpn` — exact proximities from all nodes *to* a query node (Alg. 2).

use crate::args::Parsed;
use rtk_graph::TransitionMatrix;
use rtk_rwr::{proximity_to, RwrParams};
use rtk_sparse::top_k_of_dense;

/// The flags `rtk pmpn` reads.
pub(crate) const FLAGS: &[&str] = &["node", "top", "alpha", "threads"];

pub(crate) fn run(args: &Parsed) -> Result<(), String> {
    let graph_path = args.positional(0, "graph")?;
    let q: u32 = args
        .get("node")
        .ok_or_else(|| "pmpn: --node <id> is required".to_string())?
        .parse()
        .map_err(|_| "pmpn: --node expects a node id".to_string())?;
    let top = args.get_num("top", 10usize)?;
    let alpha = args.get_num("alpha", 0.15f64)?;
    let threads = args.get_num("threads", 0usize)?;

    let graph = super::load_graph(graph_path)?;
    if q as usize >= graph.node_count() {
        return Err(format!("pmpn: node {q} out of range (graph has {})", graph.node_count()));
    }
    let transition = TransitionMatrix::new(&graph);
    let params = RwrParams::with_alpha(alpha).with_threads(threads);
    let (row, report) = proximity_to(&transition, q, &params);
    outln!(
        "proximities to node {q} (PMPN, {} iterations, converged: {})",
        report.iterations,
        report.converged
    );
    outln!("largest contributors:");
    for (u, p) in top_k_of_dense(&row, top) {
        outln!("  node {u} -> {p:.6}");
    }
    let total: f64 = row.iter().sum();
    outln!("sum of all contributions: {total:.4} (= PageRank·n contribution mass)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmpn_runs() {
        let dir = std::env::temp_dir().join("rtk_cli_test_pmpn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.rtkg");
        super::super::save_graph(&rtk_datasets::toy_graph(), path.to_str().unwrap()).unwrap();
        let argv: Vec<String> = vec![
            path.to_str().unwrap().into(),
            "--node".into(),
            "0".into(),
            "--top".into(),
            "3".into(),
        ];
        run(&Parsed::parse(&argv, FLAGS).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
