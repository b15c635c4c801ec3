//! `rtk stats` — graph summary.

use crate::args::Parsed;
use rtk_graph::degree::{degree_stats, top_b_by_degree, DegreeKind};

/// The flags `rtk stats` reads.
pub(crate) const FLAGS: &[&str] = &[];

pub(crate) fn run(args: &Parsed) -> Result<(), String> {
    let path = args.positional(0, "graph")?;
    let graph = super::load_graph(path)?;
    outln!("graph: {path}");
    outln!("  nodes:    {}", graph.node_count());
    outln!("  edges:    {}", graph.edge_count());
    outln!("  weighted: {}", graph.is_weighted());
    outln!("  memory:   {:.1} MiB", graph.heap_bytes() as f64 / (1024.0 * 1024.0));
    for (label, kind) in [("out", DegreeKind::Out), ("in", DegreeKind::In)] {
        let s = degree_stats(&graph, kind);
        outln!(
            "  {label}-degree: min {} / mean {:.2} / max {} ({} zero)",
            s.min,
            s.mean,
            s.max,
            s.zeros
        );
    }
    let top_in = top_b_by_degree(&graph, DegreeKind::In, 5);
    let top_out = top_b_by_degree(&graph, DegreeKind::Out, 5);
    outln!("  top in-degree nodes:  {top_in:?}");
    outln!("  top out-degree nodes: {top_out:?}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_generated_file() {
        let dir = std::env::temp_dir().join("rtk_cli_test_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.rtkg");
        super::super::save_graph(&rtk_datasets::toy_graph(), path.to_str().unwrap()).unwrap();
        let argv: Vec<String> = vec![path.to_str().unwrap().into()];
        run(&Parsed::parse(&argv, FLAGS).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_on_missing_file_errors() {
        let argv: Vec<String> = vec!["/nope/missing.rtkg".into()];
        assert!(run(&Parsed::parse(&argv, FLAGS).unwrap()).is_err());
    }
}
