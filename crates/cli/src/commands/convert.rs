//! `rtk convert` — translate between TSV and binary graph formats.

use crate::args::Parsed;

/// The flags `rtk convert` reads.
pub(crate) const FLAGS: &[&str] = &[];

pub(crate) fn run(args: &Parsed) -> Result<(), String> {
    let input = args.positional(0, "input")?;
    let output = args.positional(1, "output")?;
    if super::is_tsv(input) == super::is_tsv(output) {
        // Same-format copies are legal (e.g. repair dangling nodes), just
        // mention it so accidental no-ops are visible.
        outln!("note: input and output use the same format");
    }
    let graph = super::load_graph(input)?;
    super::save_graph(&graph, output)?;
    outln!(
        "converted {input} -> {output} ({} nodes / {} edges)",
        graph.node_count(),
        graph.edge_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_to_binary_and_back() {
        let dir = std::env::temp_dir().join("rtk_cli_test_convert");
        std::fs::create_dir_all(&dir).unwrap();
        let tsv = dir.join("g.tsv");
        let bin = dir.join("g.rtkg");
        let tsv2 = dir.join("g2.tsv");
        super::super::save_graph(&rtk_datasets::toy_graph(), tsv.to_str().unwrap()).unwrap();

        let argv: Vec<String> = vec![tsv.to_str().unwrap().into(), bin.to_str().unwrap().into()];
        run(&Parsed::parse(&argv, FLAGS).unwrap()).unwrap();
        let argv: Vec<String> = vec![bin.to_str().unwrap().into(), tsv2.to_str().unwrap().into()];
        run(&Parsed::parse(&argv, FLAGS).unwrap()).unwrap();

        let a = super::super::load_graph(tsv.to_str().unwrap()).unwrap();
        let b = super::super::load_graph(tsv2.to_str().unwrap()).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
