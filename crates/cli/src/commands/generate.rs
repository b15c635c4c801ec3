//! `rtk generate` — synthesize datasets and parameterized random graphs.

use crate::args::Parsed;
use rtk_graph::gen::{erdos_renyi, rmat, scale_free};
use rtk_graph::gen::{ErdosRenyiConfig, RmatConfig, ScaleFreeConfig};
use rtk_graph::DiGraph;

/// The flags `rtk generate` reads.
pub(crate) const FLAGS: &[&str] = &["out"];

pub(crate) fn run(args: &Parsed) -> Result<(), String> {
    let name = args.positional(0, "dataset")?;
    let out = args
        .get("out")
        .ok_or_else(|| "generate: --out <file> is required".to_string())?;
    let graph = build(name)?;
    super::save_graph(&graph, out)?;
    outln!("wrote {name}: {} nodes / {} edges -> {out}", graph.node_count(), graph.edge_count());
    Ok(())
}

/// Builds a named dataset or a `family:param:param[:seed]` spec.
pub(crate) fn build(name: &str) -> Result<DiGraph, String> {
    match name {
        "toy" => return Ok(rtk_datasets::toy_graph()),
        "web-cs-small" => return Ok(rtk_datasets::web_cs_small()),
        "web-cs-sim" => return Ok(rtk_datasets::web_cs_sim()),
        "epinions-sim" => return Ok(rtk_datasets::epinions_sim()),
        "web-std-sim" => return Ok(rtk_datasets::web_std_sim()),
        "web-google-sim" => return Ok(rtk_datasets::web_google_sim()),
        "webspam-sim" => {
            return Ok(rtk_datasets::webspam_sim(&Default::default()).graph);
        }
        "dblp-sim" => return Ok(rtk_datasets::dblp_sim(&Default::default()).graph),
        _ => {}
    }

    let parts: Vec<&str> = name.split(':').collect();
    let parse = |s: &str, what: &str| -> Result<u64, String> {
        s.parse::<u64>().map_err(|_| format!("generate: bad {what} in {name:?}"))
    };
    match parts.as_slice() {
        ["rmat", n, m] | ["rmat", n, m, _] => {
            let seed = parts.get(3).map_or(Ok(42), |s| parse(s, "seed"))?;
            rmat(&RmatConfig::new(parse(n, "nodes")? as usize, parse(m, "edges")? as usize, seed))
                .map_err(|e| format!("generate: {e}"))
        }
        ["er", n, m] | ["er", n, m, _] => {
            let seed = parts.get(3).map_or(Ok(42), |s| parse(s, "seed"))?;
            erdos_renyi(&ErdosRenyiConfig {
                nodes: parse(n, "nodes")? as usize,
                edges: parse(m, "edges")? as usize,
                seed,
            })
            .map_err(|e| format!("generate: {e}"))
        }
        ["sf", n, d] | ["sf", n, d, _] => {
            let seed = parts.get(3).map_or(Ok(42), |s| parse(s, "seed"))?;
            scale_free(&ScaleFreeConfig::new(
                parse(n, "nodes")? as usize,
                parse(d, "degree")? as usize,
                seed,
            ))
            .map_err(|e| format!("generate: {e}"))
        }
        _ => Err(format!("generate: unknown dataset {name:?} (see `rtk help` for the list)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_datasets_build() {
        assert_eq!(build("toy").unwrap().node_count(), 6);
    }

    #[test]
    fn parameterized_specs_build() {
        assert_eq!(build("rmat:100:300").unwrap().node_count(), 100);
        assert_eq!(build("er:50:100:7").unwrap().node_count(), 50);
        assert_eq!(build("sf:80:3").unwrap().node_count(), 80);
    }

    #[test]
    fn seeds_differentiate() {
        assert_ne!(build("rmat:100:300:1").unwrap(), build("rmat:100:300:2").unwrap());
        assert_eq!(build("rmat:100:300").unwrap(), build("rmat:100:300:42").unwrap());
    }

    #[test]
    fn bad_specs_error() {
        assert!(build("nope").is_err());
        assert!(build("rmat:abc:10").is_err());
        assert!(build("rmat:10").is_err());
    }

    #[test]
    fn end_to_end_write() {
        let dir = std::env::temp_dir().join("rtk_cli_test_gen");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("g.tsv");
        let argv: Vec<String> = vec!["toy".into(), "--out".into(), out.to_str().unwrap().into()];
        run(&Parsed::parse(&argv, FLAGS).unwrap()).unwrap();
        assert!(out.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_out_flag_errors() {
        let argv: Vec<String> = vec!["toy".into()];
        assert!(run(&Parsed::parse(&argv, FLAGS).unwrap()).is_err());
    }
}
