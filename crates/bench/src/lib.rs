//! Shared harness for the experiment binaries (one per table/figure of the
//! paper).
//!
//! Every binary accepts:
//!
//! * `--quick` — scaled-down workloads, for smoke runs;
//! * `--full`  — the full workloads (default);
//! * `--queries N` — override the workload size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_datasets::DatasetSpec;
use rtk_graph::DiGraph;
use rtk_index::{HubSelection, HubSolver, IndexConfig};
use rtk_obs::{log_event, Level};
use rtk_rwr::BcaParams;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Scaled-down workloads for fast runs.
    pub quick: bool,
    /// Optional workload-size override.
    pub queries: Option<usize>,
}

impl Args {
    /// Parses `std::env::args()`. Unknown flags abort with a usage message.
    pub fn parse() -> Self {
        let mut args = Args { quick: false, queries: None };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--full" => args.quick = false,
                "--queries" => {
                    let v = it.next().unwrap_or_default();
                    args.queries = Some(v.parse().unwrap_or_else(|_| {
                        log_event(
                            Level::Error,
                            "bench",
                            &format!("--queries expects a number, got {v:?}"),
                            &[],
                        );
                        std::process::exit(2);
                    }));
                }
                "--help" | "-h" => {
                    println!("usage: [--quick|--full] [--queries N]");
                    std::process::exit(0);
                }
                other => {
                    log_event(
                        Level::Error,
                        "bench",
                        &format!("unknown flag {other:?}; try --help"),
                        &[],
                    );
                    std::process::exit(2);
                }
            }
        }
        args
    }

    /// Workload size: the override, or `quick`/`full` defaults.
    pub fn workload(&self, quick_default: usize, full_default: usize) -> usize {
        self.queries.unwrap_or(if self.quick { quick_default } else { full_default })
    }
}

/// Builds the paper-default index configuration for a dataset spec.
///
/// Hub vectors use the power method on small graphs and exhaustive-ish BCA
/// on large ones (the paper permits either, see `rtk_index::HubSolver` — BCA keeps
/// multi-thousand-hub builds tractable on one machine, with the truncation
/// tracked as a deficit).
pub fn index_config(spec: &DatasetSpec, b: usize, nodes: usize) -> IndexConfig {
    let hub_solver = if nodes > 30_000 {
        HubSolver::Bca {
            propagation_threshold: 1e-7,
            residue_threshold: 1e-3,
            max_iterations: 100_000,
        }
    } else {
        HubSolver::PowerMethod
    };
    IndexConfig {
        max_k: 200,
        bca: BcaParams::default(),
        hub_selection: HubSelection::DegreeBased { b },
        hub_solver,
        rounding_threshold: spec.rounding_threshold,
        threads: 0,
    }
}

/// A deterministic random query workload over `0..n`.
pub fn query_workload(n: usize, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(0..n) as u32).collect()
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Bytes → mebibytes.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Prints a markdown table with aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        line(row.clone());
    }
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper_ref: &str, dataset: &str, workload: &str) {
    println!("## {id} — reproducing {paper_ref}");
    println!("dataset: {dataset}; workload: {workload}");
    println!();
}

/// Summarizes a graph for banners.
pub fn graph_summary(g: &DiGraph) -> String {
    format!("{} nodes / {} edges", g.node_count(), g.edge_count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_in_range() {
        let a = query_workload(100, 50, 1);
        let b = query_workload(100, 50, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|&q| q < 100));
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn mean_and_mib() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mib(1024 * 1024), 1.0);
    }

    #[test]
    fn config_switches_hub_solver_by_size() {
        let spec = &rtk_datasets::paper_datasets()[0];
        assert!(matches!(index_config(spec, 10, 10_000).hub_solver, HubSolver::PowerMethod));
        assert!(matches!(index_config(spec, 10, 100_000).hub_solver, HubSolver::Bca { .. }));
    }
}
