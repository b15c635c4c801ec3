//! Table 2 — index construction time and space versus the hub budget `B`,
//! with the brute-force full-matrix cost for contrast.
//!
//! Paper layout per graph: rows `B`, `|H|`, build time, index size without
//! rounding, actual size, Theorem-1 predicted size; last column the time and
//! size of the full proximity matrix `P` (with the minimum lower-bound-only
//! index size in parentheses).
//!
//! "Actual" counts `P_H` as `rtk_index::HubMatrix` holds it in memory: one
//! dense panel, 8 B per slot over the columns' common support. Theorem 1's
//! prediction still counts 12 B per sparse entry (u32 index + f64 value),
//! the entries of a persisted hub record.
//!
//! ```sh
//! cargo run --release -p rtk-bench --bin table2 -- --quick
//! ```

use rtk_bench::{banner, graph_summary, index_config, mib, print_table};
use rtk_datasets::paper_datasets;
use rtk_graph::TransitionMatrix;
use rtk_index::ReverseIndex;
use rtk_rwr::{proximity_from, RwrParams};
use std::time::Instant;

fn main() {
    let args = rtk_bench::Args::parse();
    banner(
        "Table 2",
        "index construction time and space cost (paper Table 2)",
        "all four web/social analogues",
        if args.quick { "--quick: 2 hub budgets per graph" } else { "4 hub budgets per graph" },
    );

    for spec in paper_datasets() {
        let graph = spec.graph();
        let transition = TransitionMatrix::new(&graph);
        println!("### {} ({} analogue): {}", spec.name, spec.paper_name, graph_summary(&graph));

        let b_values: Vec<usize> = if args.quick {
            let mut v = vec![spec.b_values[0], spec.default_b];
            v.dedup();
            v
        } else {
            spec.b_values.to_vec()
        };

        let mut rows = Vec::new();
        for &b in &b_values {
            let config = index_config(&spec, b, graph.node_count());
            let index = ReverseIndex::build(&transition, config).expect("index build");
            let s = index.stats();
            let marker = if b == spec.default_b { " *" } else { "" };
            rows.push(vec![
                format!("{b}{marker}"),
                s.hub_count.to_string(),
                format!("{:.1}", s.total_seconds),
                format!("{:.1}", mib(s.no_rounding_bytes)),
                format!("{:.1}", mib(s.actual_bytes)),
                s.predicted_bytes.map_or("-".into(), |p| format!("{:.1}", mib(p))),
                format!("{:.1}", mib(s.lower_bound_bytes)),
            ]);
        }
        print_table(
            &["B", "|H|", "time (s)", "no-rounding MiB", "actual MiB", "pred. MiB", "lb-only MiB"],
            &rows,
        );

        // Brute-force column: full P cost, extrapolated from a column sample
        // (materializing P for the larger graphs is the infeasibility the
        // paper demonstrates — 6.7 TB for Web-google).
        let params = RwrParams::default();
        let sample = 20.min(graph.node_count());
        let t0 = Instant::now();
        for u in 0..sample as u32 {
            let _ = proximity_from(&transition, u, &params);
        }
        let per_column = t0.elapsed().as_secs_f64() / sample as f64;
        let full_p_seconds = per_column * graph.node_count() as f64;
        let full_p_bytes = graph.node_count() * graph.node_count() * 8;
        println!(
            "full P (extrapolated from {sample} columns, single-core): {:.0}s, {:.0} MiB\n",
            full_p_seconds,
            mib(full_p_bytes)
        );
    }
    println!("(* = configuration reused by the query experiments, as in the paper's bold rows)");
}
