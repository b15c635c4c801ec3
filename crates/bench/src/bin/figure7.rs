//! Figure 7 — cost of individual queries over a workload sequence, with and
//! without index updates (paper: Web-stanford, k = 100).
//!
//! The paper's point: as the updated index absorbs refinements, later
//! queries in the sequence get cheaper, while the frozen index pays the
//! same refinement cost again and again. Here the frozen series keeps the
//! bounds its refinements reach (`rtk_index::kept`), so it gets cheaper
//! along the sequence too, though less than the paper's no-update mode,
//! which keeps nothing, would suggest.
//!
//! ```sh
//! cargo run --release -p rtk-bench --bin figure7 -- --quick
//! ```

use rtk_bench::{banner, graph_summary, mean, print_table, query_workload};
use rtk_datasets::paper_datasets;
use rtk_graph::TransitionMatrix;
use rtk_index::ReverseIndex;
use rtk_query::{QueryEngine, QueryOptions};

fn main() {
    let args = rtk_bench::Args::parse();
    let queries = args.workload(150, 500);
    let k = 100;
    // web-std-sim is the analogue of the paper's Web-stanford.
    let spec = paper_datasets().into_iter().find(|s| s.name == "web-std-sim").unwrap();
    let graph = spec.graph();
    banner(
        "Figure 7",
        "cost of individual queries across a sequence (paper Fig. 7)",
        &format!("{} ({})", spec.name, graph_summary(&graph)),
        &format!("{queries} queries, k = {k}"),
    );

    let transition = TransitionMatrix::new(&graph);
    let config = rtk_bench::index_config(&spec, spec.default_b, graph.node_count());
    let base_index = ReverseIndex::build(&transition, config).expect("index build");
    let workload = query_workload(graph.node_count(), queries, 0xF167);

    let mut series: Vec<Vec<f64>> = Vec::new();
    for update in [true, false] {
        let mut index = base_index.clone();
        let mut session = QueryEngine::new(&index);
        let opts = QueryOptions { update_index: update, ..Default::default() };
        let mut times = Vec::with_capacity(workload.len());
        for &q in &workload {
            let r = if update {
                session.query(&transition, &mut index, q, k, &opts).unwrap()
            } else {
                session.query_frozen(&transition, &index, q, k, &opts).unwrap()
            };
            times.push(r.stats().total_seconds);
        }
        series.push(times);
    }

    // Bucketed view of the two series (the paper plots raw query ids).
    let bucket = (queries / 10).max(1);
    let mut rows = Vec::new();
    let mut start = 0;
    while start < queries {
        let end = (start + bucket).min(queries);
        rows.push(vec![
            format!("{start}..{end}"),
            format!("{:.4}", mean(&series[0][start..end])),
            format!("{:.4}", mean(&series[1][start..end])),
        ]);
        start = end;
    }
    print_table(&["query ids", "update avg (s)", "no-update avg (s)"], &rows);

    let head = queries / 4;
    let tail_start = queries - head;
    println!(
        "\ntrend: update mode first-quartile avg {:.4}s -> last-quartile {:.4}s; \
         no-update {:.4}s -> {:.4}s",
        mean(&series[0][..head]),
        mean(&series[0][tail_start..]),
        mean(&series[1][..head]),
        mean(&series[1][tail_start..]),
    );
    println!(
        "(paper: the update/no-update gap widens with the query id, since \
         updated indexes reuse earlier refinements)"
    );
}
