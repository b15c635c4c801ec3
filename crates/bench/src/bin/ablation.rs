//! Ablation studies for the design choices `docs/ARCHITECTURE.md` describes
//! ("The offline/online split"):
//!
//! 1. batch vs single-node BCA propagation (the paper's §4.1.2 claim);
//! 2. hub budget `B` (including no hubs at all);
//! 3. degree-based vs Berkhin-greedy hub selection (§4.1.1);
//! 4. paper-faithful vs strict bound accounting under coarse rounding.
//!
//! ```sh
//! cargo run --release -p rtk-bench --bin ablation -- --quick
//! ```

use rtk_bench::{banner, graph_summary, index_config, mean, print_table, query_workload};
use rtk_datasets::{paper_datasets, web_cs_sim};
use rtk_graph::TransitionMatrix;
use rtk_index::{HubSelection, IndexConfig, ReverseIndex};
use rtk_query::{BoundMode, QueryEngine, QueryOptions};
use rtk_rwr::bca::{BcaEngine, BcaStop, PropagationStrategy};
use rtk_rwr::{BcaParams, HubSet};
use std::time::Instant;

fn main() {
    let args = rtk_bench::Args::parse();
    let queries = args.workload(30, 200);
    let graph = web_cs_sim();
    banner(
        "Ablations",
        "design-choice ablations (docs/ARCHITECTURE.md)",
        &format!("web-cs-sim ({})", graph_summary(&graph)),
        &format!("{queries} queries per configuration, k = 100"),
    );
    let transition = TransitionMatrix::new(&graph);
    let spec = &paper_datasets()[0];
    let n = graph.node_count();
    let workload = query_workload(n, queries, 0xAB1A);

    // --- 1. Propagation strategy (per-node partial BCA work) ---
    println!("### 1. BCA propagation strategy (δ = 0.1, sample of 300 nodes)");
    let hubs = HubSet::degree_based(&graph, spec.default_b);
    let mut rows = Vec::new();
    for (name, strategy) in [
        ("batch ≥ η (paper)", PropagationStrategy::BatchThreshold),
        ("single max-residue (Berkhin)", PropagationStrategy::SingleMaxResidue),
        ("single ≥ η (FOCS'06)", PropagationStrategy::SingleAboveThreshold),
    ] {
        let mut engine = BcaEngine::new(hubs.clone(), BcaParams::default(), strategy);
        let stop = BcaStop::from_params(&BcaParams::default());
        let t0 = Instant::now();
        for u in (0..n as u32).step_by(n / 300) {
            let _ = engine.run_from(&transition, u, &stop);
        }
        let secs = t0.elapsed().as_secs_f64();
        let w = engine.work();
        rows.push(vec![
            name.to_string(),
            format!("{secs:.2}"),
            w.iterations.to_string(),
            w.propagations.to_string(),
            w.pushes.to_string(),
        ]);
    }
    print_table(&["strategy", "time (s)", "iterations", "propagations", "pushes"], &rows);

    // --- 2. Hub budget ---
    println!("\n### 2. Hub budget B (build time, size, avg query time)");
    let mut rows = Vec::new();
    for b in [0usize, 12, 25, 50, 100, 200] {
        let mut cfg = index_config(spec, b.max(1), n);
        if b == 0 {
            cfg.hub_selection = HubSelection::None;
        }
        let mut index = ReverseIndex::build(&transition, cfg).expect("index build");
        let s = *index.stats();
        let mut session = QueryEngine::new(&index);
        let mut times = Vec::new();
        for &q in &workload {
            let r = session
                .query(&transition, &mut index, q, 100, &QueryOptions::default())
                .unwrap();
            times.push(r.stats().total_seconds);
        }
        rows.push(vec![
            b.to_string(),
            s.hub_count.to_string(),
            format!("{:.1}", s.total_seconds),
            format!("{:.1}", rtk_bench::mib(s.actual_bytes)),
            format!("{:.4}", mean(&times)),
        ]);
    }
    print_table(&["B", "|H|", "build (s)", "size MiB", "avg query (s)"], &rows);

    // --- 3. Hub selection scheme ---
    println!("\n### 3. Hub selection: degree union (paper) vs Berkhin greedy");
    let mut rows = Vec::new();
    for (name, selection) in [
        ("degree union (paper)", HubSelection::DegreeBased { b: 25 }),
        ("greedy BCA (Berkhin)", HubSelection::Greedy { count: 50, seed: 1 }),
    ] {
        let cfg = IndexConfig { hub_selection: selection, ..index_config(spec, 25, n) };
        let mut index = ReverseIndex::build(&transition, cfg).expect("index build");
        let s = *index.stats();
        let mut session = QueryEngine::new(&index);
        let mut times = Vec::new();
        for &q in &workload {
            let r = session
                .query(&transition, &mut index, q, 100, &QueryOptions::default())
                .unwrap();
            times.push(r.stats().total_seconds);
        }
        rows.push(vec![
            name.to_string(),
            s.hub_count.to_string(),
            format!("{:.2}", s.hub_selection_seconds),
            format!("{:.1}", s.total_seconds),
            format!("{:.4}", mean(&times)),
        ]);
    }
    print_table(&["scheme", "|H|", "selection (s)", "build (s)", "avg query (s)"], &rows);

    // --- 4. Bound accounting under coarse rounding ---
    println!("\n### 4. Bound mode at ω = 1e-4 (coarse rounding)");
    let mut cfg = index_config(spec, spec.default_b, n);
    cfg.rounding_threshold = 1e-4;
    let base = ReverseIndex::build(&transition, cfg).expect("index build");
    let mut rows = Vec::new();
    for (name, mode) in
        [("paper-faithful", BoundMode::PaperFaithful), ("strict (sound)", BoundMode::Strict)]
    {
        let mut index = base.clone();
        let mut session = QueryEngine::new(&index);
        let opts = QueryOptions { bound_mode: mode, ..Default::default() };
        let mut times = Vec::new();
        let mut fallbacks = 0usize;
        for &q in &workload {
            let r = session.query(&transition, &mut index, q, 100, &opts).unwrap();
            times.push(r.stats().total_seconds);
            fallbacks += r.stats().exact_fallbacks;
        }
        rows.push(vec![name.to_string(), format!("{:.4}", mean(&times)), fallbacks.to_string()]);
    }
    print_table(&["bound mode", "avg query (s)", "exact fallbacks"], &rows);
}
