//! Parallel-query determinism: the multi-threaded screen/commit path must be
//! observationally identical to the serial path — byte-identical result sets
//! and proximities, equal statistics, and (in update mode) an equal
//! post-query index — across graph families, bound modes, and access modes.
//!
//! This is the contract that makes `query_threads` safe to default to "all
//! cores": parallelism may only change wall time, never answers.

use rtk_graph::gen::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_index::{HubSelection, IndexConfig, ReverseIndex};
use rtk_query::{BoundMode, QueryEngine, QueryOptions, QueryResult};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Paper-faithful suite graphs. Sized for the debug profile: each graph runs
/// 2 access modes × 4 thread counts × 6 queries.
fn test_graphs() -> Vec<(String, DiGraph)> {
    let mut graphs = Vec::new();
    for seed in [1u64, 7] {
        let g = erdos_renyi(&ErdosRenyiConfig { nodes: 90, edges: 360, seed }).unwrap();
        graphs.push((format!("er/{seed}"), g));
    }
    for seed in [3u64, 19] {
        let g = rmat(&RmatConfig::new(110, 450, seed)).unwrap();
        graphs.push((format!("rmat/{seed}"), g));
    }
    graphs
}

/// Strict-mode suite graphs — deliberately tiny. With a coarse `ω` every
/// borderline candidate must drain its BCA to exhaustion before the exact
/// fallback fires (thousands of sub-η iterations on diffuse graphs), so the
/// strict determinism check uses small instances to stay fast while still
/// covering the fallback path under every thread count.
fn strict_test_graphs() -> Vec<(String, DiGraph)> {
    vec![
        (
            "er/strict".into(),
            erdos_renyi(&ErdosRenyiConfig { nodes: 36, edges: 140, seed: 5 }).unwrap(),
        ),
        // Sparser than the paper-faithful graphs: R-MAT rejection sampling
        // cannot fill dense small grids (skewed cells saturate).
        ("rmat/strict".into(), rmat(&RmatConfig::new(64, 140, 23)).unwrap()),
    ]
}

fn index_config(bound_mode: BoundMode) -> IndexConfig {
    IndexConfig {
        max_k: if bound_mode == BoundMode::Strict { 4 } else { 8 },
        hub_selection: HubSelection::DegreeBased { b: 6 },
        // Coarse rounding in strict mode forces the exact-fallback path, so
        // the parallel worker's serial fallback solves are covered too.
        rounding_threshold: if bound_mode == BoundMode::Strict { 1e-3 } else { 1e-6 },
        threads: 1,
        ..Default::default()
    }
}

fn sample_queries(n: usize, max_k: usize) -> Vec<(u32, usize)> {
    (0..6u32)
        .map(|i| (((i as usize * 29 + 3) % n) as u32, 1 + (i as usize % max_k)))
        .collect()
}

/// Runs the sample workload from a fresh copy of `index` with `threads`
/// workers; returns the per-query results and the final index.
fn run_workload(
    transition: &TransitionMatrix<'_>,
    index: &ReverseIndex,
    update: bool,
    bound_mode: BoundMode,
    threads: usize,
) -> (Vec<QueryResult>, ReverseIndex) {
    let options = QueryOptions {
        update_index: update,
        bound_mode,
        query_threads: threads,
        ..Default::default()
    };
    let mut index = index.clone();
    let mut session = QueryEngine::new(&index);
    let n = transition.node_count();
    let mut results = Vec::new();
    for (q, k) in sample_queries(n, index.max_k()) {
        let r = if update {
            session.query(transition, &mut index, q, k, &options).unwrap()
        } else {
            session.query_frozen(transition, &index, q, k, &options).unwrap()
        };
        results.push(r);
    }
    (results, index)
}

fn assert_equivalent(
    label: &str,
    threads: usize,
    serial: &(Vec<QueryResult>, ReverseIndex),
    parallel: &(Vec<QueryResult>, ReverseIndex),
) {
    for (i, (a, b)) in serial.0.iter().zip(&parallel.0).enumerate() {
        assert_eq!(a.nodes(), b.nodes(), "{label} t={threads} query#{i}: node sets differ");
        // Byte-identical proximities, not merely approximately equal.
        let pa: Vec<u64> = a.proximities().iter().map(|p| p.to_bits()).collect();
        let pb: Vec<u64> = b.proximities().iter().map(|p| p.to_bits()).collect();
        assert_eq!(pa, pb, "{label} t={threads} query#{i}: proximity bits differ");
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.candidates, sb.candidates, "{label} t={threads} query#{i}");
        assert_eq!(sa.hits, sb.hits, "{label} t={threads} query#{i}");
        assert_eq!(
            sa.pruned_by_lower_bound, sb.pruned_by_lower_bound,
            "{label} t={threads} query#{i}"
        );
        assert_eq!(sa.refined_nodes, sb.refined_nodes, "{label} t={threads} query#{i}");
        assert_eq!(sa.refine_iterations, sb.refine_iterations, "{label} t={threads} query#{i}");
        assert_eq!(sa.exact_fallbacks, sb.exact_fallbacks, "{label} t={threads} query#{i}");
    }
    let n = serial.1.node_count();
    assert_eq!(n, parallel.1.node_count());
    for u in 0..n as u32 {
        assert_eq!(
            serial.1.state(u),
            parallel.1.state(u),
            "{label} t={threads}: post-query state of node {u} differs"
        );
    }
}

fn check_modes(label: &str, graph: &DiGraph, bound_mode: BoundMode) {
    let transition = TransitionMatrix::new(graph);
    let index = ReverseIndex::build(&transition, index_config(bound_mode)).unwrap();
    for update in [false, true] {
        let serial = run_workload(&transition, &index, update, bound_mode, 1);
        for threads in THREAD_COUNTS {
            let parallel = run_workload(&transition, &index, update, bound_mode, threads);
            let mode =
                format!("{label} {:?} {}", bound_mode, if update { "update" } else { "frozen" });
            assert_equivalent(&mode, threads, &serial, &parallel);
        }
    }
}

#[test]
fn erdos_renyi_parallel_queries_match_serial() {
    for (label, graph) in test_graphs().iter().filter(|(l, _)| l.starts_with("er")) {
        check_modes(label, graph, BoundMode::PaperFaithful);
    }
}

#[test]
fn rmat_parallel_queries_match_serial() {
    for (label, graph) in test_graphs().iter().filter(|(l, _)| l.starts_with("rmat")) {
        check_modes(label, graph, BoundMode::PaperFaithful);
    }
}

#[test]
fn strict_mode_parallel_queries_match_serial() {
    for (label, graph) in strict_test_graphs() {
        check_modes(&label, &graph, BoundMode::Strict);
    }
}

/// Batch queries are frozen-mode: any thread count must reproduce the
/// serial frozen answers in input order and leave the index untouched.
#[test]
fn query_batch_is_deterministic_across_thread_counts() {
    for (label, graph) in test_graphs() {
        let transition = TransitionMatrix::new(&graph);
        let index =
            ReverseIndex::build(&transition, index_config(BoundMode::PaperFaithful)).unwrap();
        let before = index.clone();
        let session = QueryEngine::new(&index);
        let queries = sample_queries(graph.node_count(), index.max_k());
        let serial = session
            .query_batch(
                &transition,
                &index,
                &queries,
                &QueryOptions { query_threads: 1, ..Default::default() },
            )
            .unwrap();
        for threads in THREAD_COUNTS {
            let parallel = session
                .query_batch(
                    &transition,
                    &index,
                    &queries,
                    &QueryOptions { query_threads: threads, ..Default::default() },
                )
                .unwrap();
            for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(a.nodes(), b.nodes(), "{label} t={threads} query#{i}");
                let pa: Vec<u64> = a.proximities().iter().map(|p| p.to_bits()).collect();
                let pb: Vec<u64> = b.proximities().iter().map(|p| p.to_bits()).collect();
                assert_eq!(pa, pb, "{label} t={threads} query#{i}");
            }
        }
        for u in 0..graph.node_count() as u32 {
            assert_eq!(before.state(u), index.state(u), "{label}: batch mutated the index");
        }
    }
}
