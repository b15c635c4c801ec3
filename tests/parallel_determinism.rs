//! Parallel determinism: neither the query thread count nor the shard count
//! may be observable. The multi-threaded screen/commit path must match the
//! serial path, and an index cut into `S` node-range shards must match the
//! unsharded one — byte-identical result sets and proximities, equal
//! statistics, and (in update mode) an equal post-query index — across
//! graph families, bound modes, and access modes.
//!
//! This is the contract that makes `query_threads` safe to default to "all
//! cores" and the shard count (`EngineBuilder::shards`,
//! `ReverseIndex::repartition`) safe to tune freely: both may only change
//! wall time and storage layout, never answers.
//!
//! Also pins persistence: snapshots of every shard count — one included —
//! round-trip through the manifest and keep answering identically.

use rtk_graph::gen::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_index::{HubSelection, IndexConfig, ReverseIndex};
use rtk_query::{BoundMode, QueryEngine, QueryOptions, QueryResult};

/// The thread or shard counts each check compares against a count of 1.
const COUNTS: [usize; 3] = [2, 4, 8];

/// What a check varies.
#[derive(Clone, Copy, Debug)]
enum Axis {
    /// Query threads over one shard.
    Threads,
    /// Shards, screened by two query threads.
    Shards,
}

/// Paper-faithful suite graphs. Sized for the debug profile: each graph runs
/// 2 access modes × 4 counts × 6 queries per axis.
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
/// covering the fallback path under every thread and shard count.
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

/// The one-shard index of `transition` for `bound_mode`.
fn build_index(transition: &TransitionMatrix<'_>, bound_mode: BoundMode) -> ReverseIndex {
    let config = IndexConfig {
        max_k: if bound_mode == BoundMode::Strict { 4 } else { 8 },
        hub_selection: HubSelection::DegreeBased { b: 6 },
        // Coarse rounding in strict mode forces the exact-fallback path, so
        // the parallel worker's serial fallback solves are covered too.
        rounding_threshold: if bound_mode == BoundMode::Strict { 1e-3 } else { 1e-6 },
        threads: 1,
        ..Default::default()
    };
    let index = ReverseIndex::build(transition, config).unwrap();
    assert_eq!(index.shard_count(), 1);
    index
}

/// `index` laid out for `count` on `axis`, and the query threads to run it
/// with: `count` threads over one shard, or `count` shards screened by two
/// threads (so the screen's claim loop actually runs two lanes).
fn at(index: &ReverseIndex, axis: Axis, count: usize) -> (ReverseIndex, usize) {
    let mut index = index.clone();
    match axis {
        Axis::Threads => (index, count),
        Axis::Shards => {
            index.repartition(count);
            assert_eq!(index.shard_count(), count);
            (index, 2)
        }
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
    reference: &(Vec<QueryResult>, ReverseIndex),
    got: &(Vec<QueryResult>, ReverseIndex),
) {
    for (i, (a, b)) in reference.0.iter().zip(&got.0).enumerate() {
        assert_eq!(a.nodes(), b.nodes(), "{label} query#{i}: node sets differ");
        // Byte-identical proximities, not merely approximately equal.
        let pa: Vec<u64> = a.proximities().iter().map(|p| p.to_bits()).collect();
        let pb: Vec<u64> = b.proximities().iter().map(|p| p.to_bits()).collect();
        assert_eq!(pa, pb, "{label} query#{i}: proximity bits differ");
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.candidates, sb.candidates, "{label} query#{i}");
        assert_eq!(sa.hits, sb.hits, "{label} query#{i}");
        assert_eq!(sa.pruned_by_lower_bound, sb.pruned_by_lower_bound, "{label} query#{i}");
        assert_eq!(sa.refined_nodes, sb.refined_nodes, "{label} query#{i}");
        assert_eq!(sa.refine_iterations, sb.refine_iterations, "{label} query#{i}");
        assert_eq!(sa.exact_fallbacks, sb.exact_fallbacks, "{label} query#{i}");
    }
    let n = reference.1.node_count();
    assert_eq!(n, got.1.node_count());
    for u in 0..n as u32 {
        assert_eq!(
            reference.1.state(u),
            got.1.state(u),
            "{label}: post-query state of node {u} differs"
        );
    }
}

fn check_modes(label: &str, graph: &DiGraph, bound_mode: BoundMode, axis: Axis) {
    let transition = TransitionMatrix::new(graph);
    let built = build_index(&transition, bound_mode);
    for update in [false, true] {
        let (index, threads) = at(&built, axis, 1);
        let reference = run_workload(&transition, &index, update, bound_mode, threads);
        for count in COUNTS {
            let mode = format!(
                "{label} {bound_mode:?} {} {axis:?}={count}",
                if update { "update" } else { "frozen" }
            );
            // The new layout must hold every built state bitwise…
            let (index, threads) = at(&built, axis, count);
            for u in 0..graph.node_count() as u32 {
                assert_eq!(built.state(u), index.state(u), "{mode}: built state of node {u}");
            }
            // …and behave identically under the full query workload.
            let got = run_workload(&transition, &index, update, bound_mode, threads);
            assert_equivalent(&mode, &reference, &got);
        }
    }
}

#[test]
fn erdos_renyi_parallel_queries_match_serial() {
    for (label, graph) in test_graphs().iter().filter(|(l, _)| l.starts_with("er")) {
        check_modes(label, graph, BoundMode::PaperFaithful, Axis::Threads);
    }
}

#[test]
fn rmat_parallel_queries_match_serial() {
    for (label, graph) in test_graphs().iter().filter(|(l, _)| l.starts_with("rmat")) {
        check_modes(label, graph, BoundMode::PaperFaithful, Axis::Threads);
    }
}

#[test]
fn strict_mode_parallel_queries_match_serial() {
    for (label, graph) in strict_test_graphs() {
        check_modes(&label, &graph, BoundMode::Strict, Axis::Threads);
    }
}

#[test]
fn erdos_renyi_sharded_queries_match_unsharded() {
    for (label, graph) in test_graphs().iter().filter(|(l, _)| l.starts_with("er")) {
        check_modes(label, graph, BoundMode::PaperFaithful, Axis::Shards);
    }
}

#[test]
fn rmat_sharded_queries_match_unsharded() {
    for (label, graph) in test_graphs().iter().filter(|(l, _)| l.starts_with("rmat")) {
        check_modes(label, graph, BoundMode::PaperFaithful, Axis::Shards);
    }
}

#[test]
fn strict_mode_sharded_queries_match_unsharded() {
    for (label, graph) in strict_test_graphs() {
        check_modes(&label, &graph, BoundMode::Strict, Axis::Shards);
    }
}

/// Batch queries are frozen-mode: any thread count must reproduce the
/// serial frozen answers in input order and leave the index untouched.
#[test]
fn query_batch_is_deterministic_across_thread_counts() {
    for (label, graph) in test_graphs() {
        let transition = TransitionMatrix::new(&graph);
        let index = build_index(&transition, BoundMode::PaperFaithful);
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
        for threads in COUNTS {
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

/// Snapshots of every shard count round-trip through the manifest format:
/// a re-loaded index — freshly built or refined by update-mode queries —
/// holds every state bitwise and re-saves to the same bytes, and a
/// re-loaded built index keeps answering bitwise-identically.
#[test]
fn sharded_snapshots_round_trip_and_answer_identically() {
    let (_, graph) = &test_graphs()[2]; // one R-MAT instance is plenty
    let transition = TransitionMatrix::new(graph);
    let baseline = build_index(&transition, BoundMode::PaperFaithful);
    let reference = run_workload(&transition, &baseline, true, BoundMode::PaperFaithful, 2);
    let round_trip = |index: &ReverseIndex, shards: usize| {
        let mut sharded = index.clone();
        sharded.repartition(shards);
        let mut buf = Vec::new();
        rtk_index::storage::save(graph, &sharded, &mut buf).unwrap();
        assert_eq!(&buf[..8], rtk_index::storage::MANIFEST_MAGIC, "shards={shards}");
        let (_, loaded) = rtk_index::storage::load(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.shard_count(), shards);
        for u in 0..graph.node_count() as u32 {
            assert_eq!(loaded.state(u), index.state(u), "shards={shards} node {u}");
        }
        let mut resaved = Vec::new();
        rtk_index::storage::save(graph, &loaded, &mut resaved).unwrap();
        assert_eq!(buf, resaved, "shards={shards}: load + save must reproduce the bytes");
        loaded
    };
    for shards in [1].into_iter().chain(COUNTS) {
        round_trip(&reference.1, shards);
        let loaded = round_trip(&baseline, shards);
        let got = run_workload(&transition, &loaded, true, BoundMode::PaperFaithful, 2);
        assert_equivalent(&format!("manifest-round-trip shards={shards}"), &reference, &got);
    }
}

/// Engine snapshots: an `S = 1` engine snapshot loads and re-saves
/// byte-for-byte, and engines re-sharded from it answer identically after
/// a round-trip.
#[test]
fn engine_snapshots_round_trip_across_shard_counts() {
    use reverse_topk_rwr::prelude::*;
    let graph = rmat(&RmatConfig::new(110, 450, 3)).unwrap();
    let mut engine = ReverseTopkEngine::builder(graph)
        .max_k(8)
        .hubs_per_direction(6)
        .threads(1)
        .build()
        .unwrap();
    let expected = engine.query(NodeId(7), 5).unwrap();

    // One-shard engine snapshot: byte-stable across load + save.
    let mut single = Vec::new();
    engine.save(&mut single).unwrap();
    let loaded = ReverseTopkEngine::load(std::io::Cursor::new(&single)).unwrap();
    assert_eq!(loaded.shard_count(), 1);
    let mut resaved = Vec::new();
    loaded.save(&mut resaved).unwrap();
    assert_eq!(single, resaved);

    for shards in COUNTS {
        let mut sharded = ReverseTopkEngine::load(std::io::Cursor::new(&single)).unwrap();
        sharded.reshard(shards);
        let mut buf = Vec::new();
        sharded.save(&mut buf).unwrap();
        let mut back = ReverseTopkEngine::load(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.shard_count(), shards);
        let got = back.query(NodeId(7), 5).unwrap();
        assert_eq!(got.nodes(), expected.nodes(), "shards={shards}");
        let pa: Vec<u64> = expected.proximities().iter().map(|p| p.to_bits()).collect();
        let pb: Vec<u64> = got.proximities().iter().map(|p| p.to_bits()).collect();
        assert_eq!(pa, pb, "shards={shards}");
    }
}
