//! Shard determinism: partitioning the index into `S` node-range shards
//! must be observationally invisible — byte-identical result sets,
//! proximities, statistics, and (in update mode) an identical post-query
//! index for every shard count, across graph families, bound modes, and
//! access modes. This is the contract that makes the shard count
//! (`EngineBuilder::shards`, `ReverseIndex::repartition`) safe to tune freely: sharding, like threading, may only change wall time and
//! storage layout, never answers.
//!
//! Also pins persistence: snapshots of every shard count — one included —
//! round-trip through the manifest and keep answering identically.

use rtk_graph::gen::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_index::{HubSelection, IndexConfig, ReverseIndex};
use rtk_query::{BoundMode, QueryEngine, QueryOptions, QueryResult};

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// Paper-faithful suite graphs (ER + R-MAT, as in `parallel_determinism`).
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

/// Strict-mode graphs stay tiny: coarse `ω` forces every borderline
/// candidate through the exact-fallback path (see `parallel_determinism`).
fn strict_test_graphs() -> Vec<(String, DiGraph)> {
    vec![
        (
            "er/strict".into(),
            erdos_renyi(&ErdosRenyiConfig { nodes: 36, edges: 140, seed: 5 }).unwrap(),
        ),
        ("rmat/strict".into(), rmat(&RmatConfig::new(64, 140, 23)).unwrap()),
    ]
}

/// The index of `transition` for `bound_mode`, cut into `shards` shards.
fn build_index(
    transition: &TransitionMatrix<'_>,
    bound_mode: BoundMode,
    shards: usize,
) -> ReverseIndex {
    let config = IndexConfig {
        max_k: if bound_mode == BoundMode::Strict { 4 } else { 8 },
        hub_selection: HubSelection::DegreeBased { b: 6 },
        rounding_threshold: if bound_mode == BoundMode::Strict { 1e-3 } else { 1e-6 },
        threads: 1,
        ..Default::default()
    };
    let mut index = ReverseIndex::build(transition, config).unwrap();
    index.repartition(shards);
    index
}

fn sample_queries(n: usize, max_k: usize) -> Vec<(u32, usize)> {
    (0..6u32)
        .map(|i| (((i as usize * 29 + 3) % n) as u32, 1 + (i as usize % max_k)))
        .collect()
}

/// Runs the sample workload from a fresh copy of `index` (2 threads, so the
/// screen's claim loop actually runs two lanes); returns the per-query
/// results and the final index.
fn run_workload(
    transition: &TransitionMatrix<'_>,
    index: &ReverseIndex,
    update: bool,
    bound_mode: BoundMode,
) -> (Vec<QueryResult>, ReverseIndex) {
    let mut index = index.clone();
    let mut session = QueryEngine::new(&index);
    let options =
        QueryOptions { update_index: update, bound_mode, query_threads: 2, ..Default::default() };
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
    shards: usize,
    unsharded: &(Vec<QueryResult>, ReverseIndex),
    sharded: &(Vec<QueryResult>, ReverseIndex),
) {
    for (i, (a, b)) in unsharded.0.iter().zip(&sharded.0).enumerate() {
        assert_eq!(a.nodes(), b.nodes(), "{label} s={shards} query#{i}: node sets differ");
        let pa: Vec<u64> = a.proximities().iter().map(|p| p.to_bits()).collect();
        let pb: Vec<u64> = b.proximities().iter().map(|p| p.to_bits()).collect();
        assert_eq!(pa, pb, "{label} s={shards} query#{i}: proximity bits differ");
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.candidates, sb.candidates, "{label} s={shards} query#{i}");
        assert_eq!(sa.hits, sb.hits, "{label} s={shards} query#{i}");
        assert_eq!(
            sa.pruned_by_lower_bound, sb.pruned_by_lower_bound,
            "{label} s={shards} query#{i}"
        );
        assert_eq!(sa.refined_nodes, sb.refined_nodes, "{label} s={shards} query#{i}");
        assert_eq!(sa.refine_iterations, sb.refine_iterations, "{label} s={shards} query#{i}");
        assert_eq!(sa.exact_fallbacks, sb.exact_fallbacks, "{label} s={shards} query#{i}");
    }
    let n = unsharded.1.node_count();
    assert_eq!(n, sharded.1.node_count());
    for u in 0..n as u32 {
        assert_eq!(
            unsharded.1.state(u),
            sharded.1.state(u),
            "{label} s={shards}: post-query state of node {u} differs"
        );
    }
}

fn check_modes(label: &str, graph: &DiGraph, bound_mode: BoundMode) {
    let transition = TransitionMatrix::new(graph);
    let baseline = build_index(&transition, bound_mode, 1);
    assert_eq!(baseline.shard_count(), 1);
    for update in [false, true] {
        let reference = run_workload(&transition, &baseline, update, bound_mode);
        for shards in SHARD_COUNTS {
            // The sharded index must already be state-identical after build…
            let index = build_index(&transition, bound_mode, shards);
            assert_eq!(index.shard_count(), shards);
            for u in 0..graph.node_count() as u32 {
                assert_eq!(
                    baseline.state(u),
                    index.state(u),
                    "{label} s={shards}: built state of node {u} differs"
                );
            }
            // …and behave identically under the full query workload.
            let got = run_workload(&transition, &index, update, bound_mode);
            let mode =
                format!("{label} {:?} {}", bound_mode, if update { "update" } else { "frozen" });
            assert_equivalent(&mode, shards, &reference, &got);
        }
    }
}

#[test]
fn erdos_renyi_sharded_queries_match_unsharded() {
    for (label, graph) in test_graphs().iter().filter(|(l, _)| l.starts_with("er")) {
        check_modes(label, graph, BoundMode::PaperFaithful);
    }
}

#[test]
fn rmat_sharded_queries_match_unsharded() {
    for (label, graph) in test_graphs().iter().filter(|(l, _)| l.starts_with("rmat")) {
        check_modes(label, graph, BoundMode::PaperFaithful);
    }
}

#[test]
fn strict_mode_sharded_queries_match_unsharded() {
    for (label, graph) in strict_test_graphs() {
        check_modes(&label, &graph, BoundMode::Strict);
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
    let baseline = build_index(&transition, BoundMode::PaperFaithful, 1);
    let reference = run_workload(&transition, &baseline, true, BoundMode::PaperFaithful);
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
    for shards in [1].into_iter().chain(SHARD_COUNTS) {
        round_trip(&reference.1, shards);
        let loaded = round_trip(&baseline, shards);
        let got = run_workload(&transition, &loaded, true, BoundMode::PaperFaithful);
        assert_equivalent("manifest-round-trip", shards, &reference, &got);
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

    for shards in SHARD_COUNTS {
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

/// Degree-balanced repartitioning (the layout behind `rtk shard split
/// --balance edges`) is invisible to answers: an edge-balanced shard layout
/// behaves identically to the 1-shard baseline — results, stats, and the
/// post-query states.
#[test]
fn edge_balanced_repartition_matches_unsharded() {
    use rtk_index::ShardMap;
    let (label, graph) = &test_graphs()[2]; // one R-MAT instance is plenty
    let transition = TransitionMatrix::new(graph);
    let baseline = build_index(&transition, BoundMode::PaperFaithful, 1);
    let n = graph.node_count();
    let weights: Vec<u64> = (0..n as u32).map(|u| graph.out_neighbors(u).len() as u64).collect();
    for update in [false, true] {
        let reference = run_workload(&transition, &baseline, update, BoundMode::PaperFaithful);
        for shards in SHARD_COUNTS {
            let map = ShardMap::balanced(n, shards, &weights);
            let mut index = baseline.clone();
            index.repartition_by_map(map.clone());
            assert_eq!(index.shard_count(), shards);
            assert_eq!(index.shard_map(), &map);
            // A pure re-grouping: every state byte-identical after the move.
            for u in 0..n as u32 {
                assert_eq!(baseline.state(u), index.state(u), "{label} s={shards} node {u}");
            }
            let got = run_workload(&transition, &index, update, BoundMode::PaperFaithful);
            let mode = format!("{label} balanced {}", if update { "update" } else { "frozen" });
            assert_equivalent(&mode, shards, &reference, &got);
        }
    }
}
