//! Persistence integration: engines, indexes and graphs survive disk
//! round-trips and keep answering queries identically — including indexes
//! that were refined by a query workload before saving, and one-shard
//! backends stitched back together after edge updates.

use reverse_topk_rwr::prelude::*;
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::TransitionMatrix;
use rtk_index::{HubSelection, IndexError, ReverseIndex, UpdateRecord};
use rtk_query::{QueryEngine, QueryOptions};
use rtk_sparse::codec::DecodeError;

fn sample_graph() -> DiGraph {
    rmat(&RmatConfig::new(150, 600, 77)).unwrap()
}

fn sample_config() -> IndexConfig {
    IndexConfig {
        max_k: 8,
        hub_selection: HubSelection::DegreeBased { b: 6 },
        threads: 2,
        ..Default::default()
    }
}

#[test]
fn refined_index_round_trips_with_its_refinements() {
    let graph = sample_graph();
    let transition = TransitionMatrix::new(&graph);
    let mut index = ReverseIndex::build(&transition, sample_config()).unwrap();
    let mut session = QueryEngine::new(&index);

    // Refine the index with a workload.
    let mut results = Vec::new();
    for q in (0..150u32).step_by(11) {
        results
            .push(session.query(&transition, &mut index, q, 8, &QueryOptions::default()).unwrap());
    }

    // Persist and reload.
    let mut buf = Vec::new();
    rtk_index::storage::save(&graph, &index, &mut buf).unwrap();
    let (_, mut loaded) = rtk_index::storage::load(std::io::Cursor::new(buf)).unwrap();

    // The loaded index must answer every query identically and must have
    // kept the refinement (no extra refinement iterations needed compared to
    // the in-memory index).
    let mut session2 = QueryEngine::new(&loaded);
    for (i, q) in (0..150u32).step_by(11).enumerate() {
        let again = session2
            .query(&transition, &mut loaded, q, 8, &QueryOptions::default())
            .unwrap();
        assert_eq!(again.nodes(), results[i].nodes(), "q={q}");
    }
}

#[test]
fn engine_snapshot_round_trips_through_a_file() {
    let mut engine = ReverseTopkEngine::builder(sample_graph())
        .max_k(8)
        .hubs_per_direction(6)
        .threads(2)
        .build()
        .unwrap();
    let before: Vec<_> = (0..5u32).map(|q| engine.query(NodeId(q * 7), 5).unwrap()).collect();

    let dir = std::env::temp_dir().join("rtk_persistence_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.rtke");
    engine.save_path(&path).unwrap();

    let mut loaded = ReverseTopkEngine::load_path(&path).unwrap();
    assert_eq!(loaded.node_count(), engine.node_count());
    for (i, q) in (0..5u32).map(|q| q * 7).enumerate() {
        let after = loaded.query(NodeId(q), 5).unwrap();
        assert_eq!(after.nodes(), before[i].nodes(), "q={q}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_engine_snapshots_are_rejected() {
    let engine = ReverseTopkEngine::builder(sample_graph())
        .max_k(4)
        .hubs_per_direction(3)
        .threads(1)
        .shards(2)
        .build()
        .unwrap();
    let mut buf = Vec::new();
    engine.save(&mut buf).unwrap();

    // Bad magic.
    let mut bad = buf.clone();
    bad[0] = b'x';
    assert!(ReverseTopkEngine::load(std::io::Cursor::new(bad)).is_err());

    // Truncations at several depths.
    for cut in [4usize, 20, buf.len() / 2, buf.len() - 5] {
        let mut bad = buf.clone();
        bad.truncate(cut);
        assert!(
            ReverseTopkEngine::load(std::io::Cursor::new(bad)).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // A cut inside the last shard section (the 56 stats bytes follow it) is
    // an index decode error naming that shard.
    let cut = &buf[..buf.len() - 56 - 10];
    match ReverseTopkEngine::load(cut) {
        Err(EngineError::Index(IndexError::Decode(DecodeError::Corrupt(m)))) => {
            assert!(m.starts_with("shard 1: "), "{m}")
        }
        other => panic!("expected a shard 1 decode error, got {:?}", other.err()),
    }
}

/// The router-tier persist path after edge updates: two one-shard backends
/// of an `S = 2`, `ω = 0` engine apply the same add/remove script as a
/// whole engine, persist their snapshots, and `stitch` re-assembles them.
/// Each backend's file carries its updated graph and `P_H`, so the stitched
/// snapshot must equal the live whole engine: graph, every hub and node
/// record, and every node's reverse top-k answer to the proximity bit.
#[test]
fn stitched_backend_persists_equal_the_live_engine_after_updates() {
    let mut whole = ReverseTopkEngine::builder(rmat(&RmatConfig::new(56, 220, 9)).unwrap())
        .max_k(6)
        .hubs_per_direction(3)
        .rounding_threshold(0.0)
        .threads(1)
        .shards(2)
        .build()
        .unwrap();
    let script = [
        UpdateRecord::AddEdge { from: 1, to: 22, weight: 1.0 },
        UpdateRecord::AddEdge { from: 40, to: 3, weight: 2.5 },
        UpdateRecord::RemoveEdge { from: 1, to: 22 },
        UpdateRecord::AddEdge { from: 7, to: 30, weight: 1.0 },
    ];
    let persist = |sid: usize, updates: &[UpdateRecord]| {
        let index = whole.index().one_shard(sid).unwrap();
        let mut backend = ReverseTopkEngine::from_parts(whole.graph().clone(), index).unwrap();
        backend.replay_updates(updates).unwrap();
        let mut bytes = Vec::new();
        backend.save(&mut bytes).unwrap();
        bytes
    };
    let (files, stale) = ([persist(0, &script), persist(1, &script)], persist(1, &[]));
    whole.replay_updates(&script).unwrap();

    // A backend that missed the updates holds another graph and `P_H`.
    let err = rtk_index::storage::stitch(vec![&files[0][..], &stale[..]]).err().unwrap();
    assert!(err.to_string().contains("disagrees"), "{err}");
    let (graph, index) = rtk_index::storage::stitch(vec![&files[0][..], &files[1][..]]).unwrap();
    let stitched = ReverseTopkEngine::from_parts(graph, index).unwrap();
    assert_eq!(stitched.graph(), whole.graph());
    assert_eq!(stitched.index().hub_matrix(), whole.index().hub_matrix());
    let queries: Vec<(NodeId, usize)> = (0..56).map(|q| (NodeId(q), 4)).collect();
    let options = QueryOptions::default();
    let live = whole.query_batch(&queries, &options).unwrap();
    let back = stitched.query_batch(&queries, &options).unwrap();
    for (q, (a, b)) in live.iter().zip(&back).enumerate() {
        assert_eq!(stitched.index().state(q as u32), whole.index().state(q as u32), "node {q}");
        assert_eq!(a.nodes(), b.nodes(), "q = {q}");
        let bits = |r: &rtk_query::QueryResult| -> Vec<u64> {
            r.proximities().iter().map(|p| p.to_bits()).collect()
        };
        assert_eq!(bits(a), bits(b), "q = {q}");
    }
}

#[test]
fn graph_files_round_trip_through_facade_types() {
    let graph = sample_graph();
    let dir = std::env::temp_dir().join("rtk_persistence_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.rtkg");
    rtk_graph::io::write_binary_path(&graph, &path).unwrap();
    let back = rtk_graph::io::read_binary_path(&path).unwrap();
    assert_eq!(back, graph);
    std::fs::remove_file(&path).ok();
}
