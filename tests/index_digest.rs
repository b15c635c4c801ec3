//! The cached index digest against the same fold computed cold.
//!
//! `index_digest()` folds per-record hashes that are cached beside the
//! records: filled by whoever produced or first hashed a record, dropped by
//! whatever replaces one. Through every way an engine's index can change —
//! build, edge add / remove (kept runs and re-runs), update-mode commits,
//! reshard, `one_shard`, save + load — the cached digest must equal
//! `storage::index_digest_cold` (no cache trusted), and it must move
//! whenever a state or a hub column does.

use reverse_topk_rwr::ReverseTopkEngine;
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::NodeId;
use rtk_index::storage;
use rtk_query::QueryOptions;

/// The cached digest, after checking it against the cold fold.
fn checked(engine: &ReverseTopkEngine, what: &str) -> u64 {
    let cached = engine.index_digest();
    assert_eq!(cached, storage::index_digest_cold(engine.index()), "{what}: cached vs cold");
    assert_eq!(cached, engine.index_digest(), "{what}: a second read");
    cached
}

fn update_mode() -> QueryOptions {
    QueryOptions { update_index: true, query_threads: 1, ..Default::default() }
}

/// Runs update-mode queries until one commits (the index bytes change).
fn commit_something(engine: &mut ReverseTopkEngine, shard_scoped: bool, from: u32) -> u32 {
    let n = engine.node_count() as u32;
    for q in (from..n).chain(0..from) {
        let before = engine.index().clone();
        if shard_scoped {
            engine.query_shard(NodeId(q), 4, &update_mode(), None).unwrap();
        } else {
            engine.query_with(NodeId(q), 4, &update_mode()).unwrap();
        }
        let owned = engine.index().owned_range();
        if owned.clone().any(|u| engine.index().state(u) != before.state(u)) {
            return q;
        }
    }
    panic!("test premise: some update-mode query refines a held state");
}

#[test]
fn cached_digest_equals_the_cold_fold_through_every_kind_of_change() {
    let graph = rmat(&RmatConfig::new(90, 420, 5)).unwrap();
    for shards in [1usize, 3] {
        let mut engine = ReverseTopkEngine::builder(graph.clone())
            .max_k(5)
            .hubs_per_direction(4)
            .threads(2)
            .shards(shards)
            .build()
            .unwrap();
        let mut seen = vec![checked(&engine, "fresh build")];
        let mut moved = |engine: &ReverseTopkEngine, what: &str| {
            let digest = checked(engine, what);
            assert!(!seen.contains(&digest), "S={shards} {what}: the digest did not move");
            seen.push(digest);
        };

        engine.add_edge(NodeId(3), NodeId(77), 1.0).unwrap();
        moved(&engine, "add 3→77");
        let q = commit_something(&mut engine, false, 0);
        moved(&engine, "update-mode commit");
        // A hub-tailed edit keeps every run that is still as built and
        // re-runs the states the commit touched.
        let hub = engine.index().hub_matrix().hubs().ids()[0];
        engine.add_edge(NodeId(hub), NodeId(40), 0.5).unwrap();
        moved(&engine, "add hub→40");
        commit_something(&mut engine, false, q + 1);
        moved(&engine, "second commit");
        engine.remove_edge(NodeId(3), NodeId(77)).unwrap();
        moved(&engine, "remove 3→77");

        // Layout changes and round trips keep the bytes of every record;
        // the caches start cold and must refill to the same fold.
        let mut bytes = Vec::new();
        engine.save(&mut bytes).unwrap();
        let loaded = ReverseTopkEngine::load(bytes.as_slice()).unwrap();
        assert_eq!(checked(&loaded, "save + load"), *seen.last().unwrap());
        let mut resharded = loaded;
        resharded.reshard(2);
        checked(&resharded, "reshard(2)");
        resharded.reshard(shards);
        assert_eq!(checked(&resharded, "reshard back"), *seen.last().unwrap());

        // One-shard engines: the clone keeps the caches, a load starts cold,
        // and an update plus a shard-scoped commit move each the same way.
        resharded.reshard(3);
        let mut snapshot = Vec::new();
        resharded.save(&mut snapshot).unwrap();
        for sid in 0..3 {
            let warm = resharded.index().one_shard(sid).unwrap();
            let (graph, cold) = storage::load_one_shard(snapshot.as_slice(), sid).unwrap();
            let mut warm = ReverseTopkEngine::from_parts(resharded.graph().clone(), warm).unwrap();
            let mut cold = ReverseTopkEngine::from_parts(graph, cold).unwrap();
            let before = checked(&warm, "one_shard");
            assert_eq!(before, checked(&cold, "load_one_shard"), "shard {sid}");
            for part in [&mut warm, &mut cold] {
                part.add_edge(NodeId(11), NodeId(12), 2.0).unwrap();
                commit_something(part, true, 7);
            }
            let after = checked(&warm, "one-shard engine after an update and a commit");
            assert_eq!(after, checked(&cold, "loaded one-shard engine, same steps"));
            assert_ne!(after, before, "shard {sid}");
            for part in [&mut warm, &mut cold] {
                part.remove_edge(NodeId(11), NodeId(12)).unwrap();
            }
            assert_eq!(checked(&warm, "edit undone"), checked(&cold, "edit undone, loaded"));
        }
    }
}
