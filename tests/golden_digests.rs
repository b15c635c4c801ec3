//! Golden digests of the persisted snapshot bytes across refactors: each
//! constant is FNV-1a 64 of the bytes `ReverseTopkEngine::save` writes for
//! the `canonical` engine, fresh and after the script — the `RTKMANI1`
//! version 2 snapshot, with the graph section and, for a one-shard engine,
//! that shard's section only. They were re-recorded once, when the graph
//! moved into the manifest, with a probe against the parent `01a3471`:
//! with its graph section and its absent (zero-length) shard sections
//! removed and its version set back to 1, every new whole-engine file is
//! byte-equal to that commit's `storage::save`, and every one-shard file
//! to that commit's `S = 3` manifest less the other sections, its section
//! byte-equal to that commit's `save_shard`. (Before, the values came from
//! `944fd1a` and `4805a27`, each checked against its parent the same way.)
//! The constants staying put proves the persisted bytes and the incremental
//! update recompute (`affected ∩ owned`, kept runs included) came through
//! every change since unchanged, for whole and one-shard engines; beside
//! each comparison the cached `index_digest()` is checked against the same
//! fold computed cold from the entries.
//!
//! Rounding is off (`ω = 0`): a rounded hub matrix persists an aggregate
//! nnz count an incremental recompute cannot reproduce. Build timings are
//! the only non-deterministic bytes of a snapshot; `canonical` zeroes them.

use rtk_core::ReverseTopkEngine;
use rtk_graph::{DiGraph, NodeId};
use rtk_index::storage;

/// `(is_add, from, to, weight)` — an add / add / remove / add script.
type Script = [(bool, u32, u32, f64); 4];

const TOY_SCRIPT: Script =
    [(true, 0, 2, 1.0), (true, 4, 0, 2.0), (false, 0, 2, 0.0), (true, 5, 5, 1.0)];
const RMAT_SCRIPT: Script =
    [(true, 3, 77, 1.0), (true, 40, 5, 2.5), (false, 3, 77, 0.0), (true, 12, 12, 1.0)];

/// `(fresh, after the script)` digests (provenance in the module docs).
struct Golden {
    whole_s1: (u64, u64),
    whole_s3: (u64, u64),
    one_of_3: [(u64, u64); 3],
}

const TOY: Golden = Golden {
    whole_s1: (0xf6a730b485605ddf, 0xc4fc991b367cb6ae),
    whole_s3: (0xc29aad710a304fbe, 0xbb7eedec2d844e7b),
    one_of_3: [
        (0x5cd1c4da6abf3cd7, 0x8e1536b85f7c7b9c),
        (0xb72aa5fc49d7f267, 0x2c7b194938cca350),
        (0xcb21dfff5f95b452, 0x0cf4f0267fd0477f),
    ],
};

const RMAT: Golden = Golden {
    whole_s1: (0x4b0e4805b4713e9a, 0x4703956ba1663d14),
    whole_s3: (0xc682974669e9de34, 0xdb8b67664f13c6b0),
    one_of_3: [
        (0x45e4aad10af65b09, 0x9f3781135c59e600),
        (0x6b12b886c5886800, 0x66f1398d59ffe584),
        (0x4b56d8f4aa78f809, 0x7264e304fcaa114c),
    ],
};

/// Builds the engine, then round-trips it through a snapshot whose four
/// build-timing fields (the first 32 of the 56 trailing stats bytes) are
/// zeroed, so the digest depends on nothing but the graph and config.
fn canonical(graph: &DiGraph, max_k: usize, hubs: usize, shards: usize) -> ReverseTopkEngine {
    let built = ReverseTopkEngine::builder(graph.clone())
        .max_k(max_k)
        .hubs_per_direction(hubs)
        .rounding_threshold(0.0)
        .threads(1)
        .shards(shards)
        .build()
        .unwrap();
    let mut bytes = Vec::new();
    built.save(&mut bytes).unwrap();
    let n = bytes.len();
    bytes[n - 56..n - 24].fill(0);
    ReverseTopkEngine::load(bytes.as_slice()).unwrap()
}

/// FNV-1a 64 of the bytes `engine` persists as, after checking that the
/// cached digest equals the fold recomputed from the entries.
fn persisted_digest(engine: &ReverseTopkEngine) -> u64 {
    assert_eq!(engine.index_digest(), storage::index_digest_cold(engine.index()));
    let mut bytes = Vec::new();
    engine.save(&mut bytes).unwrap();
    rtk_core::fnv1a64(&bytes)
}

fn digests(mut engine: ReverseTopkEngine, script: &Script) -> (u64, u64) {
    let fresh = persisted_digest(&engine);
    for &(add, from, to, weight) in script {
        if add {
            engine.add_edge(NodeId(from), NodeId(to), weight).unwrap();
        } else {
            engine.remove_edge(NodeId(from), NodeId(to)).unwrap();
        }
    }
    (fresh, persisted_digest(&engine))
}

fn check(name: &str, graph: DiGraph, max_k: usize, hubs: usize, script: &Script, want: &Golden) {
    let hex = |(a, b): (u64, u64)| format!("({a:#018x}, {b:#018x})");
    for (shards, golden) in [(1, want.whole_s1), (3, want.whole_s3)] {
        let got = digests(canonical(&graph, max_k, hubs, shards), script);
        assert_eq!(hex(got), hex(golden), "{name}: whole engine, S = {shards}");
    }
    let whole = canonical(&graph, max_k, hubs, 3);
    for (sid, &golden) in want.one_of_3.iter().enumerate() {
        let index = whole.index().one_shard(sid).unwrap();
        let engine = ReverseTopkEngine::from_parts(graph.clone(), index).unwrap();
        let got = digests(engine, script);
        assert_eq!(hex(got), hex(golden), "{name}: one-shard engine {sid} of 3");
    }
}

#[test]
fn toy_graph_digests_equal_the_two_engine_tree() {
    check("toy", rtk_datasets::toy_graph(), 3, 1, &TOY_SCRIPT, &TOY);
}

#[test]
fn rmat_digests_equal_the_two_engine_tree() {
    let graph = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(80, 320, 11)).unwrap();
    check("rmat", graph, 5, 4, &RMAT_SCRIPT, &RMAT);
}

#[test]
fn a_one_shard_load_hashes_like_the_in_memory_one_shard_index() {
    // `load_one_shard` (a `--shard-only` backend's start-up read) and
    // `one_shard` (tests, the benchmark) must hand out the same shard.
    let graph = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(80, 320, 11)).unwrap();
    let whole = canonical(&graph, 5, 4, 3);
    let mut manifest = Vec::new();
    whole.save(&mut manifest).unwrap();
    for (sid, &(fresh, _)) in RMAT.one_of_3.iter().enumerate() {
        let (graph, index) = storage::load_one_shard(manifest.as_slice(), sid).unwrap();
        let engine = ReverseTopkEngine::from_parts(graph, index).unwrap();
        assert_eq!(persisted_digest(&engine), fresh, "shard {sid}");
    }
}
