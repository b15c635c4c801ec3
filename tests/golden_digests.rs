//! Golden digests of the persisted index bytes across refactors.
//!
//! The `whole_s3` and `one_of_3` values were recorded with the two-engine
//! tree (commit `944fd1a`: `ReverseTopkEngine` for the whole index, a
//! separate engine type for one shard) *before* the two were folded into
//! one, when `index_digest()` was FNV-1a 64 of exactly the bytes an engine
//! persists — the `RTKMANI1` snapshot for a whole index, the `RTKSHRD1`
//! section for one shard. The `whole_s1` values were re-recorded once, in
//! PR 26, when the one-shard snapshot became a manifest too: each is FNV-1a
//! 64 of the manifest the parent commit (`4805a27`) wrote for the same
//! `canonical` engine through its explicit manifest writer, fresh and after
//! the script. `index_digest()` has
//! since become a fold over cached per-record hashes, so this test hashes
//! the persisted bytes itself (`persisted_digest`): the constants staying
//! put proves the persisted bytes and the incremental update recompute
//! (`affected ∩ owned`, kept runs included) came through every change since
//! unchanged, for whole engines and for every one-shard engine. Beside each
//! comparison it checks the new digest against the same fold computed cold
//! from the entries.
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
    whole_s1: (0x613324d480bc8b5c, 0x5e34e0331e83b8ac),
    whole_s3: (0xe2d60158786cb419, 0xedb846fd18adf349),
    one_of_3: [
        (0x40f1466bb4324be0, 0x756ec64e9cb4a031),
        (0xfbef0a855f77e9e0, 0x5d0ad15f59b09db1),
        (0x82878e48c1bcb1b5, 0x3fd016728b522d4a),
    ],
};

const RMAT: Golden = Golden {
    whole_s1: (0x5334bb33654cc61e, 0x127b514b603d156a),
    whole_s3: (0x395a9b83e7b62ad0, 0xce1e1b18078c1f22),
    one_of_3: [
        (0xbbf4e1489778a868, 0xd3b0bae80f674e0b),
        (0xdd09c8cbdd7188d1, 0x4fbb912ef25f776c),
        (0x3274caa4eaae191e, 0x1949f91906523a25),
    ],
};

/// Builds the engine, then round-trips its index through a snapshot whose
/// four build-timing fields (the first 32 of the 56 trailing stats bytes)
/// are zeroed, so the digest depends on nothing but the graph and config.
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
    storage::save(built.index(), &mut bytes).unwrap();
    let n = bytes.len();
    bytes[n - 56..n - 24].fill(0);
    let index = storage::load(bytes.as_slice()).unwrap();
    ReverseTopkEngine::from_parts(graph.clone(), index).unwrap()
}

/// FNV-1a 64 of the bytes `engine` persists as (what `index_digest()` was
/// when the constants were recorded), after checking that the cached digest
/// equals the fold recomputed from the entries.
fn persisted_digest(engine: &ReverseTopkEngine) -> u64 {
    assert_eq!(engine.index_digest(), storage::index_digest_cold(engine.index()));
    let index = engine.index();
    let mut bytes = Vec::new();
    match index.owned_shard() {
        None => storage::save(index, &mut bytes).unwrap(),
        Some(_) => {
            storage::save_shard(&index.shards()[0], index.node_count(), index.max_k(), &mut bytes)
                .unwrap()
        }
    }
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
    storage::save(whole.index(), &mut manifest).unwrap();
    for (sid, &(fresh, _)) in RMAT.one_of_3.iter().enumerate() {
        let index = storage::load_one_shard(manifest.as_slice(), sid).unwrap();
        let engine = ReverseTopkEngine::from_parts(graph.clone(), index).unwrap();
        assert_eq!(persisted_digest(&engine), fresh, "shard {sid}");
    }
}
