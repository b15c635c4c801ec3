//! Property tests for the index snapshot format (the `RTKMANI1` manifest,
//! one shard included) and the per-shard sections (`RTKSHRD1`), in the
//! style of `crates/sparse/tests/codec_props.rs`: arbitrary indexes must
//! round-trip for arbitrary shard partitions, and every truncation / byte
//! corruption must surface as a clean error — never a panic, never a
//! silently wrong index.
//!
//! Driven by seeded `StdRng` case generation — failures reproduce from the
//! printed case seed.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_graph::gen::{erdos_renyi, ErdosRenyiConfig};
use rtk_graph::TransitionMatrix;
use rtk_index::{storage, HubSelection, IndexConfig, IndexError, ReverseIndex};
use rtk_sparse::codec::DecodeError;
use std::io::Cursor;

const CASES: u64 = 12;

/// A small random index with a random shard partition.
fn arb_index(rng: &mut StdRng) -> ReverseIndex {
    let nodes = rng.gen_range(8usize..40);
    let edges = nodes * rng.gen_range(3usize..6);
    let g = erdos_renyi(&ErdosRenyiConfig { nodes, edges, seed: rng.gen() }).unwrap();
    let t = TransitionMatrix::new(&g);
    let config = IndexConfig {
        max_k: rng.gen_range(2usize..6),
        hub_selection: HubSelection::DegreeBased { b: rng.gen_range(1usize..4) },
        rounding_threshold: if rng.gen_bool(0.5) { 1e-6 } else { 0.0 },
        threads: 1,
        shards: rng.gen_range(1usize..9),
        ..Default::default()
    };
    ReverseIndex::build(&t, config).unwrap()
}

/// `index` and its one-shard layout: the whole-file properties run on
/// both, so `S = 1` is covered whatever shard count the seed drew.
fn with_one_shard(index: ReverseIndex) -> [ReverseIndex; 2] {
    let mut one = index.clone();
    one.repartition(1);
    [index, one]
}

fn assert_same(a: &ReverseIndex, b: &ReverseIndex, context: &str) {
    assert_eq!(a.node_count(), b.node_count(), "{context}");
    assert_eq!(a.max_k(), b.max_k(), "{context}");
    assert_eq!(a.shard_count(), b.shard_count(), "{context}");
    assert_eq!(a.shard_map(), b.shard_map(), "{context}");
    for u in 0..a.node_count() as u32 {
        assert_eq!(a.state(u), b.state(u), "{context}: node {u}");
    }
}

#[test]
fn manifests_round_trip_for_arbitrary_indexes_and_partitions() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5AAD_0001 + case);
        let index = arb_index(&mut rng);
        let mut buf = Vec::new();
        storage::save(&index, &mut buf).unwrap();
        assert_eq!(&buf[..8], storage::MANIFEST_MAGIC, "case {case}");
        let back = storage::load(Cursor::new(buf)).unwrap();
        assert_same(&index, &back, &format!("case {case}"));

        // Repartitioning and saving again still round-trips.
        let mut repartitioned = index.clone();
        repartitioned.repartition(rng.gen_range(1usize..12));
        let mut buf2 = Vec::new();
        storage::save(&repartitioned, &mut buf2).unwrap();
        let back2 = storage::load(Cursor::new(buf2)).unwrap();
        assert_same(&repartitioned, &back2, &format!("case {case} (repartitioned)"));
    }
}

#[test]
fn shard_sections_round_trip_independently() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5AAD_1000 + case);
        let index = arb_index(&mut rng);
        for shard in index.shards() {
            let mut buf = Vec::new();
            storage::save_shard(shard, index.node_count(), index.max_k(), &mut buf).unwrap();
            let back = storage::load_shard(
                Cursor::new(buf),
                index.hub_matrix(),
                index.node_count(),
                index.max_k(),
            )
            .unwrap();
            assert_eq!(back.id(), shard.id(), "case {case}");
            assert_eq!(back.range(), shard.range(), "case {case}");
            assert_eq!(back.states(), shard.states(), "case {case}");
        }
    }
}

#[test]
fn truncation_at_every_prefix_errors_cleanly() {
    // One representative manifest, every strict prefix: must error, never
    // panic, never decode.
    let mut rng = StdRng::seed_from_u64(0x5AAD_2000);
    for index in with_one_shard(arb_index(&mut rng)) {
        let s = index.shard_count();
        let mut buf = Vec::new();
        storage::save(&index, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                storage::load(Cursor::new(&buf[..cut])).is_err(),
                "S = {s}: prefix {cut}/{} decoded as a full manifest",
                buf.len()
            );
            // The one-shard load (a `--shard-only` backend's start-up read)
            // runs the same reader: no prefix may satisfy it either.
            for sid in 0..s {
                assert!(
                    storage::load_one_shard(Cursor::new(&buf[..cut]), sid).is_err(),
                    "S = {s}: prefix {cut}/{} decoded as shard {sid} of a manifest",
                    buf.len()
                );
            }
        }
    }
}

#[test]
fn random_single_byte_corruption_never_panics() {
    // Flip one random byte per trial. The loader may legitimately succeed
    // (timings and values are arbitrary bytes), but it must never panic,
    // and any index it does produce must be structurally sound.
    let mut rng = StdRng::seed_from_u64(0x5AAD_3000);
    for index in with_one_shard(arb_index(&mut rng)) {
        let s = index.shard_count();
        let mut buf = Vec::new();
        storage::save(&index, &mut buf).unwrap();
        for trial in 0..256 {
            let pos = rng.gen_range(0..buf.len());
            let bit = 1u8 << rng.gen_range(0..8);
            let mut bad = buf.clone();
            bad[pos] ^= bit;
            let at = format!("S = {s}, trial {trial} (flip at {pos})");
            if let Ok(loaded) = storage::load(Cursor::new(&bad)) {
                assert_eq!(loaded.node_count(), index.node_count(), "{at}");
                let covered: usize = loaded.shards().iter().map(|s| s.len()).sum();
                assert_eq!(covered, loaded.node_count(), "{at}");
                for u in 0..loaded.node_count() as u32 {
                    let _ = loaded.state(u); // resolvable through the shard map
                }
            }
            // Same bytes through the one-shard load, for every shard id (a
            // flipped shard count may put some ids out of range — an error).
            for sid in 0..s {
                if let Ok(one) = storage::load_one_shard(Cursor::new(&bad), sid) {
                    assert_eq!(one.owned_shard(), Some(sid), "{at}");
                    assert_eq!(one.node_count(), index.node_count(), "{at}");
                    let owned = one.owned_range();
                    assert_eq!(owned, one.shard_map().range(sid), "{at}");
                    assert_eq!(one.iter_states().count(), owned.len());
                    for u in owned {
                        let _ = one.state(u);
                    }
                }
            }
        }
    }
}

#[test]
fn pre_manifest_snapshots_are_refused_by_their_magic() {
    // The retired pre-sharding blob opened with the manifest's magic with
    // `INDX` in place of `MANI`. There is no importer: such a file must
    // fail on its first 8 bytes with a `BadMagic` naming both tags — no
    // panic, no partial decode.
    let mut rng = StdRng::seed_from_u64(0x5AAD_6000);
    for index in with_one_shard(arb_index(&mut rng)) {
        let mut bytes = Vec::new();
        storage::save(&index, &mut bytes).unwrap();
        bytes[3..7].copy_from_slice(b"INDX");
        let old_magic: [u8; 8] = bytes[..8].try_into().unwrap();
        let refused = |r: Result<ReverseIndex, IndexError>| match r {
            Err(IndexError::Decode(DecodeError::BadMagic { expected, found })) => {
                expected == *storage::MANIFEST_MAGIC && found == old_magic
            }
            _ => false,
        };
        let s = index.shard_count();
        assert!(refused(storage::load(Cursor::new(&bytes))), "S = {s}: load");
        for sid in 0..s {
            assert!(refused(storage::load_one_shard(Cursor::new(&bytes), sid)), "S = {s}: {sid}");
        }
    }
}

#[test]
fn corrupt_section_lengths_are_rejected_before_allocation() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5AAD_4000 + case);
        let index = arb_index(&mut rng);
        let mut buf = Vec::new();
        storage::save(&index, &mut buf).unwrap();

        // Corrupt the manifest's declared shard count — bytes 28..36
        // (after magic 8 + version 4 + node_count 8 + max_k 8) hold it.
        let mut bad = buf.clone();
        bad[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(storage::load(Cursor::new(&bad)).is_err(), "case {case}: absurd shard count");
        assert!(storage::load_one_shard(Cursor::new(&bad), 0).is_err(), "case {case}");

        // Declared node count far beyond the stream must fail fast too.
        let mut bad = buf.clone();
        bad[12..20].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(storage::load(Cursor::new(&bad)).is_err(), "case {case}: absurd node count");
        assert!(storage::load_one_shard(Cursor::new(&bad), 0).is_err(), "case {case}");
    }
}

#[test]
fn shard_sections_reject_wrong_manifest_context() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_5000);
    let index = arb_index(&mut rng);
    let shard = &index.shards()[0];
    let mut buf = Vec::new();
    storage::save_shard(shard, index.node_count(), index.max_k(), &mut buf).unwrap();

    // A section loaded against a different node count or max_k is corrupt.
    assert!(storage::load_shard(
        Cursor::new(buf.clone()),
        index.hub_matrix(),
        index.node_count() + 1,
        index.max_k(),
    )
    .is_err());
    assert!(storage::load_shard(
        Cursor::new(buf),
        index.hub_matrix(),
        index.node_count(),
        index.max_k() + 1,
    )
    .is_err());
}

#[test]
fn non_positive_hub_column_values_are_refused() {
    // The in-memory hub panel reads 0.0 as "no entry", and Prop. 1's lower
    // bound needs every stored entry positive: a column value of 0.0 or
    // below is corruption on every load path, named by its hub.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5AAD_7000 + case);
        for index in with_one_shard(arb_index(&mut rng)) {
            let (s, hubs) = (index.shard_count(), index.hub_matrix().hub_count());
            assert!(hubs > 0, "case {case}: test premise: a hub column to corrupt");
            let mut buf = Vec::new();
            storage::save(&index, &mut buf).unwrap();
            // After the 72-byte prelude and the shard-start and hub-id
            // `u32seq`s, the first hub record opens with its index `u32seq`,
            // then its value `f64seq`.
            let record = 72 + (8 + 4 * s) + (8 + 4 * hubs);
            let nnz = u64::from_le_bytes(buf[record..record + 8].try_into().unwrap()) as usize;
            let value = record + (8 + 4 * nnz) + 8 + 8 * rng.gen_range(0..nnz);
            for bad_value in [0.0f64, -1e-3] {
                let mut bad = buf.clone();
                bad[value..value + 8].copy_from_slice(&bad_value.to_le_bytes());
                let refused = |r: Result<ReverseIndex, IndexError>| match r {
                    Err(IndexError::Decode(DecodeError::Corrupt(m))) => {
                        m.starts_with("hub ") && m.ends_with("is not positive")
                    }
                    _ => false,
                };
                let at = format!("case {case}, S = {s}, value {bad_value}");
                assert!(refused(storage::load(Cursor::new(&bad))), "{at}: load");
                for sid in 0..s {
                    assert!(
                        refused(storage::load_one_shard(Cursor::new(&bad), sid)),
                        "{at}: {sid}"
                    );
                }
            }
        }
    }
}
