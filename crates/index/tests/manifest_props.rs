//! Property tests for the snapshot format (the `RTKMANI1` manifest: a graph
//! section, `P_H`, and one `RTKSHRD1` section per shard, of which a
//! one-shard file holds one), in the style of
//! `crates/sparse/tests/codec_props.rs`: arbitrary indexes must round-trip
//! for arbitrary shard partitions, whole or one shard, and every
//! truncation / byte corruption must surface as a clean error — never a
//! panic, never a silently wrong index.
//!
//! Driven by seeded `StdRng` case generation — failures reproduce from the
//! printed case seed.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_graph::gen::{erdos_renyi, ErdosRenyiConfig};
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_index::{storage, HubSelection, IndexConfig, IndexError, ReverseIndex};
use rtk_sparse::codec::DecodeError;
use std::io::Cursor;
use std::ops::Range;

const CASES: u64 = 12;

type Loaded = Result<(DiGraph, ReverseIndex), IndexError>;

/// A small random graph and its index with a random shard partition.
fn arb_index(rng: &mut StdRng) -> (DiGraph, ReverseIndex) {
    let nodes = rng.gen_range(8usize..40);
    let edges = nodes * rng.gen_range(3usize..6);
    let g = erdos_renyi(&ErdosRenyiConfig { nodes, edges, seed: rng.gen() }).unwrap();
    let t = TransitionMatrix::new(&g);
    let config = IndexConfig {
        max_k: rng.gen_range(2usize..6),
        hub_selection: HubSelection::DegreeBased { b: rng.gen_range(1usize..4) },
        rounding_threshold: if rng.gen_bool(0.5) { 1e-6 } else { 0.0 },
        threads: 1,
        ..Default::default()
    };
    let mut index = ReverseIndex::build(&t, config).unwrap();
    index.repartition(rng.gen_range(1usize..9));
    (g, index)
}

/// `index` and its one-shard layout: the whole-file properties run on
/// both, so `S = 1` is covered whatever shard count the seed drew.
fn with_one_shard(index: ReverseIndex) -> [ReverseIndex; 2] {
    let mut one = index.clone();
    one.repartition(1);
    [index, one]
}

fn saved(g: &DiGraph, index: &ReverseIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    storage::save(g, index, &mut buf).unwrap();
    buf
}

fn assert_same(a: &ReverseIndex, b: &ReverseIndex, context: &str) {
    assert_eq!(a.node_count(), b.node_count(), "{context}");
    assert_eq!(a.max_k(), b.max_k(), "{context}");
    assert_eq!(a.shard_count(), b.shard_count(), "{context}");
    assert_eq!(a.shard_map(), b.shard_map(), "{context}");
    // A one-shard index of `S = 1` holds every shard: it loads back whole.
    assert_eq!(a.owned_range(), b.owned_range(), "{context}");
    for u in a.owned_range() {
        assert_eq!(a.state(u), b.state(u), "{context}: node {u}");
    }
}

fn u64_at(buf: &[u8], at: usize) -> usize {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize
}

/// The bodies of a snapshot's graph section and of every shard section it
/// holds, in file order: a shard section opens with its magic, and each
/// section's length prefix is the 8 bytes before its body. The index
/// prelude (node count, `max_k`, shard count, …) follows the graph.
fn sections(buf: &[u8]) -> Vec<Range<usize>> {
    let graph = 20..20 + u64_at(buf, 12);
    let shards = (graph.end..buf.len() - 8).filter(|&i| &buf[i..i + 8] == storage::SHARD_MAGIC);
    std::iter::once(graph)
        .chain(shards.map(|i| i..i + u64_at(buf, i - 8)))
        .collect()
}

#[test]
fn manifests_round_trip_for_arbitrary_indexes_and_partitions() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5AAD_0001 + case);
        let (g, index) = arb_index(&mut rng);
        let buf = saved(&g, &index);
        let (graph, back) = storage::load(Cursor::new(&buf)).unwrap();
        assert_eq!(graph, g, "case {case}");
        assert_same(&index, &back, &format!("case {case}"));
        assert_eq!(saved(&graph, &back), buf, "case {case}: save → load → save");

        // Repartitioning and saving again still round-trips.
        let mut repartitioned = index.clone();
        repartitioned.repartition(rng.gen_range(1usize..12));
        let buf2 = saved(&g, &repartitioned);
        let (_, back2) = storage::load(Cursor::new(buf2)).unwrap();
        assert_same(&repartitioned, &back2, &format!("case {case} (repartitioned)"));
    }
}

#[test]
fn shard_sections_round_trip_independently() {
    // Every one-shard index saves a file holding graph, `P_H`, the shard
    // map and its own section; it loads back as itself, re-saves to the
    // same bytes, and holds what the whole file's one-shard load holds.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5AAD_1000 + case);
        let (g, index) = arb_index(&mut rng);
        let whole = saved(&g, &index);
        for sid in 0..index.shard_count() {
            let one = index.one_shard(sid).unwrap();
            let buf = saved(&g, &one);
            let at = format!("case {case}, shard {sid}");
            let held = &sections(&buf)[1..];
            assert_eq!((held.len(), u64_at(&buf, held[0].start + 12)), (1, sid), "{at}");
            let (graph, back) = storage::load(Cursor::new(&buf)).unwrap();
            assert_eq!(graph, g, "{at}");
            assert_same(&one, &back, &at);
            assert_eq!(saved(&graph, &back), buf, "{at}: save → load → save");
            let (_, sliced) = storage::load_one_shard(Cursor::new(&whole), sid).unwrap();
            assert_eq!(saved(&g, &sliced), buf, "{at}: load_one_shard of the whole file");
        }
    }
}

#[test]
fn truncation_at_every_prefix_errors_cleanly() {
    // One representative manifest, every strict prefix — graph section
    // included: must error, never panic, never decode.
    let mut rng = StdRng::seed_from_u64(0x5AAD_2000);
    let (g, index) = arb_index(&mut rng);
    for index in with_one_shard(index) {
        let s = index.shard_count();
        let buf = saved(&g, &index);
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
    // Flip one random byte per trial, graph section included. The loader
    // may legitimately succeed (timings, weights and values are arbitrary
    // bytes), but it must never panic, and any index it does produce must
    // be structurally sound.
    let mut rng = StdRng::seed_from_u64(0x5AAD_3000);
    let (g, index) = arb_index(&mut rng);
    for index in with_one_shard(index) {
        let s = index.shard_count();
        let buf = saved(&g, &index);
        for trial in 0..256 {
            let pos = rng.gen_range(0..buf.len());
            let bit = 1u8 << rng.gen_range(0..8);
            let mut bad = buf.clone();
            bad[pos] ^= bit;
            let at = format!("S = {s}, trial {trial} (flip at {pos})");
            if let Ok((graph, loaded)) = storage::load(Cursor::new(&bad)) {
                assert_eq!(graph.node_count(), loaded.node_count(), "{at}");
                assert_eq!(loaded.node_count(), index.node_count(), "{at}");
                let covered: usize = loaded.held_shards().map(|(_, r, _)| r.len()).sum();
                assert_eq!(covered, loaded.owned_range().len(), "{at}");
                for u in loaded.owned_range() {
                    let _ = loaded.state(u); // resolvable through the shard map
                }
            }
            // Same bytes through the one-shard load, for every shard id (a
            // flipped shard count may put some ids out of range — an error).
            for sid in 0..s {
                if let Ok((_, one)) = storage::load_one_shard(Cursor::new(&bad), sid) {
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
    // Retired layouts have no importer: the pre-sharding blob (`INDX` in
    // place of `MANI`) and the graph + index container (`RTKENGN1`) fail on
    // their first 8 bytes with a `BadMagic` naming both tags, and a version
    // 1 manifest (no graph section) on its version — no panic, no partial
    // decode.
    let mut rng = StdRng::seed_from_u64(0x5AAD_6000);
    let (g, index) = arb_index(&mut rng);
    for index in with_one_shard(index) {
        let s = index.shard_count();
        let bytes = saved(&g, &index);
        for (at, patch, reason) in [
            (0, &b"RTKINDX1"[..], r#"bad magic: expected "RTKMANI1", found "RTKINDX1""#),
            (0, b"RTKENGN1", r#"bad magic: expected "RTKMANI1", found "RTKENGN1""#),
            (8, &1u32.to_le_bytes(), "unsupported format version 1 (max supported 2)"),
        ] {
            let mut bad = bytes.clone();
            bad[at..at + patch.len()].copy_from_slice(patch);
            let refused =
                |r: Loaded| r.is_err_and(|e| e.to_string() == format!("decode error: {reason}"));
            assert!(refused(storage::load(Cursor::new(&bad))), "S = {s}: {reason}");
            for sid in 0..s {
                let one = storage::load_one_shard(Cursor::new(&bad), sid);
                assert!(refused(one), "S = {s}, shard {sid}: {reason}");
            }
        }
    }
}

#[test]
fn corrupt_section_lengths_are_rejected_before_allocation() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5AAD_4000 + case);
        let (g, index) = arb_index(&mut rng);
        let buf = saved(&g, &index);
        let (prelude, shard0) = (sections(&buf)[0].end, sections(&buf)[1].start);
        let refused = |bad: &[u8], what: &str| {
            assert!(storage::load(Cursor::new(bad)).is_err(), "case {case}: {what}");
            assert!(storage::load_one_shard(Cursor::new(bad), 0).is_err(), "case {case}: {what}");
        };

        // The manifest's declared shard count (after node_count and max_k).
        let mut bad = buf.clone();
        bad[prelude + 16..prelude + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        refused(&bad, "absurd shard count");

        // Declared node count far beyond the stream must fail fast too.
        let mut bad = buf.clone();
        bad[prelude..prelude + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        refused(&bad, "absurd node count");

        // A shard section declared longer than any plausible file.
        let mut bad = buf.clone();
        bad[shard0 - 8..shard0].copy_from_slice(&u64::MAX.to_le_bytes());
        refused(&bad, "absurd shard section");

        // A header and a graph section declared huge, with no body.
        for len in [1u64 << 32, 1 << 39, 1 << 40, 1 << 63] {
            let mut bad = buf[..12].to_vec();
            bad.extend_from_slice(&len.to_le_bytes());
            refused(&bad, &format!("graph section of {len} bytes"));
        }
    }
}

#[test]
fn section_trailing_bytes_are_refused() {
    // A section whose length prefix covers junk after its payload must be
    // refused, whichever section it is: the decoders read straight from the
    // manifest's one reader, so the junk is left in the section's bound.
    for case in 0..4 {
        let mut rng = StdRng::seed_from_u64(0x5AAD_8000 + case);
        let (g, index) = arb_index(&mut rng);
        let buf = saved(&g, &index);
        for (i, body) in sections(&buf).into_iter().enumerate() {
            let what = if i == 0 { "graph section".into() } else { format!("shard {}", i - 1) };
            let mut bad = buf[..body.start].to_vec();
            let len = (body.len() + 3) as u64;
            bad[body.start - 8..].copy_from_slice(&len.to_le_bytes());
            bad.extend_from_slice(&buf[body.clone()]);
            bad.extend_from_slice(b"\x01\x02\x03");
            bad.extend_from_slice(&buf[body.end..]);
            match storage::load(Cursor::new(&bad)) {
                Err(IndexError::Decode(DecodeError::Corrupt(m))) => assert!(
                    m.starts_with(&format!("{what}: ")) && m.contains("3 trailing bytes"),
                    "case {case}, {what}: {m}"
                ),
                other => panic!("case {case}, {what}: expected trailing bytes, got {:?}", other),
            }
        }
    }
}

#[test]
fn shard_sections_reject_wrong_manifest_context() {
    // A shard section whose own header claims another node count or `max_k`
    // than its manifest is corrupt, in a whole file and in a one-shard one.
    let mut rng = StdRng::seed_from_u64(0x5AAD_5000);
    let (g, index) = arb_index(&mut rng);
    for buf in [saved(&g, &index), saved(&g, &index.one_shard(0).unwrap())] {
        let section = sections(&buf)[1].start;
        // Section header: magic + version 12, id, node_lo, len, n, K.
        for field in [12 + 24, 12 + 32] {
            let mut bad = buf.clone();
            bad[section + field] = bad[section + field].wrapping_add(1);
            match storage::load(Cursor::new(&bad)) {
                Err(IndexError::Decode(DecodeError::Corrupt(m))) => {
                    assert!(m.starts_with("shard 0: ") && m.contains("manifest says"), "{m}")
                }
                other => panic!("field {field}: expected corruption, got {:?}", other.map(|_| ())),
            }
        }
    }
}

#[test]
fn non_positive_hub_column_values_are_refused() {
    // The in-memory hub panel reads 0.0 as "no entry", and Prop. 1's lower
    // bound needs every stored entry positive: a column value of 0.0 or
    // below is corruption on every load path, named by its hub.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5AAD_7000 + case);
        let (g, index) = arb_index(&mut rng);
        for index in with_one_shard(index) {
            let (s, hubs) = (index.shard_count(), index.hub_matrix().hub_count());
            assert!(hubs > 0, "case {case}: test premise: a hub column to corrupt");
            let buf = saved(&g, &index);
            // After the 60-byte prelude and the shard-start and hub-id
            // `u32seq`s, the first hub record opens with its index `u32seq`,
            // then its value `f64seq`.
            let record = sections(&buf)[0].end + 60 + (8 + 4 * s) + (8 + 4 * hubs);
            let nnz = u64::from_le_bytes(buf[record..record + 8].try_into().unwrap()) as usize;
            let value = record + (8 + 4 * nnz) + 8 + 8 * rng.gen_range(0..nnz);
            for bad_value in [0.0f64, -1e-3] {
                let mut bad = buf.clone();
                bad[value..value + 8].copy_from_slice(&bad_value.to_le_bytes());
                let refused = |r: Loaded| match r {
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
