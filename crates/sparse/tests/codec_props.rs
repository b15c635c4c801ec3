//! Property tests for the binary codec: every primitive must round-trip for
//! arbitrary inputs, and every truncation / corruption must surface as a
//! `DecodeError`, never a panic or a bogus value.
//!
//! Driven by seeded `StdRng` case generation (the PR-1 offline replacement
//! for proptest) — failures reproduce from the printed case seed.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_sparse::codec::{self, DecodeError};
use rtk_sparse::SparseVector;
use std::io::Cursor;

const CASES: u64 = 64;

fn arb_f64(rng: &mut StdRng) -> f64 {
    // Mix magnitudes, signs, and exact binary fractions.
    let mag = 10f64.powi(rng.gen_range(-12i32..12));
    let v: f64 = rng.gen::<f64>() * mag;
    if rng.gen_bool(0.5) {
        -v
    } else {
        v
    }
}

fn arb_sparse(rng: &mut StdRng) -> SparseVector {
    let nnz = rng.gen_range(0usize..32);
    let mut indices: Vec<u32> = Vec::with_capacity(nnz);
    let mut next = 0u32;
    for _ in 0..nnz {
        next += rng.gen_range(1u32..50);
        indices.push(next);
    }
    let values: Vec<f64> = (0..nnz).map(|_| rng.gen::<f64>() + 1e-12).collect();
    SparseVector::from_parts(indices, values)
}

#[test]
fn scalars_round_trip_for_arbitrary_values() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DE_0001 + case);
        let a: u32 = rng.gen();
        let b: u64 = rng.gen();
        let c = arb_f64(&mut rng);
        let mut buf = Vec::new();
        codec::write_u32(&mut buf, a).unwrap();
        codec::write_u64(&mut buf, b).unwrap();
        codec::write_f64(&mut buf, c).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(codec::read_u32(&mut r).unwrap(), a, "case {case}");
        assert_eq!(codec::read_u64(&mut r).unwrap(), b, "case {case}");
        // Bitwise: the codec must preserve f64s exactly, including -0.0.
        assert_eq!(codec::read_f64(&mut r).unwrap().to_bits(), c.to_bits(), "case {case}");
    }
}

#[test]
fn sequences_round_trip_for_arbitrary_lengths() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DE_1000 + case);
        let us: Vec<u32> = (0..rng.gen_range(0usize..64)).map(|_| rng.gen()).collect();
        let fs: Vec<f64> = (0..rng.gen_range(0usize..64)).map(|_| arb_f64(&mut rng)).collect();
        let bytes: Vec<u8> =
            (0..rng.gen_range(0usize..64)).map(|_| rng.gen::<u32>() as u8).collect();
        let mut buf = Vec::new();
        codec::write_u32_seq(&mut buf, &us).unwrap();
        codec::write_f64_seq(&mut buf, &fs).unwrap();
        codec::write_bytes(&mut buf, &bytes).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(codec::read_u32_seq_bounded(&mut r, 64).unwrap(), us, "case {case}");
        let back = codec::read_f64_seq_bounded(&mut r, 64).unwrap();
        assert_eq!(back.len(), fs.len(), "case {case}");
        for (x, y) in back.iter().zip(&fs) {
            assert_eq!(x.to_bits(), y.to_bits(), "case {case}");
        }
        assert_eq!(codec::read_bytes_bounded(&mut r, 64).unwrap(), bytes, "case {case}");
    }
}

#[test]
fn sparse_vectors_round_trip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DE_2000 + case);
        let v = arb_sparse(&mut rng);
        let mut buf = Vec::new();
        codec::write_sparse_vector(&mut buf, &v).unwrap();
        let back = codec::read_sparse_vector_bounded(&mut Cursor::new(buf), 32).unwrap();
        assert_eq!(back, v, "case {case}");
    }
}

#[test]
fn headers_round_trip_and_reject_bad_magic() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DE_3000 + case);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = rng.gen_range(b'A'..=b'Z');
        }
        let version = rng.gen_range(0u32..100);
        let mut buf = Vec::new();
        codec::write_header(&mut buf, &magic, version).unwrap();
        let got = codec::read_header(&mut Cursor::new(buf.clone()), &magic, version).unwrap();
        assert_eq!(got, version, "case {case}");

        // Flip one magic byte: must be BadMagic.
        let flip = rng.gen_range(0usize..8);
        let mut bad = buf.clone();
        bad[flip] ^= 0x20;
        assert!(
            matches!(
                codec::read_header(&mut Cursor::new(bad), &magic, version).unwrap_err(),
                DecodeError::BadMagic { .. }
            ),
            "case {case}"
        );

        // A version beyond max_version must be rejected.
        if version > 0 {
            assert!(
                matches!(
                    codec::read_header(&mut Cursor::new(buf), &magic, version - 1).unwrap_err(),
                    DecodeError::UnsupportedVersion { .. }
                ),
                "case {case}"
            );
        }
    }
}

#[test]
fn truncation_at_every_prefix_errors_cleanly() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DE_4000 + case);
        let v = arb_sparse(&mut rng);
        let mut buf = Vec::new();
        codec::write_sparse_vector(&mut buf, &v).unwrap();
        // Every strict prefix must produce an error (Io for short reads,
        // Corrupt for inconsistent lengths) — never a panic, never Ok.
        for cut in 0..buf.len() {
            let err = codec::read_sparse_vector_bounded(&mut Cursor::new(&buf[..cut]), 32);
            assert!(err.is_err(), "case {case}: prefix {cut}/{} decoded", buf.len());
        }
    }
}

#[test]
fn corrupt_length_prefixes_never_allocate_absurdly() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DE_5000 + case);
        // A stream that *only* contains a huge length prefix: the bounded
        // readers must reject it without trying to read (or reserve) data.
        let declared = rng.gen_range(1_000_000_001u64..u64::MAX);
        let mut buf = Vec::new();
        codec::write_u64(&mut buf, declared).unwrap();
        // Even the loosest caller bound is clamped to the global cap.
        assert!(
            matches!(
                codec::read_u32_seq_bounded(&mut Cursor::new(buf.clone()), u64::MAX).unwrap_err(),
                DecodeError::Corrupt(_)
            ),
            "case {case}"
        );
        let bound = rng.gen_range(0u64..1000);
        assert!(
            matches!(
                codec::read_f64_seq_bounded(&mut Cursor::new(buf.clone()), bound).unwrap_err(),
                DecodeError::Corrupt(_)
            ),
            "case {case}"
        );
        assert!(
            matches!(
                codec::read_bytes_bounded(&mut Cursor::new(buf), bound).unwrap_err(),
                DecodeError::Corrupt(_)
            ),
            "case {case}"
        );
    }
}

#[test]
fn mismatched_parallel_sequences_are_corrupt() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DE_6000 + case);
        let n = rng.gen_range(1usize..16);
        let extra = rng.gen_range(1usize..4);
        let idx: Vec<u32> = (0..n as u32).collect();
        let vals: Vec<f64> = (0..n + extra).map(|_| rng.gen()).collect();
        let mut buf = Vec::new();
        codec::write_u32_seq(&mut buf, &idx).unwrap();
        codec::write_f64_seq(&mut buf, &vals).unwrap();
        assert!(
            matches!(
                codec::read_sparse_vector_bounded(&mut Cursor::new(buf), 32).unwrap_err(),
                DecodeError::Corrupt(_)
            ),
            "case {case}"
        );
    }
}
