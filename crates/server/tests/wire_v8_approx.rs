//! Wire v8 approx-codec property tests (seeded, mirror of `wire_v4.rs`).
//!
//! The request/response tails are trailing-optional: a frame without the
//! tail-flags word must decode as a plain query, a truncated tail must
//! error (never panic), and the epsilon field must be
//! finite and non-negative on the wire. These properties are pinned here
//! over seeded random parameter draws.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_server::wire::{self, ApproxParams, WireApproxStats};
use rtk_server::{Request, Response};

const CASES: u64 = 64;

fn arb_approx(rng: &mut StdRng) -> ApproxParams {
    ApproxParams {
        epsilon: rng.gen_range(0.0..1e-2),
        walks: rng.gen_range(0u32..512),
        seed: rng.gen(),
    }
}

fn arb_bool(rng: &mut StdRng) -> bool {
    rng.gen::<u32>() % 2 == 0
}

fn arb_pmpn(rng: &mut StdRng) -> Vec<f64> {
    let len = rng.gen_range(1usize..64);
    (0..len).map(|_| rng.gen_range(0.0..1.0)).collect()
}

fn decode_request(payload: &[u8]) -> Result<Request, String> {
    wire::decode_request(payload)
        .map(|(_token, req)| req)
        .map_err(|e| e.to_string())
}

#[test]
fn approx_requests_round_trip_for_arbitrary_params() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA114 + case);
        let req = Request::ReverseTopk {
            q: rng.gen(),
            k: rng.gen_range(1u32..64),
            update: arb_bool(&mut rng),
            trace: arb_bool(&mut rng),
            approx: Some(arb_approx(&mut rng)),
        };
        let payload = wire::encode_request(&req);
        let back = decode_request(&payload).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, req, "case {case}");
    }
}

#[test]
fn shard_requests_round_trip_with_every_tail_combination() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5A8D + case);
        let req = Request::ShardReverseTopk {
            q: rng.gen(),
            k: rng.gen_range(1u32..64),
            update: arb_bool(&mut rng),
            trace: arb_bool(&mut rng),
            approx: arb_bool(&mut rng).then(|| arb_approx(&mut rng)),
            pmpn: arb_bool(&mut rng).then(|| arb_pmpn(&mut rng)),
            want_pmpn: arb_bool(&mut rng),
        };
        let payload = wire::encode_request(&req);
        let back = decode_request(&payload).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, req, "case {case}");
    }
}

/// Truncating the payload at every prefix either errors cleanly or — at
/// exactly a tail-section boundary — decodes as the same request with the
/// later tail features stripped (an absent tail means a plain frame). No
/// prefix may panic or decode to
/// anything else.
#[test]
fn truncation_at_every_prefix_errors_or_strips_the_tail() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7B8C + case);
        let q: u32 = rng.gen();
        let k: u32 = rng.gen_range(1u32..64);
        let update: bool = arb_bool(&mut rng);
        let req = Request::ShardReverseTopk {
            q,
            k,
            update,
            trace: true,
            approx: Some(arb_approx(&mut rng)),
            pmpn: Some(arb_pmpn(&mut rng)),
            want_pmpn: true,
        };
        let stripped = [
            // The only decodable proper prefix: the fixed fields with the
            // whole tail absent (a plain frame).
            Request::ShardReverseTopk {
                q,
                k,
                update,
                trace: false,
                approx: None,
                pmpn: None,
                want_pmpn: false,
            },
        ];
        let payload = wire::encode_request(&req);
        for cut in 0..payload.len() {
            match decode_request(&payload[..cut]) {
                Err(_) => {}
                Ok(back) => assert!(
                    stripped.contains(&back),
                    "case {case}: cut {cut} decoded to unexpected {back:?}"
                ),
            }
        }
        assert_eq!(decode_request(&payload).unwrap(), req, "case {case}: full frame");
    }
}

#[test]
fn non_finite_and_negative_epsilon_are_rejected() {
    for epsilon in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-300] {
        let req = Request::ReverseTopk {
            q: 3,
            k: 4,
            update: false,
            trace: false,
            approx: Some(ApproxParams { epsilon, walks: 8, seed: 1 }),
        };
        let payload = wire::encode_request(&req);
        let err = decode_request(&payload).unwrap_err();
        assert!(err.contains("epsilon"), "epsilon {epsilon}: {err}");
    }
}

#[test]
fn unknown_tail_flag_bits_are_rejected() {
    let req = Request::ReverseTopk {
        q: 1,
        k: 2,
        update: false,
        trace: false,
        approx: Some(ApproxParams { epsilon: 1e-4, walks: 16, seed: 9 }),
    };
    let mut payload = wire::encode_request(&req);
    // The request tail is trailing: flags u32 + epsilon f64 + walks u32 +
    // seed u64 = 24 bytes; poke an undefined high bit into the flags word.
    let flags_at = payload.len() - 24;
    payload[flags_at + 3] |= 0x80;
    let err = decode_request(&payload).unwrap_err();
    assert!(err.contains("bits"), "{err}");
}

#[test]
fn plain_frames_stay_byte_identical_to_the_v7_shape() {
    // A request with no optional feature engaged must not grow a tail
    // word: its payload is the fixed fields alone, and a tail only ever
    // appends to them.
    let plain = Request::ReverseTopk { q: 11, k: 3, update: true, trace: false, approx: None };
    let approx = Request::ReverseTopk {
        q: 11,
        k: 3,
        update: true,
        trace: false,
        approx: Some(ApproxParams { epsilon: 1e-3, walks: 4, seed: 2 }),
    };
    let plain_payload = wire::encode_request(&plain);
    let approx_payload = wire::encode_request(&approx);
    assert_eq!(approx_payload.len(), plain_payload.len() + 24, "tail is exactly 24 bytes");
    assert_eq!(
        &approx_payload[..plain_payload.len()],
        &plain_payload[..],
        "fixed fields unchanged by the tail"
    );

    // A trace-only tail is the flags word `1` and nothing else.
    let traced = Request::ReverseTopk { q: 11, k: 3, update: true, trace: true, approx: None };
    let traced_payload = wire::encode_request(&traced);
    assert_eq!(traced_payload.len(), plain_payload.len() + 4, "trace tail is one u32");
    assert_eq!(&traced_payload[..plain_payload.len()], &plain_payload[..]);
    assert_eq!(&traced_payload[plain_payload.len()..], 1u32.to_le_bytes().as_slice());
}

#[test]
fn responses_round_trip_with_approx_stats_and_pmpn() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE5F0 + case);
        let result = wire::WireQueryResult {
            query: rng.gen(),
            k: rng.gen_range(1u32..16),
            nodes: vec![1, 2, 3],
            proximities: vec![0.5, 0.25, 0.125],
            candidates: rng.gen_range(0u64..100),
            hits: rng.gen_range(0u64..100),
            refined_nodes: rng.gen_range(0u64..100),
            refine_iterations: rng.gen_range(0u64..100),
            server_seconds: 0.001,
            trace: None,
            approx: arb_bool(&mut rng).then(|| WireApproxStats {
                estimated: rng.gen_range(0u64..1000),
                exact_refined: rng.gen_range(0u64..1000),
                walks: rng.gen_range(0u64..100_000),
            }),
        };
        let resp = Response::ShardReverseTopk(wire::WireShardResult {
            shard_id: rng.gen_range(0u32..8),
            node_lo: 0,
            node_hi: 100,
            result,
            pmpn: arb_bool(&mut rng).then(|| arb_pmpn(&mut rng)),
        });
        let payload = wire::encode_response(&resp);
        let back = wire::decode_response(&payload).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, resp, "case {case}");
        // Truncating the response tail must error, never panic.
        for cut in (payload.len().saturating_sub(16))..payload.len() {
            let _ = wire::decode_response(&payload[..cut]);
        }
    }
}

#[test]
fn shipped_pmpn_vectors_with_non_finite_entries_are_rejected() {
    let req = Request::ShardReverseTopk {
        q: 0,
        k: 1,
        update: false,
        trace: false,
        approx: None,
        pmpn: Some(vec![0.25, f64::NAN, 0.5]),
        want_pmpn: false,
    };
    let payload = wire::encode_request(&req);
    assert!(decode_request(&payload).is_err(), "NaN pmpn entry must be rejected");
}
