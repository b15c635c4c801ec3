//! Property-based tests over random graphs: the paper's invariants must hold
//! for *every* input, not just the curated fixtures.
//!
//! Offline build note: the original proptest harness needed a registry crate,
//! so the same properties are driven here by seeded case generation — each
//! property samples its inputs from a deterministic `StdRng` stream, which
//! keeps failures reproducible by seed.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder, TransitionMatrix};
use rtk_index::{HubSelection, IndexConfig, ReverseIndex};
use rtk_query::baseline::brute_force_reverse_topk;
use rtk_query::{upper_bound_kth, BoundMode, QueryEngine, QueryOptions};
use rtk_rwr::bca::{BcaEngine, BcaStop};
use rtk_rwr::exact::proximity_matrix_dense;
use rtk_rwr::{proximity_from, proximity_to, BcaParams, HubSet, RwrParams};

/// Cases per property (the proptest harness ran 48).
const CASES: u64 = 48;

/// A random digraph with 2..=24 nodes and a sprinkle of edges, repaired with
/// self-loops.
fn arb_graph(rng: &mut StdRng) -> DiGraph {
    let n = rng.gen_range(2usize..=24);
    let mut b = GraphBuilder::new(n);
    let edge_count = rng.gen_range(1..(4 * n));
    for _ in 0..edge_count {
        let f = rng.gen_range(0..n) as u32;
        let t = rng.gen_range(0..n) as u32;
        b.add_edge(f, t).unwrap();
    }
    b.build(DanglingPolicy::SelfLoop).unwrap()
}

/// PMPN's row equals the transposed power-method columns (Thm. 2).
#[test]
fn pmpn_row_equals_columns() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x11A0 + case);
        let graph = arb_graph(&mut rng);
        let n = graph.node_count();
        let q = rng.gen_range(0..n) as u32;
        let t = TransitionMatrix::new(&graph);
        let params = RwrParams::default();
        let (row, report) = proximity_to(&t, q, &params);
        assert!(report.converged, "case {case}");
        for u in 0..n as u32 {
            let (col, _) = proximity_from(&t, u, &params);
            assert!((row[u as usize] - col[q as usize]).abs() < 1e-7, "case {case} u={u}");
        }
    }
}

/// Partial BCA values lower-bound the exact proximities (Props. 1–2), for any
/// hub set and any stopping point.
#[test]
fn bca_lower_bounds_hold() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x22B0 + case);
        let graph = arb_graph(&mut rng);
        let hub_count = rng.gen_range(0usize..6);
        let iterations = rng.gen_range(1u32..12);
        let n = graph.node_count();
        let t = TransitionMatrix::new(&graph);
        let hubs = HubSet::degree_based(&graph, hub_count.min(n));
        let exact = proximity_matrix_dense(&t, 0.15);
        let mut engine = BcaEngine::new(hubs.clone(), BcaParams::default());
        for u in 0..n as u32 {
            let snap =
                engine.run_from(&t, u, &BcaStop { residue_norm: 0.0, max_iterations: iterations });
            // Materialize with *exact* hub vectors: w + Σ s_h p_h ≤ p_u.
            let mut p = snap.retained.to_dense(n);
            for (h, s) in snap.hub_ink.iter() {
                for v in 0..n {
                    p[v] += s * exact[h as usize][v];
                }
            }
            for v in 0..n {
                assert!(
                    p[v] <= exact[u as usize][v] + 1e-9,
                    "case {case} u={u} v={v}: {} > {}",
                    p[v],
                    exact[u as usize][v]
                );
            }
            // Conservation: total mass is 1.
            let total = snap.residue_norm() + snap.settled_mass();
            assert!((total - 1.0).abs() < 1e-9, "case {case} u={u}: mass {total}");
        }
    }
}

/// The staircase upper bound is sound: pouring the true residual over the
/// true lower bounds can never undershoot the exact k-th value.
#[test]
fn ubc_is_sound() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x33C0 + case);
        let graph = arb_graph(&mut rng);
        let k = rng.gen_range(1usize..6).min(graph.node_count());
        let iterations = rng.gen_range(1u32..10);
        let n = graph.node_count();
        let t = TransitionMatrix::new(&graph);
        let exact = proximity_matrix_dense(&t, 0.15);
        let mut engine = BcaEngine::new(HubSet::empty(n), BcaParams::default());
        for u in 0..n as u32 {
            let snap =
                engine.run_from(&t, u, &BcaStop { residue_norm: 0.0, max_iterations: iterations });
            let w = snap.retained.to_dense(n);
            let mut staircase: Vec<f64> = w.iter().copied().filter(|&v| v > 0.0).collect();
            staircase.sort_by(|a, b| b.partial_cmp(a).unwrap());
            staircase.resize(k, 0.0);
            staircase.truncate(k);
            let ub = upper_bound_kth(&staircase, snap.residue_norm(), k);
            let mut col = exact[u as usize].clone();
            col.sort_by(|a, b| b.partial_cmp(a).unwrap());
            assert!(
                ub >= col[k - 1] - 1e-9,
                "case {case} u={u}: ub {} < exact kth {}",
                ub,
                col[k - 1]
            );
        }
    }
}

/// The full online query equals brute force on arbitrary graphs, in both
/// update modes and both bound modes.
#[test]
fn online_query_equals_brute_force() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x44D0 + case);
        let graph = arb_graph(&mut rng);
        let n = graph.node_count();
        let q = rng.gen_range(0..n) as u32;
        let k = rng.gen_range(1usize..5).min(n);
        let b = rng.gen_range(0usize..4);
        let strict = rng.gen_bool(0.5);
        let update = rng.gen_bool(0.5);
        let t = TransitionMatrix::new(&graph);
        let config = IndexConfig {
            max_k: k.max(2),
            hub_selection: HubSelection::DegreeBased { b },
            threads: 1,
            ..Default::default()
        };
        let mut index = ReverseIndex::build(&t, config).unwrap();
        let mut session = QueryEngine::new(&index);
        let opts = QueryOptions {
            update_index: update,
            bound_mode: if strict { BoundMode::Strict } else { BoundMode::PaperFaithful },
            ..Default::default()
        };
        let expected = brute_force_reverse_topk(&t, q, k, &RwrParams::default());
        let got = if update {
            session.query(&t, &mut index, q, k, &opts).unwrap()
        } else {
            session.query_frozen(&t, &index, q, k, &opts).unwrap()
        };
        assert_eq!(
            got.nodes(),
            &expected[..],
            "case {case} q={q} k={k} strict={strict} update={update}"
        );
    }
}

/// Index persistence round-trips bit-for-bit on arbitrary graphs.
#[test]
fn index_storage_round_trips() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x55E0 + case);
        let graph = arb_graph(&mut rng);
        let b = rng.gen_range(0usize..4);
        let t = TransitionMatrix::new(&graph);
        let config = IndexConfig {
            max_k: 4,
            hub_selection: HubSelection::DegreeBased { b },
            threads: 1,
            ..Default::default()
        };
        let index = ReverseIndex::build(&t, config).unwrap();
        let mut buf = Vec::new();
        rtk_index::storage::save(&graph, &index, &mut buf).unwrap();
        let (back, loaded) = rtk_index::storage::load(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, graph, "case {case}");
        assert_eq!(loaded.node_count(), index.node_count(), "case {case}");
        for u in 0..graph.node_count() as u32 {
            assert_eq!(loaded.state(u), index.state(u), "case {case} u={u}");
        }
    }
}

/// Graph TSV and binary formats round-trip arbitrary graphs.
#[test]
fn graph_io_round_trips() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x66F0 + case);
        let graph = arb_graph(&mut rng);
        let mut tsv = Vec::new();
        rtk_graph::io::write_edge_list(&graph, &mut tsv).unwrap();
        let back = rtk_graph::io::read_edge_list(
            std::io::Cursor::new(tsv),
            Some(graph.node_count()),
            DanglingPolicy::Error,
        )
        .unwrap();
        assert_eq!(&back, &graph, "case {case} (tsv)");

        let mut bin = Vec::new();
        rtk_graph::io::write_binary(&graph, &mut bin).unwrap();
        let back = rtk_graph::io::read_binary(std::io::Cursor::new(bin)).unwrap();
        assert_eq!(&back, &graph, "case {case} (binary)");
    }
}
