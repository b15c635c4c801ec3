//! Cross-engine equivalence: the online algorithm must return exactly the
//! brute-force answer under every configuration knob, and IBF/FBF must agree.

use rtk_graph::gen::{erdos_renyi, rmat, scale_free, watts_strogatz};
use rtk_graph::gen::{ErdosRenyiConfig, RmatConfig, ScaleFreeConfig, WattsStrogatzConfig};
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_index::{HubSelection, IndexConfig, ReverseIndex};
use rtk_query::baseline::{brute_force_reverse_topk, Fbf, Ibf};
use rtk_query::{BoundMode, QueryEngine, QueryOptions};
use rtk_rwr::{BcaParams, RwrParams};

fn graph_zoo() -> Vec<(&'static str, DiGraph)> {
    vec![
        ("erdos", erdos_renyi(&ErdosRenyiConfig { nodes: 70, edges: 260, seed: 4 }).unwrap()),
        ("rmat", rmat(&RmatConfig::new(80, 320, 5)).unwrap()),
        ("scale-free", scale_free(&ScaleFreeConfig::new(75, 3, 6)).unwrap()),
        (
            "small-world",
            watts_strogatz(&WattsStrogatzConfig {
                nodes: 60,
                out_degree: 4,
                rewire_prob: 0.2,
                seed: 7,
            })
            .unwrap(),
        ),
    ]
}

fn config(b: usize, max_k: usize) -> IndexConfig {
    IndexConfig {
        max_k,
        hub_selection: HubSelection::DegreeBased { b },
        threads: 2,
        ..Default::default()
    }
}

#[test]
fn online_query_equals_brute_force_across_graph_families() {
    let params = RwrParams::default();
    for (name, graph) in graph_zoo() {
        let transition = TransitionMatrix::new(&graph);
        let mut index = ReverseIndex::build(&transition, config(4, 6)).unwrap();
        let mut session = QueryEngine::new(&index);
        for q in [0u32, 13, 37] {
            for k in [1usize, 3, 6] {
                let expected = brute_force_reverse_topk(&transition, q, k, &params);
                let got =
                    session.query(&transition, &mut index, q, k, &QueryOptions::default()).unwrap();
                assert_eq!(got.nodes(), &expected[..], "{name} q={q} k={k}");
            }
        }
    }
}

#[test]
fn all_four_engines_agree() {
    let params = RwrParams::default();
    let graph = rmat(&RmatConfig::new(90, 360, 11)).unwrap();
    let transition = TransitionMatrix::new(&graph);
    let mut index = ReverseIndex::build(&transition, config(5, 5)).unwrap();
    let mut session = QueryEngine::new(&index);
    let ibf = Ibf::build(&transition, 5, &params);
    let fbf = Fbf::build(&transition, 5, &params);
    for q in (0..90u32).step_by(17) {
        for k in [2usize, 5] {
            let bf = brute_force_reverse_topk(&transition, q, k, &params);
            assert_eq!(ibf.query(q, k).unwrap(), bf, "IBF q={q} k={k}");
            assert_eq!(fbf.query(&transition, q, k).unwrap(), bf, "FBF q={q} k={k}");
            let oq =
                session.query(&transition, &mut index, q, k, &QueryOptions::default()).unwrap();
            assert_eq!(oq.nodes(), &bf[..], "OQ q={q} k={k}");
        }
    }
}

#[test]
fn every_config_knob_preserves_correctness() {
    let graph = scale_free(&ScaleFreeConfig::new(65, 3, 21)).unwrap();
    let transition = TransitionMatrix::new(&graph);
    let params = RwrParams::default();
    let expected: Vec<Vec<u32>> = (0..5)
        .map(|q| brute_force_reverse_topk(&transition, q * 13, 4, &params))
        .collect();

    let configs = vec![
        // no hubs at all
        IndexConfig {
            max_k: 4,
            hub_selection: HubSelection::Explicit(vec![]),
            threads: 1,
            ..Default::default()
        },
        // many hubs
        config(20, 4),
        // coarse index (large δ) — everything decided at query time
        IndexConfig {
            max_k: 4,
            bca: BcaParams { residue_threshold: 0.9, ..Default::default() },
            hub_selection: HubSelection::DegreeBased { b: 5 },
            threads: 1,
            ..Default::default()
        },
        // fine index (small δ)
        IndexConfig {
            max_k: 4,
            bca: BcaParams { residue_threshold: 1e-3, ..Default::default() },
            hub_selection: HubSelection::DegreeBased { b: 5 },
            threads: 1,
            ..Default::default()
        },
        // hand-picked hubs, not the degree heuristic's
        IndexConfig {
            max_k: 4,
            hub_selection: HubSelection::Explicit(vec![3, 17, 29, 41, 52, 64]),
            threads: 1,
            ..Default::default()
        },
        // aggressive rounding
        IndexConfig {
            max_k: 4,
            hub_selection: HubSelection::DegreeBased { b: 8 },
            rounding_threshold: 5e-3,
            threads: 1,
            ..Default::default()
        },
    ];
    for (ci, cfg) in configs.into_iter().enumerate() {
        let mut index = ReverseIndex::build(&transition, cfg).unwrap();
        let mut session = QueryEngine::new(&index);
        // Strict mode guarantees exactness even under the rounding config.
        let opts = QueryOptions { bound_mode: BoundMode::Strict, ..Default::default() };
        for (i, q) in (0..5u32).map(|q| q * 13).enumerate() {
            let got = session.query(&transition, &mut index, q, 4, &opts).unwrap();
            assert_eq!(got.nodes(), &expected[i][..], "config {ci} q={q}");
        }
    }
}

#[test]
fn repeated_updates_never_corrupt_the_index() {
    // Hammer one index with a query workload in update mode, verifying
    // against brute force continuously.
    let graph = scale_free(&ScaleFreeConfig::new(55, 3, 41)).unwrap();
    let transition = TransitionMatrix::new(&graph);
    let params = RwrParams::default();
    let mut index = ReverseIndex::build(&transition, config(3, 5)).unwrap();
    let mut session = QueryEngine::new(&index);
    for round in 0..3 {
        for q in 0..55u32 {
            let k = 1 + ((q as usize + round) % 5);
            let expected = brute_force_reverse_topk(&transition, q, k, &params);
            let got =
                session.query(&transition, &mut index, q, k, &QueryOptions::default()).unwrap();
            assert_eq!(got.nodes(), &expected[..], "round {round} q={q} k={k}");
        }
    }
}

#[test]
fn weighted_graphs_are_handled_end_to_end() {
    // A weighted co-purchase-like graph exercises the weighted transition.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let n = 50usize;
    let mut b = rtk_graph::GraphBuilder::new(n);
    for u in 0..n as u32 {
        for _ in 0..4 {
            let v = rng.gen_range(0..n) as u32;
            if v != u {
                b.add_weighted_edge(u, v, rng.gen_range(1..6) as f64).unwrap();
            }
        }
    }
    let graph = b.build(rtk_graph::DanglingPolicy::SelfLoop).unwrap();
    let transition = TransitionMatrix::new(&graph);
    let params = RwrParams::default();
    let mut index = ReverseIndex::build(&transition, config(4, 4)).unwrap();
    let mut session = QueryEngine::new(&index);
    for q in [0u32, 25, 49] {
        let expected = brute_force_reverse_topk(&transition, q, 4, &params);
        let got = session.query(&transition, &mut index, q, 4, &QueryOptions::default()).unwrap();
        assert_eq!(got.nodes(), &expected[..], "q={q}");
    }
}
