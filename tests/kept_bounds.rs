//! Kept bounds never move an answer.
//!
//! An exact frozen query keeps the bounds its refinements reach in the
//! index, and later exact frozen queries decide candidates from them
//! instead of refining again (`rtk_index::kept`). Only the work may change:
//! every answer of a long-lived engine — result nodes and proximity bits —
//! must equal the answer of a fresh engine over the same graph and index
//! states, which has kept nothing.
//!
//! The streams mix exact frozen queries (repeats, every `k ≤ K`, single and
//! batched), drop-mode (`approximate`) queries, update-mode queries that
//! commit refinements, and edge insertions and removals, over ER and R-MAT
//! graphs, in both bound modes, at one and two query threads. An engine
//! that kept bounds across an edge update, or whose drop mode recalled
//! them, answers differently from the fresh engine somewhere in them.

use rtk_core::ReverseTopkEngine;
use rtk_graph::gen::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
use rtk_graph::{DiGraph, NodeId};
use rtk_query::{BoundMode, QueryOptions, QueryResult};

const MAX_K: usize = 6;

/// One call of a stream.
#[derive(Clone, Debug)]
enum Step {
    /// An exact frozen query.
    Frozen(u32, usize),
    /// Exact frozen queries through `query_batch`.
    Batch(Vec<(u32, usize)>),
    /// A drop-mode (§5.3) frozen query.
    Drop(u32, usize),
    /// An update-mode query, which commits what it refines.
    Update(u32, usize),
    /// `add_edge(from, to, weight)`.
    Add(u32, u32, f64),
    /// `remove_edge(from, to)`.
    Remove(u32, u32),
}

/// Sized for the debug profile: each graph runs the stream in 2 bound
/// modes × 2 thread counts, with a fresh engine per answer.
fn graphs() -> Vec<(&'static str, DiGraph)> {
    vec![
        ("er", erdos_renyi(&ErdosRenyiConfig { nodes: 70, edges: 300, seed: 4 }).unwrap()),
        ("rmat", rmat(&RmatConfig::new(80, 340, 13)).unwrap()),
    ]
}

fn build(graph: &DiGraph) -> ReverseTopkEngine {
    ReverseTopkEngine::builder(graph.clone())
        .max_k(MAX_K)
        .hubs_per_direction(3)
        .threads(1)
        .build()
        .unwrap()
}

/// The stream for `graph`: a warm-up that keeps bounds, drop-mode and
/// update-mode calls on top of them, then edits that change the proximities
/// the kept bounds describe, each followed by the same reads again.
fn stream(graph: &DiGraph) -> Vec<Step> {
    let n = graph.node_count() as u32;
    // The most-entered node: many nodes reach it, so an edit at it changes
    // many proximity vectors.
    let hub = (0..n).max_by_key(|&u| (graph.in_degree(u), std::cmp::Reverse(u))).unwrap();
    let queries = [hub, 1, n / 3, n - 2];
    assert!(!queries[1..].contains(&hub), "the stream wants four distinct queries");
    let reads = |steps: &mut Vec<Step>| {
        for &q in &queries {
            for k in 1..=MAX_K {
                steps.push(Step::Frozen(q, k));
            }
        }
        steps.push(Step::Batch(queries.iter().map(|&q| (q, MAX_K)).collect()));
        for &q in &queries {
            steps.push(Step::Drop(q, MAX_K));
            steps.push(Step::Frozen(q, MAX_K / 2));
        }
    };
    let mut steps = Vec::new();
    reads(&mut steps);
    reads(&mut steps);
    steps.push(Step::Update(queries[1], MAX_K));
    steps.push(Step::Update(hub, 2));
    reads(&mut steps);
    // A heavy edge out of the hub, and one into it from a node that had
    // none: both reach far.
    let far = (0..n)
        .rev()
        .find(|&u| u != hub && !graph.out_neighbors(u).contains(&hub))
        .unwrap();
    steps.push(Step::Add(hub, queries[2], 40.0));
    reads(&mut steps);
    steps.push(Step::Add(far, hub, 25.0));
    steps.push(Step::Update(queries[3], MAX_K));
    reads(&mut steps);
    // Cut the hub's own out-edges down to the new one (a node keeps at
    // least one).
    for &v in graph.out_neighbors(hub) {
        if v != queries[2] {
            steps.push(Step::Remove(hub, v));
        }
    }
    reads(&mut steps);
    steps
}

fn assert_same_answer(got: &QueryResult, fresh: &QueryResult, context: &str) {
    assert_eq!(got.nodes(), fresh.nodes(), "{context}: node sets differ");
    let bits = |r: &QueryResult| r.proximities().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(fresh), "{context}: proximity bits differ");
}

/// An engine with nothing kept, over `engine`'s graph and index states.
fn fresh(engine: &ReverseTopkEngine) -> ReverseTopkEngine {
    ReverseTopkEngine::from_parts(engine.graph().clone(), engine.index().clone()).unwrap()
}

/// Runs `steps` on one engine, checking each answer against a fresh
/// engine's; returns the candidates recalled by frozen calls, before any
/// edit and after the last one.
fn run(label: &str, graph: &DiGraph, steps: &[Step], exact: QueryOptions) -> (usize, usize) {
    let mut engine = build(graph);
    let drop = QueryOptions { approximate: true, ..exact };
    let update = QueryOptions { update_index: true, ..exact };
    let (mut recalled, mut edited) = ([0usize; 2], false);
    for (i, step) in steps.iter().enumerate() {
        let context = format!("{label} step#{i} {step:?}");
        let mut reference = fresh(&engine);
        match *step {
            Step::Frozen(q, k) => {
                let got = engine.query_with(NodeId(q), k, &exact).unwrap();
                let want = reference.query_with(NodeId(q), k, &exact).unwrap();
                assert_same_answer(&got, &want, &context);
                recalled[usize::from(edited)] += got.stats().recalled;
            }
            Step::Batch(ref queries) => {
                let calls: Vec<(NodeId, usize)> =
                    queries.iter().map(|&(q, k)| (NodeId(q), k)).collect();
                let got = engine.query_batch(&calls, &exact).unwrap();
                for (r, &(q, k)) in got.iter().zip(queries) {
                    let want = reference.query_with(NodeId(q), k, &exact).unwrap();
                    assert_same_answer(r, &want, &format!("{context} q={q}"));
                }
            }
            Step::Drop(q, k) => {
                let got = engine.query_with(NodeId(q), k, &drop).unwrap();
                let want = reference.query_with(NodeId(q), k, &drop).unwrap();
                assert_same_answer(&got, &want, &context);
                assert_eq!(got.stats().recalled, 0, "{context}: drop mode recalls nothing");
            }
            Step::Update(q, k) => {
                let got = engine.query_with(NodeId(q), k, &update).unwrap();
                let want = reference.query_with(NodeId(q), k, &update).unwrap();
                assert_same_answer(&got, &want, &context);
                assert_eq!(got.stats().recalled, 0, "{context}: update mode recalls nothing");
                assert_eq!(engine.index_digest(), reference.index_digest(), "{context}: commits");
            }
            Step::Add(from, to, weight) => {
                engine.add_edge(NodeId(from), NodeId(to), weight).unwrap();
                (edited, recalled[1]) = (true, 0);
            }
            Step::Remove(from, to) => {
                engine.remove_edge(NodeId(from), NodeId(to)).unwrap();
                (edited, recalled[1]) = (true, 0);
            }
        }
    }
    (recalled[0], recalled[1])
}

#[test]
fn frozen_streams_answer_as_a_fresh_engine_does() {
    for (name, graph) in graphs() {
        let steps = stream(&graph);
        for bound_mode in [BoundMode::PaperFaithful, BoundMode::Strict] {
            for threads in [1usize, 2] {
                let label = format!("{name} {bound_mode:?} threads={threads}");
                let exact = QueryOptions {
                    update_index: false,
                    bound_mode,
                    query_threads: threads,
                    ..Default::default()
                };
                let (before, after) = run(&label, &graph, &steps, exact);
                // Not vacuous: kept bounds decided candidates, also after
                // the last edit emptied the store.
                assert!(before > 0 && after > 0, "{label}: recalled {before} / {after}");
            }
        }
    }
}
