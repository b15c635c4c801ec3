//! Dynamic graphs end to end: incremental `add_edge` / `remove_edge` must be
//! *indistinguishable* from rebuilding — same answers, same index bytes —
//! and the `RTKULOG1` update log must make any replica reproducible:
//! `snapshot + replay(log)` is byte-identical to the engine that lived
//! through the updates.
//!
//! Byte-equality legs follow the repo's two determinism rules for
//! incremental recomputes: rounding is disabled (`ω = 0` — a rounded hub
//! matrix persists only an aggregate unrounded-nnz count that a targeted
//! recompute cannot reproduce), and interleaved queries are frozen (an
//! update-mode query refines states the rebuild oracle never saw).

use reverse_topk_rwr::ReverseTopkEngine;
use rtk_core::UpdateRecord;
use rtk_graph::gen::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
use rtk_graph::NodeId;
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_index::HubSelection;
use rtk_query::{QueryEngine, QueryOptions};

const UPDATES: usize = 200;

fn test_graphs() -> Vec<(String, DiGraph)> {
    vec![
        ("er/1".into(), erdos_renyi(&ErdosRenyiConfig { nodes: 48, edges: 170, seed: 1 }).unwrap()),
        ("rmat/3".into(), rmat(&RmatConfig::new(56, 190, 3)).unwrap()),
    ]
}

fn build_engine(graph: DiGraph, shards: usize) -> ReverseTopkEngine {
    ReverseTopkEngine::builder(graph)
        .max_k(4)
        .hubs_per_direction(4)
        .threads(1)
        .rounding_threshold(0.0)
        .shards(shards)
        .build()
        .unwrap()
}

/// Splitmix-style deterministic stream for the update generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// A seeded ~[`UPDATES`]-long sequence of valid edge edits for `graph`:
/// ~60% inserts (including weight accumulation onto existing edges), ~40%
/// removals, never removing a node's last out-edge. The sequence is a pure
/// function of (graph, seed), so every engine flavor replays the same log.
fn update_sequence(graph: &DiGraph, seed: u64, len: usize) -> Vec<UpdateRecord> {
    let n = graph.node_count() as u32;
    let mut edges: std::collections::BTreeSet<(u32, u32)> =
        graph.edges().map(|(from, to, _)| (from, to)).collect();
    let mut out_deg: Vec<usize> = (0..n).map(|u| graph.out_neighbors(u).len()).collect();
    let mut rng = Rng(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut records = Vec::with_capacity(len);
    while records.len() < len {
        let removable: Vec<(u32, u32)> =
            edges.iter().copied().filter(|&(from, _)| out_deg[from as usize] >= 2).collect();
        if rng.next() % 10 < 4 && !removable.is_empty() {
            let (from, to) = removable[(rng.next() % removable.len() as u64) as usize];
            edges.remove(&(from, to));
            out_deg[from as usize] -= 1;
            records.push(UpdateRecord::RemoveEdge { from, to });
        } else {
            let from = (rng.next() % n as u64) as u32;
            let to = (rng.next() % n as u64) as u32;
            let weight = 0.25 + (rng.next() % 8) as f64 * 0.25;
            if edges.insert((from, to)) {
                out_deg[from as usize] += 1;
            }
            records.push(UpdateRecord::AddEdge { from, to, weight });
        }
    }
    records
}

fn frozen(query_threads: usize) -> QueryOptions {
    QueryOptions { update_index: false, query_threads, ..Default::default() }
}

/// Queries interleaved with the update stream: a handful of (q, k) pairs
/// that move with the step so the whole node range gets exercised.
fn probe_queries(step: usize, n: usize, max_k: usize) -> Vec<(u32, usize)> {
    (0..3)
        .map(|i| ((((step * 13 + i * 29) + 3) % n) as u32, 1 + (step + i) % max_k))
        .collect()
}

/// The tentpole contract, leg one: after *every* update, the live engine's
/// frozen answers are bitwise-equal to a from-scratch rebuild over the
/// current graph (hub set pinned — incremental maintenance never reselects
/// hubs), and so is every per-node index state. Queries run interleaved
/// with the updates, at 1/2/4 intra-query threads, all bitwise-identical.
#[test]
fn every_update_matches_a_from_scratch_rebuild() {
    for (label, graph) in test_graphs() {
        let mut live = build_engine(graph, 1);
        let hubs: Vec<u32> = live.index().hub_matrix().hubs().ids().to_vec();
        let records = update_sequence(live.graph(), 42, UPDATES);
        for (step, record) in records.iter().enumerate() {
            live.replay_updates(std::slice::from_ref(record)).unwrap();

            // Rebuilding at every step is the whole point of the test, but
            // a full oracle build per update is the dominant cost — states
            // are compared every step against a rebuild every 5th step.
            let oracle_step = step % 5 == 0 || step == UPDATES - 1;
            let mut oracle = if oracle_step {
                let rebuilt = ReverseTopkEngine::builder(live.graph().clone())
                    .max_k(4)
                    .hub_selection(HubSelection::Explicit(hubs.clone()))
                    .threads(1)
                    .rounding_threshold(0.0)
                    .build()
                    .unwrap();
                for u in 0..live.node_count() as u32 {
                    assert_eq!(
                        live.index().state(u),
                        rebuilt.index().state(u),
                        "{label} step {step} ({record:?}): state {u} diverged from rebuild"
                    );
                }
                Some(rebuilt)
            } else {
                None
            };

            for (q, k) in probe_queries(step, live.node_count(), 4) {
                let base = live.query_with(NodeId(q), k, &frozen(1)).unwrap();
                for threads in [2usize, 4] {
                    let multi = live.query_with(NodeId(q), k, &frozen(threads)).unwrap();
                    assert_eq!(base.nodes(), multi.nodes(), "{label} step {step} t={threads}");
                    assert_eq!(
                        bits(base.proximities()),
                        bits(multi.proximities()),
                        "{label} step {step} q={q} t={threads}: proximity bits differ"
                    );
                }
                if let Some(oracle) = oracle.as_mut() {
                    let fresh = oracle.query_with(NodeId(q), k, &frozen(1)).unwrap();
                    assert_eq!(base.nodes(), fresh.nodes(), "{label} step {step} q={q}");
                    assert_eq!(
                        bits(base.proximities()),
                        bits(fresh.proximities()),
                        "{label} step {step} q={q}: live vs rebuild proximity bits differ"
                    );
                }
            }
        }
    }
}

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|x| x.to_bits()).collect()
}

/// The replayable-log contract, across shard counts: snapshot the engine,
/// live-apply the seeded log (with frozen queries interleaved), then replay
/// the same log over the snapshot — the two `RTKMANI1` serializations must
/// be byte-identical, and answers must agree across {1, 2, 4} shards.
#[test]
fn snapshot_plus_replay_reproduces_live_bytes() {
    for (label, graph) in test_graphs() {
        let mut answers_by_shards: Vec<Vec<(Vec<u32>, Vec<u64>)>> = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut live = build_engine(graph.clone(), shards);
            let records = update_sequence(live.graph(), 7, UPDATES);

            let mut seed_bytes = Vec::new();
            live.save(&mut seed_bytes).unwrap();

            let mut answers = Vec::new();
            for (step, record) in records.iter().enumerate() {
                live.replay_updates(std::slice::from_ref(record)).unwrap();
                if step % 25 == 0 {
                    for (q, k) in probe_queries(step, live.node_count(), 4) {
                        let r = live.query_with(NodeId(q), k, &frozen(1)).unwrap();
                        answers.push((r.nodes().to_vec(), bits(r.proximities())));
                    }
                }
            }
            let mut live_bytes = Vec::new();
            live.save(&mut live_bytes).unwrap();

            let mut replayed = ReverseTopkEngine::load(std::io::Cursor::new(seed_bytes)).unwrap();
            replayed.replay_updates(&records).unwrap();
            let mut replayed_bytes = Vec::new();
            replayed.save(&mut replayed_bytes).unwrap();
            assert_eq!(
                live_bytes, replayed_bytes,
                "{label} shards={shards}: snapshot + replay(log) is not byte-identical to live"
            );
            assert_eq!(live.index_digest(), replayed.index_digest(), "{label} shards={shards}");
            answers_by_shards.push(answers);
        }
        // Shard count is a layout choice: the interleaved answers match
        // bitwise across {1, 2, 4} shards.
        assert_eq!(answers_by_shards[0], answers_by_shards[1], "{label}: 1 vs 2 shards");
        assert_eq!(answers_by_shards[0], answers_by_shards[2], "{label}: 1 vs 4 shards");
    }
}

/// The as-built leg: an edit keeps the BCA run of an affected state that is
/// still the build recipe's output and never pushed from the edited row,
/// and re-runs the rest — and both land on the rebuild. Update-mode queries
/// run before every edit, so some affected states are refined (no bit: they
/// re-run, which also resets them) and some are not. After each edit every
/// affected state equals the pinned-hub rebuild's, the engine's own
/// `bca_runs` equals the count the rule predicts from what this test can
/// see from outside, and every one-shard engine of three, driven through
/// the same steps, holds exactly the whole engine's states. The script
/// contains hub tails, edits whose tail is an affected as-built state itself
/// (`q == u`), and — asserted below — an edit whose tail a state kept by an
/// earlier edit *does* push from.
#[test]
fn kept_runs_and_repeated_runs_both_land_on_the_rebuild() {
    let update_mode =
        QueryOptions { update_index: true, query_threads: 1, ..QueryOptions::default() };
    for (label, graph) in test_graphs() {
        for threads in [1usize, 2, 4] {
            let mut live = ReverseTopkEngine::builder(graph.clone())
                .max_k(4)
                .hubs_per_direction(4)
                .threads(threads)
                .rounding_threshold(0.0)
                .shards(3)
                .build()
                .unwrap();
            let mut parts: Vec<ReverseTopkEngine> = (0..3)
                .map(|sid| {
                    let index = live.index().one_shard(sid).unwrap();
                    ReverseTopkEngine::from_parts(graph.clone(), index).unwrap()
                })
                .collect();
            let hubs: Vec<u32> = live.index().hub_matrix().hubs().ids().to_vec();
            let n = live.node_count();

            // A seeded stream with a hub-tailed insert spliced in every
            // fourth step (the generator alone rarely draws one).
            let mut records = update_sequence(live.graph(), 23, 36);
            for (i, &hub) in hubs.iter().enumerate().take(6) {
                let to = (hub + 1 + i as u32) % n as u32;
                records.insert(4 * i + 2, UpdateRecord::AddEdge { from: hub, to, weight: 0.5 });
            }

            // `as_built[u]`: u's state is the recipe's output (nothing
            // committed over it since the build or the last edit reached it).
            // `kept[u]`: some earlier edit kept u's run.
            let mut as_built = vec![true; n];
            let mut kept = vec![false; n];
            let (mut hub_tails, mut self_tails, mut kept_then_rerun, mut mixed) = (0, 0, 0, 0);
            for (step, record) in records.iter().enumerate() {
                let before = live.index().clone();
                for (q, k) in probe_queries(step, n, 4) {
                    let whole = live.query_with(NodeId(q), k, &update_mode).unwrap();
                    let mut merged = Vec::new();
                    for part in parts.iter_mut() {
                        let partial = part.query_shard(NodeId(q), k, &update_mode, None).unwrap();
                        merged.extend_from_slice(partial.nodes());
                    }
                    assert_eq!(whole.nodes(), merged, "{label} step {step} q={q}");
                }
                for u in 0..n as u32 {
                    if live.index().state(u) != before.state(u) {
                        as_built[u as usize] = false;
                    }
                }

                let tail = match *record {
                    UpdateRecord::AddEdge { from, .. } | UpdateRecord::RemoveEdge { from, .. } => {
                        from
                    }
                };
                let affected = rtk_index::affected_set(live.graph(), tail);
                let predicted_before = |u: u32| {
                    let retained = &live.index().state(u).snapshot().retained;
                    as_built[u as usize] && (hubs.contains(&tail) || retained.get(tail) == 0.0)
                };
                // The rule, from outside: a hub's row is never read; else the
                // run read row `tail` iff it retained ink there. (Its guard
                // against a retained amount rounding to zero cannot trip on
                // as-built runs of a few iterations — asserted.)
                let predicted: Vec<bool> = affected.iter().map(|&u| predicted_before(u)).collect();
                for &u in affected.iter().filter(|&&u| as_built[u as usize]) {
                    assert!(live.index().state(u).snapshot().iterations < 50, "short runs");
                }

                let effect = live.replay_updates(std::slice::from_ref(record)).unwrap();
                let runs = predicted.iter().filter(|&&keep| !keep).count();
                assert_eq!(effect.recomputed_states, affected.len(), "{label} step {step}");
                assert_eq!(effect.bca_runs, runs, "{label} t={threads} step {step} {record:?}");
                let mut part_runs = 0;
                for part in parts.iter_mut() {
                    part_runs +=
                        part.replay_updates(std::slice::from_ref(record)).unwrap().bca_runs;
                }
                assert_eq!(part_runs, runs, "{label} step {step}: one-shard engines");

                hub_tails += usize::from(hubs.contains(&tail));
                mixed += usize::from(runs > 0 && runs < affected.len());
                for (&u, &keep) in affected.iter().zip(&predicted) {
                    self_tails += usize::from(u == tail && as_built[u as usize] && !keep);
                    kept_then_rerun +=
                        usize::from(kept[u as usize] && as_built[u as usize] && !keep);
                    kept[u as usize] = keep;
                    as_built[u as usize] = true;
                }

                let rebuilt = ReverseTopkEngine::builder(live.graph().clone())
                    .max_k(4)
                    .hub_selection(HubSelection::Explicit(hubs.clone()))
                    .threads(1)
                    .rounding_threshold(0.0)
                    .build()
                    .unwrap();
                assert_eq!(live.index().hub_matrix(), rebuilt.index().hub_matrix());
                for &u in &affected {
                    assert_eq!(
                        live.index().state(u),
                        rebuilt.index().state(u),
                        "{label} t={threads} step {step} ({record:?}): state {u} vs rebuild"
                    );
                }
                for part in &parts {
                    assert_eq!(part.index().hub_matrix(), live.index().hub_matrix());
                    for u in part.index().owned_range() {
                        assert_eq!(
                            part.index().state(u),
                            live.index().state(u),
                            "{label} t={threads} step {step}: one-shard state {u}"
                        );
                    }
                }
            }
            assert!(hub_tails >= 6, "{label}: hub-tailed edits");
            assert!(mixed > 5, "{label}: edits that keep some runs and repeat others ({mixed})");
            assert!(self_tails > 0, "{label}: an edit whose own tail state was as built");
            assert!(kept_then_rerun > 0, "{label}: a kept run later pushed from an edited tail");
        }
    }
}

/// The engine's cached transition view is maintained by splices; a view
/// computed from scratch on the post-update graph answers bitwise the same
/// over the same index.
#[test]
fn spliced_view_agrees_with_a_fresh_view_after_updates() {
    for (label, graph) in test_graphs() {
        let mut live = build_engine(graph, 1);
        let records = update_sequence(live.graph(), 99, 60);
        live.replay_updates(&records).unwrap();

        let graph = live.graph().clone();
        let index = live.index().clone();
        let fresh = TransitionMatrix::new(&graph);
        let mut session = QueryEngine::new(&index);
        for (q, k) in probe_queries(1, live.node_count(), 4) {
            let spliced = live.query_with(NodeId(q), k, &frozen(1)).unwrap();
            let rebuilt = session.query_frozen(&fresh, &index, q, k, &frozen(1)).unwrap();
            assert_eq!(spliced.nodes(), rebuilt.nodes(), "{label} q={q} spliced vs rebuilt");
            assert_eq!(
                bits(spliced.proximities()),
                bits(rebuilt.proximities()),
                "{label} q={q}: spliced vs rebuilt proximity bits"
            );
        }
    }
}

/// Replica convergence for sharded backends: two one-shard engine replicas of
/// the same shard applying the same log step by step report identical
/// digests throughout, and a third replica that replays the whole log at
/// once lands on the same bytes (`stats index_digest` is exactly this
/// comparison over the wire).
#[test]
fn shard_replicas_converge_under_the_same_log() {
    let (_, graph) = &test_graphs()[0];
    let full = build_engine(graph.clone(), 2);
    let dir = std::env::temp_dir().join("rtk_test_incremental_updates");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("index.rtki");
    full.save_path(&manifest).unwrap();

    for shard in [0usize, 1] {
        let (_, index) = rtk_index::storage::load_one_shard_path(&manifest, shard).unwrap();
        let mut a = ReverseTopkEngine::from_parts(graph.clone(), index.clone()).unwrap();
        let mut b = ReverseTopkEngine::from_parts(graph.clone(), index.clone()).unwrap();
        let mut late = ReverseTopkEngine::from_parts(graph.clone(), index).unwrap();
        let records = update_sequence(graph, 17, 80);
        for (step, record) in records.iter().enumerate() {
            let ea = a.replay_updates(std::slice::from_ref(record)).unwrap();
            let eb = b.replay_updates(std::slice::from_ref(record)).unwrap();
            assert_eq!(ea.recomputed_states, eb.recomputed_states, "shard {shard} step {step}");
            assert_eq!(
                a.index_digest(),
                b.index_digest(),
                "shard {shard} step {step}: replicas diverged"
            );
        }
        late.replay_updates(&records).unwrap();
        assert_eq!(
            a.index_digest(),
            late.index_digest(),
            "shard {shard}: step-by-step vs one-shot replay diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A repartition swaps the shard map and nothing else. The states keep
/// their cached record digests and their as-built bits, so the next edge
/// update keeps exactly the runs it keeps on the index that was never
/// repartitioned.
#[test]
fn a_repartition_keeps_what_it_does_not_change() {
    let build = || {
        ReverseTopkEngine::builder(rmat(&RmatConfig::new(1000, 6000, 7)).unwrap())
            .max_k(20)
            .hubs_per_direction(10)
            .threads(2)
            .build()
            .unwrap()
    };
    let (mut whole, mut split) = (build(), build());
    split.reshard(2);
    assert_eq!(split.shard_count(), 2);
    assert_eq!(split.index_digest(), rtk_index::storage::index_digest_cold(split.index()));

    let effect = whole.add_edge(NodeId(3), NodeId(900), 1.0).unwrap();
    let split_effect = split.add_edge(NodeId(3), NodeId(900), 1.0).unwrap();
    assert_eq!(effect.bca_runs, 586);
    assert_eq!(split_effect.bca_runs, effect.bca_runs);
    assert_eq!(split_effect.recomputed_states, effect.recomputed_states);
    for u in 0..1000 {
        assert_eq!(whole.index().state(u), split.index().state(u), "node {u}");
    }
    // Bitwise: flattened back to one shard, both save the same bytes, but
    // for the two builds' timings (the first 32 of the 56 trailing stats
    // bytes).
    split.reshard(1);
    let saved = |engine: &ReverseTopkEngine| {
        let mut bytes = Vec::new();
        engine.save(&mut bytes).unwrap();
        let timings = bytes.len() - 56;
        bytes[timings..timings + 32].fill(0);
        bytes
    };
    assert!(saved(&whole) == saved(&split), "the repartitioned index saves other bytes");
}

/// Error paths stay loud and side-effect-free: a rejected update (unknown
/// node, missing edge, last out-edge) leaves the index digest untouched.
#[test]
fn rejected_updates_leave_the_engine_untouched() {
    let (_, graph) = &test_graphs()[0];
    let mut live = build_engine(graph.clone(), 1);
    let n = live.node_count() as u32;
    let before = live.index_digest();

    assert!(live.add_edge(NodeId(n + 5), NodeId(0), 1.0).is_err(), "unknown tail must fail");
    assert!(live.remove_edge(NodeId(0), NodeId(n + 5)).is_err(), "unknown head must fail");
    // Find a node with exactly one out-edge by removing down to it, on a
    // scratch engine — here, just pick a definitely-absent edge.
    let absent = (0..n)
        .flat_map(|f| (0..n).map(move |t| (f, t)))
        .find(|&(f, t)| !live.graph().has_edge(f, t))
        .expect("test graph is sparse");
    assert!(live.remove_edge(NodeId(absent.0), NodeId(absent.1)).is_err());

    assert_eq!(before, live.index_digest(), "a rejected update must not mutate the index");
}

/// Weights that are each valid can still leave a row that does not
/// normalize: two `1e308`s on one edge accumulate to `inf`, the row's
/// probabilities become `NaN`, and the next query used to panic in a pool
/// worker. The second add is refused before anything mutates — graph, index,
/// and (over the wire) the update log — and the engine keeps answering.
#[test]
fn weights_that_break_normalisation_are_refused_before_mutating() {
    use rtk_server::{Client, Server, ServerConfig};

    let (_, graph) = &test_graphs()[1];
    let mut live = build_engine(graph.clone(), 1);
    // A non-hub source: hubs park ink instead of pushing along their row.
    let hubs = live.index().hub_matrix().hubs().ids().to_vec();
    let from = (0..live.node_count() as u32).find(|u| !hubs.contains(u)).unwrap();
    let to = live.graph().out_neighbors(from)[0];

    live.add_edge(NodeId(from), NodeId(to), 1e308)
        .expect("one huge weight still normalizes");
    let graph_before = live.graph().clone();
    let digest_before = live.index_digest();
    let answer = live.query_with(NodeId(to), 2, &frozen(1)).unwrap();

    let err = live
        .add_edge(NodeId(from), NodeId(to), 1e308)
        .expect_err("the row would sum to inf");
    assert!(err.to_string().contains("invalid weight"), "{err}");
    assert_eq!(live.graph(), &graph_before, "a refused update must not touch the graph");
    assert_eq!(live.index_digest(), digest_before, "nor the index");
    let again = live.query_with(NodeId(to), 2, &frozen(2)).expect("the engine still answers");
    assert_eq!(answer.nodes(), again.nodes());
    assert_eq!(bits(answer.proximities()), bits(again.proximities()));

    // The same two requests over the wire: one log record, one error reply,
    // and the read path stays up.
    let dir = std::env::temp_dir().join("rtk_test_refused_weight");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("updates.rtkl");
    let config = ServerConfig { workers: 2, update_log: Some(log.clone()), ..Default::default() };
    let server = Server::bind(build_engine(graph.clone(), 1), "127.0.0.1:0", config)
        .expect("bind")
        .spawn();
    let mut client = Client::connect(server.addr()).expect("connect");
    client.add_edge(from, to, 1e308).expect("first add");
    client.add_edge(from, to, 1e308).expect_err("second add must be refused");
    let logged = rtk_index::storage::load_update_log(&log).expect("log");
    assert_eq!(logged, vec![UpdateRecord::AddEdge { from, to, weight: 1e308 }]);
    let served = client.reverse_topk(to, 2, false).expect("the server still answers");
    assert_eq!(served.nodes, answer.nodes());
    client.shutdown().expect("shutdown");
    server.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// Splices `record` into `graph` alone (no index), as the engine does.
fn splice(graph: &mut DiGraph, record: &UpdateRecord) {
    match *record {
        UpdateRecord::AddEdge { from, to, weight } => graph.add_edge(from, to, weight),
        UpdateRecord::RemoveEdge { from, to } => graph.remove_edge(from, to),
    }
    .map(drop)
    .unwrap_or_else(|e| panic!("{record:?}: {e}"));
}

/// A 200-record log whose first records are the cases a coalesced replay
/// must get right — a hub source, an edge added and then removed again,
/// weight accumulated onto an existing edge, a source repeated — followed by
/// the seeded stream over the graph those leave.
fn crafted_log(graph: &DiGraph, hub: u32, seed: u64) -> Vec<UpdateRecord> {
    let n = graph.node_count() as u32;
    let from = (0..n).find(|&u| u != hub && graph.out_neighbors(u).len() < n as usize).unwrap();
    let kept = graph.out_neighbors(from)[0];
    let fresh = (0..n).find(|&v| !graph.has_edge(from, v)).unwrap();
    let mut records = vec![
        UpdateRecord::AddEdge { from: hub, to: (hub + 1) % n, weight: 0.5 },
        UpdateRecord::AddEdge { from, to: fresh, weight: 1.5 },
        UpdateRecord::AddEdge { from, to: kept, weight: 0.75 },
        UpdateRecord::RemoveEdge { from, to: fresh },
    ];
    let mut after = graph.clone();
    records.iter().for_each(|r| splice(&mut after, r));
    records.extend(update_sequence(&after, seed, 196));
    records
}

fn saved(engine: &ReverseTopkEngine) -> Vec<u8> {
    let mut bytes = Vec::new();
    engine.save(&mut bytes).unwrap();
    bytes
}

/// Asserts two engines hold the same graph, hub matrix and states, naming
/// the first node that differs, and save the same bytes.
fn assert_same_engine(a: &ReverseTopkEngine, b: &ReverseTopkEngine, what: &str) {
    assert_eq!(a.graph(), b.graph(), "{what}: graph");
    assert_eq!(a.index().hub_matrix(), b.index().hub_matrix(), "{what}: hub matrix");
    for u in a.index().owned_range() {
        assert_eq!(a.index().state(u), b.index().state(u), "{what}: state {u} differs");
    }
    assert!(saved(a) == saved(b), "{what}: saved bytes differ");
    assert_eq!(a.index_digest(), b.index_digest(), "{what}: digest");
}

/// One recompute for a whole log is byte for byte the record-by-record
/// replay: for logs of 1, 2, 8, 50 and 200 records over ER and R-MAT, at
/// ω = 0 and ω = 1e-6, on the built engine (whose as-built bits let runs be
/// kept), on its snapshot loaded whole, and on every one-shard load of that
/// 3-shard snapshot. Update-mode queries commit refined states before the
/// snapshot is taken, so some states start refined and some as built.
#[test]
fn one_recompute_per_log_equals_one_per_record() {
    let update_mode = QueryOptions { update_index: true, query_threads: 1, ..Default::default() };
    for (label, graph) in test_graphs() {
        for omega in [0.0, 1e-6] {
            let mut built = ReverseTopkEngine::builder(graph.clone())
                .max_k(4)
                .hubs_per_direction(4)
                .threads(2)
                .rounding_threshold(omega)
                .shards(3)
                .build()
                .unwrap();
            for (q, k) in (0..6).flat_map(|step| probe_queries(step, graph.node_count(), 4)) {
                built.query_with(NodeId(q), k, &update_mode).unwrap();
            }
            let hub = built.index().hub_matrix().hubs().ids()[0];
            let log = crafted_log(&graph, hub, 31);
            let snapshot = saved(&built);

            let whole_built = || {
                ReverseTopkEngine::from_parts(built.graph().clone(), built.index().clone()).unwrap()
            };
            let whole_loaded = || ReverseTopkEngine::load(snapshot.as_slice()).unwrap();
            let shard_loaded = |sid: usize| {
                let (g, index) =
                    rtk_index::storage::load_one_shard(snapshot.as_slice(), sid).unwrap();
                ReverseTopkEngine::from_parts(g, index).unwrap()
            };
            let starts: Vec<(String, Box<dyn Fn() -> ReverseTopkEngine + '_>)> = vec![
                ("built".into(), Box::new(whole_built)),
                ("loaded".into(), Box::new(whole_loaded)),
                ("shard 0".into(), Box::new(move || shard_loaded(0))),
                ("shard 1".into(), Box::new(move || shard_loaded(1))),
                ("shard 2".into(), Box::new(move || shard_loaded(2))),
            ];
            for (start, make) in &starts {
                let mut stepped = make();
                let mut applied = 0;
                for len in [1usize, 2, 8, 50, 200] {
                    for record in &log[applied..len] {
                        stepped.replay_updates(std::slice::from_ref(record)).unwrap();
                    }
                    applied = len;
                    let mut coalesced = make();
                    let effect = coalesced.replay_updates(&log[..len]).unwrap();
                    assert!(effect.recomputed_states <= coalesced.index().owned_range().len());
                    let what = format!("{label} ω={omega} {start}, {len} records");
                    assert_same_engine(&stepped, &coalesced, &what);
                }
            }
        }
    }
}

/// A log that fails at record `k` leaves the engine byte-equal to `k`
/// one-record replays and returns the error the `k + 1`-th would: the
/// records before it are spliced and recomputed, the failing one touches
/// nothing. Covers an absent edge, a node's last out-edge, an out-of-range
/// node, and a failure at `k = 0`.
#[test]
fn a_log_failing_at_record_k_keeps_the_prefix() {
    for (label, graph) in test_graphs() {
        let n = graph.node_count() as u32;
        let built = build_engine(graph.clone(), 1);
        let snapshot = saved(&built);
        let prefix = update_sequence(&graph, 5, 12);
        let mut after = graph.clone();
        prefix.iter().for_each(|r| splice(&mut after, r));

        let absent = (0..n)
            .flat_map(|f| (0..n).map(move |t| (f, t)))
            .find(|&(f, t)| !after.has_edge(f, t))
            .unwrap();
        // Strip one node down to its last out-edge; removing that is refused.
        let node = (0..n).max_by_key(|&u| after.out_neighbors(u).len()).unwrap();
        let targets = after.out_neighbors(node).to_vec();
        let mut dangling = prefix.clone();
        dangling.extend(targets.iter().map(|&to| UpdateRecord::RemoveEdge { from: node, to }));
        let with = |bad: UpdateRecord| {
            let mut log = prefix.clone();
            log.push(bad);
            log
        };
        let cases: Vec<(&str, Vec<UpdateRecord>, usize, &str)> = vec![
            (
                "absent edge",
                with(UpdateRecord::RemoveEdge { from: absent.0, to: absent.1 }),
                prefix.len(),
                "does not exist",
            ),
            ("last out-edge", dangling.clone(), dangling.len() - 1, "dangling"),
            (
                "out-of-range node",
                with(UpdateRecord::AddEdge { from: n + 3, to: 0, weight: 1.0 }),
                prefix.len(),
                "out of range",
            ),
            (
                "k = 0",
                [&[UpdateRecord::RemoveEdge { from: absent.0, to: absent.1 }], &prefix[..]]
                    .concat(),
                0,
                "does not exist",
            ),
        ];
        for (case, log, k, message) in cases {
            let mut coalesced = ReverseTopkEngine::load(snapshot.as_slice()).unwrap();
            let err = coalesced.replay_updates(&log).expect_err("the log must fail");

            let mut stepped = ReverseTopkEngine::load(snapshot.as_slice()).unwrap();
            for record in &log[..k] {
                stepped.replay_updates(std::slice::from_ref(record)).unwrap();
            }
            let step_err = stepped
                .replay_updates(std::slice::from_ref(&log[k]))
                .expect_err("record k fails");
            assert_eq!(err.to_string(), step_err.to_string(), "{label} {case}");
            assert!(err.to_string().to_lowercase().contains(message), "{label} {case}: {err}");
            let what = format!("{label} {case}, failing at record {k}");
            assert_same_engine(&stepped, &coalesced, &what);
            if k > 0 {
                // The prefix was recomputed, not only spliced: the engine
                // equals a pinned-hub rebuild of the graph it reached.
                let hubs = coalesced.index().hub_matrix().hubs().ids().to_vec();
                let rebuilt = ReverseTopkEngine::builder(coalesced.graph().clone())
                    .max_k(4)
                    .hub_selection(HubSelection::Explicit(hubs))
                    .threads(1)
                    .rounding_threshold(0.0)
                    .build()
                    .unwrap();
                assert_eq!(coalesced.index().hub_matrix(), rebuilt.index().hub_matrix());
                for u in 0..n {
                    assert_eq!(coalesced.index().state(u), rebuilt.index().state(u), "{what}");
                }
            } else {
                assert!(saved(&coalesced) == snapshot, "{what}: the engine moved");
            }
        }
    }
}
