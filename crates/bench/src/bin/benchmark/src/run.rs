//! One run of one workload: generate the inputs, set up, time the operations,
//! check the answers, and reduce everything to named metrics.

use crate::gen::{self, GraphInput, Rng};
use crate::layers;
use crate::load::{self, OpRecord};
use crate::spans::Recorder;
use crate::stats::{median, percentile, percentile_window};
use crate::tier::{self, Answer, Conn, Shape, Tier};
use rtk_core::graph::NodeId;
use rtk_core::index::storage::load_update_log;
use rtk_core::index::{IndexStats, UpdateRecord};
use rtk_core::query::query::TIE_EPSILON;
use rtk_core::ReverseTopkEngine;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    LocalFrozen,
    ServedOpen,
    RoutedClosed,
    UpdateMix,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::LocalFrozen, Kind::ServedOpen, Kind::RoutedClosed, Kind::UpdateMix];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LocalFrozen => "local_frozen",
            Kind::ServedOpen => "served_open",
            Kind::RoutedClosed => "routed_closed",
            Kind::UpdateMix => "update_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// (compute threads, generator connections) on `cores`; `update_mix` is
    /// one serial connection.
    fn threads(self, cores: usize) -> (usize, usize) {
        self.shape().threads(cores, self == Kind::UpdateMix)
    }

    fn shape(self) -> Shape {
        match self {
            Kind::LocalFrozen => Shape::Local,
            Kind::ServedOpen | Kind::UpdateMix => Shape::Single,
            Kind::RoutedClosed => Shape::Routed,
        }
    }
}

/// Sizes of everything a run does. `--seconds` scales the number of
/// operations (nominal rate x seconds, the rates taken on the reference
/// host), it is not a deadline: the same seed and seconds always give the
/// same operations, so every count repeats exactly.
#[derive(Clone, Debug)]
pub struct Profile {
    /// (nodes, edges) of every generated graph.
    pub graph: (usize, usize),
    /// Query rounds per pass over all nodes (see `gen::query_rounds`).
    pub stride: usize,
    /// Rounds per block. Latency and throughput are taken per block and the
    /// mean of the middle half of the blocks is reported, so a burst of noise
    /// on the host, or one unlucky collision of two hub queries, moves no
    /// metric.
    pub block_rounds: usize,
    /// Nominal operations per second of the closed loops on the reference
    /// host; with `--seconds` they size the timed phase in whole blocks.
    pub local_ops_per_s: f64,
    pub routed_ops_per_s: f64,
    pub update_ops_per_s: f64,
    /// Arrival rate of the untraced `served_open` run, requests/s.
    pub open_rate: f64,
    /// Arrival rates of the traced run's ladder, a third of the time each.
    pub ladder: [f64; 3],
    /// An untraced run is this many passes, each on its own graph with its
    /// own set-up, for its share of the time: set-up time is a median, and
    /// what one graph's heavy nodes happen to cost moves the run less (over
    /// graphs the 95th percentile of one pass varies by a fifth).
    pub passes: usize,
    /// Add/remove pairs sent after the timed phase of a frozen workload.
    pub edit_pairs: usize,
    /// Timed answers per run compared bit for bit with the in-process answer.
    pub sampled_answers: usize,
    /// Of those, answers per run checked against the brute-force definition.
    pub oracle_queries: usize,
    /// Operations per layer probe in the traced run.
    pub probe_ops: usize,
}

impl Profile {
    pub fn full() -> Self {
        Profile {
            graph: (1000, 6000),
            stride: 20,
            block_rounds: 4,
            local_ops_per_s: 300.0,
            routed_ops_per_s: 240.0,
            update_ops_per_s: 220.0,
            open_rate: 300.0,
            ladder: [300.0, 600.0, 900.0],
            passes: 8,
            edit_pairs: 2,
            sampled_answers: 100,
            oracle_queries: 8,
            probe_ops: 50,
        }
    }

    /// A toy graph and tens of requests: keeps the harness compiling and
    /// running under `cargo test`; its numbers mean nothing.
    pub fn quick() -> Self {
        Profile {
            graph: (300, 1500),
            stride: 10,
            block_rounds: 1,
            local_ops_per_s: 180.0,
            routed_ops_per_s: 180.0,
            update_ops_per_s: 300.0,
            open_rate: 180.0,
            ladder: [90.0, 180.0, 270.0],
            passes: 2,
            edit_pairs: 1,
            sampled_answers: 30,
            oracle_queries: 3,
            probe_ops: 10,
        }
    }

    /// Operations per block: whole rounds for the frozen streams, two
    /// add/remove cycles for `update_mix`.
    fn block_ops(&self, kind: Kind) -> usize {
        if kind == Kind::UpdateMix {
            2 * UPDATE_CYCLE
        } else {
            self.block_rounds * self.graph.0.div_ceil(self.stride)
        }
    }
}

/// One node in this many counts as a hub: the highest in-degree 2 %, whose
/// queries cost a hundred times the median query.
const HUB_SHARE: usize = 50;

/// `update_mix`: operations per add/remove cycle.
const UPDATE_CYCLE: usize = 100;

#[derive(Clone, Debug)]
pub enum Op {
    Query { q: u32, update: bool },
    Edge(UpdateRecord),
}

/// A stretch of operations driven at one rate (`None`: closed loop).
#[derive(Clone, Debug)]
struct Phase {
    ops: std::ops::Range<usize>,
    rate: Option<f64>,
}

struct Plan {
    ops: Vec<Op>,
    phases: Vec<Phase>,
    /// Edge updates sent through the front door after the timed phase.
    epilogue: Vec<UpdateRecord>,
    /// Timed query operations whose answer is compared with the reference.
    sampled: Vec<usize>,
}

const SEED_STREAM: u64 = 0x5152_4541_4d5f_5f31;
const SEED_EDITS: u64 = 0x4544_4954_535f_5f31;
const SEED_SAMPLE: u64 = 0x5341_4d50_4c45_5f31;

fn plan(
    kind: Kind,
    input: &GraphInput,
    seed: u64,
    seconds: f64,
    traced: bool,
    p: &Profile,
) -> Plan {
    let block = p.block_ops(kind);
    let whole_blocks =
        |ops_per_s: f64| block * ((ops_per_s * seconds / block as f64).round() as usize).max(1);
    let hubs = input.nodes / HUB_SHARE;
    let skipped = if kind == Kind::ServedOpen { hubs } else { 0 };
    let rounds = gen::query_rounds(input, p.stride, skipped, seed ^ SEED_STREAM);
    let stream = |total: usize| -> Vec<Op> {
        rounds
            .iter()
            .cycle()
            .flatten()
            .take(total)
            .map(|&q| Op::Query { q, update: false })
            .collect()
    };
    let closed = |ops: Vec<Op>| {
        let all = 0..ops.len();
        (ops, vec![Phase { ops: all, rate: None }])
    };
    let (ops, phases) = match kind {
        Kind::LocalFrozen => closed(stream(whole_blocks(p.local_ops_per_s))),
        Kind::RoutedClosed => closed(stream(whole_blocks(p.routed_ops_per_s))),
        // The traced run climbs the ladder, a third of the time on each rung.
        Kind::ServedOpen if traced => {
            let counts = p.ladder.map(|rate| ((rate * seconds / 3.0).round() as usize).max(1));
            let mut at = 0;
            let rungs = p.ladder.into_iter().zip(counts).map(|(rate, n)| {
                at += n;
                Phase { ops: at - n..at, rate: Some(rate) }
            });
            (stream(counts.iter().sum()), rungs.collect())
        }
        Kind::ServedOpen => {
            let ops = stream(whole_blocks(p.open_rate));
            let all = 0..ops.len();
            (ops, vec![Phase { ops: all, rate: Some(p.open_rate) }])
        }
        // Operation 49 of every cycle of 100 adds a seeded edge and operation
        // 99 removes it again, so the graph never drifts. Of the rest one in
        // three is a frozen query, the others run in the paper's update mode.
        Kind::UpdateMix => {
            let total = whole_blocks(p.update_ops_per_s);
            let hot = gen::query_rounds(input, p.stride, hubs, seed ^ SEED_STREAM)
                [..p.block_rounds]
                .concat();
            let queries =
                gen::hot_cold_stream(&hot, &rounds.concat(), total, seed ^ SEED_STREAM ^ 1);
            let edits = gen::edge_edits(input, total / UPDATE_CYCLE, seed ^ SEED_EDITS);
            closed(
                queries
                    .into_iter()
                    .enumerate()
                    .map(|(i, q)| {
                        let (from, to) = edits[i / UPDATE_CYCLE];
                        match i % UPDATE_CYCLE {
                            49 => Op::Edge(UpdateRecord::AddEdge { from, to, weight: 1.0 }),
                            99 => Op::Edge(UpdateRecord::RemoveEdge { from, to }),
                            _ => Op::Query { q, update: i % 3 != 0 },
                        }
                    })
                    .collect(),
            )
        }
    };
    // The frozen workloads send their edge updates after the timed phase.
    let pairs = if kind == Kind::UpdateMix { 0 } else { p.edit_pairs };
    let epilogue = gen::edge_edits(input, pairs, seed ^ SEED_EDITS)
        .into_iter()
        .flat_map(|(from, to)| {
            [UpdateRecord::AddEdge { from, to, weight: 1.0 }, UpdateRecord::RemoveEdge { from, to }]
        })
        .collect();
    // Only answers given while the graph is the generated one can be compared
    // with the reference engine: in `update_mix`, those outside an add/remove
    // window.
    let comparable: Vec<usize> = (0..ops.len())
        .filter(|&i| {
            let edited = kind == Kind::UpdateMix && (49..99).contains(&(i % UPDATE_CYCLE));
            matches!(ops[i], Op::Query { .. }) && !edited
        })
        .collect();
    let per_pass = p.sampled_answers.div_ceil(pass_count(p, traced));
    let sampled = gen::sample_indices(comparable.len(), per_pass, seed ^ SEED_SAMPLE)
        .into_iter()
        .map(|i| comparable[i])
        .collect();
    Plan { ops, phases, epilogue, sampled }
}

/// A scratch directory inside the checkout, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(kind: Kind, seed: u64) -> Result<Self, String> {
        // Unique among concurrent runs, in this process (tests) or another.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let serial = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = PathBuf::from(".bench_tmp").join(format!(
            "{}-{seed}-{}-{serial}",
            kind.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {path:?}: {e}"))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly if another run is live.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// What is read off the engine before it moves into its tier.
pub struct EngineFacts {
    pub index_bytes: usize,
    pub edges: usize,
    pub build: IndexStats,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric { name: name.to_string(), value, unit }
    }
}

pub struct Report {
    pub kind: Kind,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable lines (gate failures, rung table, self times).
    pub notes: Vec<String>,
}

/// Everything the traced run hands to the per-layer reduction.
pub struct Traced<'a> {
    pub kind: Kind,
    pub seed: u64,
    pub profile: &'a Profile,
    pub dir: &'a Path,
    pub facts: &'a EngineFacts,
    pub ops: &'a [Op],
    pub rungs: Vec<Rung>,
    pub answers: Vec<&'a Answer>,
    /// Latency of every timed query, pooled (not per block).
    pub query_ms: Vec<f64>,
    pub recorder: &'a Recorder,
    pub stats: Option<&'a rtk_server::StatsSnapshot>,
    pub recovery: Recovery,
    /// Index heap bytes before and after the workload.
    pub bytes_before: usize,
    pub bytes_after: usize,
    /// Latencies of the probe prefix through the workload's own front door,
    /// one connection, closed loop.
    pub front_probe_ms: Vec<f64>,
}

/// One open-loop rung, as printed.
#[derive(Clone, Debug)]
pub struct Rung {
    pub offered: f64,
    pub achieved: f64,
    pub requests: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub wait_p95_ms: f64,
    pub late_max_ms: f64,
}

impl Rung {
    /// The latency limit a rate must meet to count as sustained: p95 from
    /// the due time within 500 ms, at least 97 % of the offered rate
    /// achieved (no growing backlog), nothing failed.
    pub fn ok(&self) -> bool {
        self.p95_ms <= 500.0 && self.achieved >= 0.97 * self.offered && self.failed == 0
    }
}

pub struct Recovery {
    pub load_s: f64,
    pub replay_s: f64,
    pub records: Vec<UpdateRecord>,
    pub engine: ReverseTopkEngine,
}

fn seed_snapshot(dir: &Path) -> PathBuf {
    dir.join("seed.snapshot")
}

/// One set-up: generate the graph, build the index, start the tier, and
/// prove a request could be sent. Saving the seed snapshot sits between the
/// two timed stretches, it is not part of what a user waits for.
fn set_up(
    kind: Kind,
    seed: u64,
    p: &Profile,
    dir: &Path,
    cores: usize,
) -> Result<(Tier, f64, EngineFacts), String> {
    let (nodes, edges) = p.graph;
    let shape = kind.shape();
    let started = Instant::now();
    let graph = gen::graph(nodes, edges, seed).graph;
    let engine = tier::build_engine(graph, shape.shards())?;
    let mut setup_s = started.elapsed().as_secs_f64();

    let facts = EngineFacts {
        index_bytes: engine.index().current_bytes(),
        edges: engine.graph().edge_count(),
        build: *engine.index_stats(),
    };
    let file = std::fs::File::create(seed_snapshot(dir)).map_err(|e| e.to_string())?;
    let mut writer = std::io::BufWriter::new(file);
    engine.save(&mut writer).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut writer).map_err(|e| e.to_string())?;
    // A log from an earlier set-up of this run would be replayed twice.
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
        if entry.path().extension().is_some_and(|x| x == "ulog") {
            std::fs::remove_file(entry.path()).map_err(|e| e.to_string())?;
        }
    }

    let started = Instant::now();
    let tier = Tier::start(shape, engine, dir, cores)?;
    drop(tier.connect()?);
    setup_s += started.elapsed().as_secs_f64();
    Ok((tier, setup_s, facts))
}

fn load_snapshot(path: &Path) -> Result<ReverseTopkEngine, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
    ReverseTopkEngine::load(std::io::BufReader::new(file))
        .map_err(|e| format!("load {path:?}: {e}"))
}

fn execute(conn: &mut Conn<'_>, op: &Op, traced: bool) -> Result<Option<Answer>, String> {
    match op {
        Op::Query { q, update } => conn.query(*q, *update, traced).map(Some),
        Op::Edge(record) => tier::remote_edge_update(conn.client(), record).map(|()| None),
    }
}

/// Records the spans of one finished operation: the request from its due
/// time, the wait for a free connection, the call, and inside the call
/// whatever span tree the program reported (placed at the end of the call:
/// the reply leaves as soon as the engine is done).
fn record_spans(rec: &mut Recorder, r: &OpRecord<Option<Answer>>) {
    let request = r.index as u64;
    let root = Some(rec.record("request", r.due, r.done, None, request));
    if r.sent > r.due {
        rec.record("generator.wait", r.due, r.sent, root, request);
    }
    let call = Some(rec.record("client.call", r.sent, r.done, root, request));
    if let Ok(Some(Answer { trace: Some(trace), .. })) = &r.reply {
        let start = (r.done - trace.duration_seconds).max(r.sent);
        rec.record_wire_trace(trace, start, call, request);
    }
}

/// The process's resident-memory high-water mark. glibc gives nothing back,
/// so the mark only ever creeps up: by the end of a run it has gathered what
/// every pass's checks, reloaded snapshots and fragmentation added (ten-seed
/// spread 0.11 to 0.18 on the served tiers). Read when the first pass's timed
/// phase ends, it is what building the index and serving cost (0.02 to 0.03;
/// 0.16 on `update_mix`, where the same seed reads 27 to 36 MiB: how the
/// recomputing threads' scratch memory overlaps in time).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The two sides of the definition for one node: `p_u(q)`, and the k-th
/// largest proximity from `u`.
pub fn proximity_and_kth(engine: &ReverseTopkEngine, u: u32, q: u32) -> Result<(f64, f64), String> {
    let mut from_u = engine.proximities_from(NodeId(u)).map_err(|e| e.to_string())?;
    let to_q = from_u[q as usize];
    from_u.sort_by(|a, b| b.total_cmp(a));
    Ok((to_q, from_u[tier::K - 1]))
}

/// Membership of sampled nodes in the answer, checked against the
/// definition: `u` is in the reverse top-k of `q` iff `p_u(q)` reaches the
/// k-th largest proximity from `u`. Returns the number of violations.
fn oracle_violations(
    reference: &ReverseTopkEngine,
    answer: &Answer,
    rng: &mut Rng,
) -> Result<usize, String> {
    let slack = 10.0 * TIE_EPSILON;
    let n = reference.node_count();
    // Every answer node (a seeded 64 of them when there are more) and 32
    // seeded nodes outside the answer.
    let mut members = answer.nodes.clone();
    rng.shuffle(&mut members);
    members.truncate(64);
    let mut outsiders = Vec::new();
    while outsiders.len() < 32.min(n - answer.nodes.len()) {
        let u = rng.below(n) as u32;
        if !answer.nodes.contains(&u) && !outsiders.contains(&u) {
            outsiders.push(u);
        }
    }
    let mut violations = 0;
    for (u, is_member) in
        members.iter().map(|&u| (u, true)).chain(outsiders.iter().map(|&u| (u, false)))
    {
        let (to_q, kth) = proximity_and_kth(reference, u, answer.query)?;
        let wrong =
            if is_member { to_q < kth - slack } else { to_q > slack && to_q >= kth + slack };
        violations += usize::from(wrong);
    }
    Ok(violations)
}

#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub traced: bool,
    /// Where the traced run writes its spans, one JSON object per line.
    pub trace_out: Option<PathBuf>,
    /// Alter every sampled reference answer before comparing: the
    /// correctness gate's own test.
    pub corrupt_sampled: bool,
}

/// The traced run reports no set-up time: one pass, all of the time.
fn pass_count(profile: &Profile, traced: bool) -> usize {
    if traced {
        1
    } else {
        profile.passes
    }
}

/// Throughput and latency of one block of the timed phase.
struct Block {
    ops_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
}

/// What one pass (one graph, one set-up, one timed phase) yields.
struct Pass {
    setup_s: f64,
    index_mib: f64,
    recovery_s: f64,
    /// When the timed phase ended.
    peak_rss_mib: f64,
    blocks: Vec<Block>,
    edge_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    gate_failures: u64,
    /// The traced pass's per-layer metrics.
    layers: Vec<Metric>,
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    profile: &Profile,
    options: &Options,
) -> Result<Report, String> {
    let cores = tier::nproc();
    let (compute, connections) = kind.threads(cores);
    tier::check_threads(compute, connections, cores)?;
    let work_dir = WorkDir::create(kind, seed)?;
    let mut notes = Vec::new();

    let count = pass_count(profile, options.traced);
    let mut graph_seeds = Rng::new(seed);
    let mut passes = Vec::new();
    for _ in 0..count {
        let graph_seed = graph_seeds.next_u64();
        let share = seconds / count as f64;
        passes.push(pass(kind, graph_seed, share, profile, options, &work_dir.0, &mut notes)?);
    }

    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let gate_failures: u64 = passes.iter().map(|p| p.gate_failures).sum();
    let metrics = if options.traced {
        passes.pop().expect("one traced pass").layers
    } else {
        let over_passes = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        // The mean of the middle half: as deaf to a burst as the median, and
        // steadier where the blocks of different graphs sit at different levels.
        let over_blocks = |f: fn(&Block) -> f64| {
            let blocks: Vec<f64> = passes.iter().flat_map(|p| &p.blocks).map(f).collect();
            percentile_window(&blocks, 25.0, 75.0)
        };
        let edge_ms: Vec<f64> = passes.iter().flat_map(|p| &p.edge_ms).copied().collect();
        notes.push(format!(
            "{} passes, {} blocks behind every block figure, {} edge updates",
            passes.len(),
            passes.iter().map(|p| p.blocks.len()).sum::<usize>(),
            edge_ms.len()
        ));
        vec![
            Metric::new("setup_s", over_passes(|p| p.setup_s), "s"),
            Metric::new("ops_per_s", over_blocks(|b| b.ops_per_s), "1/s"),
            Metric::new("p50_ms", over_blocks(|b| b.p50_ms), "ms"),
            Metric::new("p95_ms", over_blocks(|b| b.p95_ms), "ms"),
            Metric::new("edge_update_ms", median(&edge_ms), "ms"),
            Metric::new("recovery_s", over_passes(|p| p.recovery_s), "s"),
            Metric::new("index_mib", over_passes(|p| p.index_mib), "MiB"),
            Metric::new("peak_rss_mib", passes[0].peak_rss_mib, "MiB"),
        ]
    };
    Ok(Report {
        kind,
        attempted,
        failed,
        correct: failed == 0 && gate_failures == 0,
        metrics,
        notes,
    })
}

fn pass(
    kind: Kind,
    seed: u64,
    seconds: f64,
    profile: &Profile,
    options: &Options,
    dir: &Path,
    notes: &mut Vec<String>,
) -> Result<Pass, String> {
    let traced = options.traced;
    let cores = tier::nproc();
    let shape = kind.shape();
    let (_, connections) = kind.threads(cores);
    let mut gate_failures = 0u64;

    let (nodes, edges) = profile.graph;
    let input = gen::graph(nodes, edges, seed);
    let plan = plan(kind, &input, seed, seconds, traced, profile);
    let query_node = |op: &Op| match op {
        Op::Query { q, .. } => Some(*q),
        Op::Edge(_) => None,
    };

    let (mut tier, setup_s, facts) = set_up(kind, seed, profile, dir, cores)?;
    let bytes_before = tier.index_bytes()?;

    // Timed phase. Connections are opened and a few queries sent beforehand:
    // a user of a running service pays neither.
    let origin = Instant::now();
    let mut records: Vec<OpRecord<Option<Answer>>> = Vec::with_capacity(plan.ops.len());
    {
        let mut conns: Vec<Conn<'_>> =
            (0..connections).map(|_| tier.connect()).collect::<Result<_, _>>()?;
        for conn in &mut conns {
            for q in plan.ops.iter().filter_map(query_node).take(8) {
                conn.query(q, false, false)?;
            }
        }
        for phase in &plan.phases {
            let ops = &plan.ops[phase.ops.clone()];
            let (mut phase_records, back) =
                load::drive(conns, ops.len(), phase.rate, origin, |conn, i| {
                    execute(conn, &ops[i], traced)
                });
            conns = back;
            phase_records.iter_mut().for_each(|r| r.index += phase.ops.start);
            records.extend(phase_records);
        }
    }
    let peak_rss_mib = peak_rss_mib()?;
    let is_query = |r: &OpRecord<Option<Answer>>| matches!(plan.ops[r.index], Op::Query { .. });
    let reference = load_snapshot(&seed_snapshot(dir))?;

    // Failures: errors and refusals, replies that do not echo the request,
    // and sampled answers that differ from the in-process answer in any node
    // or any proximity bit.
    let mut failed = 0u64;
    for r in &records {
        let echoed = match (&r.reply, &plan.ops[r.index]) {
            (Err(e), _) => {
                notes.push(format!("op {} failed: {e}", r.index));
                false
            }
            (Ok(Some(a)), Op::Query { q, .. }) => a.query == *q,
            (Ok(None), Op::Edge(_)) => true,
            _ => false,
        };
        failed += u64::from(!echoed);
    }
    for &i in &plan.sampled {
        let (Ok(Some(got)), Some(q)) = (&records[i].reply, query_node(&plan.ops[i])) else {
            continue;
        };
        let mut want = tier::local_query(&reference, q, 0, false)?;
        if options.corrupt_sampled {
            want.proximity_bits.push(0);
        }
        if !got.same_result(&want) {
            notes.push(format!("op {i}: the answer for q={q} differs from the in-process answer"));
            failed += 1;
        }
    }

    // Edge updates through the front door. `update_mix` has them in its
    // stream; the frozen workloads send a few afterwards, so that every
    // deployment shape reports what a writer pays.
    let mut edge_ms: Vec<f64> = records
        .iter()
        .filter(|r| matches!(plan.ops[r.index], Op::Edge(_)))
        .map(OpRecord::latency_ms)
        .collect();
    for outcome in tier.edge_updates(&plan.epilogue, dir)? {
        match outcome {
            Ok(ms) => edge_ms.push(ms),
            Err(e) => {
                notes.push(format!("edge update failed: {e}"));
                failed += 1;
            }
        }
    }
    let attempted = (plan.ops.len() + plan.epilogue.len()) as u64;

    // What the live tier holds now: its digest, or for the routed tier
    // (whose digest folds per-shard digests) its answers. The same prefix
    // also gives the traced run the front door's one-connection latency.
    let probe_nodes: Vec<u32> = plan
        .sampled
        .iter()
        .filter_map(|&i| query_node(&plan.ops[i]))
        .take(profile.probe_ops)
        .collect();
    let mut live_answers = Vec::new();
    let mut front_probe_ms = Vec::new();
    if shape == Shape::Routed || traced {
        let mut conn = tier.connect()?;
        for &q in &probe_nodes {
            let started = Instant::now();
            live_answers.push(conn.query(q, false, false)?);
            front_probe_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    let stats = tier.stats()?;
    let bytes_after = tier.index_bytes()?;
    let mut persisted_digest = None;
    if shape == Shape::Single {
        let path = dir.join("persisted.snapshot");
        tier.connect()?
            .client()
            .persist(&path.to_string_lossy())
            .map_err(|e| e.to_string())?;
        persisted_digest = Some(load_snapshot(&path)?.index_digest());
    }
    let live_digest = match (tier.stop()?, &stats) {
        (Some(engine), _) => Some(engine.index_digest()),
        (None, Some(s)) if shape == Shape::Single => Some(s.index_digest),
        _ => None,
    };

    // Recovery: the seed snapshot plus the update log must reach the live
    // state.
    let started = Instant::now();
    let mut recovered = load_snapshot(&seed_snapshot(dir))?;
    let load_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let log =
        load_update_log(tier::update_log_path(dir)).map_err(|e| format!("update log: {e}"))?;
    recovered.replay_updates(&log).map_err(|e| format!("replay: {e}"))?;
    let replay_s = started.elapsed().as_secs_f64();
    if let Some(live) = live_digest {
        let reached = recovered.index_digest();
        if reached != live {
            notes.push(format!("recovery reached digest {reached:x}, the live index is {live:x}"));
            gate_failures += 1;
        }
        if persisted_digest.is_some_and(|d| d != live) {
            notes.push(format!("the persisted snapshot's digest differs from the live {live:x}"));
            gate_failures += 1;
        }
    } else {
        for live in &live_answers {
            if !tier::local_query(&recovered, live.query, 0, false)?.same_result(live) {
                notes.push(format!(
                    "the recovered engine answers q={} unlike the live tier",
                    live.query
                ));
                gate_failures += 1;
            }
        }
    }
    let sent_updates =
        plan.epilogue.len() + plan.ops.iter().filter(|o| matches!(o, Op::Edge(_))).count();
    if log.len() != sent_updates {
        notes.push(format!("the update log holds {} records, {sent_updates} were sent", log.len()));
        gate_failures += 1;
    }

    // The oracle, outside the timed phase: a few answers checked against
    // the definition on exact forward proximities.
    let mut rng = Rng::new(seed ^ SEED_SAMPLE ^ 1);
    for &i in plan
        .sampled
        .iter()
        .take(profile.oracle_queries.div_ceil(pass_count(profile, traced)))
    {
        if let Ok(Some(answer)) = &records[i].reply {
            let violations = oracle_violations(&reference, answer, &mut rng)?;
            if violations > 0 {
                notes.push(format!(
                    "op {i}: {violations} node(s) contradict the brute-force definition"
                ));
                gate_failures += violations as u64;
            }
        }
    }
    drop(reference);

    let mut layers = Vec::new();
    if traced {
        let mut recorder = Recorder::default();
        records.iter().for_each(|r| record_spans(&mut recorder, r));
        let rungs = plan
            .phases
            .iter()
            .filter(|p| p.rate.is_some())
            .map(|p| rung(p, &records))
            .collect();
        let traced = Traced {
            kind,
            seed,
            profile,
            dir,
            facts: &facts,
            ops: &plan.ops,
            rungs,
            answers: records.iter().filter_map(|r| r.reply.as_ref().ok()?.as_ref()).collect(),
            query_ms: records.iter().filter(|r| is_query(r)).map(OpRecord::latency_ms).collect(),
            recorder: &recorder,
            stats: stats.as_ref(),
            recovery: Recovery { load_s, replay_s, records: log, engine: recovered },
            bytes_before,
            bytes_after,
            front_probe_ms,
        };
        let (metrics, layer_failures) = layers::reduce(traced, notes)?;
        layers = metrics;
        gate_failures += layer_failures;
        if let Some(path) = &options.trace_out {
            recorder.write_jsonl(path).map_err(|e| format!("write {path:?}: {e}"))?;
        }
    }
    let blocks = records
        .chunks(profile.block_ops(kind))
        .map(|block| {
            // Open loop: completions over the block's span. Closed loop: the
            // callers are never idle, so the block's operations took the sum
            // of their latencies shared among the callers; unlike a wall
            // time this charges an operation that straddles a block boundary
            // to its own block only.
            let wall = if plan.phases[0].rate.is_some() {
                block.iter().map(|r| r.done).fold(0.0, f64::max)
                    - block.iter().map(|r| r.due).fold(f64::INFINITY, f64::min)
            } else {
                block.iter().map(|r| r.done - r.sent).sum::<f64>() / connections as f64
            };
            let query_ms: Vec<f64> =
                block.iter().filter(|r| is_query(r)).map(OpRecord::latency_ms).collect();
            Block {
                ops_per_s: block.len() as f64 / wall,
                p50_ms: percentile(&query_ms, 50.0),
                p95_ms: percentile_window(&query_ms, 92.5, 97.5),
            }
        })
        .collect();
    Ok(Pass {
        setup_s,
        index_mib: facts.index_bytes as f64 / (1024.0 * 1024.0),
        recovery_s: load_s + replay_s,
        peak_rss_mib,
        blocks,
        edge_ms,
        attempted,
        failed,
        gate_failures,
        layers,
    })
}

fn rung(phase: &Phase, records: &[OpRecord<Option<Answer>>]) -> Rung {
    let slice = &records[phase.ops.clone()];
    let latency: Vec<f64> = slice.iter().map(OpRecord::latency_ms).collect();
    let late: Vec<f64> = slice.iter().map(OpRecord::late_ms).collect();
    Rung {
        offered: phase.rate.unwrap_or(0.0),
        achieved: load::achieved_rate(slice),
        requests: slice.len(),
        failed: slice.iter().filter(|r| r.reply.is_err()).count(),
        p50_ms: percentile(&latency, 50.0),
        p95_ms: percentile(&latency, 95.0),
        wait_p95_ms: percentile(&late, 95.0),
        late_max_ms: late.iter().copied().fold(0.0, f64::max),
    }
}
