//! Seeded input generators owned by the benchmark.
//!
//! Nothing here calls into the crates under test except to hand the finished
//! edge list to `GraphBuilder`, so no change outside this directory can alter
//! the inputs a seed produces.

use rtk_core::graph::{DanglingPolicy, DiGraph, GraphBuilder};
use std::collections::HashSet;

/// SplitMix64: tiny, seedable, and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`), without modulo bias.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `edges` distinct directed R-MAT edges (no self-loops) over `nodes` nodes,
/// quadrant probabilities (0.57, 0.19, 0.19, 0.05): the heavy-tailed web-like
/// graphs the paper evaluates on.
pub fn rmat_edges(nodes: usize, edges: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(nodes >= 2 && edges <= nodes * (nodes - 1) / 4, "rmat: {edges} edges too dense");
    let scale = usize::BITS - (nodes - 1).leading_zeros();
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::with_capacity(edges * 2);
    let mut out = Vec::with_capacity(edges);
    while out.len() < edges {
        let (mut from, mut to) = (0usize, 0usize);
        for _ in 0..scale {
            let r = rng.unit();
            from = from << 1 | usize::from(r >= 0.76);
            to = to << 1 | usize::from((0.57..0.76).contains(&r) || r >= 0.95);
        }
        if from < nodes && to < nodes && from != to && seen.insert((from, to)) {
            out.push((from as u32, to as u32));
        }
    }
    out
}

/// The generated graph plus the adjacency the stream generators need.
pub struct GraphInput {
    pub nodes: usize,
    pub edges: Vec<(u32, u32)>,
    pub graph: DiGraph,
}

pub fn graph(nodes: usize, edges: usize, seed: u64) -> GraphInput {
    let edges = rmat_edges(nodes, edges, seed);
    // Nodes without out-edges get a self-loop, so every node can be queried.
    let graph = GraphBuilder::from_edges(nodes, &edges, DanglingPolicy::SelfLoop)
        .expect("generated edge list is valid");
    GraphInput { nodes, edges, graph }
}

/// Query rounds: a stratified form of "query nodes drawn uniformly".
///
/// A reverse top-k query on a hub costs a thousand times the median query,
/// so a plain uniform sample of a few hundred nodes has a throughput and a
/// tail that depend on how many hubs it happened to draw. Instead the nodes
/// are ranked by in-degree (the cheap predictor of that cost) and round `i`
/// takes every `stride`-th rank starting at offset `o_i`: each round is a
/// systematic sample across the whole cost range, each node is drawn once
/// per `stride` rounds (so the marginal distribution is uniform), and the
/// offsets `o_i = o_0 + i * step (mod stride)` with `step` near the golden
/// section of `stride` spread any prefix of rounds evenly over the ranks.
/// Inside a round the order is a seeded shuffle.
///
/// `skip_hubs` leaves that many of the highest in-degree nodes out of every
/// round (see `served_open` in the README).
pub fn query_rounds(
    input: &GraphInput,
    stride: usize,
    skip_hubs: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
    assert!(stride >= 1 && skip_hubs + stride <= input.nodes);
    let mut ranked = by_in_degree(input);
    ranked.drain(..skip_hubs);

    let mut rng = Rng::new(seed);
    let first = rng.below(stride);
    let step = coprime_near_golden(stride);
    (0..stride)
        .map(|i| {
            let offset = (first + i * step) % stride;
            let mut round: Vec<u32> = ranked.iter().copied().skip(offset).step_by(stride).collect();
            rng.shuffle(&mut round);
            round
        })
        .collect()
}

/// Nodes by descending in-degree (ties by id): the cheap predictor of what a
/// reverse top-k query on the node costs.
fn by_in_degree(input: &GraphInput) -> Vec<u32> {
    let mut in_degree = vec![0u32; input.nodes];
    for &(_, to) in &input.edges {
        in_degree[to as usize] += 1;
    }
    let mut ranked: Vec<u32> = (0..input.nodes as u32).collect();
    ranked.sort_by_key(|&u| (std::cmp::Reverse(in_degree[u as usize]), u));
    ranked
}

fn coprime_near_golden(n: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let golden = ((n as f64) * 0.618_033_988_75).round() as usize;
    (golden.max(1)..=n).find(|&s| gcd(s, n) == 1).unwrap_or(1)
}

/// `len` query nodes with repeats: six in ten are drawn uniformly from the
/// `hot` set, the others walk through `cold` in order (wrapping around).
/// Repeated query nodes are where the paper's update mode should pay off.
///
/// Callers pass a few hub-free query rounds as the hot set and all rounds as
/// the cold sequence, so hot and cold nodes both span the cost range and no
/// single node carries much of the stream. (A Zipf(1) stream puts 13 % of the
/// queries on one node and 39 % on ten: whatever the seed made those ten
/// nodes cost moved the workload's median by a third.)
pub fn hot_cold_stream(hot: &[u32], cold: &[u32], len: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    let mut cold = cold.iter().cycle();
    (0..len)
        .map(|_| {
            if rng.below(10) < 6 {
                hot[rng.below(hot.len())]
            } else {
                *cold.next().expect("a cold sequence")
            }
        })
        .collect()
}

/// `pairs` edges to add and later remove. Each is absent from the graph (so
/// the add creates it and the remove finds it), keeps its tail's original
/// out-edges (so the remove never dangles a node), and has a tail that at
/// least a quarter of the graph can reach: an update recomputes the nodes
/// that reach the tail, and a tail nobody reaches would make the update cost
/// bimodal.
pub fn edge_edits(input: &GraphInput, pairs: usize, seed: u64) -> Vec<(u32, u32)> {
    let n = input.nodes;
    let mut predecessors = vec![Vec::new(); n];
    for &(from, to) in &input.edges {
        predecessors[to as usize].push(from);
    }
    let reached_by_many = |tail: u32| {
        let mut seen = vec![false; n];
        let mut stack = vec![tail];
        seen[tail as usize] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &p in &predecessors[u as usize] {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    count += 1;
                    stack.push(p);
                }
            }
        }
        count * 4 >= n
    };
    let existing: HashSet<(u32, u32)> = input.edges.iter().copied().collect();
    let mut rng = Rng::new(seed);
    let mut chosen: Vec<(u32, u32)> = Vec::with_capacity(pairs);
    while chosen.len() < pairs {
        let (from, to) = (rng.below(n) as u32, rng.below(n) as u32);
        if from != to
            && !existing.contains(&(from, to))
            && !chosen.contains(&(from, to))
            && reached_by_many(from)
        {
            chosen.push((from, to));
        }
    }
    chosen
}

/// `count` distinct indices in `0..len`, ascending (all of them if
/// `count >= len`).
pub fn sample_indices(len: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..len).collect();
    Rng::new(seed).shuffle(&mut all);
    all.truncate(count);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let input = graph(300, 1500, seed);
        let mut bytes = Vec::new();
        let mut put = |v: u32| bytes.extend_from_slice(&v.to_le_bytes());
        for &(f, t) in &input.edges {
            put(f);
            put(t);
        }
        for round in query_rounds(&input, 10, 0, seed ^ 1) {
            round.into_iter().for_each(&mut put);
        }
        let rounds = query_rounds(&input, 10, 0, seed ^ 1);
        hot_cold_stream(&rounds[0], &rounds[1], 200, seed ^ 2)
            .into_iter()
            .for_each(&mut put);
        for (f, t) in edge_edits(&input, 5, seed ^ 3) {
            put(f);
            put(t);
        }
        bytes
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_stream() {
        assert_eq!(stream_bytes(42), stream_bytes(42));
        assert_ne!(stream_bytes(42), stream_bytes(7));
    }

    #[test]
    fn rmat_edges_are_distinct_in_range_and_loop_free() {
        let edges = rmat_edges(1000, 6000, 9);
        assert_eq!(edges.len(), 6000);
        let distinct: HashSet<_> = edges.iter().collect();
        assert_eq!(distinct.len(), 6000);
        assert!(edges.iter().all(|&(f, t)| f != t && f < 1000 && t < 1000));
    }

    #[test]
    fn rounds_cover_every_node_once_and_spread_the_hubs() {
        let input = graph(400, 2400, 5);
        let rounds = query_rounds(&input, 20, 0, 11);
        assert_eq!(rounds.len(), 20);
        let mut all: Vec<u32> = rounds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<u32>>());
        // Each round holds exactly one of the 20 highest in-degree nodes.
        let hubs: HashSet<u32> = by_in_degree(&input)[..20].iter().copied().collect();
        for round in &rounds {
            assert_eq!(round.iter().filter(|u| hubs.contains(u)).count(), 1);
        }
    }

    #[test]
    fn hot_cold_stream_repeats_its_hot_set() {
        let (hot, cold): (Vec<u32>, Vec<u32>) = ((0..50).collect(), (50..1000).collect());
        let stream = hot_cold_stream(&hot, &cold, 1000, 3);
        let from_hot = stream.iter().filter(|&&q| q < 50).count();
        assert!((550..650).contains(&from_hot), "{from_hot} of 1000 from the hot set");
        // The cold nodes come in order, each once before any repeats.
        let from_cold: Vec<u32> = stream.iter().copied().filter(|&q| q >= 50).collect();
        assert!(from_cold.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn edits_never_dangle_and_never_remove_a_missing_edge() {
        let input = graph(300, 1500, 8);
        let existing: HashSet<_> = input.edges.iter().copied().collect();
        let edits = edge_edits(&input, 10, 4);
        assert_eq!(edits.len(), 10);
        let mut g = input.graph.clone();
        for &(from, to) in &edits {
            assert!(from != to && !existing.contains(&(from, to)));
            // The tail had out-edges before the add, so the remove leaves some.
            assert!(g.out_degree(from) >= 1);
            g.add_edge(from, to, 1.0).expect("add");
            g.remove_edge(from, to).expect("remove of the edge just added");
            assert!(g.dangling_nodes().is_empty());
        }
    }
}
