//! The column-stochastic RWR transition matrix `A` (paper §2.1).
//!
//! For an edge `j → i`, `a_{i,j} = w_{i,j} / w_j` where `w_j` is the total
//! outgoing weight of `j` (`1/OD(j)` unweighted). [`TransitionProbs`]
//! materializes these probabilities twice:
//!
//! * in **CSR (out-edge) order** — `probs_out[k]` is the probability attached
//!   to the `k`-th out-edge. Used by ink *pushes* (BCA) and by the `Aᵀ·x`
//!   gather of PMPN (`(Aᵀx)_j = Σ_{i ∈ out(j)} a_{i,j}·x_i`);
//! * in **CSC (in-edge) order** — `probs_in[k]` pairs with the `k`-th
//!   in-edge. Used by the `A·x` gather of the forward power method
//!   (`(Ax)_i = Σ_{j ∈ in(i)} a_{i,j}·x_j`).
//!
//! Materializing ~2·|E| doubles trades memory for branch-free inner loops —
//! the paper's `O(m)`-per-iteration costs all flow through these two arrays.
//!
//! [`TransitionMatrix`] is the *view* every solver consumes: a graph borrow
//! plus the probabilities, either owned ([`TransitionMatrix::new`]) or
//! borrowed from a cached [`TransitionProbs`]
//! ([`TransitionMatrix::with_probs`]) so long-lived engines pay the `O(|E|)`
//! construction once instead of per query.
//!
//! Both operator applications can run over multiple threads: rows are
//! partitioned into contiguous, edge-balanced ranges and each worker writes a
//! disjoint slice of `y`. Workers come from the shared
//! [`rtk_sparse::WorkerPool`] — parked threads re-dispatched per apply, not
//! respawned. Every row is still summed in its serial edge order, so results
//! are **bitwise identical** for any thread count.
//!
//! Every SpMV row runs through [`gather_dot`] over the graph's own CSR/CSC
//! id row and the matching probability row: an unrolled gather with a
//! **single accumulator in serial edge order**, so the result is bitwise the
//! naive row sum while letting the CPU overlap the index loads.

use crate::csr::{DiGraph, EdgeSplice, SpliceKind};
use rtk_sparse::WorkerPool;
use std::borrow::Cow;

/// Resolves a thread-count knob: `0` means all available cores.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    }
}

/// Below this many edges a parallel apply falls back to one thread — waking
/// the pooled workers and joining them would exceed the gather work.
const PARALLEL_EDGE_CUTOFF: usize = 8_192;

/// Owned transition probabilities for one graph — no graph borrow, so a
/// long-lived engine can cache this next to the graph it owns.
///
/// Tied to the graph it was computed from; [`TransitionProbs::matches`] is a
/// cheap structural check used to catch stale caches.
#[derive(Clone, Debug, PartialEq)]
pub struct TransitionProbs {
    nodes: usize,
    /// Probability per out-edge, CSR order.
    probs_out: Vec<f64>,
    /// Probability per in-edge, CSC order.
    probs_in: Vec<f64>,
}

impl TransitionProbs {
    /// Builds the probability arrays. `O(|E|)`.
    ///
    /// # Panics
    /// Panics if the graph has dangling nodes (the builder policies prevent
    /// this; a zero out-degree column cannot be normalized).
    pub fn compute(graph: &DiGraph) -> Self {
        let n = graph.node_count() as u32;
        // Per-node inverse outgoing weight.
        let mut inv_out: Vec<f64> = Vec::with_capacity(n as usize);
        for u in 0..n {
            let s = graph.out_weight_sum(u);
            assert!(
                s > 0.0,
                "TransitionMatrix: node {u} is dangling; repair with a DanglingPolicy first"
            );
            inv_out.push(1.0 / s);
        }

        let mut probs_out = Vec::with_capacity(graph.edge_count());
        for u in 0..n {
            match graph.out_weights(u) {
                Some(ws) => probs_out.extend(ws.iter().map(|w| w * inv_out[u as usize])),
                None => {
                    probs_out.extend(std::iter::repeat_n(inv_out[u as usize], graph.out_degree(u)))
                }
            }
        }

        let mut probs_in = Vec::with_capacity(graph.edge_count());
        for v in 0..n {
            let sources = graph.in_neighbors(v);
            match graph.in_weights(v) {
                Some(ws) => {
                    probs_in.extend(sources.iter().zip(ws).map(|(&s, w)| w * inv_out[s as usize]))
                }
                None => probs_in.extend(sources.iter().map(|&s| inv_out[s as usize])),
            }
        }

        Self { nodes: n as usize, probs_out, probs_in }
    }

    /// Number of nodes the probabilities were computed for.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges the probabilities were computed for.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.probs_out.len()
    }

    /// Cheap structural compatibility check against `graph`.
    #[inline]
    pub fn matches(&self, graph: &DiGraph) -> bool {
        self.nodes == graph.node_count() && self.probs_out.len() == graph.edge_count()
    }

    /// Incrementally maintains the probability arrays across one edge
    /// mutation: mirrors the structural splice, then recomputes the mutated
    /// source's row with the *identical arithmetic* [`Self::compute`] uses —
    /// so the result is bitwise-equal to a from-scratch recompute on the
    /// post-mutation graph. `graph` must already reflect the mutation that
    /// produced `splice`. `O(|E|)` for the splice, `O(out_degree(from))` for
    /// the row refresh.
    pub fn apply_splice(&mut self, graph: &DiGraph, splice: &EdgeSplice) {
        match splice.kind {
            SpliceKind::Inserted => {
                self.probs_out.insert(splice.out_pos, 0.0);
                self.probs_in.insert(splice.in_pos, 0.0);
            }
            SpliceKind::Removed => {
                self.probs_out.remove(splice.out_pos);
                self.probs_in.remove(splice.in_pos);
            }
            SpliceKind::Accumulated => {}
        }
        debug_assert!(self.matches(graph), "apply_splice: graph does not reflect the splice");
        self.recompute_row(graph, splice.from);
    }

    /// Recomputes node `u`'s out-row (and its CSC mirror positions) exactly
    /// as [`Self::compute`] would: `1 / out_weight_sum(u)` once, then
    /// `w * inv` (weighted) or `inv` (unweighted) per out-edge.
    fn recompute_row(&mut self, graph: &DiGraph, u: u32) {
        let s = graph.out_weight_sum(u);
        assert!(s > 0.0, "TransitionProbs: node {u} is dangling after mutation");
        let inv = 1.0 / s;
        let range = graph.out_edge_range(u);
        match graph.out_weights(u) {
            Some(ws) => {
                for (slot, w) in self.probs_out[range.clone()].iter_mut().zip(ws) {
                    *slot = w * inv;
                }
            }
            None => {
                for slot in self.probs_out[range.clone()].iter_mut() {
                    *slot = inv;
                }
            }
        }
        // Mirror into CSC order: the probability of edge u→t sits at the
        // position of source u within t's in-row.
        for (k, &t) in graph.out_neighbors(u).iter().enumerate() {
            let j = graph.in_neighbors(t).binary_search(&u).expect("CSC mirrors CSR");
            let in_pos = graph.in_edge_range(t).start + j;
            self.probs_in[in_pos] = self.probs_out[range.start + k];
        }
    }
}

/// Serial-order gather dot product `Σ weight[k]·x[col[k]]`, unrolled 4-wide.
///
/// The four products per step are independent (the CPU can overlap their
/// loads), but the additions still happen one at a time on a **single
/// accumulator in array order** — no reassociation — so the result is
/// bitwise identical to the naive `for` loop for any input.
#[inline]
pub fn gather_dot(cols: &[u32], weights: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), weights.len());
    let n = cols.len();
    let mut acc = 0.0;
    let mut k = 0;
    while k + 4 <= n {
        let a = weights[k] * x[cols[k] as usize];
        let b = weights[k + 1] * x[cols[k + 1] as usize];
        let c = weights[k + 2] * x[cols[k + 2] as usize];
        let d = weights[k + 3] * x[cols[k + 3] as usize];
        acc += a;
        acc += b;
        acc += c;
        acc += d;
        k += 4;
    }
    while k < n {
        acc += weights[k] * x[cols[k] as usize];
        k += 1;
    }
    acc
}

/// Precomputed transition probabilities over a [`DiGraph`].
///
/// Holds a borrow of the graph; construct one per graph and share it across
/// solvers, or build it in `O(1)` from a cached [`TransitionProbs`].
#[derive(Clone, Debug)]
pub struct TransitionMatrix<'g> {
    graph: &'g DiGraph,
    probs: Cow<'g, TransitionProbs>,
}

impl<'g> TransitionMatrix<'g> {
    /// Builds the probability arrays. `O(|E|)`.
    ///
    /// # Panics
    /// Panics if the graph has dangling nodes (the builder policies prevent
    /// this; a zero out-degree column cannot be normalized).
    pub fn new(graph: &'g DiGraph) -> Self {
        Self { graph, probs: Cow::Owned(TransitionProbs::compute(graph)) }
    }

    /// Wraps a cached [`TransitionProbs`] in `O(1)` — the hot path for
    /// engines that own both the graph and the cache.
    ///
    /// The caller owns the invariant that `probs` was computed from this
    /// exact graph (the intended pattern: compute once right after the graph,
    /// never mutate either). The structural check below is a cheap backstop,
    /// **not** a full validation — two different graphs with equal node and
    /// edge counts would pass it and silently mis-associate probabilities.
    ///
    /// # Panics
    /// Panics when `probs` disagrees with `graph` on node or edge count.
    pub fn with_probs(graph: &'g DiGraph, probs: &'g TransitionProbs) -> Self {
        assert!(
            probs.matches(graph),
            "TransitionMatrix: cached probabilities do not match the graph \
             ({} nodes / {} edges vs {} nodes / {} edges)",
            probs.node_count(),
            probs.edge_count(),
            graph.node_count(),
            graph.edge_count()
        );
        Self { graph, probs: Cow::Borrowed(probs) }
    }

    /// Consumes the view, returning owned probabilities (cloning only when
    /// the view borrowed a cache).
    pub fn into_probs(self) -> TransitionProbs {
        self.probs.into_owned()
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'g DiGraph {
        self.graph
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Transition probabilities parallel to `graph.out_neighbors(node)`.
    #[inline]
    pub fn out_probs(&self, node: u32) -> &[f64] {
        &self.probs.probs_out[self.graph.out_edge_range(node)]
    }

    /// Transition probabilities parallel to `graph.in_neighbors(node)`.
    #[inline]
    pub fn in_probs(&self, node: u32) -> &[f64] {
        &self.probs.probs_in[self.graph.in_edge_range(node)]
    }

    /// Out-edge row of `node` as `(targets, probabilities)` — the BCA
    /// ink-push view: the same rows the `Aᵀ·x` gather walks, resolved from
    /// one read of the row's offset pair.
    #[inline]
    pub fn out_edges(&self, node: u32) -> (&[u32], &[f64]) {
        let (_, targets) = self.graph.csr();
        let range = self.graph.out_edge_range(node);
        (&targets[range.clone()], &self.probs.probs_out[range])
    }

    /// In-edge row of `node` as `(sources, probabilities)` — the rows the
    /// `A·x` gather walks, for solvers that carry several vectors through
    /// one walk of the row.
    #[inline]
    pub fn in_edges(&self, node: u32) -> (&[u32], &[f64]) {
        let (_, sources) = self.graph.csc();
        let range = self.graph.in_edge_range(node);
        (&sources[range.clone()], &self.probs.probs_in[range])
    }

    /// `y ← (1−α)·A·x + α·e_restart`, the forward RWR operator (Eq. 12).
    ///
    /// Gathers over in-edges; `y` is fully overwritten.
    pub fn apply_forward(&self, alpha: f64, x: &[f64], restart: u32, y: &mut [f64]) {
        self.apply_forward_threaded(alpha, x, restart, y, 1);
    }

    /// [`Self::apply_forward`] over `threads` workers (`0` = all cores).
    /// Bitwise identical to the serial result for any thread count.
    pub fn apply_forward_threaded(
        &self,
        alpha: f64,
        x: &[f64],
        restart: u32,
        y: &mut [f64],
        threads: usize,
    ) {
        let damp = 1.0 - alpha;
        self.for_rows(x, y, threads, Direction::Forward, move |_, dot| damp * dot);
        y[restart as usize] += alpha;
    }

    /// `y ← (1−α)·A·x + α·restart`, the forward operator with a dense restart
    /// distribution (Eq. 3's personalized form), over `threads` workers.
    pub fn apply_forward_restart_threaded(
        &self,
        alpha: f64,
        x: &[f64],
        restart: &[f64],
        y: &mut [f64],
        threads: usize,
    ) {
        assert_eq!(restart.len(), self.node_count());
        let damp = 1.0 - alpha;
        self.for_rows(x, y, threads, Direction::Forward, move |v, dot| {
            damp * dot + alpha * restart[v]
        });
    }

    /// `y ← (1−α)·Aᵀ·x + α·e_restart`, the PMPN operator (Eq. 13).
    ///
    /// Gathers over out-edges; `y` is fully overwritten.
    pub fn apply_transpose(&self, alpha: f64, x: &[f64], restart: u32, y: &mut [f64]) {
        self.apply_transpose_threaded(alpha, x, restart, y, 1);
    }

    /// [`Self::apply_transpose`] over `threads` workers (`0` = all cores).
    /// Bitwise identical to the serial result for any thread count.
    pub fn apply_transpose_threaded(
        &self,
        alpha: f64,
        x: &[f64],
        restart: u32,
        y: &mut [f64],
        threads: usize,
    ) {
        let damp = 1.0 - alpha;
        self.for_rows(x, y, threads, Direction::Transpose, move |_, dot| damp * dot);
        y[restart as usize] += alpha;
    }

    /// Writes `y[v] = finish(v, Σ_k prob[k]·x[id[k]])` for every node `v`,
    /// the sum running over `v`'s row on the side `direction` gathers —
    /// serially, or across edge-balanced contiguous node ranges when
    /// `threads > 1` and the graph is large enough to amortize the dispatch.
    /// Workers come from the process-wide [`WorkerPool`] (parked threads, no
    /// spawn per apply). Each worker owns a disjoint `y` slice, and each row
    /// sums in its serial edge order, so the output is identical for any
    /// thread count.
    fn for_rows<F>(&self, x: &[f64], y: &mut [f64], threads: usize, direction: Direction, finish: F)
    where
        F: Fn(usize, f64) -> f64 + Sync,
    {
        let n = self.node_count();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        // The three arrays are resolved once per apply, and a run of rows
        // reads each offset once: a row's end is the next row's start.
        let ((offsets, ids), probs) = match direction {
            Direction::Forward => (self.graph.csc(), self.probs.probs_in.as_slice()),
            Direction::Transpose => (self.graph.csr(), self.probs.probs_out.as_slice()),
        };
        let gather_rows = |first: usize, out: &mut [f64]| {
            let mut lo = offsets[first] as usize;
            for (slot, v) in out.iter_mut().zip(first..) {
                let hi = offsets[v + 1] as usize;
                *slot = finish(v, gather_dot(&ids[lo..hi], &probs[lo..hi], x));
                lo = hi;
            }
        };

        let mut threads = resolve_threads(threads).min(n.max(1));
        if self.graph.edge_count() < PARALLEL_EDGE_CUTOFF {
            threads = 1;
        }
        if threads <= 1 {
            gather_rows(0, y);
            return;
        }

        let bounds = edge_balanced_partition(offsets, threads);
        WorkerPool::global().scope(|scope| {
            let mut rest = y;
            for w in 0..threads {
                let (lo, hi) = (bounds[w], bounds[w + 1]);
                let (chunk, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let gather_rows = &gather_rows;
                scope.spawn(move || gather_rows(lo, chunk));
            }
        });
    }

    /// Materializes column `j` of `A` as a dense vector (test/oracle helper).
    pub fn column_dense(&self, j: u32) -> Vec<f64> {
        let mut col = vec![0.0; self.node_count()];
        for (&t, &p) in self.graph.out_neighbors(j).iter().zip(self.out_probs(j)) {
            col[t as usize] += p;
        }
        col
    }
}

/// Splits the `offsets.len() - 1` rows of one CSR/CSC side into `parts`
/// contiguous node ranges with roughly equal edge counts. Returns
/// `parts + 1` boundaries.
fn edge_balanced_partition(offsets: &[u64], parts: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let m = offsets[n] as usize;
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for part in 1..parts {
        let target = (m * part / parts) as u64;
        // Smallest node whose edge range starts at or past the target, at or
        // after the previous boundary to keep boundaries monotone.
        let lo = *bounds.last().expect("bounds never empty");
        bounds.push(lo + offsets[lo..n].partition_point(|&start| start < target));
    }
    bounds.push(n);
    bounds
}

/// Which edge direction an apply gathers over.
#[derive(Clone, Copy, Debug)]
enum Direction {
    /// In-edges (CSC side): `A·x`.
    Forward,
    /// Out-edges (CSR side): `Aᵀ·x`.
    Transpose,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DanglingPolicy, GraphBuilder};

    fn toy() -> DiGraph {
        // Figure 1 toy graph (0-based): 0→{1,3,5}, 1→{0,2}, 2→{0,1},
        // 3→{1,4}, 4→{1}, 5→{1,3}.
        GraphBuilder::from_edges(
            6,
            &[
                (0, 1),
                (0, 3),
                (0, 5),
                (1, 0),
                (1, 2),
                (2, 0),
                (2, 1),
                (3, 1),
                (3, 4),
                (4, 1),
                (5, 1),
                (5, 3),
            ],
            DanglingPolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn columns_are_stochastic() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        for j in 0..6 {
            let col = t.column_dense(j);
            let sum: f64 = col.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "column {j} sums to {sum}");
        }
    }

    #[test]
    fn uniform_probabilities_unweighted() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        assert_eq!(t.out_probs(0), &[1.0 / 3.0; 3]);
        assert_eq!(t.out_probs(4), &[1.0]);
    }

    #[test]
    fn weighted_probabilities_normalize() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 3.0).unwrap();
        b.add_weighted_edge(0, 2, 1.0).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(2, 0).unwrap();
        let g = b.build(DanglingPolicy::Error).unwrap();
        let t = TransitionMatrix::new(&g);
        assert_eq!(t.out_probs(0), &[0.75, 0.25]);
        // CSC side: in-probs of node 1 correspond to source 0.
        assert_eq!(t.in_probs(1), &[0.75]);
    }

    #[test]
    fn forward_operator_matches_dense_multiply() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let n = g.node_count();
        let alpha = 0.15;
        let x: Vec<f64> = (0..n).map(|i| (i + 1) as f64 / 21.0).collect();
        let mut y = vec![0.0; n];
        t.apply_forward(alpha, &x, 2, &mut y);

        // Dense reference.
        let mut expect = vec![0.0; n];
        for j in 0..n as u32 {
            let col = t.column_dense(j);
            for i in 0..n {
                expect[i] += (1.0 - alpha) * col[i] * x[j as usize];
            }
        }
        expect[2] += alpha;
        for i in 0..n {
            assert!((y[i] - expect[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_operator_matches_dense_multiply() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let n = g.node_count();
        let alpha = 0.15;
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let mut y = vec![0.0; n];
        t.apply_transpose(alpha, &x, 0, &mut y);

        let mut expect = vec![0.0; n];
        for j in 0..n as u32 {
            let col = t.column_dense(j);
            for i in 0..n {
                expect[j as usize] += (1.0 - alpha) * col[i] * x[i];
            }
        }
        expect[0] += alpha;
        for i in 0..n {
            assert!((y[i] - expect[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_probs_view_matches_owned_view() {
        let g = toy();
        let probs = TransitionProbs::compute(&g);
        assert!(probs.matches(&g));
        assert_eq!(probs.node_count(), 6);
        assert_eq!(probs.edge_count(), g.edge_count());
        let owned = TransitionMatrix::new(&g);
        let cached = TransitionMatrix::with_probs(&g, &probs);
        for u in 0..6u32 {
            assert_eq!(owned.out_probs(u), cached.out_probs(u));
            assert_eq!(owned.in_probs(u), cached.in_probs(u));
        }
        // Round-trip through into_probs preserves the arrays.
        assert_eq!(owned.into_probs(), probs);
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn stale_cache_is_rejected() {
        let g = toy();
        let other =
            GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)], DanglingPolicy::Error).unwrap();
        let probs = TransitionProbs::compute(&other);
        let _ = TransitionMatrix::with_probs(&g, &probs);
    }

    #[test]
    fn threaded_applies_are_bitwise_identical() {
        // Large enough to clear PARALLEL_EDGE_CUTOFF so threads really run.
        let g = crate::gen::rmat(&crate::gen::RmatConfig::new(4_000, 20_000, 11)).unwrap();
        assert!(g.edge_count() >= super::PARALLEL_EDGE_CUTOFF);
        let t = TransitionMatrix::new(&g);
        let n = g.node_count();
        let alpha = 0.15;
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 101) as f64 / 101.0).collect();
        let restart_vec: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 / 21.0).collect();

        let mut serial = vec![0.0; n];
        let mut serial_t = vec![0.0; n];
        let mut serial_r = vec![0.0; n];
        t.apply_forward_threaded(alpha, &x, 3, &mut serial, 1);
        t.apply_transpose_threaded(alpha, &x, 3, &mut serial_t, 1);
        t.apply_forward_restart_threaded(alpha, &x, &restart_vec, &mut serial_r, 1);

        for threads in [2usize, 3, 4, 8] {
            let mut y = vec![0.0; n];
            t.apply_forward_threaded(alpha, &x, 3, &mut y, threads);
            assert_eq!(y, serial, "forward, {threads} threads");
            t.apply_transpose_threaded(alpha, &x, 3, &mut y, threads);
            assert_eq!(y, serial_t, "transpose, {threads} threads");
            t.apply_forward_restart_threaded(alpha, &x, &restart_vec, &mut y, threads);
            assert_eq!(y, serial_r, "forward restart, {threads} threads");
        }
    }

    #[test]
    fn applies_match_a_naive_row_loop_bitwise() {
        // The reference is a plain loop, not `gather_dot`, so the contract —
        // every row sums on one accumulator in serial edge order, whatever
        // the thread count — stays pinned by code the operators do not run.
        let g = crate::gen::rmat(&crate::gen::RmatConfig::new(4_000, 20_000, 23)).unwrap();
        let t = TransitionMatrix::new(&g);
        let n = g.node_count();
        let alpha = 0.15;
        let damp = 1.0 - alpha;
        let x: Vec<f64> = (0..n).map(|i| ((i * 41 + 3) % 97) as f64 / 97.0).collect();
        let restart_vec: Vec<f64> = (0..n).map(|i| ((i * 17) % 5) as f64 / 10.0).collect();
        let naive = |ids: &[u32], probs: &[f64]| {
            let mut acc = 0.0;
            for (&j, &p) in ids.iter().zip(probs) {
                acc += p * x[j as usize];
            }
            damp * acc
        };
        let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<u64>>();

        let gathered_in: Vec<f64> =
            (0..n as u32).map(|v| naive(g.in_neighbors(v), t.in_probs(v))).collect();
        let mut want_forward = gathered_in.clone();
        want_forward[7] += alpha;
        let want_restart: Vec<f64> =
            gathered_in.iter().zip(&restart_vec).map(|(y, r)| y + alpha * r).collect();
        let mut want_transpose: Vec<f64> =
            (0..n as u32).map(|u| naive(g.out_neighbors(u), t.out_probs(u))).collect();
        want_transpose[7] += alpha;
        // The push view is the same rows the transpose gather walks.
        for u in 0..n as u32 {
            assert_eq!(t.out_edges(u), (g.out_neighbors(u), t.out_probs(u)), "node {u}");
        }

        for threads in [1usize, 2, 4, 8] {
            let mut got = vec![0.0; n];
            t.apply_forward_threaded(alpha, &x, 7, &mut got, threads);
            assert_eq!(bits(&got), bits(&want_forward), "forward, {threads} threads");
            t.apply_transpose_threaded(alpha, &x, 7, &mut got, threads);
            assert_eq!(bits(&got), bits(&want_transpose), "transpose, {threads} threads");
            t.apply_forward_restart_threaded(alpha, &x, &restart_vec, &mut got, threads);
            assert_eq!(bits(&got), bits(&want_restart), "forward restart, {threads} threads");
        }
    }

    #[test]
    fn gather_dot_matches_naive_loop_bitwise() {
        // Awkward lengths around the unroll width, values chosen so the sum
        // order matters in the low bits.
        let x: Vec<f64> = (0..64).map(|i| 1.0 / (i + 1) as f64).collect();
        for len in 0..23usize {
            let cols: Vec<u32> = (0..len).map(|k| ((k * 29 + 5) % 64) as u32).collect();
            let weights: Vec<f64> = (0..len).map(|k| ((k % 7) + 1) as f64 / 7.0).collect();
            let mut naive = 0.0;
            for (&c, &w) in cols.iter().zip(&weights) {
                naive += w * x[c as usize];
            }
            let fast = gather_dot(&cols, &weights, &x);
            assert_eq!(fast.to_bits(), naive.to_bits(), "len {len}");
        }
    }

    #[test]
    fn partition_covers_all_rows_monotonically() {
        let g = crate::gen::rmat(&crate::gen::RmatConfig::new(2_000, 12_000, 5)).unwrap();
        for parts in [1usize, 2, 3, 7, 16] {
            for (offsets, _) in [g.csc(), g.csr()] {
                let bounds = edge_balanced_partition(offsets, parts);
                assert_eq!(bounds.len(), parts + 1);
                assert_eq!(bounds[0], 0);
                assert_eq!(*bounds.last().unwrap(), g.node_count());
                assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
            }
        }
    }

    #[test]
    fn resolve_threads_resolves_zero_to_cores() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn rejects_dangling_graph() {
        // Bypass the builder's repair by building a graph that only the
        // transition matrix inspects: node 1 has no out-edges.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        // Build with SelfLoop, then strip: not possible through the public
        // API, so simulate by constructing the unrepaired edge set directly.
        let g = DiGraph::from_sorted_edges(2, vec![(0, 1, 1.0)], false);
        let _ = TransitionMatrix::new(&g);
    }

    #[test]
    fn spliced_probs_match_fresh_rebuild_bitwise() {
        // Drive a long add/remove script over a seeded R-MAT graph and pin
        // the incremental probability maintenance to a from-scratch
        // recompute after every single step — the graph-layer half of the
        // dynamic-graph determinism contract.
        let mut g = crate::gen::rmat(&crate::gen::RmatConfig::new(60, 240, 7)).unwrap();
        let mut probs = TransitionProbs::compute(&g);
        let script: &[(bool, u32, u32, f64)] = &[
            (true, 0, 59, 1.0),
            (true, 59, 0, 2.5),
            (true, 0, 59, 1.0), // accumulate
            (true, 17, 23, 0.125),
            (false, 0, 59, 0.0),
            (true, 23, 17, 1.0),
            (false, 59, 0, 0.0),
            (true, 5, 5, 1.0),
            (false, 17, 23, 0.0),
        ];
        for &(add, f, t, w) in script {
            let splice = if add {
                match g.add_edge(f, t, w) {
                    Ok(s) => s,
                    Err(_) => continue, // e.g. node already had this edge shape
                }
            } else {
                match g.remove_edge(f, t) {
                    Ok(s) => s,
                    Err(_) => continue,
                }
            };
            probs.apply_splice(&g, &splice);
            assert_eq!(probs, TransitionProbs::compute(&g), "probs after {:?}", (add, f, t));
        }
    }

    #[test]
    fn spliced_view_applies_identically_to_rebuilt_view() {
        // After a mutation, a view over the spliced cache must produce the
        // same operator outputs as a fresh build.
        let mut g = crate::gen::erdos_renyi(&crate::gen::ErdosRenyiConfig {
            nodes: 40,
            edges: 160,
            seed: 3,
        })
        .unwrap();
        let mut probs = TransitionProbs::compute(&g);
        let splice = g.add_edge(1, 38, 3.0).unwrap();
        probs.apply_splice(&g, &splice);

        let spliced = TransitionMatrix::with_probs(&g, &probs);
        let fresh = TransitionMatrix::new(&g);
        let x: Vec<f64> = (0..40).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut y1 = vec![0.0; 40];
        let mut y2 = vec![0.0; 40];
        spliced.apply_forward(0.15, &x, 0, &mut y1);
        fresh.apply_forward(0.15, &x, 0, &mut y2);
        assert_eq!(y1, y2);
        spliced.apply_transpose(0.15, &x, 0, &mut y1);
        fresh.apply_transpose(0.15, &x, 0, &mut y2);
        assert_eq!(y1, y2);
    }
}
