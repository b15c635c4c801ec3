//! The column-stochastic RWR transition matrix `A` (paper §2.1).
//!
//! For an edge `j → i`, `a_{i,j} = w_{i,j} / w_j` where `w_j` is the total
//! outgoing weight of `j` (`1/OD(j)` unweighted). [`TransitionProbs`]
//! materializes these probabilities three times:
//!
//! * in **CSR (out-edge) order** — `probs_out[k]` is the probability attached
//!   to the `k`-th out-edge. Used by ink *pushes* (BCA);
//! * in **CSC (in-edge) order** — `probs_in[k]` pairs with the `k`-th
//!   in-edge. Used by the `A·x` gather of the forward power method
//!   (`(Ax)_i = Σ_{j ∈ in(i)} a_{i,j}·x_j`);
//! * as a **sliced copy of the CSR side** (SELL-4-σ, below) with the target
//!   ids beside the probabilities. Used by the `Aᵀ·x` gather of PMPN
//!   (`(Aᵀx)_j = Σ_{i ∈ out(j)} a_{i,j}·x_i`).
//!
//! Materializing ~3·|E| doubles trades memory for branch-free inner loops —
//! the paper's `O(m)`-per-iteration costs all flow through these arrays.
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
//! An `A·x` row runs through [`gather_dot`] over the graph's own CSC id row
//! and the matching probability row: an unrolled gather with a **single
//! accumulator in serial edge order**, so the result is bitwise the naive
//! row sum while letting the CPU overlap the index loads.
//!
//! An `Aᵀ·x` row averages a handful of edges, too short for that unroll, so
//! the transpose gathers over the sliced layout instead. Node ids are cut
//! into windows of `WINDOW = 512` consecutive ids; inside a window, rows are
//! sorted by out-degree (descending, ties by id) and grouped `LANES = 4` at
//! a time into slices. A slice stores the `j`-th `(id, prob)` entry of its
//! rows side by side, and a shorter row is padded *at its end* with
//! probability `0.0` (id: the window's first node). The gather keeps one
//! accumulator per lane, so four rows' add chains run at once, yet each row
//! still adds its own products in CSR edge order starting from `+0.0`. A
//! padding entry then adds `0.0·x = ±0.0` after the row's last real term;
//! a sum that starts at `+0.0` never becomes `-0.0`, so that add leaves it
//! bit-identical — the transpose is bitwise the naive row loop for any
//! **finite** `x`. An edge splice re-lays only the window holding the
//! spliced row.

use crate::csr::{DiGraph, EdgeSplice, SpliceKind};
use rtk_sparse::WorkerPool;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::ops::Range;

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

/// Consecutive node ids per window of the sliced transpose layout: the unit
/// rows are sorted in, the unit a splice re-lays and the unit threads split
/// at. Smaller windows sort worse and pad more.
const WINDOW: usize = 512;

/// Rows per slice of the sliced transpose layout: the accumulators the
/// `Aᵀ·x` gather carries side by side.
const LANES: usize = 4;

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
    /// The CSR side (target ids and `probs_out`) in SELL-4-σ windows of
    /// `WINDOW` node ids each, for the `Aᵀ·x` gather.
    sliced: Vec<SlicedWindow>,
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

        let sliced = (0..n as usize)
            .step_by(WINDOW)
            .map(|first| {
                let mut window = SlicedWindow::default();
                window.lay_out(graph, &probs_out, window_rows(first, n as usize));
                window
            })
            .collect();
        Self { nodes: n as usize, probs_out, probs_in, sliced }
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
    /// the row refresh, and one re-lay of the sliced window holding `from`
    /// (in that window's own buffers; every other window is untouched).
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
        let w = splice.from as usize / WINDOW;
        self.sliced[w].lay_out(graph, &self.probs_out, window_rows(w * WINDOW, self.nodes));
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

/// The node ids of the window that starts at `first`, in a graph of `n`.
fn window_rows(first: usize, n: usize) -> Range<u32> {
    first as u32..(first + WINDOW).min(n) as u32
}

/// One window of the sliced (SELL-4-σ) CSR side: its rows sorted by
/// out-degree, grouped into slices of [`LANES`] rows whose entries are
/// stored side by side, each row padded at its end to its slice's length.
#[derive(Clone, Debug, Default, PartialEq)]
struct SlicedWindow {
    /// The window's node ids in slice order: out-degree descending, ties by
    /// id. Slice `s` holds `rows[LANES·s..]`; only the last may be part-full.
    rows: Vec<u32>,
    /// Slice `s` owns entry groups `slices[s]..slices[s + 1]`.
    slices: Vec<usize>,
    /// Group `g` of a slice holds the `g`-th target id of each of its rows.
    ids: Vec<[u32; LANES]>,
    /// The probabilities parallel to `ids`; `0.0` in a padding entry.
    probs: Vec<[f64; LANES]>,
}

impl SlicedWindow {
    /// Re-lays this window over `nodes` from `graph`'s CSR rows and their
    /// CSR-order probabilities, reusing the window's buffers.
    fn lay_out(&mut self, graph: &DiGraph, probs_out: &[f64], nodes: Range<u32>) {
        let (_, targets) = graph.csr();
        let pad = nodes.start;
        self.rows.clear();
        self.rows.extend(nodes);
        self.rows.sort_unstable_by_key(|&v| (Reverse(graph.out_degree(v)), v));
        self.slices.clear();
        self.slices.push(0);
        self.ids.clear();
        self.probs.clear();
        for slice in self.rows.chunks(LANES) {
            // Rows are sorted, so the slice's first row is its longest; the
            // groups start as padding and each row overwrites its prefix.
            let base = self.ids.len();
            let end = base + graph.out_degree(slice[0]);
            self.ids.resize(end, [pad; LANES]);
            self.probs.resize(end, [0.0; LANES]);
            for (lane, &v) in slice.iter().enumerate() {
                for (k, g) in graph.out_edge_range(v).zip(base..) {
                    self.ids[g][lane] = targets[k];
                    self.probs[g][lane] = probs_out[k];
                }
            }
            self.slices.push(end);
        }
    }

    /// Writes `out[v - first] = damp · Σ_k prob[k]·x[id[k]]` for every row
    /// `v` of this window, one accumulator per lane: each row sums its own
    /// products in CSR edge order, then its padding's `±0.0` (a no-op for
    /// finite `x`).
    #[inline]
    fn gather(&self, damp: f64, x: &[f64], first: usize, out: &mut [f64]) {
        for (s, rows) in self.rows.chunks(LANES).enumerate() {
            let groups = self.slices[s]..self.slices[s + 1];
            let mut acc = [0.0f64; LANES];
            for (ids, probs) in self.ids[groups.clone()].iter().zip(&self.probs[groups]) {
                for lane in 0..LANES {
                    acc[lane] += probs[lane] * x[ids[lane] as usize];
                }
            }
            for (&v, sum) in rows.iter().zip(acc) {
                out[v as usize - first] = damp * sum;
            }
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
    /// ink-push view (the rows the `Aᵀ·x` gather's sliced layout copies),
    /// resolved from one read of the row's offset pair.
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

    /// `y ← (1−α)·A·x + α·e_restart`, the forward RWR operator (Eq. 12),
    /// over `threads` workers (`0` = all cores). Gathers over in-edges; `y`
    /// is fully overwritten.
    ///
    /// Each row sums over `v`'s in-edges — serially, or across edge-balanced
    /// contiguous node ranges when `threads > 1` and the graph is large
    /// enough to amortize the dispatch. Each worker owns a disjoint `y`
    /// slice, and each row sums in its serial edge order, so the output is
    /// identical for any thread count.
    pub fn apply_forward_threaded(
        &self,
        alpha: f64,
        x: &[f64],
        restart: u32,
        y: &mut [f64],
        threads: usize,
    ) {
        let n = self.node_count();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let damp = 1.0 - alpha;
        // The three arrays are resolved once per apply, and a run of rows
        // reads each offset once: a row's end is the next row's start.
        let (offsets, ids) = self.graph.csc();
        let probs = self.probs.probs_in.as_slice();
        let gather_rows = |first: usize, out: &mut [f64]| {
            let mut lo = offsets[first] as usize;
            for (slot, v) in out.iter_mut().zip(first..) {
                let hi = offsets[v + 1] as usize;
                *slot = damp * gather_dot(&ids[lo..hi], &probs[lo..hi], x);
                lo = hi;
            }
        };
        let threads = self.parallel_lanes(threads, n);
        if threads <= 1 {
            gather_rows(0, y);
        } else {
            scatter_chunks(y, &edge_balanced_partition(offsets, threads), gather_rows);
        }
        y[restart as usize] += alpha;
    }

    /// `y ← (1−α)·Aᵀ·x + α·e_restart`, the PMPN operator (Eq. 13), over
    /// `threads` workers (`0` = all cores). Gathers over out-edges; `y` is
    /// fully overwritten. `x` must be finite: only then is the sliced gather
    /// bitwise the naive row loop (module docs).
    ///
    /// Bitwise identical to the serial result for any thread count: threads
    /// split at window boundaries, edge-balanced, and every row is summed by
    /// the same lane code whichever worker runs its window.
    pub fn apply_transpose_threaded(
        &self,
        alpha: f64,
        x: &[f64],
        restart: u32,
        y: &mut [f64],
        threads: usize,
    ) {
        let n = self.node_count();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let damp = 1.0 - alpha;
        let windows = &self.probs.sliced;
        // A chunk starts at a window boundary or, empty, at `n`; rounding
        // both of its ends up selects exactly the windows that hold its rows
        // (none for an empty chunk, even when the last window is part-full).
        let gather_windows = |first: usize, out: &mut [f64]| {
            for window in &windows[first.div_ceil(WINDOW)..(first + out.len()).div_ceil(WINDOW)] {
                window.gather(damp, x, first, out);
            }
        };
        let threads = self.parallel_lanes(threads, windows.len());
        if threads <= 1 {
            gather_windows(0, y);
        } else {
            // Edge-balance whole windows: the CSR offset at each window start.
            let (offsets, _) = self.graph.csr();
            let starts: Vec<u64> =
                (0..=windows.len()).map(|w| offsets[(w * WINDOW).min(n)]).collect();
            let bounds: Vec<usize> = edge_balanced_partition(&starts, threads)
                .into_iter()
                .map(|w| (w * WINDOW).min(n))
                .collect();
            scatter_chunks(y, &bounds, gather_windows);
        }
        y[restart as usize] += alpha;
    }

    /// How many workers an apply runs on: the resolved `threads`, at most
    /// one per `units` of work, and one below [`PARALLEL_EDGE_CUTOFF`].
    fn parallel_lanes(&self, threads: usize, units: usize) -> usize {
        if self.graph.edge_count() < PARALLEL_EDGE_CUTOFF {
            1
        } else {
            resolve_threads(threads).min(units.max(1))
        }
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

/// Cuts `y` at `bounds` and runs `body(first, chunk)` on each chunk, `first`
/// being the chunk's first node, as one task per chunk on the process-wide
/// [`WorkerPool`] (parked threads, no spawn per apply).
fn scatter_chunks<F>(y: &mut [f64], bounds: &[usize], body: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    WorkerPool::global().scope(|scope| {
        let mut rest = y;
        for part in bounds.windows(2) {
            let (chunk, tail) = rest.split_at_mut(part[1] - part[0]);
            rest = tail;
            let body = &body;
            let first = part[0];
            scope.spawn(move || body(first, chunk));
        }
    });
}

/// Splits the `offsets.len() - 1` units whose edge ranges start at `offsets`
/// (the rows of one CSR/CSC side, or the transpose's windows) into `parts`
/// contiguous unit ranges with roughly equal edge counts. Returns
/// `parts + 1` boundaries.
fn edge_balanced_partition(offsets: &[u64], parts: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let m = offsets[n] as usize;
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for part in 1..parts {
        let target = (m * part / parts) as u64;
        // Smallest unit whose edge range starts at or past the target, at or
        // after the previous boundary to keep boundaries monotone.
        let lo = *bounds.last().expect("bounds never empty");
        bounds.push(lo + offsets[lo..n].partition_point(|&start| start < target));
    }
    bounds.push(n);
    bounds
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
        t.apply_forward_threaded(alpha, &x, 2, &mut y, 1);

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
        t.apply_transpose_threaded(alpha, &x, 0, &mut y, 1);

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

        let mut serial = vec![0.0; n];
        let mut serial_t = vec![0.0; n];
        t.apply_forward_threaded(alpha, &x, 3, &mut serial, 1);
        t.apply_transpose_threaded(alpha, &x, 3, &mut serial_t, 1);

        for threads in [2usize, 3, 4, 8] {
            let mut y = vec![0.0; n];
            t.apply_forward_threaded(alpha, &x, 3, &mut y, threads);
            assert_eq!(y, serial, "forward, {threads} threads");
            t.apply_transpose_threaded(alpha, &x, 3, &mut y, threads);
            assert_eq!(y, serial_t, "transpose, {threads} threads");
        }
    }

    #[test]
    fn applies_match_a_naive_row_loop_bitwise() {
        // The reference is a plain loop, not `gather_dot`, so the contract —
        // every row sums on one accumulator in serial edge order, whatever
        // the thread count and however the transpose lays its rows out —
        // stays pinned by code the operators do not run.
        let er = |nodes, edges, seed| {
            crate::gen::erdos_renyi(&crate::gen::ErdosRenyiConfig { nodes, edges, seed }).unwrap()
        };
        let rmat = |nodes, edges, seed| {
            crate::gen::rmat(&crate::gen::RmatConfig::new(nodes, edges, seed)).unwrap()
        };
        let graphs = [
            ("toy", toy()),
            ("n = 1", GraphBuilder::from_edges(1, &[(0, 0)], DanglingPolicy::Error).unwrap()),
            ("n = 5", er(5, 12, 1)),
            ("er n = 513", er(513, 2_600, 2)),
            ("er n = 513 above the cutoff", er(513, 9_000, 3)),
            ("weighted", weighted(1_100, 5)),
            ("weighted n = 513", weighted(513, 9)),
            ("rmat n = 2000", rmat(2_000, 9_000, 7)),
            ("rmat n = 4000", rmat(4_000, 20_000, 23)),
            ("heavy last window", heavy_last_window()),
        ];
        // Windows and slices that end part-full, and threads that really
        // split, all occur in this list.
        for (what, g) in &graphs {
            assert_applies_are_row_loops(&TransitionMatrix::new(g), what);
        }
        for (what, g) in [4, 7, 8, 9].map(|i| &graphs[i]) {
            assert!(g.edge_count() >= PARALLEL_EDGE_CUTOFF, "{what}");
        }
        assert!(graphs[7].1.node_count() > 3 * WINDOW);
    }

    /// Asserts the two operators equal a naive row loop bit for bit at
    /// threads 1–4 and 8, for three restart nodes, and that the push view is
    /// the graph's own CSR rows.
    fn assert_applies_are_row_loops(t: &TransitionMatrix<'_>, what: &str) {
        let g = t.graph();
        let n = t.node_count();
        let alpha = 0.15;
        let damp = 1.0 - alpha;
        let x = mixed_x(n);
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
        let gathered_out: Vec<f64> =
            (0..n as u32).map(|u| naive(g.out_neighbors(u), t.out_probs(u))).collect();
        for u in 0..n as u32 {
            assert_eq!(t.out_edges(u), (g.out_neighbors(u), t.out_probs(u)), "{what}: node {u}");
        }

        for restart in [0, n / 2, n - 1] {
            let mut want_forward = gathered_in.clone();
            want_forward[restart] += alpha;
            let mut want_transpose = gathered_out.clone();
            want_transpose[restart] += alpha;
            for threads in [1usize, 2, 3, 4, 8] {
                let at = format!("{what}: restart {restart}, {threads} threads");
                let mut got = vec![f64::NAN; n];
                t.apply_forward_threaded(alpha, &x, restart as u32, &mut got, threads);
                assert!(bits(&got) == bits(&want_forward), "forward, {at}");
                got.fill(f64::NAN);
                t.apply_transpose_threaded(alpha, &x, restart as u32, &mut got, threads);
                assert!(bits(&got) == bits(&want_transpose), "transpose, {at}");
            }
        }
    }

    /// A finite `x` of mixed signs with exact `±0.0` entries, so padding
    /// products of both signs and exactly cancelling rows both occur.
    fn mixed_x(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 9 {
                0 => 0.0,
                4 => -0.0,
                _ => ((i * 37 + 11) % 101) as f64 / 101.0 - 0.3,
            })
            .collect()
    }

    /// A weighted graph of `n` nodes whose out-degrees and weights vary
    /// row to row, from a fixed LCG.
    fn weighted(n: u32, edges_per_node: u32) -> DiGraph {
        let mut b = GraphBuilder::new(n as usize);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32
        };
        for u in 0..n {
            for _ in 0..1 + next() % (2 * edges_per_node) {
                let w = 1.0 + f64::from(next() % 1000) / 7.0;
                b.add_weighted_edge(u, next() % n, w).unwrap();
            }
        }
        b.build(DanglingPolicy::SelfLoop).unwrap()
    }

    /// 600 nodes whose last, part-full window holds nearly all the edges:
    /// nodes `0..512` have one out-edge each, nodes `512..600` a hundred.
    /// Above the cutoff, every thread count from 2 up leaves a worker an
    /// empty share that starts at node `n`.
    fn heavy_last_window() -> DiGraph {
        let edges: Vec<(u32, u32)> = (0..600u32)
            .flat_map(|u| {
                let degree = if u < 512 { 1 } else { 100 };
                (0..degree).map(move |k| (u, (u + 1 + 5 * k) % 600))
            })
            .collect();
        GraphBuilder::from_edges(600, &edges, DanglingPolicy::Error).unwrap()
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
        // Drive add/remove scripts over seeded R-MAT graphs and pin the
        // incremental probability maintenance — the sliced window re-lay
        // included — to a from-scratch recompute after every single step:
        // the graph-layer half of the dynamic-graph determinism contract.
        let small: &[(bool, u32, u32, f64)] = &[
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
        // Above the cutoff: sources in the first, a middle and the last
        // (part-full) window, each edge inserted, accumulated and removed.
        // An insert or a removal moves the row within its window's sort.
        let windows: Vec<(bool, u32, u32, f64)> = WINDOW_SPLICES
            .iter()
            .flat_map(|&(f, t)| [(true, f, t, 2.0), (true, f, t, 2.0), (false, f, t, 0.0)])
            .collect();
        let rmat =
            |nodes, edges| crate::gen::rmat(&crate::gen::RmatConfig::new(nodes, edges, 7)).unwrap();
        let mut kinds = Vec::new();
        for (mut g, script) in [(rmat(60, 240), small), (rmat(2_000, 9_000), &windows[..])] {
            let mut probs = TransitionProbs::compute(&g);
            kinds.clear();
            for &(add, f, t, w) in script {
                let splice = if add { g.add_edge(f, t, w) } else { g.remove_edge(f, t) };
                // e.g. the node already had this edge shape
                let Ok(splice) = splice else { continue };
                kinds.push(splice.kind);
                probs.apply_splice(&g, &splice);
                assert!(probs == TransitionProbs::compute(&g), "probs after {:?}", (add, f, t));
            }
        }
        let each = [SpliceKind::Inserted, SpliceKind::Accumulated, SpliceKind::Removed];
        assert_eq!(kinds, each.repeat(WINDOW_SPLICES.len()));
    }

    /// Edges of `rmat:2000:9000:7` that do not exist yet, one from a node
    /// in the first, a middle and the last (part-full) window.
    const WINDOW_SPLICES: [(u32, u32); 3] = [(3, 1_999), (700, 5), (1_990, 1_024)];

    #[test]
    fn spliced_view_applies_identically_to_rebuilt_view() {
        // After mutations, a view over the spliced cache must produce the
        // same operator outputs as a fresh build at every thread count, and
        // the transpose over the re-laid windows must still be the row loop.
        let mut g = crate::gen::rmat(&crate::gen::RmatConfig::new(2_000, 9_000, 7)).unwrap();
        let mut probs = TransitionProbs::compute(&g);
        for (from, to) in WINDOW_SPLICES {
            let splice = g.add_edge(from, to, 3.0).unwrap();
            probs.apply_splice(&g, &splice);
        }

        let spliced = TransitionMatrix::with_probs(&g, &probs);
        let fresh = TransitionMatrix::new(&g);
        let x = mixed_x(2_000);
        let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<u64>>();
        let mut y1 = vec![0.0; 2_000];
        let mut y2 = vec![0.0; 2_000];
        for threads in 1..=4 {
            spliced.apply_forward_threaded(0.15, &x, 0, &mut y1, threads);
            fresh.apply_forward_threaded(0.15, &x, 0, &mut y2, threads);
            assert!(bits(&y1) == bits(&y2), "forward, {threads} threads");
            spliced.apply_transpose_threaded(0.15, &x, 0, &mut y1, threads);
            fresh.apply_transpose_threaded(0.15, &x, 0, &mut y2, threads);
            assert!(bits(&y1) == bits(&y2), "transpose, {threads} threads");
        }
        assert_applies_are_row_loops(&spliced, "spliced");
    }
}
