//! The Online Query algorithm — Algorithm 4 (paper §4.2).
//!
//! # Phases
//!
//! A query runs as **PMPN → classify → refine → commit**, one module per
//! screen phase:
//!
//! 1. PMPN computes `p_*(q)` with its sparse matrix–vector products spread
//!    over [`QueryOptions::query_threads`] workers (or, on the ε-band path,
//!    the bidirectional estimator stands in for it) — here, in `mod.rs`;
//! 2. the **screen** runs two passes, each one [`WorkerPool::claim`] loop:
//!    - *classify* (`classify.rs`) tests every node of the range the index
//!      holds against its stored state, over degree-balanced chunks, and
//!      decides everything that state can decide;
//!    - *refine* (`refine.rs`) visits the candidates left open in
//!      descending upper-bound order — loosest bounds first. Each refine
//!      lane owns a private [`Refiner`] (a BCA engine + [`Materializer`],
//!      recycled across queries through a [`ScratchPool`]) and refines each
//!      candidate *resident in it* — the shared index is only read, and a
//!      [`NodeState`] is written out only for the commit phase;
//!
//!    both passes decide with one function, `bound_test` (Alg. 4's test
//!    on a staircase, a residual and `p_u(q)`);
//! 3. the **commit phase** (update mode only) serially writes every refined
//!    copy back into the index's one block of states, by node id.
//!
//! Per-node screening decisions depend only on that node's stored state and
//! the PMPN vector, never on another node's refinement, so the result set,
//! the statistics, and the post-query index are **identical for every
//! thread count and every shard count** — asserted by the
//! `parallel_determinism` integration suite.

mod classify;
mod refine;

use crate::error::QueryError;
use crate::upper_bound::{confirm_cost, upper_bound_kth};
use classify::{classify, EnvelopeSource, ExactSource};
use rtk_approx::{ApproxParams, BidirEstimator};
use rtk_graph::{resolve_threads, TransitionMatrix};
use rtk_index::{Materializer, NodeState, Refiner, ReverseIndex};
use rtk_rwr::bca::BcaEngine;
use rtk_rwr::pmpn::proximity_to;
use rtk_rwr::{BcaParams, HubSet, RwrParams};
use rtk_sparse::{ScratchPool, WorkerPool};
use std::time::Instant;

/// Residual mass below which a node's bounds are treated as exact.
const EXACT_RESIDUAL_EPS: f64 = 1e-12;

/// Tie tolerance for membership comparisons (`p_u(q) ≥ p̂_u(k)`).
///
/// The definitional test compares two real numbers that are frequently
/// *identical* — whenever `q` itself is the k-th ranked node of `u`, the
/// proximity equals the threshold exactly. Different engines compute the two
/// sides by different methods (PMPN vs. forward power iteration vs. BCA),
/// each within `ε ≈ 1e-10` of the truth, so a strict `≥` would let that
/// noise decide. All engines in this crate — OQ, brute force, IBF, FBF —
/// treat values closer than `TIE_EPSILON` as equal, making results
/// well-defined and mutually consistent.
pub const TIE_EPSILON: f64 = 1e-9;

/// What [`QueryEngine::screen`] hands back: the answer over the index's
/// owned node range and the per-node refinement commits it produced.
pub type ScreenOutput = (QueryResult, Vec<(u32, NodeState)>);

/// How residual mass is accounted for in the bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundMode {
    /// The paper's accounting: residual = `‖r‖₁`. Hub rounding deficits are
    /// ignored, so with a coarse `ω` a borderline node can be misclassified —
    /// exactly the accuracy/space trade-off of Figure 9.
    PaperFaithful,
    /// Sound accounting: residual = `‖r‖₁ + Σ_h s(h)·d_h`. Results are exact
    /// for any rounding threshold, at the cost of extra refinement.
    Strict,
}

/// Options controlling one reverse top-k query.
#[derive(Clone, Copy, Debug)]
pub struct QueryOptions {
    /// Write refined node states back into the index (paper `update` mode).
    pub update_index: bool,
    /// Residual accounting (see [`BoundMode`]).
    pub bound_mode: BoundMode,
    /// Approximate mode (paper §5.3): skip refinement entirely and return
    /// only the nodes whose bounds decide immediately — the "hits" plus the
    /// exact-bound nodes. A subset of the exact answer; on the paper's web
    /// graphs hits ≈ results, so recall stays high while the refinement cost
    /// disappears.
    pub approximate: bool,
    /// Worker threads for the query hot path (`0` = all cores, the default).
    /// Governs both the PMPN matrix–vector products and the screen phase of
    /// a single query, and the fan-out width of
    /// [`QueryEngine::query_batch`]. Results are identical for any value.
    pub query_threads: usize,
    /// Bounded-error approximate screen (the `rtk-approx` subsystem): when
    /// set with `epsilon > 0`, the exact PMPN solve is replaced by a
    /// bidirectional estimate — a backward residue push from `q` with
    /// deterministic radius `ε/2` plus seeded forward walks per surviving
    /// candidate — and undecided candidates stop refining once their top-k
    /// boundary is pinned to a window of width ε, deciding at the midpoint.
    /// The answer's node set then differs from the exact answer only on
    /// nodes whose true proximity lies within ε of their decision boundary.
    /// `Some` with `epsilon == 0` (and `None`) run the exact path,
    /// byte-for-byte. Distinct from [`Self::approximate`], the paper's
    /// §5.3 drop-mode, which offers no bound.
    pub approx: Option<ApproxParams>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            update_index: true,
            bound_mode: BoundMode::PaperFaithful,
            approximate: false,
            query_threads: 0,
            approx: None,
        }
    }
}

/// Per-query diagnostics (Figures 5–7 are built from these).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Nodes that survived the initial lower-bound prune (paper's "cand").
    pub candidates: usize,
    /// Candidates confirmed by their *first* upper-bound check ("hits").
    pub hits: usize,
    /// Nodes pruned by the initial lower-bound test.
    pub pruned_by_lower_bound: usize,
    /// Candidates that needed at least one refinement iteration.
    pub refined_nodes: usize,
    /// Total BCA iterations spent refining.
    pub refine_iterations: u64,
    /// Refinement runs: how often a refined candidate's bounds were
    /// rematerialized and re-tested. In-process only (not on the wire).
    pub refine_rounds: u64,
    /// Edge pushes those iterations performed (screen time over this is the
    /// cost of a push, rematerialization included). In-process only.
    pub refine_pushes: u64,
    /// Strict-mode nodes whose bounds could not close (hub-rounding deficit)
    /// and were resolved by one exact forward solve.
    pub exact_fallbacks: usize,
    /// PMPN iterations (step 1 of the query).
    pub pmpn_iterations: u32,
    /// Seconds spent in PMPN.
    pub pmpn_seconds: f64,
    /// Seconds spent screening/refining (step 2): exactly
    /// `classify_seconds + refine_seconds`.
    pub screen_seconds: f64,
    /// Seconds of the screen's classify pass.
    pub classify_seconds: f64,
    /// Seconds of the screen's refine pass, lane merge included.
    pub refine_seconds: f64,
    /// Total query seconds.
    pub total_seconds: f64,
    /// Whether the bounded-error approximate screen ran for this query
    /// ([`QueryOptions::approx`] with `epsilon > 0`).
    pub approx_active: bool,
    /// Approx mode: candidates classified from the bidirectional estimate
    /// alone (envelope checks, walk estimates, ε-window midpoint calls).
    pub approx_estimated: u64,
    /// Approx mode: candidates inside the ε-band whose decision came from
    /// the exact refinement machinery.
    pub approx_exact_refined: u64,
    /// Approx mode: forward walks simulated.
    pub approx_walks: u64,
    /// Approx mode: seconds spent building the backward-push estimator
    /// (the approximate analog of the PMPN solve).
    pub approx_build_seconds: f64,
}

impl QueryStats {
    /// Folds a worker's partial counters into this total.
    fn absorb(&mut self, other: &QueryStats) {
        self.candidates += other.candidates;
        self.hits += other.hits;
        self.pruned_by_lower_bound += other.pruned_by_lower_bound;
        self.refined_nodes += other.refined_nodes;
        self.refine_iterations += other.refine_iterations;
        self.refine_rounds += other.refine_rounds;
        self.refine_pushes += other.refine_pushes;
        self.exact_fallbacks += other.exact_fallbacks;
        self.approx_active |= other.approx_active;
        self.approx_estimated += other.approx_estimated;
        self.approx_exact_refined += other.approx_exact_refined;
        self.approx_walks += other.approx_walks;
    }

    /// Rebuilds the phase breakdown as a span tree named `name`:
    /// `pmpn_solve` → `screen` → `commit` children, and `screen`'s
    /// `classify` → `refine` children, each level positioned end to end so
    /// its durations sum exactly to its parent's. Built entirely from
    /// timings every query records anyway — calling this adds no clock
    /// reads, so traced and untraced runs execute identically.
    pub fn to_trace(&self, name: &str) -> rtk_obs::TraceSpan {
        use rtk_obs::TraceSpan;
        let mut pmpn = TraceSpan::new("pmpn_solve", self.pmpn_seconds)
            .annotate("iterations", self.pmpn_iterations.to_string());
        pmpn.start_seconds = 0.0;
        let mut screen = TraceSpan::new("screen", self.screen_seconds)
            .annotate("candidates", self.candidates.to_string())
            .annotate("hits", self.hits.to_string())
            .annotate("pruned", self.pruned_by_lower_bound.to_string())
            .annotate("refined_nodes", self.refined_nodes.to_string())
            .annotate("refine_iterations", self.refine_iterations.to_string())
            .annotate("refine_rounds", self.refine_rounds.to_string())
            .annotate("refine_pushes", self.refine_pushes.to_string());
        if self.exact_fallbacks > 0 {
            screen = screen.annotate("exact_fallbacks", self.exact_fallbacks.to_string());
        }
        if self.approx_active {
            // The approx sub-span times the estimator's build, which runs
            // where PMPN would, so it nests in that phase; its counters
            // describe the screen the estimate then drove.
            let mut approx = TraceSpan::new("approx_screen", self.approx_build_seconds)
                .annotate("estimated", self.approx_estimated.to_string())
                .annotate("exact_refined", self.approx_exact_refined.to_string())
                .annotate("walks", self.approx_walks.to_string());
            approx.start_seconds = 0.0;
            pmpn.children.push(approx);
        }
        screen.start_seconds = self.pmpn_seconds;
        let classify = TraceSpan::new("classify", self.classify_seconds);
        let mut refine = TraceSpan::new("refine", self.refine_seconds);
        refine.start_seconds = self.classify_seconds;
        screen.children = vec![classify, refine];
        // Whatever the total holds beyond the two measured phases (commit
        // of refinements, result assembly) becomes the tail span.
        let commit_seconds =
            (self.total_seconds - self.pmpn_seconds - self.screen_seconds).max(0.0);
        let mut commit = TraceSpan::new("commit", commit_seconds);
        commit.start_seconds = self.pmpn_seconds + self.screen_seconds;
        let mut root =
            TraceSpan::new(name, self.pmpn_seconds + self.screen_seconds + commit_seconds);
        root.children = vec![pmpn, screen, commit];
        root
    }
}

/// The result of a reverse top-k query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    query: u32,
    k: usize,
    nodes: Vec<u32>,
    proximities: Vec<f64>,
    stats: QueryStats,
}

impl QueryResult {
    /// The query node.
    pub fn query(&self) -> u32 {
        self.query
    }

    /// The `k` this query used.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Result nodes in ascending id order: every `u` with `p_u(q) ≥ p̂_u(k)`.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// `p_u(q)` for each result node (parallel to [`Self::nodes`]).
    pub fn proximities(&self) -> &[f64] {
        &self.proximities
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when `node` is in the result set.
    pub fn contains(&self, node: u32) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Per-query diagnostics.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }
}

/// A reusable query session: owns a pool of per-thread [`Refiner`]s (a BCA
/// engine plus a materializer, both sized to the graph) so repeated queries
/// allocate almost nothing. Holds no graph borrow — the transition matrix
/// is passed per call.
pub struct QueryEngine {
    hubs: HubSet,
    bca: BcaParams,
    scratch: ScratchPool<Refiner>,
}

impl QueryEngine {
    /// Creates a session compatible with `index` (same hub set and BCA
    /// parameters).
    pub fn new(index: &ReverseIndex) -> Self {
        Self {
            hubs: index.hub_matrix().hubs().clone(),
            bca: index.config().bca,
            scratch: ScratchPool::new(),
        }
    }

    fn make_scratch(&self) -> Refiner {
        Refiner::new(BcaEngine::new(self.hubs.clone(), self.bca), Materializer::default())
    }

    /// Runs Algorithm 4. With `options.update_index` the refined states are
    /// committed back into `index`; otherwise refinement stays in the
    /// workers' scratch and the index is untouched.
    pub fn query(
        &mut self,
        transition: &TransitionMatrix<'_>,
        index: &mut ReverseIndex,
        q: u32,
        k: usize,
        options: &QueryOptions,
    ) -> Result<QueryResult, QueryError> {
        self.screen_and_commit(transition, index, q, k, options, None)
    }

    /// Runs Algorithm 4 against a read-only index (refinements are never
    /// written back; the paper's `no-update` mode).
    pub fn query_frozen(
        &mut self,
        transition: &TransitionMatrix<'_>,
        index: &ReverseIndex,
        q: u32,
        k: usize,
        options: &QueryOptions,
    ) -> Result<QueryResult, QueryError> {
        let opts = QueryOptions { update_index: false, ..*options };
        self.screen(transition, index, q, k, &opts, None).map(|(r, _)| r)
    }

    /// The one query entry: PMPN over the whole graph, then the screen
    /// phase over the node range `index` holds — every node for a whole
    /// index, one shard's range for a one-shard index (the unit of work a
    /// multi-process backend executes). The index is only read; with
    /// `options.update_index` the refined private states come back as
    /// commits for the caller to merge (see [`Self::screen_and_commit`]).
    ///
    /// Running it once per shard of a partition and merging — results
    /// concatenated in shard order, counters summed — reproduces the whole
    /// index's answer bitwise, because per-node screening decisions are
    /// independent and every shard computes the same PMPN vector.
    ///
    /// `pmpn` supplies a precomputed proximity-to-`q` vector (the solve is
    /// skipped), so a router can solve once and ship the vector to every
    /// backend of the same query. Every backend solves the identical
    /// full-graph system, so a shipped vector is bitwise-equal to a local
    /// solve — answers cannot change. A supplied vector whose length
    /// disagrees with the graph is rejected with
    /// [`QueryError::GraphMismatch`].
    pub fn screen(
        &self,
        transition: &TransitionMatrix<'_>,
        index: &ReverseIndex,
        q: u32,
        k: usize,
        options: &QueryOptions,
        pmpn: Option<&[f64]>,
    ) -> Result<ScreenOutput, QueryError> {
        let started = Instant::now();
        let n = transition.node_count();
        check_request(index, n, &[(q, k)])?;
        if let Some(v) = pmpn {
            if v.len() != n {
                return Err(QueryError::GraphMismatch { index_nodes: v.len(), graph_nodes: n });
            }
        }
        let ctx = QueryCtx::new(transition, index, (q, k), options);
        let (mut result, commits) = self.execute(&ctx, pmpn);
        result.stats.total_seconds = started.elapsed().as_secs_f64();
        Ok((result, commits))
    }

    /// [`Self::screen`] plus the commit phase (update mode): the refined
    /// private copies are serially merged back into `index`, and
    /// `total_seconds` is stamped after the merge so the trace's `commit`
    /// span contains it.
    pub fn screen_and_commit(
        &self,
        transition: &TransitionMatrix<'_>,
        index: &mut ReverseIndex,
        q: u32,
        k: usize,
        options: &QueryOptions,
        pmpn: Option<&[f64]>,
    ) -> Result<QueryResult, QueryError> {
        let started = Instant::now();
        let (mut result, commits) = self.screen(transition, index, q, k, options, pmpn)?;
        index.commit_states(commits);
        result.stats.total_seconds = started.elapsed().as_secs_f64();
        Ok(result)
    }

    /// Runs many *independent* queries against a frozen index, fanning them
    /// across [`QueryOptions::query_threads`] workers. The thread budget is
    /// divided, not fixed: with more queries than threads each query runs
    /// serially (the budget buys throughput), while a batch *narrower* than
    /// the budget hands each query its `threads / batch` share for its own
    /// PMPN + screen fan-out — a 2-query batch on 8 threads uses all 8.
    ///
    /// Always the paper's `no-update` mode: concurrent queries never observe
    /// each other's refinements, so `results[i]` equals what
    /// [`Self::query_frozen`] returns for `queries[i]`, in input order —
    /// for every thread budget.
    pub fn query_batch(
        &self,
        transition: &TransitionMatrix<'_>,
        index: &ReverseIndex,
        queries: &[(u32, usize)],
        options: &QueryOptions,
    ) -> Result<Vec<QueryResult>, QueryError> {
        check_request(index, transition.node_count(), queries)?;
        let threads = resolve_threads(options.query_threads);
        let workers = threads.min(queries.len().max(1));
        let per_query =
            QueryOptions { update_index: false, query_threads: threads / workers, ..*options };
        let lanes = WorkerPool::global().claim(workers, queries.len(), Vec::new, |done, i| {
            let (result, _) =
                self.execute(&QueryCtx::new(transition, index, queries[i], &per_query), None);
            done.push((i, result));
        });
        let mut results: Vec<(usize, QueryResult)> = lanes.into_iter().flatten().collect();
        results.sort_unstable_by_key(|&(i, _)| i);
        Ok(results.into_iter().map(|(_, result)| result).collect())
    }

    /// Runs PMPN + the screen over the node range `ctx.index` holds — every
    /// node of a whole index, or the one shard a multi-process backend
    /// owns. Because per-node screening decisions are independent, the
    /// union of per-shard screens equals the full one: concatenating the
    /// shard results in range order and summing their counters reproduces
    /// the single-process answer bitwise — the invariant multi-process
    /// serving is built on.
    ///
    /// Returns the result (with `total_seconds` still unset) and the
    /// refined states to commit (empty unless `options.update_index`).
    /// `pmpn_in` supplies a precomputed PMPN vector (skipping the solve);
    /// the caller must have validated its length.
    fn execute(&self, ctx: &QueryCtx<'_>, pmpn_in: Option<&[f64]>) -> ScreenOutput {
        let (transition, q) = (ctx.transition, ctx.q);

        // Step 1 (Alg. 4 line 1): exact proximities to q via PMPN, with the
        // index's restart probability, SpMV spread over the query threads —
        // or, in approx mode, the backward residue push of the
        // bidirectional estimator (deterministic radius ε/2; see
        // `rtk-approx`).
        let alpha = ctx.index.config().alpha();
        let pmpn_t0 = Instant::now();
        let mut pmpn_iterations = 0u32;
        let mut estimator: Option<BidirEstimator> = None;
        let solved: Vec<f64>;
        let to_q: &[f64] = if let Some(a) = ctx.options.approx.filter(ApproxParams::is_active) {
            estimator = Some(BidirEstimator::build(transition, q, alpha, &a, a.epsilon / 2.0));
            &[]
        } else if let Some(v) = pmpn_in {
            v
        } else {
            let params = RwrParams { alpha, threads: ctx.threads, ..RwrParams::default() };
            let (v, report) = proximity_to(transition, q, &params);
            pmpn_iterations = report.iterations;
            solved = v;
            &solved
        };
        let pmpn_seconds = pmpn_t0.elapsed().as_secs_f64();

        // Step 2 (Alg. 4 lines 2–14): classify decides what the stored
        // states can, refine the rest. The one clock read between them
        // splits the screen's time, traced or not.
        let screen_t0 = Instant::now();
        let mut decided = match &estimator {
            Some(est) => classify(ctx, &EnvelopeSource { est, transition }),
            None => classify(ctx, &ExactSource(to_q)),
        };
        let refine_t0 = Instant::now();
        let pending = std::mem::take(&mut decided.pending);

        // Serial merge of the lanes: counters add; results and commits sort
        // by node id, so the output is independent of phase interleaving.
        for (refiner, lane) in refine::refine(ctx, self, pending) {
            self.scratch.put(refiner);
            decided.absorb(lane);
        }
        let Decided { mut stats, mut results, mut commits, .. } = decided;
        results.sort_unstable_by_key(|&(u, _)| u);
        commits.sort_unstable_by_key(|&(u, _)| u);
        let (nodes, proximities): (Vec<u32>, Vec<f64>) = results.into_iter().unzip();

        stats.pmpn_iterations = pmpn_iterations;
        stats.pmpn_seconds = pmpn_seconds;
        stats.classify_seconds = (refine_t0 - screen_t0).as_secs_f64();
        stats.refine_seconds = refine_t0.elapsed().as_secs_f64();
        stats.screen_seconds = stats.classify_seconds + stats.refine_seconds;
        stats.total_seconds = pmpn_seconds + stats.screen_seconds;
        if estimator.is_some() {
            stats.approx_active = true;
            stats.approx_build_seconds = pmpn_seconds;
        }
        (QueryResult { query: q, k: ctx.k, nodes, proximities, stats }, commits)
    }
}

/// The checks every query entry makes before any work: the graph must be
/// the one `index` was built over, and every `(q, k)` must be in range.
fn check_request(
    index: &ReverseIndex,
    n: usize,
    queries: &[(u32, usize)],
) -> Result<(), QueryError> {
    if index.node_count() != n {
        return Err(QueryError::GraphMismatch { index_nodes: index.node_count(), graph_nodes: n });
    }
    for &(q, k) in queries {
        if k == 0 || k > index.max_k() {
            return Err(QueryError::KOutOfRange { k, max_k: index.max_k() });
        }
        if q as usize >= n {
            return Err(QueryError::NodeOutOfRange { node: q, node_count: n });
        }
    }
    Ok(())
}

/// What screen lanes decide, and what their merge folds: counters, the
/// members confirmed (`(u, p_u(q))`), the candidates classify left open,
/// and the refined states refine hands the commit phase.
#[derive(Default)]
struct Decided {
    stats: QueryStats,
    results: Vec<(u32, f64)>,
    pending: Vec<classify::Pending>,
    commits: Vec<(u32, NodeState)>,
}

impl Decided {
    fn absorb(&mut self, other: Decided) {
        self.stats.absorb(&other.stats);
        self.results.extend(other.results);
        self.pending.extend(other.pending);
        self.commits.extend(other.commits);
    }
}

/// What every phase of one query reads: the graph, the index, the query
/// and its options, resolved once before the screen starts.
struct QueryCtx<'a> {
    transition: &'a TransitionMatrix<'a>,
    index: &'a ReverseIndex,
    q: u32,
    k: usize,
    options: &'a QueryOptions,
    /// `options.bound_mode == Strict`.
    strict: bool,
    /// ε of an active bounded-error screen ([`QueryOptions::approx`]).
    epsilon: Option<f64>,
    /// Lanes each pass, and the PMPN products, may use.
    threads: usize,
}

impl<'a> QueryCtx<'a> {
    fn new(
        transition: &'a TransitionMatrix<'a>,
        index: &'a ReverseIndex,
        (q, k): (u32, usize),
        options: &'a QueryOptions,
    ) -> Self {
        Self {
            transition,
            index,
            q,
            k,
            options,
            strict: options.bound_mode == BoundMode::Strict,
            epsilon: options.approx.filter(|a| a.is_active()).map(|a| a.epsilon),
            threads: resolve_threads(options.query_threads),
        }
    }
}

/// What [`bound_test`] makes of one view of a candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Verdict {
    /// `p_u(q)` is below the k-th lower bound (or not positive): not a
    /// member.
    Miss,
    /// A member: `hit` when the upper bound confirmed it, rather than
    /// bounds that are already exact.
    Member { hit: bool },
    /// The ε-window `[lb, ub]` around `p̂_u(k)` fits in ε: membership is
    /// called at its midpoint.
    Midpoint(bool),
    /// Undecided. `ub` is the k-th upper bound; `cost` is the residual at
    /// which a decision first becomes possible: [`confirm_cost`] at
    /// `p_u(q)`, or, on the ε-band path, at `lb + ε` if that comes first
    /// (the window closes once the residual is down to the cost of level
    /// `lb + ε`).
    Open { ub: f64, cost: f64 },
}

/// Algorithm 4's bound test (lines 4–7, plus the ε-band's window exit) on
/// a staircase `p̂_u(1:k)` (`k = staircase.len()`), its residual and `p`,
/// the value `p_u(q)` stands in with. Both screen passes decide with it:
/// classify on the stored state, refine on the resident one.
///
/// The ε-window exit: with the bidirectional estimate `p̃`, within ε/2 of
/// the truth, a midpoint call is wrong only if `|p̃ − p̂| ≤ ε/2` and
/// `|p − p̃| ≤ ε/2`, so a misclassified node's true margin is at most ε —
/// the error contract of [`QueryOptions::approx`].
#[inline]
fn bound_test(staircase: &[f64], residual: f64, p: f64, epsilon: Option<f64>) -> Verdict {
    let k = staircase.len();
    let lb = staircase[k - 1];
    if p <= TIE_EPSILON || p < lb - TIE_EPSILON {
        return Verdict::Miss;
    }
    if residual <= EXACT_RESIDUAL_EPS {
        // Bounds are exact: p ≥ lb = p^kmax_u (lines 5–7).
        return Verdict::Member { hit: false };
    }
    let ub = upper_bound_kth(staircase, residual, k);
    if p >= ub {
        return Verdict::Member { hit: true };
    }
    let mut cost = confirm_cost(staircase, p);
    if let Some(epsilon) = epsilon {
        if ub - lb <= epsilon {
            return Verdict::Midpoint(p >= (lb + ub) * 0.5);
        }
        cost = cost.max(confirm_cost(staircase, lb + epsilon));
    }
    Verdict::Open { ub, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::brute_force_reverse_topk;
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};
    use rtk_index::{HubSelection, HubSolver, IndexConfig};
    use rtk_rwr::power::proximity_from;
    use rtk_rwr::BcaParams;

    pub(super) fn toy() -> DiGraph {
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

    pub(super) fn toy_index_config() -> IndexConfig {
        IndexConfig {
            max_k: 3,
            bca: BcaParams { residue_threshold: 0.8, ..Default::default() },
            hub_selection: HubSelection::DegreeBased { b: 1 },
            hub_solver: HubSolver::PowerMethod,
            rounding_threshold: 0.0,
            threads: 1,
        }
    }

    #[test]
    fn reproduces_paper_running_example() {
        // §4.2.3, q = node 1 (1-based), k = 2 on the Figure 2 index:
        // nodes 1, 2 are immediate results (hubs, exact bounds);
        // node 3 is pruned by its lower bound (0.24 < 0.27);
        // node 4 needs one refinement, then is pruned (0.19 < 0.23);
        // node 5 is an immediate result (‖r‖ = 0);
        // node 6 is pruned after refinement.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let mut session = QueryEngine::new(&index);
        let result = session.query(&t, &mut index, 0, 2, &QueryOptions::default()).unwrap();
        assert_eq!(result.nodes(), &[0, 1, 4]);
        let s = result.stats();
        // Node 3 (0-based 2) pruned by lb: candidates = 5 of 6.
        assert_eq!(s.pruned_by_lower_bound, 1);
        assert_eq!(s.candidates, 5);
        // Nodes 4 and 6 (0-based 3, 5) required refinement.
        assert_eq!(s.refined_nodes, 2);
        assert!(s.refine_iterations >= 2);
        assert!(s.refine_pushes > 0, "{s:?}");
        // Update mode: node 4's bound is now the refined 0.23.
        assert!((index.state(3).kth_lower_bound(2) - 0.23).abs() < 5e-3);
    }

    #[test]
    fn proximities_are_reported_for_results() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let mut session = QueryEngine::new(&index);
        let result = session.query(&t, &mut index, 0, 2, &QueryOptions::default()).unwrap();
        // p_{q,*} = [0.32 0.24 0.24 0.19 0.20 0.18] (paper): results 0,1,4.
        let expect = [0.32, 0.24, 0.20];
        for (i, (&node, &p)) in result.nodes().iter().zip(result.proximities()).enumerate() {
            let _ = node;
            assert!((p - expect[i]).abs() < 5e-3, "proximity {i}: {p}");
        }
        assert!(result.contains(4));
        assert!(!result.contains(2));
        assert_eq!(result.len(), 3);
        assert_eq!(result.k(), 2);
        assert_eq!(result.query(), 0);
    }

    #[test]
    fn frozen_and_update_modes_agree_on_results() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(120, 500, 5)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 10,
            hub_selection: HubSelection::DegreeBased { b: 5 },
            threads: 1,
            ..Default::default()
        };
        let mut updated = ReverseIndex::build(&t, config.clone()).unwrap();
        let frozen = ReverseIndex::build(&t, config).unwrap();
        let mut session = QueryEngine::new(&frozen);
        for q in [0u32, 7, 33, 99] {
            for k in [1usize, 3, 10] {
                let a = session.query(&t, &mut updated, q, k, &QueryOptions::default()).unwrap();
                let b = session.query_frozen(&t, &frozen, q, k, &QueryOptions::default()).unwrap();
                assert_eq!(a.nodes(), b.nodes(), "q={q} k={k}");
            }
        }
    }

    #[test]
    fn approx_disagreements_stay_inside_the_epsilon_band() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(120, 500, 5)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 10,
            hub_selection: HubSelection::DegreeBased { b: 5 },
            threads: 1,
            ..Default::default()
        };
        let index = ReverseIndex::build(&t, config).unwrap();
        let mut session = QueryEngine::new(&index);
        let epsilon = 1e-4;
        let opts = QueryOptions {
            approx: Some(ApproxParams { epsilon, walks: 16, seed: 7 }),
            ..Default::default()
        };
        let exact_params = RwrParams { epsilon: 1e-14, ..Default::default() };
        for q in [0u32, 7, 33] {
            for k in [1usize, 5] {
                let approx = session.query_frozen(&t, &index, q, k, &opts).unwrap();
                assert!(approx.stats().approx_active);
                let exact: std::collections::BTreeSet<u32> =
                    brute_force_reverse_topk(&t, q, k, &exact_params).into_iter().collect();
                let got: std::collections::BTreeSet<u32> = approx.nodes().iter().copied().collect();
                for &u in exact.symmetric_difference(&got) {
                    // Any disagreement must sit within ε of u's decision
                    // boundary p̂_u(k): |p_u(q) − p̂_u(k)| ≤ ε.
                    let (col, _) = proximity_from(&t, u, &exact_params);
                    let kth = rtk_sparse::dense::kth_largest(&col, k);
                    let margin = (col[q as usize] - kth).abs();
                    assert!(
                        margin <= epsilon + TIE_EPSILON,
                        "q={q} k={k} u={u}: margin {margin:.3e} > ε"
                    );
                }
            }
        }
    }

    #[test]
    fn approx_answers_are_bitwise_stable_across_thread_counts() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(150, 700, 9)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 8,
            hub_selection: HubSelection::DegreeBased { b: 6 },
            threads: 1,
            ..Default::default()
        };
        let index = ReverseIndex::build(&t, config).unwrap();
        let mut session = QueryEngine::new(&index);
        let approx = Some(ApproxParams { epsilon: 1e-3, walks: 24, seed: 42 });
        let base = QueryOptions { approx, query_threads: 1, ..Default::default() };
        let reference = session.query_frozen(&t, &index, 11, 4, &base).unwrap();
        assert!(
            reference.stats().approx_estimated + reference.stats().approx_exact_refined > 0,
            "approx screen should classify at least one candidate"
        );
        for threads in [2usize, 4] {
            let opts = QueryOptions { query_threads: threads, ..base };
            let run = session.query_frozen(&t, &index, 11, 4, &opts).unwrap();
            assert_eq!(run.nodes(), reference.nodes(), "threads={threads}");
            let same = run
                .proximities()
                .iter()
                .zip(reference.proximities())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads}: proximities must be bitwise equal");
        }
    }

    #[test]
    fn inactive_approx_params_take_the_exact_path() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let mut session = QueryEngine::new(&index);
        let zero = QueryOptions {
            approx: Some(ApproxParams { epsilon: 0.0, walks: 32, seed: 3 }),
            ..Default::default()
        };
        let a = session.query_frozen(&t, &index, 0, 2, &zero).unwrap();
        let b = session.query_frozen(&t, &index, 0, 2, &QueryOptions::default()).unwrap();
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.proximities(), b.proximities());
        assert!(!a.stats().approx_active, "ε = 0 must not enter the approx screen");
        assert_eq!(a.stats().pmpn_iterations, b.stats().pmpn_iterations);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let params = RwrParams::default();
        for seed in [1u64, 2, 3] {
            let g = rtk_graph::gen::erdos_renyi(&rtk_graph::gen::ErdosRenyiConfig {
                nodes: 60,
                edges: 240,
                seed,
            })
            .unwrap();
            let t = TransitionMatrix::new(&g);
            let config = IndexConfig {
                max_k: 8,
                hub_selection: HubSelection::DegreeBased { b: 3 },
                threads: 1,
                ..Default::default()
            };
            let mut index = ReverseIndex::build(&t, config).unwrap();
            let mut session = QueryEngine::new(&index);
            for q in [0u32, 11, 42] {
                for k in [1usize, 4, 8] {
                    let expected = brute_force_reverse_topk(&t, q, k, &params);
                    let got =
                        session.query(&t, &mut index, q, k, &QueryOptions::default()).unwrap();
                    assert_eq!(got.nodes(), &expected[..], "seed={seed} q={q} k={k}");
                }
            }
        }
    }

    #[test]
    fn strict_mode_is_exact_under_aggressive_rounding() {
        let g =
            rtk_graph::gen::scale_free(&rtk_graph::gen::ScaleFreeConfig::new(80, 3, 9)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 6,
            hub_selection: HubSelection::DegreeBased { b: 4 },
            rounding_threshold: 1e-2, // brutal: drops a lot of hub mass
            threads: 1,
            ..Default::default()
        };
        let mut index = ReverseIndex::build(&t, config).unwrap();
        let mut session = QueryEngine::new(&index);
        let opts = QueryOptions { bound_mode: BoundMode::Strict, ..Default::default() };
        let params = RwrParams::default();
        for q in [0u32, 17, 55] {
            for k in [2usize, 6] {
                let expected = brute_force_reverse_topk(&t, q, k, &params);
                let got = session.query(&t, &mut index, q, k, &opts).unwrap();
                assert_eq!(got.nodes(), &expected[..], "q={q} k={k}");
            }
        }
    }

    #[test]
    fn update_mode_makes_repeat_queries_cheaper() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(200, 900, 12)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 10,
            hub_selection: HubSelection::DegreeBased { b: 5 },
            threads: 1,
            ..Default::default()
        };
        let mut index = ReverseIndex::build(&t, config).unwrap();
        let mut session = QueryEngine::new(&index);
        let opts = QueryOptions::default();
        let first = session.query(&t, &mut index, 3, 10, &opts).unwrap();
        let second = session.query(&t, &mut index, 3, 10, &opts).unwrap();
        assert_eq!(first.nodes(), second.nodes());
        assert!(
            second.stats().refine_iterations <= first.stats().refine_iterations,
            "second query should reuse refinements: {} vs {}",
            second.stats().refine_iterations,
            first.stats().refine_iterations
        );
    }

    #[test]
    fn stats_are_internally_consistent() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let mut session = QueryEngine::new(&index);
        let r = session.query(&t, &mut index, 1, 2, &QueryOptions::default()).unwrap();
        let s = r.stats();
        assert_eq!(s.candidates + s.pruned_by_lower_bound, 6);
        assert!(s.hits <= s.candidates);
        assert!(r.len() <= s.candidates);
        assert!(s.pmpn_iterations > 0);
        assert!(s.total_seconds >= s.pmpn_seconds);
    }

    #[test]
    fn rejects_invalid_queries() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let mut session = QueryEngine::new(&index);
        let opts = QueryOptions::default();
        assert!(matches!(
            session.query(&t, &mut index, 0, 0, &opts),
            Err(QueryError::KOutOfRange { k: 0, max_k: 3 })
        ));
        assert!(matches!(
            session.query(&t, &mut index, 0, 4, &opts),
            Err(QueryError::KOutOfRange { k: 4, max_k: 3 })
        ));
        assert!(matches!(
            session.query(&t, &mut index, 6, 1, &opts),
            Err(QueryError::NodeOutOfRange { node: 6, node_count: 6 })
        ));
    }

    #[test]
    fn rejects_mismatched_graph() {
        // Session built against a 3-node graph + its index, then handed the
        // 6-node toy index: the query must fail cleanly.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index6 = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let other =
            GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)], DanglingPolicy::Error).unwrap();
        let t2 = TransitionMatrix::new(&other);
        let config3 = IndexConfig {
            max_k: 3,
            hub_selection: HubSelection::DegreeBased { b: 1 },
            threads: 1,
            ..Default::default()
        };
        let index3 = ReverseIndex::build(&t2, config3).unwrap();
        let mut session = QueryEngine::new(&index3);
        assert!(matches!(
            session.query(&t2, &mut index6, 0, 1, &QueryOptions::default()),
            Err(QueryError::GraphMismatch { .. })
        ));
    }

    #[test]
    fn approximate_mode_returns_a_high_recall_subset() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(300, 1200, 77)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 10,
            hub_selection: HubSelection::DegreeBased { b: 10 },
            threads: 1,
            ..Default::default()
        };
        let mut index = ReverseIndex::build(&t, config).unwrap();
        let mut session = QueryEngine::new(&index);
        let approx_opts = QueryOptions { approximate: true, ..Default::default() };
        let mut exact_total = 0usize;
        let mut approx_total = 0usize;
        for q in (0..300u32).step_by(29) {
            let approx = session.query_frozen(&t, &index, q, 10, &approx_opts).unwrap();
            let exact = session.query(&t, &mut index, q, 10, &QueryOptions::default()).unwrap();
            // Approximate results are always a subset of the exact answer …
            for u in approx.nodes() {
                assert!(exact.contains(*u), "q={q}: {u} not in exact result");
            }
            // … and never refine anything.
            assert_eq!(approx.stats().refined_nodes, 0);
            assert_eq!(approx.stats().refine_iterations, 0);
            exact_total += exact.len();
            approx_total += approx.len();
        }
        // Recall should be substantial on web-like graphs (paper: hits ≈
        // results on the web datasets).
        assert!(
            approx_total * 2 >= exact_total,
            "approximate recall too low: {approx_total}/{exact_total}"
        );
    }

    #[test]
    fn every_node_as_query_covers_graph_k_times() {
        // Σ_q |reverse-top-k(q)| = n·k (each node's top-k contributes once
        // per member) — a strong global consistency check of OQ.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let mut session = QueryEngine::new(&index);
        let k = 2;
        let total: usize = (0..6u32)
            .map(|q| session.query(&t, &mut index, q, k, &QueryOptions::default()).unwrap().len())
            .sum();
        assert_eq!(total, 6 * k);
    }

    #[test]
    fn explicit_thread_counts_agree_with_serial() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(250, 1100, 31)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 8,
            hub_selection: HubSelection::DegreeBased { b: 6 },
            threads: 1,
            ..Default::default()
        };
        let frozen = ReverseIndex::build(&t, config).unwrap();
        let mut session = QueryEngine::new(&frozen);
        let serial = QueryOptions { query_threads: 1, ..Default::default() };
        for q in [0u32, 49, 123] {
            let base = session.query_frozen(&t, &frozen, q, 8, &serial).unwrap();
            for threads in [2usize, 4, 8] {
                let opts = QueryOptions { query_threads: threads, ..Default::default() };
                let got = session.query_frozen(&t, &frozen, q, 8, &opts).unwrap();
                assert_eq!(got.nodes(), base.nodes(), "q={q} threads={threads}");
                assert_eq!(got.proximities(), base.proximities(), "q={q} threads={threads}");
                assert_eq!(got.stats().candidates, base.stats().candidates);
                assert_eq!(got.stats().refine_iterations, base.stats().refine_iterations);
                // Summed over the workers' engines, whoever refined what.
                assert_eq!(got.stats().refine_pushes, base.stats().refine_pushes);
            }
        }
    }

    #[test]
    fn query_batch_matches_individual_frozen_queries() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(200, 800, 17)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 6,
            hub_selection: HubSelection::DegreeBased { b: 5 },
            threads: 1,
            ..Default::default()
        };
        let index = ReverseIndex::build(&t, config).unwrap();
        let mut session = QueryEngine::new(&index);
        let queries: Vec<(u32, usize)> =
            (0..40u32).map(|i| ((i * 5) % 200, 1 + (i as usize % 6))).collect();
        for threads in [1usize, 3, 8] {
            let opts = QueryOptions { query_threads: threads, ..Default::default() };
            let batch = session.query_batch(&t, &index, &queries, &opts).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (i, &(q, k)) in queries.iter().enumerate() {
                let single =
                    session.query_frozen(&t, &index, q, k, &QueryOptions::default()).unwrap();
                assert_eq!(batch[i].nodes(), single.nodes(), "i={i} threads={threads}");
                assert_eq!(batch[i].query(), q);
                assert_eq!(batch[i].k(), k);
            }
        }
    }

    #[test]
    fn query_batch_rejects_invalid_queries_upfront() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let session = QueryEngine::new(&index);
        let opts = QueryOptions::default();
        assert!(matches!(
            session.query_batch(&t, &index, &[(0, 2), (1, 0)], &opts),
            Err(QueryError::KOutOfRange { k: 0, .. })
        ));
        assert!(matches!(
            session.query_batch(&t, &index, &[(0, 2), (9, 1)], &opts),
            Err(QueryError::NodeOutOfRange { node: 9, .. })
        ));
        assert!(session.query_batch(&t, &index, &[], &opts).unwrap().is_empty());
    }

    #[test]
    fn queries_share_the_global_worker_pool_without_respawning() {
        // The acceptance criterion for the persistent pool: thread spawns
        // are O(pool size) per process, not O(queries) or O(refinement
        // iterations). Warm the pool up, then hammer it with parallel
        // queries and batches — the spawn counter must not move.
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(200, 800, 17)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 6,
            hub_selection: HubSelection::DegreeBased { b: 5 },
            threads: 1,
            ..Default::default()
        };
        let mut index = ReverseIndex::build(&t, config).unwrap();
        index.repartition(2);
        let mut session = QueryEngine::new(&index);
        let opts = QueryOptions { query_threads: 8, ..Default::default() };
        session.query_frozen(&t, &index, 0, 6, &opts).unwrap(); // warm-up
        let spawned = rtk_sparse::WorkerPool::global().threads_spawned();
        assert_eq!(spawned, rtk_sparse::WorkerPool::global().size());
        for q in 0..50u32 {
            session.query_frozen(&t, &index, (q * 7) % 200, 6, &opts).unwrap();
        }
        let batch: Vec<(u32, usize)> = (0..30u32).map(|i| ((i * 11) % 200, 6)).collect();
        session.query_batch(&t, &index, &batch, &opts).unwrap();
        assert_eq!(
            rtk_sparse::WorkerPool::global().threads_spawned(),
            spawned,
            "queries must reuse pool workers, never spawn new threads"
        );
    }

    #[test]
    fn shard_scoped_scans_merge_to_the_full_answer_bitwise() {
        // The multi-process invariant: one screen per one-shard index, partial
        // results concatenated in shard order and counters summed, equals
        // the single-process query — results, proximities, stats, and (in
        // update mode) the post-commit index.
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(150, 600, 9)).unwrap();
        let t = TransitionMatrix::new(&g);
        let config = IndexConfig {
            max_k: 8,
            hub_selection: HubSelection::DegreeBased { b: 5 },
            threads: 1,
            ..Default::default()
        };
        for update in [false, true] {
            let mut whole = ReverseIndex::build(&t, config.clone()).unwrap();
            whole.repartition(4);
            let mut parts: Vec<ReverseIndex> =
                (0..whole.shard_count()).map(|sid| whole.one_shard(sid).unwrap()).collect();
            let mut session = QueryEngine::new(&whole);
            let opts = QueryOptions { update_index: update, ..Default::default() };
            for q in [0u32, 31, 77, 149] {
                let expect = if update {
                    session.query(&t, &mut whole, q, 5, &opts).unwrap()
                } else {
                    session.query_frozen(&t, &whole, q, 5, &opts).unwrap()
                };

                let mut nodes = Vec::new();
                let mut proximities = Vec::new();
                let mut stats = QueryStats::default();
                for part in &mut parts {
                    let partial = session.screen_and_commit(&t, part, q, 5, &opts, None).unwrap();
                    // The partial covers only this shard's range.
                    let range = part.owned_range();
                    assert!(partial.nodes().iter().all(|&u| range.contains(&u)));
                    nodes.extend_from_slice(partial.nodes());
                    proximities.extend_from_slice(partial.proximities());
                    stats.absorb(partial.stats());
                }

                assert_eq!(nodes, expect.nodes(), "q={q} update={update}");
                for (a, b) in proximities.iter().zip(expect.proximities()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "q={q} update={update}");
                }
                assert_eq!(stats.candidates, expect.stats().candidates);
                assert_eq!(stats.hits, expect.stats().hits);
                assert_eq!(stats.refined_nodes, expect.stats().refined_nodes);
                assert_eq!(stats.refine_iterations, expect.stats().refine_iterations);
                assert_eq!(stats.refine_pushes, expect.stats().refine_pushes);
            }
            if update {
                // Backend-local commits leave exactly the single-process index.
                for part in &parts {
                    for u in part.owned_range() {
                        assert_eq!(whole.state(u), part.state(u), "node {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn query_shard_rejects_invalid_queries() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut whole = ReverseIndex::build(&t, toy_index_config()).unwrap();
        whole.repartition(2);
        let index = whole.one_shard(0).unwrap();
        let session = QueryEngine::new(&index);
        let opts = QueryOptions::default();
        assert!(matches!(
            session.screen(&t, &index, 0, 0, &opts, None),
            Err(QueryError::KOutOfRange { k: 0, .. })
        ));
        assert!(matches!(
            session.screen(&t, &index, 9, 1, &opts, None),
            Err(QueryError::NodeOutOfRange { node: 9, .. })
        ));
        // A shipped PMPN vector of the wrong length is refused, not indexed.
        assert!(matches!(
            session.screen(&t, &index, 0, 1, &opts, Some(&[0.0; 5])),
            Err(QueryError::GraphMismatch { index_nodes: 5, graph_nodes: 6 })
        ));
    }

    #[test]
    fn stats_rebuild_as_a_span_tree_with_exact_phase_sums() {
        let stats = QueryStats {
            candidates: 12,
            hits: 9,
            pruned_by_lower_bound: 80,
            refined_nodes: 3,
            refine_iterations: 5,
            refine_rounds: 4,
            refine_pushes: 321,
            exact_fallbacks: 1,
            pmpn_iterations: 17,
            pmpn_seconds: 0.002,
            screen_seconds: 0.0025 + 0.0035,
            classify_seconds: 0.0025,
            refine_seconds: 0.0035,
            total_seconds: 0.009,
            ..Default::default()
        };
        let trace = stats.to_trace("engine:reverse_topk");
        assert_eq!(trace.name, "engine:reverse_topk");
        let names: Vec<&str> = trace.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["pmpn_solve", "screen", "commit"]);
        // Phases tile the root span: each starts where the previous ended
        // and durations sum exactly to the root duration.
        let mut cursor = 0.0;
        for child in &trace.children {
            assert_eq!(child.start_seconds, cursor, "{}", child.name);
            cursor += child.duration_seconds;
        }
        assert_eq!(cursor, trace.duration_seconds);
        assert_eq!(trace.duration_seconds, stats.total_seconds);
        let screen = &trace.children[1];
        assert!(screen.annotations.iter().any(|(k, v)| k == "candidates" && v == "12"));
        // Re-tests sit right after the iterations they followed.
        let keys: Vec<&str> = screen.annotations.iter().map(|(k, _)| k.as_str()).collect();
        let at = keys.iter().position(|&k| k == "refine_iterations").expect("annotated");
        assert_eq!(keys[at + 1], "refine_rounds");
        assert_eq!(screen.annotations[at + 1].1, "4");
        assert_eq!(screen.annotations[at + 2], ("refine_pushes".to_string(), "321".to_string()));
        assert!(screen.annotations.iter().any(|(k, _)| k == "exact_fallbacks"));

        // The screen's passes tile it the same way, on a real query too.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let mut session = QueryEngine::new(&index);
        let real = session.query_frozen(&t, &index, 0, 2, &QueryOptions::default()).unwrap();
        for trace in [trace, real.stats().to_trace("engine:reverse_topk")] {
            let screen = &trace.children[1];
            let names: Vec<&str> = screen.children.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["classify", "refine"]);
            let mut cursor = 0.0;
            for child in &screen.children {
                assert_eq!(child.start_seconds, cursor, "{}", child.name);
                cursor += child.duration_seconds;
            }
            assert_eq!(cursor, screen.duration_seconds);
        }
    }

    #[test]
    fn scratch_pool_is_reused_across_queries() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = ReverseIndex::build(&t, toy_index_config()).unwrap();
        let mut session = QueryEngine::new(&index);
        let opts = QueryOptions { query_threads: 1, ..Default::default() };
        session.query(&t, &mut index, 0, 2, &opts).unwrap();
        let after_first = session.scratch.idle();
        assert_eq!(after_first, 1, "serial query should park one scratch");
        session.query(&t, &mut index, 1, 2, &opts).unwrap();
        assert_eq!(session.scratch.idle(), 1, "scratch must be recycled, not re-made");
    }
}
