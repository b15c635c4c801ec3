//! The owning engine: graph + index + query session in one value.

use crate::error::EngineError;
use rtk_graph::{DiGraph, NodeId, TransitionMatrix, TransitionProbs};
use rtk_index::{
    storage, HubSelection, IndexConfig, IndexStats, ReverseIndex, UpdateEffect, UpdateRecord,
};
use rtk_query::{QueryEngine, QueryOptions, QueryResult};
use rtk_rwr::power::SolveReport;
use rtk_rwr::RwrParams;
use std::io::{Read, Write};
use std::path::Path;

/// An owning reverse top-k search engine.
///
/// ```
/// use rtk_core::{ReverseTopkEngine, graph::NodeId};
///
/// // The 6-node toy graph of the paper's Figure 1.
/// let mut engine = ReverseTopkEngine::builder(rtk_datasets::toy_graph())
///     .max_k(3)
///     .hubs_per_direction(1)
///     .build()
///     .unwrap();
///
/// // Reverse top-2 of node 0: who ranks node 0 among their 2 closest?
/// let result = engine.query(NodeId(0), 2).unwrap();
/// assert_eq!(result.nodes(), &[0, 1, 4]);
///
/// // The forward direction for one of them agrees.
/// let top = engine.top_k(NodeId(4), 2).unwrap();
/// assert!(top.iter().any(|&(v, _)| v == NodeId(0)));
/// ```
///
/// Construct through [`ReverseTopkEngine::builder`]. The engine owns the
/// graph, the offline index (which it refines across queries in `update`
/// mode), the reusable query buffers, **and the cached `O(|E|)` transition
/// probabilities** — every query/top-k/proximity call wraps the cache in an
/// `O(1)` [`TransitionMatrix`] view instead of recomputing it. The only
/// mutating graph APIs, [`Self::add_edge`] / [`Self::remove_edge`], splice
/// the cache in place (bitwise-equal to recomputing it); the view
/// constructor asserts graph/cache agreement as a backstop.
///
/// # Whole or one shard
///
/// The engine always holds the full graph (PMPN and BCA refinement walk the
/// whole transition matrix); its index holds the node states of **every**
/// shard or of **exactly one** ([`ReverseIndex::one_shard`],
/// [`rtk_index::storage::load_one_shard`]) — the memory that actually scales
/// with the index, and what one backend of a multi-process tier owns. A
/// whole engine answers [`Self::query`] / [`Self::query_batch`]; a one-shard
/// engine answers the shard-scoped slice ([`Self::query_shard`]) that a
/// router merges into the full answer, bitwise equal to the whole engine's.
/// Calling the wrong family is an [`EngineError::Ownership`] error naming
/// the owned node range — never a partial answer. Everything else (edge
/// updates, forward top-k, proximities, the digest) works on both.
pub struct ReverseTopkEngine {
    graph: DiGraph,
    /// Cached transition probabilities for `graph` (kept in sync by
    /// construction; edge updates splice the touched row in place).
    probs: TransitionProbs,
    index: ReverseIndex,
    session: QueryEngine,
    options: QueryOptions,
}

impl ReverseTopkEngine {
    /// Starts configuring an engine for `graph`.
    pub fn builder(graph: DiGraph) -> EngineBuilder {
        EngineBuilder {
            graph,
            config: IndexConfig::default(),
            shards: 1,
            options: QueryOptions::default(),
        }
    }

    /// Rebuilds an engine from a graph and a previously built index — one
    /// holding every shard or exactly one ([`ReverseIndex::one_shard`],
    /// [`rtk_index::storage::load_one_shard`]).
    pub fn from_parts(graph: DiGraph, index: ReverseIndex) -> Result<Self, EngineError> {
        if graph.node_count() != index.node_count() {
            return Err(EngineError::Query(rtk_query::QueryError::GraphMismatch {
                index_nodes: index.node_count(),
                graph_nodes: graph.node_count(),
            }));
        }
        let dangling = graph.dangling_nodes();
        if let Some(&node) = dangling.first() {
            return Err(EngineError::Graph(rtk_graph::GraphError::DanglingNode {
                node,
                count: dangling.len(),
            }));
        }
        let probs = TransitionProbs::compute(&graph);
        let session = QueryEngine::new(&index);
        Ok(Self { graph, probs, index, session, options: QueryOptions::default() })
    }

    /// The cached transition view — `O(1)`, no allocation.
    fn transition(&self) -> TransitionMatrix<'_> {
        TransitionMatrix::with_probs(&self.graph, &self.probs)
    }

    /// The one ownership check: whole-answer calls need an index holding
    /// every shard, shard-scoped calls an index holding exactly one. The
    /// wrong family is refused, naming the owned node range — screening
    /// only the held range would be a silently partial answer.
    fn check_ownership(&self, shard_scoped: bool) -> Result<(), EngineError> {
        let owned = self.index.owned_range();
        match (self.index.owned_shard(), shard_scoped) {
            (None, false) | (Some(_), true) => Ok(()),
            (Some(shard), false) => Err(EngineError::Ownership(format!(
                "this engine serves only shard {shard}, nodes {}..{} (--shard-only); \
                 send shard_reverse_topk, or query the router for full answers",
                owned.start, owned.end
            ))),
            (None, true) => Err(EngineError::Ownership(format!(
                "shard_reverse_topk requires an engine holding exactly one shard \
                 (--shard-only); this one holds every shard, nodes {}..{} — use reverse_topk",
                owned.start, owned.end
            ))),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The offline index (read-only view).
    pub fn index(&self) -> &ReverseIndex {
        &self.index
    }

    /// Index construction statistics.
    pub fn index_stats(&self) -> &IndexStats {
        self.index.stats()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of index shards `S` in the partition (held or not).
    pub fn shard_count(&self) -> usize {
        self.index.shard_count()
    }

    /// Re-partitions the index into `shards` even node-range shards. A pure
    /// layout change: no per-node state moves, so answers are unaffected
    /// and the next edge update does the same work (`rtk shard split`
    /// offline, or an embedder retuning a loaded snapshot).
    ///
    /// # Panics
    /// Panics on a one-shard engine (see [`ReverseIndex::repartition`]).
    pub fn reshard(&mut self, shards: usize) {
        self.index.repartition(shards);
    }

    /// Inserts the edge `from → to` (or accumulates `weight` onto an
    /// existing one) and incrementally repairs everything downstream: the
    /// spliced transition cache stays bitwise-equal to a from-scratch
    /// rebuild, and the index recompute is limited to the affected set
    /// (nodes that can reach `from`; see [`rtk_index::update`]) — on a
    /// one-shard engine, to the affected states it holds, so every backend
    /// applying the same update does the identical hub recompute and
    /// disjoint per-node work. Returns what was invalidated. The one-record
    /// case of [`Self::replay_updates`].
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: f64,
    ) -> Result<UpdateEffect, EngineError> {
        self.replay_updates(&[UpdateRecord::AddEdge { from: from.0, to: to.0, weight }])
    }

    /// Removes the edge `from → to` entirely (errors if it does not exist,
    /// or if removing it would leave `from` dangling) and incrementally
    /// repairs the transition cache and the affected index entries, as
    /// [`Self::add_edge`] does.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Result<UpdateEffect, EngineError> {
        self.replay_updates(&[UpdateRecord::RemoveEdge { from: from.0, to: to.0 }])
    }

    /// Applies edge updates in order — a decoded `RTKULOG1` update log, or
    /// one live edit — with **one** index recompute. Every record is
    /// spliced into the graph and the transition cache first, and its
    /// affected set taken right after its own splice; then
    /// [`ReverseIndex::apply_update`] recomputes each hub column and held
    /// state in the union of those sets once, against the final graph.
    ///
    /// The result is byte for byte what applying the records one at a time
    /// leaves (see [`rtk_index::update`]): a state's recipe output cannot
    /// change after the last edit that reaches it, and a stored run is kept
    /// only if it read none of the edited rows. So applied on top of the
    /// snapshot the log was recorded against, this reproduces the live
    /// engine's post-update index byte for byte, at the cost of one
    /// recompute instead of one per record. The returned effect counts each
    /// recomputed state and hub column once.
    ///
    /// A record that cannot be applied (a missing edge, a node's last
    /// out-edge, an out-of-range node, a weight that breaks its row) is
    /// refused before it mutates anything. The records before it stay
    /// applied and recomputed, and its error is returned: the engine is then
    /// byte-equal to one that applied the prefix one record at a time.
    pub fn replay_updates(
        &mut self,
        records: &[UpdateRecord],
    ) -> Result<UpdateEffect, EngineError> {
        let n = self.graph.node_count();
        let mut edited = Vec::with_capacity(records.len());
        let mut affected = vec![false; n];
        let mut refused = None;
        for record in records {
            let splice = match *record {
                UpdateRecord::AddEdge { from, to, weight } => self.graph.add_edge(from, to, weight),
                UpdateRecord::RemoveEdge { from, to } => self.graph.remove_edge(from, to),
            };
            let splice = match splice {
                Ok(splice) => splice,
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            };
            self.probs.apply_splice(&self.graph, &splice);
            edited.push(splice.from);
            for u in rtk_index::affected_set(&self.graph, splice.from) {
                affected[u as usize] = true;
            }
        }
        edited.sort_unstable();
        edited.dedup();
        let affected: Vec<u32> = (0..n as u32).filter(|&u| affected[u as usize]).collect();
        let transition = TransitionMatrix::with_probs(&self.graph, &self.probs);
        let effect = self.index.apply_update(&transition, &edited, &affected);
        match refused {
            Some(e) => Err(e.into()),
            None => Ok(effect),
        }
    }

    /// A stable digest (FNV-1a 64) of what the current index persists as —
    /// the [`rtk_index::storage::save`] snapshot less its graph section when
    /// every shard is held, the `RTKSHRD1` section of the one held shard
    /// otherwise — with every
    /// hub-column and node-state record folded to its own hash first
    /// ([`rtk_index::storage::index_digest`]). Those record hashes are
    /// cached beside the records: an edge update re-hashes what it
    /// recomputed, a query commit only forgets the hashes of the states it
    /// replaced, and this call hashes what is missing plus 8 bytes per
    /// record. Two engines holding the same shards answer identically
    /// whenever their digests match; the router compares these over the
    /// wire (`stats`) to assert replica convergence after updates. Values
    /// are comparable between processes of the same build only.
    pub fn index_digest(&self) -> u64 {
        storage::index_digest(&self.index)
    }

    /// The default query options used by [`Self::query`].
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// Replaces the default query options.
    pub fn set_options(&mut self, options: QueryOptions) {
        self.options = options;
    }

    /// Runs a reverse top-k query with the engine's default options.
    pub fn query(&mut self, q: NodeId, k: usize) -> Result<QueryResult, EngineError> {
        let options = self.options;
        self.query_with(q, k, &options)
    }

    /// Runs a reverse top-k query with explicit options.
    pub fn query_with(
        &mut self,
        q: NodeId,
        k: usize,
        options: &QueryOptions,
    ) -> Result<QueryResult, EngineError> {
        self.check_ownership(false)?;
        self.screen_and_commit(q, k, options, None)
    }

    /// Fans independent reverse top-k queries across
    /// [`QueryOptions::query_threads`] workers (throughput mode). Always the
    /// paper's `no-update` mode, so `results[i]` answers as a frozen
    /// single-query run of `queries[i]`, in input order (counters may differ:
    /// see [`QueryEngine::query_batch`]).
    pub fn query_batch(
        &self,
        queries: &[(NodeId, usize)],
        options: &QueryOptions,
    ) -> Result<Vec<QueryResult>, EngineError> {
        self.check_ownership(false)?;
        let transition = self.transition();
        let raw: Vec<(u32, usize)> = queries.iter().map(|&(q, k)| (q.0, k)).collect();
        Ok(self.session.query_batch(&transition, &self.index, &raw, options)?)
    }

    /// The shard-scoped slice of a reverse top-k query, on an engine
    /// holding one shard: PMPN over the whole graph, screening over the
    /// owned node range only. With `options.update_index` the refined
    /// private states commit back into the owned shard — the backend-local
    /// half of the cross-process commit merge (each backend owns its shard,
    /// so commits never race across processes).
    ///
    /// `pmpn` supplies a precomputed proximity-to-`q` vector — a router's
    /// [`Self::solve_shard`] on any backend — so this backend skips the
    /// solve and only screens.
    pub fn query_shard(
        &mut self,
        q: NodeId,
        k: usize,
        options: &QueryOptions,
        pmpn: Option<&[f64]>,
    ) -> Result<QueryResult, EngineError> {
        self.check_ownership(true)?;
        self.screen_and_commit(q, k, options, pmpn)
    }

    /// [`Self::query_shard`] without the commit: refined states are
    /// dropped and the engine's states are not modified, whatever
    /// `options.update_index` says — so concurrent callers can share it.
    /// An exact call keeps the bounds it reached
    /// ([`rtk_index::ReverseIndex::kept`]).
    ///
    /// ```
    /// use rtk_core::{ReverseTopkEngine, graph::NodeId};
    ///
    /// // Build a 2-shard engine, then serve shard 0 standalone.
    /// let graph = rtk_datasets::toy_graph();
    /// let whole = ReverseTopkEngine::builder(graph.clone())
    ///     .max_k(3)
    ///     .hubs_per_direction(1)
    ///     .shards(2)
    ///     .build()
    ///     .unwrap();
    /// let index = whole.index().one_shard(0).unwrap();
    /// let backend = ReverseTopkEngine::from_parts(graph, index).unwrap();
    /// assert_eq!(backend.index().owned_range(), 0..3);
    ///
    /// // The shard-scoped slice of "reverse top-2 of node 0" ({0, 1, 4}
    /// // globally) restricted to nodes 0..3 is {0, 1}.
    /// let partial =
    ///     backend.query_shard_frozen(NodeId(0), 2, &Default::default(), None).unwrap();
    /// assert_eq!(partial.nodes(), &[0, 1]);
    ///
    /// // Whole answers are refused, naming what this engine holds.
    /// let err = backend.query_batch(&[(NodeId(0), 2)], &Default::default()).unwrap_err();
    /// assert!(err.to_string().contains("nodes 0..3"));
    /// ```
    pub fn query_shard_frozen(
        &self,
        q: NodeId,
        k: usize,
        options: &QueryOptions,
        pmpn: Option<&[f64]>,
    ) -> Result<QueryResult, EngineError> {
        self.check_ownership(true)?;
        let opts = QueryOptions { update_index: false, ..*options };
        Ok(self.session.screen(&self.transition(), &self.index, q.0, k, &opts, pmpn)?.0)
    }

    /// The solve-only half of a routed query on a one-shard engine: PMPN
    /// (Alg. 2) alone, bit-equal to [`Self::proximities_to`], with its
    /// report. Every shard's [`Self::query_shard`] screens against it.
    pub fn solve_shard(&self, q: NodeId) -> Result<(Vec<f64>, SolveReport), EngineError> {
        self.check_ownership(true)?;
        self.check_node(q)?;
        Ok(rtk_rwr::proximity_to(&self.transition(), q.0, &self.solver_params()))
    }

    /// Screens the held node range and commits refinements (update mode).
    fn screen_and_commit(
        &mut self,
        q: NodeId,
        k: usize,
        options: &QueryOptions,
        pmpn: Option<&[f64]>,
    ) -> Result<QueryResult, EngineError> {
        let transition = TransitionMatrix::with_probs(&self.graph, &self.probs);
        Ok(self
            .session
            .screen_and_commit(&transition, &mut self.index, q.0, k, options, pmpn)?)
    }

    /// Forward top-k RWR search: the `k` nodes with the highest proximity
    /// *from* `u`, descending.
    pub fn top_k(&self, u: NodeId, k: usize) -> Result<Vec<(NodeId, f64)>, EngineError> {
        self.check_top_k(u, k)?;
        let transition = self.transition();
        let params = self.solver_params();
        let top = rtk_query::baseline::top_k_rwr(&transition, u.0, k, &params);
        Ok(top.into_iter().map(|(v, p)| (NodeId(v), p)).collect())
    }

    /// Early-terminating forward top-k search (BPA-style, §6.2): usually far
    /// fewer iterations than [`Self::top_k`]. The returned *set* is exact
    /// (up to value ties below 1e-9); the proximities are lower bounds and
    /// the internal order follows them, not the converged ranking.
    pub fn top_k_early(&self, u: NodeId, k: usize) -> Result<Vec<(NodeId, f64)>, EngineError> {
        self.check_top_k(u, k)?;
        let transition = self.transition();
        let params = rtk_rwr::BcaParams {
            alpha: self.index.config().alpha(),
            propagation_threshold: 1e-7,
            residue_threshold: 0.0,
            max_iterations: 100_000,
        };
        let (top, _) = rtk_query::top_k_rwr_early(&transition, u.0, k, &params);
        Ok(top.into_iter().map(|(v, p)| (NodeId(v), p)).collect())
    }

    /// Exact proximities *to* `q` from every node (PMPN, Alg. 2):
    /// `result[u] = p_u(q)`.
    pub fn proximities_to(&self, q: NodeId) -> Result<Vec<f64>, EngineError> {
        self.check_node(q)?;
        let transition = self.transition();
        let params = self.solver_params();
        Ok(rtk_rwr::proximity_to(&transition, q.0, &params).0)
    }

    /// Exact proximities *from* `u` to every node (forward power method):
    /// `result[v] = p_u(v)`.
    pub fn proximities_from(&self, u: NodeId) -> Result<Vec<f64>, EngineError> {
        self.check_node(u)?;
        let transition = self.transition();
        let params = self.solver_params();
        Ok(rtk_rwr::proximity_from(&transition, u.0, &params).0)
    }

    /// Solver parameters for the facade's standalone proximity calls: the
    /// index's `α`, SpMV threads from the default query options.
    fn solver_params(&self) -> RwrParams {
        RwrParams::with_alpha(self.index.config().alpha()).with_threads(self.options.query_threads)
    }

    /// Persists the engine as one snapshot ([`rtk_index::storage::save`]):
    /// the graph, `P_H`, the shard map and every shard the index holds —
    /// all of them for a whole engine, its own section for a one-shard one
    /// (a backend's `persist`, re-assembled by
    /// [`rtk_index::storage::stitch`]).
    pub fn save<W: Write>(&self, writer: W) -> Result<(), EngineError> {
        Ok(storage::save(&self.graph, &self.index, writer)?)
    }

    /// Loads an engine persisted by [`Self::save`]: whole or one shard,
    /// whatever the snapshot holds.
    pub fn load<R: Read>(reader: R) -> Result<Self, EngineError> {
        let (graph, index) = storage::load(reader)?;
        Self::from_parts(graph, index)
    }

    /// Persists to a file path (see [`Self::save`]).
    pub fn save_path<P: AsRef<Path>>(&self, path: P) -> Result<(), EngineError> {
        Ok(storage::save_path(&self.graph, &self.index, path)?)
    }

    /// Loads from a file path (see [`Self::load`]).
    pub fn load_path<P: AsRef<Path>>(path: P) -> Result<Self, EngineError> {
        let (graph, index) = storage::load_path(path)?;
        Self::from_parts(graph, index)
    }

    /// Forward top-k input check: `rtk-query` asserts `k ≥ 1`, and a `k`
    /// off the wire must be an error, not a panic on a serving thread.
    fn check_top_k(&self, u: NodeId, k: usize) -> Result<(), EngineError> {
        self.check_node(u)?;
        if k == 0 {
            let max_k = self.node_count();
            return Err(EngineError::Query(rtk_query::QueryError::KOutOfRange { k, max_k }));
        }
        Ok(())
    }

    #[allow(clippy::wrong_self_convention)]
    fn check_node(&self, u: NodeId) -> Result<(), EngineError> {
        if u.index() >= self.graph.node_count() {
            return Err(EngineError::Query(rtk_query::QueryError::NodeOutOfRange {
                node: u.0,
                node_count: self.graph.node_count(),
            }));
        }
        Ok(())
    }
}

/// Configures and builds a [`ReverseTopkEngine`].
pub struct EngineBuilder {
    graph: DiGraph,
    config: IndexConfig,
    shards: usize,
    options: QueryOptions,
}

impl EngineBuilder {
    /// Sets the restart probability `α` (default 0.15) for the index, its
    /// hub solver, and all queries.
    pub fn restart_probability(mut self, alpha: f64) -> Self {
        self.config.bca.alpha = alpha;
        self
    }

    /// Sets `K`, the largest query `k` the index supports (default 200).
    pub fn max_k(mut self, max_k: usize) -> Self {
        self.config.max_k = max_k;
        self
    }

    /// Degree-based hub selection size `B` (default 50): the union of the
    /// `B` highest in-degree and `B` highest out-degree nodes become hubs.
    pub fn hubs_per_direction(mut self, b: usize) -> Self {
        self.config.hub_selection = HubSelection::DegreeBased { b };
        self
    }

    /// Fully custom hub selection.
    pub fn hub_selection(mut self, selection: HubSelection) -> Self {
        self.config.hub_selection = selection;
        self
    }

    /// Hub-vector rounding threshold `ω` (default 1e-6; 0 disables).
    pub fn rounding_threshold(mut self, omega: f64) -> Self {
        self.config.rounding_threshold = omega;
        self
    }

    /// BCA propagation threshold `η` (default 1e-4).
    pub fn propagation_threshold(mut self, eta: f64) -> Self {
        self.config.bca.propagation_threshold = eta;
        self
    }

    /// BCA residue threshold `δ` for index construction (default 0.1).
    pub fn residue_threshold(mut self, delta: f64) -> Self {
        self.config.bca.residue_threshold = delta;
        self
    }

    /// Worker threads for index construction (0 = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Number of contiguous node-range index shards (default 1; `0` also
    /// means one), set on the built index with
    /// [`ReverseIndex::repartition`]. Shard count, like thread count, may
    /// only change wall time and storage layout — never answers.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Worker threads for the online query hot path (0 = all cores, the
    /// default): PMPN matrix–vector products, the candidate screen phase,
    /// and the fan-out width of [`ReverseTopkEngine::query_batch`]. Results
    /// are identical for any value.
    pub fn query_threads(mut self, threads: usize) -> Self {
        self.options.query_threads = threads;
        self
    }

    /// Replaces the whole index configuration.
    pub fn index_config(mut self, config: IndexConfig) -> Self {
        self.config = config;
        self
    }

    /// Default query options (update mode, bound mode, …).
    pub fn query_options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }

    /// Builds the index and assembles the engine. The transition
    /// probabilities computed for the build are kept as the engine's cache.
    pub fn build(self) -> Result<ReverseTopkEngine, EngineError> {
        let EngineBuilder { graph, config, shards, options } = self;
        // Surface dangling nodes as an error instead of a downstream panic.
        let dangling = graph.dangling_nodes();
        if let Some(&node) = dangling.first() {
            return Err(EngineError::Graph(rtk_graph::GraphError::DanglingNode {
                node,
                count: dangling.len(),
            }));
        }
        let probs = TransitionProbs::compute(&graph);
        let mut index = ReverseIndex::build(&TransitionMatrix::with_probs(&graph, &probs), config)?;
        index.repartition(shards);
        let session = QueryEngine::new(&index);
        Ok(ReverseTopkEngine { graph, probs, index, session, options })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::{DanglingPolicy, GraphBuilder};

    fn toy() -> DiGraph {
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

    fn toy_engine() -> ReverseTopkEngine {
        ReverseTopkEngine::builder(toy())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_toy_query() {
        let mut engine = toy_engine();
        let result = engine.query(NodeId(0), 2).unwrap();
        assert_eq!(result.nodes(), &[0, 1, 4]);
        assert_eq!(engine.node_count(), 6);
        assert_eq!(engine.index_stats().hub_count, 2);
    }

    #[test]
    fn forward_top_k_through_facade() {
        let engine = toy_engine();
        // Figure 1: top-2 from node 3 (1-based) = nodes 2 and 3.
        let top = engine.top_k(NodeId(2), 2).unwrap();
        assert_eq!(top[0].0, NodeId(1));
        assert_eq!(top[1].0, NodeId(2));
    }

    #[test]
    fn proximity_vectors_are_consistent() {
        let engine = toy_engine();
        let to_q = engine.proximities_to(NodeId(0)).unwrap();
        for u in 0..6u32 {
            let from_u = engine.proximities_from(NodeId(u)).unwrap();
            assert!((to_q[u as usize] - from_u[0]).abs() < 1e-8);
        }
    }

    #[test]
    fn custom_alpha_flows_through() {
        let mut engine = ReverseTopkEngine::builder(toy())
            .restart_probability(0.5)
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .build()
            .unwrap();
        assert_eq!(engine.index().config().alpha(), 0.5);
        // High restart probability keeps walks near their source: each node's
        // top-1 is itself, so reverse top-1 of q is exactly {q}.
        let r = engine.query(NodeId(3), 1).unwrap();
        assert_eq!(r.nodes(), &[3]);
    }

    #[test]
    fn rejects_dangling_graph() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        let g = b.build(DanglingPolicy::SelfLoop).unwrap();
        // The self-loop policy repaired it: builds fine.
        assert!(ReverseTopkEngine::builder(g).threads(1).max_k(2).build().is_ok());
    }

    #[test]
    fn query_batch_matches_frozen_singles_in_order() {
        let mut engine = toy_engine();
        let queries: Vec<(NodeId, usize)> =
            (0..6u32).map(|u| (NodeId(u), 1 + (u as usize % 3))).collect();
        for threads in [1usize, 2, 4] {
            let opts = rtk_query::QueryOptions { query_threads: threads, ..Default::default() };
            let batch = engine.query_batch(&queries, &opts).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (i, &(q, k)) in queries.iter().enumerate() {
                let single = engine.query(q, k).unwrap();
                assert_eq!(batch[i].nodes(), single.nodes(), "i={i} threads={threads}");
                assert_eq!(batch[i].query(), q.0);
            }
        }
    }

    #[test]
    fn query_threads_knob_flows_through_builder() {
        let mut engine = ReverseTopkEngine::builder(toy())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .query_threads(4)
            .build()
            .unwrap();
        assert_eq!(engine.options().query_threads, 4);
        let r = engine.query(NodeId(0), 2).unwrap();
        assert_eq!(r.nodes(), &[0, 1, 4]);
    }

    #[test]
    fn top_k_early_agrees_with_top_k_as_a_set() {
        let engine = toy_engine();
        for u in 0..6u32 {
            let mut exact: Vec<NodeId> =
                engine.top_k(NodeId(u), 2).unwrap().into_iter().map(|(v, _)| v).collect();
            let mut early: Vec<NodeId> =
                engine.top_k_early(NodeId(u), 2).unwrap().into_iter().map(|(v, _)| v).collect();
            exact.sort();
            early.sort();
            assert_eq!(exact, early, "u={u}");
        }
    }

    #[test]
    fn approximate_option_flows_through_facade() {
        let mut engine = toy_engine();
        let opts = rtk_query::QueryOptions { approximate: true, ..Default::default() };
        let approx = engine.query_with(NodeId(0), 2, &opts).unwrap();
        let exact = engine.query(NodeId(0), 2).unwrap();
        for u in approx.nodes() {
            assert!(exact.contains(*u));
        }
        assert_eq!(approx.stats().refine_iterations, 0);
    }

    #[test]
    fn sharded_engine_matches_unsharded_and_round_trips() {
        let mut single = toy_engine();
        let mut sharded = ReverseTopkEngine::builder(toy())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .shards(3)
            .build()
            .unwrap();
        assert_eq!(sharded.shard_count(), 3);
        let a = single.query(NodeId(0), 2).unwrap();
        let b = sharded.query(NodeId(0), 2).unwrap();
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.proximities(), b.proximities());

        // The engine snapshot carries the shard layout through save/load.
        let mut buf = Vec::new();
        sharded.save(&mut buf).unwrap();
        let mut loaded = ReverseTopkEngine::load(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(loaded.shard_count(), 3);
        assert_eq!(loaded.query(NodeId(0), 2).unwrap().nodes(), a.nodes());

        // Resharding is a pure layout change.
        loaded.reshard(1);
        assert_eq!(loaded.shard_count(), 1);
        assert_eq!(loaded.query(NodeId(0), 2).unwrap().nodes(), a.nodes());
    }

    #[test]
    fn save_load_round_trip() {
        let mut engine = toy_engine();
        let before = engine.query(NodeId(0), 2).unwrap();
        let mut buf = Vec::new();
        engine.save(&mut buf).unwrap();
        let mut loaded = ReverseTopkEngine::load(std::io::Cursor::new(buf)).unwrap();
        let after = loaded.query(NodeId(0), 2).unwrap();
        assert_eq!(before.nodes(), after.nodes());
        assert_eq!(loaded.node_count(), 6);
    }

    #[test]
    fn load_rejects_sections_longer_than_the_stream() {
        // A v2 manifest header and a graph section declared huge, with no
        // body: an error naming the section, never an allocation of it.
        for len in [1u64 << 32, 1 << 39, 1 << 40, 1 << 63] {
            let mut bytes = storage::MANIFEST_MAGIC.to_vec();
            bytes.extend_from_slice(&storage::MANIFEST_VERSION.to_le_bytes());
            bytes.extend_from_slice(&len.to_le_bytes());
            let err = ReverseTopkEngine::load(bytes.as_slice()).err().expect("must not load");
            assert!(err.to_string().contains("graph section"), "len {len}: {err}");
        }
    }

    #[test]
    fn from_parts_rejects_mismatch() {
        let engine = toy_engine();
        let small = GraphBuilder::from_edges(2, &[(0, 1), (1, 0)], DanglingPolicy::Error).unwrap();
        assert!(ReverseTopkEngine::from_parts(small, engine.index().clone()).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let mut engine = toy_engine();
        let err = engine.query(NodeId(9), 2).unwrap_err();
        assert!(err.to_string().contains("out of range"));
        let err = engine.query(NodeId(0), 99).unwrap_err();
        assert!(err.to_string().contains("99"));
    }
}
