//! The assembled reverse top-k index: one block of node states, cut into
//! node-range shards only by its [`ShardMap`].

use crate::builder::{sweep, Sweep, Swept, DEFAULT_POWER_LAW_BETA};
use crate::config::{HubSelection, IndexConfig};
use crate::digest::DigestCell;
use crate::error::IndexError;
use crate::hub_matrix::HubMatrix;
use crate::node_state::NodeState;
use crate::shard::ShardMap;
use crate::stats::IndexStats;
use rtk_graph::TransitionMatrix;
use rtk_rwr::HubSet;
use std::ops::Range;
use std::time::Instant;

/// The offline index `I = (P̂, R, W, S, P_H)` of Alg. 1, organized per node.
///
/// The index holds the states of its owned node range as **one block**, in
/// id order: every node `0..n` (a single process serving whole answers), or
/// the range of exactly one shard ([`Self::one_shard`] /
/// [`crate::storage::load_one_shard`] — what one backend of a
/// multi-process tier owns; see [`Self::owned_shard`]). The [`ShardMap`] is
/// layout metadata: it says how the snapshot cuts the node range into
/// sections and processes, and changing it ([`Self::repartition`]) moves no
/// state. The hub matrix `P_H` is shared by every node's materialized
/// bounds. Per-node operations are valid for the nodes of
/// [`Self::owned_range`]. Supports the three operations query processing
/// needs:
/// * O(1) access to the `k`-th lower bound of any node ([`Self::state`]);
/// * commits of refined copies ([`Self::commit_states`], the paper's
///   dynamic index update, §4.2.3);
/// * persistence ([`crate::storage`]) — one section per shard, under a
///   manifest.
///
/// Beside each state the block keeps two things that are never persisted
/// and never compared: the cached digest of the state's persisted record
/// (see [`crate::digest`]), and the **as-built bit** — set when the state is
/// exactly what the build recipe (Alg. 1: `run_from` under the configured
/// stop, then materialization) yields on the current graph, which is what
/// lets an edge update keep a run that never read the edited row (see
/// [`crate::update`]). [`crate::builder`] and [`Self::apply_update`] set
/// both; a commit clears them, and a load or a stitch starts them clear.
#[derive(Clone, Debug)]
pub struct ReverseIndex {
    config: IndexConfig,
    hub_matrix: HubMatrix,
    shard_map: ShardMap,
    /// `Some(i)` when only shard `i` is held; `None` when every shard is.
    only: Option<usize>,
    /// The states of [`Self::owned_range`], in id order.
    states: Vec<NodeState>,
    /// Cached record digest of each state.
    digests: Vec<DigestCell>,
    /// As-built bit of each state.
    as_built: Vec<bool>,
    stats: IndexStats,
}

impl ReverseIndex {
    /// Builds the index for `transition` with `config` (Alg. 1), as one
    /// shard: hub selection (§4.1.1), the hub vectors (lines 1–2), then the
    /// per-node partial BCA sweep (lines 3–9). Every state is marked as
    /// built and carries the record digest its sweep worker computed.
    pub fn build(
        transition: &TransitionMatrix<'_>,
        config: IndexConfig,
    ) -> Result<Self, IndexError> {
        config.validate()?;
        let started = Instant::now();
        let graph = transition.graph();
        let n = graph.node_count();
        let threads = config.effective_threads();

        let hub_t0 = Instant::now();
        let hubs = match &config.hub_selection {
            HubSelection::DegreeBased { b } => HubSet::degree_based(graph, *b),
            HubSelection::Explicit(ids) => HubSet::from_ids(n, ids.clone()),
        };
        let hub_selection_seconds = hub_t0.elapsed().as_secs_f64();

        let hub_t1 = Instant::now();
        let hub_matrix = HubMatrix::build(
            transition,
            hubs,
            &config.hub_solver,
            config.bca.alpha,
            config.rounding_threshold,
            threads,
        );
        let hub_vectors_seconds = hub_t1.elapsed().as_secs_f64();

        let sweep_t0 = Instant::now();
        let nodes: Vec<u32> = (0..n as u32).collect();
        let Sweep { swept, iterations: total_iterations, pushes: total_pushes, .. } =
            sweep(transition, &hub_matrix, &config, &nodes, &|_| None);
        let node_sweep_seconds = sweep_t0.elapsed().as_secs_f64();
        let (states, digests): (Vec<NodeState>, Vec<DigestCell>) = swept
            .into_iter()
            .map(|(swept, digest)| match swept {
                Swept::Run(state) => (state, DigestCell::filled(digest)),
                Swept::Rebound(..) => unreachable!("a build keeps no stored run"),
            })
            .unzip();

        // Size accounting. "No rounding" = the same index with hub columns
        // at their pre-rounding nnz.
        let lower_bound_bytes: usize = states.iter().map(|s| s.lower_bounds().heap_bytes()).sum();
        let states_bytes: usize = states.iter().map(|s| s.heap_bytes()).sum();
        let actual_bytes = states_bytes + hub_matrix.heap_bytes();
        let entry_bytes = std::mem::size_of::<u32>() + std::mem::size_of::<f64>();
        let no_rounding_bytes =
            actual_bytes + (hub_matrix.unrounded_nnz() - hub_matrix.nnz()) * entry_bytes;
        let predicted_hub = hub_matrix.predicted_bytes(n, DEFAULT_POWER_LAW_BETA);
        let stats = IndexStats {
            hub_selection_seconds,
            hub_vectors_seconds,
            node_sweep_seconds,
            total_seconds: started.elapsed().as_secs_f64(),
            hub_count: hub_matrix.hub_count(),
            total_iterations,
            total_pushes,
            actual_bytes,
            no_rounding_bytes,
            predicted_bytes: predicted_hub.map(|p| p + lower_bound_bytes),
            lower_bound_bytes,
            threads,
        };
        Ok(Self {
            config,
            hub_matrix,
            shard_map: ShardMap::even(n, 1),
            only: None,
            digests,
            as_built: vec![true; n],
            states,
            stats,
        })
    }

    /// Assembles an index from decoded states (persistence): those of every
    /// node, or — with `only = Some(i)` — those of shard `i`'s range.
    pub(crate) fn from_states(
        config: IndexConfig,
        hub_matrix: HubMatrix,
        shard_map: ShardMap,
        only: Option<usize>,
        states: Vec<NodeState>,
        stats: IndexStats,
    ) -> Self {
        let held = states.len();
        let index = Self {
            config,
            hub_matrix,
            shard_map,
            only,
            digests: (0..held).map(|_| DigestCell::default()).collect(),
            as_built: vec![false; held],
            states,
            stats,
        };
        debug_assert_eq!(index.owned_range().len(), held);
        index
    }

    /// A copy of this index holding only shard `shard_id` (plus everything
    /// shared: configuration, hub matrix, shard map) — the in-memory twin
    /// of [`crate::storage::load_one_shard`].
    pub fn one_shard(&self, shard_id: usize) -> Result<Self, IndexError> {
        if !self.holds(shard_id) {
            return Err(IndexError::InvalidConfig(format!(
                "shard {shard_id} is not held by this index ({} shards, owning nodes {:?})",
                self.shard_count(),
                self.owned_range()
            )));
        }
        let block = self.block(self.shard_map.range(shard_id));
        Ok(Self {
            config: self.config.clone(),
            hub_matrix: self.hub_matrix.clone(),
            shard_map: self.shard_map.clone(),
            only: Some(shard_id),
            states: self.states[block.clone()].to_vec(),
            digests: self.digests[block.clone()].to_vec(),
            as_built: self.as_built[block].to_vec(),
            stats: self.stats,
        })
    }

    /// Consumes the index, returning its block of states (stitching).
    pub(crate) fn into_block(self) -> Vec<NodeState> {
        self.states
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Largest supported query `k` (`K`).
    pub fn max_k(&self) -> usize {
        self.config.max_k
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.shard_map.node_count()
    }

    /// Number of shards `S` in the partition (held or not).
    pub fn shard_count(&self) -> usize {
        self.shard_map.shard_count()
    }

    /// `Some(i)` when this index holds only shard `i` of the partition;
    /// `None` when it holds every shard.
    pub fn owned_shard(&self) -> Option<usize> {
        self.only
    }

    /// Whether this index holds the states of shard `shard_id`.
    pub(crate) fn holds(&self, shard_id: usize) -> bool {
        self.only.map_or(shard_id < self.shard_count(), |i| i == shard_id)
    }

    /// The node-id range whose states this index holds: `0..n`, or the one
    /// owned shard's range.
    pub fn owned_range(&self) -> Range<u32> {
        match self.only {
            Some(i) => self.shard_map.range(i),
            None => 0..self.node_count() as u32,
        }
    }

    /// The shard partition of the node id space.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// The held shards (all of them, or the one owned) in id order: each
    /// one's id, node range, and the heap bytes of its states and of what
    /// is kept beside them.
    pub fn held_shards(&self) -> impl Iterator<Item = (usize, Range<u32>, usize)> + '_ {
        let ids = self.only.map_or(0..self.shard_count(), |i| i..i + 1);
        ids.map(|i| {
            let range = self.shard_map.range(i);
            (i, range.clone(), self.heap_bytes(range))
        })
    }

    /// Positions in the block of the global node ids `range`, which must
    /// lie in [`Self::owned_range`].
    fn block(&self, range: Range<u32>) -> Range<usize> {
        let lo = self.owned_range().start;
        (range.start - lo) as usize..(range.end - lo) as usize
    }

    /// Position in the block of node `u`, which must lie in
    /// [`Self::owned_range`].
    #[inline]
    fn at(&self, u: u32) -> usize {
        let owned = self.owned_range();
        debug_assert!(owned.contains(&u), "node {u} is not held by this index");
        (u - owned.start) as usize
    }

    /// The hub proximity matrix `P_H` (shared by every shard).
    pub fn hub_matrix(&self) -> &HubMatrix {
        &self.hub_matrix
    }

    /// Per-node state of `u`.
    #[inline]
    pub fn state(&self, u: u32) -> &NodeState {
        &self.states[self.at(u)]
    }

    /// All held node states in ascending id order.
    pub fn iter_states(&self) -> impl Iterator<Item = &NodeState> {
        self.states.iter()
    }

    /// Digest of the persisted record of node `u`'s state — cached unless
    /// `cached` is false; hashed here if nothing has yet.
    pub(crate) fn record_digest(&self, u: u32, cached: bool) -> u64 {
        let i = self.at(u);
        let state = &self.states[i];
        self.digests[i].get_or(cached, || {
            crate::storage::node_record_digest(state.snapshot(), state.lower_bounds())
        })
    }

    /// Construction/size statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Re-partitions the index into `shards` even node ranges (clamped to
    /// `[1, n]`). Only the layout changes: the map is swapped and no state
    /// moves, so answers, bounds, the serialized per-node bytes and the
    /// cached record digests are unchanged (`rtk shard split`).
    ///
    /// # Panics
    /// Panics if the index holds only one shard (there is nothing to
    /// re-group).
    pub fn repartition(&mut self, shards: usize) {
        assert!(self.only.is_none(), "cannot repartition an index holding one shard");
        self.shard_map = ShardMap::even(self.node_count(), shards);
    }

    /// Replaces node `u`'s state wholesale (commit of an externally refined
    /// copy; used by the query layer's update mode). The state is no longer
    /// known to be as built, and its record is re-hashed when next needed.
    pub fn commit_state(&mut self, u: u32, state: NodeState) {
        let i = self.at(u);
        self.states[i] = state;
        self.digests[i].clear();
        self.as_built[i] = false;
    }

    /// Commits a batch of externally refined states — the commit phase of
    /// the parallel query path. Each worker refines private copies during
    /// screening; this folds them back into the block by node id.
    /// Refinement only tightens a state, so commit order between distinct
    /// nodes is irrelevant and the merged index equals the one a serial
    /// in-place run produces, for every shard and thread count.
    pub fn commit_states(&mut self, states: impl IntoIterator<Item = (u32, NodeState)>) {
        for (u, state) in states {
            self.commit_state(u, state);
        }
    }

    /// Applies the index-side effect of edge updates whose renormalized
    /// transition rows are `edited` (the edges' tails, in any order, repeats
    /// allowed; see [`crate::update`]), with `affected` the ascending union
    /// of their affected sets, each taken right after its own edit.
    /// `transition` must already reflect every edit. Recomputes the affected
    /// hub columns first (states materialize against `P_H`), then the
    /// affected node states *this index holds*, each once, with the exact
    /// Algorithm 1 recipes — so the post-update index is bitwise-equal to a
    /// full rebuild as long as untouched states were never query-refined,
    /// and bitwise-equal to applying the edits one at a time. An affected
    /// state that is still as built and whose run read none of the `edited`
    /// rows keeps its run and only rematerializes its bounds against the new
    /// columns — bit for bit what re-running it would produce. Everything
    /// outside `affected` is left alone.
    ///
    /// One-shard indexes of the same partition applying the same updates
    /// run the identical hub recompute (their hub matrices stay bitwise
    /// converged) and disjoint per-node work, so their union equals this
    /// call on the whole index.
    pub fn apply_update(
        &mut self,
        transition: &TransitionMatrix<'_>,
        edited: &[u32],
        affected: &[u32],
    ) -> crate::update::UpdateEffect {
        let hub_ids: Vec<u32> = affected
            .iter()
            .copied()
            .filter(|&h| self.hub_matrix.hubs().position(h).is_some())
            .collect();
        let threads = self.config.effective_threads();
        let started = std::time::Instant::now();
        self.hub_matrix.recompute_columns(
            transition,
            &hub_ids,
            &self.config.hub_solver,
            self.config.bca.alpha,
            threads,
        );
        let hubs_seconds = started.elapsed().as_secs_f64();
        let started = std::time::Instant::now();
        let owned = self.owned_range();
        let held: Vec<u32> = affected.iter().copied().filter(|u| owned.contains(u)).collect();
        let min_probability = (0..self.node_count() as u32)
            .flat_map(|u| transition.out_probs(u))
            .fold(f64::INFINITY, |min, &p| min.min(p));
        let keep = |q: u32| {
            let i = self.at(q);
            let replays = self.as_built[i]
                && crate::update::never_read_rows(
                    &self.states[i],
                    edited,
                    self.hub_matrix.hubs(),
                    self.config.bca.alpha,
                    min_probability,
                );
            replays.then_some(&self.states[i])
        };
        let Sweep { swept, bca_seconds, hash_seconds, .. } =
            sweep(transition, &self.hub_matrix, &self.config, &held, &keep);
        let bca_runs = swept.iter().filter(|(s, _)| matches!(s, Swept::Run(_))).count();
        for (&u, (outcome, digest)) in held.iter().zip(swept) {
            let i = self.at(u);
            match outcome {
                Swept::Run(state) => self.states[i] = state,
                Swept::Rebound(lower_bounds, parked_deficit) => {
                    self.states[i].set_bounds(lower_bounds, parked_deficit)
                }
            }
            self.digests[i] = DigestCell::filled(digest);
            self.as_built[i] = true;
        }
        crate::update::UpdateEffect {
            recomputed_states: held.len(),
            recomputed_hubs: hub_ids.len(),
            bca_runs,
            hubs_seconds,
            states_seconds: started.elapsed().as_secs_f64(),
            bca_seconds,
            hash_seconds,
        }
    }

    /// Heap bytes of the held states of `range` and of what is kept beside
    /// them.
    fn heap_bytes(&self, range: Range<u32>) -> usize {
        let block = self.block(range);
        let kept = std::mem::size_of::<DigestCell>() + std::mem::size_of::<bool>();
        self.states[block.clone()].iter().map(|s| s.heap_bytes()).sum::<usize>()
            + block.len() * kept
    }

    /// Recomputes total heap bytes of what this index holds (states drift
    /// as queries refine them).
    pub fn current_bytes(&self) -> usize {
        self.heap_bytes(self.owned_range()) + self.hub_matrix.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubSelection, HubSolver};
    use crate::hub_matrix::Materializer;
    use crate::node_state::refine_state;
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};
    use rtk_rwr::bca::{BcaEngine, BcaStop};
    use rtk_rwr::BcaParams;

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

    fn config() -> IndexConfig {
        IndexConfig {
            max_k: 3,
            bca: BcaParams { residue_threshold: 0.8, ..Default::default() },
            hub_selection: HubSelection::DegreeBased { b: 1 },
            hub_solver: HubSolver::PowerMethod,
            rounding_threshold: 0.0,
            threads: 1,
        }
    }

    fn build(t: &TransitionMatrix<'_>, shards: usize) -> ReverseIndex {
        let mut index = ReverseIndex::build(t, config()).unwrap();
        index.repartition(shards);
        index
    }

    /// Refines a copy of node `u`'s state by one BCA iteration and commits
    /// it — the query layer's update mode for one node. Returns the copy.
    fn refine_and_commit(index: &mut ReverseIndex, t: &TransitionMatrix<'_>, u: u32) -> NodeState {
        let mut engine = BcaEngine::new(index.hub_matrix().hubs().clone(), index.config().bca);
        let mut copy = index.state(u).clone();
        let ran = refine_state(
            &mut copy,
            t,
            &mut engine,
            index.hub_matrix(),
            &mut Materializer::default(),
            &BcaStop::one_iteration(),
        );
        assert_eq!(ran, 1);
        index.commit_state(u, copy.clone());
        copy
    }

    #[test]
    fn accessors_round_trip() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let index = ReverseIndex::build(&t, config()).unwrap();
        assert_eq!(index.node_count(), 6);
        assert_eq!(index.max_k(), 3);
        assert_eq!(index.iter_states().count(), 6);
        assert_eq!(index.shard_count(), 1);
        assert_eq!(index.hub_matrix().hub_count(), 2);
        assert!(index.current_bytes() > 0);
    }

    #[test]
    fn sharded_build_matches_single_shard_bitwise() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let single = ReverseIndex::build(&t, config()).unwrap();
        for shards in [2usize, 3, 6, 99] {
            let sharded = build(&t, shards);
            assert_eq!(sharded.shard_count(), shards.min(6));
            assert_eq!(sharded.current_bytes(), single.current_bytes());
            for u in 0..6u32 {
                assert_eq!(single.state(u), sharded.state(u), "shards={shards} node {u}");
            }
        }
    }

    #[test]
    fn repartition_preserves_states() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = ReverseIndex::build(&t, config()).unwrap();
        let reference = index.clone();
        for shards in [3usize, 1, 6, 2] {
            index.repartition(shards);
            assert_eq!(index.shard_count(), shards);
            for u in 0..6u32 {
                assert_eq!(index.state(u), reference.state(u), "shards={shards} node {u}");
            }
            let held: Vec<(usize, Range<u32>)> =
                index.held_shards().map(|(id, range, _)| (id, range)).collect();
            let map = index.shard_map();
            assert_eq!(held, (0..shards).map(|i| (i, map.range(i))).collect::<Vec<_>>());
            let bytes: usize = index.held_shards().map(|(_, _, bytes)| bytes).sum();
            assert_eq!(bytes + index.hub_matrix().heap_bytes(), index.current_bytes());
        }
    }

    #[test]
    fn one_shard_index_holds_its_range_and_nothing_else() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let whole = build(&t, 3);
        assert_eq!(whole.owned_shard(), None);
        assert_eq!(whole.owned_range(), 0..6);
        for sid in 0..3 {
            let one = whole.one_shard(sid).unwrap();
            assert_eq!(one.owned_shard(), Some(sid));
            assert_eq!(one.owned_range(), whole.shard_map().range(sid));
            // Everything shared describes the whole index.
            assert_eq!((one.node_count(), one.shard_count()), (6, 3));
            assert_eq!(one.shard_map(), whole.shard_map());
            assert_eq!(one.hub_matrix(), whole.hub_matrix());
            assert_eq!(one.iter_states().count(), 2);
            for u in one.owned_range() {
                assert_eq!(one.state(u), whole.state(u), "shard {sid} node {u}");
            }
            let held: Vec<_> = one.held_shards().collect();
            assert_eq!(held, [whole.held_shards().nth(sid).unwrap()]);
            assert!(one.current_bytes() < whole.current_bytes());
        }
        assert!(whole.one_shard(3).is_err());
    }

    #[test]
    fn refine_node_updates_in_place() {
        // Paper §4.2.3 running example: refining node 4 (1-based) lifts
        // p̂₄(2) from 0.17 to 0.23 — and sharding must not change that.
        for shards in [1usize, 3] {
            let g = toy();
            let t = TransitionMatrix::new(&g);
            let mut index = build(&t, shards);
            let before = index.state(3).kth_lower_bound(2);
            assert!((before - 0.17).abs() < 5e-3, "before = {before}");
            refine_and_commit(&mut index, &t, 3);
            let after = index.state(3).kth_lower_bound(2);
            assert!((after - 0.23).abs() < 5e-3, "after = {after}");
        }
    }

    #[test]
    fn side_bits_and_digests_follow_every_way_a_state_changes() {
        use crate::storage::{index_digest, index_digest_cold};
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = build(&t, 3);
        assert_eq!(index.as_built, [true; 6]);
        let built = index_digest(&index);
        assert_eq!(built, index_digest_cold(&index));

        // Each commit clears the bit, drops the cached record hash, and so
        // moves the digest.
        refine_and_commit(&mut index, &t, 3);
        let refined = index_digest(&index);
        assert_ne!(refined, built);
        assert_eq!(refined, index_digest_cold(&index));
        refine_and_commit(&mut index, &t, 5);
        assert_eq!(index.as_built, [true, true, true, false, true, false]);
        let committed = index_digest(&index);
        assert!(committed != refined && committed == index_digest_cold(&index));

        // One shard of it keeps bits and hashes; an update sets the bit on
        // every affected state it holds (here: all of them) and resets the
        // two refined states to the recipe's output.
        let mut one = index.one_shard(1).unwrap();
        assert_eq!(one.as_built, [true, false]);
        assert_eq!(index_digest(&one), index_digest_cold(&one));
        let affected = crate::update::affected_set(&g, 0);
        let effect = index.apply_update(&t, &[0], &affected);
        assert_eq!((effect.recomputed_states, effect.recomputed_hubs), (6, 2));
        assert_eq!(effect.bca_runs, 2, "node 0 is a hub: only the refined states run again");
        assert_eq!(index.as_built, [true; 6]);
        assert_eq!(index_digest(&index), built);
        assert_eq!(index_digest_cold(&index), built);
        one.apply_update(&t, &[0], &affected);
        assert_eq!(one.state(3), index.state(3));
        assert_eq!(index_digest(&one), index_digest_cold(&one));

        // A repartition changes the layout and keeps everything else: the
        // states, their bits and their cached record hashes.
        index.repartition(2);
        assert_eq!(index.as_built, [true; 6]);
        assert_eq!(index_digest(&index), index_digest_cold(&index));
    }

    #[test]
    fn commit_state_replaces_across_shards() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = build(&t, 3);
        let before = index.state(5).clone();
        let copy = refine_and_commit(&mut index, &t, 5);
        assert_ne!(copy, before);
        assert_eq!(&copy, index.state(5));
    }
}
