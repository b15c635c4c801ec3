//! The assembled reverse top-k index, partitioned into node-range shards.

use crate::builder::LbiBuilder;
use crate::config::IndexConfig;
use crate::error::IndexError;
use crate::hub_matrix::{HubMatrix, Materializer};
use crate::node_state::{refine_state, NodeState};
use crate::shard::{partition_states, IndexShard, ShardMap};
use crate::stats::IndexStats;
use rtk_graph::TransitionMatrix;
use rtk_rwr::bca::{BcaEngine, BcaStop};

/// The offline index `I = (P̂, R, W, S, P_H)` of Alg. 1, organized per node
/// and partitioned into `S` contiguous node-range [`IndexShard`]s.
///
/// The hub matrix `P_H` is shared across shards (every node's materialized
/// bounds reference the same hub vectors); everything per-node lives in the
/// shard owning that node's id range. An index always carries the
/// configuration, `P_H` and the full [`ShardMap`], and holds the node states
/// of either **every** shard (a single process serving whole answers) or
/// **exactly one** ([`Self::one_shard`] / [`crate::storage::load_one_shard`]
/// — what one backend of a multi-process tier owns; see
/// [`Self::owned_shard`]). Per-node operations are valid for the nodes of
/// [`Self::owned_range`]. Supports the three operations query processing
/// needs:
/// * O(1) access to the `k`-th lower bound of any node ([`Self::state`]);
/// * refinement of a node's bounds, in place ([`Self::refine_node`], the
///   paper's dynamic index update, §4.2.3) or on a caller-owned copy;
/// * persistence ([`crate::storage`]) — per shard, under a manifest.
#[derive(Clone, Debug)]
pub struct ReverseIndex {
    config: IndexConfig,
    hub_matrix: HubMatrix,
    /// The held shards in shard-id order: all of `shard_map`'s, or one.
    shards: Vec<IndexShard>,
    shard_map: ShardMap,
    /// `Some(i)` when only shard `i` is held; `None` when every shard is.
    only: Option<usize>,
    stats: IndexStats,
}

impl ReverseIndex {
    /// Builds the index for `transition` with `config` (Alg. 1).
    pub fn build(
        transition: &TransitionMatrix<'_>,
        config: IndexConfig,
    ) -> Result<Self, IndexError> {
        LbiBuilder::new(config)?.build(transition)
    }

    /// Assembles a freshly built index from its full id-ordered state
    /// vector, partitioned per `config.shards`: every state marked as built
    /// and carrying the record digest its sweep worker computed
    /// (`digests[u]` for node `u`).
    pub(crate) fn from_build(
        config: IndexConfig,
        hub_matrix: HubMatrix,
        states: Vec<NodeState>,
        digests: Vec<u64>,
        stats: IndexStats,
    ) -> Self {
        let shard_map = ShardMap::even(states.len(), config.effective_shards(states.len()));
        let mut shards = partition_states(&shard_map, states);
        for shard in &mut shards {
            let range = shard.node_lo() as usize..shard.node_hi() as usize;
            shard.mark_built(&digests[range]);
        }
        Self { config, hub_matrix, shards, shard_map, only: None, stats }
    }

    /// Assembles an index from already-partitioned shards (persistence):
    /// every shard of `shard_map`, or — with `only = Some(i)` — shard `i`
    /// alone.
    pub(crate) fn from_shards(
        config: IndexConfig,
        hub_matrix: HubMatrix,
        shards: Vec<IndexShard>,
        shard_map: ShardMap,
        only: Option<usize>,
        stats: IndexStats,
    ) -> Self {
        debug_assert!(match only {
            Some(i) => shards.len() == 1 && shards[0].id() == i,
            None => shards.len() == shard_map.shard_count(),
        });
        Self { config, hub_matrix, shards, shard_map, only, stats }
    }

    /// A copy of this index holding only shard `shard_id` (plus everything
    /// shared: configuration, hub matrix, shard map) — the in-memory twin
    /// of [`crate::storage::load_one_shard`].
    pub fn one_shard(&self, shard_id: usize) -> Result<Self, IndexError> {
        let Some(shard) = self.shards.iter().find(|s| s.id() == shard_id) else {
            return Err(IndexError::InvalidConfig(format!(
                "shard {shard_id} is not held by this index ({} shards, owning nodes {:?})",
                self.shard_count(),
                self.owned_range()
            )));
        };
        Ok(Self {
            config: self.config.clone(),
            hub_matrix: self.hub_matrix.clone(),
            shards: vec![shard.clone()],
            shard_map: self.shard_map.clone(),
            only: Some(shard_id),
            stats: self.stats,
        })
    }

    /// Consumes the index, returning its held shards (stitching).
    pub(crate) fn into_shards(self) -> Vec<IndexShard> {
        self.shards
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

    /// The node-id range whose states this index holds: `0..n`, or the one
    /// owned shard's range.
    pub fn owned_range(&self) -> std::ops::Range<u32> {
        match (self.shards.first(), self.shards.last()) {
            (Some(first), Some(last)) => first.node_lo()..last.node_hi(),
            _ => unreachable!("an index holds at least one shard"),
        }
    }

    /// The shard partition of the node id space.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// The held shards (all of them, or the one owned), ordered by node
    /// range.
    pub fn shards(&self) -> &[IndexShard] {
        &self.shards
    }

    /// Position in `self.shards` of the shard holding node `u`, which must
    /// lie in [`Self::owned_range`].
    #[inline]
    fn slot(&self, u: u32) -> usize {
        debug_assert!(self.owned_range().contains(&u), "node {u} is not held by this index");
        self.shard_map.shard_of(u) - self.only.unwrap_or(0)
    }

    /// The hub proximity matrix `P_H` (shared by every shard).
    pub fn hub_matrix(&self) -> &HubMatrix {
        &self.hub_matrix
    }

    /// Per-node state of `u`, resolved through the shard map.
    #[inline]
    pub fn state(&self, u: u32) -> &NodeState {
        self.shards[self.slot(u)].state(u)
    }

    /// All held node states in ascending id order (crosses shard boundaries).
    pub fn iter_states(&self) -> impl Iterator<Item = &NodeState> {
        self.shards.iter().flat_map(|s| s.states().iter())
    }

    /// Construction/size statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Re-partitions the index into `shards` even node ranges. A pure
    /// re-grouping of the same per-node states: answers, bounds, and the
    /// serialized per-node bytes are unchanged (`rtk shard split`).
    pub fn repartition(&mut self, shards: usize) {
        let n = self.node_count();
        self.repartition_by_map(ShardMap::even(n, shards.max(1).min(n.max(1))));
    }

    /// Re-partitions the index along an explicit [`ShardMap`] — e.g. a
    /// degree-balanced [`ShardMap::balanced`] layout from `rtk shard split
    /// --balance edges`. Same guarantee as [`Self::repartition`]: a pure
    /// re-grouping of the same per-node states, so answers are unchanged.
    ///
    /// # Panics
    /// Panics if `map` covers a different node count than the index, or if
    /// the index holds only one shard (there is nothing to re-group).
    pub fn repartition_by_map(&mut self, map: ShardMap) {
        let n = self.node_count();
        assert_eq!(map.node_count(), n, "shard map covers a different node count");
        assert!(self.only.is_none(), "cannot repartition an index holding one shard");
        if map == self.shard_map {
            self.config.shards = map.shard_count();
            return;
        }
        let mut states = Vec::with_capacity(n);
        for shard in std::mem::take(&mut self.shards) {
            states.extend(shard.into_states());
        }
        self.shards = partition_states(&map, states);
        self.config.shards = map.shard_count();
        self.shard_map = map;
    }

    /// Creates a [`BcaEngine`] matching this index's hub set and BCA
    /// parameters — required for any refinement against it.
    pub fn make_engine(&self) -> BcaEngine {
        BcaEngine::new(self.hub_matrix.hubs().clone(), self.config.bca)
    }

    /// Creates a [`Materializer`] for refinements against this index.
    pub fn make_materializer(&self) -> Materializer {
        Materializer::default()
    }

    /// Refines node `u`'s state **in place** (the paper's `update` mode):
    /// resumes its BCA under `stop` and refreshes its top-K lower bounds.
    /// Returns the iterations executed.
    pub fn refine_node(
        &mut self,
        u: u32,
        transition: &TransitionMatrix<'_>,
        engine: &mut BcaEngine,
        materializer: &mut Materializer,
        stop: &BcaStop,
    ) -> u32 {
        let slot = self.slot(u);
        refine_state(
            self.shards[slot].state_mut(u),
            transition,
            engine,
            &self.hub_matrix,
            materializer,
            stop,
        )
    }

    /// Replaces node `u`'s state wholesale (commit of an externally refined
    /// copy; used by the query layer's update mode).
    pub fn commit_state(&mut self, u: u32, state: NodeState) {
        let slot = self.slot(u);
        self.shards[slot].commit_state(u, state);
    }

    /// Commits a batch of externally refined states — the serial cross-shard
    /// merge phase of the parallel query path. Each worker refines private
    /// copies during screening; this folds them back into the owning shards
    /// by node id. Refinement only tightens a state, so commit order between
    /// distinct nodes is irrelevant and the merged index equals the one a
    /// serial in-place run produces, for every shard and thread count.
    pub fn commit_states(&mut self, states: impl IntoIterator<Item = (u32, NodeState)>) {
        for (u, state) in states {
            self.commit_state(u, state);
        }
    }

    /// Applies the index-side effect of one edge update whose renormalized
    /// transition row is `source` (the edge's tail; see [`crate::update`]).
    /// `transition` must already reflect the mutated graph. Recomputes the
    /// affected hub columns first (states materialize against `P_H`), then
    /// the affected node states *this index holds*, with the exact
    /// Algorithm 1 recipes — so the post-update index is bitwise-equal to a
    /// full rebuild as long as untouched states were never query-refined.
    /// An affected state that is still as built and whose run never read
    /// row `source` keeps its run and only rematerializes its bounds against
    /// the new columns — bit for bit what re-running it would produce.
    /// Everything outside the affected set is left alone.
    ///
    /// One-shard indexes of the same partition applying the same update run
    /// the identical hub recompute (their hub matrices stay bitwise
    /// converged) and disjoint per-node work, so their union equals this
    /// call on the whole index.
    pub fn apply_update(
        &mut self,
        transition: &TransitionMatrix<'_>,
        source: u32,
    ) -> crate::update::UpdateEffect {
        let mut affected = crate::update::affected_set(transition.graph(), source);
        let hub_ids: Vec<u32> = affected
            .iter()
            .copied()
            .filter(|&h| self.hub_matrix.hubs().position(h).is_some())
            .collect();
        let threads = self.config.effective_threads();
        let started = std::time::Instant::now();
        self.hub_matrix
            .recompute_columns(transition, &hub_ids, &self.config.hub_solver, threads);
        let hubs_seconds = started.elapsed().as_secs_f64();
        let started = std::time::Instant::now();
        let owned = self.owned_range();
        affected.retain(|u| owned.contains(u));
        let min_probability = (0..self.node_count() as u32)
            .flat_map(|u| transition.out_probs(u))
            .fold(f64::INFINITY, |min, &p| min.min(p));
        let keep = |q: u32| {
            let shard = &self.shards[self.slot(q)];
            let state = shard.state(q);
            let replays = shard.is_as_built(q)
                && crate::update::never_read_row(
                    state,
                    source,
                    self.hub_matrix.hubs(),
                    self.config.bca.alpha,
                    min_probability,
                );
            replays.then_some(state)
        };
        let (swept, _, _) =
            crate::builder::sweep(transition, &self.hub_matrix, &self.config, &affected, &keep);
        let bca_runs =
            swept.iter().filter(|(s, _)| matches!(s, crate::builder::Swept::Run(_))).count();
        for (&u, (outcome, digest)) in affected.iter().zip(swept) {
            let slot = self.slot(u);
            self.shards[slot].install_built(u, outcome, digest);
        }
        crate::update::UpdateEffect {
            recomputed_states: affected.len(),
            recomputed_hubs: hub_ids.len(),
            bca_runs,
            hubs_seconds,
            states_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Recomputes total heap bytes of what this index holds (states drift
    /// as queries refine them).
    pub fn current_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.heap_bytes()).sum::<usize>() + self.hub_matrix.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubSelection, HubSolver};
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};
    use rtk_rwr::{BcaParams, RwrParams};

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
            hub_solver: HubSolver::PowerMethod(RwrParams::default()),
            rounding_threshold: 0.0,
            threads: 1,
            shards: 1,
        }
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
            let sharded = ReverseIndex::build(&t, IndexConfig { shards, ..config() }).unwrap();
            assert_eq!(sharded.shard_count(), shards.min(6));
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
            assert_eq!(index.config().shards, shards);
            for u in 0..6u32 {
                assert_eq!(index.state(u), reference.state(u), "shards={shards} node {u}");
            }
            let covered: usize = index.shards().iter().map(|s| s.len()).sum();
            assert_eq!(covered, 6);
        }
    }

    #[test]
    fn one_shard_index_holds_its_range_and_nothing_else() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let whole = ReverseIndex::build(&t, IndexConfig { shards: 3, ..config() }).unwrap();
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
            let mut index = ReverseIndex::build(&t, IndexConfig { shards, ..config() }).unwrap();
            let before = index.state(3).kth_lower_bound(2);
            assert!((before - 0.17).abs() < 5e-3, "before = {before}");
            let mut engine = index.make_engine();
            let mut mat = index.make_materializer();
            let ran = index.refine_node(3, &t, &mut engine, &mut mat, &BcaStop::one_iteration());
            assert_eq!(ran, 1);
            let after = index.state(3).kth_lower_bound(2);
            assert!((after - 0.23).abs() < 5e-3, "after = {after}");
        }
    }

    #[test]
    fn side_bits_and_digests_follow_every_way_a_state_changes() {
        use crate::storage::{index_digest, index_digest_cold};
        let as_built = |index: &ReverseIndex| -> Vec<bool> {
            index
                .owned_range()
                .map(|u| index.shards[index.slot(u)].is_as_built(u))
                .collect()
        };
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = ReverseIndex::build(&t, IndexConfig { shards: 3, ..config() }).unwrap();
        assert_eq!(as_built(&index), [true; 6]);
        let built = index_digest(&index);
        assert_eq!(built, index_digest_cold(&index));

        // In-place refinement and a commit each clear the bit, drop the
        // cached record hash, and so move the digest.
        let mut engine = index.make_engine();
        let mut mat = index.make_materializer();
        index.refine_node(3, &t, &mut engine, &mut mat, &BcaStop::one_iteration());
        let refined = index_digest(&index);
        assert_ne!(refined, built);
        assert_eq!(refined, index_digest_cold(&index));
        let mut copy = index.state(5).clone();
        crate::node_state::refine_state(
            &mut copy,
            &t,
            &mut engine,
            index.hub_matrix(),
            &mut mat,
            &BcaStop::one_iteration(),
        );
        index.commit_state(5, copy);
        assert_eq!(as_built(&index), [true, true, true, false, true, false]);
        let committed = index_digest(&index);
        assert!(committed != refined && committed == index_digest_cold(&index));

        // One shard of it keeps bits and hashes; an update sets the bit on
        // every affected state it holds (here: all of them) and resets the
        // two refined states to the recipe's output.
        let mut one = index.one_shard(1).unwrap();
        assert_eq!(as_built(&one), [true, false]);
        assert_eq!(index_digest(&one), index_digest_cold(&one));
        let effect = index.apply_update(&t, 0);
        assert_eq!((effect.recomputed_states, effect.recomputed_hubs), (6, 2));
        assert_eq!(effect.bca_runs, 2, "node 0 is a hub: only the refined states run again");
        assert_eq!(as_built(&index), [true; 6]);
        assert_eq!(index_digest(&index), built);
        assert_eq!(index_digest_cold(&index), built);
        one.apply_update(&t, 0);
        assert_eq!(one.state(3), index.state(3));
        assert_eq!(index_digest(&one), index_digest_cold(&one));

        // A regrouping keeps the states but not what was kept beside them.
        index.repartition(2);
        assert_eq!(as_built(&index), [false; 6]);
        assert_eq!(index_digest(&index), index_digest_cold(&index));
    }

    #[test]
    fn commit_state_replaces_across_shards() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut index = ReverseIndex::build(&t, IndexConfig { shards: 3, ..config() }).unwrap();
        let mut engine = index.make_engine();
        let mut mat = index.make_materializer();
        let mut copy = index.state(5).clone();
        crate::node_state::refine_state(
            &mut copy,
            &t,
            &mut engine,
            index.hub_matrix(),
            &mut mat,
            &BcaStop::one_iteration(),
        );
        assert_ne!(&copy, index.state(5));
        index.commit_state(5, copy.clone());
        assert_eq!(&copy, index.state(5));
    }
}
