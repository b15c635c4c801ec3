//! One column of the index: resumable BCA state + top-K lower bounds.

use crate::hub_matrix::{HubMatrix, Materializer};
use rtk_rwr::bca::{BcaEngine, BcaSnapshot, BcaStop, BcaWork};
use rtk_sparse::DescendingTopK;

/// Per-node index entry (`p̂^t_u(1:K)` plus the `r`, `w`, `s` state needed to
/// resume its BCA — Alg. 1's output for one node).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeState {
    snapshot: BcaSnapshot,
    lower_bounds: DescendingTopK,
    /// Cached `‖r‖₁`.
    residue_norm: f64,
    /// Cached `Σ_h s(h)·d_h` (hub mass deficits weighted by parked ink).
    parked_deficit: f64,
}

impl NodeState {
    /// Assembles a state from a snapshot, computing the top-K bounds and
    /// caches via `materializer`.
    pub fn from_snapshot(
        snapshot: BcaSnapshot,
        hub_matrix: &HubMatrix,
        materializer: &mut Materializer,
        max_k: usize,
    ) -> Self {
        let (lower_bounds, parked_deficit) =
            materialize_bounds(&snapshot, hub_matrix, materializer, max_k);
        let residue_norm = snapshot.residue_norm();
        Self { snapshot, lower_bounds, residue_norm, parked_deficit }
    }

    /// What [`Self::from_snapshot`] would materialize for this state's own
    /// snapshot against `hub_matrix`: `(top-K lower bounds, parked deficit)`.
    /// An edge update uses it for a state whose stored run replays
    /// identically on the edited graph — only `P_H` moved under it.
    pub(crate) fn rebound(
        &self,
        hub_matrix: &HubMatrix,
        materializer: &mut Materializer,
    ) -> (DescendingTopK, f64) {
        materialize_bounds(&self.snapshot, hub_matrix, materializer, self.lower_bounds.capacity())
    }

    /// Installs bounds computed by [`Self::rebound`]. `‖r‖₁` stays: it is a
    /// function of the unchanged residue vector alone.
    pub(crate) fn set_bounds(&mut self, lower_bounds: DescendingTopK, parked_deficit: f64) {
        self.lower_bounds = lower_bounds;
        self.parked_deficit = parked_deficit;
    }

    /// Reassembles a state from stored parts without re-materializing
    /// (used by [`crate::storage`]; the top-K list was persisted).
    pub(crate) fn from_parts(
        snapshot: BcaSnapshot,
        lower_bounds: DescendingTopK,
        hub_matrix: &HubMatrix,
    ) -> Self {
        let residue_norm = snapshot.residue_norm();
        let parked_deficit = hub_matrix.parked_deficit(&snapshot.hub_ink);
        Self { snapshot, lower_bounds, residue_norm, parked_deficit }
    }

    /// The resumable BCA snapshot (`r`, `w`, `s`, iteration count).
    #[inline]
    pub fn snapshot(&self) -> &BcaSnapshot {
        &self.snapshot
    }

    /// Descending top-K lower bounds `p̂^t_u(1:K)`.
    #[inline]
    pub fn lower_bounds(&self) -> &DescendingTopK {
        &self.lower_bounds
    }

    /// Lower bound `lb^t_u = p̂^t_u(k)` on the k-th largest proximity.
    #[inline]
    pub fn kth_lower_bound(&self, k: usize) -> f64 {
        self.lower_bounds.kth_value(k)
    }

    /// Cached `‖r‖₁` — the paper's notion of remaining ink.
    #[inline]
    pub fn residue_norm(&self) -> f64 {
        self.residue_norm
    }

    /// Cached `Σ_h s(h)·d_h` — mass hidden by hub rounding/truncation.
    #[inline]
    pub fn parked_deficit(&self) -> f64 {
        self.parked_deficit
    }

    /// The mass that may still be added to any proximity entries:
    /// `‖r‖₁` alone (paper-faithful) or `‖r‖₁ + Σ s(h)·d_h` (strict).
    #[inline]
    pub fn residual_mass(&self, strict: bool) -> f64 {
        if strict {
            self.residue_norm + self.parked_deficit
        } else {
            self.residue_norm
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.snapshot.heap_bytes() + self.lower_bounds.heap_bytes() + 2 * 8
    }
}

/// Runs `stop`-bounded refinement on `state` (Alg. 1 lines 6–8 resumed):
/// advances the BCA snapshot, rematerializes the top-K lower bounds, and
/// refreshes the caches. Returns the iterations executed.
///
/// This is the reference form of what a [`Refiner`] does resident in a
/// worker's scratch: refine a copy of a stored state, then commit the copy
/// ([`crate::ReverseIndex::commit_state`]) to keep the tightened bounds.
pub fn refine_state(
    state: &mut NodeState,
    transition: &rtk_graph::TransitionMatrix<'_>,
    engine: &mut BcaEngine,
    hub_matrix: &HubMatrix,
    materializer: &mut Materializer,
    stop: &BcaStop,
) -> u32 {
    engine.load(&state.snapshot);
    let executed = engine.advance(transition, stop);
    state.snapshot = engine.snapshot();
    if executed > 0 {
        let max_k = state.lower_bounds.capacity();
        (state.lower_bounds, state.parked_deficit) =
            materialize_bounds(&state.snapshot, hub_matrix, materializer, max_k);
        state.residue_norm = state.snapshot.residue_norm();
    }
    executed
}

/// Everything of a state that is materialized against `P_H`: the top-K of
/// `w + P_H·s` (Eq. 7) and the parked deficit `Σ_h s(h)·d_h`.
fn materialize_bounds(
    snapshot: &BcaSnapshot,
    hub_matrix: &HubMatrix,
    materializer: &mut Materializer,
    max_k: usize,
) -> (DescendingTopK, f64) {
    let top = materializer.top_k(snapshot, hub_matrix, max_k);
    (DescendingTopK::from_sorted(top, max_k), hub_matrix.parked_deficit(&snapshot.hub_ink))
}

/// One worker's refinement scratch, holding a node's BCA computation
/// **resident** between bound tests.
///
/// [`refine_state`] pays a load of three sparse vectors, a store of three,
/// and a rematerialization on every call. A query that re-tests a
/// candidate's bounds after each run of iterations instead [`Self::load`]s
/// the stored state once, [`Self::advance`]s it as often as the bounds
/// require — reading `lb`, `‖r‖₁` and the deficit straight from here — and
/// [`Self::unload`]s a [`NodeState`] only if the refinement is to be kept.
/// The bounds read between runs are the ones the unloaded state would carry
/// (same list, same deficit; `‖r‖₁` is the engine's running norm, which
/// differs from the stored sum by accumulated rounding only).
pub struct Refiner {
    engine: BcaEngine,
    materializer: Materializer,
    lower_bounds: DescendingTopK,
    parked_deficit: f64,
}

impl Refiner {
    /// Wraps an engine and a materializer sized to the same graph.
    pub fn new(engine: BcaEngine, materializer: Materializer) -> Self {
        Self { engine, materializer, lower_bounds: DescendingTopK::default(), parked_deficit: 0.0 }
    }

    /// Makes `state` the resident computation (`state` itself is not
    /// touched; frozen queries never write it back).
    pub fn load(&mut self, state: &NodeState) {
        self.engine.load(&state.snapshot);
        self.lower_bounds = state.lower_bounds.clone();
        self.parked_deficit = state.parked_deficit;
    }

    /// Advances the resident computation until `stop` and, if any iteration
    /// ran, rematerializes the top-K lower bounds and the parked deficit.
    /// Returns the iterations executed; `0` leaves everything as it was.
    pub fn advance(
        &mut self,
        transition: &rtk_graph::TransitionMatrix<'_>,
        hub_matrix: &HubMatrix,
        stop: &BcaStop,
    ) -> u32 {
        let executed = self.engine.advance(transition, stop);
        if executed > 0 {
            // Parked ink as the snapshot would store it: the hub order, and
            // with it every sum below, is the snapshot's.
            let hub_ink = self.engine.hub_ink();
            let max_k = self.lower_bounds.capacity();
            // Prop. 1: every entry of `w + P_H·s` only grows (each addend
            // does, and rounded addition is monotone), so the K entries of a
            // full resident list still reach its K-th value and nothing
            // below that value can enter the new list.
            let floor = match self.lower_bounds.entries() {
                [.., (_, kth)] if self.lower_bounds.len() == max_k => *kth,
                _ => 0.0,
            };
            let top = self.materializer.top_k_resident(
                self.engine.retained(),
                &hub_ink,
                hub_matrix,
                max_k,
                floor,
            );
            self.lower_bounds = DescendingTopK::from_sorted(top, max_k);
            self.parked_deficit = hub_matrix.parked_deficit(&hub_ink);
        }
        executed
    }

    /// Descending top-K lower bounds of the resident computation.
    #[inline]
    pub fn lower_bounds(&self) -> &DescendingTopK {
        &self.lower_bounds
    }

    /// `‖r‖₁` of the resident computation (the engine's running norm).
    #[inline]
    pub fn residue_norm(&self) -> f64 {
        self.engine.residue_norm()
    }

    /// [`NodeState::residual_mass`] of the resident computation.
    #[inline]
    pub fn residual_mass(&self, strict: bool) -> f64 {
        if strict {
            self.engine.residue_norm() + self.parked_deficit
        } else {
            self.engine.residue_norm()
        }
    }

    /// `Σ_h s(h)·d_h` of the resident computation.
    #[inline]
    pub fn parked_deficit(&self) -> f64 {
        self.parked_deficit
    }

    /// Cumulative work of this refiner's engine across everything it ran.
    #[inline]
    pub fn work(&self) -> BcaWork {
        self.engine.work()
    }

    /// Stores the resident computation as a [`NodeState`] — the state
    /// [`refine_state`] would have left, caches recomputed from the stored
    /// vectors so it round-trips through [`crate::storage`] unchanged.
    pub fn unload(&self, hub_matrix: &HubMatrix) -> NodeState {
        NodeState::from_parts(self.engine.snapshot(), self.lower_bounds.clone(), hub_matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HubSolver;
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder, TransitionMatrix};
    use rtk_rwr::{BcaParams, HubSet};

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

    fn setup(t: &TransitionMatrix<'_>) -> (HubMatrix, BcaEngine, Materializer) {
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(t, hubs.clone(), &HubSolver::PowerMethod, 0.15, 0.0, 1);
        let engine = BcaEngine::new(hubs, BcaParams::default());
        (m, engine, Materializer::default())
    }

    #[test]
    fn state_computes_bounds_and_caches() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (m, mut engine, mut mat) = setup(&t);
        let snap = engine.run_from(&t, 2, &BcaStop { residue_norm: 0.1, max_iterations: 100 });
        let state = NodeState::from_snapshot(snap.clone(), &m, &mut mat, 3);
        assert!((state.residue_norm() - snap.residue_norm()).abs() < 1e-15);
        assert_eq!(state.lower_bounds().len(), 3);
        assert!(state.kth_lower_bound(1) >= state.kth_lower_bound(3));
        // Paper-faithful vs strict residuals agree when ω = 0 and hubs are PM-exact.
        assert!((state.residual_mass(true) - state.residual_mass(false)).abs() < 1e-8);
    }

    #[test]
    fn refine_tightens_bounds_monotonically() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (m, mut engine, mut mat) = setup(&t);
        let snap = engine.run_from(&t, 3, &BcaStop { residue_norm: 0.8, max_iterations: 1 });
        let mut state = NodeState::from_snapshot(snap, &m, &mut mat, 3);
        let mut prev_lb = state.kth_lower_bound(2);
        let mut prev_res = state.residue_norm();
        for _ in 0..10 {
            let ran =
                refine_state(&mut state, &t, &mut engine, &m, &mut mat, &BcaStop::one_iteration());
            if ran == 0 {
                break;
            }
            assert!(state.kth_lower_bound(2) >= prev_lb - 1e-15, "lower bound regressed");
            assert!(state.residue_norm() <= prev_res + 1e-15, "residue grew");
            prev_lb = state.kth_lower_bound(2);
            prev_res = state.residue_norm();
        }
        assert!(state.residue_norm() < 0.8);
    }

    #[test]
    fn refine_to_exhaustion_matches_exact_topk() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (m, mut engine, mut mat) = setup(&t);
        let snap = engine.run_from(&t, 4, &BcaStop { residue_norm: 0.5, max_iterations: 2 });
        let mut state = NodeState::from_snapshot(snap, &m, &mut mat, 3);
        refine_state(
            &mut state,
            &t,
            &mut engine,
            &m,
            &mut mat,
            &BcaStop { residue_norm: 1e-12, max_iterations: 1_000_000 },
        );
        let exact = rtk_rwr::exact::proximity_matrix_dense(&t, 0.15);
        let mut col: Vec<f64> = exact[4].clone();
        col.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for k in 1..=3 {
            assert!(
                (state.kth_lower_bound(k) - col[k - 1]).abs() < 1e-8,
                "k={k}: {} vs {}",
                state.kth_lower_bound(k),
                col[k - 1]
            );
        }
        assert!(state.residual_mass(true) < 1e-8);
    }

    #[test]
    fn refiner_reads_and_unloads_what_refine_state_leaves() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(150, 700, 9)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 5);
        let m = HubMatrix::build(
            &t,
            hubs.clone(),
            &HubSolver::PowerMethod,
            0.15,
            1e-4, // rounded columns: a non-zero parked deficit to carry
            1,
        );
        let mk = || BcaEngine::new(hubs.clone(), BcaParams::default());
        let mut engine = mk();
        let mut mat = Materializer::default();
        let mut refiner = Refiner::new(mk(), Materializer::default());
        let stop = BcaStop { residue_norm: 0.02, max_iterations: 40 };
        let mut refined = 0;
        for u in (0..150u32).step_by(7) {
            let snap = engine.run_from(&t, u, &BcaStop { residue_norm: 0.3, max_iterations: 3 });
            let stored = NodeState::from_snapshot(snap, &m, &mut mat, 10);

            refiner.load(&stored);
            assert_eq!(refiner.lower_bounds(), stored.lower_bounds());
            assert_eq!(refiner.residue_norm(), stored.residue_norm());
            assert_eq!(refiner.residual_mass(true), stored.residual_mass(true));
            // A stop rule already met: nothing runs, nothing changes.
            let idle = BcaStop { residue_norm: 1.0, max_iterations: 40 };
            assert_eq!(refiner.advance(&t, &m, &idle), 0);
            assert_eq!(refiner.unload(&m), stored);

            let mut expect = stored.clone();
            let ran = refine_state(&mut expect, &t, &mut engine, &m, &mut mat, &stop);
            assert_eq!(refiner.advance(&t, &m, &stop), ran, "u={u}");
            // Same list and deficit bit for bit; the running norm is the
            // stored sum up to rounding.
            assert_eq!(refiner.lower_bounds(), expect.lower_bounds(), "u={u}");
            assert_eq!(refiner.parked_deficit(), expect.parked_deficit(), "u={u}");
            assert!((refiner.residue_norm() - expect.residue_norm()).abs() < 1e-14, "u={u}");
            assert_eq!(refiner.unload(&m), expect, "u={u}");
            refined += usize::from(ran > 0);
        }
        assert!(refined > 10, "test premise: most sampled nodes refine ({refined})");
    }

    /// One iteration on the resident computation; the list it leaves must be
    /// the unfiltered selection over the unloaded snapshot. `false` once
    /// nothing runs any more.
    fn step_and_check(
        refiner: &mut Refiner,
        t: &TransitionMatrix<'_>,
        m: &HubMatrix,
        mat: &mut Materializer,
    ) -> bool {
        if refiner.advance(t, m, &BcaStop::one_iteration()) == 0 {
            return false;
        }
        let k = refiner.lower_bounds().capacity();
        let full = mat.top_k(&refiner.engine.snapshot(), m, k);
        assert_eq!(refiner.lower_bounds().entries(), &full[..]);
        true
    }

    #[test]
    fn advance_selects_above_the_resident_floor_what_top_k_selects_from_everything() {
        // Star 0 ⇄ {1, 2, 3, 4}: the leaves tie exactly, and every other
        // iteration pushes from the leaves only, leaving their values — the
        // floor among them — where they were.
        let star = GraphBuilder::from_edges(
            5,
            &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (2, 0), (3, 0), (4, 0)],
            DanglingPolicy::Error,
        )
        .unwrap();
        let t = TransitionMatrix::new(&star);
        let no_hubs = HubSet::empty(5);
        let m = HubMatrix::build(&t, no_hubs.clone(), &HubSolver::PowerMethod, 0.15, 0.0, 1);
        let mut mat = Materializer::default();
        let mk = || BcaEngine::new(no_hubs.clone(), BcaParams::default());
        let first = mk().run_from(&t, 0, &BcaStop::one_iteration());
        let (mut short_lists, mut floor_ties) = (0, 0);
        for max_k in [3, 10] {
            let mut refiner = Refiner::new(mk(), Materializer::default());
            refiner.load(&NodeState::from_snapshot(first.clone(), &m, &mut mat, max_k));
            for _ in 0..12 {
                let before = refiner.lower_bounds().clone();
                assert!(step_and_check(&mut refiner, &t, &m, &mut mat));
                let after = refiner.lower_bounds();
                if before.len() < max_k {
                    short_lists += 1; // no floor: nothing is filtered
                } else if after.kth_value(max_k) == before.kth_value(max_k) {
                    // The list is full and its floor did not move: the tied
                    // leaves outside it sit exactly at the filter's edge.
                    let floor = after.kth_value(max_k);
                    assert_eq!(after.entries()[1..], [(1, floor), (2, floor)]);
                    assert_eq!(refiner.engine.snapshot().retained.get(4), floor);
                    floor_ties += 1;
                }
            }
        }
        assert!(short_lists >= 12 && floor_ties >= 4, "{short_lists} short, {floor_ties} ties");

        // With hubs, a node that holds no retained ink and sat outside the
        // old list enters the new one on parked ink alone (`s(h)·p_h`).
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(150, 700, 9)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 5);
        let m = HubMatrix::build(&t, hubs.clone(), &HubSolver::PowerMethod, 0.15, 1e-4, 1);
        let mut mat = Materializer::default();
        let mut engine = BcaEngine::new(hubs.clone(), BcaParams::default());
        let mut refiner =
            Refiner::new(BcaEngine::new(hubs, BcaParams::default()), Materializer::default());
        let mut lifted_by_hub_columns = 0;
        for u in (0..150u32).step_by(7) {
            let snap = engine.run_from(&t, u, &BcaStop::one_iteration());
            refiner.load(&NodeState::from_snapshot(snap, &m, &mut mat, 10));
            for _ in 0..25 {
                let before = refiner.lower_bounds().clone();
                if !step_and_check(&mut refiner, &t, &m, &mut mat) {
                    break;
                }
                lifted_by_hub_columns += refiner
                    .lower_bounds()
                    .entries()
                    .iter()
                    .filter(|&&(v, _)| {
                        before.len() == 10
                            && before.value_of(v) == 0.0
                            && refiner.engine.snapshot().retained.get(v) == 0.0
                    })
                    .count();
            }
        }
        assert!(lifted_by_hub_columns > 0, "test premise: a hub column lifts a node into a list");
    }

    #[test]
    fn strict_residual_exceeds_paper_residual_under_rounding() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(
            &t,
            hubs.clone(),
            &HubSolver::PowerMethod,
            0.15,
            0.1, // aggressive rounding
            1,
        );
        let mut engine = BcaEngine::new(hubs, BcaParams::default());
        let mut mat = Materializer::default();
        let snap = engine.run_from(&t, 2, &BcaStop { residue_norm: 0.1, max_iterations: 100 });
        assert!(!snap.hub_ink.is_empty(), "test premise: some ink parked at hubs");
        let state = NodeState::from_snapshot(snap, &m, &mut mat, 3);
        assert!(state.residual_mass(true) > state.residual_mass(false));
        assert!(state.parked_deficit() > 0.0);
    }
}
