//! The hub proximity matrix `P_H` with rounding and deficit tracking
//! (paper §4.1.3).
//!
//! Each hub's exact proximity vector is computed once, rounded by zeroing
//! entries `≤ ω`, and stored sparsely. Rounding preserves the lower-bound
//! property of everything materialized from `P_H` (rounded values are `≤`
//! exact values elementwise — the paper's Prop. 1/2 carry over, as it notes).
//!
//! Beyond the paper, each hub records its **mass deficit**
//! `d_h = 1 − ‖stored p_h‖₁`: the proximity mass lost to rounding plus any
//! solver truncation. A unit of ink parked at hub `h` can still deliver up to
//! `d_h` of future proximity anywhere, so sound upper bounds must treat
//! `Σ_h s(h)·d_h` as additional residue (`BoundMode::Strict` in the query
//! crate uses exactly this).

use crate::config::HubSolver;
use crate::digest::DigestCell;
use rtk_graph::TransitionMatrix;
use rtk_rwr::bca::{BcaEngine, BcaSnapshot, BcaStop};
use rtk_rwr::power::BLOCK_WIDTH;
use rtk_rwr::{proximity_from_many, HubSet};
use rtk_sparse::{top_k_of_pairs, EpochScratch, SparseVector};

/// Sparse, rounded hub proximity vectors plus per-hub deficits.
#[derive(Clone, Debug, PartialEq)]
pub struct HubMatrix {
    hubs: HubSet,
    /// `columns[i]` is the rounded `p_h` for `hubs.ids()[i]`.
    columns: Vec<SparseVector>,
    /// `deficits[i] = 1 − ‖columns[i]‖₁ ≥ 0`.
    deficits: Vec<f64>,
    /// Entries each column held *before* rounding (for Table 2's
    /// "no rounding" space accounting).
    unrounded_nnz: Vec<usize>,
    /// Cached digest of each column's persisted record (never compared).
    digests: Vec<DigestCell>,
    /// The rounding threshold `ω` the columns were built with.
    rounding_threshold: f64,
}

impl HubMatrix {
    /// Computes all hub vectors with `solver`, rounds them at `ω`, and
    /// records deficits. Hub computations are spread over `threads` workers.
    pub fn build(
        transition: &TransitionMatrix<'_>,
        hubs: HubSet,
        solver: &HubSolver,
        rounding_threshold: f64,
        threads: usize,
    ) -> Self {
        let solved = solve_columns(transition, hubs.ids(), solver, rounding_threshold, threads);
        let mut matrix = Self {
            hubs,
            columns: Vec::with_capacity(solved.len()),
            deficits: Vec::with_capacity(solved.len()),
            unrounded_nnz: Vec::with_capacity(solved.len()),
            digests: Vec::with_capacity(solved.len()),
            rounding_threshold,
        };
        for column in solved {
            matrix.columns.push(column.vector);
            matrix.deficits.push(column.deficit);
            matrix.unrounded_nnz.push(column.unrounded_nnz);
            matrix.digests.push(DigestCell::filled(column.digest));
        }
        matrix
    }

    /// Reassembles a matrix from stored parts (used by [`crate::storage`]);
    /// the record digests are computed when first asked for.
    pub(crate) fn from_parts(
        hubs: HubSet,
        columns: Vec<SparseVector>,
        deficits: Vec<f64>,
        unrounded_nnz: Vec<usize>,
        rounding_threshold: f64,
    ) -> Self {
        assert_eq!(hubs.len(), columns.len());
        assert_eq!(hubs.len(), deficits.len());
        assert_eq!(hubs.len(), unrounded_nnz.len());
        let digests = columns.iter().map(|_| DigestCell::default()).collect();
        Self { hubs, columns, deficits, unrounded_nnz, digests, rounding_threshold }
    }

    /// The hub set.
    #[inline]
    pub fn hubs(&self) -> &HubSet {
        &self.hubs
    }

    /// Number of hubs.
    #[inline]
    pub fn hub_count(&self) -> usize {
        self.columns.len()
    }

    /// The rounding threshold `ω` used at build time.
    #[inline]
    pub fn rounding_threshold(&self) -> f64 {
        self.rounding_threshold
    }

    /// Recomputes the columns of the given hub `ids` in place (incremental
    /// edge updates, [`crate::update`]). Every id must be a hub of this
    /// matrix. Each column goes through the exact per-column computation of
    /// [`Self::build`] — same solver, same rounding, same deficit formula —
    /// so a column recomputed here is bitwise-identical to the one a
    /// from-scratch build against the same transition matrix produces.
    /// Returns the number of columns recomputed.
    ///
    /// # Panics
    /// Panics if an id is not a hub of this matrix.
    pub fn recompute_columns(
        &mut self,
        transition: &TransitionMatrix<'_>,
        ids: &[u32],
        solver: &HubSolver,
        threads: usize,
    ) -> usize {
        let solved = solve_columns(transition, ids, solver, self.rounding_threshold, threads);
        for (&h, column) in ids.iter().zip(solved) {
            let p = self.hubs.position(h).expect("recompute_columns id is not a hub");
            self.columns[p] = column.vector;
            self.deficits[p] = column.deficit;
            self.unrounded_nnz[p] = column.unrounded_nnz;
            self.digests[p] = DigestCell::filled(column.digest);
        }
        ids.len()
    }

    /// Digest of the persisted record of the `i`-th hub column (in
    /// [`HubSet::ids`] order) — cached unless `cached` is false; hashed here
    /// if nothing has yet.
    pub(crate) fn column_digest(&self, i: usize, cached: bool) -> u64 {
        self.digests[i].get_or(cached, || {
            crate::storage::hub_record_digest(&self.columns[i], self.deficits[i])
        })
    }

    /// Rounded proximity vector of hub `node`, or `None` if not a hub.
    pub fn column(&self, node: u32) -> Option<&SparseVector> {
        self.hubs.position(node).map(|i| &self.columns[i])
    }

    /// Mass deficit `d_h` of hub `node` (0 for non-hubs).
    pub fn deficit(&self, node: u32) -> f64 {
        self.hubs.position(node).map_or(0.0, |i| self.deficits[i])
    }

    /// `Σ_h s(h)·d_h` — the extra residual mass hidden in parked hub ink.
    pub fn parked_deficit(&self, hub_ink: &SparseVector) -> f64 {
        hub_ink
            .iter()
            .map(|(h, s)| s * self.hubs.position(h).map_or(0.0, |i| self.deficits[i]))
            .sum()
    }

    /// Stored entries across all columns (after rounding).
    pub fn nnz(&self) -> usize {
        self.columns.iter().map(|c| c.nnz()).sum()
    }

    /// Entries across all columns before rounding.
    pub fn unrounded_nnz(&self) -> usize {
        self.unrounded_nnz.iter().sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum::<usize>()
            + self.deficits.len() * std::mem::size_of::<f64>()
            + self.digests.len() * std::mem::size_of::<DigestCell>()
    }

    /// Theorem 1's predicted storage (bytes) for the hub part given the
    /// power-law exponent `β`: `(1−β)^{1/β}·|H|·ω^{−1/β}·n^{1−1/β}` entries
    /// of 12 bytes (u32 index + f64 value). Returns `None` when `ω = 0`.
    pub fn predicted_bytes(&self, n: usize, beta: f64) -> Option<usize> {
        if self.rounding_threshold <= 0.0 || !(0.0..1.0).contains(&beta) || beta == 0.0 {
            return None;
        }
        let omega = self.rounding_threshold;
        let entries_per_hub = (1.0 - beta).powf(1.0 / beta)
            * omega.powf(-1.0 / beta)
            * (n as f64).powf(1.0 - 1.0 / beta);
        let entries = entries_per_hub * self.hub_count() as f64;
        Some((entries.min(1e15) * 12.0) as usize)
    }
}

/// One solved hub column, as [`HubMatrix`] stores it.
struct HubColumn {
    /// The rounded vector.
    vector: SparseVector,
    /// `1 − ‖vector‖₁`, rounding loss and solver truncation together.
    deficit: f64,
    /// Entries before rounding.
    unrounded_nnz: usize,
    /// Digest of the persisted record, hashed by the worker that solved it.
    digest: u64,
}

/// Solves, rounds and hashes the columns of `ids` (returned in `ids` order)
/// over `threads` lanes — the one routine behind [`HubMatrix::build`] and
/// [`HubMatrix::recompute_columns`]. The unit of work is a tile of
/// [`BLOCK_WIDTH`] hubs for the power method (one pass over the edges solves
/// the whole tile) and a single hub for BCA. Lanes claim tiles and results
/// are ordered by tile, so scheduling cannot change the matrix; a column
/// does not depend on its tile-mates, so neither can the tiling.
fn solve_columns(
    transition: &TransitionMatrix<'_>,
    ids: &[u32],
    solver: &HubSolver,
    rounding_threshold: f64,
    threads: usize,
) -> Vec<HubColumn> {
    let width = match solver {
        HubSolver::PowerMethod(_) => BLOCK_WIDTH,
        HubSolver::Bca(_) => 1,
    };
    let tiles: Vec<&[u32]> = ids.chunks(width).collect();
    let lanes =
        rtk_sparse::WorkerPool::global().claim(threads, tiles.len(), Vec::new, |done, i| {
            done.push((i, solve_tile(transition, tiles[i], solver, rounding_threshold)));
        });
    let mut solved: Vec<(usize, Vec<HubColumn>)> = lanes.into_iter().flatten().collect();
    solved.sort_unstable_by_key(|&(i, _)| i);
    solved.into_iter().flat_map(|(_, columns)| columns).collect()
}

/// Solves one tile of hubs, then rounds and hashes each column.
fn solve_tile(
    transition: &TransitionMatrix<'_>,
    hubs: &[u32],
    solver: &HubSolver,
    rounding_threshold: f64,
) -> Vec<HubColumn> {
    let vectors: Vec<SparseVector> = match solver {
        HubSolver::PowerMethod(params) => proximity_from_many(transition, hubs, params)
            .into_iter()
            .map(|(dense, _)| SparseVector::from_dense(&dense, 0.0))
            .collect(),
        HubSolver::Bca(params) => {
            let mut engine = BcaEngine::new(HubSet::empty(transition.node_count()), *params);
            let stop = BcaStop::from_params(params);
            hubs.iter()
                .map(|&hub| engine.run_from(transition, hub, &stop).retained)
                .collect()
        }
    };
    vectors
        .into_iter()
        .map(|mut vector| {
            let unrounded_nnz = vector.nnz();
            if rounding_threshold > 0.0 {
                vector.round_below(rounding_threshold);
            }
            // Deficit folds in both rounding loss and any solver truncation.
            let deficit = (1.0 - vector.sum()).max(0.0);
            let digest = crate::storage::hub_record_digest(&vector, deficit);
            HubColumn { vector, deficit, unrounded_nnz, digest }
        })
        .collect()
}

/// Reusable materializer for `p^t_u = w^t_u + P_H·s^t_u` (Eq. 7).
///
/// Owns a dense epoch scratch sized to the graph; one instance per worker
/// thread (index build) or per query session.
#[derive(Clone, Debug)]
pub struct Materializer {
    scratch: EpochScratch,
}

impl Materializer {
    /// Creates a materializer for graphs of `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        Self { scratch: EpochScratch::new(node_count) }
    }

    /// Materializes the lower-bound vector of `snapshot` and returns the
    /// scratch holding it (valid until the next call).
    pub fn materialize(&mut self, snapshot: &BcaSnapshot, hub_matrix: &HubMatrix) -> &EpochScratch {
        self.scratch.reset();
        snapshot.retained.scatter_into(1.0, &mut self.scratch);
        self.add_hub_columns(&snapshot.hub_ink, hub_matrix);
        &self.scratch
    }

    /// Adds `s(h)·p_h` for every hub holding parked ink, in ascending order.
    fn add_hub_columns(&mut self, hub_ink: &SparseVector, hub_matrix: &HubMatrix) {
        for (h, s) in hub_ink.iter() {
            let col = hub_matrix
                .column(h)
                .expect("hub ink parked at a node missing from the hub matrix");
            col.scatter_into(s, &mut self.scratch);
        }
    }

    /// [`Self::top_k`] of a computation still resident in its engine:
    /// `retained` is the engine's dense `w`, `hub_ink` its parked ink as the
    /// snapshot would store it. Every slot receives the same addends in the
    /// same order as it would from the unloaded snapshot, and selection
    /// breaks ties by id, so the list is bitwise the one [`Self::top_k`]
    /// returns for that snapshot.
    ///
    /// `floor` is a value that at least `k` entries are known to reach (0 if
    /// none is known): only entries `≥ floor` are handed to the selection,
    /// which cannot change the list — anything below `floor` has `k` entries
    /// above it, and ties at `floor` all pass.
    pub(crate) fn top_k_resident(
        &mut self,
        retained: &EpochScratch,
        hub_ink: &SparseVector,
        hub_matrix: &HubMatrix,
        k: usize,
        floor: f64,
    ) -> Vec<(u32, f64)> {
        self.scratch.reset();
        for (i, w) in retained.iter_touched() {
            self.scratch.add(i as usize, w);
        }
        self.add_hub_columns(hub_ink, hub_matrix);
        top_k_of_pairs(self.scratch.iter_touched().filter(|&(_, v)| v > 0.0 && v >= floor), k)
    }

    /// Materializes and selects the descending top-`k` entries.
    pub fn top_k(
        &mut self,
        snapshot: &BcaSnapshot,
        hub_matrix: &HubMatrix,
        k: usize,
    ) -> Vec<(u32, f64)> {
        let scratch = self.materialize(snapshot, hub_matrix);
        top_k_of_pairs(scratch.iter_touched().filter(|&(_, v)| v > 0.0), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn pm_solver() -> HubSolver {
        HubSolver::PowerMethod(RwrParams::default())
    }

    #[test]
    fn power_method_hubs_have_tiny_deficit() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs, &pm_solver(), 0.0, 1);
        assert_eq!(m.hub_count(), 2);
        for &h in [0u32, 1].iter() {
            assert!(m.deficit(h) < 1e-8, "deficit {}", m.deficit(h));
            let col = m.column(h).unwrap();
            assert!((col.sum() - 1.0).abs() < 1e-8);
        }
        assert_eq!(m.deficit(3), 0.0);
        assert!(m.column(3).is_none());
    }

    #[test]
    fn rounding_removes_mass_into_deficit() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![1]);
        let coarse = HubMatrix::build(&t, hubs.clone(), &pm_solver(), 0.1, 1);
        let fine = HubMatrix::build(&t, hubs, &pm_solver(), 0.0, 1);
        assert!(coarse.nnz() < fine.nnz());
        assert!(coarse.deficit(1) > 0.0);
        let sum_plus_deficit = coarse.column(1).unwrap().sum() + coarse.deficit(1);
        assert!((sum_plus_deficit - 1.0).abs() < 1e-8);
        assert_eq!(coarse.unrounded_nnz(), fine.nnz());
    }

    #[test]
    fn rounded_columns_lower_bound_exact_columns() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let rounded = HubMatrix::build(&t, hubs, &pm_solver(), 0.05, 1);
        let exact = rtk_rwr::exact::proximity_matrix_dense(&t, 0.15);
        for &h in [0u32, 1].iter() {
            let col = rounded.column(h).unwrap().to_dense(6);
            for v in 0..6 {
                assert!(col[v] <= exact[h as usize][v] + 1e-9);
            }
        }
    }

    #[test]
    fn bca_solver_tracks_truncation_deficit() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![1]);
        let coarse_bca = BcaParams { residue_threshold: 0.05, ..Default::default() };
        let m = HubMatrix::build(&t, hubs, &HubSolver::Bca(coarse_bca), 0.0, 1);
        let d = m.deficit(1);
        assert!(d > 1e-4 && d <= 0.05 + 1e-9, "deficit {d}");
    }

    #[test]
    fn parallel_build_matches_serial() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(200, 800, 3)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 14);
        assert!(
            hubs.len() > 2 * BLOCK_WIDTH && !hubs.len().is_multiple_of(BLOCK_WIDTH),
            "test premise: several tiles, the last partial"
        );
        for solver in [pm_solver(), HubSolver::Bca(BcaParams::default())] {
            let serial = HubMatrix::build(&t, hubs.clone(), &solver, 1e-6, 1);
            for threads in [2, 4] {
                let parallel = HubMatrix::build(&t, hubs.clone(), &solver, 1e-6, threads);
                assert_eq!(serial, parallel, "threads = {threads}");
            }
            // A recompute of any subset, in any order, lands on the same
            // columns (and the same cached record digests) as the build.
            let mut patched = serial.clone();
            let ids: Vec<u32> = hubs.ids().iter().rev().step_by(2).copied().collect();
            assert_eq!(patched.recompute_columns(&t, &ids, &solver, 2), ids.len());
            assert_eq!(patched, serial);
            for i in 0..hubs.len() {
                assert_eq!(patched.column_digest(i, true), serial.column_digest(i, false));
            }
        }
    }

    #[test]
    fn power_method_columns_are_the_single_solves() {
        // The tiled solve behind `build` is `proximity_from`, column by column.
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(200, 800, 3)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 6);
        let m = HubMatrix::build(&t, hubs.clone(), &pm_solver(), 0.0, 2);
        for &h in hubs.ids() {
            let (dense, _) = rtk_rwr::proximity_from(&t, h, &RwrParams::default());
            assert_eq!(m.column(h).unwrap(), &SparseVector::from_dense(&dense, 0.0), "hub {h}");
        }
    }

    #[test]
    fn parked_deficit_weights_hub_ink() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs, &pm_solver(), 0.1, 1);
        let ink = SparseVector::from_parts(vec![0, 1], vec![0.5, 0.25]);
        let expected = 0.5 * m.deficit(0) + 0.25 * m.deficit(1);
        assert!((m.parked_deficit(&ink) - expected).abs() < 1e-15);
    }

    #[test]
    fn materializer_combines_retained_and_hub_ink() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs.clone(), &pm_solver(), 0.0, 1);
        let exact = rtk_rwr::exact::proximity_matrix_dense(&t, 0.15);

        // Exhaustive BCA from node 2 with hubs; materialized vector must be p_2.
        let mut engine = BcaEngine::new(hubs, BcaParams::exhaustive(0.15));
        let snap =
            engine.run_from(&t, 2, &BcaStop { residue_norm: 1e-12, max_iterations: 1_000_000 });
        let mut mat = Materializer::new(6);
        let scratch = mat.materialize(&snap, &m);
        for (v, &expected) in exact[2].iter().enumerate() {
            assert!(
                (scratch.get(v) - expected).abs() < 1e-8,
                "v={v}: {} vs {expected}",
                scratch.get(v)
            );
        }
        let top2 = mat.top_k(&snap, &m, 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].0, 1); // p_3 (paper) peaks at node 2 (1-based)
        assert!(top2[0].1 >= top2[1].1);
    }

    #[test]
    fn empty_hub_set_builds_empty_matrix() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let m = HubMatrix::build(&t, HubSet::empty(6), &pm_solver(), 1e-6, 4);
        assert_eq!(m.hub_count(), 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.parked_deficit(&SparseVector::new()), 0.0);
    }

    #[test]
    fn theorem1_prediction_behaves() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs, &pm_solver(), 1e-6, 1);
        let p = m.predicted_bytes(6, 0.76).unwrap();
        assert!(p > 0);
        // Smaller ω ⇒ more predicted entries.
        let g2 = toy();
        let t2 = TransitionMatrix::new(&g2);
        let m2 = HubMatrix::build(&t2, HubSet::from_ids(6, vec![0, 1]), &pm_solver(), 1e-8, 1);
        assert!(m2.predicted_bytes(6, 0.76).unwrap() > p);
        // ω = 0 has no finite prediction.
        let m3 = HubMatrix::build(&t2, HubSet::from_ids(6, vec![0]), &pm_solver(), 0.0, 1);
        assert!(m3.predicted_bytes(6, 0.76).is_none());
    }
}
