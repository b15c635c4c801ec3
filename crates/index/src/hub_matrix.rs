//! The hub proximity matrix `P_H` with rounding and deficit tracking
//! (paper §4.1.3).
//!
//! Each hub's exact proximity vector is computed once, rounded by zeroing
//! entries `≤ ω`, and stored. Rounding preserves the lower-bound property of
//! everything materialized from `P_H` (rounded values are `≤` exact values
//! elementwise — the paper's Prop. 1/2 carry over, as it notes).
//!
//! Beyond the paper, each hub records its **mass deficit**
//! `d_h = 1 − ‖stored p_h‖₁`: the proximity mass lost to rounding plus any
//! solver truncation. A unit of ink parked at hub `h` can still deliver up to
//! `d_h` of future proximity anywhere, so sound upper bounds must treat
//! `Σ_h s(h)·d_h` as additional residue (`BoundMode::Strict` in the query
//! crate uses exactly this).
//!
//! **One dense panel.** In memory the columns are one panel over `U`, the
//! ascending union of their supports: a node → position map (`u32::MAX`
//! outside `U`), and one contiguous row of `|U|` values per hub, in
//! [`HubSet::ids`] order, with `0.0` where a column has no entry.
//! Materializing `w + P_H·s` (Eq. 7) is then one branch-free axpy per parked
//! hub; [`Materializer`] says why that is bitwise the sparse scatter it
//! replaced. The panel takes `8·|H|·|U| + 4·|U| + 4·n` bytes against the
//! sparse columns' `12·Σ nnz`, so it is the smaller whenever the columns
//! cover at least about 2/3 of `U` — at `ω = 1e-6` every column of an R-MAT
//! graph has the same support; disjoint supports are the case where it is
//! larger. `0.0` can stand for "no entry" because every stored entry is
//! `> 0`: rounding and both solvers keep only positive values, and the loader
//! refuses anything else. A persisted hub record is the column re-emitted
//! from its row — `(U[j], row[j])` for every `row[j] ≠ 0` — so the bytes and
//! the record digests do not depend on this layout.

use crate::config::HubSolver;
use crate::digest::DigestCell;
use rtk_graph::TransitionMatrix;
use rtk_rwr::bca::{BcaEngine, BcaSnapshot, BcaStop};
use rtk_rwr::power::BLOCK_WIDTH;
use rtk_rwr::{proximity_from_many, BcaParams, HubSet, RwrParams};
use rtk_sparse::{SparseVector, TopKSelection};

/// Rounded hub proximity vectors as one dense panel, plus per-hub deficits.
#[derive(Clone, Debug, PartialEq)]
pub struct HubMatrix {
    hubs: HubSet,
    /// `U`: the ascending union of the column supports.
    support: Vec<u32>,
    /// Node → position in `support`, or `u32::MAX` outside it.
    slot: Vec<u32>,
    /// `|H| × |U|`, row-major: row `i` is the rounded `p_h` of
    /// `hubs.ids()[i]` over `support`, `0.0` where the column has no entry.
    panel: Vec<f64>,
    /// `deficits[i] = 1 − ‖row i‖₁ ≥ 0`.
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
    /// Computes all hub vectors with `solver` at restart probability
    /// `alpha`, rounds them at `ω`, and records deficits. Hub computations
    /// are spread over `threads` workers.
    pub fn build(
        transition: &TransitionMatrix<'_>,
        hubs: HubSet,
        solver: &HubSolver,
        alpha: f64,
        rounding_threshold: f64,
        threads: usize,
    ) -> Self {
        let solved =
            solve_columns(transition, hubs.ids(), solver, alpha, rounding_threshold, threads);
        let mut columns = Vec::with_capacity(solved.len());
        let mut deficits = Vec::with_capacity(solved.len());
        let mut unrounded_nnz = Vec::with_capacity(solved.len());
        let mut digests = Vec::with_capacity(solved.len());
        for column in solved {
            columns.push(column.vector);
            deficits.push(column.deficit);
            unrounded_nnz.push(column.unrounded_nnz);
            digests.push(DigestCell::filled(column.digest));
        }
        let mut matrix =
            Self::from_parts(hubs, columns, deficits, unrounded_nnz, rounding_threshold);
        matrix.digests = digests;
        matrix
    }

    /// Reassembles a matrix from its columns (in [`HubSet::ids`] order; used
    /// by [`crate::storage`]); the record digests are computed when first
    /// asked for.
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
        let mut matrix = Self {
            hubs,
            support: Vec::new(),
            slot: Vec::new(),
            panel: Vec::new(),
            deficits,
            unrounded_nnz,
            digests,
            rounding_threshold,
        };
        matrix.lay_out(&columns);
        matrix
    }

    /// Lays `columns` (in [`HubSet::ids`] order) out as the panel. The
    /// support is recomputed: an edit can grow or shrink it.
    fn lay_out(&mut self, columns: &[SparseVector]) {
        let n = self.hubs.node_count();
        let mut slot = vec![u32::MAX; n];
        for &i in columns.iter().flat_map(|c| c.indices()) {
            slot[i as usize] = 0;
        }
        let mut support: Vec<u32> =
            (0..n as u32).filter(|&i| slot[i as usize] != u32::MAX).collect();
        // Exact size: capacity is what `heap_bytes` accounts.
        support.shrink_to_fit();
        for (j, &i) in support.iter().enumerate() {
            slot[i as usize] = j as u32;
        }
        let mut panel = vec![0.0; columns.len() * support.len()];
        if !support.is_empty() {
            for (row, column) in panel.chunks_exact_mut(support.len()).zip(columns) {
                for (i, v) in column.iter() {
                    row[slot[i as usize] as usize] = v;
                }
            }
        }
        (self.support, self.slot, self.panel) = (support, slot, panel);
    }

    /// The hub set.
    #[inline]
    pub fn hubs(&self) -> &HubSet {
        &self.hubs
    }

    /// Number of hubs.
    #[inline]
    pub fn hub_count(&self) -> usize {
        self.hubs.len()
    }

    /// The rounding threshold `ω` used at build time.
    #[inline]
    pub fn rounding_threshold(&self) -> f64 {
        self.rounding_threshold
    }

    /// Recomputes the columns of the given hub `ids` in place (incremental
    /// edge updates, [`crate::update`]), then re-lays the panel. Every id
    /// must be a hub of this matrix. Each column goes through the exact
    /// per-column computation of [`Self::build`] — same solver, same
    /// rounding, same deficit formula — so a column recomputed here is
    /// bitwise-identical to the one a from-scratch build against the same
    /// transition matrix produces. Returns the number of columns recomputed.
    ///
    /// # Panics
    /// Panics if an id is not a hub of this matrix.
    pub fn recompute_columns(
        &mut self,
        transition: &TransitionMatrix<'_>,
        ids: &[u32],
        solver: &HubSolver,
        alpha: f64,
        threads: usize,
    ) -> usize {
        if ids.is_empty() {
            // No column to solve (an edit no hub reaches, or none at all).
            return 0;
        }
        let solved =
            solve_columns(transition, ids, solver, alpha, self.rounding_threshold, threads);
        let mut columns: Vec<SparseVector> =
            (0..self.hub_count()).map(|i| self.column_at(i)).collect();
        for (&h, column) in ids.iter().zip(solved) {
            let p = self.hubs.position(h).expect("recompute_columns id is not a hub");
            columns[p] = column.vector;
            self.deficits[p] = column.deficit;
            self.unrounded_nnz[p] = column.unrounded_nnz;
            self.digests[p] = DigestCell::filled(column.digest);
        }
        self.lay_out(&columns);
        ids.len()
    }

    /// Digest of the persisted record of the `i`-th hub column (in
    /// [`HubSet::ids`] order) — cached unless `cached` is false; hashed here
    /// if nothing has yet.
    pub(crate) fn column_digest(&self, i: usize, cached: bool) -> u64 {
        self.digests[i].get_or(cached, || {
            crate::storage::hub_record_digest(&self.column_at(i), self.deficits[i])
        })
    }

    /// Panel row `i`: the `i`-th column (in [`HubSet::ids`] order) over the
    /// support.
    fn row(&self, i: usize) -> &[f64] {
        let width = self.support.len();
        &self.panel[i * width..(i + 1) * width]
    }

    /// The `i`-th column as the sparse vector it is persisted as.
    fn column_at(&self, i: usize) -> SparseVector {
        let entries = self.support.iter().zip(self.row(i)).filter(|&(_, &v)| v != 0.0);
        let (indices, values) = entries.map(|(&u, &v)| (u, v)).unzip();
        SparseVector::from_parts(indices, values)
    }

    /// Rounded proximity vector of hub `node` (re-emitted from its panel
    /// row), or `None` if not a hub.
    pub fn column(&self, node: u32) -> Option<SparseVector> {
        self.hubs.position(node).map(|i| self.column_at(i))
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
        self.panel.iter().filter(|&&v| v != 0.0).count()
    }

    /// Entries across all columns before rounding.
    pub fn unrounded_nnz(&self) -> usize {
        self.unrounded_nnz.iter().sum()
    }

    /// Approximate heap footprint in bytes: the panel, the support and the
    /// node → position map, plus the per-hub deficits and digest cells.
    pub fn heap_bytes(&self) -> usize {
        self.panel.capacity() * std::mem::size_of::<f64>()
            + (self.support.capacity() + self.slot.capacity()) * std::mem::size_of::<u32>()
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

/// One solved hub column, before [`HubMatrix`] lays it out.
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
    alpha: f64,
    rounding_threshold: f64,
    threads: usize,
) -> Vec<HubColumn> {
    let width = match solver {
        HubSolver::PowerMethod => BLOCK_WIDTH,
        HubSolver::Bca { .. } => 1,
    };
    let tiles: Vec<&[u32]> = ids.chunks(width).collect();
    let lanes =
        rtk_sparse::WorkerPool::global().claim(threads, tiles.len(), Vec::new, |done, i| {
            done.push((i, solve_tile(transition, tiles[i], solver, alpha, rounding_threshold)));
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
    alpha: f64,
    rounding_threshold: f64,
) -> Vec<HubColumn> {
    let vectors: Vec<SparseVector> = match *solver {
        HubSolver::PowerMethod => {
            proximity_from_many(transition, hubs, &RwrParams::with_alpha(alpha))
                .into_iter()
                .map(|(dense, _)| SparseVector::from_dense(&dense, 0.0))
                .collect()
        }
        HubSolver::Bca { propagation_threshold, residue_threshold, max_iterations } => {
            let params =
                BcaParams { alpha, propagation_threshold, residue_threshold, max_iterations };
            let mut engine = BcaEngine::new(HubSet::empty(transition.node_count()), params);
            let stop = BcaStop::from_params(&params);
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

/// Reusable materializer for `p^t_u = w^t_u + P_H·s^t_u` (Eq. 7): a dense
/// accumulator over the [`HubMatrix`] panel's support plus a selection
/// buffer. One instance per worker lane (index build, edge update) or per
/// query worker; it fits itself to the matrix it is handed on every call.
///
/// Every list comes out of one path. Per support slot the accumulator holds
/// `0.0`, then the retained `w` (if any), then `s(h)·row_h[j]` for every
/// parked hub in ascending order: the addends a scatter of the sparse
/// columns into a dense accumulator applies, in the same order, plus
/// `s·0.0 = +0.0` where a column has no entry. Adding `+0.0` leaves a
/// non-negative sum bit-identical, and Rust does not fuse the multiply and
/// the add, so every slot the scatter touched ends on the same bits, and a
/// slot it never touched stays `0.0` and fails the `v > 0` filter. Retained entries
/// outside the support get no hub addend and are final as read. Selection
/// ([`TopKSelection`]) orders by value descending, ties by id — a total
/// order, so the order the candidates arrive in cannot change the list.
#[derive(Clone, Debug, Default)]
pub struct Materializer {
    /// `acc[j]` accumulates the entry of the support's `j`-th node.
    acc: Vec<f64>,
    /// Selection candidates, reused across calls.
    selection: TopKSelection,
}

impl Materializer {
    /// Materializes `snapshot`'s lower-bound vector and selects its
    /// descending top-`k` entries.
    pub fn top_k(
        &mut self,
        snapshot: &BcaSnapshot,
        hub_matrix: &HubMatrix,
        k: usize,
    ) -> Vec<(u32, f64)> {
        self.top_k_resident(snapshot.retained.iter(), &snapshot.hub_ink, hub_matrix, k, 0.0)
    }

    /// The one materialize-and-select path (see the type docs): the top `k`
    /// of `w + P_H·s` among its entries `v > 0` with `v ≥ floor`, as an
    /// exact-size list. `retained` yields each node's `w` at most once, in
    /// any order, zeros allowed (a `+0.0` addend leaves a non-negative sum
    /// as it is, and a zero fails `v > 0`), so a computation still resident
    /// in its engine ([`BcaEngine::retained`], [`BcaEngine::hub_ink`]) gives
    /// every slot the addends its snapshot would, and the list is bitwise
    /// [`Self::top_k`]'s for that snapshot.
    ///
    /// `floor` is a value that at least `k` entries are known to reach (0 if
    /// none is known): only entries `≥ floor` are handed to the selection,
    /// which cannot change the list — anything below `floor` has `k` entries
    /// above it, and ties at `floor` all pass.
    pub(crate) fn top_k_resident(
        &mut self,
        retained: impl Iterator<Item = (u32, f64)>,
        hub_ink: &SparseVector,
        hub_matrix: &HubMatrix,
        k: usize,
        floor: f64,
    ) -> Vec<(u32, f64)> {
        let keep = |v: f64| v > 0.0 && v >= floor;
        self.acc.clear();
        self.acc.resize(hub_matrix.support.len(), 0.0);
        let (acc, selection) = (&mut self.acc, &mut self.selection);
        retained.for_each(|(i, w)| match hub_matrix.slot[i as usize] {
            u32::MAX if keep(w) => selection.push(i, w),
            u32::MAX => {}
            j => acc[j as usize] += w,
        });
        for (h, s) in hub_ink.iter() {
            let p = hub_matrix
                .hubs
                .position(h)
                .expect("hub ink parked at a node missing from the hub matrix");
            for (a, &v) in self.acc.iter_mut().zip(hub_matrix.row(p)) {
                *a += s * v;
            }
        }
        for (&i, &v) in hub_matrix.support.iter().zip(&self.acc) {
            if keep(v) {
                self.selection.push(i, v);
            }
        }
        self.selection.select(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::gen::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};
    use rtk_rwr::{BcaParams, RwrParams};
    use rtk_sparse::top_k_of_pairs;

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

    /// BCA hub solves at the default `η` and iteration cap.
    fn bca_solver(residue_threshold: f64) -> HubSolver {
        let d = BcaParams::default();
        HubSolver::Bca {
            propagation_threshold: d.propagation_threshold,
            residue_threshold,
            max_iterations: d.max_iterations,
        }
    }

    #[test]
    fn power_method_hubs_have_tiny_deficit() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs, &HubSolver::PowerMethod, 0.15, 0.0, 1);
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
        let coarse = HubMatrix::build(&t, hubs.clone(), &HubSolver::PowerMethod, 0.15, 0.1, 1);
        let fine = HubMatrix::build(&t, hubs, &HubSolver::PowerMethod, 0.15, 0.0, 1);
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
        let rounded = HubMatrix::build(&t, hubs, &HubSolver::PowerMethod, 0.15, 0.05, 1);
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
        let m = HubMatrix::build(&t, hubs, &bca_solver(0.05), 0.15, 0.0, 1);
        let d = m.deficit(1);
        assert!(d > 1e-4 && d <= 0.05 + 1e-9, "deficit {d}");
    }

    #[test]
    fn parallel_build_matches_serial() {
        let g = rmat(&RmatConfig::new(200, 800, 3)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 14);
        assert!(
            hubs.len() > 2 * BLOCK_WIDTH && !hubs.len().is_multiple_of(BLOCK_WIDTH),
            "test premise: several tiles, the last partial"
        );
        for solver in [HubSolver::PowerMethod, bca_solver(0.1)] {
            let serial = HubMatrix::build(&t, hubs.clone(), &solver, 0.15, 1e-6, 1);
            for threads in [2, 4] {
                let parallel = HubMatrix::build(&t, hubs.clone(), &solver, 0.15, 1e-6, threads);
                assert_eq!(serial, parallel, "threads = {threads}");
            }
            // A recompute of any subset, in any order, lands on the same
            // columns (and the same cached record digests) as the build.
            let mut patched = serial.clone();
            let ids: Vec<u32> = hubs.ids().iter().rev().step_by(2).copied().collect();
            assert_eq!(patched.recompute_columns(&t, &ids, &solver, 0.15, 2), ids.len());
            assert_eq!(patched, serial);
            for i in 0..hubs.len() {
                assert_eq!(patched.column_digest(i, true), serial.column_digest(i, false));
            }
        }
    }

    #[test]
    fn power_method_columns_are_the_single_solves() {
        // The tiled solve behind `build` is `proximity_from`, column by column.
        let g = rmat(&RmatConfig::new(200, 800, 3)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 6);
        let m = HubMatrix::build(&t, hubs.clone(), &HubSolver::PowerMethod, 0.15, 0.0, 2);
        for &h in hubs.ids() {
            let (dense, _) = rtk_rwr::proximity_from(&t, h, &RwrParams::default());
            assert_eq!(m.column(h).unwrap(), SparseVector::from_dense(&dense, 0.0), "hub {h}");
        }
    }

    #[test]
    fn parked_deficit_weights_hub_ink() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs, &HubSolver::PowerMethod, 0.15, 0.1, 1);
        let ink = SparseVector::from_parts(vec![0, 1], vec![0.5, 0.25]);
        let expected = 0.5 * m.deficit(0) + 0.25 * m.deficit(1);
        assert!((m.parked_deficit(&ink) - expected).abs() < 1e-15);
    }

    #[test]
    fn materializer_combines_retained_and_hub_ink() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs.clone(), &HubSolver::PowerMethod, 0.15, 0.0, 1);
        let exact = rtk_rwr::exact::proximity_matrix_dense(&t, 0.15);

        // Exhaustive BCA from node 2 with hubs; materialized vector must be p_2.
        let mut engine = BcaEngine::new(hubs, BcaParams::exhaustive(0.15));
        let snap =
            engine.run_from(&t, 2, &BcaStop { residue_norm: 1e-12, max_iterations: 1_000_000 });
        let mut mat = Materializer::default();
        let mut materialized = [0.0; 6];
        for (v, p) in mat.top_k(&snap, &m, 6) {
            materialized[v as usize] = p;
        }
        for (v, &expected) in exact[2].iter().enumerate() {
            assert!(
                (materialized[v] - expected).abs() < 1e-8,
                "v={v}: {} vs {expected}",
                materialized[v]
            );
        }
        let top2 = mat.top_k(&snap, &m, 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].0, 1); // p_3 (paper) peaks at node 2 (1-based)
        assert!(top2[0].1 >= top2[1].1);
    }

    /// The scatter the panel replaced, kept as the reference the one
    /// materialize path is pinned to: the retained ink, then each parked
    /// hub's sparse column in ascending hub order, added into a dense
    /// node-indexed accumulator one entry at a time.
    fn scatter_top_k(
        retained: impl Iterator<Item = (u32, f64)>,
        hub_ink: &SparseVector,
        m: &HubMatrix,
        k: usize,
        floor: f64,
    ) -> Vec<(u32, f64)> {
        let mut acc = vec![0.0; m.hubs().node_count()];
        for (i, w) in retained {
            acc[i as usize] += w;
        }
        for (h, s) in hub_ink.iter() {
            for (i, v) in m.column(h).expect("ink parks at hubs").iter() {
                acc[i as usize] += s * v;
            }
        }
        let entries = (0..).zip(acc).filter(|&(_, v)| v > 0.0 && v >= floor);
        top_k_of_pairs(entries, k)
    }

    fn bits(list: &[(u32, f64)]) -> Vec<(u32, u64)> {
        list.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    /// Pins `top_k` and `top_k_resident` (without a floor, and with the
    /// list's own last value as the floor) bit for bit to the scatter, over
    /// short and longer partial runs from every `step`-th node, for a `k` of
    /// 1, 5 and more than the candidates. Returns how many retained entries
    /// fell outside the panel's support.
    fn check_against_scatter(g: &DiGraph, hubs: HubSet, omega: f64, step: usize) -> usize {
        let t = TransitionMatrix::new(g);
        let n = g.node_count();
        let m = HubMatrix::build(&t, hubs.clone(), &HubSolver::PowerMethod, 0.15, omega, 1);
        let mut engine = BcaEngine::new(hubs, BcaParams::default());
        let mut mat = Materializer::default();
        let mut outside = 0;
        for u in (0..n as u32).step_by(step) {
            for iterations in [1, 3, 12] {
                let stop = BcaStop { residue_norm: 0.0, max_iterations: iterations };
                let snap = engine.run_from(&t, u, &stop);
                outside +=
                    snap.retained.iter().filter(|&(i, _)| m.slot[i as usize] == u32::MAX).count();
                engine.load(&snap);
                let hub_ink = engine.hub_ink();
                for k in [1, 5, n + 5] {
                    let at = format!("ω={omega} u={u} iterations={iterations} k={k}");
                    let full = mat.top_k(&snap, &m, k);
                    let reference = scatter_top_k(snap.retained.iter(), &snap.hub_ink, &m, k, 0.0);
                    assert_eq!(bits(&full), bits(&reference), "{at}");
                    let own_floor = full.last().map_or(0.0, |&(_, v)| v);
                    for floor in [0.0, own_floor] {
                        let resident =
                            mat.top_k_resident(engine.retained(), &hub_ink, &m, k, floor);
                        let reference = scatter_top_k(engine.retained(), &hub_ink, &m, k, floor);
                        assert_eq!(bits(&resident), bits(&reference), "{at} floor={floor}");
                        assert_eq!(bits(&resident), bits(&full), "{at} floor={floor}");
                        assert_eq!(resident.capacity(), resident.len(), "{at}: exact-size list");
                    }
                }
            }
        }
        outside
    }

    #[test]
    fn panel_materializes_bitwise_what_the_column_scatter_did() {
        let er = erdos_renyi(&ErdosRenyiConfig { nodes: 120, edges: 600, seed: 5 }).unwrap();
        let rm = rmat(&RmatConfig::new(200, 800, 3)).unwrap();
        for omega in [0.0, 1e-6, 1e-2] {
            check_against_scatter(&toy(), HubSet::from_ids(6, vec![0, 1]), omega, 1);
            check_against_scatter(&er, HubSet::degree_based(&er, 6), omega, 7);
            let outside = check_against_scatter(&rm, HubSet::degree_based(&rm, 10), omega, 9);
            if omega == 1e-2 {
                assert!(outside > 0, "test premise: retained entries outside the support");
            }
            // |H| = 0: an empty panel, every retained entry outside it.
            check_against_scatter(&rm, HubSet::empty(200), omega, 23);
        }
    }

    #[test]
    fn disjoint_column_supports_materialize_bitwise_too() {
        // Two copies of one R-MAT graph side by side, no edge between them,
        // with hubs in both: each column lives in its own component, so the
        // supports are disjoint — the layout's worst case for memory.
        let half = rmat(&RmatConfig::new(100, 400, 4)).unwrap();
        let edges: Vec<(u32, u32)> =
            half.edges().flat_map(|(f, t, _)| [(f, t), (f + 100, t + 100)]).collect();
        let g = GraphBuilder::from_edges(200, &edges, DanglingPolicy::Error).unwrap();
        let left: Vec<u32> = HubSet::degree_based(&half, 2).ids().to_vec();
        let ids = left.iter().copied().chain(left.iter().map(|h| h + 100)).collect();
        let hubs = HubSet::from_ids(200, ids);
        let t = TransitionMatrix::new(&g);
        for omega in [0.0, 1e-6] {
            let m = HubMatrix::build(&t, hubs.clone(), &HubSolver::PowerMethod, 0.15, omega, 1);
            let (a, b) = (m.column(left[0]).unwrap(), m.column(left[0] + 100).unwrap());
            assert!(a.indices().iter().all(|&i| i < 100), "ω={omega}");
            assert!(b.indices().iter().all(|&i| i >= 100), "ω={omega}");
            assert!(m.nnz() < m.hub_count() * m.support.len(), "test premise: zeros in the panel");
            check_against_scatter(&g, hubs.clone(), omega, 7);
        }
    }

    #[test]
    fn heap_bytes_counts_the_panel_support_and_slot() {
        let g = rmat(&RmatConfig::new(200, 800, 3)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 10);
        let m = HubMatrix::build(&t, hubs.clone(), &HubSolver::PowerMethod, 0.15, 1e-6, 1);
        let (h, u, n) = (hubs.len(), m.support.len(), g.node_count());
        assert!(h > 0 && u > 0, "test premise: a non-empty panel");
        let expected = 8 * h * u
            + 4 * u
            + 4 * n
            + h * std::mem::size_of::<f64>()
            + h * std::mem::size_of::<DigestCell>();
        assert_eq!(m.heap_bytes(), expected);
        // The panel holds exactly the columns' entries, and zeros elsewhere.
        let entries: usize = hubs.ids().iter().map(|&h| m.column(h).unwrap().nnz()).sum();
        assert_eq!(m.nnz(), entries);
    }

    #[test]
    fn empty_hub_set_builds_empty_matrix() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let m = HubMatrix::build(&t, HubSet::empty(6), &HubSolver::PowerMethod, 0.15, 1e-6, 4);
        assert_eq!(m.hub_count(), 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.parked_deficit(&SparseVector::new()), 0.0);
    }

    #[test]
    fn theorem1_prediction_behaves() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs, &HubSolver::PowerMethod, 0.15, 1e-6, 1);
        let p = m.predicted_bytes(6, 0.76).unwrap();
        assert!(p > 0);
        // Smaller ω ⇒ more predicted entries.
        let g2 = toy();
        let t2 = TransitionMatrix::new(&g2);
        let m2 = HubMatrix::build(
            &t2,
            HubSet::from_ids(6, vec![0, 1]),
            &HubSolver::PowerMethod,
            0.15,
            1e-8,
            1,
        );
        assert!(m2.predicted_bytes(6, 0.76).unwrap() > p);
        // ω = 0 has no finite prediction.
        let m3 = HubMatrix::build(
            &t2,
            HubSet::from_ids(6, vec![0]),
            &HubSolver::PowerMethod,
            0.15,
            0.0,
            1,
        );
        assert!(m3.predicted_bytes(6, 0.76).is_none());
    }
}
