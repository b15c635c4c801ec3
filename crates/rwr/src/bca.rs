//! The Bookmark Coloring Algorithm (paper §2.2 and §4.1.2).
//!
//! BCA models RWR as ink propagation: a unit of ink is injected at the source
//! `u`; whenever a node's residue is propagated, an `α` fraction is *retained*
//! there and the remaining `1−α` flows along its out-edges in transition
//! proportion. Ink that reaches a **hub** is parked in the hub-ink vector `s`
//! instead of propagating (Eq. 6) — its effect is recovered later from the
//! precomputed hub proximity vectors (`p^t_u = w^t_u + P_H·s^t_u`, Eq. 7).
//!
//! Propagation follows the paper's batch adaptation (Eqs. 8–9): every node
//! with residue `≥ η` propagates in one iteration, collected *before* any
//! pushes so an iteration exactly matches the equations. It maintains the
//! conservation invariant `‖w‖₁ + ‖s‖₁ + ‖r‖₁ = 1` and the monotonicity of
//! retained ink (Prop. 1), which is what makes the index's values true lower
//! bounds.
//!
//! The engine's state round-trips through compact [`BcaSnapshot`]s so a
//! partially-run computation can be stored in the offline index and *resumed*
//! during query refinement (§4.2.3): [`BcaEngine::load`] makes a snapshot
//! the resident computation, [`BcaEngine::advance`] continues it in place,
//! and [`BcaEngine::snapshot`] stores it back.
//!
//! An iteration costs its pushes, not the list of nodes `r` ever touched:
//! the resident residue is kept in **touch order** (`Residue`: values in a
//! dense array by slot, a node → slot map beside it, the hub slots listed
//! apart), so Eq. 6's sweep walks the hub slots only, the largest residue is
//! one vectorised maximum over the values, and the frontier of Eqs. 8–9 is
//! the set bits of one branch-free 64-bit mask per 64 slots, taken at the
//! threshold that maximum fixes — `η`, or half the maximum once everything
//! is below `η`. `w` is a plain array over the nodes and `s` one value per
//! hub; one bit per node records every node `r`, `w` or `s` holds, and is
//! the run's only record of what it touched: a snapshot is one walk over
//! the set bits in ascending id, not three sorts, and clearing for the next
//! run zeroes `w` and `s` at the set bits, so a node missing its bit would
//! carry its ink into the next run.

use crate::hubs::HubSet;
use crate::params::BcaParams;
use rtk_graph::TransitionMatrix;
use rtk_sparse::SparseVector;

/// Stop condition for a (resumed) BCA run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BcaStop {
    /// Stop once `‖r‖₁ ≤` this threshold (`δ` in the paper).
    pub residue_norm: f64,
    /// Stop after at most this many additional iterations.
    pub max_iterations: u32,
}

impl BcaStop {
    /// Stop rule matching the index-construction defaults of `params`.
    pub fn from_params(params: &BcaParams) -> Self {
        Self { residue_norm: params.residue_threshold, max_iterations: params.max_iterations }
    }

    /// Exactly one more iteration (query-time refinement, Alg. 4 line 13).
    pub fn one_iteration() -> Self {
        Self { residue_norm: 0.0, max_iterations: 1 }
    }
}

/// Work metrics for a run (used by benches and the experiment harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BcaWork {
    /// Iterations executed.
    pub iterations: u32,
    /// Node propagations (frontier members processed).
    pub propagations: u64,
    /// Edge pushes performed.
    pub pushes: u64,
}

/// Compact, resumable state of one BCA computation from a source node.
///
/// The offline index stores one snapshot per graph node (`R`, `W`, `S`
/// matrices of Alg. 1); query-time refinement loads it, advances a few
/// iterations, and stores it back.
#[derive(Clone, Debug, PartialEq)]
pub struct BcaSnapshot {
    /// Source node `u` the ink was injected at.
    pub source: u32,
    /// Total iterations executed so far (`t_u`).
    pub iterations: u32,
    /// Residue ink `r` (non-hub nodes only).
    pub residue: SparseVector,
    /// Retained ink `w` (non-hub nodes only).
    pub retained: SparseVector,
    /// Ink parked at hubs `s`.
    pub hub_ink: SparseVector,
}

impl BcaSnapshot {
    /// `‖r‖₁` — the residual mass that has not yet been retained or parked.
    pub fn residue_norm(&self) -> f64 {
        self.residue.sum()
    }

    /// `‖w‖₁ + ‖s‖₁` — mass already accounted for; with exact hub vectors the
    /// materialized `p^t_u` sums to exactly this.
    pub fn settled_mass(&self) -> f64 {
        self.retained.sum() + self.hub_ink.sum()
    }

    /// Approximate heap footprint in bytes (index size accounting).
    pub fn heap_bytes(&self) -> usize {
        self.residue.heap_bytes() + self.retained.heap_bytes() + self.hub_ink.heap_bytes()
    }
}

/// The resident residue `r` in touch order: slot `i` is the `i`-th node that
/// ever received ink in this computation and keeps its slot when its value
/// returns to zero, so a walk over `vals` visits the nodes in the order a
/// snapshot load or the pushes first reached them.
struct Residue {
    /// Slot of each node; [`Self::UNTOUCHED`] until its first ink.
    slot_of: Vec<u32>,
    /// Node of each slot.
    ids: Vec<u32>,
    /// Residue of each slot.
    vals: Vec<f64>,
    /// The slots whose node is a hub, each with the hub's
    /// [`HubSet::position`] — all Eq. 6's sweep has to visit.
    hub_slots: Vec<(u32, u32)>,
}

impl Residue {
    const UNTOUCHED: u32 = u32::MAX;

    fn new(node_count: usize) -> Self {
        Self {
            slot_of: vec![Self::UNTOUCHED; node_count],
            ids: Vec::new(),
            vals: Vec::new(),
            hub_slots: Vec::new(),
        }
    }

    /// Back to all-zero in `O(touched)`.
    fn reset(&mut self) {
        for &node in &self.ids {
            self.slot_of[node as usize] = Self::UNTOUCHED;
        }
        self.ids.clear();
        self.vals.clear();
        self.hub_slots.clear();
    }

    /// Adds `amount` to `node`'s residue. A node that already holds a slot —
    /// almost every push — stays on this inline path.
    #[inline]
    fn add(&mut self, node: u32, amount: f64, hubs: &HubSet, support: &mut Support) {
        let slot = self.slot_of[node as usize];
        if slot != Self::UNTOUCHED {
            self.vals[slot as usize] += amount;
        } else {
            self.first_touch(node, amount, hubs, support);
        }
    }

    /// A push's first ink to `node` — rare, so out of line: it takes a slot
    /// ([`Self::insert`]) and marks `node` in the support.
    #[cold]
    #[inline(never)]
    fn first_touch(&mut self, node: u32, amount: f64, hubs: &HubSet, support: &mut Support) {
        self.insert(node, amount, hubs);
        support.mark(node);
    }

    /// Gives the untouched `node` the next slot, holding `amount`, listed
    /// apart if `node` is a hub.
    #[inline]
    fn insert(&mut self, node: u32, amount: f64, hubs: &HubSet) {
        debug_assert_eq!(self.slot_of[node as usize], Self::UNTOUCHED);
        let slot = self.ids.len() as u32;
        self.slot_of[node as usize] = slot;
        self.ids.push(node);
        self.vals.push(amount);
        if let Some(hub) = hubs.position(node) {
            self.hub_slots.push((slot, hub as u32));
        }
    }

    /// The largest residue, `0.0` when none is positive. Independent running
    /// maxima let the pass vectorise; a maximum is exact, so how it is
    /// associated cannot change it.
    fn largest(&self) -> f64 {
        const LANES: usize = 8;
        let mut lanes = [0.0f64; LANES];
        let mut chunks = self.vals.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (best, &v) in lanes.iter_mut().zip(chunk) {
                if v > *best {
                    *best = v;
                }
            }
        }
        lanes
            .iter()
            .chain(chunks.remainder())
            .fold(0.0, |best, &v| if v > best { v } else { best })
    }

    /// Moves every slot whose residue is positive and `≥ threshold` into
    /// `frontier` as `(slot, residue)`, in slot order, zeroing the slot and
    /// subtracting its residue from `norm` in that same order. Per 64 slots
    /// one mask is built by branch-free compares, and only its set bits are
    /// visited.
    fn take_frontier(&mut self, threshold: f64, frontier: &mut Vec<(u32, f64)>, norm: &mut f64) {
        // `v ≥ threshold && v > 0` in one compare: the least positive `f64`
        // is at most any positive threshold, and at a zero threshold
        // (`rmax / 2` underflowed) `v ≥` it is exactly `v > 0`.
        let floor = threshold.max(f64::from_bits(1));
        for base in (0..self.vals.len()).step_by(64) {
            let end = self.vals.len().min(base + 64);
            for bit in set_bits(mask_at_least(&self.vals[base..end], floor)) {
                let slot = base + bit as usize;
                let v = self.vals[slot];
                self.vals[slot] = 0.0;
                *norm -= v;
                frontier.push((slot as u32, v));
            }
        }
    }
}

/// Bit `i` set iff `chunk[i] ≥ floor`, for a chunk of at most 64 values.
/// Compares two values a step, with no branch, so the loop vectorises.
#[inline]
fn mask_at_least(chunk: &[f64], floor: f64) -> u64 {
    debug_assert!(chunk.len() <= 64);
    let mut mask = 0u64;
    let mut pairs = chunk.chunks_exact(2);
    for (j, pair) in (&mut pairs).enumerate() {
        let two = u64::from(pair[0] >= floor) | u64::from(pair[1] >= floor) << 1;
        mask |= two << (2 * j);
    }
    if let [v] = pairs.remainder() {
        mask |= u64::from(*v >= floor) << (chunk.len() - 1);
    }
    mask
}

/// The positions of the set bits of `bits`, lowest first.
#[inline]
fn set_bits(mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            bit
        })
    })
}

/// One bit per node for the union of the supports of `r`, `w` and `s`. A
/// node enters one of them only by taking a residue slot or by
/// [`BcaEngine::load`] writing it into `w` or `s`, and both mark it, so the
/// set bits in ascending order are every node a snapshot can hold, in the
/// order it stores them — and every entry of `w` and `s` that clearing
/// must zero.
struct Support {
    words: Vec<u64>,
}

impl Support {
    fn new(node_count: usize) -> Self {
        Self { words: vec![0; node_count.div_ceil(64)] }
    }

    #[inline]
    fn mark(&mut self, node: u32) {
        self.words[node as usize / 64] |= 1 << (node % 64);
    }

    #[inline]
    fn contains(&self, node: u32) -> bool {
        self.words[node as usize / 64] & 1 << (node % 64) != 0
    }

    /// Marks `nodes`, given in ascending order: the bits of one word are
    /// gathered in a register and stored once, not stored bit by bit.
    fn mark_ascending(&mut self, nodes: &[u32]) {
        let Some(&first) = nodes.first() else { return };
        let (mut word, mut bits) = (first as usize / 64, 0u64);
        for &node in nodes {
            if node as usize / 64 != word {
                self.words[word] |= bits;
                (word, bits) = (node as usize / 64, 0);
            }
            bits |= 1 << (node % 64);
        }
        self.words[word] |= bits;
    }

    /// The marked nodes in ascending order: `O(marked + n/64)`.
    fn iter(&self) -> Marked<'_> {
        Marked { words: self.words.iter().enumerate(), word: 0, bits: 0 }
    }

    /// Back to no node, calling `f` on every marked node first, in
    /// ascending order: `O(marked + n/64)`.
    fn drain(&mut self, mut f: impl FnMut(u32)) {
        for (word, bits) in self.words.iter_mut().enumerate() {
            for bit in set_bits(std::mem::take(bits)) {
                f(word as u32 * 64 + bit);
            }
        }
    }
}

/// [`Support::iter`]: the set bits of one word at a time. Hand-rolled, with
/// a nested-loop `fold`: a `flat_map` over the words walked the support
/// markedly slower, and the resident materialization walks it after every
/// refine iteration.
struct Marked<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// The current word and its bits not yet visited.
    word: u32,
    bits: u64,
}

impl Iterator for Marked<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            let (word, &bits) = self.words.next()?;
            (self.word, self.bits) = (word as u32, bits);
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }

    /// A loop per word, which `for_each`, `sum` and `count` run on.
    fn fold<B, F: FnMut(B, u32) -> B>(self, init: B, mut f: F) -> B {
        let mut acc = init;
        for bit in set_bits(self.bits) {
            acc = f(acc, self.word * 64 + bit);
        }
        for (word, &bits) in self.words {
            for bit in set_bits(bits) {
                acc = f(acc, word as u32 * 64 + bit);
            }
        }
        acc
    }
}

/// One sparse vector of a snapshot, emitted in ascending id: zeros are left
/// out, and the arrays end at exact size ([`SparseVector::heap_bytes`]
/// counts capacity).
struct Emitted {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl Emitted {
    /// Room for `entries`, the exact count unless some are zeros.
    fn with_capacity(entries: usize) -> Self {
        Self { indices: Vec::with_capacity(entries), values: Vec::with_capacity(entries) }
    }

    #[inline]
    fn push(&mut self, node: u32, v: f64) {
        if v != 0.0 {
            self.indices.push(node);
            self.values.push(v);
        }
    }

    fn finish(mut self) -> SparseVector {
        self.indices.shrink_to_fit();
        self.values.shrink_to_fit();
        SparseVector::from_parts(self.indices, self.values)
    }
}

/// Reusable BCA executor over one graph + hub set.
///
/// Owns dense buffers sized to the graph — `r` in touch-ordered slots, `w`
/// over the nodes, `s` over the hubs, one support bit per node — so
/// building one engine and running it across many sources (index
/// construction) performs no per-source allocation beyond the output
/// snapshots. The support bits are the one record of what a computation
/// touched: clearing zeroes `w` and `s` at the set bits only.
pub struct BcaEngine {
    hubs: HubSet,
    params: BcaParams,
    residue: Residue,
    /// Retained ink `w`, by node.
    retained: Vec<f64>,
    /// The non-zero entries of `w`, counted as they receive their first
    /// ink (an addend that underflows to zero counts too, so it is an upper
    /// bound): room for a snapshot's `w` without a counting walk.
    retained_count: usize,
    /// Ink parked at hubs `s`, by [`HubSet::position`].
    hub_ink: Vec<f64>,
    support: Support,
    residue_norm: f64,
    /// Source and cumulative iteration count of the resident computation.
    source: u32,
    iterations: u32,
    /// Per-iteration frontier `(slot, residue)`, kept so an iteration
    /// allocates nothing.
    frontier: Vec<(u32, f64)>,
    work: BcaWork,
}

impl BcaEngine {
    /// Creates an engine. `hubs` may be empty (plain BCA). Scratch buffers
    /// are sized from the hub set's node count; every call takes the
    /// transition matrix explicitly, so one engine can outlive any borrow of
    /// the graph (the facade crate relies on this).
    ///
    /// # Panics
    /// Panics if `params` are invalid.
    pub fn new(hubs: HubSet, params: BcaParams) -> Self {
        params.validate();
        let n = hubs.node_count();
        Self {
            residue: Residue::new(n),
            retained: vec![0.0; n],
            retained_count: 0,
            hub_ink: vec![0.0; hubs.len()],
            support: Support::new(n),
            hubs,
            params,
            residue_norm: 0.0,
            source: 0,
            iterations: 0,
            frontier: Vec::new(),
            work: BcaWork::default(),
        }
    }

    /// The hub set this engine propagates against.
    pub fn hubs(&self) -> &HubSet {
        &self.hubs
    }

    /// Cumulative work counters across all runs of this engine.
    pub fn work(&self) -> BcaWork {
        self.work
    }

    /// Injects unit ink at `source` and runs until `stop`.
    ///
    /// The injection always lands in the residue vector — even for a hub
    /// source, whose ink is then swept into `s` by the first iteration's
    /// Eq. 6 step, matching the paper's uniform treatment of all nodes.
    pub fn run_from(
        &mut self,
        transition: &TransitionMatrix<'_>,
        source: u32,
        stop: &BcaStop,
    ) -> BcaSnapshot {
        assert!(
            (source as usize) < self.hubs.node_count(),
            "BcaEngine: source {source} out of range"
        );
        self.clear();
        self.source = source;
        self.residue.insert(source, 1.0, &self.hubs);
        self.support.mark(source);
        self.residue_norm = 1.0;
        self.advance(transition, stop);
        self.snapshot()
    }

    /// Makes `snapshot` the resident computation: [`Self::advance`] then
    /// continues it in place, any number of times, and [`Self::snapshot`]
    /// stores it back — so a caller that re-tests bounds between runs pays
    /// the load and the store once, not once per run.
    ///
    /// # Panics
    /// Panics if `snapshot` parks ink at a node that is not a hub.
    pub fn load(&mut self, snapshot: &BcaSnapshot) {
        self.clear();
        self.source = snapshot.source;
        self.iterations = snapshot.iterations;
        // A sparse vector holds each node once: every entry is a first ink.
        for (node, v) in snapshot.residue.iter() {
            self.residue.insert(node, v, &self.hubs);
        }
        for (node, v) in snapshot.retained.iter() {
            self.retained[node as usize] = v;
        }
        self.retained_count = snapshot.retained.nnz();
        for (hub, v) in snapshot.hub_ink.iter() {
            let p = self.hubs.position(hub).expect("BcaEngine: hub ink parked at a non-hub");
            self.hub_ink[p] = v;
        }
        for vector in [&snapshot.residue, &snapshot.retained, &snapshot.hub_ink] {
            self.support.mark_ascending(vector.indices());
        }
        self.residue_norm = snapshot.residue.sum();
    }

    /// Advances the resident computation until `stop`; returns the
    /// iterations executed.
    pub fn advance(&mut self, transition: &TransitionMatrix<'_>, stop: &BcaStop) -> u32 {
        assert_eq!(
            transition.node_count(),
            self.hubs.node_count(),
            "BcaEngine: graph/hub-set node count mismatch"
        );
        let executed = self.iterate(transition, stop);
        self.iterations += executed;
        executed
    }

    /// The resident computation as a compact snapshot: `r`, `w` and `s`
    /// each sorted by id, zeros left out, at exact size
    /// ([`BcaSnapshot::heap_bytes`] counts capacity, and the index's size
    /// with it). One walk over the support bits, in ascending id, emits `r`
    /// and `w`, and `s` is read in hub order — `O(touched + n/64)`, no sort.
    pub fn snapshot(&self) -> BcaSnapshot {
        let Residue { slot_of, vals, .. } = &self.residue;
        let mut residue = Emitted::with_capacity(vals.iter().filter(|&&v| v != 0.0).count());
        let mut retained = Emitted::with_capacity(self.retained_count);
        self.support.iter().for_each(|node| {
            let slot = slot_of[node as usize];
            if slot != Residue::UNTOUCHED {
                residue.push(node, vals[slot as usize]);
            }
            retained.push(node, self.retained[node as usize]);
        });
        BcaSnapshot {
            source: self.source,
            iterations: self.iterations,
            residue: residue.finish(),
            retained: retained.finish(),
            hub_ink: self.hub_ink(),
        }
    }

    /// `‖r‖₁` of the resident computation, maintained incrementally by the
    /// pushes (equal to the stored norm right after [`Self::load`]).
    pub fn residue_norm(&self) -> f64 {
        self.residue_norm
    }

    /// The residue `r` at every node the resident computation holds, in
    /// ascending id: the entries [`Self::snapshot`] would store, and zeros.
    pub fn residue(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        let Residue { slot_of, vals, .. } = &self.residue;
        self.support.iter().map(move |node| match slot_of[node as usize] {
            Residue::UNTOUCHED => (node, 0.0),
            slot => (node, vals[slot as usize]),
        })
    }

    /// The retained ink `w` at every node the resident computation holds,
    /// in ascending id: the entries [`Self::snapshot`] would store, and
    /// zeros where a node holds only `r` or `s`. Leaving the zeros to the
    /// caller (a sum or a positive filter skips them for free) spares a
    /// mispredicted branch per node.
    pub fn retained(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        let w = &self.retained;
        self.support.iter().map(|node| (node, w[node as usize]))
    }

    /// The ink parked at hubs `s` of the resident computation, as
    /// [`Self::snapshot`] would store it (hub ids ascend, so no sort).
    pub fn hub_ink(&self) -> SparseVector {
        let mut hub_ink =
            Emitted::with_capacity(self.hub_ink.iter().filter(|&&v| v != 0.0).count());
        for (&hub, &v) in self.hubs.ids().iter().zip(&self.hub_ink) {
            hub_ink.push(hub, v);
        }
        hub_ink.finish()
    }

    /// Back to no computation. `w` and `s` are zeroed at the support bits
    /// only — every node either holds is marked — and the bits with them.
    fn clear(&mut self) {
        let Self { hubs, residue, retained, hub_ink, support, .. } = self;
        for (v, &hub) in hub_ink.iter_mut().zip(hubs.ids()) {
            if support.contains(hub) {
                *v = 0.0;
            }
        }
        support.drain(|node| retained[node as usize] = 0.0);
        residue.reset();
        self.retained_count = 0;
        self.residue_norm = 0.0;
        self.iterations = 0;
    }

    /// Numerical exhaustion floor for `‖r‖₁`. Below the smallest normal
    /// `f64` the remaining "mass" is denormal noise, and propagation can
    /// **livelock**: for a residue at the denormal minimum, `0.85·r` rounds
    /// back up to `r`, so an out-degree-1 node pushes its residue forward
    /// undiminished and a probability-1 cycle circulates it forever. A run
    /// whose norm is under this floor is treated as exhausted — the mass
    /// unaccounted for (`≤ n·2.2e−308`) is far below every tolerance in the
    /// system.
    const RESIDUE_FLOOR: f64 = f64::MIN_POSITIVE;

    /// Core loop; returns iterations executed.
    ///
    /// Each iteration mirrors the paper's simultaneous update of Eqs. 6, 8
    /// and 9: first the ink sitting at hubs (still part of `r_{t−1}` and of
    /// `‖r‖₁` — this is what makes Figure 2's `‖r₄‖ = 0.36` come out) is
    /// swept into `s`; then the frontier chosen from `r_{t−1}` retains `α`
    /// and pushes `1−α`, with pushes *into* hubs landing back in `r` to be
    /// swept next iteration. The loop runs on split borrows of the engine's
    /// fields, with the running norm, the work counters and `w`'s count in
    /// locals.
    fn iterate(&mut self, transition: &TransitionMatrix<'_>, stop: &BcaStop) -> u32 {
        let stop_norm = stop.residue_norm.max(Self::RESIDUE_FLOOR);
        let eta = self.params.propagation_threshold;
        let alpha = self.params.alpha;
        let mut norm = self.residue_norm;
        let (mut executed, mut propagations, mut pushes) = (0u32, 0u64, 0u64);
        let mut retained_count = self.retained_count;
        let Self { hubs, residue, retained, hub_ink, support, frontier, .. } = self;
        while executed < stop.max_iterations && norm > stop_norm {
            // Eq. 6: s_t = Σ_{i∈H} r_{t−1}(i)·e_i + s_{t−1}, removing the
            // swept ink from the residue — which also leaves every hub slot
            // at zero, out of the selection below.
            let mut swept = false;
            for &(slot, hub) in &residue.hub_slots {
                let v = residue.vals[slot as usize];
                if v > 0.0 {
                    hub_ink[hub as usize] += v;
                    residue.vals[slot as usize] = 0.0;
                    norm -= v;
                    swept = true;
                }
            }

            // The batch frontier `L_t = {v ∉ H : r_{t−1}(v) ≥ η}` (Eqs. 8–9),
            // in touch order. Sub-η regime: the paper's analysis stops
            // refining "until the maximum residue drops below η" (Thm. 3),
            // but deciding borderline candidates *exactly* needs tighter
            // bounds. Batch every node above half the maximum residue — the
            // maximum itself always among them — so the residual keeps
            // decaying geometrically instead of draining one node at a time.
            //
            // Phase 1 (Eq. 9, second term): the frontier's residue leaves
            // `r` as it is collected, *before* any pushes, so this iteration
            // uses r_{t−1} throughout.
            frontier.clear();
            let rmax = residue.largest();
            if rmax > 0.0 {
                // `rmax / 2` can underflow to 0 once the residue reaches the
                // denormal floor; the collect's `v > 0` keeps zero-valued
                // slots (no-op pushes, withdrawn nodes, the hubs just swept)
                // out of the frontier.
                let threshold = if rmax >= eta { eta } else { rmax / 2.0 };
                residue.take_frontier(threshold, frontier, &mut norm);
            } else if !swept {
                // No residue at all and nothing parked at hubs: whatever the
                // running norm still reads is accumulated rounding, not ink.
                norm = 0.0;
                break;
            }

            // Phase 2 (Eqs. 8, 9 first term): retain α, push 1−α. Pushes to
            // hubs stay in `r` until next iteration's sweep.
            for &(slot, rv) in frontier.iter() {
                let v = residue.ids[slot as usize];
                let w = &mut retained[v as usize];
                retained_count += usize::from(*w == 0.0);
                *w += alpha * rv;
                let spill = (1.0 - alpha) * rv;
                let (targets, probs) = transition.out_edges(v);
                for (&t, &p) in targets.iter().zip(probs) {
                    let amount = spill * p;
                    residue.add(t, amount, hubs, support);
                    norm += amount;
                }
                pushes += targets.len() as u64;
            }
            propagations += frontier.len() as u64;
            executed += 1;
            // Guard against accumulated floating error pushing the norm
            // slightly negative near exhaustion.
            if norm < 0.0 {
                norm = 0.0;
            }
        }
        self.residue_norm = norm;
        self.work.iterations += executed;
        self.work.propagations += propagations;
        self.work.pushes += pushes;
        self.retained_count = retained_count;
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::proximity_matrix_dense;
    use crate::params::RwrParams;
    use crate::power::proximity_from;
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};

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

    fn exhaustive_stop() -> BcaStop {
        BcaStop { residue_norm: 1e-12, max_iterations: 1_000_000 }
    }

    #[test]
    fn conservation_invariant_holds_throughout() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let mut engine = BcaEngine::new(hubs, BcaParams::default());
        let mut snap = engine.run_from(&t, 3, &BcaStop { residue_norm: 0.5, max_iterations: 1 });
        for _ in 0..20 {
            let total = snap.residue_norm() + snap.settled_mass();
            assert!((total - 1.0).abs() < 1e-12, "mass leaked: {total}");
            engine.advance(&t, &BcaStop::one_iteration());
            snap = engine.snapshot();
        }
    }

    #[test]
    fn no_hub_bca_converges_to_power_method() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::exhaustive(0.15));
        for u in 0..6u32 {
            let snap = engine.run_from(&t, u, &exhaustive_stop());
            let (pm, _) = proximity_from(&t, u, &RwrParams::default());
            let w = snap.retained.to_dense(6);
            for v in 0..6 {
                assert!((w[v] - pm[v]).abs() < 1e-8, "u={u} v={v}: {} vs {}", w[v], pm[v]);
            }
            assert!(snap.hub_ink.is_empty());
        }
    }

    #[test]
    fn hub_materialization_recovers_exact_proximity() {
        // w + Σ_h s(h)·p_h must equal p_u when BCA runs to exhaustion.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let exact = proximity_matrix_dense(&t, 0.15);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let mut engine = BcaEngine::new(hubs, BcaParams::exhaustive(0.15));
        for u in 2..6u32 {
            let snap = engine.run_from(&t, u, &exhaustive_stop());
            let mut p = snap.retained.to_dense(6);
            for (h, sh) in snap.hub_ink.iter() {
                for v in 0..6 {
                    p[v] += sh * exact[h as usize][v];
                }
            }
            for v in 0..6 {
                assert!(
                    (p[v] - exact[u as usize][v]).abs() < 1e-8,
                    "u={u} v={v}: {} vs {}",
                    p[v],
                    exact[u as usize][v]
                );
            }
        }
    }

    #[test]
    fn source_at_hub_parks_everything() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let mut engine = BcaEngine::new(hubs, BcaParams::default());
        let snap = engine.run_from(&t, 1, &BcaStop::from_params(&BcaParams::default()));
        assert_eq!(snap.hub_ink.get(1), 1.0);
        assert!(snap.residue.is_empty());
        assert!(snap.retained.is_empty());
        assert_eq!(snap.residue_norm(), 0.0);
    }

    #[test]
    fn retained_ink_is_monotone_under_refinement() {
        // Prop. 1: every entry of w (and s) only grows with more iterations.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![1]);
        let mut engine = BcaEngine::new(hubs, BcaParams::default());
        let snap = engine.run_from(&t, 2, &BcaStop { residue_norm: 0.9, max_iterations: 1 });
        let mut prev_w = snap.retained.to_dense(6);
        let mut prev_s = snap.hub_ink.to_dense(6);
        for _ in 0..15 {
            engine.advance(&t, &BcaStop::one_iteration());
            let snap = engine.snapshot();
            let w = snap.retained.to_dense(6);
            let s = snap.hub_ink.to_dense(6);
            for v in 0..6 {
                assert!(w[v] >= prev_w[v] - 1e-15, "w({v}) shrank");
                assert!(s[v] >= prev_s[v] - 1e-15, "s({v}) shrank");
            }
            prev_w = w;
            prev_s = s;
        }
    }

    #[test]
    fn residue_norm_shrinks_every_iteration() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::default());
        let snap = engine.run_from(&t, 0, &BcaStop { residue_norm: 0.99, max_iterations: 1 });
        let mut prev = snap.residue_norm();
        for _ in 0..10 {
            engine.advance(&t, &BcaStop::one_iteration());
            let cur = engine.snapshot().residue_norm();
            assert!(cur < prev, "residue should strictly shrink: {cur} vs {prev}");
            prev = cur;
        }
    }

    #[test]
    fn stop_rule_residue_threshold_is_respected() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::default());
        let snap = engine.run_from(&t, 0, &BcaStop { residue_norm: 0.3, max_iterations: 10_000 });
        assert!(snap.residue_norm() <= 0.3);
        // ... but not absurdly small: BCA stops as soon as the rule is met.
        assert!(snap.residue_norm() > 1e-6);
    }

    #[test]
    fn resume_equals_uninterrupted_run_for_batch() {
        // Batch propagation is deterministic, so running 2 iterations then 3
        // must equal running 5 straight.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = BcaParams::default();
        fn mk(params: BcaParams) -> BcaEngine {
            BcaEngine::new(HubSet::from_ids(6, vec![1]), params)
        }
        let stored = mk(params).run_from(&t, 2, &BcaStop { residue_norm: 0.0, max_iterations: 2 });
        let mut resumed = mk(params);
        resumed.load(&stored);
        resumed.advance(&t, &BcaStop { residue_norm: 0.0, max_iterations: 3 });
        let spliced = resumed.snapshot();
        let straight =
            mk(params).run_from(&t, 2, &BcaStop { residue_norm: 0.0, max_iterations: 5 });
        assert_eq!(spliced.iterations, straight.iterations);
        let (a, b) = (spliced.retained.to_dense(6), straight.retained.to_dense(6));
        for v in 0..6 {
            assert!((a[v] - b[v]).abs() < 1e-15);
        }
        assert_eq!(spliced.residue, straight.residue);
    }

    #[test]
    fn a_resident_computation_advances_as_one_uninterrupted_run() {
        // No store and reload between runs: 2 + 3 iterations on the resident
        // state are bitwise the 5 of a straight run, and a loaded snapshot
        // reads back unchanged.
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mk = || BcaEngine::new(HubSet::from_ids(6, vec![1]), BcaParams::default());
        let steps = |n| BcaStop { residue_norm: 0.0, max_iterations: n };
        let straight = mk().run_from(&t, 2, &steps(5));
        let mut engine = mk();
        let after_two = engine.run_from(&t, 2, &steps(2));
        assert_eq!(engine.advance(&t, &steps(3)), 3);
        assert_eq!(engine.snapshot(), straight);
        assert!((engine.residue_norm() - straight.residue_norm()).abs() < 1e-15);

        engine.load(&after_two);
        assert_eq!(engine.snapshot(), after_two);
        assert_eq!(engine.residue_norm(), after_two.residue_norm());
        // A stop rule that is already met runs nothing and changes nothing.
        assert_eq!(engine.advance(&t, &BcaStop { residue_norm: 1.0, max_iterations: 9 }), 0);
        assert_eq!(engine.snapshot(), after_two);
    }

    #[test]
    fn work_counters_accumulate() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::default());
        engine.run_from(&t, 0, &BcaStop { residue_norm: 0.1, max_iterations: 100 });
        let w = engine.work();
        assert!(w.iterations > 0 && w.propagations > 0 && w.pushes > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_source() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut engine = BcaEngine::new(HubSet::empty(6), BcaParams::default());
        engine.run_from(&t, 6, &BcaStop::one_iteration());
    }

    /// The engine as it was before the residue became touch-ordered, kept as
    /// the reference the touch-ordered one must equal bit for bit: `r`,
    /// `w` and `s` indexed by node, `w` and `s` cleared whole, one pass over
    /// the whole touched list through a hub lookup picking the hubs to
    /// sweep, the η-frontier and the largest residue (ties to the smaller
    /// id), and a second pass once sub-η.
    struct ReferenceEngine {
        hubs: HubSet,
        params: BcaParams,
        residue: Vec<f64>,
        seen: Vec<bool>,
        touched: Vec<u32>,
        retained: Vec<f64>,
        hub_ink: Vec<f64>,
        residue_norm: f64,
        source: u32,
        iterations: u32,
        work: BcaWork,
    }

    impl ReferenceEngine {
        fn new(hubs: HubSet, params: BcaParams) -> Self {
            let n = hubs.node_count();
            Self {
                hubs,
                params,
                residue: vec![0.0; n],
                seen: vec![false; n],
                touched: Vec::new(),
                retained: vec![0.0; n],
                hub_ink: vec![0.0; n],
                residue_norm: 0.0,
                source: 0,
                iterations: 0,
                work: BcaWork::default(),
            }
        }

        fn add_residue(&mut self, i: u32, delta: f64) {
            if self.seen[i as usize] {
                self.residue[i as usize] += delta;
            } else {
                self.seen[i as usize] = true;
                self.residue[i as usize] = delta;
                self.touched.push(i);
            }
        }

        fn clear(&mut self) {
            for &i in &self.touched {
                self.seen[i as usize] = false;
                self.residue[i as usize] = 0.0;
            }
            self.touched.clear();
            self.retained.fill(0.0);
            self.hub_ink.fill(0.0);
            self.residue_norm = 0.0;
            self.iterations = 0;
        }

        fn start(&mut self, source: u32) {
            self.clear();
            self.source = source;
            self.add_residue(source, 1.0);
            self.residue_norm = 1.0;
        }

        fn load(&mut self, snapshot: &BcaSnapshot) {
            self.clear();
            self.source = snapshot.source;
            self.iterations = snapshot.iterations;
            for (i, v) in snapshot.residue.iter() {
                self.add_residue(i, 1.0 * v);
            }
            for (i, v) in snapshot.retained.iter() {
                self.retained[i as usize] = v;
            }
            for (i, v) in snapshot.hub_ink.iter() {
                self.hub_ink[i as usize] = v;
            }
            self.residue_norm = snapshot.residue.sum();
        }

        fn snapshot(&self) -> BcaSnapshot {
            let residue = self.touched.iter().map(|&i| (i, self.residue[i as usize]));
            BcaSnapshot {
                source: self.source,
                iterations: self.iterations,
                residue: SparseVector::from_unsorted(residue.filter(|&(_, v)| v != 0.0).collect()),
                retained: SparseVector::from_dense(&self.retained, 0.0),
                hub_ink: SparseVector::from_dense(&self.hub_ink, 0.0),
            }
        }

        fn advance(&mut self, transition: &TransitionMatrix<'_>, stop: &BcaStop) -> u32 {
            let mut executed = 0u32;
            let mut frontier: Vec<(u32, f64)> = Vec::new();
            let mut swept: Vec<u32> = Vec::new();
            let stop_norm = stop.residue_norm.max(BcaEngine::RESIDUE_FLOOR);
            let eta = self.params.propagation_threshold;
            while executed < stop.max_iterations && self.residue_norm > stop_norm {
                swept.clear();
                frontier.clear();
                let mut largest: Option<(u32, f64)> = None;
                for &i in &self.touched {
                    let v = self.residue[i as usize];
                    if v <= 0.0 {
                        continue;
                    }
                    if self.hubs.contains(i) {
                        swept.push(i);
                        continue;
                    }
                    if v >= eta {
                        frontier.push((i, v));
                    }
                    match largest {
                        Some((bi, bv)) if bv > v || (bv == v && bi < i) => {}
                        _ => largest = Some((i, v)),
                    }
                }

                let mut progressed = !swept.is_empty();
                for &i in &swept {
                    let v = self.residue[i as usize];
                    self.hub_ink[i as usize] += v;
                    self.residue[i as usize] = 0.0;
                    self.residue_norm -= v;
                }

                if frontier.is_empty() {
                    if let Some((_, rmax)) = largest {
                        let adaptive = rmax / 2.0;
                        for &i in &self.touched {
                            let v = self.residue[i as usize];
                            if v >= adaptive && v > 0.0 {
                                frontier.push((i, v));
                            }
                        }
                    }
                }
                if frontier.is_empty() && !progressed {
                    match largest {
                        // The single-largest fallback (ties to the smaller
                        // id) this loop used to carry: `rmax ≥ rmax / 2`, so
                        // the pass above has always taken the largest.
                        Some(_) => unreachable!("the largest residue is in its own batch"),
                        None => {
                            self.residue_norm = 0.0;
                            break;
                        }
                    }
                }

                for &(v, rv) in &frontier {
                    self.residue[v as usize] = 0.0;
                    self.residue_norm -= rv;
                }
                let alpha = self.params.alpha;
                for &(v, rv) in &frontier {
                    self.retained[v as usize] += alpha * rv;
                    let spill = (1.0 - alpha) * rv;
                    let (targets, probs) = transition.out_edges(v);
                    for (&t, &p) in targets.iter().zip(probs) {
                        let amount = spill * p;
                        self.add_residue(t, amount);
                        self.residue_norm += amount;
                    }
                    self.work.pushes += targets.len() as u64;
                }
                progressed |= !frontier.is_empty();
                if !progressed {
                    break;
                }
                self.work.propagations += frontier.len() as u64;
                executed += 1;
                if self.residue_norm < 0.0 {
                    self.residue_norm = 0.0;
                }
            }
            self.work.iterations += executed;
            self.iterations += executed;
            executed
        }
    }

    /// A snapshot down to the bits of every value (`==` on `f64` would let
    /// `0.0` pass for `-0.0`).
    fn bits(snapshot: &BcaSnapshot) -> (u32, u32, [Vec<(u32, u64)>; 3]) {
        let of = |v: &SparseVector| v.iter().map(|(i, x)| (i, x.to_bits())).collect::<Vec<_>>();
        (
            snapshot.source,
            snapshot.iterations,
            [of(&snapshot.residue), of(&snapshot.retained), of(&snapshot.hub_ink)],
        )
    }

    fn assert_same_state(engine: &BcaEngine, reference: &ReferenceEngine, context: &str) {
        assert_eq!(bits(&engine.snapshot()), bits(&reference.snapshot()), "{context}: snapshot");
        assert_eq!(
            engine.residue_norm().to_bits(),
            reference.residue_norm.to_bits(),
            "{context}: running norm"
        );
        assert_eq!(engine.work(), reference.work, "{context}: work");
    }

    /// Steps both engines — which must hold the same computation — one
    /// iteration at a time until `stop`, comparing after **every** iteration.
    /// Returns the iterations run.
    fn lockstep(
        engine: &mut BcaEngine,
        reference: &mut ReferenceEngine,
        t: &TransitionMatrix<'_>,
        stop: &BcaStop,
        context: &str,
    ) -> u32 {
        let step = BcaStop { residue_norm: stop.residue_norm, max_iterations: 1 };
        let mut ran = 0;
        assert_same_state(engine, reference, context);
        while ran < stop.max_iterations {
            let executed = engine.advance(t, &step);
            assert_eq!(executed, reference.advance(t, &step), "{context}: iteration {ran}");
            assert_same_state(engine, reference, &format!("{context}: iteration {ran}"));
            if executed == 0 {
                break;
            }
            ran += 1;
        }
        ran
    }

    fn pair(hubs: &HubSet, params: BcaParams) -> (BcaEngine, ReferenceEngine) {
        (BcaEngine::new(hubs.clone(), params), ReferenceEngine::new(hubs.clone(), params))
    }

    /// Injects the unit of ink at `source` in both engines and runs nothing.
    fn start(
        engine: &mut BcaEngine,
        reference: &mut ReferenceEngine,
        t: &TransitionMatrix<'_>,
        source: u32,
    ) {
        engine.run_from(t, source, &BcaStop { residue_norm: 0.0, max_iterations: 0 });
        reference.start(source);
    }

    #[test]
    fn touch_ordered_engine_equals_the_node_indexed_reference_every_iteration() {
        use rtk_graph::gen::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
        let graphs = [
            toy(),
            erdos_renyi(&ErdosRenyiConfig { nodes: 120, edges: 700, seed: 4 }).unwrap(),
            rmat(&RmatConfig::new(300, 1_800, 9)).unwrap(),
        ];
        // The build's η, and one no residue can reach: every iteration of
        // that run batches at half the maximum.
        let etas = [BcaParams::default().propagation_threshold, 2.0];
        let stop = BcaStop { residue_norm: 1e-9, max_iterations: 400 };
        let mut sub_eta_iterations = 0;
        for (gi, g) in graphs.iter().enumerate() {
            let t = TransitionMatrix::new(g);
            let n = g.node_count();
            let degree_hubs = HubSet::degree_based(g, 4);
            assert!(!degree_hubs.is_empty());
            for hubs in [HubSet::empty(n), degree_hubs] {
                // A hub source (when there is one) and a spread of others.
                let mut sources: Vec<u32> = hubs.ids().iter().take(1).copied().collect();
                sources.extend((0..n as u32).step_by(n / 5));
                for eta in etas {
                    let params = BcaParams { propagation_threshold: eta, ..Default::default() };
                    let (mut engine, mut reference) = pair(&hubs, params);
                    for &u in &sources {
                        let context =
                            format!("graph {gi}, {} hubs, η = {eta}, u = {u}", hubs.len());
                        start(&mut engine, &mut reference, &t, u);
                        let ran = lockstep(&mut engine, &mut reference, &t, &stop, &context);
                        assert!(ran > 0, "{context}: nothing ran");
                        if eta > 1.0 {
                            sub_eta_iterations += ran;
                        }
                    }
                }
            }
        }
        assert!(sub_eta_iterations > 1_000, "test premise: {sub_eta_iterations} sub-η iterations");
    }

    #[test]
    fn an_exact_tie_at_the_largest_residue_batches_both_nodes() {
        // 0 → {1, 2} in equal parts, sub-η throughout: after one iteration
        // r(1) = r(2) exactly. Half the maximum takes both (in touch order),
        // so no tie is ever left to break — the reference panics if its
        // single-largest fallback is reached.
        let g = GraphBuilder::from_edges(
            4,
            &[(0, 2), (0, 1), (1, 3), (2, 3), (3, 0)],
            DanglingPolicy::Error,
        )
        .unwrap();
        let t = TransitionMatrix::new(&g);
        let params = BcaParams { propagation_threshold: 2.0, ..Default::default() };
        let (mut engine, mut reference) = pair(&HubSet::empty(4), params);
        start(&mut engine, &mut reference, &t, 0);
        let one = BcaStop::one_iteration();
        assert_eq!(lockstep(&mut engine, &mut reference, &t, &one, "first"), 1);
        let r = engine.snapshot().residue;
        assert_eq!(r.get(1).to_bits(), r.get(2).to_bits(), "test premise: an exact tie");
        let before = engine.work().propagations;
        assert_eq!(lockstep(&mut engine, &mut reference, &t, &one, "tied"), 1);
        assert_eq!(engine.work().propagations - before, 2, "both tied nodes propagate");
        assert_eq!(engine.snapshot().residue.indices(), &[3]);
        let many = BcaStop { residue_norm: 1e-12, max_iterations: 500 };
        lockstep(&mut engine, &mut reference, &t, &many, "to exhaustion");
    }

    #[test]
    fn denormal_residue_on_a_certain_cycle_ends_the_run() {
        // 0 → 1 → 0 with probability 1: at the denormal minimum `0.85·r`
        // rounds back up to `r`, so only the floor on `‖r‖₁` ends the run.
        let g =
            GraphBuilder::from_edges(3, &[(0, 1), (1, 0), (2, 0)], DanglingPolicy::Error).unwrap();
        let t = TransitionMatrix::new(&g);
        let to_the_floor = BcaStop { residue_norm: 0.0, max_iterations: 100_000 };
        let (mut engine, mut reference) = pair(&HubSet::empty(3), BcaParams::default());
        start(&mut engine, &mut reference, &t, 0);
        let ran = lockstep(&mut engine, &mut reference, &t, &to_the_floor, "cycle");
        assert!(ran > 4_000 && ran < 5_000, "0.85^t reaches 2.2e-308 after ~4 360 steps: {ran}");
        assert!(engine.residue_norm() <= f64::MIN_POSITIVE);

        let tiny = f64::from_bits(1);
        let stalled = BcaSnapshot {
            source: 0,
            iterations: 7,
            residue: SparseVector::from_parts(vec![0, 1], vec![tiny, tiny]),
            retained: SparseVector::from_parts(vec![0], vec![0.5]),
            hub_ink: SparseVector::new(),
        };
        engine.load(&stalled);
        reference.load(&stalled);
        assert_eq!(lockstep(&mut engine, &mut reference, &t, &to_the_floor, "stalled"), 0);

        // Half the denormal minimum is zero: with a hub's ink keeping the
        // norm above the floor, the zero threshold must not let the slot of
        // the hub just swept (or any other zero) into the frontier.
        let hubs = HubSet::from_ids(3, vec![2]);
        let (mut engine, mut reference) = pair(&hubs, BcaParams::default());
        let underflow = BcaSnapshot {
            source: 0,
            iterations: 3,
            residue: SparseVector::from_parts(vec![0, 1, 2], vec![tiny, 0.0, 1e-300]),
            retained: SparseVector::new(),
            hub_ink: SparseVector::new(),
        };
        engine.load(&underflow);
        reference.load(&underflow);
        let before = engine.work().propagations;
        let ran = lockstep(&mut engine, &mut reference, &t, &BcaStop::one_iteration(), "underflow");
        assert_eq!((ran, engine.work().propagations - before), (1, 1), "node 0 alone propagates");
        assert_eq!(engine.snapshot().hub_ink.get(2), 1e-300);
    }

    #[test]
    fn load_then_advance_splices_equal_the_reference() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(300, 1_800, 9)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 4);
        let (mut engine, mut reference) = pair(&hubs, BcaParams::default());
        let (mut loaded, mut loaded_reference) = pair(&hubs, BcaParams::default());
        let steps = |n| BcaStop { residue_norm: 0.0, max_iterations: n };
        for u in [1u32, 50, 299] {
            start(&mut engine, &mut reference, &t, u);
            for (cut, more) in [(1, 2), (3, 5), (4, 30)] {
                lockstep(&mut engine, &mut reference, &t, &steps(cut), "straight");
                // The stored state resumes in a second engine — slots in id
                // order there, in touch order here — as it does in the first.
                let stored = engine.snapshot();
                loaded.load(&stored);
                loaded_reference.load(&stored);
                assert_eq!(bits(&loaded.snapshot()), bits(&stored), "u={u}: load round-trips");
                assert_eq!(loaded.residue_norm().to_bits(), stored.residue_norm().to_bits());
                lockstep(&mut loaded, &mut loaded_reference, &t, &steps(more), "spliced");
            }
        }
    }

    #[test]
    fn one_engine_reused_across_a_thousand_sources_starts_each_from_nothing() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(1_000, 6_000, 42)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 10);
        let params = BcaParams::default();
        let stop = BcaStop::from_params(&params);
        let (mut engine, mut reference) = pair(&hubs, params);
        for u in 0..1_000u32 {
            let snapshot = engine.run_from(&t, u, &stop);
            reference.start(u);
            reference.advance(&t, &stop);
            assert_eq!(bits(&snapshot), bits(&reference.snapshot()), "u={u}");
            assert_same_state(&engine, &reference, &format!("u={u}"));
            // And from nothing means the same as a fresh engine's run.
            if u % 97 == 0 {
                let fresh = BcaEngine::new(hubs.clone(), params).run_from(&t, u, &stop);
                assert_eq!(bits(&snapshot), bits(&fresh), "u={u}: fresh engine");
            }
        }
    }

    /// A graph over `n` nodes where every node has two out-edges, so any
    /// residue support can be loaded and pushed.
    fn two_out_ring(n: u32) -> DiGraph {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| [(u, (u + 1) % n), (u, (u * 7 + 3) % n)])
            .filter(|&(u, v)| u != v)
            .collect();
        GraphBuilder::from_edges(n as usize, &edges, DanglingPolicy::Error).unwrap()
    }

    #[test]
    fn the_mask_and_the_walk_equal_the_reference_at_their_word_edges() {
        // Snapshots whose residue fills exactly 0, 1, 63, 64, 65, 128 or
        // 129 slots at the first collect (a load gives slots in id order),
        // the largest residue in the last slot; ids 0, 63, 64, 127 and
        // n − 1 in every support that is large enough to hold them; and
        // `w`, `s` entries on nodes with no residue at all.
        let n = 200u32;
        let g = two_out_ring(n);
        let t = TransitionMatrix::new(&g);
        let edges = [0u32, 63, 64, 127, n - 1];
        let hubs = HubSet::from_ids(n as usize, vec![5, 64, 130]);
        for eta in [BcaParams::default().propagation_threshold, 2.0] {
            let params = BcaParams { propagation_threshold: eta, ..Default::default() };
            for touched in [0usize, 1, 63, 64, 65, 128, 129] {
                let mut support: Vec<u32> = edges.iter().copied().take(touched).collect();
                support.extend((0..n).filter(|u| !edges.contains(u)).take(touched - support.len()));
                support.sort_unstable();
                // Every third slot below `η` and below half the maximum, the
                // rest above both; the last slot holds the maximum.
                let unit = 0.5 / (touched.max(1) as f64 * 3.0);
                let mut values: Vec<f64> =
                    (0..touched).map(|i| [5e-5, unit * 2.0, unit * 3.0][i % 3]).collect();
                if let Some(last) = values.last_mut() {
                    *last = unit * 4.0;
                }
                // Retained and parked ink off the residue's support.
                let spare: Vec<u32> = (0..n).filter(|u| !support.contains(u)).collect();
                let retained: Vec<u32> =
                    spare.iter().copied().filter(|u| !hubs.contains(*u)).take(70).collect();
                let parked: Vec<u32> =
                    hubs.ids().iter().copied().filter(|h| spare.contains(h)).collect();
                let loaded = BcaSnapshot {
                    source: support.first().copied().unwrap_or(0),
                    iterations: 2,
                    residue: SparseVector::from_parts(support.clone(), values),
                    retained: SparseVector::from_parts(
                        retained.clone(),
                        vec![1e-3; retained.len()],
                    ),
                    hub_ink: SparseVector::from_parts(parked.clone(), vec![2e-3; parked.len()]),
                };
                let context = format!("η = {eta}, {touched} touched slots");
                let (mut engine, mut reference) = pair(&hubs, params);
                engine.load(&loaded);
                reference.load(&loaded);
                assert_eq!(bits(&engine.snapshot()), bits(&loaded), "{context}: load round-trips");
                let stop = BcaStop { residue_norm: 0.0, max_iterations: 6 };
                let ran = lockstep(&mut engine, &mut reference, &t, &stop, &context);
                assert_eq!(ran, if touched == 0 { 0 } else { 6 }, "{context}");
                if touched >= edges.len() {
                    let first = bits(&reference.snapshot());
                    let held: Vec<u32> = first.2.iter().flatten().map(|&(i, _)| i).collect();
                    assert!(edges.iter().all(|e| held.contains(e)), "{context}: test premise");
                }
            }
        }
    }

    #[test]
    fn an_engine_after_a_large_run_emits_nothing_stale_for_a_small_one() {
        // The toy on nodes 0..6 beside a 1k-node R-MAT on 6..1006 that it
        // never reaches: runs and loads of either, in turn, on one engine
        // each equal the reference's and a fresh engine's, and a toy state
        // holds toy nodes only — whatever the R-MAT runs marked before.
        // `w` and `s` are cleared at the support bits only, so ink at a node
        // whose bit was never set, or that clearing skipped, would surface
        // in a later state as a wrong value. Two runs from the last node
        // put `w` on the last word too.
        let rmat =
            rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(1_000, 6_000, 42)).unwrap();
        let mut edges: Vec<(u32, u32)> = toy().edges().map(|(u, v, _)| (u, v)).collect();
        edges.extend(rmat.edges().map(|(u, v, _)| (u + 6, v + 6)));
        let g = GraphBuilder::from_edges(1_006, &edges, DanglingPolicy::SelfLoop).unwrap();
        let t = TransitionMatrix::new(&g);
        let mut hub_ids = vec![1];
        hub_ids.extend(HubSet::degree_based(&rmat, 1).ids().iter().map(|&h| h + 6));
        let hubs = HubSet::from_ids(1_006, hub_ids);
        let params = BcaParams::default();
        let stop = BcaStop { residue_norm: 1e-3, max_iterations: 100 };
        let (mut engine, mut reference) = pair(&hubs, params);
        let mut stored = Vec::new();
        let last = 1_005;
        for u in [7u32, 2, last, 56, 3, 4, 106, 0, 5, last] {
            let snapshot = engine.run_from(&t, u, &stop);
            reference.start(u);
            reference.advance(&t, &stop);
            let context = format!("u = {u}");
            assert_same_state(&engine, &reference, &context);
            let fresh = BcaEngine::new(hubs.clone(), params).run_from(&t, u, &stop);
            assert_eq!(bits(&snapshot), bits(&fresh), "{context}: fresh engine");
            if u < 6 {
                let held = [&snapshot.residue, &snapshot.retained, &snapshot.hub_ink];
                assert!(held.iter().all(|v| v.indices().iter().all(|&i| i < 6)), "{context}");
            } else if u == last {
                assert!(snapshot.retained.get(last) > 0.0, "{context}: test premise");
            } else {
                let held = snapshot.residue.nnz() + snapshot.retained.nnz();
                assert!(held > 500, "{context}: test premise, most words marked ({held})");
            }
            stored.push(snapshot);
        }
        // Loads in turn, large and small, each advanced a little.
        for snapshot in stored.iter().rev().chain(&stored) {
            engine.load(snapshot);
            reference.load(snapshot);
            let context = format!("loaded u = {}", snapshot.source);
            assert_eq!(bits(&engine.snapshot()), bits(snapshot), "{context}: load round-trips");
            let more = BcaStop { residue_norm: 0.0, max_iterations: 3 };
            lockstep(&mut engine, &mut reference, &t, &more, &context);
        }
    }
}
