//! Top-K selection and maintenance.
//!
//! The offline index stores, for every node, the `K` largest entries of its
//! lower-bound proximity vector in descending order (`p̂_u(1:K)`, paper
//! §4.1.2). These helpers select that list from dense or sparse data and keep
//! it in descending order with ties broken by smaller index (deterministic
//! across thread counts and platforms).

/// Selects the `k` largest `(index, value)` pairs from a dense slice,
/// descending by value, ties broken by smaller index.
pub fn top_k_of_dense(dense: &[f64], k: usize) -> Vec<(u32, f64)> {
    top_k_of_pairs(dense.iter().enumerate().map(|(i, &v)| (i as u32, v)), k)
}

/// Selects the `k` largest pairs from an arbitrary stream, descending by
/// value, ties broken by smaller index. Zero and negative values are kept
/// (callers filter beforehand when undesired); `k = 0` yields an empty list.
/// One [`TopKSelection`] per call; a caller selecting repeatedly keeps its
/// own.
pub fn top_k_of_pairs<I>(pairs: I, k: usize) -> Vec<(u32, f64)>
where
    I: IntoIterator<Item = (u32, f64)>,
{
    let pairs = pairs.into_iter();
    let mut selection = TopKSelection { keys: Vec::with_capacity(pairs.size_hint().0) };
    for (i, v) in pairs {
        selection.push(i, v);
    }
    selection.select(k)
}

/// The one top-K selection: candidates are pushed as order keys into a
/// buffer that keeps its capacity across selections, then
/// [`Self::select`] returns the `k` largest, descending by value, ties by
/// smaller index.
///
/// A candidate `(i, v)` is kept as one `u128` whose ascending order is that
/// comparator's order: the top 64 bits are the complement of `v`'s
/// order-preserving image (the bits of a non-negative value with the sign
/// bit set, all bits of a negative one flipped), the next 32 are `i`, and
/// bit 0 records a `-0.0`. The comparator counts `-0.0` equal to `+0.0`, so
/// both take `+0.0`'s image and differ only in bit 0, which no two distinct
/// indices reach. A key sorts as a plain integer, the index rides along,
/// and the value comes back with its own bits, so every list is bitwise the
/// one the comparator picks. `O(n)` average via quickselect plus
/// `O(k log k)` for the final sort — this runs once per materialization of
/// an index column and per query-time refinement iteration.
#[derive(Clone, Debug, Default)]
pub struct TopKSelection {
    keys: Vec<u128>,
}

impl TopKSelection {
    /// Adds the candidate `(index, value)`.
    ///
    /// # Panics
    /// Panics if `value` is NaN.
    #[inline]
    pub fn push(&mut self, index: u32, value: f64) {
        assert!(!value.is_nan(), "top-K selection: NaN value");
        let negative_zero = value == 0.0 && value.is_sign_negative();
        let bits = if value == 0.0 { 0 } else { value.to_bits() };
        let image = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
        self.keys
            .push(u128::from(!image) << 64 | u128::from(index) << 32 | u128::from(negative_zero));
    }

    /// The `k` largest candidates, descending by value, ties broken by
    /// smaller index, as an exact-size list. Leaves the buffer empty (its
    /// capacity kept) for the next selection.
    pub fn select(&mut self, k: usize) -> Vec<(u32, f64)> {
        let keys = &mut self.keys;
        if keys.len() > k {
            if k == 0 {
                keys.clear();
            } else {
                keys.select_nth_unstable(k - 1);
                keys.truncate(k);
            }
        }
        keys.sort_unstable();
        let list = keys.iter().map(|&key| Self::entry(key)).collect();
        keys.clear();
        list
    }

    /// The candidate `key` was pushed for.
    #[inline]
    fn entry(key: u128) -> (u32, f64) {
        let image = !((key >> 64) as u64);
        let bits = if image >> 63 == 1 { image & !(1 << 63) } else { !image };
        let value = if key & 1 == 1 { -0.0 } else { f64::from_bits(bits) };
        ((key >> 32) as u32, value)
    }
}

/// A fixed-capacity descending top-K list of `(index, value)` pairs.
///
/// This is the in-memory representation of one column `p̂_u(1:K)` of the
/// index's lower-bound matrix. Values only ever *increase* across refinements
/// (Prop. 1 of the paper), so the list is rebuilt from the refined vector
/// rather than updated incrementally.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DescendingTopK {
    entries: Vec<(u32, f64)>,
    capacity: usize,
}

impl DescendingTopK {
    /// Creates an empty list with room for `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self { entries: Vec::new(), capacity }
    }

    /// Builds a list from already-selected descending entries.
    ///
    /// # Panics
    /// Panics if `entries` exceed `capacity` or are not descending by value.
    pub fn from_sorted(entries: Vec<(u32, f64)>, capacity: usize) -> Self {
        assert!(entries.len() <= capacity, "DescendingTopK: too many entries");
        for w in entries.windows(2) {
            assert!(w[0].1 >= w[1].1, "DescendingTopK: entries must be descending");
        }
        Self { entries, capacity }
    }

    /// Rebuilds the list from an arbitrary pair stream.
    pub fn rebuild<I: IntoIterator<Item = (u32, f64)>>(&mut self, pairs: I) {
        self.entries = top_k_of_pairs(pairs, self.capacity);
    }

    /// Maximum number of entries retained.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently stored entries (descending by value).
    #[inline]
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Number of stored entries (≤ capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k`-th largest stored value (1-based), or `0.0` when fewer than `k`
    /// entries exist — matching the paper's convention that absent proximities
    /// are zero lower bounds.
    ///
    /// # Panics
    /// Panics if `k` is zero or exceeds the capacity (a `k > K` query must be
    /// rejected before reaching the index).
    pub fn kth_value(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.capacity, "kth_value: k out of range");
        self.entries.get(k - 1).map_or(0.0, |&(_, v)| v)
    }

    /// The value stored for `index`, or 0.0.
    pub fn value_of(&self, index: u32) -> f64 {
        self.entries.iter().find(|&&(i, _)| i == index).map_or(0.0, |&(_, v)| v)
    }

    /// The first `k` values, zero-padded to exactly `k` entries — the
    /// staircase consumed by the upper-bound computation (Alg. 3).
    pub fn prefix_values(&self, k: usize) -> Vec<f64> {
        let mut out: Vec<f64> = self.entries.iter().take(k).map(|&(_, v)| v).collect();
        out.resize(k, 0.0);
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u32, f64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_largest_descending() {
        let v = [0.1, 0.9, 0.3, 0.7, 0.5];
        let top = top_k_of_dense(&v, 3);
        assert_eq!(top, vec![(1, 0.9), (3, 0.7), (4, 0.5)]);
    }

    #[test]
    fn k_larger_than_input_returns_all() {
        let top = top_k_of_dense(&[0.2, 0.1], 5);
        assert_eq!(top, vec![(0, 0.2), (1, 0.1)]);
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(top_k_of_dense(&[1.0], 0).is_empty());
    }

    #[test]
    fn ties_break_by_smaller_index() {
        let top = top_k_of_pairs(vec![(5, 0.5), (2, 0.5), (9, 0.5)], 2);
        assert_eq!(top, vec![(2, 0.5), (5, 0.5)]);
    }

    #[test]
    fn streaming_matches_sort_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = rng.gen_range(0..200);
            let vals: Vec<f64> = (0..n).map(|_| (rng.gen_range(0..50) as f64) / 10.0).collect();
            let k = rng.gen_range(0..20);
            let fast = top_k_of_dense(&vals, k);
            let mut reference: Vec<(u32, f64)> =
                vals.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect();
            reference.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            reference.truncate(k);
            assert_eq!(fast, reference);
            let mut selection = TopKSelection::default();
            for (i, &v) in vals.iter().enumerate() {
                selection.push(i as u32, v);
            }
            assert_eq!(selection.select(k), reference);
            assert!(selection.select(k).is_empty(), "a selection leaves the buffer empty");
        }
    }

    /// The keyed selection against a comparator sort (value descending with
    /// `-0.0 == +0.0`, then id ascending), bit for bit, on inputs built from
    /// a few distinct values — long runs of exact ties — with `±0.0`,
    /// negatives and infinities among them, ids shuffled, and `k` at every
    /// edge: 0, 1, 50, the length and one past it.
    #[test]
    fn keyed_selection_picks_bitwise_what_the_comparator_picks() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let palette = [
            0.0,
            -0.0,
            1.0,
            0.5,
            0.1 + 0.2,
            0.3,
            -0.25,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        let bits = |list: &[(u32, f64)]| -> Vec<(u32, u64)> {
            list.iter().map(|&(i, v)| (i, v.to_bits())).collect()
        };
        let mut rng = StdRng::seed_from_u64(40);
        let mut selection = TopKSelection::default();
        for round in 0..300 {
            let len = rng.gen_range(0..400usize);
            let distinct = rng.gen_range(1..=palette.len());
            let mut ids: Vec<u32> = (0..len as u32).map(|i| i * 3 + round).collect();
            for i in (1..len).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            let pairs: Vec<(u32, f64)> =
                ids.iter().map(|&i| (i, palette[rng.gen_range(0..distinct)])).collect();
            let mut reference = pairs.clone();
            reference.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            for k in [0, 1, 50, len, len + 1] {
                for &(i, v) in &pairs {
                    selection.push(i, v);
                }
                let picked = selection.select(k);
                let expected = &reference[..k.min(len)];
                let at = format!("round {round}, len {len}, k {k}");
                assert_eq!(bits(&picked), bits(expected), "{at}");
                assert_eq!(picked.capacity(), picked.len(), "{at}: exact-size list");
                assert_eq!(top_k_of_pairs(pairs.iter().copied(), k), picked, "{at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN value")]
    fn a_nan_candidate_is_refused() {
        TopKSelection::default().push(0, f64::NAN);
    }

    #[test]
    fn descending_topk_kth_value() {
        let t = DescendingTopK::from_sorted(vec![(4, 0.5), (1, 0.25)], 3);
        assert_eq!(t.kth_value(1), 0.5);
        assert_eq!(t.kth_value(2), 0.25);
        assert_eq!(t.kth_value(3), 0.0); // padded with zero
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn descending_topk_rejects_k_beyond_capacity() {
        let t = DescendingTopK::new(3);
        t.kth_value(4);
    }

    #[test]
    #[should_panic(expected = "descending")]
    fn from_sorted_rejects_ascending() {
        DescendingTopK::from_sorted(vec![(0, 0.1), (1, 0.2)], 4);
    }

    #[test]
    fn prefix_values_pads_with_zeros() {
        let t = DescendingTopK::from_sorted(vec![(0, 0.5)], 4);
        assert_eq!(t.prefix_values(3), vec![0.5, 0.0, 0.0]);
    }

    #[test]
    fn rebuild_replaces_entries() {
        let mut t = DescendingTopK::new(2);
        t.rebuild(vec![(0, 0.1), (1, 0.9), (2, 0.5)]);
        assert_eq!(t.entries(), &[(1, 0.9), (2, 0.5)]);
        assert_eq!(t.value_of(1), 0.9);
        assert_eq!(t.value_of(7), 0.0);
    }
}
