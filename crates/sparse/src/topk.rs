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
///
/// `O(n)` average via quickselect plus `O(k log k)` for the final sort —
/// this runs once per index-column materialization and once per query-time
/// refinement iteration, so it must not degrade to `O(n·k)`.
pub fn top_k_of_pairs<I>(pairs: I, k: usize) -> Vec<(u32, f64)>
where
    I: IntoIterator<Item = (u32, f64)>,
{
    if k == 0 {
        return Vec::new();
    }
    let mut all: Vec<(u32, f64)> = pairs.into_iter().collect();
    debug_assert!(all.iter().all(|&(_, v)| v.is_finite()), "top_k_of_pairs: non-finite value");
    let truncated = all.len() > k;
    select_top_k(&mut all, k);
    if truncated {
        // The result is retained long-term (index columns, thresholds);
        // dropping the selection buffer's excess capacity keeps memory
        // accounting honest.
        all.shrink_to_fit();
    }
    all
}

/// [`top_k_of_pairs`] in place: reduces `pairs` to its `k` largest entries,
/// descending by value, ties broken by smaller index. The buffer keeps its
/// capacity, so a caller can reuse it across selections.
pub fn select_top_k(pairs: &mut Vec<(u32, f64)>, k: usize) {
    #[inline]
    fn by_value_desc(a: &(u32, f64), b: &(u32, f64)) -> std::cmp::Ordering {
        b.1.partial_cmp(&a.1).expect("top_k_of_pairs: NaN value").then(a.0.cmp(&b.0))
    }
    if k == 0 {
        pairs.clear();
    } else if pairs.len() > k {
        pairs.select_nth_unstable_by(k - 1, by_value_desc);
        pairs.truncate(k);
    }
    pairs.sort_unstable_by(by_value_desc);
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
            let mut buffer: Vec<(u32, f64)> =
                vals.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect();
            select_top_k(&mut buffer, k);
            assert_eq!(buffer, reference);
        }
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
