//! A compact sparse vector sorted by index.
//!
//! [`SparseVector`] is the storage format for every per-node piece of
//! Bookmark-Coloring state kept in the offline index: the residue ink `r_u`,
//! the retained non-hub ink `w_u` and the hub-accumulated ink `s_u` are all
//! sparse after the few iterations the index runs (paper §4.1.2), so storing
//! `(u32 index, f64 value)` pairs is what makes the index fit in memory.

/// A sparse vector of `f64` values over a `0..n` index space.
///
/// Invariants (enforced by constructors, relied on everywhere):
/// * indices are strictly increasing;
/// * stored values are finite and non-zero (zeros are pruned on compaction).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVector {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Creates an empty sparse vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sparse vector with a single entry `value` at `index`.
    pub fn unit(index: u32, value: f64) -> Self {
        Self { indices: vec![index], values: vec![value] }
    }

    /// Builds a sparse vector from parallel `(indices, values)` arrays.
    ///
    /// # Panics
    /// Panics if lengths differ, indices are not strictly increasing, or any
    /// value is non-finite.
    pub fn from_parts(indices: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(indices.len(), values.len(), "SparseVector: parallel array length mismatch");
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "SparseVector: indices must be strictly increasing");
        }
        assert!(values.iter().all(|v| v.is_finite()), "SparseVector: non-finite value");
        Self { indices, values }
    }

    /// Builds a sparse vector from `(index, value)` pairs in any order.
    ///
    /// # Panics
    /// As [`Self::from_parts`], once sorted: on a repeated index or a
    /// non-finite value.
    pub fn from_unsorted(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        // Exact-size collects: capacity is what `heap_bytes` accounts.
        Self::from_parts(
            pairs.iter().map(|&(i, _)| i).collect(),
            pairs.iter().map(|&(_, v)| v).collect(),
        )
    }

    /// Builds a sparse vector from the entries of `dense` whose absolute value
    /// exceeds `threshold` (use `0.0` to keep every non-zero entry).
    pub fn from_dense(dense: &[f64], threshold: f64) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 && v.abs() > threshold {
                indices.push(i as u32);
                values.push(v);
            }
        }
        Self { indices, values }
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The stored indices, strictly increasing.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored values, parallel to [`Self::indices`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value at `index` (0.0 when absent). `O(log nnz)`.
    pub fn get(&self, index: u32) -> f64 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// Sum of stored values (the L1 norm when all values are non-negative,
    /// which holds for every ink vector in this library).
    pub fn sum(&self) -> f64 {
        // `+ 0.0` normalizes the empty sum: `Sum for f64` folds from -0.0.
        self.values.iter().sum::<f64>() + 0.0
    }

    /// L1 norm `Σ|v|`.
    pub fn l1_norm(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum::<f64>() + 0.0
    }

    /// Materializes into a dense vector of length `n`.
    ///
    /// # Panics
    /// Panics if any index is `≥ n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for (i, v) in self.iter() {
            out[i as usize] = v;
        }
        out
    }

    /// Approximate heap footprint in bytes (used for index size accounting).
    pub fn heap_bytes(&self) -> usize {
        self.indices.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// Drops every entry with value `≤ threshold` (used by hub-matrix
    /// rounding, paper §4.1.3) and returns the total mass removed.
    pub fn round_below(&mut self, threshold: f64) -> f64 {
        let mut removed = 0.0;
        let mut keep_i = Vec::with_capacity(self.indices.len());
        let mut keep_v = Vec::with_capacity(self.values.len());
        for (i, v) in self.iter() {
            if v > threshold {
                keep_i.push(i);
                keep_v.push(v);
            } else {
                removed += v;
            }
        }
        self.indices = keep_i;
        self.values = keep_v;
        removed
    }
}

impl FromIterator<(u32, f64)> for SparseVector {
    /// Collects `(index, value)` pairs; they must arrive in strictly
    /// increasing index order and with finite values.
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, v) in iter {
            indices.push(i);
            values.push(v);
        }
        Self::from_parts(indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseVector {
        SparseVector::from_parts(vec![1, 4, 7], vec![0.5, 0.25, 0.125])
    }

    #[test]
    fn from_parts_and_accessors() {
        let v = sample();
        assert_eq!(v.nnz(), 3);
        assert_eq!(v.get(4), 0.25);
        assert_eq!(v.get(2), 0.0);
        assert!((v.sum() - 0.875).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_unsorted() {
        SparseVector::from_parts(vec![4, 1], vec![0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_parts_rejects_mismatch() {
        SparseVector::from_parts(vec![1], vec![0.1, 0.2]);
    }

    #[test]
    fn from_unsorted_sorts_and_allocates_exactly() {
        let mut pairs = Vec::with_capacity(64);
        pairs.extend([(5, 0.5), (1, 0.25), (3, 1.0)]);
        let v = SparseVector::from_unsorted(pairs);
        assert_eq!(v.indices(), &[1, 3, 5]);
        assert_eq!(v.values(), &[0.25, 1.0, 0.5]);
        // Index size accounting reads capacities: none beyond the entries.
        assert_eq!(v.heap_bytes(), 3 * (4 + 8));
    }

    #[test]
    fn from_dense_thresholds() {
        let v = SparseVector::from_dense(&[0.0, 0.5, 1e-9, 0.25], 1e-6);
        assert_eq!(v.indices(), &[1, 3]);
        assert_eq!(v.values(), &[0.5, 0.25]);
    }

    #[test]
    fn from_dense_keeps_all_nonzero_at_zero_threshold() {
        let v = SparseVector::from_dense(&[0.0, 1e-300, -1e-300], 0.0);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn to_dense_round_trips() {
        let v = sample();
        let d = v.to_dense(10);
        assert_eq!(SparseVector::from_dense(&d, 0.0), v);
    }

    #[test]
    fn round_below_removes_mass() {
        let mut v = sample();
        let removed = v.round_below(0.2);
        assert!((removed - 0.125).abs() < 1e-15);
        assert_eq!(v.indices(), &[1, 4]);
    }

    #[test]
    fn round_below_empty_is_noop() {
        let mut v = SparseVector::new();
        assert_eq!(v.round_below(1.0), 0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn unit_vector() {
        let v = SparseVector::unit(3, 1.0);
        assert_eq!(v.get(3), 1.0);
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    fn empty_sums_are_positive_zero() {
        let v = SparseVector::new();
        assert!(v.sum().is_sign_positive(), "empty sum must be +0.0");
        assert!(v.l1_norm().is_sign_positive(), "empty l1 must be +0.0");
    }

    #[test]
    fn collect_from_pairs() {
        let v: SparseVector = vec![(0u32, 1.0), (9u32, 2.0)].into_iter().collect();
        assert_eq!(v.get(9), 2.0);
    }
}
