//! Dense accumulator with *O(touched)* reset.
//!
//! Batch ink propagation (paper Eqs. 8–9) repeatedly scatters small amounts of
//! ink across a frontier that is tiny compared to the graph. Zeroing a dense
//! `Vec<f64>` between nodes would cost `O(n)` per node and dominate the index
//! build. [`EpochScratch`] instead tracks which slots were touched and resets
//! them lazily via an epoch counter, so a build over `n` nodes costs
//! `O(total ink transfers)`, not `O(n²)`.

/// A dense `f64` accumulator over `0..len` with epoch-based lazy reset.
#[derive(Clone, Debug)]
pub struct EpochScratch {
    values: Vec<f64>,
    epochs: Vec<u32>,
    touched: Vec<u32>,
    epoch: u32,
}

impl EpochScratch {
    /// Creates a scratch buffer for indices `0..len`, all logically zero.
    pub fn new(len: usize) -> Self {
        Self { values: vec![0.0; len], epochs: vec![0; len], touched: Vec::new(), epoch: 1 }
    }

    /// Logical length of the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the logical length is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of slots touched since the last [`Self::reset`].
    #[inline]
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Current value at `i` (zero unless touched this epoch).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        if self.epochs[i] == self.epoch {
            self.values[i]
        } else {
            0.0
        }
    }

    /// Adds `delta` to slot `i`, marking it touched.
    #[inline]
    pub fn add(&mut self, i: usize, delta: f64) {
        if self.epochs[i] == self.epoch {
            self.values[i] += delta;
        } else {
            self.epochs[i] = self.epoch;
            self.values[i] = delta;
            self.touched.push(i as u32);
        }
    }

    /// Logically zeroes the whole buffer in `O(1)` (amortized; a wrap of the
    /// 32-bit epoch counter triggers one full `O(n)` clear every 2³²−1 resets).
    pub fn reset(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            self.epochs.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Iterates over touched `(index, value)` pairs in *touch order*
    /// (unsorted); zero-valued touched slots are included.
    pub fn iter_touched(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.touched.iter().map(move |&i| (i, self.values[i as usize]))
    }

    /// Collects the touched non-zero entries whose value exceeds `threshold`
    /// into a sorted [`crate::SparseVector`].
    pub fn to_sparse(&self, threshold: f64) -> crate::SparseVector {
        crate::SparseVector::from_unsorted(
            self.iter_touched().filter(|&(_, v)| v != 0.0 && v.abs() > threshold).collect(),
        )
    }

    /// Sum of all touched values.
    pub fn sum(&self) -> f64 {
        self.touched.iter().map(|&i| self.values[i as usize]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_logically_zero() {
        let s = EpochScratch::new(4);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.touched_len(), 0);
    }

    #[test]
    fn add_and_get() {
        let mut s = EpochScratch::new(4);
        s.add(1, 0.5);
        s.add(1, 0.25);
        s.add(3, 1.0);
        assert_eq!(s.get(1), 0.75);
        assert_eq!(s.get(3), 1.0);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.touched_len(), 2);
    }

    #[test]
    fn reset_clears_logically() {
        let mut s = EpochScratch::new(4);
        s.add(2, 1.0);
        s.reset();
        assert_eq!(s.get(2), 0.0);
        assert_eq!(s.touched_len(), 0);
        s.add(2, 0.5);
        assert_eq!(s.get(2), 0.5);
    }

    #[test]
    fn to_sparse_sorts_and_filters() {
        let mut s = EpochScratch::new(8);
        s.add(5, 0.5);
        s.add(1, 1e-12);
        s.add(0, 0.25);
        let v = s.to_sparse(1e-9);
        assert_eq!(v.indices(), &[0, 5]);
        assert_eq!(v.values(), &[0.25, 0.5]);
    }

    #[test]
    fn sum_over_touched() {
        let mut s = EpochScratch::new(4);
        s.add(0, 0.25);
        s.add(3, 0.5);
        assert!((s.sum() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn many_resets_stay_consistent() {
        let mut s = EpochScratch::new(3);
        for round in 0..1000 {
            s.add(round % 3, 1.0);
            assert_eq!(s.get(round % 3), 1.0);
            s.reset();
        }
        assert_eq!(s.get(0), 0.0);
    }
}
