//! Kernels over dense `f64` slices.
//!
//! These are the hot inner loops of the power-method solvers; they operate on
//! plain slices so the compiler can elide bounds checks through iteration.

/// Returns the L1 norm `Σ|x_i|` of `x`.
#[inline]
pub fn l1_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Returns the L1 distance `Σ|x_i − y_i|` between two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn l1_distance(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "l1_distance: length mismatch");
    x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum()
}

/// In-place `y ← y + a·x` (axpy).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// In-place `x ← a·x`.
#[inline]
pub fn scale(x: &mut [f64], a: f64) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Index of the largest element (first one on ties); `None` when empty.
#[inline]
pub fn argmax(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_v = x[0];
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    Some(best)
}

/// The `k`-th largest value of `x` (1-based `k`), or 0.0 when `k > x.len()`.
///
/// This is the quantity `p̂_u(k)` the paper compares proximities against:
/// entries absent from a sparse vector count as zeros, so a short vector's
/// k-th largest value is zero rather than undefined.
pub fn kth_largest(x: &[f64], k: usize) -> f64 {
    assert!(k >= 1, "kth_largest: k must be ≥ 1");
    if k > x.len() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = x.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("NaN in kth_largest"));
    sorted[k - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_norm_sums_absolute_values() {
        assert_eq!(l1_norm(&[1.0, -2.0, 3.0]), 6.0);
        assert_eq!(l1_norm(&[]), 0.0);
    }

    #[test]
    fn l1_distance_matches_manual() {
        assert_eq!(l1_distance(&[1.0, 2.0], &[3.0, 0.5]), 2.0 + 1.5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn l1_distance_rejects_mismatched_lengths() {
        l1_distance(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(2.0, &[1.0, 0.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, 1.0, -1.0]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(&mut x, 0.5);
        assert_eq!(x, vec![0.5, -1.0]);
    }

    #[test]
    fn argmax_picks_first_maximum() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn kth_largest_basic_and_out_of_range() {
        let x = [0.1, 0.4, 0.2, 0.3];
        assert_eq!(kth_largest(&x, 1), 0.4);
        assert_eq!(kth_largest(&x, 3), 0.2);
        assert_eq!(kth_largest(&x, 4), 0.1);
        assert_eq!(kth_largest(&x, 5), 0.0);
    }
}
