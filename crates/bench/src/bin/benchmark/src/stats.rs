//! Order statistics used for every reported number.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_window(values, p, p)
}

/// Mean of the order statistics from the `lo`-th to the `hi`-th percentile
/// (nearest rank, both included). A single order statistic of a heavy tail
/// sits on a cliff: whether nine or eleven of a block's 200 queries are
/// "heavy" moves the 10th slowest by a factor of two, and the mean of a
/// window around it by a few percent.
pub fn percentile_window(values: &[f64], lo: f64, hi: f64) -> f64 {
    assert!(!values.is_empty() && lo <= hi, "percentile window of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank =
        |p: f64| (((p / 100.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let window = &sorted[rank(lo) - 1..rank(hi)];
    window.iter().sum::<f64>() / window.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them, because that is how the benchmark's spread is judged. Needs two
/// values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn percentile_window_averages_the_order_statistics_around_a_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // Ranks 185..=195 of 200.
        assert_eq!(percentile_window(&v, 92.5, 97.5), 190.0);
        assert_eq!(percentile_window(&v, 95.0, 95.0), percentile(&v, 95.0));
        assert_eq!(percentile_window(&[7.0], 92.5, 97.5), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
