//! A fixed-bucket latency histogram with deterministic quantiles.
//!
//! The serving layer (`rtk-server`'s per-request metrics and the router's
//! hedge delay) needs p50/p95/p99 over
//! many observations without storing them all. This histogram uses a fixed
//! geometric bucket ladder, so recording is O(log buckets), merging is a
//! vector add, and quantiles are reproducible: the reported value is always
//! the *upper edge* of the bucket containing the requested rank (a
//! conservative bound, never an interpolation that shifts with float noise).

/// Number of geometric buckets (plus one overflow bucket at the end).
const BUCKETS: usize = 64;

/// Upper edge of the first bucket, in seconds (1 µs).
const FIRST_EDGE: f64 = 1e-6;

/// Geometric growth factor between bucket edges. `1.5^63 · 1e-6 ≈ 3.2e5`
/// seconds, so the ladder spans 1 µs to ~90 hours before overflowing.
const GROWTH: f64 = 1.5;

/// A fixed-bucket histogram of non-negative durations (seconds).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts observations in `(edge(i-1), edge(i)]`;
    /// `buckets[BUCKETS]` is the overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: vec![0; BUCKETS + 1], count: 0, sum: 0.0, max: 0.0 }
    }

    /// Upper edge of bucket `i`, in seconds.
    fn edge(i: usize) -> f64 {
        FIRST_EDGE * GROWTH.powi(i as i32)
    }

    /// Records one observation. Negative or NaN values count as zero.
    pub fn record(&mut self, seconds: f64) {
        let v = if seconds.is_finite() && seconds > 0.0 { seconds } else { 0.0 };
        // Bucket index via logarithm, clamped to the ladder.
        let idx = if v <= FIRST_EDGE {
            0
        } else {
            let i = ((v / FIRST_EDGE).ln() / GROWTH.ln()).ceil() as i64;
            i.clamp(0, (BUCKETS + 1) as i64 - 1) as usize
        };
        self.buckets[idx.min(BUCKETS)] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest recorded observation (exact, not bucketed).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`), as the upper edge of the bucket
    /// holding the rank-`⌈q·count⌉` observation. Returns 0 when empty; the
    /// overflow bucket reports the exact max instead of an edge.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i >= BUCKETS { self.max } else { Self::edge(i).min(self.max) };
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// `(p50, p95, p99)` in one call — the triple every bench JSON reports.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99))
    }

    /// Sum of all observations, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// `(upper_edge_seconds, cumulative_count)` per non-empty prefix of the
    /// ladder, ending with `(+∞, count)` — exactly the shape a Prometheus
    /// `le`-labelled bucket series wants. Trailing all-zero buckets below
    /// the max are skipped so an idle histogram exports compactly.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().take(BUCKETS).enumerate() {
            cumulative += c;
            out.push((Self::edge(i), cumulative));
            if cumulative == self.count {
                break;
            }
        }
        out.push((f64::INFINITY, self.count));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.percentiles(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-5); // 10 µs .. 10 ms
        }
        assert_eq!(h.count(), 1000);
        let (p50, p95, p99) = h.percentiles();
        // Each reported quantile bounds the true one from above, within one
        // bucket's growth factor.
        assert!((0.005..=0.005 * GROWTH).contains(&p50), "p50={p50}");
        assert!((0.0095..=0.0095 * GROWTH).contains(&p95), "p95={p95}");
        assert!((0.0099..=0.0099 * GROWTH).contains(&p99), "p99={p99}");
        assert!(p50 <= p95 && p95 <= p99);
        assert!(h.max() >= p99);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..500 {
            let v = (i as f64 + 1.0) * 3e-6;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.quantile(0.5), whole.quantile(0.5));
        assert_eq!(a.quantile(0.99), whole.quantile(0.99));
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_values_are_absorbed() {
        let mut h = LatencyHistogram::new();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(0.0);
        h.record(1e12); // overflow bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(1.0), 1e12); // overflow reports the exact max
    }

    #[test]
    fn cumulative_buckets_end_at_infinity_and_total_count() {
        let mut h = LatencyHistogram::new();
        h.record(5e-6);
        h.record(2e-3);
        let buckets = h.cumulative_buckets();
        let (last_edge, last_count) = *buckets.last().unwrap();
        assert!(last_edge.is_infinite());
        assert_eq!(last_count, 2);
        // Cumulative counts are monotone and edges strictly increase.
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        // The ladder stops once every observation is covered.
        assert!(buckets.len() < BUCKETS + 1);
    }

    #[test]
    fn single_observation_quantiles_report_it() {
        let mut h = LatencyHistogram::new();
        h.record(0.02);
        let (p50, p95, p99) = h.percentiles();
        // All quantiles fall in the same bucket; clamped to the exact max.
        assert_eq!(p50, 0.02);
        assert_eq!(p95, 0.02);
        assert_eq!(p99, 0.02);
    }
}
