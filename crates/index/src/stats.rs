//! Index construction and size statistics (feeds Table 2).

/// Metrics captured while building a [`crate::ReverseIndex`] plus size
/// accounting over the finished structure.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IndexStats {
    /// Wall-clock seconds spent selecting hubs.
    pub hub_selection_seconds: f64,
    /// Wall-clock seconds spent computing + rounding hub vectors.
    pub hub_vectors_seconds: f64,
    /// Wall-clock seconds spent on the per-node partial BCA sweeps: the runs,
    /// the rematerialization of each state's bounds against `P_H`, and the
    /// record hashing. The benchmark's `rwr.bca_ns_per_push` divides this
    /// whole total by [`Self::total_pushes`].
    pub node_sweep_seconds: f64,
    /// Total wall-clock build time.
    pub total_seconds: f64,
    /// Number of hubs (`|H|`).
    pub hub_count: usize,
    /// Sum of per-node BCA iterations (`Σ t_u`).
    pub total_iterations: u64,
    /// Total edge pushes during the node sweep.
    pub total_pushes: u64,
    /// Actual index heap bytes (rounded hub matrix + all node states).
    pub actual_bytes: usize,
    /// Bytes the index would take with unrounded hub vectors.
    pub no_rounding_bytes: usize,
    /// Theorem 1's predicted bytes (`β = 0.76` unless overridden), when a
    /// positive rounding threshold makes the formula applicable.
    pub predicted_bytes: Option<usize>,
    /// Bytes of the top-K lower-bound matrix alone (the minimum conceivable
    /// index, Table 2's parenthesized figure).
    pub lower_bound_bytes: usize,
    /// Worker threads used.
    pub threads: usize,
}

impl IndexStats {
    /// Pretty one-line summary used by the experiment harness.
    pub fn summary(&self) -> String {
        format!(
            "hubs={} time={:.2}s (hubs {:.2}s + sweep {:.2}s) size={:.1}MiB (no-rounding {:.1}MiB, lb-only {:.1}MiB)",
            self.hub_count,
            self.total_seconds,
            self.hub_selection_seconds + self.hub_vectors_seconds,
            self.node_sweep_seconds,
            self.actual_bytes as f64 / (1024.0 * 1024.0),
            self.no_rounding_bytes as f64 / (1024.0 * 1024.0),
            self.lower_bound_bytes as f64 / (1024.0 * 1024.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_renders() {
        let s = IndexStats {
            hub_count: 3,
            total_seconds: 1.25,
            actual_bytes: 1 << 20,
            ..Default::default()
        };
        let text = s.summary();
        assert!(text.contains("hubs=3"));
        assert!(text.contains("1.0MiB"));
    }
}
