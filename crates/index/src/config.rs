//! Index construction configuration.

use crate::error::IndexError;
use rtk_rwr::BcaParams;

/// How hub nodes are chosen (paper §4.1.1).
#[derive(Clone, Debug, PartialEq)]
pub enum HubSelection {
    /// Union of the `b` largest in-degree and `b` largest out-degree nodes —
    /// the paper's method.
    DegreeBased {
        /// Per-direction selection size `B`.
        b: usize,
    },
    /// Caller-provided hub ids; `Explicit(vec![])` is plain partial BCA per
    /// node, with no hubs.
    Explicit(Vec<u32>),
}

/// How the exact hub proximity vectors `p_h` are computed (Alg. 1 line 2:
/// *"by power method or BCA"*). Both run at the index's restart
/// probability `bca.alpha`, so the hub vectors describe the same random
/// walk as every node state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HubSolver {
    /// Forward power method at [`rtk_rwr::RwrParams::default`]'s tolerance
    /// `ε = 1e-10` and iteration cap — near-zero mass deficit.
    PowerMethod,
    /// BCA run to `residue_threshold` — faster on huge graphs, leaves a
    /// tracked deficit of up to `residue_threshold` per hub.
    Bca {
        /// Propagation threshold `η`.
        propagation_threshold: f64,
        /// Residue threshold `δ`: a hub's BCA stops once `‖r‖₁ ≤ δ`.
        residue_threshold: f64,
        /// Hard iteration cap.
        max_iterations: u32,
    },
}

/// Full configuration for [`crate::ReverseIndex::build`].
#[derive(Clone, Debug, PartialEq)]
pub struct IndexConfig {
    /// `K`: the largest `k` any query may use (paper default 200).
    pub max_k: usize,
    /// Per-node BCA parameters (`α`, `η`, `δ`).
    pub bca: BcaParams,
    /// Hub selection strategy.
    pub hub_selection: HubSelection,
    /// Hub vector solver.
    pub hub_solver: HubSolver,
    /// Rounding threshold `ω` applied to hub vectors (§4.1.3); `0` disables.
    pub rounding_threshold: f64,
    /// Worker threads for construction; `0` = available parallelism.
    pub threads: usize,
}

impl Default for IndexConfig {
    /// Paper defaults: `K = 200`, `η = 1e-4`, `δ = 0.1`, `ω = 1e-6`,
    /// degree-based hubs with `B = 50`, hub vectors by power method.
    fn default() -> Self {
        Self {
            max_k: 200,
            bca: BcaParams::default(),
            hub_selection: HubSelection::DegreeBased { b: 50 },
            hub_solver: HubSolver::PowerMethod,
            rounding_threshold: 1e-6,
            threads: 0,
        }
    }
}

impl IndexConfig {
    /// Validates ranges.
    pub fn validate(&self) -> Result<(), IndexError> {
        if self.max_k == 0 {
            return Err(IndexError::InvalidConfig("max_k must be ≥ 1".into()));
        }
        if !(self.rounding_threshold >= 0.0 && self.rounding_threshold.is_finite()) {
            return Err(IndexError::InvalidConfig(format!(
                "rounding_threshold must be a finite non-negative number, got {}",
                self.rounding_threshold
            )));
        }
        if self.bca.alpha <= 0.0 || self.bca.alpha >= 1.0 {
            return Err(IndexError::InvalidConfig(format!(
                "bca.alpha must lie in (0,1), got {}",
                self.bca.alpha
            )));
        }
        if let HubSelection::Explicit(ids) = &self.hub_selection {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != ids.len() {
                return Err(IndexError::InvalidConfig("explicit hub list has duplicates".into()));
            }
        }
        Ok(())
    }

    /// The restart probability shared by every solver in this config.
    pub fn alpha(&self) -> f64 {
        self.bca.alpha
    }

    /// Resolved worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_paper() {
        let c = IndexConfig::default();
        c.validate().unwrap();
        assert_eq!(c.max_k, 200);
        assert_eq!(c.bca.propagation_threshold, 1e-4);
        assert_eq!(c.bca.residue_threshold, 0.1);
        assert_eq!(c.rounding_threshold, 1e-6);
    }

    #[test]
    fn rejects_zero_k() {
        let c = IndexConfig { max_k: 0, ..Default::default() };
        assert!(matches!(c.validate(), Err(IndexError::InvalidConfig(_))));
    }

    #[test]
    fn rejects_negative_rounding() {
        let c = IndexConfig { rounding_threshold: -1.0, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_duplicate_explicit_hubs() {
        let c =
            IndexConfig { hub_selection: HubSelection::Explicit(vec![1, 1]), ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn effective_threads_resolves() {
        let c = IndexConfig { threads: 3, ..Default::default() };
        assert_eq!(c.effective_threads(), 3);
        let c = IndexConfig { threads: 0, ..Default::default() };
        assert!(c.effective_threads() >= 1);
    }
}
