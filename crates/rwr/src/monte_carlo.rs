//! Restart-terminated random walks (paper §6.2, after Fogaras et al. and
//! Avrachenkov et al.).
//!
//! A walk from `u` stops each step with the restart probability `α` and
//! otherwise moves along an out-edge drawn by transition probability, so
//! the node it ends on is distributed as `p_u` — the MC End-Point
//! estimator's observation. The paper's index cannot be built on such
//! estimates (they are unbiased, not lower bounds — §6.1); `rtk-approx`'s
//! bidirectional estimator weights walk end points by backward residuals,
//! and owns the per-walk seeding discipline.

use rand::{rngs::StdRng, Rng};
use rtk_graph::TransitionMatrix;

/// Samples one transition out of `node` according to the transition
/// probabilities (linear scan of the out-edges; fine for simulation use).
fn step(transition: &TransitionMatrix<'_>, node: u32, rng: &mut StdRng) -> u32 {
    let targets = transition.graph().out_neighbors(node);
    let probs = transition.out_probs(node);
    debug_assert!(!targets.is_empty(), "dangling node reached during walk");
    let mut roll: f64 = rng.gen();
    for (&t, &p) in targets.iter().zip(probs) {
        if roll < p {
            return t;
        }
        roll -= p;
    }
    // Floating-point slack: land on the last target.
    *targets.last().expect("non-empty out list")
}

/// Simulates one restart-terminated walk from `start` and returns the node
/// the restart coin fired on (or the walk's position after `max_steps`
/// steps). The caller owns the RNG, and with it the seeding discipline.
pub fn walk_endpoint(
    transition: &TransitionMatrix<'_>,
    start: u32,
    alpha: f64,
    max_steps: u32,
    rng: &mut StdRng,
) -> u32 {
    assert!((start as usize) < transition.node_count(), "walk_endpoint: node {start} out of range");
    let mut at = start;
    for _ in 0..max_steps {
        if rng.gen_bool(alpha) {
            break;
        }
        at = step(transition, at, rng);
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RwrParams;
    use crate::power::proximity_from;
    use rand::SeedableRng;
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

    /// End-point frequencies of `walks` walks from `u`, walk `w` seeded `w`.
    fn end_point_frequencies(
        t: &TransitionMatrix<'_>,
        u: u32,
        alpha: f64,
        max_steps: u32,
        walks: u64,
    ) -> Vec<f64> {
        let mut counts = vec![0u64; t.node_count()];
        for seed in 0..walks {
            let mut rng = StdRng::seed_from_u64(seed);
            counts[walk_endpoint(t, u, alpha, max_steps, &mut rng) as usize] += 1;
        }
        counts.iter().map(|&c| c as f64 / walks as f64).collect()
    }

    #[test]
    fn end_point_frequencies_approach_ground_truth() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (truth, _) = proximity_from(&t, 0, &RwrParams::default());
        let est = end_point_frequencies(&t, 0, 0.15, 2_000, 100_000);
        for v in 0..6 {
            assert!((est[v] - truth[v]).abs() < 0.01, "v={v}: {} vs {}", est[v], truth[v]);
        }
    }

    #[test]
    fn respects_weighted_transitions() {
        // 0 -> 1 with weight 9, 0 -> 2 with weight 1: one step out of 0
        // (the restart coin never fires) lands on 1 nine times in ten.
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 9.0).unwrap();
        b.add_weighted_edge(0, 2, 1.0).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(2, 0).unwrap();
        let g = b.build(DanglingPolicy::Error).unwrap();
        let t = TransitionMatrix::new(&g);
        let est = end_point_frequencies(&t, 0, 0.0, 1, 20_000);
        assert_eq!(est[0], 0.0);
        assert!((est[1] - 0.9).abs() < 0.01, "p(1)={} p(2)={}", est[1], est[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_source() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let mut rng = StdRng::seed_from_u64(0);
        walk_endpoint(&t, 9, 0.15, 2_000, &mut rng);
    }
}
