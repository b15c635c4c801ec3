//! Upper Bound Computation — Algorithm 3 (paper §4.2.2, Eqs. 16–18).
//!
//! Given the descending lower-bound staircase `p̂^t_u(1:k)` and the
//! undistributed mass `‖r^t_u‖₁`, the best case for the *k-th largest* final
//! proximity is that all remaining mass lands on the current top-k entries so
//! as to maximize the k-th value — geometrically, pouring `‖r‖₁` of ink into
//! the container formed by the staircase's top `k` steps and reading off the
//! level (Figures 3–4 of the paper). The result is a true upper bound of
//! `p^kmax_u` that only tightens as refinement grows the staircase and
//! shrinks the residue (Prop. 4).

/// Computes the upper bound `ub^t_u` of the k-th largest proximity.
///
/// * `staircase` — the first `k` lower bounds in descending order,
///   zero-padded to exactly `k` entries
///   (see `DescendingTopK::prefix_values`);
/// * `residual` — the undistributed mass: `‖r‖₁` (paper-faithful) or
///   `‖r‖₁ + Σ_h s(h)·d_h` (strict mode, covering hub rounding deficits).
///
/// # Panics
/// Panics if `staircase.len() != k`, `k == 0`, the staircase is not
/// descending, or `residual` is negative.
pub fn upper_bound_kth(staircase: &[f64], residual: f64, k: usize) -> f64 {
    assert!(k >= 1, "upper_bound_kth: k must be ≥ 1");
    assert_eq!(staircase.len(), k, "upper_bound_kth: staircase must have exactly k entries");
    assert!(residual >= 0.0, "upper_bound_kth: negative residual {residual}");
    debug_assert!(
        staircase.windows(2).all(|w| w[0] >= w[1]),
        "upper_bound_kth: staircase must be descending"
    );

    // z_j: ink needed for the level to reach step k−j (Eq. 17). Scan j
    // upward until the residual fits between z_{j−1} and z_j (Eq. 18 line 1).
    let mut z_prev = 0.0_f64;
    for j in 1..k {
        // Δ_{k−j} = p̂(k−j) − p̂(k−j+1)   (1-based; slices are 0-based)
        let delta = staircase[k - j - 1] - staircase[k - j];
        let z_j = z_prev + j as f64 * delta;
        if residual <= z_j {
            // Level lands between steps k−j and k−j+1: fill j steps evenly.
            return staircase[k - j - 1] - (z_j - residual) / j as f64;
        }
        z_prev = z_j;
    }
    // Residual submerges the whole staircase (Eq. 18 line 2 / Figure 4).
    staircase[0] + (residual - z_prev) / k as f64
}

/// The ink needed to lift the staircase's `k` steps to level `p`:
/// `Σ_{i≤k} (p − p̂(i))⁺` — Algorithm 3's pouring argument read backwards.
///
/// Pouring `residual` raises the level to `ub`, and the level only rises
/// with more ink, so `p ≥ ub` holds exactly when `residual ≤` this cost.
/// Refinement only raises the steps (Prop. 1), so the cost only falls: a
/// candidate with proximity `p` cannot be confirmed before its residual is
/// down to the cost read off its *current* staircase — the stopping target
/// the query's refinement runs to.
pub fn confirm_cost(staircase: &[f64], p: f64) -> f64 {
    staircase.iter().map(|&step| (p - step).max(0.0)).sum()
}

/// Brute-force reference: simulate pouring `residual` in tiny increments
/// (test oracle; `O(k / step)`).
#[cfg(test)]
fn pour_reference(staircase: &[f64], residual: f64, step: f64) -> f64 {
    let k = staircase.len();
    let mut levels: Vec<f64> = staircase.to_vec();
    let mut remaining = residual;
    while remaining > 1e-15 {
        // Raise the currently-lowest levels by `step` (or what's left).
        let min = levels.iter().cloned().fold(f64::INFINITY, f64::min);
        let at_min: Vec<usize> = (0..k).filter(|&i| (levels[i] - min).abs() < 1e-12).collect();
        let pour = (step * at_min.len() as f64).min(remaining);
        for &i in &at_min {
            levels[i] += pour / at_min.len() as f64;
        }
        remaining -= pour;
    }
    levels.iter().cloned().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_residual_returns_kth_value() {
        let s = [0.5, 0.3, 0.2];
        assert_eq!(upper_bound_kth(&s, 0.0, 3), 0.2);
    }

    #[test]
    fn small_residual_fills_lowest_step() {
        // k=2, staircase [0.5, 0.3]: z₁ = 1·(0.5−0.3) = 0.2. Residual 0.1
        // lifts the 2nd step halfway: ub = 0.5 − (0.2−0.1)/1 = 0.4.
        let s = [0.5, 0.3];
        assert!((upper_bound_kth(&s, 0.1, 2) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn large_residual_floods_the_staircase() {
        // Residual beyond z_{k−1} spreads evenly over all k steps (Fig. 4).
        let s = [0.5, 0.3];
        // z₁ = 0.2; residual 0.6 ⇒ ub = 0.5 + (0.6−0.2)/2 = 0.7.
        assert!((upper_bound_kth(&s, 0.6, 2) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn k_equals_one_adds_everything_to_the_top() {
        assert!((upper_bound_kth(&[0.4], 0.35, 1) - 0.75).abs() < 1e-12);
        assert_eq!(upper_bound_kth(&[0.4], 0.0, 1), 0.4);
    }

    #[test]
    fn flat_staircase_distributes_evenly() {
        let s = [0.25, 0.25, 0.25, 0.25];
        assert!((upper_bound_kth(&s, 0.4, 4) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn zero_padded_staircase_from_short_lists() {
        // A node with only 1 known proximity queried at k=3.
        let s = [0.6, 0.0, 0.0];
        // z₁ = 1·(0.0−0.0) = 0, z₂ = 0 + 2·(0.6−0.0) = 1.2.
        // Residual 0.4 ⇒ lands in (z₁, z₂]: ub = 0.6 − (1.2−0.4)/2 = 0.2.
        assert!((upper_bound_kth(&s, 0.4, 3) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn matches_paper_figure_walkthrough() {
        // Paper §4.2.3 example: node 4 (1-based), k=2, staircase [0.19, 0.17],
        // ‖r‖ = 0.36 ⇒ z₁ = 0.02, flood: ub = 0.19 + (0.36−0.02)/2 = 0.36.
        let ub = upper_bound_kth(&[0.19, 0.17], 0.36, 2);
        assert!((ub - 0.36).abs() < 1e-12, "ub = {ub}");
    }

    #[test]
    fn agrees_with_pour_simulation() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..200 {
            let k = rng.gen_range(1..8);
            let mut s: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..0.5)).collect();
            s.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let residual = rng.gen_range(0.0..1.0);
            let fast = upper_bound_kth(&s, residual, k);
            let slow = pour_reference(&s, residual, 1e-4);
            assert!(
                (fast - slow).abs() < 1e-3,
                "k={k} staircase={s:?} residual={residual}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn confirm_cost_is_the_residual_at_which_the_bound_test_flips() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let k = rng.gen_range(1..8);
            let mut s: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..0.5)).collect();
            s.sort_by(|a, b| b.partial_cmp(a).unwrap());
            if rng.gen_range(0..4) == 0 {
                let keep = rng.gen_range(0..k);
                s[keep..].fill(0.0); // short list, zero-padded
            }
            let p = rng.gen_range(0.0..0.7);
            let cost = confirm_cost(&s, p);
            // Below the lowest step nothing needs lifting; above it the
            // test `p ≥ ub` holds just inside the cost and fails just past it.
            assert_eq!(cost == 0.0, p <= s[k - 1], "staircase={s:?} p={p}");
            if cost > 1e-6 {
                assert!(p >= upper_bound_kth(&s, cost - 1e-9, k), "staircase={s:?} p={p}");
                assert!(p < upper_bound_kth(&s, cost + 1e-9, k), "staircase={s:?} p={p}");
            }
        }
    }

    #[test]
    fn monotone_in_residual() {
        let s = [0.5, 0.3, 0.1, 0.05, 0.01];
        let mut prev = upper_bound_kth(&s, 0.0, 5);
        for i in 1..=100 {
            let ub = upper_bound_kth(&s, i as f64 / 100.0, 5);
            assert!(ub >= prev - 1e-15);
            prev = ub;
        }
    }

    #[test]
    fn never_below_kth_lower_bound() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let k = rng.gen_range(1..10);
            let mut s: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..1.0)).collect();
            s.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let residual = rng.gen_range(0.0..1.0);
            assert!(upper_bound_kth(&s, residual, k) >= s[k - 1] - 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "exactly k entries")]
    fn rejects_wrong_length() {
        upper_bound_kth(&[0.5, 0.3], 0.1, 3);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn rejects_zero_k() {
        upper_bound_kth(&[], 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "negative residual")]
    fn rejects_negative_residual() {
        upper_bound_kth(&[0.5], -0.1, 1);
    }
}
