//! Regret accounting: Eq. (1) regret, β-regret, and the practical
//! (θ-scaled) regret of Section IV-E.

use crate::state::{StateError, StateMap};

/// Tracks the reward history of one policy run and derives the paper's
/// regret notions.
///
/// Conventions (all rates in the same unit, e.g. kbps):
///
/// * `optimal` is `R_1`, the expected per-round throughput of the best
///   *fixed* strategy (the exact MWIS under true means, Eq. (2)).
/// * `beta ≥ 1` is the oracle approximation factor; the β-regret target is
///   `R_1/β`.
/// * `theta ∈ (0, 1]` is the airtime fraction `t_d/t_a` of Section IV-E;
///   effective throughput is `θ·R_x(t)`.
///
/// Per round the caller records the *expected* throughput `λ_x` of the
/// strategy it played (sum of true means — this is what Eq. (1)'s
/// expectation evaluates to) and the *observed* throughput (sum of
/// realized rates).
#[derive(Debug, Clone, PartialEq)]
pub struct RegretTracker {
    optimal: f64,
    beta: f64,
    theta: f64,
    expected_sum: f64,
    observed_sum: f64,
    rounds: u64,
    cumulative_regret: Vec<f64>,
    cumulative_beta_regret: Vec<f64>,
}

impl RegretTracker {
    /// Tracker for a run against optimum `optimal = R_1`, oracle factor
    /// `beta`, airtime fraction `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `optimal < 0`, `beta < 1`, or `theta ∉ (0, 1]`.
    pub fn new(optimal: f64, beta: f64, theta: f64) -> Self {
        assert!(optimal >= 0.0, "optimal must be non-negative");
        assert!(beta >= 1.0, "beta must be at least 1");
        assert!(theta > 0.0 && theta <= 1.0, "theta in (0, 1]");
        RegretTracker {
            optimal,
            beta,
            theta,
            expected_sum: 0.0,
            observed_sum: 0.0,
            rounds: 0,
            cumulative_regret: Vec::new(),
            cumulative_beta_regret: Vec::new(),
        }
    }

    /// Records one round: the played strategy's expected throughput
    /// `λ_x = Σ µ` and observed throughput `Σ ξ`.
    pub fn record(&mut self, expected: f64, observed: f64) {
        self.rounds += 1;
        self.expected_sum += expected;
        self.observed_sum += observed;
        let n = self.rounds as f64;
        self.cumulative_regret
            .push(n * self.optimal - self.expected_sum);
        self.cumulative_beta_regret
            .push(n * self.optimal / self.beta - self.expected_sum);
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Eq. (1): `n·R_1 − Σ λ_x(t)` after the last recorded round.
    pub fn regret(&self) -> f64 {
        *self.cumulative_regret.last().unwrap_or(&0.0)
    }

    /// β-regret: `n·R_1/β − Σ λ_x(t)` (negative once the policy beats the
    /// `1/β` target, as in the paper's Fig. 7(b)).
    pub fn beta_regret(&self) -> f64 {
        *self.cumulative_beta_regret.last().unwrap_or(&0.0)
    }

    /// Per-round practical regret after `n` rounds:
    /// `R_1 − θ·(Σ observed)/n` — the gap between the genie's expected
    /// throughput and the achieved *effective* (airtime-scaled) throughput.
    /// This is the quantity Fig. 7(a) plots.
    pub fn practical_regret(&self) -> f64 {
        if self.rounds == 0 {
            self.optimal
        } else {
            self.optimal - self.theta * self.observed_sum / self.rounds as f64
        }
    }

    /// Per-round practical β-regret: `R_1/β − θ·(Σ observed)/n`
    /// (Fig. 7(b); converges negative when effective throughput beats the
    /// `1/β` target).
    pub fn practical_beta_regret(&self) -> f64 {
        if self.rounds == 0 {
            self.optimal / self.beta
        } else {
            self.optimal / self.beta - self.theta * self.observed_sum / self.rounds as f64
        }
    }

    /// Average observed (un-scaled) throughput per round.
    pub fn average_observed(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.observed_sum / self.rounds as f64
        }
    }

    /// Average expected throughput per round.
    pub fn average_expected(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.expected_sum / self.rounds as f64
        }
    }

    /// Full cumulative-regret series (index `i` = after round `i+1`).
    pub fn regret_series(&self) -> &[f64] {
        &self.cumulative_regret
    }

    /// The configured optimum `R_1`.
    pub fn optimal(&self) -> f64 {
        self.optimal
    }

    /// The configured airtime fraction θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The configured oracle factor β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Writes the accumulated reward history into `out` (checkpoint).
    /// The configuration (`optimal`, `beta`, `theta`) is *not* recorded —
    /// the restoring side rebuilds the tracker from the run config via
    /// [`RegretTracker::new`] and then calls
    /// [`RegretTracker::restore_state`].
    pub fn snapshot_state(&self, out: &mut StateMap) {
        out.put_u64("rounds", self.rounds);
        out.put_f64("expected_sum", self.expected_sum);
        out.put_f64("observed_sum", self.observed_sum);
        out.put_f64_vec("cumulative_regret", self.cumulative_regret.clone());
        out.put_f64_vec(
            "cumulative_beta_regret",
            self.cumulative_beta_regret.clone(),
        );
    }

    /// Restores history captured by [`RegretTracker::snapshot_state`]
    /// into a tracker built with the same configuration.
    pub fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        let rounds = state.get_u64("rounds")?;
        let n = usize::try_from(rounds)
            .map_err(|_| StateError::invalid("rounds", "round count overflows usize"))?;
        self.rounds = rounds;
        self.expected_sum = state.get_f64("expected_sum")?;
        self.observed_sum = state.get_f64("observed_sum")?;
        self.cumulative_regret = state.get_f64_vec_exact("cumulative_regret", n)?;
        self.cumulative_beta_regret = state.get_f64_vec_exact("cumulative_beta_regret", n)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_play_has_zero_regret() {
        let mut t = RegretTracker::new(10.0, 2.0, 0.5);
        for _ in 0..5 {
            t.record(10.0, 10.0);
        }
        assert!(t.regret().abs() < 1e-12);
        // β-regret goes negative: 5·(10/2) − 50 = −25.
        assert!((t.beta_regret() + 25.0).abs() < 1e-12);
    }

    #[test]
    fn suboptimal_play_accumulates_regret_linearly() {
        let mut t = RegretTracker::new(10.0, 1.0, 1.0);
        for _ in 0..4 {
            t.record(7.0, 7.0);
        }
        assert!((t.regret() - 12.0).abs() < 1e-12);
        assert_eq!(t.regret_series().len(), 4);
        assert!((t.regret_series()[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn practical_regret_reflects_theta() {
        let mut t = RegretTracker::new(10.0, 2.0, 0.5);
        t.record(10.0, 10.0);
        // Effective throughput 5 ⇒ practical regret 10 − 5 = 5.
        assert!((t.practical_regret() - 5.0).abs() < 1e-12);
        // Practical β-regret: 10/2 − 5 = 0.
        assert!(t.practical_beta_regret().abs() < 1e-12);
    }

    #[test]
    fn averages() {
        let mut t = RegretTracker::new(10.0, 1.0, 1.0);
        t.record(4.0, 3.0);
        t.record(6.0, 9.0);
        assert!((t.average_expected() - 5.0).abs() < 1e-12);
        assert!((t.average_observed() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_defaults() {
        let t = RegretTracker::new(8.0, 2.0, 0.5);
        assert_eq!(t.regret(), 0.0);
        assert_eq!(t.practical_regret(), 8.0);
        assert_eq!(t.practical_beta_regret(), 4.0);
        assert_eq!(t.rounds(), 0);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn beta_below_one_rejected() {
        let _ = RegretTracker::new(1.0, 0.5, 1.0);
    }
}
