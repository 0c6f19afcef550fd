//! The Table II time model and practical-throughput arithmetic.

/// Timing parameters of a single round (paper Table II and Fig. 2).
///
/// A round of length `t_a` splits into a strategy-decision part `t_s` and a
/// data-transmission part `t_d`. The decision part consists of mini-rounds
/// of length `t_m = 2·t_b + t_l` (two local broadcasts plus local
/// computation); the paper's simulations use `t_s = 4·t_m`.
///
/// Defaults reproduce Table II exactly:
/// `t_a = 2000 ms`, `t_b = 100 ms`, `t_l = 50 ms`, `t_d = 1000 ms`,
/// hence `t_m = 250 ms`, `t_s = 1000 ms`, and `θ = t_d/t_a = 0.5`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeModel {
    /// Round length `t_a` in milliseconds.
    pub round_ms: f64,
    /// Local broadcast time `t_b` in milliseconds.
    pub broadcast_ms: f64,
    /// Local computation time `t_l` in milliseconds.
    pub compute_ms: f64,
    /// Data transmission time `t_d` in milliseconds.
    pub data_ms: f64,
}

impl Default for TimeModel {
    fn default() -> Self {
        TimeModel {
            round_ms: 2000.0,
            broadcast_ms: 100.0,
            compute_ms: 50.0,
            data_ms: 1000.0,
        }
    }
}

impl TimeModel {
    /// Mini-round length `t_m = 2·t_b + t_l` (one leader-declaration
    /// broadcast, one determination broadcast, plus local MWIS computation).
    pub fn miniround_ms(&self) -> f64 {
        2.0 * self.broadcast_ms + self.compute_ms
    }

    /// Strategy-decision length `t_s = t_a − t_d`.
    pub fn decision_ms(&self) -> f64 {
        self.round_ms - self.data_ms
    }

    /// Number of mini-rounds that fit in the decision part
    /// (`t_s / t_m`; 4 under Table II — one for weight update, the rest
    /// for strategy decision, per Section V).
    pub fn minirounds_per_decision(&self) -> usize {
        (self.decision_ms() / self.miniround_ms()).floor() as usize
    }

    /// Airtime fraction `θ = t_d / t_a` — the effective-throughput scaling
    /// of Section IV-E.
    ///
    /// # Panics
    ///
    /// Panics if `round_ms <= 0`.
    pub fn theta(&self) -> f64 {
        assert!(self.round_ms > 0.0, "round length must be positive");
        self.data_ms / self.round_ms
    }

    /// Effective throughput of a period of `y` slots under stale-weight
    /// updates (Section V-C): the first slot pays the decision overhead
    /// (contributes `t_d`), the remaining `y−1` slots transmit the whole
    /// round (`t_a` each):
    ///
    /// ```text
    /// R_P(z) = ( R_x(zy+1)·t_d + Σ_{t=zy+2}^{(z+1)y} R_x(t)·t_a ) / (y·t_a)
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `observed.is_empty()`.
    pub fn period_effective_throughput(&self, observed: &[f64]) -> f64 {
        assert!(!observed.is_empty(), "need at least one slot per period");
        let y = observed.len() as f64;
        let first = observed[0] * self.data_ms;
        let rest: f64 = observed[1..].iter().map(|r| r * self.round_ms).sum();
        (first + rest) / (y * self.round_ms)
    }

    /// Effective *estimated* throughput of a period under stale weights
    /// (Section V-C): `W_P(z) = ((y−1)·t_a + t_d)·W_x(zy+1) / (y·t_a)`.
    ///
    /// # Panics
    ///
    /// Panics if `y == 0`.
    pub fn period_effective_estimate(&self, estimated: f64, y: usize) -> f64 {
        assert!(y > 0, "period must contain at least one slot");
        ((y as f64 - 1.0) * self.round_ms + self.data_ms) * estimated / (y as f64 * self.round_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let t = TimeModel::default();
        assert_eq!(t.round_ms, 2000.0);
        assert_eq!(t.miniround_ms(), 250.0);
        assert_eq!(t.decision_ms(), 1000.0);
        assert_eq!(t.minirounds_per_decision(), 4);
        assert_eq!(t.theta(), 0.5);
    }

    #[test]
    fn single_slot_period_is_theta_scaled() {
        let t = TimeModel::default();
        let r = t.period_effective_throughput(&[100.0]);
        assert!((r - 50.0).abs() < 1e-12); // 0.5 · R_x, as in Section V
    }

    #[test]
    fn long_periods_approach_full_throughput() {
        let t = TimeModel::default();
        let obs = vec![100.0; 20];
        let r20 = t.period_effective_throughput(&obs);
        let r5 = t.period_effective_throughput(&obs[..5]);
        let r1 = t.period_effective_throughput(&obs[..1]);
        assert!(r1 < r5 && r5 < r20);
        // y=20 ⇒ 39/40 of the ideal (paper Section V-C).
        assert!((r20 - 100.0 * 39.0 / 40.0).abs() < 1e-9);
        // y=5 ⇒ 9/10.
        assert!((r5 - 100.0 * 9.0 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_scaling_matches_paper_fraction() {
        let t = TimeModel::default();
        // y=1: (0·ta + td)/ta = θ.
        assert!((t.period_effective_estimate(100.0, 1) - 50.0).abs() < 1e-12);
        // y=10: (9·2000+1000)/20000 = 19/20.
        assert!((t.period_effective_estimate(100.0, 10) - 95.0).abs() < 1e-12);
    }

    #[test]
    fn custom_model_theta() {
        let t = TimeModel {
            round_ms: 1000.0,
            broadcast_ms: 50.0,
            compute_ms: 25.0,
            data_ms: 750.0,
        };
        assert_eq!(t.theta(), 0.75);
        assert_eq!(t.miniround_ms(), 125.0);
        assert_eq!(t.minirounds_per_decision(), 2);
    }
}
