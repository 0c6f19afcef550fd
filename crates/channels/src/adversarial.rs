//! Non-stochastic (adversarial) channel processes.
//!
//! Section VII of the paper lists "the adversary case where gains are
//! generated by an adversary that may obliviously … learn to play against
//! our strategies" as future work. These processes implement an *oblivious*
//! adversary: the rate sequence is a fixed function of the slot index `t`,
//! decided before the learner runs. Each is a variant of
//! [`crate::ChannelProcess`], like the stochastic families, so every policy
//! and experiment in the workspace can be rerun against them unchanged.

/// Sinusoidal rate: `base + amp·sin(2π·(t + phase)/period)`, clamped at 0.
///
/// Long-run mean is `base` (the sinus integrates to zero over a period when
/// `amp ≤ base`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sinusoidal {
    /// Baseline rate.
    pub base: f64,
    /// Oscillation amplitude.
    pub amp: f64,
    /// Period in slots.
    pub period: u64,
    /// Phase offset in slots.
    pub phase: u64,
}

impl Sinusoidal {
    /// Creates a sinusoidal process.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `base < 0` or `amp < 0`.
    pub fn new(base: f64, amp: f64, period: u64, phase: u64) -> Self {
        assert!(period > 0, "period must be positive");
        assert!(base >= 0.0 && amp >= 0.0, "negative parameters");
        Sinusoidal {
            base,
            amp,
            period,
            phase,
        }
    }

    /// The (deterministic) rate at slot `t`.
    pub(crate) fn value_at(&self, t: u64) -> f64 {
        let angle = 2.0 * std::f64::consts::PI * ((t + self.phase) % self.period) as f64
            / self.period as f64;
        (self.base + self.amp * angle.sin()).max(0.0)
    }
}

/// Piecewise-constant rate that switches between `high` and `low` every
/// `dwell` slots (a square wave). Long-run mean is the midpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Switching {
    /// Rate during the high phase.
    pub high: f64,
    /// Rate during the low phase.
    pub low: f64,
    /// Phase length in slots.
    pub dwell: u64,
}

impl Switching {
    /// Creates a switching process.
    ///
    /// # Panics
    ///
    /// Panics if `dwell == 0` or rates are negative.
    pub fn new(high: f64, low: f64, dwell: u64) -> Self {
        assert!(dwell > 0, "dwell must be positive");
        assert!(high >= 0.0 && low >= 0.0, "negative rates");
        Switching { high, low, dwell }
    }

    /// The (deterministic) rate at slot `t`.
    pub(crate) fn value_at(&self, t: u64) -> f64 {
        if (t / self.dwell).is_multiple_of(2) {
            self.high
        } else {
            self.low
        }
    }
}

/// Linearly decaying (or growing) rate: `start + slope·t`, clamped at 0.
///
/// Models a channel whose quality drifts over the horizon — the hardest
/// oblivious case for policies that rely on stationarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ramp {
    /// Rate at `t = 0`.
    pub start: f64,
    /// Per-slot rate change (may be negative).
    pub slope: f64,
    /// Horizon used to report the long-run mean.
    pub horizon: u64,
}

impl Ramp {
    /// Creates a ramp process.
    ///
    /// # Panics
    ///
    /// Panics if `start < 0` or `horizon == 0`.
    pub fn new(start: f64, slope: f64, horizon: u64) -> Self {
        assert!(start >= 0.0, "negative start");
        assert!(horizon > 0, "horizon must be positive");
        Ramp {
            start,
            slope,
            horizon,
        }
    }

    /// The (deterministic) rate at slot `t`.
    pub(crate) fn value_at(&self, t: u64) -> f64 {
        (self.start + self.slope * t as f64).max(0.0)
    }
}

/// Piecewise-stationary drifting rate: the level alternates between
/// `base + shift` and `base − shift`, flipping at each declared
/// breakpoint; `ramp > 0` smooths every flip linearly over that many
/// slots instead of stepping.
///
/// This is the workload the paper's stationarity assumption bends under:
/// within a segment the channel looks i.i.d.-constant, but the best
/// strategy changes at every breakpoint, so a stationary index policy
/// (CS-UCB, LLR) accumulates fresh regret after each shift — exactly
/// what the `windowed-regret` observer measures.
/// [`ChannelProcess::mean`](crate::ChannelProcess::mean) reports the design
/// mean `base` (the time average when the high/low segments balance);
/// [`ChannelProcess::mean_at`](crate::ChannelProcess::mean_at) reports the
/// instantaneous level, which the runner's drift oracle prices against.
///
/// # Example
///
/// ```
/// use mhca_channels::{adversarial::Drift, ChannelProcess};
///
/// // 600 ± 300 kbps, stepping down at slot 100 and back up at 200.
/// let p = ChannelProcess::from(Drift::new(600.0, 300.0, vec![100, 200], 0, true));
/// assert_eq!(p.mean_at(0), 900.0);
/// assert_eq!(p.mean_at(150), 300.0);
/// assert_eq!(p.mean_at(250), 900.0);
/// assert_eq!(p.mean(), 600.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Design mean (the level the high/low segments straddle).
    pub base: f64,
    /// Shift amplitude: segments run at `base ± shift`.
    pub shift: f64,
    /// Slots at which the level flips (strictly increasing, non-zero).
    pub breakpoints: Vec<u64>,
    /// Slots over which each flip ramps linearly (`0` = step change).
    pub ramp: u64,
    /// Whether the first segment runs high (`base + shift`).
    pub start_high: bool,
}

impl Drift {
    /// Creates a drifting process.
    ///
    /// # Panics
    ///
    /// Panics if `base < 0`, `shift ∉ [0, base]` (levels must stay
    /// non-negative), the breakpoints are not strictly increasing and
    /// positive, or `ramp` exceeds the gap between two consecutive
    /// breakpoints (a ramp must finish before the next flip begins —
    /// otherwise the level would jump discontinuously from mid-ramp,
    /// the opposite of what smoothing promises).
    pub fn new(base: f64, shift: f64, breakpoints: Vec<u64>, ramp: u64, start_high: bool) -> Self {
        assert!(base >= 0.0, "negative base");
        assert!(
            (0.0..=base).contains(&shift),
            "shift must be in [0, base] to keep rates non-negative"
        );
        assert!(
            breakpoints.first().is_none_or(|&b| b > 0)
                && breakpoints.windows(2).all(|w| w[0] < w[1]),
            "breakpoints must be strictly increasing and positive"
        );
        assert!(
            breakpoints.windows(2).all(|w| ramp <= w[1] - w[0]),
            "ramp must not exceed the gap between consecutive breakpoints"
        );
        Drift {
            base,
            shift,
            breakpoints,
            ramp,
            start_high,
        }
    }

    /// Level of segment `seg` (segments alternate high/low).
    fn level(&self, seg: usize) -> f64 {
        if seg.is_multiple_of(2) == self.start_high {
            self.base + self.shift
        } else {
            self.base - self.shift
        }
    }

    /// The (deterministic) rate at slot `t`.
    pub(crate) fn value_at(&self, t: u64) -> f64 {
        let seg = self.breakpoints.partition_point(|&b| b <= t);
        let cur = self.level(seg);
        if seg > 0 && self.ramp > 0 {
            let since = t - self.breakpoints[seg - 1];
            if since < self.ramp {
                let prev = self.level(seg - 1);
                let frac = (since + 1) as f64 / self.ramp as f64;
                return prev + (cur - prev) * frac.min(1.0);
            }
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChannelProcess;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sinusoidal_is_deterministic_in_t() {
        let p = ChannelProcess::from(Sinusoidal::new(10.0, 5.0, 20, 0));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.sample(3, &mut rng), p.sample(3, &mut rng));
        assert_eq!(p.sample(3, &mut rng), p.sample(23, &mut rng)); // periodic
    }

    #[test]
    fn sinusoidal_average_over_period_is_base() {
        let p = ChannelProcess::from(Sinusoidal::new(10.0, 5.0, 100, 7));
        let mut rng = StdRng::seed_from_u64(0);
        let avg: f64 = (0..100).map(|t| p.sample(t, &mut rng)).sum::<f64>() / 100.0;
        assert!((avg - 10.0).abs() < 0.01, "avg {avg}");
    }

    #[test]
    fn switching_square_wave() {
        let p = ChannelProcess::from(Switching::new(8.0, 2.0, 3));
        let mut rng = StdRng::seed_from_u64(0);
        let seq: Vec<f64> = (0..8).map(|t| p.sample(t, &mut rng)).collect();
        assert_eq!(seq, vec![8.0, 8.0, 8.0, 2.0, 2.0, 2.0, 8.0, 8.0]);
        assert_eq!(p.mean(), 5.0);
    }

    #[test]
    fn ramp_clamps_at_zero() {
        let p = ChannelProcess::from(Ramp::new(10.0, -1.0, 20));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.sample(15, &mut rng), 0.0);
        assert_eq!(p.sample(0, &mut rng), 10.0);
        // Mean over horizon 20: values 10,9,...,1,0,0,...  = 55/20
        assert!((p.mean() - 55.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_processes_report_instantaneous_means() {
        let mut rng = StdRng::seed_from_u64(0);
        let sin = ChannelProcess::from(Sinusoidal::new(10.0, 5.0, 20, 3));
        let sw = ChannelProcess::from(Switching::new(8.0, 2.0, 3));
        let ramp = ChannelProcess::from(Ramp::new(10.0, -1.0, 20));
        for t in 0..40 {
            assert_eq!(sin.mean_at(t), sin.sample(t, &mut rng));
            assert_eq!(sw.mean_at(t), sw.sample(t, &mut rng));
            assert_eq!(ramp.mean_at(t), ramp.sample(t, &mut rng));
        }
    }

    #[test]
    fn drift_steps_at_declared_breakpoints() {
        let p = ChannelProcess::from(Drift::new(100.0, 50.0, vec![10, 25, 40], 0, true));
        let mut rng = StdRng::seed_from_u64(0);
        let at = |t| p.sample(t, &mut StdRng::seed_from_u64(0));
        assert_eq!(at(0), 150.0);
        assert_eq!(at(9), 150.0);
        assert_eq!(at(10), 50.0); // first flip
        assert_eq!(at(24), 50.0);
        assert_eq!(at(25), 150.0); // second flip
        assert_eq!(at(40), 50.0); // third flip
        assert_eq!(p.mean(), 100.0);
        // The opposite-parity process mirrors the schedule.
        let q = ChannelProcess::from(Drift::new(100.0, 50.0, vec![10, 25, 40], 0, false));
        assert_eq!(q.sample(0, &mut rng), 50.0);
        assert_eq!(q.sample(10, &mut rng), 150.0);
    }

    #[test]
    fn drift_ramp_variant_interpolates_the_shift() {
        let p = ChannelProcess::from(Drift::new(100.0, 50.0, vec![10], 5, true));
        // Before the breakpoint: the high level.
        assert_eq!(p.mean_at(9), 150.0);
        // During the ramp: strictly decreasing toward the low level.
        let during: Vec<f64> = (10..15).map(|t| p.mean_at(t)).collect();
        for w in during.windows(2) {
            assert!(w[1] < w[0], "ramp must descend: {during:?}");
        }
        assert!(during.iter().all(|&x| (50.0..150.0).contains(&x)));
        // After the ramp: settled at the new level.
        assert_eq!(p.mean_at(15), 50.0);
        assert_eq!(p.mean_at(100), 50.0);
    }

    #[test]
    fn drift_sign_balanced_schedule_time_averages_to_base() {
        // Equal-length segments: the long-run average equals the design
        // mean exactly.
        let p = ChannelProcess::from(Drift::new(100.0, 60.0, vec![50, 100, 150], 0, true));
        let avg: f64 = (0..200).map(|t| p.mean_at(t)).sum::<f64>() / 200.0;
        assert!((avg - 100.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn drift_rejects_unsorted_breakpoints() {
        let _ = Drift::new(1.0, 0.5, vec![20, 10], 0, true);
    }

    #[test]
    #[should_panic(expected = "gap between consecutive breakpoints")]
    fn drift_rejects_ramp_longer_than_a_segment() {
        // A ramp of 5 cannot finish inside the 2-slot segment [10, 12):
        // the level would jump discontinuously from mid-ramp at 12.
        let _ = Drift::new(100.0, 50.0, vec![10, 12], 5, true);
    }

    #[test]
    fn drift_ramp_equal_to_gap_is_continuous() {
        // ramp == gap is the boundary case: the ramp completes exactly
        // when the next flip begins, so consecutive samples never jump
        // by more than one ramp step.
        let p = ChannelProcess::from(Drift::new(100.0, 50.0, vec![10, 15], 5, true));
        let max_step = 2.0 * 50.0 / 5.0; // full swing spread over 5 slots
        for t in 0..30 {
            let a = p.mean_at(t);
            let b = p.mean_at(t + 1);
            assert!(
                (a - b).abs() <= max_step + 1e-9,
                "discontinuity at t={t}: {a} -> {b}"
            );
        }
    }
}
