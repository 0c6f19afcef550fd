//! Declarative channel-model specs — enum-dispatched [`ChannelMatrix`]
//! construction for spec-driven experiment campaigns.
//!
//! A `(spec, n, m, seed)` quadruple fully determines the channel matrix.
//! Every family draws its per-vertex **means** from the paper's 8 rate
//! classes with the same seed stream as
//! [`ChannelMatrix::gaussian_from_rate_classes`], so switching the process
//! family (stochastic ↔ adversarial) keeps the mean matrix — and hence the
//! optimal strategy — identical. That is exactly what a campaign sweeping
//! the channel-model axis wants: same planning problem, different
//! realization dynamics.

use crate::{
    adversarial::{Drift, Ramp, Sinusoidal, Switching},
    matrix::ChannelMatrix,
    process::{Bernoulli, Constant, Uniform},
};

/// Declarative channel-model family.
///
/// # Example
///
/// A `(spec, n, m, seed)` quadruple fully determines the matrix, and every
/// family shares the Gaussian family's mean matrix at the same seed:
///
/// ```
/// use mhca_channels::ChannelModelSpec;
///
/// let gaussian = ChannelModelSpec::default(); // the paper's σ = 0.1µ
/// let drifting = ChannelModelSpec::Drifting {
///     shift_frac: 0.5,
///     breakpoints: vec![500, 1000],
///     ramp: 0,
/// };
/// assert_eq!(
///     gaussian.build(4, 3, 7).means(),
///     drifting.build(4, 3, 7).means(),
/// );
/// // The drifting family's *instantaneous* mean flips at each breakpoint.
/// let m = drifting.build(4, 3, 7);
/// assert_ne!(m.mean_at(0, 0), m.mean_at(500, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelModelSpec {
    /// The paper's Section V workload: truncated-Gaussian rates with
    /// `σ = sigma_frac · µ` around rate-class means.
    GaussianRateClasses {
        /// Noise scale as a fraction of each mean.
        sigma_frac: f64,
    },
    /// Degenerate noiseless rates — every sample equals the mean. Useful
    /// for isolating decision quality from learning noise.
    ConstantRateClasses,
    /// On/off channels: rate `µ/p` with probability `p`, else 0 (mean
    /// preserved). The high-variance stress case for index policies.
    BernoulliRateClasses {
        /// Success probability `p ∈ (0, 1]`.
        p: f64,
    },
    /// Uniform rates on `[µ·(1−spread), µ·(1+spread)]` (mean preserved).
    UniformRateClasses {
        /// Half-width as a fraction of the mean, in `[0, 1]`.
        spread_frac: f64,
    },
    /// Oblivious adversary (Section VII future work): sinusoidal rates
    /// `µ + amp_frac·µ·sin(2πt/period)`, phase-staggered per vertex.
    AdversarialSinusoidal {
        /// Oscillation amplitude as a fraction of the mean, in `[0, 1]`.
        amp_frac: f64,
        /// Period in slots.
        period: u64,
    },
    /// Oblivious adversary: square wave between `(1+swing)·µ` and
    /// `(1−swing)·µ` every `dwell` slots (long-run mean `µ`).
    AdversarialSwitching {
        /// Swing as a fraction of the mean, in `[0, 1]`.
        swing_frac: f64,
        /// Phase length in slots.
        dwell: u64,
    },
    /// Oblivious adversary: rate decays linearly from `2µ` at `t = 0` to 0
    /// at `t = horizon` (long-run mean ≈ `µ`) — the drifting-quality case
    /// that is hardest for stationarity-assuming policies.
    AdversarialRamp {
        /// Slots over which the rate decays to zero.
        horizon: u64,
    },
    /// Piecewise-stationary drift: each vertex's rate runs at
    /// `µ·(1 ± shift_frac)`, flipping at every declared breakpoint, with
    /// vertex parity staggering the starting sign (even vertices start
    /// high, odd low) so the *best strategy* changes at each breakpoint
    /// while total capacity stays level. `ramp > 0` smooths each shift
    /// linearly over that many slots (the smooth-drift variant); `0`
    /// steps instantly (piecewise stationary). The workload of the
    /// windowed-regret scenarios: stationary policies re-accumulate
    /// regret after every breakpoint.
    Drifting {
        /// Shift amplitude as a fraction of the mean, in `[0, 1]`.
        shift_frac: f64,
        /// Slots at which levels flip (strictly increasing, non-zero).
        breakpoints: Vec<u64>,
        /// Slots over which each flip ramps linearly (`0` = step). Must
        /// not exceed the gap between consecutive breakpoints — a ramp
        /// has to finish before the next flip begins.
        ramp: u64,
    },
}

impl ChannelModelSpec {
    /// Builds the `n × m` channel matrix. Deterministic in
    /// `(self, n, m, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `n·m == 0` or a family parameter is out of range
    /// (`p ∉ (0, 1]`, fractions outside `[0, 1]`, zero periods).
    pub fn build(&self, n: usize, m: usize, seed: u64) -> ChannelMatrix {
        match *self {
            ChannelModelSpec::Drifting {
                shift_frac,
                ref breakpoints,
                ramp,
            } => {
                assert!(
                    (0.0..=1.0).contains(&shift_frac),
                    "shift fraction must be in [0, 1]"
                );
                assert!(
                    !breakpoints.is_empty(),
                    "drifting family needs at least one breakpoint"
                );
                ChannelMatrix::from_rate_class_draws(n, m, seed, |mu, vertex| {
                    // Even vertices start high, odd low: capacity stays
                    // level while the best strategy flips per breakpoint.
                    Drift::new(
                        mu,
                        shift_frac * mu,
                        breakpoints.clone(),
                        ramp,
                        vertex % 2 == 0,
                    )
                    .into()
                })
            }
            ChannelModelSpec::GaussianRateClasses { sigma_frac } => {
                ChannelMatrix::gaussian_from_rate_classes(n, m, sigma_frac, seed)
            }
            ChannelModelSpec::ConstantRateClasses => {
                ChannelMatrix::from_rate_class_draws(n, m, seed, |mu, _| Constant::new(mu).into())
            }
            ChannelModelSpec::BernoulliRateClasses { p } => {
                assert!(p > 0.0 && p <= 1.0, "bernoulli p must be in (0, 1]");
                ChannelMatrix::from_rate_class_draws(n, m, seed, |mu, _| {
                    Bernoulli::new(p, mu / p).into()
                })
            }
            ChannelModelSpec::UniformRateClasses { spread_frac } => {
                assert!(
                    (0.0..=1.0).contains(&spread_frac),
                    "spread fraction must be in [0, 1]"
                );
                ChannelMatrix::from_rate_class_draws(n, m, seed, |mu, _| {
                    Uniform::new(mu * (1.0 - spread_frac), mu * (1.0 + spread_frac)).into()
                })
            }
            ChannelModelSpec::AdversarialSinusoidal { amp_frac, period } => {
                assert!(
                    (0.0..=1.0).contains(&amp_frac),
                    "amplitude fraction must be in [0, 1]"
                );
                ChannelMatrix::from_rate_class_draws(n, m, seed, |mu, vertex| {
                    // Stagger phases so co-located vertices don't peak in
                    // lockstep (vertex index is stable and seed-free).
                    let phase = (vertex as u64).wrapping_mul(7) % period.max(1);
                    Sinusoidal::new(mu, amp_frac * mu, period, phase).into()
                })
            }
            ChannelModelSpec::AdversarialSwitching { swing_frac, dwell } => {
                assert!(
                    (0.0..=1.0).contains(&swing_frac),
                    "swing fraction must be in [0, 1]"
                );
                ChannelMatrix::from_rate_class_draws(n, m, seed, |mu, _| {
                    Switching::new(mu * (1.0 + swing_frac), mu * (1.0 - swing_frac), dwell).into()
                })
            }
            ChannelModelSpec::AdversarialRamp { horizon } => {
                ChannelMatrix::from_rate_class_draws(n, m, seed, |mu, _| {
                    Ramp::new(2.0 * mu, -2.0 * mu / horizon as f64, horizon).into()
                })
            }
        }
    }

    /// Short kebab-case family name for artifact paths and CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            ChannelModelSpec::GaussianRateClasses { .. } => "gaussian",
            ChannelModelSpec::ConstantRateClasses => "constant",
            ChannelModelSpec::BernoulliRateClasses { .. } => "bernoulli",
            ChannelModelSpec::UniformRateClasses { .. } => "uniform",
            ChannelModelSpec::AdversarialSinusoidal { .. } => "adv-sinusoidal",
            ChannelModelSpec::AdversarialSwitching { .. } => "adv-switching",
            ChannelModelSpec::AdversarialRamp { .. } => "adv-ramp",
            ChannelModelSpec::Drifting { .. } => "drifting",
        }
    }
}

impl Default for ChannelModelSpec {
    /// The paper's default: truncated Gaussians with `σ = 0.1·µ`.
    fn default() -> Self {
        ChannelModelSpec::GaussianRateClasses { sigma_frac: 0.1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates;

    fn families() -> [ChannelModelSpec; 8] {
        [
            ChannelModelSpec::GaussianRateClasses { sigma_frac: 0.1 },
            ChannelModelSpec::ConstantRateClasses,
            ChannelModelSpec::BernoulliRateClasses { p: 0.5 },
            ChannelModelSpec::UniformRateClasses { spread_frac: 0.2 },
            ChannelModelSpec::AdversarialSinusoidal {
                amp_frac: 0.3,
                period: 50,
            },
            ChannelModelSpec::AdversarialSwitching {
                swing_frac: 0.5,
                dwell: 20,
            },
            ChannelModelSpec::AdversarialRamp { horizon: 1000 },
            ChannelModelSpec::Drifting {
                shift_frac: 0.5,
                breakpoints: vec![100, 200],
                ramp: 0,
            },
        ]
    }

    #[test]
    fn all_families_share_the_mean_matrix() {
        let reference = ChannelModelSpec::default().build(4, 3, 77).means();
        for fam in families() {
            let means = fam.build(4, 3, 77).means();
            for (a, b) in means.iter().zip(&reference) {
                // The ramp family's discretized long-run mean is off by
                // µ/horizon; everyone else matches exactly.
                assert!(
                    (a / b - 1.0).abs() < 2e-3,
                    "{}: mean {a} vs reference {b}",
                    fam.label()
                );
            }
        }
    }

    #[test]
    fn means_come_from_rate_classes() {
        for fam in families() {
            let m = fam.build(3, 2, 5);
            for v in 0..6 {
                let mu = m.mean(v);
                assert!(
                    rates::PAPER_RATE_CLASSES
                        .iter()
                        .any(|&c| (mu / c - 1.0).abs() < 2e-3),
                    "{}: mean {mu} not a rate class",
                    fam.label()
                );
            }
        }
    }

    #[test]
    fn builds_are_seed_deterministic() {
        for fam in families() {
            let a = fam.build(3, 2, 9);
            let b = fam.build(3, 2, 9);
            assert_eq!(a.means(), b.means(), "{}", fam.label());
            for v in 0..6 {
                assert_eq!(a.value(13, v), b.value(13, v), "{}", fam.label());
            }
        }
    }

    #[test]
    fn gaussian_spec_matches_legacy_constructor() {
        let spec = ChannelModelSpec::GaussianRateClasses { sigma_frac: 0.1 }.build(5, 4, 123);
        let legacy = ChannelMatrix::gaussian_from_rate_classes(5, 4, 0.1, 123);
        assert_eq!(spec.means(), legacy.means());
        for v in 0..20 {
            assert_eq!(spec.value(7, v), legacy.value(7, v));
        }
    }

    #[test]
    fn default_family_label_is_gaussian() {
        assert_eq!(ChannelModelSpec::default().label(), "gaussian");
    }

    #[test]
    fn bernoulli_family_is_on_off() {
        let m = ChannelModelSpec::BernoulliRateClasses { p: 0.5 }.build(2, 2, 3);
        for v in 0..4 {
            let mu = m.mean(v);
            for t in 0..20 {
                let x = m.value(t, v);
                assert!(
                    x == 0.0 || (x - 2.0 * mu).abs() < 1e-9,
                    "bernoulli sample {x} not in {{0, 2µ={}}}",
                    2.0 * mu
                );
            }
        }
    }
}
