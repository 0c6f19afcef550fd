//! [`ChannelProcess`], the closed set of channel-rate families, and the
//! parameters of its stochastic families.

use crate::adversarial::{Drift, Ramp, Sinusoidal, Switching};
use crate::dists;
use rand::{rngs::StdRng, Rng};

/// A channel-quality process: the data rate `ξ(t)` observed when a vertex
/// transmits at slot `t`.
///
/// The first four families are i.i.d. in `t`; the last four are the
/// oblivious adversaries of [`crate::adversarial`], deterministic in `t`.
/// Every family is **stateless**: a sample depends only on `t` and on the
/// RNG passed in, so realizations are reproducible and the
/// [`crate::ChannelMatrix`] can derive the per-`(vertex, t)` randomness
/// from a counter-based PRF.
#[derive(Debug, Clone)]
pub enum ChannelProcess {
    /// Always exactly one rate.
    Constant(Constant),
    /// On/off: a peak rate or nothing.
    Bernoulli(Bernoulli),
    /// The paper's clamped Gaussian.
    TruncatedGaussian(TruncatedGaussian),
    /// Uniform on an interval.
    Uniform(Uniform),
    /// A sine wave around a base rate.
    Sinusoidal(Sinusoidal),
    /// A square wave between two rates.
    Switching(Switching),
    /// A clamped straight line.
    Ramp(Ramp),
    /// A level that flips at declared breakpoints.
    Drift(Drift),
}

macro_rules! from_family {
    ($($family:ident),*) => {$(
        impl From<$family> for ChannelProcess {
            fn from(p: $family) -> Self {
                ChannelProcess::$family(p)
            }
        }
    )*};
}

from_family!(
    Constant,
    Bernoulli,
    TruncatedGaussian,
    Uniform,
    Sinusoidal,
    Switching,
    Ramp,
    Drift
);

impl ChannelProcess {
    /// Draws the rate observed at slot `t`.
    ///
    /// The i.i.d. families ignore `t`; the adversarial ones ignore `rng`
    /// and return [`ChannelProcess::mean_at`].
    pub fn sample(&self, t: u64, rng: &mut StdRng) -> f64 {
        match self {
            ChannelProcess::Constant(p) => p.rate,
            ChannelProcess::Bernoulli(p) => {
                if rng.gen::<f64>() < p.p {
                    p.peak
                } else {
                    0.0
                }
            }
            ChannelProcess::TruncatedGaussian(p) => {
                dists::normal(p.mu, p.sigma, rng).clamp(p.lo, p.hi)
            }
            ChannelProcess::Uniform(p) => p.lo + rng.gen::<f64>() * (p.hi - p.lo),
            _ => self.mean_at(t),
        }
    }

    /// The process mean `µ` — for adversarial processes, the long-run
    /// average rate.
    pub fn mean(&self) -> f64 {
        match self {
            ChannelProcess::Constant(p) => p.rate,
            ChannelProcess::Bernoulli(p) => p.p * p.peak,
            // Symmetric clamping about µ keeps the mean; the tiny
            // asymmetric case (µ outside [lo,hi] midpoint) is ignored by
            // design — tests verify the error is negligible for the σ used
            // in experiments.
            ChannelProcess::TruncatedGaussian(p) => p.mu.clamp(p.lo, p.hi),
            ChannelProcess::Uniform(p) => 0.5 * (p.lo + p.hi),
            ChannelProcess::Sinusoidal(p) => p.base,
            ChannelProcess::Switching(p) => 0.5 * (p.high + p.low),
            // Average of the clamped line over [0, horizon).
            ChannelProcess::Ramp(p) => {
                (0..p.horizon).map(|t| p.value_at(t)).sum::<f64>() / p.horizon as f64
            }
            ChannelProcess::Drift(p) => p.base,
        }
    }

    /// The *instantaneous* design mean at slot `t`.
    ///
    /// For i.i.d. processes this equals [`ChannelProcess::mean`]; for the
    /// deterministic adversarial processes (sinusoidal, switching, ramp,
    /// drifting) it is the value the schedule takes at `t`. The Algorithm 2
    /// runner uses it to price the windowed-regret oracle under
    /// non-stationary channels.
    pub fn mean_at(&self, t: u64) -> f64 {
        match self {
            ChannelProcess::Sinusoidal(p) => p.value_at(t),
            ChannelProcess::Switching(p) => p.value_at(t),
            ChannelProcess::Ramp(p) => p.value_at(t),
            ChannelProcess::Drift(p) => p.value_at(t),
            _ => self.mean(),
        }
    }
}

/// Degenerate process: always exactly `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant {
    /// The constant rate returned by every sample.
    pub rate: f64,
}

impl Constant {
    /// Creates a constant-rate process.
    pub fn new(rate: f64) -> Self {
        Constant { rate }
    }
}

/// Bernoulli process: rate `peak` with probability `p`, else `0`.
///
/// This is the classical good/bad channel model of the single-user MAB
/// literature the paper cites (its refs 21 and 22).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    /// Success probability.
    pub p: f64,
    /// Rate delivered on success.
    pub peak: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli process.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]` or `peak < 0`.
    pub fn new(p: f64, peak: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(peak >= 0.0, "peak must be non-negative");
        Bernoulli { p, peak }
    }
}

/// Gaussian process truncated (by clamping) to `[lo, hi]`.
///
/// The paper's simulations use i.i.d. Gaussian rates; clamping keeps rates
/// physical (non-negative, bounded) while leaving the mean essentially
/// unchanged for moderate σ because the bounds are symmetric about the
/// mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedGaussian {
    /// Mean of the underlying Gaussian.
    pub mu: f64,
    /// Standard deviation of the underlying Gaussian.
    pub sigma: f64,
    /// Lower clamp bound.
    pub lo: f64,
    /// Upper clamp bound.
    pub hi: f64,
}

impl TruncatedGaussian {
    /// Gaussian with symmetric clamp `[0, 2µ]`, preserving the mean.
    ///
    /// # Panics
    ///
    /// Panics if `mu < 0` or `sigma < 0`.
    pub fn symmetric(mu: f64, sigma: f64) -> Self {
        assert!(mu >= 0.0, "mean must be non-negative");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        TruncatedGaussian {
            mu,
            sigma,
            lo: 0.0,
            hi: 2.0 * mu,
        }
    }
}

/// Uniform process on `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (exclusive).
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform process on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "invalid bounds");
        Uniform { lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn empirical_mean(p: &ChannelProcess, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|t| p.sample(t as u64, &mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let p = ChannelProcess::from(Constant::new(3.5));
        let mut rng = StdRng::seed_from_u64(0);
        for t in 0..10 {
            assert_eq!(p.sample(t, &mut rng), 3.5);
        }
        assert_eq!(p.mean(), 3.5);
    }

    #[test]
    fn bernoulli_mean_matches() {
        let p = ChannelProcess::from(Bernoulli::new(0.3, 10.0));
        assert_eq!(p.mean(), 3.0);
        let m = empirical_mean(&p, 100_000, 1);
        assert!((m - 3.0).abs() < 0.1, "empirical {m}");
    }

    #[test]
    fn truncated_gaussian_mean_preserved_for_moderate_sigma() {
        let p = ChannelProcess::from(TruncatedGaussian::symmetric(600.0, 60.0));
        let m = empirical_mean(&p, 100_000, 2);
        assert!((m - 600.0).abs() < 2.0, "empirical {m}");
        assert_eq!(p.mean(), 600.0);
    }

    #[test]
    fn truncated_gaussian_respects_bounds() {
        let p = ChannelProcess::from(TruncatedGaussian::symmetric(1.0, 5.0));
        let mut rng = StdRng::seed_from_u64(3);
        for t in 0..10_000 {
            let x = p.sample(t, &mut rng);
            assert!((0.0..=2.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean() {
        let p = ChannelProcess::from(Uniform::new(2.0, 6.0));
        assert_eq!(p.mean(), 4.0);
        let m = empirical_mean(&p, 100_000, 4);
        assert!((m - 4.0).abs() < 0.05, "empirical {m}");
    }

    #[test]
    fn cloned_process_keeps_its_mean() {
        let p = ChannelProcess::from(Bernoulli::new(0.5, 2.0));
        let q = p.clone();
        assert_eq!(q.mean(), 1.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bernoulli_rejects_bad_p() {
        let _ = Bernoulli::new(1.5, 1.0);
    }
}
