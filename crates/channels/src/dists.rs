//! In-crate samplers for the distributions the channel models need.
//!
//! Only `rand`'s uniform primitives are assumed; Gaussian variates come
//! from the Box–Muller transform, so no extra dependency is required.

use rand::Rng;

/// Standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against log(0); `gen` yields [0, 1), so flip to (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal variate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `std_dev < 0` or either parameter is non-finite.
pub fn normal<R: Rng + ?Sized>(mean: f64, std_dev: f64, rng: &mut R) -> f64 {
    assert!(mean.is_finite() && std_dev.is_finite(), "non-finite params");
    assert!(std_dev >= 0.0, "negative standard deviation");
    mean + std_dev * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = moments(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn normal_shift_and_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..100_000).map(|_| normal(5.0, 2.0, &mut rng)).collect();
        let (mean, var) = moments(&samples);
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }
}
