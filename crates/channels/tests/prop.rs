//! Property-based tests for the channel substrate.

use mhca_channels::{adversarial, process, rates, ChannelMatrix, ChannelProcess};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matrix_value_is_pure_in_seed_t_vertex(n in 1usize..6, m in 1usize..5, seed in any::<u64>(), t in 0u64..10_000) {
        let a = ChannelMatrix::gaussian_from_rate_classes(n, m, 0.1, seed);
        let b = ChannelMatrix::gaussian_from_rate_classes(n, m, 0.1, seed);
        for v in 0..n * m {
            prop_assert_eq!(a.value(t, v), b.value(t, v));
        }
    }

    #[test]
    fn matrix_means_come_from_rate_classes(n in 1usize..6, m in 1usize..5, seed in any::<u64>()) {
        let a = ChannelMatrix::gaussian_from_rate_classes(n, m, 0.1, seed);
        for mu in a.means() {
            prop_assert!(rates::PAPER_RATE_CLASSES.contains(&mu));
        }
    }

    #[test]
    fn truncated_gaussian_stays_in_bounds(mu in 0.0f64..1000.0, frac in 0.0f64..1.0, t in 0u64..100, seed in any::<u64>()) {
        let p = ChannelProcess::from(process::TruncatedGaussian::symmetric(mu, frac * mu));
        let mut rng = StdRng::seed_from_u64(seed);
        let x = p.sample(t, &mut rng);
        prop_assert!(x >= 0.0 && x <= 2.0 * mu + 1e-9);
    }

    #[test]
    fn bernoulli_samples_are_two_valued(p in 0.0f64..=1.0, peak in 0.0f64..100.0, seed in any::<u64>()) {
        let ch = ChannelProcess::from(process::Bernoulli::new(p, peak));
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 0..50 {
            let x = ch.sample(t, &mut rng);
            prop_assert!(x == 0.0 || x == peak);
        }
    }

    #[test]
    fn adversarial_processes_are_deterministic_in_t(base in 1.0f64..50.0, t in 0u64..10_000) {
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(2);
        let sin = ChannelProcess::from(adversarial::Sinusoidal::new(base, base / 2.0, 37, 5));
        prop_assert_eq!(sin.sample(t, &mut rng1), sin.sample(t, &mut rng2));
        let sw = ChannelProcess::from(adversarial::Switching::new(base, base / 3.0, 7));
        prop_assert_eq!(sw.sample(t, &mut rng1), sw.sample(t, &mut rng2));
        let ramp = ChannelProcess::from(adversarial::Ramp::new(base, -0.01, 1000));
        prop_assert_eq!(ramp.sample(t, &mut rng1), ramp.sample(t, &mut rng2));
    }

    #[test]
    fn unit_normalization_roundtrips(rate in 0.0f64..2000.0) {
        let unit = rates::to_unit(rate);
        prop_assert!((rates::from_unit(unit) - rate).abs() < 1e-9);
    }
}
