//! Golden oracle for channel draws: one FNV-1a digest over the bit
//! patterns of `value(t, v)`, `mean(v)` and `mean_at(t, v)` for every
//! `ChannelModelSpec` family, and for the mixed switching/Gaussian matrix
//! that `tests/adversarial.rs` builds through `from_processes`.
//!
//! Each family is built at two `(n, m, seed)` shapes, and read at slots
//! on both sides of every schedule edge the families declare: the
//! switching dwell (20, 40), the drift breakpoints (100, 200) and the end
//! of the drift ramp (105), the ramp horizon (1000), and one slot far out.
//! Any change to a sampler, to the per-`(seed, t, vertex)` stream, to the
//! rate-class mean draw or to a family's schedule moves the digest.

use mhca_channels::{
    adversarial::Switching, process::TruncatedGaussian, ChannelMatrix, ChannelModelSpec,
    ChannelProcess,
};

/// The digest this file pins. On a mismatch the test prints the new one.
const GOLDEN: u64 = 0xf965_0fdf_0775_a80d;

const SHAPES: [(usize, usize, u64); 2] = [(4, 3, 7), (9, 5, 20_261_020)];

const SLOTS: [u64; 20] = [
    0,
    1,
    19,
    20,
    21,
    39,
    40,
    99,
    100,
    101,
    104,
    105,
    106,
    199,
    200,
    201,
    999,
    1000,
    1001,
    1 << 40,
];

fn families() -> Vec<ChannelModelSpec> {
    vec![
        ChannelModelSpec::GaussianRateClasses { sigma_frac: 0.1 },
        ChannelModelSpec::GaussianRateClasses { sigma_frac: 0.5 },
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
        ChannelModelSpec::Drifting {
            shift_frac: 0.5,
            breakpoints: vec![100, 200],
            ramp: 5,
        },
    ]
}

/// The mixed matrix of `tests/adversarial.rs`: even vertices carry square
/// waves, odd ones stationary truncated Gaussians.
fn mixed(n: usize, m: usize, dwell: u64, seed: u64) -> ChannelMatrix {
    let processes: Vec<ChannelProcess> = (0..n * m)
        .map(|v| {
            if v % 2 == 0 {
                Switching::new(1200.0, 150.0, dwell).into()
            } else {
                TruncatedGaussian::symmetric(700.0, 70.0).into()
            }
        })
        .collect();
    ChannelMatrix::from_processes(n, m, processes, seed)
}

fn eat(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn eat_matrix(hash: &mut u64, m: &ChannelMatrix, slots: &[u64]) {
    for v in 0..m.n_vertices() {
        eat(hash, m.mean(v).to_bits());
        for &t in slots {
            eat(hash, m.value(t, v).to_bits());
            eat(hash, m.mean_at(t, v).to_bits());
        }
    }
}

#[test]
fn every_family_draws_the_pinned_bits() {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for spec in families() {
        for (n, m, seed) in SHAPES {
            eat_matrix(&mut hash, &spec.build(n, m, seed), &SLOTS);
        }
    }
    for (n, m, dwell, seed) in [(10, 3, 200, 1), (12, 4, 300, 10)] {
        eat_matrix(
            &mut hash,
            &mixed(n, m, dwell, seed),
            &[0, 1, 199, 200, 201, 299, 300, 301, 599, 600],
        );
    }
    assert_eq!(hash, GOLDEN, "draw digest moved: now {hash:#018x}");
}
