//! Integration tests of the adversarial-channel extension (paper §VII):
//! the full Algorithm 2 loop against oblivious non-stationary channels.

use mhca::bandit::policies::{CsUcb, DiscountedCsUcb};
use mhca::channels::{
    adversarial::Switching, process::TruncatedGaussian, ChannelMatrix, ChannelProcess,
};
use mhca::core::{
    runner::{run_policy, Algorithm2Config},
    Network,
};
use mhca::graph::unit_disk;
use rand::{rngs::StdRng, SeedableRng};

/// Network where even-indexed vertices carry square-wave channels and odd
/// ones honest stationary channels.
fn switching_network(n: usize, m: usize, dwell: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let (g, layout) = unit_disk::random_with_average_degree(n, 3.0, &mut rng);
    let processes: Vec<ChannelProcess> = (0..n * m)
        .map(|v| {
            if v % 2 == 0 {
                Switching::new(1200.0, 150.0, dwell).into()
            } else {
                TruncatedGaussian::symmetric(700.0, 70.0).into()
            }
        })
        .collect();
    Network::from_parts(
        g,
        ChannelMatrix::from_processes(n, m, processes, seed),
        Some(layout),
    )
}

#[test]
fn adversarial_runs_complete_and_produce_throughput() {
    let net = switching_network(10, 3, 200, 1);
    let cfg = Algorithm2Config::default().with_horizon(600);
    let run = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
    assert_eq!(run.slots, 600);
    assert!(run.average_observed_kbps > 0.0);
    // Feasibility holds under adversarial gains too.
    let s = net.strategy_from_is(&run.final_strategy_vertices);
    assert!(net.h().is_feasible(&s));
}

#[test]
fn discounting_helps_under_switching_channels() {
    // Across a few seeds, the discounted variant should win on average —
    // it forgets pre-switch observations; the stationary policy's clamped
    // bonus stops exploring and keeps stale estimates.
    let mut stationary_total = 0.0;
    let mut discounted_total = 0.0;
    for seed in 0..3 {
        let net = switching_network(12, 4, 300, 10 + seed);
        let cfg = Algorithm2Config::default()
            .with_horizon(2400)
            .with_seed(seed);
        let s = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        let d = run_policy(
            &net,
            &cfg,
            &mut DiscountedCsUcb::new(net.n_vertices(), 0.995, 2.0),
        );
        stationary_total += s.average_observed_kbps;
        discounted_total += d.average_observed_kbps;
    }
    assert!(
        discounted_total > stationary_total,
        "discounted {discounted_total} should beat stationary {stationary_total}"
    );
}

#[test]
fn stationary_channels_leave_discounting_roughly_neutral() {
    // On i.i.d. channels, mild discounting should not collapse throughput
    // (it only forgets slowly); sanity check against over-aggressive decay
    // regressions.
    let net = Network::random(10, 3, 3.0, 0.1, 5);
    let cfg = Algorithm2Config::default().with_horizon(800);
    let s = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
    let d = run_policy(
        &net,
        &cfg,
        &mut DiscountedCsUcb::new(net.n_vertices(), 0.999, 2.0),
    );
    assert!(
        d.average_expected_kbps > 0.8 * s.average_expected_kbps,
        "discounted {} collapsed vs stationary {}",
        d.average_expected_kbps,
        s.average_expected_kbps
    );
}
