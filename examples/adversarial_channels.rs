//! The paper's Section VII future-work scenario: channel gains generated
//! by an oblivious adversary instead of an i.i.d. process.
//!
//! Half the channels are square waves (good ↔ bad every 400 slots), so a
//! stationary learner that locks onto early observations keeps paying for
//! stale estimates. The discounted CS-UCB extension re-explores and
//! tracks the switches.
//!
//! Run with: `cargo run --release --example adversarial_channels`

use mhca::bandit::policies::{CsUcb, DiscountedCsUcb, IndexPolicy};
use mhca::channels::{
    adversarial::Switching, process::TruncatedGaussian, ChannelMatrix, ChannelProcess,
};
use mhca::core::{
    runner::{run_policy, Algorithm2Config},
    Network,
};
use mhca::graph::unit_disk;
use rand::{rngs::StdRng, SeedableRng};

fn adversarial_network(n: usize, m: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let (g, layout) = unit_disk::random_with_average_degree(n, 3.5, &mut rng);
    let processes: Vec<ChannelProcess> = (0..n * m)
        .map(|v| {
            if v % 2 == 0 {
                // Square wave: looks great for 400 slots, then collapses.
                Switching::new(1200.0, 150.0, 400).into()
            } else {
                // Honest stationary channel of middling quality.
                TruncatedGaussian::symmetric(700.0, 70.0).into()
            }
        })
        .collect();
    let channels = ChannelMatrix::from_processes(n, m, processes, seed);
    Network::from_parts(g, channels, Some(layout))
}

fn main() {
    let (n, m) = (15, 4);
    let net = adversarial_network(n, m, 7);
    let horizon = 4000;
    let cfg = Algorithm2Config::default().with_horizon(horizon);

    println!("adversarial workload: {n} users x {m} channels, {horizon} slots,");
    println!("even channels switch 1200 <-> 150 kbps every 400 slots\n");

    let k = net.n_vertices();
    let runs: Vec<(&str, Box<dyn IndexPolicy>)> = vec![
        ("stationary cs-ucb", Box::new(CsUcb::new(2.0))),
        (
            "discounted cs-ucb (gamma=0.995)",
            Box::new(DiscountedCsUcb::new(k, 0.995, 2.0)),
        ),
    ];
    println!(
        "{:>34} {:>16} {:>16}",
        "policy", "observed (kbps)", "effective (kbps)"
    );
    for (label, mut policy) in runs {
        let run = run_policy(&net, &cfg, policy.as_mut());
        println!(
            "{:>34} {:>16.0} {:>16.0}",
            label, run.average_observed_kbps, run.average_effective_kbps
        );
    }
    println!();
    println!("The discounted variant forgets pre-switch observations and");
    println!("re-balances onto the honest channels during bad phases, so it");
    println!("sustains higher long-run throughput under the square waves.");
}
