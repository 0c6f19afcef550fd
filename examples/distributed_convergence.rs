//! Fig. 6 scenario: watch Algorithm 3 converge over mini-rounds.
//!
//! Reproduces the paper's observation that on random networks the summed
//! weight of the output independent sets converges within ~4 mini-rounds,
//! regardless of the network size (Theorem 4).
//!
//! Run with: `cargo run --release --example distributed_convergence`

use mhca::core::experiment::{run_experiment, ExperimentData};
use mhca::core::experiments::Fig6Config;
use mhca::core::ObserverSet;
use mhca::graph::TopologySpec;

fn main() {
    let cfg = Fig6Config {
        sizes: vec![(50, 5), (100, 5), (50, 10), (100, 10)],
        topology: TopologySpec::UnitDisk { avg_degree: 6.0 },
        r: 2,
        minirounds: 10,
        ..Fig6Config::default()
    };
    println!(
        "Algorithm 3 convergence (r = {}, topology = {}):",
        cfg.r,
        cfg.topology.label()
    );
    println!();
    let seed = cfg.seed;
    let out = run_experiment(&cfg, seed, ObserverSet::new());
    let ExperimentData::Fig6 { series, .. } = out.data else {
        unreachable!("Fig6Config yields Fig6 data");
    };

    // Header.
    print!("{:>10}", "mini-round");
    for s in &series {
        print!("{:>12}", format!("{}x{}", s.n, s.m));
    }
    println!();

    let rounds = series[0].weight_by_miniround.len();
    for i in 0..rounds {
        print!("{:>10}", i + 1);
        for s in &series {
            print!("{:>12.0}", s.weight_by_miniround[i]);
        }
        println!();
    }

    println!();
    for s in &series {
        println!(
            "{}x{}: all vertices marked after mini-round {}",
            s.n, s.m, s.converged_at
        );
    }
}
