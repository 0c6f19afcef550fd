//! Fig. 8 scenario: effective throughput under periodic (stale-weight)
//! updates.
//!
//! Updating weights (and re-deciding the strategy) only every `y` slots
//! trades estimate freshness for airtime: the decision overhead amortizes
//! over the period, pushing effective throughput toward the ideal
//! (1/2 → 9/10 → 19/20 → 39/40 of ideal for y = 1, 5, 10, 20).
//!
//! Run with: `cargo run --release --example periodic_update`
//! (Pass `--full` as an argument for the paper-scale 100x10 network.)

use mhca::core::experiment::{run_experiment, ExperimentData};
use mhca::core::experiments::Fig8Config;
use mhca::core::ObserverSet;
use mhca::graph::TopologySpec;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let cfg = if full {
        Fig8Config::default() // 100 users × 10 channels, 1000 updates per y
    } else {
        Fig8Config {
            n: 40,
            m: 5,
            topology: TopologySpec::UnitDisk { avg_degree: 5.0 },
            update_periods: vec![1, 5, 10, 20],
            updates_per_run: 200,
            ..Fig8Config::default()
        }
    };
    println!(
        "Fig. 8 workload: {} users x {} channels, {} updates per run{}",
        cfg.n,
        cfg.m,
        cfg.updates_per_run,
        if full {
            " (paper scale)"
        } else {
            " (reduced; use --full for 100x10)"
        }
    );
    println!();
    println!(
        "{:>4} {:>9} {:>14} {:>14} {:>14} {:>14}",
        "y", "slots", "alg2 actual", "alg2 estimate", "llr actual", "llr estimate"
    );
    let seed = cfg.seed;
    let out = run_experiment(&cfg, seed, ObserverSet::new());
    let ExperimentData::Fig8(runs) = out.data else {
        unreachable!("Fig8Config yields Fig8 data");
    };
    for run in runs {
        println!(
            "{:>4} {:>9} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            run.y,
            run.horizon,
            run.algorithm2.avg_actual_throughput.last().unwrap(),
            run.algorithm2.avg_estimated_throughput.last().unwrap(),
            run.llr.avg_actual_throughput.last().unwrap(),
            run.llr.avg_estimated_throughput.last().unwrap(),
        );
    }
    println!();
    println!("Expected shape (paper Fig. 8): actual throughput grows with y;");
    println!("algorithm2's estimate tracks its actual closely, while LLR's");
    println!("estimate overshoots its actual by a wide margin.");
}
