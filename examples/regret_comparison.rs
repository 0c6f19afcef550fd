//! Fig. 7 scenario: practical regret and β-regret of the paper's policy
//! versus the LLR baseline on a small connected network whose optimum is
//! computed exactly by branch-and-bound.
//!
//! Run with: `cargo run --release --example regret_comparison`

use mhca::core::experiment::{run_experiment, ExperimentData};
use mhca::core::experiments::Fig7Config;
use mhca::core::ObserverSet;

fn main() {
    let cfg = Fig7Config::default(); // 15 users × 3 channels, 1000 slots
    println!(
        "Fig. 7 workload: {} users x {} channels, horizon {} slots",
        cfg.n, cfg.m, cfg.horizon
    );
    let seed = cfg.seed;
    let result = run_experiment(&cfg, seed, ObserverSet::new());
    let ExperimentData::Fig7(out) = result.data else {
        unreachable!("Fig7Config yields Fig7 data");
    };
    println!(
        "exact optimum R1 = {:.2} kbps (paper instance: 7282.90)",
        out.optimal_kbps
    );
    println!("beta = theta*alpha = {:.3}", out.beta);
    println!();
    println!(
        "{:>6} {:>16} {:>16} {:>18} {:>18}",
        "slot", "alg2 regret", "llr regret", "alg2 beta-regret", "llr beta-regret"
    );
    let n = out.algorithm2.practical_regret.len();
    for t in (0..n).step_by((n / 10).max(1)).chain([n - 1]) {
        println!(
            "{:>6} {:>16.1} {:>16.1} {:>18.1} {:>18.1}",
            t + 1,
            out.algorithm2.practical_regret[t],
            out.llr.practical_regret[t],
            out.algorithm2.practical_beta_regret[t],
            out.llr.practical_beta_regret[t],
        );
    }
    println!();
    let a = out.algorithm2.practical_regret.last().unwrap();
    let l = out.llr.practical_regret.last().unwrap();
    println!(
        "final practical regret: algorithm2 {:.1} vs LLR {:.1} kbps ({})",
        a,
        l,
        if a < l {
            "algorithm2 wins, as in the paper"
        } else {
            "LLR ahead on this seed"
        }
    );
    println!(
        "final beta-regret: algorithm2 {:.1}, LLR {:.1} (negative = beats the 1/beta target)",
        out.algorithm2.practical_beta_regret.last().unwrap(),
        out.llr.practical_beta_regret.last().unwrap()
    );
}
