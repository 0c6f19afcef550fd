//! Fig. 5 scenario: the linear-network worst case for strategy decision.
//!
//! On a line with strictly decreasing weights only one region resolves per
//! mini-round, so running Algorithm 3 to completion needs Θ(N) mini-rounds
//! — the motivation for capping at a constant `D` (Theorem 4).
//!
//! Run with: `cargo run --release --example linear_worstcase`

use mhca::core::experiment::{run_experiment, ExperimentData};
use mhca::core::experiments::Fig5Config;
use mhca::core::ObserverSet;

fn main() {
    let cfg = Fig5Config {
        ns: vec![10, 20, 40, 80, 160],
        r: 1,
    };
    let out = run_experiment(&cfg, 0, ObserverSet::new());
    let ExperimentData::Fig5(points) = out.data else {
        unreachable!("Fig5Config yields Fig5 data");
    };
    println!("Algorithm 3 on a line with decreasing weights (M = 1, r = 1):");
    println!("{:>6} {:>12}", "N", "mini-rounds");
    for p in points {
        println!("{:>6} {:>12}", p.n, p.minirounds_used);
    }
    println!();
    println!("Mini-rounds grow linearly with N — the Fig. 5 worst case.");
    println!("Random networks instead converge in ~4 mini-rounds (see the");
    println!("distributed_convergence example), which is why Algorithm 2");
    println!("caps the decision at a constant D mini-rounds.");
}
