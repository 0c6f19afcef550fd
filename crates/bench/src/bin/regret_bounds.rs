//! Evaluates the Theorem 1 / Theorem 5 regret upper bounds against the
//! measured regret of Algorithm 2 on the Fig. 7 instance.
//!
//! The theoretical bounds are famously loose constants-wise; the point of
//! this binary is (i) the bounds are sublinear in n (zero-regret) and
//! (ii) measured cumulative regret sits far below them.
//!
//! Run with: `cargo run --release -p mhca-bench --bin regret_bounds`

use mhca_bandit::bounds;
use mhca_bench::csv_row;
use mhca_core::experiment::{run_experiment, ExperimentData};
use mhca_core::experiments::Fig7Config;
use mhca_core::ObserverSet;

fn main() {
    let cfg = Fig7Config::default();
    let k = cfg.n * cfg.m;
    let alpha = bounds::theorem2_rho(cfg.m, cfg.r);
    let theta = 0.5;

    println!(
        "# Theorem 1 / Theorem 5 bounds vs horizon (N={}, K={k})",
        cfg.n
    );
    csv_row(&[
        "n",
        "theorem1_bound",
        "theorem1_per_round",
        "theorem5_bound",
    ]);
    for n in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
        let t1 = bounds::theorem1(n, cfg.n, k, theta * alpha);
        let t5 = bounds::theorem5(n, cfg.n, k, alpha, theta);
        csv_row(&[
            format!("{n}"),
            format!("{t1:.3e}"),
            format!("{:.3e}", t1 / n as f64),
            format!("{t5:.3e}"),
        ]);
    }

    println!();
    eprintln!("running the Fig. 7 instance for measured regret ...");
    let seed = cfg.seed;
    let result = run_experiment(&cfg, seed, ObserverSet::new());
    let ExperimentData::Fig7(out) = result.data else {
        unreachable!("Fig7Config yields Fig7 data");
    };
    // Measured cumulative regret ≈ per-round practical regret × n; report
    // the per-round value against the bound's per-round value.
    let n = out.algorithm2.practical_regret.len() as u64;
    let measured = out.algorithm2.practical_regret.last().unwrap();
    let bound_per_round = bounds::theorem5(n, cfg.n, k, alpha, theta) / n as f64;
    println!("# measured per-round practical regret at n={n}: {measured:.1} kbps");
    println!(
        "# Theorem 5 per-round bound at n={n}: {bound_per_round:.3e} (normalized units x scale)"
    );
    println!("# measured << bound, as expected for a worst-case bound");
}
