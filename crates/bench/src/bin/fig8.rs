//! Regenerates Fig. 8: estimated vs actual average effective throughput
//! under periodic weight updates (y = 1, 5, 10, 20), Algorithm 2 vs LLR.
//!
//! Expected shape (paper): actual throughput grows toward the ideal as y
//! grows (1/2, 9/10, 19/20, 39/40 of ideal); Algorithm 2's estimated and
//! actual lines nearly coincide while LLR's estimate overshoots badly.
//!
//! Thin wrapper over the unified experiment engine
//! (`mhca_core::experiment`) + `mhca_bench::report`; the `fig8` registry
//! scenario of `mhca-campaign run` executes the same experiment
//! multi-seed. Default runs a reduced network for quick turnaround; pass
//! `--full` for the paper-scale 100 users × 10 channels with 1000 updates
//! per run.
//!
//! Run with: `cargo run --release -p mhca-bench --bin fig8 [--full]`

use mhca_bench::{full_scale, report};
use mhca_core::experiment::run_experiment;
use mhca_core::experiments::Fig8Config;
use mhca_core::ObserverSet;
use mhca_graph::TopologySpec;

fn main() {
    let cfg = if full_scale() {
        Fig8Config::default()
    } else {
        Fig8Config {
            n: 40,
            m: 5,
            topology: TopologySpec::UnitDisk { avg_degree: 5.0 },
            update_periods: vec![1, 5, 10, 20],
            updates_per_run: 250,
            r: 2,
            ..Fig8Config::default()
        }
    };
    eprintln!(
        "running fig8: {}x{} network, y in {:?}, {} updates per run ...",
        cfg.n, cfg.m, cfg.update_periods, cfg.updates_per_run
    );
    let seed = cfg.seed;
    let out = run_experiment(&cfg, seed, ObserverSet::new());
    report::render_experiment(&out.data, &mut std::io::stdout().lock()).expect("stdout write");
}
