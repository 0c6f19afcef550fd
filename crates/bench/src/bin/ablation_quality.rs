//! Quality ablations of the design parameters DESIGN.md calls out:
//! how mini-round budget D, radius r, the local solver, and channel noise
//! σ affect the *achieved weight/throughput*.
//!
//! Run with: `cargo run --release -p mhca-bench --bin ablation_quality`

use mhca_bandit::policies::CsUcb;
use mhca_bench::csv_row;
use mhca_core::{
    runner::{run_policy, Algorithm2Config},
    DistributedPtas, DistributedPtasConfig, LocalSolver, Network,
};

fn decision_weight(net: &Network, cfg: DistributedPtasConfig) -> f64 {
    let w = net.channels().means();
    let mut ptas = DistributedPtas::new(net.h(), cfg);
    let out = ptas.decide(&w);
    out.winners.iter().map(|&v| w[v]).sum()
}

fn main() {
    let net = Network::random(80, 5, 3.5, 0.1, 500);
    let full = decision_weight(
        &net,
        DistributedPtasConfig::default().with_max_minirounds(None),
    );

    println!("# (a) mini-round budget D vs fraction of full-run weight (r=2)");
    csv_row(&["d", "weight_kbps", "fraction_of_full"]);
    for d in [1usize, 2, 3, 4, 6, 8] {
        let w = decision_weight(
            &net,
            DistributedPtasConfig::default().with_max_minirounds(Some(d)),
        );
        csv_row(&[
            format!("{d}"),
            format!("{w:.0}"),
            format!("{:.3}", w / full),
        ]);
    }

    println!();
    println!("# (b) radius r vs weight (D=4; larger r = better local optima, fewer leaders)");
    csv_row(&["r", "weight_kbps"]);
    for r in [1usize, 2, 3] {
        let w = decision_weight(
            &net,
            DistributedPtasConfig::default()
                .with_r(r)
                .with_max_minirounds(Some(4)),
        );
        csv_row(&[format!("{r}"), format!("{w:.0}")]);
    }

    println!();
    println!("# (c) local solver vs weight (r=2, D=4)");
    csv_row(&["solver", "weight_kbps"]);
    for (name, solver) in [
        ("exact", LocalSolver::Exact),
        ("greedy", LocalSolver::Greedy),
        ("local_search", LocalSolver::LocalSearch { max_passes: 10 }),
        (
            "auto14",
            LocalSolver::Auto {
                max_exact_groups: 14,
            },
        ),
    ] {
        let w = decision_weight(
            &net,
            DistributedPtasConfig::default()
                .with_max_minirounds(Some(4))
                .with_local_solver(solver),
        );
        csv_row(&[name.to_string(), format!("{w:.0}")]);
    }

    println!();
    println!("# (d) channel noise sigma vs learning quality (15x3, 600 slots)");
    csv_row(&["sigma_frac", "cs_ucb_expected_kbps", "optimum_kbps"]);
    for sigma in [0.0f64, 0.05, 0.1, 0.2, 0.4] {
        let net = Network::random_connected(15, 3, 3.5, sigma, 501);
        let opt = net.optimal().weight;
        let cfg = Algorithm2Config::default().with_horizon(600);
        let run = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        csv_row(&[
            format!("{sigma}"),
            format!("{:.0}", run.average_expected_kbps),
            format!("{opt:.0}"),
        ]);
    }
    println!();
    println!("# expected: (a) fraction ~1 by D=4; (b) r=2 >= r=1; (c) exact >=");
    println!("# local_search >= greedy; (d) learning quality degrades gently with sigma");
}
