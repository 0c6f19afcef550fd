//! Integration tests of the distributed strategy decision (Algorithm 3)
//! against the centralized solvers it approximates, plus a property-based
//! battery over the PTAS protocol invariants (previously only
//! spot-checked on fixed graphs).

use mhca::bandit::bounds;
use mhca::core::{DecisionOutcome, DistributedPtas, DistributedPtasConfig, LocalSolver, Network};
use mhca::graph::ExtendedConflictGraph;
use mhca::mwis::{exact, robust_ptas};
use mhca::sim::LossSpec;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn weights_for(h: &ExtendedConflictGraph, rng: &mut StdRng) -> Vec<f64> {
    (0..h.n_vertices())
        .map(|_| rng.gen_range(0.1..1.0))
        .collect()
}

#[test]
fn distributed_output_is_independent_across_many_seeds() {
    for seed in 0..20 {
        let net = Network::random(25, 3, 4.0, 0.1, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = weights_for(net.h(), &mut rng);
        let mut ptas = DistributedPtas::new(
            net.h(),
            DistributedPtasConfig::default()
                .with_r(2)
                .with_max_minirounds(None),
        );
        let out = ptas.decide(&w);
        assert!(out.all_marked, "seed {seed} did not terminate");
        assert_eq!(out.conflicts, 0, "seed {seed} produced conflicts");
        assert!(
            net.h().graph().is_independent(&out.winners),
            "seed {seed} winners not independent"
        );
    }
}

#[test]
fn distributed_tracks_centralized_robust_ptas_quality() {
    // Run to completion with exact local solving; compare against the
    // centralized robust PTAS and the exact optimum on small instances.
    let mut total_dist = 0.0;
    let mut total_central = 0.0;
    let mut total_opt = 0.0;
    for seed in 0..8 {
        let net = Network::random(14, 2, 3.0, 0.1, 100 + seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = weights_for(net.h(), &mut rng);
        let allowed: Vec<usize> = (0..net.n_vertices()).collect();
        let opt = exact::solve_grouped(net.h().graph(), &w, &allowed, net.node_groups());
        let central = robust_ptas::solve_grouped(
            net.h().graph(),
            &w,
            &robust_ptas::Config::with_epsilon(0.5),
            net.node_groups(),
        );
        let mut ptas = DistributedPtas::new(
            net.h(),
            DistributedPtasConfig::default()
                .with_r(2)
                .with_max_minirounds(None)
                .with_local_solver(LocalSolver::Exact),
        );
        let out = ptas.decide(&w);
        let dist: f64 = out.winners.iter().map(|&v| w[v]).sum();
        total_dist += dist;
        total_central += central.weight;
        total_opt += opt.weight;
    }
    // Aggregate quality: distributed should be within 25% of the
    // centralized PTAS and within ρ of optimal on average.
    assert!(
        total_dist >= 0.75 * total_central,
        "distributed {total_dist} vs centralized {total_central}"
    );
    assert!(
        total_dist >= 0.6 * total_opt,
        "distributed {total_dist} vs optimum {total_opt}"
    );
}

#[test]
fn theorem2_bound_holds_empirically() {
    // The distributed decision's approximation ratio should be far better
    // than the worst-case ρ with ρ^r = M(2r+1)² (Theorem 2).
    let r = 2;
    for seed in 0..5 {
        let net = Network::random(12, 3, 3.0, 0.1, 200 + seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = weights_for(net.h(), &mut rng);
        let allowed: Vec<usize> = (0..net.n_vertices()).collect();
        let opt = exact::solve_grouped(net.h().graph(), &w, &allowed, net.node_groups());
        let mut ptas = DistributedPtas::new(
            net.h(),
            DistributedPtasConfig::default()
                .with_r(r)
                .with_max_minirounds(None),
        );
        let out = ptas.decide(&w);
        let dist: f64 = out.winners.iter().map(|&v| w[v]).sum();
        let rho = bounds::theorem2_rho(net.n_channels(), r);
        assert!(
            dist * rho >= opt.weight,
            "seed {seed}: ratio worse than Theorem 2 bound"
        );
    }
}

#[test]
fn capping_minirounds_loses_little_weight_on_random_networks() {
    // Theorem 4 / Fig. 6: a constant D captures almost all the weight.
    let net = Network::random(80, 5, 3.5, 0.1, 301);
    let w = net.channels().means();
    let full = {
        let mut p = DistributedPtas::new(
            net.h(),
            DistributedPtasConfig::default()
                .with_r(2)
                .with_max_minirounds(None),
        );
        let out = p.decide(&w);
        out.winners.iter().map(|&v| w[v]).sum::<f64>()
    };
    let capped = {
        let mut p = DistributedPtas::new(
            net.h(),
            DistributedPtasConfig::default()
                .with_r(2)
                .with_max_minirounds(Some(4)),
        );
        let out = p.decide(&w);
        out.winners.iter().map(|&v| w[v]).sum::<f64>()
    };
    assert!(
        capped >= 0.9 * full,
        "D=4 kept only {capped} of {full} weight"
    );
}

#[test]
fn message_loss_degrades_gracefully() {
    // With 10% relay loss the protocol still terminates within its budget
    // and produces mostly-independent output; the conflict counter makes
    // any safety damage visible.
    let net = Network::random(30, 3, 4.0, 0.1, 400);
    let mut rng = StdRng::seed_from_u64(400);
    let w = weights_for(net.h(), &mut rng);
    for loss_seed in 0..5 {
        let mut ptas = DistributedPtas::new(
            net.h(),
            DistributedPtasConfig::default()
                .with_r(1)
                .with_max_minirounds(Some(30))
                .with_loss_spec(LossSpec::lossy(0.1, loss_seed)),
        );
        let out = ptas.decide(&w);
        assert!(!out.winners.is_empty(), "lossy run produced no winners");
        // The loss-defense rule keeps conflicts rare.
        assert!(
            out.conflicts <= 2,
            "loss seed {loss_seed}: too many conflicts ({})",
            out.conflicts
        );
    }
}

/// Shared generator for the property battery: a random network and a
/// full-run decision outcome (plus the weights it was decided under).
fn decided_instance(
    n: usize,
    m: usize,
    r: usize,
    seed: u64,
    cap: Option<usize>,
) -> (Network, Vec<f64>, DecisionOutcome) {
    let net = Network::random(n, m, 4.0, 0.1, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let w = weights_for(net.h(), &mut rng);
    let mut ptas = DistributedPtas::new(
        net.h(),
        DistributedPtasConfig::default()
            .with_r(r)
            .with_max_minirounds(cap),
    );
    let out = ptas.decide(&w);
    (net, w, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Winners always form an independent set in the extended conflict
    /// graph, with at most one channel per master node.
    #[test]
    fn prop_winners_independent_in_extended_graph(
        (n, m, r, seed) in (6usize..32, 1usize..5, 1usize..3, 0u64..1_000_000)
    ) {
        let (net, _, out) = decided_instance(n, m, r, seed, None);
        prop_assert!(out.all_marked, "full run must terminate");
        prop_assert_eq!(out.conflicts, 0);
        prop_assert!(net.h().graph().is_independent(&out.winners));
        let mut masters: Vec<usize> = out.winners.iter().map(|&v| v / m).collect();
        let before = masters.len();
        masters.dedup();
        prop_assert_eq!(before, masters.len(), "a node won two channels");
    }

    /// Same-mini-round leaders are pairwise ≥ 2r+2 hops apart in H — the
    /// guarantee the strict total order on (weight, id) buys, and the
    /// reason same-round determination lists never overlap.
    #[test]
    fn prop_leaders_are_2r_plus_2_apart(
        (n, m, r, seed) in (6usize..28, 1usize..4, 1usize..3, 0u64..1_000_000)
    ) {
        let (net, _, out) = decided_instance(n, m, r, seed, None);
        let g = net.h().graph();
        for tau in 0..out.minirounds_used {
            let leaders = out.leaders_of_miniround(tau);
            for (i, &a) in leaders.iter().enumerate() {
                for &b in &leaders[i + 1..] {
                    match g.hop_distance(a, b) {
                        // Disconnected leaders are infinitely far apart.
                        None => {}
                        Some(d) => prop_assert!(
                            d >= 2 * r + 2,
                            "mini-round {} leaders {} and {} only {} hops apart (r = {})",
                            tau, a, b, d, r
                        ),
                    }
                }
            }
        }
    }

    /// The cumulative winner weight is monotone across mini-rounds (a
    /// winner is never unmade), and the final series entry equals the
    /// winners' total weight. Holds under mini-round caps too.
    #[test]
    fn prop_cumulative_weight_monotone(
        (n, m, seed, capped) in (6usize..32, 1usize..4, 0u64..1_000_000, 0usize..3)
    ) {
        let cap = [None, Some(2), Some(4)][capped];
        let (_, w, out) = decided_instance(n, m, 2, seed, cap);
        for pair in out.per_miniround_weight.windows(2) {
            prop_assert!(pair[1] >= pair[0] - 1e-12, "series decreased: {:?}", pair);
        }
        let final_weight: f64 = out.winners.iter().map(|&v| w[v]).sum();
        let last = out.per_miniround_weight.last().copied().unwrap_or(0.0);
        prop_assert!(
            (final_weight - last).abs() < 1e-9,
            "series end {} vs winners {}", last, final_weight
        );
    }

    /// Property-level differential: the incremental decide path agrees
    /// with the full-rescan oracle on arbitrary random instances.
    #[test]
    fn prop_incremental_matches_rescan_oracle(
        (n, m, r, seed) in (6usize..30, 1usize..4, 1usize..3, 0u64..1_000_000)
    ) {
        let net = Network::random(n, m, 4.0, 0.1, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7c_c1);
        let w = weights_for(net.h(), &mut rng);
        let cfg = DistributedPtasConfig::default().with_r(r).with_max_minirounds(None);
        let mut incremental = DistributedPtas::new(net.h(), cfg);
        let mut reference = DistributedPtas::new(net.h(), cfg);
        let mut got = DecisionOutcome::default();
        let mut expect = DecisionOutcome::default();
        incremental.decide_into(&w, &mut got);
        reference.decide_into_rescan(&w, &mut expect);
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn lossless_runs_never_conflict_even_with_greedy_solver() {
    for seed in 0..10 {
        let net = Network::random(40, 4, 5.0, 0.1, 500 + seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = weights_for(net.h(), &mut rng);
        let mut ptas = DistributedPtas::new(
            net.h(),
            DistributedPtasConfig::default()
                .with_r(2)
                .with_max_minirounds(Some(4))
                .with_local_solver(LocalSolver::Greedy),
        );
        let out = ptas.decide(&w);
        assert_eq!(out.conflicts, 0);
        assert!(net.h().graph().is_independent(&out.winners));
    }
}
