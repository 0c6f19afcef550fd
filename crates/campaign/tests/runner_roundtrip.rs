//! End-to-end policy-state round-trip battery over the spec grid.
//!
//! The bandit-level battery (`mhca-bandit/tests/prop.rs`) proves each
//! policy restores bit-identically in isolation; this one proves the
//! *whole* Algorithm 2 run does — runner counters, ArmStats, RNG stream
//! position, policy state, loss-injection stream, and regret tracker —
//! **through the service's JSON checkpoint codec**: every checkpoint is
//! serialized to a JSON string and re-parsed before restoring, exactly as
//! a killed-and-restarted daemon would see it. The resumed `RunResult`
//! must match the uninterrupted one bit for bit.

use mhca_core::{
    Algorithm2Config, DistributedPtasConfig, Network, ObserverSet, PolicyRunConfig, PolicyRunner,
    PolicySpec, RunResult,
};
use mhca_graph::TopologySpec;
use mhca_service::checkpoint::{state_map_from_json, state_map_to_json};
use mhca_service::json;
use mhca_sim::LossSpec;
use proptest::prelude::*;

/// One point of the spec grid.
#[allow(clippy::too_many_arguments)]
fn config(
    n: usize,
    m: usize,
    horizon: u64,
    update_period: usize,
    policy: usize,
    topology: usize,
    lossy: bool,
    seed: u64,
) -> PolicyRunConfig {
    let policy = [
        PolicySpec::CsUcb { l: 2.0 },
        PolicySpec::Llr { l: 2.0 },
        PolicySpec::Thompson { sigma: 0.5 },
        PolicySpec::DiscountedCsUcb { gamma: 0.97 },
        PolicySpec::EpsilonGreedy { eps: 0.1 },
        PolicySpec::Random,
        PolicySpec::Oracle,
    ][policy];
    let topology = [
        TopologySpec::Line,
        TopologySpec::Ring,
        TopologySpec::Grid,
        TopologySpec::Star,
        TopologySpec::Complete,
    ][topology];
    let loss = if lossy {
        LossSpec::lossy(0.2, seed ^ 0x1055)
    } else {
        LossSpec::lossless()
    };
    PolicyRunConfig {
        n,
        m,
        horizon,
        update_period,
        policy,
        topology,
        loss,
        seed,
        ..PolicyRunConfig::default()
    }
}

/// Runs `cfg` through [`PolicyRunner`], optionally interrupting after
/// `stop_after` decision periods: the checkpoint is pushed through the
/// JSON codec (serialize → string → parse → deserialize) and restored
/// into a completely fresh runner/policy, which then finishes the run.
fn run_with_interruption(cfg: &PolicyRunConfig, stop_after: Option<u64>) -> RunResult {
    let net = Network::from_spec(cfg.n, cfg.m, &cfg.topology, &cfg.channel, cfg.seed);
    let dcfg = DistributedPtasConfig::default()
        .with_r(cfg.r)
        .with_max_minirounds(Some(cfg.minirounds))
        .with_loss_spec(cfg.loss)
        .with_partitions(cfg.partitions);
    let acfg = Algorithm2Config::default()
        .with_horizon(cfg.horizon)
        .with_update_period(cfg.update_period)
        .with_decision(dcfg)
        .with_seed(cfg.seed);
    let observers = ObserverSet::new();

    let mut policy = cfg.policy.build(&net);
    let mut runner = PolicyRunner::new(&net, &acfg, &observers);
    let mut periods = 0u64;
    while !runner.done() {
        if Some(periods) == stop_after {
            break;
        }
        let mut obs = ObserverSet::new();
        runner.step_period(policy.as_mut(), &mut obs);
        periods += 1;
    }
    if !runner.done() {
        // Kill the daemon: all that survives is the JSON text.
        let text = state_map_to_json(&runner.snapshot(policy.as_ref())).to_string_compact();
        drop(runner);
        drop(policy);

        let revived = state_map_from_json(&json::parse(&text).unwrap()).unwrap();
        let mut policy2 = cfg.policy.build(&net);
        let mut runner2 = PolicyRunner::new(&net, &acfg, &observers);
        runner2.restore(policy2.as_mut(), &revived).unwrap();
        while !runner2.done() {
            let mut obs = ObserverSet::new();
            runner2.step_period(policy2.as_mut(), &mut obs);
        }
        return runner2.finish(policy2.as_ref());
    }
    runner.finish(policy.as_ref())
}

/// Bitwise equality over every `RunResult` field.
fn assert_bit_identical(a: &RunResult, b: &RunResult) {
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
    prop_assert_eq!(&a.policy, &b.policy);
    prop_assert_eq!(a.slots, b.slots);
    prop_assert_eq!(&a.period_end_slots, &b.period_end_slots);
    prop_assert_eq!(
        bits(&a.avg_actual_throughput),
        bits(&b.avg_actual_throughput)
    );
    prop_assert_eq!(
        bits(&a.avg_estimated_throughput),
        bits(&b.avg_estimated_throughput)
    );
    prop_assert_eq!(bits(&a.practical_regret), bits(&b.practical_regret));
    prop_assert_eq!(
        bits(&a.practical_beta_regret),
        bits(&b.practical_beta_regret)
    );
    prop_assert_eq!(&a.final_strategy_vertices, &b.final_strategy_vertices);
    prop_assert_eq!(&a.per_vertex_tx, &b.per_vertex_tx);
    prop_assert_eq!(
        a.average_observed_kbps.to_bits(),
        b.average_observed_kbps.to_bits()
    );
    prop_assert_eq!(
        a.average_effective_kbps.to_bits(),
        b.average_effective_kbps.to_bits()
    );
    prop_assert_eq!(
        a.average_expected_kbps.to_bits(),
        b.average_expected_kbps.to_bits()
    );
    prop_assert_eq!(a.beta.to_bits(), b.beta.to_bits());
    prop_assert_eq!(a.comm.transmissions, b.comm.transmissions);
    prop_assert_eq!(a.comm.decisions, b.comm.decisions);
    prop_assert_eq!(a.seed, b.seed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resumed_run_result_is_bit_identical(
        n in 6usize..13,
        m in 2usize..4,
        horizon in 40u64..140,
        update_period in 1usize..4,
        policy in 0usize..7,
        topology in 0usize..5,
        lossy in 0u64..2,
        frac in 0u64..100,
        seed in 0u64..1 << 48,
    ) {
        let cfg = config(n, m, horizon, update_period, policy, topology, lossy == 1, seed);
        let baseline = run_with_interruption(&cfg, None);
        // Interrupt somewhere strictly inside the run (period 1..last).
        let periods = baseline.period_end_slots.len() as u64;
        let stop = 1 + frac * periods.saturating_sub(1) / 100;
        let resumed = run_with_interruption(&cfg, Some(stop.min(periods.saturating_sub(1)).max(1)));
        assert_bit_identical(&baseline, &resumed);
    }
}
