//! The three workloads, each generated from the `--seed` argument, and
//! the untraced ("direct") job that drives one seed through the public
//! `PolicyRunner` surface, timing every `step_period` from outside.

use crate::cpu;
use crate::stats::Fnv;
use mhca_campaign::{ExperimentKind, ScenarioSpec, SeedRange};
use mhca_core::traffic::FlowTotals;
use mhca_core::{
    Algorithm2Config, DistributedPtasConfig, FlowSpec, MetricTable, Network, ObserverKind,
    ObserverSet, PolicyRunConfig, PolicyRunner, RoundObserver, RoundRecord, RunResult, TrafficSpec,
};
use mhca_graph::TopologySpec;
use mhca_sim::LossSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Network instances one `decide-r2` run covers: small random graphs
/// differ in decide cost and throughput, so a run averages many.
pub const DECIDE_INSTANCES: u64 = 16;
/// Network instances one `large-n-tiled` run alternates between.
pub const LARGE_N_INSTANCES: u64 = 2;
/// Seeds one traffic-lossy campaign covers.
pub const CAMPAIGN_SEEDS: u64 = 4;
/// Worker threads of the campaign pool.
pub const CAMPAIGN_WORKERS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// n = 400 unit-disk, m = 3, r = 2, deciding every slot.
    DecideR2,
    /// n = 10⁴ unit-disk, m = 2, r = 1, y = 10, two decide tiles.
    LargeNTiled,
    /// 20×20 grid, m = 4, r = 2, y = 200, 10% control loss, Poisson
    /// flows, run as a 4-seed campaign on a 2-worker pool.
    TrafficLossyCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DecideR2,
        Workload::LargeNTiled,
        Workload::TrafficLossyCampaign,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecideR2 => "decide-r2",
            Workload::LargeNTiled => "large-n-tiled",
            Workload::TrafficLossyCampaign => "traffic-lossy-campaign",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated inputs for `seed`: one scenario whose seed range
    /// lists the network instances (job seeds) a run covers.
    pub fn scenario(self, seed: u64) -> ScenarioSpec {
        let (cfg, seeds, observers) = match self {
            Workload::DecideR2 => (
                PolicyRunConfig {
                    n: 400,
                    m: 3,
                    topology: TopologySpec::UnitDisk { avg_degree: 5.0 },
                    horizon: 1000,
                    update_period: 1,
                    r: 2,
                    minirounds: 4,
                    partitions: 1,
                    ..PolicyRunConfig::default()
                },
                SeedRange::new(seed.wrapping_mul(DECIDE_INSTANCES), DECIDE_INSTANCES),
                Vec::new(),
            ),
            Workload::LargeNTiled => (
                PolicyRunConfig {
                    n: 10_000,
                    m: 2,
                    topology: TopologySpec::UnitDisk { avg_degree: 3.5 },
                    horizon: 1000,
                    update_period: 10,
                    r: 1,
                    minirounds: 4,
                    partitions: 2,
                    ..PolicyRunConfig::default()
                },
                SeedRange::new(seed.wrapping_mul(LARGE_N_INSTANCES), LARGE_N_INSTANCES),
                Vec::new(),
            ),
            Workload::TrafficLossyCampaign => (
                PolicyRunConfig {
                    n: 400,
                    m: 4,
                    topology: TopologySpec::Grid,
                    loss: LossSpec::lossy(0.1, seed),
                    horizon: 20_000,
                    update_period: 200,
                    r: 2,
                    minirounds: 4,
                    partitions: 1,
                    traffic: Some(traffic(seed)),
                    ..PolicyRunConfig::default()
                },
                SeedRange::new(seed.wrapping_mul(CAMPAIGN_SEEDS), CAMPAIGN_SEEDS),
                vec![
                    ObserverKind::FlowDelay,
                    ObserverKind::QueueTail { bound: 64 },
                ],
            ),
        };
        ScenarioSpec::new(
            self.name(),
            "perfbench workload",
            ExperimentKind::PolicyRun(cfg),
            seeds,
        )
        .with_observers(observers)
    }
}

/// Eight Poisson flows between distinct random nodes of the 20×20 grid
/// (every pair is routable), half of them with a delay bound.
fn traffic(seed: u64) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0074_7261_6666_6963);
    let flows = (0..8)
        .map(|i| {
            let src: usize = rng.gen_range(0..400);
            let dst = (src + rng.gen_range(1..400usize)) % 400;
            FlowSpec {
                src,
                dst,
                deadline: (i % 2 == 0).then(|| rng.gen_range(100..400)),
            }
        })
        .collect();
    let mut spec = TrafficSpec::poisson(0.05, flows);
    spec.seed = seed;
    spec
}

/// The `PolicyRunConfig` a workload scenario wraps.
pub fn policy_run(spec: &ScenarioSpec) -> &PolicyRunConfig {
    match &spec.kind {
        ExperimentKind::PolicyRun(cfg) => cfg,
        other => panic!("workload scenarios are policy runs, not {}", other.tag()),
    }
}

/// The Algorithm 2 configuration of one job — the same construction the
/// campaign's policy-run experiment performs for `seed`.
pub fn job_config(cfg: &PolicyRunConfig, seed: u64) -> Algorithm2Config {
    let dcfg = DistributedPtasConfig::default()
        .with_r(cfg.r)
        .with_max_minirounds(Some(cfg.minirounds))
        .with_loss_spec(cfg.loss)
        .with_partitions(cfg.partitions);
    let mut acfg = Algorithm2Config::default()
        .with_horizon(cfg.horizon)
        .with_update_period(cfg.update_period)
        .with_decision(dcfg)
        .with_seed(seed);
    if let Some(traffic) = &cfg.traffic {
        acfg = acfg.with_traffic(traffic.clone());
    }
    acfg
}

/// Folds every period's winner set into a shared hash — the winners
/// sequence of the output gate. Emits no metric rows, so a job's metric
/// table is the one the campaign records.
pub struct WinnersDigest(pub Rc<Cell<u64>>);

impl RoundObserver for WinnersDigest {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        let mut h = Fnv(self.0.get());
        h.u64(record.slot);
        h.u64(record.winners.len() as u64);
        for &v in record.winners {
            h.u64(v as u64);
        }
        self.0.set(h.0);
    }

    fn finish(&mut self) -> MetricTable {
        MetricTable::new()
    }
}

/// The scenario's observers plus a [`WinnersDigest`] reading into `cell`.
pub fn observers(spec: &ScenarioSpec, cell: &Rc<Cell<u64>>) -> ObserverSet {
    cell.set(Fnv::default().0);
    let mut set = ObserverSet::from_kinds(&spec.observers);
    set.register("winners-digest", Box::new(WinnersDigest(Rc::clone(cell))));
    set
}

/// The headline metric rows of a finished job, exactly as the campaign's
/// policy-run experiment records them (experiment rows, then the
/// observers' label-prefixed rows).
pub fn job_rows(run: &RunResult, observers: &mut ObserverSet) -> Vec<(String, f64)> {
    let mut metrics = MetricTable::new();
    metrics.push("avg_expected_kbps", run.average_expected_kbps);
    metrics.push("avg_effective_kbps", run.average_effective_kbps);
    metrics.push("avg_observed_kbps", run.average_observed_kbps);
    metrics.push("transmissions", run.comm.transmissions as f64);
    metrics.push("decisions", run.comm.decisions as f64);
    if let Some(t) = &run.traffic {
        metrics.push("arrivals", t.arrivals as f64);
        metrics.push("delivered", t.delivered as f64);
        metrics.push("ontime", t.ontime as f64);
        metrics.push("backlog", t.backlog as f64);
        metrics.push("mean_delay_slots", t.mean_delay());
        metrics.push("delay_utility", t.delay_utility());
    }
    observers.finish_into(&mut metrics);
    metrics.into_rows()
}

/// Digest of a job's simulated outputs: the whole `RunResult` (every
/// series, the communication totals and the traffic summary, floats by
/// their round-trip rendering), the winners sequence, and the metric rows.
pub fn job_digest(run: &RunResult, winners: u64, rows: &[(String, f64)]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(format!("{run:?}").as_bytes());
    h.u64(winners);
    h.bytes(format!("{rows:?}").as_bytes());
    h.0
}

/// One untraced job. Times are process CPU seconds ([`cpu::process_s`])
/// unless named wall.
pub struct DirectJob {
    /// `Network::from_spec` + policy build + `PolicyRunner::new`.
    pub setup_s: f64,
    /// All `step_period` calls.
    pub step_s: f64,
    /// Whole job (setup, stepping, finish).
    pub cpu_s: f64,
    /// Wall time of all `step_period` calls, seconds.
    pub step_wall_s: f64,
    /// Wall time of the whole job, seconds.
    pub wall_s: f64,
    /// The run's result.
    pub result: RunResult,
    /// Metric rows as the campaign records them.
    pub rows: Vec<(String, f64)>,
    /// Output digest ([`job_digest`]).
    pub digest: u64,
}

/// Properties of a job's outputs that hold at every seed, checked
/// against the job's own network: on a lossless control channel the
/// final strategy is independent in H (no two winners conflict), and
/// every traffic packet that arrived was delivered or is still queued.
pub fn check_outputs(
    cfg: &PolicyRunConfig,
    net: &Network,
    result: &RunResult,
) -> Result<(), String> {
    let winners = &result.final_strategy_vertices;
    if cfg.loss.is_lossless() && !net.h().graph().is_independent(winners) {
        return Err(format!(
            "seed {}: lossless final strategy of {} winners is not independent in H",
            result.seed,
            winners.len()
        ));
    }
    if let Some(t) = &result.traffic {
        let per_flow = |f: fn(&FlowTotals) -> u64| t.flows.iter().map(f).sum::<u64>();
        let conserved = t.arrivals == t.delivered + t.backlog
            && t.ontime <= t.delivered
            && per_flow(|f| f.arrivals) == t.arrivals
            && per_flow(|f| f.delivered) == t.delivered;
        if !conserved {
            return Err(format!(
                "seed {}: traffic totals break conservation: {t:?}",
                result.seed
            ));
        }
    }
    Ok(())
}

/// Builds the job's network, policy and runner, and returns the set-up
/// time in CPU seconds, dropping everything again.
pub fn setup_only(spec: &ScenarioSpec, seed: u64) -> f64 {
    let cfg = policy_run(spec);
    let acfg = job_config(cfg, seed);
    let obs = ObserverSet::from_kinds(&spec.observers);
    let start = cpu::process_s();
    let net = Network::from_spec(cfg.n, cfg.m, &cfg.topology, &cfg.channel, seed);
    let policy = cfg.policy.build(&net);
    let runner = PolicyRunner::new(&net, &acfg, &obs);
    let setup = cpu::process_s() - start;
    drop((runner, policy));
    setup
}

/// Runs one job untraced, appending each period's CPU time (ms) to
/// `period_ms`. Fails when [`check_outputs`] does (checked after the
/// job's timed part).
pub fn run_direct(
    spec: &ScenarioSpec,
    seed: u64,
    period_ms: &mut Vec<f64>,
) -> Result<DirectJob, String> {
    let cfg = policy_run(spec);
    let acfg = job_config(cfg, seed);
    let cell = Rc::new(Cell::new(0));
    let mut obs = observers(spec, &cell);
    period_ms.reserve(acfg.horizon.div_ceil(acfg.update_period as u64) as usize);

    let start = Instant::now();
    let cpu_start = cpu::process_s();
    let net = Network::from_spec(cfg.n, cfg.m, &cfg.topology, &cfg.channel, seed);
    let mut policy = cfg.policy.build(&net);
    let mut runner = PolicyRunner::new(&net, &acfg, &obs);
    let step_cpu_start = cpu::process_s();
    let setup_s = step_cpu_start - cpu_start;

    let step_start = Instant::now();
    let mut p = step_cpu_start;
    while !runner.done() {
        runner.step_period(policy.as_mut(), &mut obs);
        let now = cpu::process_s();
        period_ms.push((now - p) * 1e3);
        p = now;
    }
    let step_s = p - step_cpu_start;
    let step_wall_s = step_start.elapsed().as_secs_f64();
    let result = runner.finish(policy.as_ref());
    let cpu_s = cpu::process_s() - cpu_start;
    let wall_s = start.elapsed().as_secs_f64();

    check_outputs(cfg, &net, &result)?;
    let rows = job_rows(&result, &mut obs);
    let digest = job_digest(&result, cell.get(), &rows);
    Ok(DirectJob {
        setup_s,
        step_s,
        cpu_s,
        step_wall_s,
        wall_s,
        result,
        rows,
        digest,
    })
}

/// The canary job of a workload: its first instance at the default seed,
/// cut to 200 slots (2000 on the campaign, whose decisions come every
/// 200 slots). Every run ends with it and checks its pinned digest, so a
/// deterministic change to the simulated outputs fails a run at any
/// `--seed`, not only at the default one.
pub fn canary(w: Workload, default_seed: u64) -> (ScenarioSpec, u64) {
    let mut spec = w.scenario(default_seed);
    let ExperimentKind::PolicyRun(cfg) = &mut spec.kind else {
        unreachable!("workloads are policy runs")
    };
    cfg.horizon = (10 * cfg.update_period as u64).max(200);
    let seed = spec.seeds.start;
    (spec, seed)
}

/// The workload at `seed`, cut to a few periods (and, for the
/// random-graph workloads, a 120-node network) so debug-build tests stay
/// quick. Partitions, loss, traffic and observers are kept.
#[cfg(test)]
pub fn shrunk(w: Workload, seed: u64) -> ScenarioSpec {
    let mut spec = w.scenario(seed);
    let ExperimentKind::PolicyRun(cfg) = &mut spec.kind else {
        unreachable!("workloads are policy runs")
    };
    cfg.horizon = 3 * cfg.update_period as u64 + 5;
    if matches!(cfg.topology, TopologySpec::UnitDisk { .. }) {
        cfg.n = 120;
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig7"), None);
    }

    #[test]
    fn the_seed_decides_the_generated_inputs() {
        for w in Workload::ALL {
            assert_eq!(w.scenario(3), w.scenario(3), "{}", w.name());
            assert_ne!(w.scenario(3), w.scenario(4), "{}", w.name());
        }
    }

    #[test]
    fn output_checks_catch_conflicts_and_lost_packets() {
        for w in [Workload::DecideR2, Workload::TrafficLossyCampaign] {
            let spec = shrunk(w, 2);
            let cfg = policy_run(&spec);
            let seed = spec.seeds.start;
            let net = Network::from_spec(cfg.n, cfg.m, &cfg.topology, &cfg.channel, seed);
            let mut result = run_direct(&spec, seed, &mut Vec::new())
                .expect("outputs hold")
                .result;
            assert_eq!(check_outputs(cfg, &net, &result), Ok(()));
            if let Some(t) = &mut result.traffic {
                t.delivered += 1;
            } else {
                let (u, v) = net.h().graph().edges().next().expect("H has an edge");
                result.final_strategy_vertices = vec![u, v];
            }
            assert!(check_outputs(cfg, &net, &result).is_err(), "{}", w.name());
        }
    }

    #[test]
    fn flows_join_distinct_grid_nodes() {
        for seed in 0..50 {
            let t = traffic(seed);
            assert_eq!(t.flows.len(), 8);
            assert!(t
                .flows
                .iter()
                .all(|f| f.src != f.dst && f.src < 400 && f.dst < 400));
        }
        assert_ne!(traffic(1), traffic(2));
    }
}
