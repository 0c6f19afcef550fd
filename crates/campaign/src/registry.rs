//! The scenario registry: every figure/table experiment of the paper's
//! evaluation plus cross-product scenarios along the axes the paper never
//! sweeps (channel families, topology families, loss injection, policy
//! zoo) — the scenario-diversity layer the related large-deviations and
//! sensing-cost studies evaluate over.
//!
//! `registry()` is the full paper-scale catalog; `quick_registry()` is
//! the scaled-down CI smoke set (2 scenarios × 3 seeds).

use crate::spec::{ExperimentKind, ScenarioSpec, SeedRange};
use mhca_channels::ChannelModelSpec;
use mhca_core::experiment::ObserverKind;
use mhca_core::experiments::{
    ComplexityConfig, Fig5Config, Fig6Config, Fig7Config, Fig8Config, PolicyDuelConfig,
    PolicyRunConfig, PolicySpec, Theorem3Config,
};
use mhca_core::{ArrivalProcess, FlowSpec, TrafficSpec};
use mhca_graph::TopologySpec;
use mhca_sim::LossSpec;

/// The full scenario catalog, in presentation order: first the paper's
/// own evaluation (Figs. 5–8, Table 2, Section IV-C, Theorem 3), then the
/// cross-product scenarios.
pub fn registry() -> Vec<ScenarioSpec> {
    let mut out = vec![
        ScenarioSpec::new(
            "fig5",
            "Fig. 5: linear worst case needs Θ(N) mini-rounds",
            ExperimentKind::Fig5(Fig5Config::default()),
            SeedRange::new(0, 1),
        ),
        ScenarioSpec::new(
            "fig6",
            "Fig. 6: Algorithm 3 convergence over mini-rounds",
            ExperimentKind::Fig6(Fig6Config::default()),
            SeedRange::new(61, 5),
        ),
        // Fig. 7/8 drive Algorithm 2 round loops, so they also stream the
        // decide-phase wall-time and communication observers — metrics no
        // RunResult field carries.
        ScenarioSpec::new(
            "fig7",
            "Fig. 7: practical (β-)regret, Algorithm 2 vs LLR",
            ExperimentKind::Fig7(Fig7Config::default()),
            SeedRange::new(71, 5),
        )
        .with_observers(vec![ObserverKind::DecideTiming, ObserverKind::CommTotals]),
        ScenarioSpec::new(
            "fig8",
            "Fig. 8: throughput under periodic stale-weight updates",
            ExperimentKind::Fig8(Fig8Config::default()),
            SeedRange::new(81, 3),
        )
        .with_observers(vec![ObserverKind::DecideTiming, ObserverKind::CommTotals]),
        // Fig. 8 at a size that runs in well under a second: one seed, so
        // `seed81.csv` is the figure itself.
        ScenarioSpec::new(
            "fig8-reduced",
            "Fig. 8 on a reduced 40-node network",
            ExperimentKind::Fig8(Fig8Config {
                n: 40,
                m: 5,
                topology: TopologySpec::UnitDisk { avg_degree: 5.0 },
                update_periods: vec![1, 5, 10, 20],
                updates_per_run: 250,
                r: 2,
                ..Fig8Config::default()
            }),
            SeedRange::new(81, 1),
        ),
        ScenarioSpec::new(
            "table2",
            "Table II: time model and derived quantities",
            ExperimentKind::Table2,
            SeedRange::new(0, 1),
        ),
        ScenarioSpec::new(
            "complexity",
            "Section IV-C: measured per-vertex communication/space",
            ExperimentKind::Complexity(ComplexityConfig::default()),
            SeedRange::new(91, 5),
        ),
        ScenarioSpec::new(
            "theorem3",
            "Theorem 3: distributed vs centralized PTAS quality",
            ExperimentKind::Theorem3(Theorem3Config::default()),
            SeedRange::new(0, 3),
        ),
    ];

    // ---- Cross-product scenarios: loss injection on the paper figures.
    out.push(ScenarioSpec::new(
        "fig7-lossy",
        "Fig. 7 under 10% control-channel loss (failure injection)",
        ExperimentKind::Fig7(Fig7Config {
            loss: LossSpec::lossy(0.1, 7),
            ..Fig7Config::default()
        }),
        SeedRange::new(71, 5),
    ));
    out.push(ScenarioSpec::new(
        "fig6-lossy",
        "Fig. 6 convergence under 10% control-channel loss",
        ExperimentKind::Fig6(Fig6Config {
            loss: LossSpec::lossy(0.1, 6),
            ..Fig6Config::default()
        }),
        SeedRange::new(61, 5),
    ));

    // ---- Channel-model axis: same planning problem, different dynamics.
    for (suffix, channel) in [
        (
            "adv-sinusoidal",
            ChannelModelSpec::AdversarialSinusoidal {
                amp_frac: 0.3,
                period: 50,
            },
        ),
        (
            "adv-switching",
            ChannelModelSpec::AdversarialSwitching {
                swing_frac: 0.5,
                dwell: 25,
            },
        ),
        (
            "bernoulli",
            ChannelModelSpec::BernoulliRateClasses { p: 0.5 },
        ),
    ] {
        out.push(
            ScenarioSpec::new(
                format!("duel-{suffix}"),
                format!("CS-UCB vs LLR head-to-head on {suffix} channels"),
                ExperimentKind::PolicyDuel(PolicyDuelConfig {
                    base: PolicyRunConfig {
                        channel,
                        horizon: 800,
                        ..PolicyRunConfig::default()
                    },
                    challenger: PolicySpec::Llr { l: 2.0 },
                }),
                SeedRange::new(0, 5),
            )
            .with_observers(vec![ObserverKind::CommTotals]),
        );
    }

    // ---- Topology axis: the decision protocol off the unit-disk family.
    for (suffix, topology, n, m) in [
        ("line", TopologySpec::Line, 40, 3),
        ("grid", TopologySpec::Grid, 49, 4),
        ("complete", TopologySpec::Complete, 12, 4),
    ] {
        out.push(
            ScenarioSpec::new(
                format!("topology-{suffix}"),
                format!("CS-UCB on a {suffix} conflict graph"),
                ExperimentKind::PolicyRun(PolicyRunConfig {
                    n,
                    m,
                    topology,
                    horizon: 500,
                    ..PolicyRunConfig::default()
                }),
                SeedRange::new(0, 5),
            )
            .with_observers(vec![ObserverKind::PerVertexTx]),
        );
    }

    // ---- Policy axis: the zoo beyond the paper's CS-UCB/LLR pair.
    for policy in [
        PolicySpec::Thompson { sigma: 0.1 },
        PolicySpec::EpsilonGreedy { eps: 0.05 },
        PolicySpec::Oracle,
    ] {
        out.push(
            ScenarioSpec::new(
                format!("policy-{}", policy.label()),
                format!("{} on the Fig. 7-style workload", policy.label()),
                ExperimentKind::PolicyRun(PolicyRunConfig {
                    policy,
                    horizon: 800,
                    ..PolicyRunConfig::default()
                }),
                SeedRange::new(0, 5),
            )
            .with_observers(vec![
                ObserverKind::CommTotals,
                ObserverKind::PerVertexTx,
                ObserverKind::Throughput,
            ]),
        );
    }

    // ---- Drifting-channel scenarios: piecewise-stationary mean shifts
    // at declared breakpoints, measured with the windowed-regret observer
    // (the per-window regret re-grows after every breakpoint — the
    // stationarity assumption of the CS-UCB guarantees, bent on purpose).
    let drift = ChannelModelSpec::Drifting {
        shift_frac: 0.5,
        breakpoints: vec![500, 1000],
        ramp: 0,
    };
    for (suffix, policy) in [
        ("regret", PolicySpec::CsUcb { l: 2.0 }),
        ("thompson", PolicySpec::Thompson { sigma: 0.1 }),
        ("oracle", PolicySpec::Oracle),
    ] {
        out.push(
            ScenarioSpec::new(
                format!("drift-{suffix}"),
                format!(
                    "{} under piecewise-stationary drift (breaks at 500, 1000)",
                    policy.label()
                ),
                ExperimentKind::PolicyRun(PolicyRunConfig {
                    channel: drift.clone(),
                    policy,
                    horizon: 1500,
                    ..PolicyRunConfig::default()
                }),
                SeedRange::new(0, 5),
            )
            .with_observers(vec![
                ObserverKind::WindowedRegret { window: 250 },
                ObserverKind::CommTotals,
            ]),
        );
    }

    // ---- Adversarial-capture sweep: a full-swing square wave (rates hit
    // zero in the low phase), tallied per channel by CaptureStats.
    out.push(
        ScenarioSpec::new(
            "capture-adversarial",
            "CS-UCB vs a full-swing on/off adversary, per-channel capture tallies",
            ExperimentKind::PolicyRun(PolicyRunConfig {
                channel: ChannelModelSpec::AdversarialSwitching {
                    swing_frac: 1.0,
                    dwell: 40,
                },
                horizon: 800,
                ..PolicyRunConfig::default()
            }),
            SeedRange::new(0, 5),
        )
        .with_observers(vec![ObserverKind::CaptureStats, ObserverKind::Throughput]),
    );

    // ---- Large-N scaling: the partition-parallel decide on a network
    // an order of magnitude past the rest of the catalog. r = 1 and a
    // short horizon keep the (2r+1)-ball tables and the round count
    // affordable; CommTotals reports the decide floods' communication
    // totals at this scale.
    out.push(
        ScenarioSpec::new(
            "large-n",
            "CS-UCB at N=2000 with the partition-parallel (4-tile) decide",
            ExperimentKind::PolicyRun(PolicyRunConfig {
                n: 2000,
                m: 2,
                r: 1,
                horizon: 40,
                update_period: 10,
                partitions: 4,
                ..PolicyRunConfig::default()
            }),
            SeedRange::new(0, 3),
        )
        .with_observers(vec![ObserverKind::CommTotals, ObserverKind::DecideTiming]),
    );

    // ---- Sensing-cost sweep: the limited-sensing budget accounting on
    // the paper's stochastic workload.
    out.push(
        ScenarioSpec::new(
            "sensing-cost",
            "CS-UCB sensing/probe budget under the Yun-style cost model",
            ExperimentKind::PolicyRun(PolicyRunConfig {
                horizon: 800,
                ..PolicyRunConfig::default()
            }),
            SeedRange::new(0, 5),
        )
        .with_observers(vec![
            ObserverKind::SensingCost {
                probe_cost: 1.0,
                report_cost: 0.1,
            },
            ObserverKind::Throughput,
        ]),
    );

    // ---- Traffic/queueing scenarios: flows with per-vertex FIFO queues
    // served by the channel-access outcome, so throughput claims become
    // flow-level delay claims. Fixed topologies (line/grid) keep every
    // flow routable at every seed; FlowDelay + QueueTail surface the
    // delay tail and backlog distribution per seed.
    out.push(
        ScenarioSpec::new(
            "traffic-poisson-light",
            "Poisson flows at light load on a line: delay tails near service time",
            ExperimentKind::PolicyRun(PolicyRunConfig {
                n: 20,
                m: 3,
                topology: TopologySpec::Line,
                horizon: 600,
                traffic: Some(TrafficSpec::poisson(
                    0.15,
                    vec![
                        FlowSpec {
                            src: 0,
                            dst: 6,
                            deadline: Some(40),
                        },
                        FlowSpec {
                            src: 12,
                            dst: 3,
                            deadline: None,
                        },
                    ],
                )),
                ..PolicyRunConfig::default()
            }),
            SeedRange::new(0, 5),
        )
        .with_observers(vec![
            ObserverKind::FlowDelay,
            ObserverKind::QueueTail { bound: 32 },
        ]),
    );
    out.push(
        ScenarioSpec::new(
            "traffic-poisson-heavy",
            "Poisson flows past saturation: backlog growth and overflow tallies",
            ExperimentKind::PolicyRun(PolicyRunConfig {
                n: 20,
                m: 3,
                topology: TopologySpec::Line,
                horizon: 600,
                traffic: Some(TrafficSpec::poisson(
                    0.9,
                    vec![
                        FlowSpec {
                            src: 0,
                            dst: 6,
                            deadline: Some(40),
                        },
                        FlowSpec {
                            src: 12,
                            dst: 3,
                            deadline: None,
                        },
                    ],
                )),
                ..PolicyRunConfig::default()
            }),
            SeedRange::new(0, 5),
        )
        .with_observers(vec![
            ObserverKind::FlowDelay,
            ObserverKind::QueueTail { bound: 64 },
        ]),
    );
    out.push(
        ScenarioSpec::new(
            "traffic-deadline-duel",
            "CS-UCB vs LLR ranked by deadline-constrained delay utility",
            ExperimentKind::PolicyDuel(PolicyDuelConfig {
                base: PolicyRunConfig {
                    n: 16,
                    m: 3,
                    topology: TopologySpec::Line,
                    horizon: 600,
                    traffic: Some(TrafficSpec::poisson(
                        0.4,
                        vec![
                            FlowSpec {
                                src: 0,
                                dst: 5,
                                deadline: Some(30),
                            },
                            FlowSpec {
                                src: 10,
                                dst: 2,
                                deadline: Some(30),
                            },
                        ],
                    )),
                    ..PolicyRunConfig::default()
                },
                challenger: PolicySpec::Llr { l: 2.0 },
            }),
            SeedRange::new(0, 5),
        )
        .with_observers(vec![
            ObserverKind::FlowDelay,
            ObserverKind::QueueTail { bound: 32 },
        ]),
    );
    out.push(
        ScenarioSpec::new(
            "traffic-bursty",
            "Bursty arrivals on a grid: tail blowup at equal mean load",
            ExperimentKind::PolicyRun(PolicyRunConfig {
                n: 49,
                m: 4,
                topology: TopologySpec::Grid,
                horizon: 600,
                traffic: Some(TrafficSpec {
                    arrivals: ArrivalProcess::Bursty {
                        rate: 0.3,
                        burst: 8,
                    },
                    flows: vec![
                        FlowSpec {
                            src: 0,
                            dst: 48,
                            deadline: Some(80),
                        },
                        FlowSpec {
                            src: 42,
                            dst: 6,
                            deadline: None,
                        },
                    ],
                    packet_kbps: 100.0,
                    seed: 0,
                }),
                ..PolicyRunConfig::default()
            }),
            SeedRange::new(0, 5),
        )
        .with_observers(vec![
            ObserverKind::FlowDelay,
            ObserverKind::QueueTail { bound: 64 },
        ]),
    );

    out
}

/// The CI smoke catalog: 2 scaled-down scenarios × 3 seeds, small enough
/// for a debug-build test run.
pub fn quick_registry() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(
            "fig6-quick",
            "Fig. 6 convergence (scaled down)",
            ExperimentKind::Fig6(Fig6Config::quick()),
            SeedRange::new(61, 3),
        ),
        // A deterministic observer (comm totals, unlike wall-clock
        // timing) so the CI smoke exercises the streaming pipeline while
        // parallel and serial campaigns stay byte-identical.
        ScenarioSpec::new(
            "fig7-quick",
            "Fig. 7 regret vs LLR (scaled down)",
            ExperimentKind::Fig7(Fig7Config::quick()),
            SeedRange::new(71, 3),
        )
        .with_observers(vec![ObserverKind::CommTotals]),
    ]
}

/// Looks a scenario up by name in both catalogs (full first).
pub fn find(name: &str) -> Option<ScenarioSpec> {
    registry()
        .into_iter()
        .chain(quick_registry())
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_the_paper_evaluation() {
        let names: Vec<String> = registry().into_iter().map(|s| s.name).collect();
        for required in [
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "table2",
            "complexity",
            "theorem3",
        ] {
            assert!(names.contains(&required.to_string()), "missing {required}");
        }
        assert!(names.len() >= 15, "expected a rich catalog, got {names:?}");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = registry()
            .into_iter()
            .chain(quick_registry())
            .map(|s| s.name)
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn quick_registry_is_the_ci_smoke_shape() {
        let quick = quick_registry();
        assert_eq!(quick.len(), 2);
        assert!(quick.iter().all(|s| s.seeds.count == 3));
    }

    #[test]
    fn find_resolves_both_catalogs() {
        assert!(find("fig8").is_some());
        assert!(find("fig6-quick").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn traffic_scenarios_carry_flows_and_tail_observers() {
        for name in [
            "traffic-poisson-light",
            "traffic-poisson-heavy",
            "traffic-deadline-duel",
            "traffic-bursty",
        ] {
            let s = find(name).unwrap_or_else(|| panic!("missing {name}"));
            let cfg = match &s.kind {
                ExperimentKind::PolicyRun(cfg) => cfg,
                ExperimentKind::PolicyDuel(duel) => &duel.base,
                other => panic!("{name} has wrong kind {other:?}"),
            };
            let traffic = cfg
                .traffic
                .as_ref()
                .unwrap_or_else(|| panic!("{name} carries no traffic"));
            assert!(!traffic.flows.is_empty(), "{name} has no flows");
            for f in &traffic.flows {
                assert!(f.src < cfg.n && f.dst < cfg.n, "{name} endpoint range");
            }
            let labels: Vec<&str> = s.observers.iter().map(|o| o.label()).collect();
            assert!(labels.contains(&"flow-delay"), "{name}: {labels:?}");
            assert!(labels.contains(&"queue-tail"), "{name}: {labels:?}");
        }
    }

    #[test]
    fn multi_seed_scenarios_cover_fig6_fig7_fig8() {
        for name in ["fig6", "fig7", "fig8"] {
            let s = find(name).unwrap();
            assert!(s.seeds.count > 1, "{name} must aggregate across seeds");
        }
    }
}
