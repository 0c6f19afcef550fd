//! `ArbSpec`: proptest strategies over the declarative spec surface.
//!
//! Every implementation generates inside two envelopes at once:
//!
//! - the **ingest validity envelope** — whatever
//!   `mhca_campaign::scenarios_from_str` accepts (positive periods,
//!   fractions in range, strictly-increasing drift breakpoints with
//!   `ramp ≤` every gap, flow endpoints `< n` with `src ≠ dst`, …), so
//!   round-trip contracts never trip validation on their own inputs; and
//! - the **runtime envelope** — sizes and budgets small enough that every
//!   generated scenario runs in milliseconds ([`SpecKnobs`] bounds `n`,
//!   `m`, horizons, and seed counts; exponential-optimum kinds are gated
//!   behind [`SpecKnobs::heavy`] and clamped to tiny `n`).
//!
//! Generator order matters for shrink quality: the vendored proptest
//! shrinker drives every recorded choice toward zero, and a zero choice
//! selects a range's start / a `Union`'s first option / a collection's
//! minimum size. Each `Union` below therefore lists its simplest variant
//! first, and each range starts at its most trivial admissible value, so
//! minimized counterexamples read as the smallest spec that still fails.

use mhca_campaign::{ExperimentKind, ScenarioSpec, SeedRange};
use mhca_channels::ChannelModelSpec;
use mhca_core::experiment::ObserverKind;
use mhca_core::experiments::{
    ComplexityConfig, Fig5Config, Fig6Config, Fig7Config, Fig8Config, PolicyDuelConfig,
    PolicyRunConfig, PolicySpec, Theorem3Config,
};
use mhca_core::{ArrivalProcess, FlowSpec, TrafficSpec};
use mhca_graph::TopologySpec;
use mhca_sim::LossSpec;
use proptest::collection::vec;
use proptest::strategy::{BoxedStrategy, Just, Strategy, Union};

/// Size/validity knobs bounding every generated spec.
///
/// The defaults (== [`SpecKnobs::quick`]) keep any single generated
/// scenario's full seed sweep in the low-millisecond range, which is what
/// lets the contract battery afford dozens of cases per entry point.
#[derive(Debug, Clone, Copy)]
pub struct SpecKnobs {
    /// Upper bound on users `N` (inclusive; lower bound is 4).
    pub max_n: usize,
    /// Upper bound on channels `M` (inclusive; lower bound is 1).
    pub max_m: usize,
    /// Upper bound on slot horizons (inclusive).
    pub max_horizon: u64,
    /// Upper bound on seeds per scenario (inclusive; lower bound is 1).
    pub max_seeds: u64,
    /// Allow kinds that compute exact optima (`fig7`, `theorem3`) —
    /// worst-case exponential in `n`, so they stay clamped to tiny
    /// networks even when enabled.
    pub heavy: bool,
    /// Allow traffic workloads on generated policy runs.
    pub traffic: bool,
}

impl SpecKnobs {
    /// The battery preset: small networks, short horizons, ≤ 2 seeds.
    pub fn quick() -> Self {
        SpecKnobs {
            max_n: 12,
            max_m: 3,
            max_horizon: 160,
            max_seeds: 2,
            heavy: false,
            traffic: true,
        }
    }

    /// As [`SpecKnobs::quick`] but with the exponential-optimum kinds
    /// enabled — right for pure-serialization contracts that never run
    /// the experiment, and affordable (at low case counts) for run
    /// contracts too.
    pub fn full() -> Self {
        SpecKnobs {
            heavy: true,
            ..SpecKnobs::quick()
        }
    }
}

impl Default for SpecKnobs {
    fn default() -> Self {
        SpecKnobs::quick()
    }
}

/// A spec type with a canonical bounded-validity strategy.
///
/// The `specgen` analogue of proptest's `Arbitrary`, parameterized by
/// [`SpecKnobs`] instead of being knob-free: spec validity is relational
/// (horizons bound ramps, `n` bounds flow endpoints), so the knobs thread
/// the shared bounds through every component generator.
pub trait ArbSpec: Sized + std::fmt::Debug {
    /// Strategy over valid values of this spec type.
    fn arb_spec(knobs: &SpecKnobs) -> BoxedStrategy<Self>;
}

impl ArbSpec for TopologySpec {
    fn arb_spec(_knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        // `avg_degree` stays below the minimum generated `n` (4): the
        // unit-disk constructors require `avg_degree < n`.
        Union::new(vec![
            Just(TopologySpec::Line).boxed(),
            Just(TopologySpec::Ring).boxed(),
            Just(TopologySpec::Grid).boxed(),
            Just(TopologySpec::Star).boxed(),
            Just(TopologySpec::Complete).boxed(),
            Just(TopologySpec::Independent).boxed(),
            (2.0f64..=3.5)
                .prop_map(|avg_degree| TopologySpec::UnitDisk { avg_degree })
                .boxed(),
            (3.0f64..=3.5)
                .prop_map(|avg_degree| TopologySpec::UnitDiskConnected { avg_degree })
                .boxed(),
        ])
        .boxed()
    }
}

impl ArbSpec for ChannelModelSpec {
    fn arb_spec(knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        let max_horizon = knobs.max_horizon;
        Union::new(vec![
            Just(ChannelModelSpec::ConstantRateClasses).boxed(),
            (0.0f64..=0.5)
                .prop_map(|sigma_frac| ChannelModelSpec::GaussianRateClasses { sigma_frac })
                .boxed(),
            (0.2f64..=1.0)
                .prop_map(|p| ChannelModelSpec::BernoulliRateClasses { p })
                .boxed(),
            (0.0f64..=1.0)
                .prop_map(|spread_frac| ChannelModelSpec::UniformRateClasses { spread_frac })
                .boxed(),
            (0.0f64..=1.0, 1u64..=64)
                .prop_map(
                    |(amp_frac, period)| ChannelModelSpec::AdversarialSinusoidal {
                        amp_frac,
                        period,
                    },
                )
                .boxed(),
            (0.0f64..=1.0, 1u64..=64)
                .prop_map(
                    |(swing_frac, dwell)| ChannelModelSpec::AdversarialSwitching {
                        swing_frac,
                        dwell,
                    },
                )
                .boxed(),
            (1u64..=max_horizon)
                .prop_map(|horizon| ChannelModelSpec::AdversarialRamp { horizon })
                .boxed(),
            arb_drifting(),
        ])
        .boxed()
    }
}

/// The drifting family: strictly-increasing positive breakpoints built
/// from positive gaps, with `ramp` bounded by the smallest gap (a ramp
/// must finish before the next flip begins — the ingest invariant).
fn arb_drifting() -> BoxedStrategy<ChannelModelSpec> {
    (0.0f64..=1.0, vec(1u64..=40, 1..4))
        .prop_flat_map(|(shift_frac, gaps)| {
            let min_gap = *gaps.iter().min().expect("non-empty gaps");
            (Just(shift_frac), Just(gaps), 0u64..=min_gap)
        })
        .prop_map(|(shift_frac, gaps, ramp)| {
            let mut t = 0;
            let breakpoints = gaps
                .into_iter()
                .map(|g| {
                    t += g;
                    t
                })
                .collect();
            ChannelModelSpec::Drifting {
                shift_frac,
                breakpoints,
                ramp,
            }
        })
        .boxed()
}

impl ArbSpec for LossSpec {
    fn arb_spec(_knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        Union::new(vec![
            Just(LossSpec::lossless()).boxed(),
            (0.0f64..0.3, 0u64..=1000)
                .prop_map(|(prob, seed)| LossSpec::lossy(prob, seed))
                .boxed(),
        ])
        .boxed()
    }
}

impl ArbSpec for PolicySpec {
    fn arb_spec(_knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        Union::new(vec![
            Just(PolicySpec::Random).boxed(),
            Just(PolicySpec::Oracle).boxed(),
            (0.5f64..=4.0).prop_map(|l| PolicySpec::CsUcb { l }).boxed(),
            (0.5f64..=4.0).prop_map(|l| PolicySpec::Llr { l }).boxed(),
            (0.1f64..=2.0)
                .prop_map(|sigma| PolicySpec::Thompson { sigma })
                .boxed(),
            (0.5f64..=1.0)
                .prop_map(|gamma| PolicySpec::DiscountedCsUcb { gamma })
                .boxed(),
            (0.0f64..=1.0)
                .prop_map(|eps| PolicySpec::EpsilonGreedy { eps })
                .boxed(),
        ])
        .boxed()
    }
}

impl ArbSpec for ObserverKind {
    fn arb_spec(_knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        // `DecideTiming` streams wall-clock time and is therefore the one
        // observer that breaks byte-identity between reruns; it is still
        // generated here (serialization contracts cover it) but excluded
        // by [`arb_deterministic_observers`], which every contract that
        // compares run artifacts uses instead.
        Union::new(vec![
            Just(ObserverKind::CommTotals).boxed(),
            Just(ObserverKind::PerVertexTx).boxed(),
            Just(ObserverKind::Throughput).boxed(),
            Just(ObserverKind::CaptureStats).boxed(),
            Just(ObserverKind::FlowDelay).boxed(),
            (0.0f64..=2.0, 0.0f64..=1.0)
                .prop_map(|(probe_cost, report_cost)| ObserverKind::SensingCost {
                    probe_cost,
                    report_cost,
                })
                .boxed(),
            (10u64..=500)
                .prop_map(|window| ObserverKind::WindowedRegret { window })
                .boxed(),
            (1u64..=128)
                .prop_map(|bound| ObserverKind::QueueTail { bound })
                .boxed(),
            Just(ObserverKind::DecideTiming).boxed(),
        ])
        .boxed()
    }
}

/// An observer list with unique labels (the ingest invariant).
/// `allow_wallclock` admits [`ObserverKind::DecideTiming`] — only safe
/// for contracts that never compare run artifacts across reruns.
pub fn arb_observers(knobs: &SpecKnobs, allow_wallclock: bool) -> BoxedStrategy<Vec<ObserverKind>> {
    vec(ObserverKind::arb_spec(knobs), 0..4)
        .prop_map(move |obs| {
            let mut out: Vec<ObserverKind> = Vec::new();
            for o in obs {
                if (allow_wallclock || o.label() != "decide-timing")
                    && out.iter().all(|p| p.label() != o.label())
                {
                    out.push(o);
                }
            }
            out
        })
        .boxed()
}

/// An observer list with unique labels (the ingest invariant) and no
/// wall-clock [`ObserverKind::DecideTiming`] — safe for any contract that
/// compares artifacts or metrics across reruns.
pub fn arb_deterministic_observers(knobs: &SpecKnobs) -> BoxedStrategy<Vec<ObserverKind>> {
    arb_observers(knobs, false)
}

impl ArbSpec for ArrivalProcess {
    fn arb_spec(_knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        Union::new(vec![
            (1u64..=16)
                .prop_map(|period| ArrivalProcess::Deterministic { period })
                .boxed(),
            (0.05f64..=1.5)
                .prop_map(|rate| ArrivalProcess::Poisson { rate })
                .boxed(),
            (1u64..=8)
                .prop_flat_map(|burst| (Just(burst), 0.05f64..=(burst as f64)))
                .prop_map(|(burst, rate)| ArrivalProcess::Bursty { rate, burst })
                .boxed(),
        ])
        .boxed()
    }
}

/// A traffic workload whose flow endpoints all lie below `n` — the
/// knob-free dependent generator for use after a network size is chosen.
/// Endpoints need not be mutually reachable (unrouted flows are legal and
/// carry no traffic); they must only be in range and distinct.
pub fn arb_traffic_spec(n: usize) -> BoxedStrategy<TrafficSpec> {
    assert!(n >= 2, "traffic needs at least two nodes");
    let flow = (0usize..n, 1usize..n, 0u64..=40).prop_map(move |(src, delta, ddl)| FlowSpec {
        src,
        dst: (src + delta) % n,
        deadline: if ddl == 0 { None } else { Some(ddl) },
    });
    (
        ArrivalProcess::arb_spec(&SpecKnobs::quick()),
        vec(flow, 1..4),
        25.0f64..=400.0,
        0u64..=1000,
    )
        .prop_map(|(arrivals, flows, packet_kbps, seed)| TrafficSpec {
            arrivals,
            flows,
            packet_kbps,
            seed,
        })
        .boxed()
}

impl ArbSpec for TrafficSpec {
    /// Endpoints below 4 — valid for *any* network this crate generates
    /// (`n ≥ 4`). Prefer [`arb_traffic_spec`] when the actual `n` is in
    /// scope.
    fn arb_spec(_knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        arb_traffic_spec(4)
    }
}

impl ArbSpec for SeedRange {
    fn arb_spec(knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        let max_seeds = knobs.max_seeds.max(1);
        (0u64..=1000, 1u64..=max_seeds)
            .prop_map(|(start, count)| SeedRange::new(start, count))
            .boxed()
    }
}

/// A generated policy-run config — the cross-product axis experiment, and
/// the kind most run-based contracts restrict to.
pub fn arb_policy_run_config(knobs: &SpecKnobs) -> BoxedStrategy<PolicyRunConfig> {
    let traffic = knobs.traffic;
    (
        (4usize..=knobs.max_n, 1usize..=knobs.max_m),
        (
            TopologySpec::arb_spec(knobs),
            ChannelModelSpec::arb_spec(knobs),
            PolicySpec::arb_spec(knobs),
            LossSpec::arb_spec(knobs),
        ),
        (
            20u64..=knobs.max_horizon,
            1usize..=4,
            1usize..=2,
            1usize..=6,
        ),
        1usize..=4,
    )
        .prop_flat_map(move |(nm, specs, run, partitions)| {
            let n = nm.0;
            let with_traffic: BoxedStrategy<Option<TrafficSpec>> = if traffic {
                Union::new(vec![
                    Just(None).boxed(),
                    arb_traffic_spec(n).prop_map(Some).boxed(),
                ])
                .boxed()
            } else {
                Just(None).boxed()
            };
            (Just((nm, specs, run, partitions)), with_traffic)
        })
        .prop_map(
            |(
                (
                    (n, m),
                    (topology, channel, policy, loss),
                    (horizon, update_period, r, minirounds),
                    partitions,
                ),
                traffic,
            )| {
                PolicyRunConfig {
                    n,
                    m,
                    topology,
                    channel,
                    policy,
                    loss,
                    horizon,
                    update_period,
                    r,
                    minirounds,
                    partitions,
                    traffic,
                    // Ingest re-parses onto `Default`, so a round-tripping
                    // config must keep the unserialized seed field there.
                    seed: PolicyRunConfig::default().seed,
                }
            },
        )
        .boxed()
}

impl ArbSpec for ExperimentKind {
    fn arb_spec(knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        let k = *knobs;
        let mut options: Vec<BoxedStrategy<ExperimentKind>> = vec![
            arb_policy_run_config(&k)
                .prop_map(ExperimentKind::PolicyRun)
                .boxed(),
            Just(ExperimentKind::Table2).boxed(),
            (vec(4usize..=24, 1..4), 1usize..=2)
                .prop_map(|(ns, r)| ExperimentKind::Fig5(Fig5Config { ns, r }))
                .boxed(),
            (
                vec((4usize..=k.max_n, 1usize..=k.max_m), 1..3),
                (
                    TopologySpec::arb_spec(&k),
                    ChannelModelSpec::arb_spec(&k),
                    LossSpec::arb_spec(&k),
                ),
                (1usize..=2, 1usize..=8),
            )
                .prop_map(|(sizes, (topology, channel, loss), (r, minirounds))| {
                    ExperimentKind::Fig6(Fig6Config {
                        sizes,
                        topology,
                        channel,
                        loss,
                        r,
                        minirounds,
                        ..Fig6Config::default()
                    })
                })
                .boxed(),
            (
                (6usize..=k.max_n, 1usize..=2),
                (
                    TopologySpec::arb_spec(&k),
                    ChannelModelSpec::arb_spec(&k),
                    LossSpec::arb_spec(&k),
                ),
                (vec(1usize..=6, 1..3), 10u64..=40, 1usize..=2, 1usize..=6),
            )
                .prop_map(
                    |(
                        (n, m),
                        (topology, channel, loss),
                        (update_periods, updates_per_run, r, minirounds),
                    )| {
                        ExperimentKind::Fig8(Fig8Config {
                            n,
                            m,
                            topology,
                            channel,
                            loss,
                            update_periods,
                            updates_per_run,
                            r,
                            minirounds,
                            ..Fig8Config::default()
                        })
                    },
                )
                .boxed(),
            (
                (
                    vec(6usize..=20, 1..3),
                    1usize..=k.max_m,
                    vec(1usize..=2, 1..3),
                ),
                (
                    TopologySpec::arb_spec(&k),
                    ChannelModelSpec::arb_spec(&k),
                    1usize..=6,
                ),
            )
                .prop_map(|((ns, m, rs), (topology, channel, minirounds))| {
                    ExperimentKind::Complexity(ComplexityConfig {
                        ns,
                        m,
                        rs,
                        topology,
                        channel,
                        minirounds,
                        ..ComplexityConfig::default()
                    })
                })
                .boxed(),
            (arb_policy_run_config(&k), PolicySpec::arb_spec(&k))
                .prop_map(|(base, challenger)| {
                    ExperimentKind::PolicyDuel(PolicyDuelConfig { base, challenger })
                })
                .boxed(),
        ];
        if k.heavy {
            // Exponential exact-optimum kinds: clamp `n` hard regardless
            // of `max_n`.
            options.push(
                (
                    (4usize..=8, 1usize..=2),
                    (
                        TopologySpec::arb_spec(&k),
                        ChannelModelSpec::arb_spec(&k),
                        LossSpec::arb_spec(&k),
                    ),
                    (20u64..=60, 1usize..=2, 1usize..=4),
                )
                    .prop_map(
                        |((n, m), (topology, channel, loss), (horizon, r, minirounds))| {
                            ExperimentKind::Fig7(Fig7Config {
                                n,
                                m,
                                topology,
                                channel,
                                loss,
                                horizon,
                                r,
                                minirounds,
                                ..Fig7Config::default()
                            })
                        },
                    )
                    .boxed(),
            );
            options.push(
                (
                    (4usize..=10, 1usize..=2, 1u64..=3),
                    (TopologySpec::arb_spec(&k), ChannelModelSpec::arb_spec(&k)),
                )
                    .prop_map(|((n, m, instances), (topology, channel))| {
                        ExperimentKind::Theorem3(Theorem3Config {
                            n,
                            m,
                            topology,
                            channel,
                            instances,
                            ..Theorem3Config::default()
                        })
                    })
                    .boxed(),
            );
        }
        Union::new(options).boxed()
    }
}

/// A scenario/artifact-safe name: non-empty, kebab `[a-z0-9-]`, no path
/// separators or control characters (the ingest rules), prefixed so a
/// shrunk minimal scenario still reads as generated.
fn arb_name() -> BoxedStrategy<String> {
    vec(0u8..36, 0..8)
        .prop_map(|digits| {
            let mut s = String::from("g");
            for d in digits {
                s.push(char::from_digit(u32::from(d), 36).expect("digit < 36"));
            }
            s
        })
        .boxed()
}

impl ArbSpec for ScenarioSpec {
    fn arb_spec(knobs: &SpecKnobs) -> BoxedStrategy<Self> {
        (
            arb_name(),
            ExperimentKind::arb_spec(knobs),
            SeedRange::arb_spec(knobs),
            arb_deterministic_observers(knobs),
        )
            .prop_map(|(name, kind, seeds, observers)| {
                let title = format!("generated scenario {name}");
                ScenarioSpec::new(name, title, kind, seeds).with_observers(observers)
            })
            .boxed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;

    fn knobs() -> SpecKnobs {
        SpecKnobs::full()
    }

    #[test]
    fn generated_scenarios_reingest_cleanly() {
        let strat = ScenarioSpec::arb_spec(&knobs());
        let mut rng = TestRng::for_case("gen-smoke", 0);
        for _ in 0..200 {
            let spec = strat.generate(&mut rng);
            let text = spec.to_json().to_string_pretty();
            let parsed = mhca_campaign::scenarios_from_str(&text)
                .unwrap_or_else(|e| panic!("generated spec rejected by ingest: {e}\n{text}"));
            assert_eq!(parsed, vec![spec]);
        }
    }

    #[test]
    fn drifting_breakpoints_strictly_increase_and_bound_ramp() {
        let strat = arb_drifting();
        let mut rng = TestRng::for_case("drift", 0);
        for _ in 0..200 {
            let ChannelModelSpec::Drifting {
                breakpoints, ramp, ..
            } = strat.generate(&mut rng)
            else {
                panic!("wrong family");
            };
            assert!(breakpoints[0] > 0);
            let mut min_gap = breakpoints[0];
            for w in breakpoints.windows(2) {
                assert!(w[1] > w[0], "not strictly increasing: {breakpoints:?}");
                min_gap = min_gap.min(w[1] - w[0]);
            }
            assert!(ramp <= min_gap, "ramp {ramp} exceeds min gap {min_gap}");
        }
    }

    #[test]
    fn traffic_endpoints_stay_in_range_and_distinct() {
        let strat = arb_traffic_spec(5);
        let mut rng = TestRng::for_case("traffic", 0);
        for _ in 0..200 {
            let t = strat.generate(&mut rng);
            assert!(!t.flows.is_empty());
            for f in &t.flows {
                assert!(f.src < 5 && f.dst < 5 && f.src != f.dst, "bad flow {f:?}");
                assert!(f.deadline.is_none_or(|d| d > 0));
            }
            assert!(t.packet_kbps > 0.0);
        }
    }

    #[test]
    fn every_variant_of_every_tagged_type_is_generated() {
        let strat = (
            ExperimentKind::arb_spec(&knobs()),
            arb_observers(&knobs(), true),
        );
        let mut rng = TestRng::for_case("coverage", 0);
        let mut seen = String::new();
        for _ in 0..3000 {
            let (kind, observers) = strat.generate(&mut rng);
            let spec =
                ScenarioSpec::new("g", "g", kind, SeedRange::new(0, 1)).with_observers(observers);
            seen.push_str(&spec.to_json().to_string_pretty());
        }
        let tagged: &[(&str, &[&str])] = &[
            (
                "family",
                &[
                    "unit-disk",
                    "unit-disk-connected",
                    "line",
                    "ring",
                    "grid",
                    "star",
                ],
            ),
            (
                "family",
                &[
                    "complete",
                    "independent",
                    "gaussian",
                    "constant",
                    "bernoulli",
                ],
            ),
            (
                "family",
                &[
                    "uniform",
                    "adv-sinusoidal",
                    "adv-switching",
                    "adv-ramp",
                    "drifting",
                ],
            ),
            ("name", &["cs-ucb", "llr", "thompson", "discounted-cs-ucb"]),
            ("name", &["epsilon-greedy", "random", "oracle"]),
            ("process", &["poisson", "deterministic", "bursty"]),
            (
                "kind",
                &["fig5", "fig6", "fig7", "fig8", "table2", "complexity"],
            ),
            (
                "kind",
                &["theorem3", "policy-run", "policy-duel", "sensing-cost"],
            ),
            ("kind", &["windowed-regret", "queue-tail"]),
        ];
        for (key, labels) in tagged {
            for label in *labels {
                let text = format!("\"{key}\": \"{label}\"");
                assert!(seen.contains(&text), "never generated {text}");
            }
        }
        for bare in [
            "decide-timing",
            "comm-totals",
            "per-vertex-tx",
            "throughput",
        ] {
            assert!(
                seen.contains(&format!("\"{bare}\"")),
                "never generated {bare}"
            );
        }
        for bare in ["capture-stats", "flow-delay"] {
            assert!(
                seen.contains(&format!("\"{bare}\"")),
                "never generated {bare}"
            );
        }
    }

    #[test]
    fn zero_choices_yield_the_minimal_scenario() {
        let strat = ScenarioSpec::arb_spec(&knobs());
        let mut rng = TestRng::from_choices(Vec::new());
        let spec = strat.generate(&mut rng);
        // The all-zero choice sequence selects every first option and
        // range start: the shrinker's fixed point is a tiny named
        // policy-run on the smallest admissible network.
        assert_eq!(spec.name, "g");
        assert!(spec.observers.is_empty());
        assert_eq!(spec.seeds, SeedRange::new(0, 1));
        match spec.kind {
            ExperimentKind::PolicyRun(cfg) => {
                assert_eq!((cfg.n, cfg.m), (4, 1));
                assert_eq!(cfg.topology, TopologySpec::Line);
                assert!(cfg.traffic.is_none());
            }
            other => panic!("expected the policy-run variant first, got {other:?}"),
        }
    }
}
