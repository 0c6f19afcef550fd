//! Shared spec-building and parity-assertion helpers for the workspace's
//! test batteries.
//!
//! Before this crate existed, `tests/decide_parity.rs`,
//! `tests/partition_parity.rs`, and `crates/campaign/tests/campaign.rs`
//! each carried a private copy of the topology zoo, the decision-parity
//! sequence assertion, and the campaign scaffolding. This module is the
//! single home: the batteries (and the [`crate::contracts`] harnesses)
//! import from here, so an engine API change lands in one place.

use mhca_campaign::runner::CampaignConfig;
use mhca_campaign::{ExperimentKind, ScenarioSpec, SeedRange};
use mhca_core::experiments::{Fig6Config, Fig7Config, Fig8Config};
use mhca_core::{DecisionOutcome, DistributedPtas, DistributedPtasConfig};
use mhca_graph::{topology, unit_disk, ExtendedConflictGraph, Graph};
use mhca_service::json::Json;
use mhca_service::{Directive, JobCtrl, JobProgress};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;

/// A topology family: name plus a builder parameterized by instance seed.
pub type TopologyFamily = (&'static str, Box<dyn Fn(u64) -> Graph>);

/// The unified topology zoo of the parity batteries: every family the
/// historical `decide_parity`/`partition_parity` grids exercised, merged.
/// Instance seeds select sizes inside each family, so grids over
/// `(family, instance)` pin many distinct graphs.
pub fn topology_zoo() -> Vec<TopologyFamily> {
    vec![
        (
            "unit-disk-sparse",
            Box::new(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                unit_disk::random_with_average_degree(28, 3.0, &mut rng).0
            }),
        ),
        (
            "unit-disk-dense",
            Box::new(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                unit_disk::random_with_average_degree(24, 6.0, &mut rng).0
            }),
        ),
        (
            "unit-disk-mid",
            Box::new(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                unit_disk::random_with_average_degree(26, 4.5, &mut rng).0
            }),
        ),
        (
            "line",
            Box::new(|seed| topology::line(16 + (seed % 9) as usize)),
        ),
        (
            "ring",
            Box::new(|seed| topology::ring(12 + (seed % 7) as usize)),
        ),
        (
            "grid",
            Box::new(|seed| topology::grid(3 + (seed % 3) as usize, 5)),
        ),
        (
            "sparse-components",
            Box::new(|seed| sparse_components(20, seed)),
        ),
    ]
}

/// Disconnected components with a few seeded cross edges — the
/// historical `sparse-components` family.
pub fn sparse_components(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Graph::builder(n);
    for _ in 0..n {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Fresh uniform weights in `[0.05, 1)` for every vertex of `h`.
pub fn random_weights(h: &ExtendedConflictGraph, rng: &mut StdRng) -> Vec<f64> {
    (0..h.n_vertices())
        .map(|_| rng.gen_range(0.05..1.0))
        .collect()
}

/// One decision sequence on a fresh incremental/reference engine pair;
/// returns `(decisions compared, incremental scans, reference scans)`.
///
/// Panics on the first outcome mismatch, and whenever the incremental
/// path scans *more* candidates than the reference (a per-round tie is
/// possible, so the strictly-fewer claim belongs to grid aggregates).
pub fn assert_parity_sequence(
    h: &ExtendedConflictGraph,
    cfg: DistributedPtasConfig,
    weight_seed: u64,
    decisions: usize,
    label: &str,
) -> (usize, u64, u64) {
    let mut incremental = DistributedPtas::new(h, cfg);
    let mut reference = DistributedPtas::new(h, cfg);
    let mut got = DecisionOutcome::default();
    let mut expect = DecisionOutcome::default();
    let mut rng = StdRng::seed_from_u64(weight_seed);
    let (mut inc_total, mut ref_total) = (0u64, 0u64);
    for step in 0..decisions {
        let w = random_weights(h, &mut rng);
        incremental.decide_into(&w, &mut got);
        reference.decide_into_rescan(&w, &mut expect);
        assert_eq!(got, expect, "{label}, step {step}");
        let (inc, re) = (
            incremental.scan_stats().candidates_scanned,
            reference.scan_stats().candidates_scanned,
        );
        assert!(inc <= re, "{label}, step {step}: scanned {inc} > {re}");
        inc_total += inc;
        ref_total += re;
    }
    (decisions, inc_total, ref_total)
}

/// Runs `decisions` fresh-weight decisions on one persistent
/// serial/tiled/rescan engine triple, asserting outcome and scan-stat
/// equality at every step.
pub fn assert_tiled_parity_sequence(
    h: &ExtendedConflictGraph,
    base: DistributedPtasConfig,
    partitions: usize,
    threads: usize,
    weight_seed: u64,
    decisions: usize,
    label: &str,
) {
    let mut serial = DistributedPtas::new(h, base);
    let mut tiled = DistributedPtas::new(h, base.with_partitions(partitions).with_threads(threads));
    let mut oracle = DistributedPtas::new(h, base);
    let mut expect = DecisionOutcome::default();
    let mut got = DecisionOutcome::default();
    let mut truth = DecisionOutcome::default();
    let mut rng = StdRng::seed_from_u64(weight_seed);
    for step in 0..decisions {
        let w = random_weights(h, &mut rng);
        serial.decide_into(&w, &mut expect);
        tiled.decide_into(&w, &mut got);
        oracle.decide_into_rescan(&w, &mut truth);
        assert_eq!(
            got, expect,
            "{label} p={partitions} t={threads}, step {step}: tiled != serial"
        );
        assert_eq!(
            got, truth,
            "{label} p={partitions} t={threads}, step {step}: tiled != rescan oracle"
        );
        assert_eq!(
            tiled.scan_stats(),
            serial.scan_stats(),
            "{label} p={partitions} t={threads}, step {step}: scan stats diverged"
        );
        // Explicit spot checks on the fields most exposed to merge-order
        // bugs, so a future PartialEq derive change cannot silently weaken
        // the batteries that call this.
        assert_eq!(got.leaders_flat, expect.leaders_flat, "{label} step {step}");
        assert_eq!(got.counters, expect.counters, "{label} step {step}");
        // Bit for bit: `==` on f64 would accept a `-0.0`/`0.0` swap.
        let bits = |o: &DecisionOutcome| -> Vec<u64> {
            o.per_miniround_weight.iter().map(|w| w.to_bits()).collect()
        };
        assert_eq!(bits(&got), bits(&expect), "{label} step {step}");
    }
}

/// Fresh temp directory per test (process-unique + tag-unique).
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhca-specgen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Silences a campaign config's progress output (tests and harnesses).
pub fn quiet(cfg: CampaignConfig) -> CampaignConfig {
    CampaignConfig { quiet: true, ..cfg }
}

/// A small but real campaign: the paper's Fig. 6 / Fig. 7 / Fig. 8 and
/// Table 2 from scaled-down registry-style specs, multi-seed where the
/// experiment is randomized.
pub fn paper_campaign() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(
            "fig6",
            "Fig. 6 (scaled)",
            ExperimentKind::Fig6(Fig6Config::quick()),
            SeedRange::new(61, 2),
        ),
        ScenarioSpec::new(
            "fig7",
            "Fig. 7 (scaled)",
            ExperimentKind::Fig7(Fig7Config::quick()),
            SeedRange::new(71, 2),
        ),
        ScenarioSpec::new(
            "fig8",
            "Fig. 8 (scaled)",
            ExperimentKind::Fig8(Fig8Config::quick()),
            SeedRange::new(81, 2),
        ),
        ScenarioSpec::new(
            "table2",
            "Table II",
            ExperimentKind::Table2,
            SeedRange::new(0, 1),
        ),
    ]
}

/// A scaled-down drift scenario shaped like the registry's `drift-regret`
/// plus a capture/sensing scenario — the observer-zoo workload.
pub fn observer_zoo_campaign() -> Vec<ScenarioSpec> {
    use mhca_channels::ChannelModelSpec;
    use mhca_core::{ObserverKind, PolicyRunConfig};
    vec![
        ScenarioSpec::new(
            "drift-mini",
            "windowed regret under drift (scaled)",
            ExperimentKind::PolicyRun(PolicyRunConfig {
                channel: ChannelModelSpec::Drifting {
                    shift_frac: 0.5,
                    breakpoints: vec![100, 200],
                    ramp: 0,
                },
                horizon: 300,
                ..PolicyRunConfig::quick()
            }),
            SeedRange::new(0, 2),
        )
        .with_observers(vec![
            ObserverKind::WindowedRegret { window: 50 },
            ObserverKind::CommTotals,
        ]),
        ScenarioSpec::new(
            "capture-mini",
            "capture/sensing tallies (scaled)",
            ExperimentKind::PolicyRun(PolicyRunConfig {
                channel: ChannelModelSpec::AdversarialSwitching {
                    swing_frac: 1.0,
                    dwell: 20,
                },
                horizon: 120,
                ..PolicyRunConfig::quick()
            }),
            SeedRange::new(0, 2),
        )
        .with_observers(vec![
            ObserverKind::CaptureStats,
            ObserverKind::SensingCost {
                probe_cost: 1.0,
                report_cost: 0.1,
            },
        ]),
    ]
}

/// A scripted [`JobCtrl`] for service-executor tests: counts polls,
/// collects checkpoints, and optionally checkpoints (and stops) at one
/// specific poll — the public home of the `InertCtrl` pattern the
/// service-resume batteries previously duplicated.
#[derive(Debug, Default)]
pub struct CheckpointCtrl {
    /// Poll count so far.
    pub polls: u64,
    /// Checkpoints saved, in order.
    pub checkpoints: Vec<Json>,
    /// When `Some(k)`, the `k`-th poll answers `Checkpoint` (or
    /// `CheckpointAndStop` when [`Self::stop_after_checkpoint`]).
    pub checkpoint_at: Option<u64>,
    /// Stop the job right after the scripted checkpoint.
    pub stop_after_checkpoint: bool,
}

impl CheckpointCtrl {
    /// A ctrl that always answers `Continue`.
    pub fn new() -> Self {
        CheckpointCtrl::default()
    }

    /// A ctrl that checkpoints-and-stops at the `at`-th poll.
    pub fn interrupt_at(at: u64) -> Self {
        CheckpointCtrl {
            checkpoint_at: Some(at),
            stop_after_checkpoint: true,
            ..CheckpointCtrl::default()
        }
    }
}

impl JobCtrl for CheckpointCtrl {
    fn poll(&mut self, _progress: JobProgress) -> Directive {
        self.polls += 1;
        if Some(self.polls) == self.checkpoint_at {
            if self.stop_after_checkpoint {
                Directive::CheckpointAndStop
            } else {
                Directive::Checkpoint
            }
        } else {
            Directive::Continue
        }
    }

    fn save_checkpoint(&mut self, state: Json) {
        self.checkpoints.push(state);
    }
}
