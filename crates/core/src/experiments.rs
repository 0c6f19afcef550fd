//! Experiment configurations and output records for every figure of the
//! paper's evaluation (Section V), plus the complexity claims of Section
//! IV-C.
//!
//! This module is **data only**: the config structs (`Fig6Config`,
//! `PolicyRunConfig`, …) and the typed output records the figures plot.
//! The execution logic lives in [`crate::experiment`] — each config type
//! implements [`Experiment`](crate::experiment::Experiment) itself and is
//! driven by the unified engine
//! [`run_experiment`](crate::experiment::run_experiment).
//! (The pre-engine free functions `fig6`, `run_fig5`, `run_policy_spec`,
//! … spent one release as deprecated shims and have been retired; the
//! engine is the only entry point.)
//!
//! Default parameters mirror the paper; `*_quick` constructors provide
//! scaled-down variants for tests and CI.

use crate::{network::Network, runner::RunResult, time::TimeModel};
use mhca_bandit::{
    policies::{CsUcb, DiscountedCsUcb, EpsilonGreedy, IndexPolicy, Llr, Oracle, Random},
    thompson::GaussianThompson,
};
use mhca_channels::ChannelModelSpec;
use mhca_graph::TopologySpec;
use mhca_sim::LossSpec;

// ---------------------------------------------------------------------------
// Policy specs — declarative learning-policy construction.
// ---------------------------------------------------------------------------

/// Declarative learning-policy choice for spec-driven experiments: a
/// `(spec, network)` pair fully determines the policy instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// The paper's CS-UCB index (Algorithm 2).
    CsUcb {
        /// Exploration bonus: the index of an arm never played yet
        /// (positive and finite).
        l: f64,
    },
    /// The LLR baseline the paper compares against (its strategy-size
    /// bound `L` is the network's node count).
    Llr {
        /// Exploration bonus: the index of an arm never played yet
        /// (positive and finite).
        l: f64,
    },
    /// Gaussian Thompson sampling.
    Thompson {
        /// Observation-noise standard deviation (unit-reward scale).
        sigma: f64,
    },
    /// Discount-weighted CS-UCB for drifting channels.
    DiscountedCsUcb {
        /// Per-slot discount factor `γ ∈ (0, 1]`.
        gamma: f64,
    },
    /// ε-greedy over the empirical means.
    EpsilonGreedy {
        /// Exploration probability.
        eps: f64,
    },
    /// Uniformly random indices (the no-learning floor).
    Random,
    /// True-mean oracle (the no-regret ceiling).
    Oracle,
}

impl PolicySpec {
    /// Instantiates the policy for a network.
    pub fn build(&self, net: &Network) -> Box<dyn IndexPolicy> {
        match *self {
            PolicySpec::CsUcb { l } => Box::new(CsUcb::new(l)),
            PolicySpec::Llr { l } => Box::new(Llr::new(net.n_nodes(), l)),
            PolicySpec::Thompson { sigma } => Box::new(GaussianThompson::new(sigma, 2.0)),
            PolicySpec::DiscountedCsUcb { gamma } => {
                Box::new(DiscountedCsUcb::new(net.n_vertices(), gamma, 2.0))
            }
            PolicySpec::EpsilonGreedy { eps } => Box::new(EpsilonGreedy::new(eps, 2.0)),
            PolicySpec::Random => Box::new(Random),
            PolicySpec::Oracle => Box::new(Oracle::new(net.channels().means())),
        }
    }

    /// Short kebab-case name for artifact paths and CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            PolicySpec::CsUcb { .. } => "cs-ucb",
            PolicySpec::Llr { .. } => "llr",
            PolicySpec::Thompson { .. } => "thompson",
            PolicySpec::DiscountedCsUcb { .. } => "discounted-cs-ucb",
            PolicySpec::EpsilonGreedy { .. } => "epsilon-greedy",
            PolicySpec::Random => "random",
            PolicySpec::Oracle => "oracle",
        }
    }
}

impl Default for PolicySpec {
    /// The paper's policy: CS-UCB with `l = 2`.
    fn default() -> Self {
        PolicySpec::CsUcb { l: 2.0 }
    }
}

// ---------------------------------------------------------------------------
// Fig. 6 — convergence of Algorithm 3 over mini-rounds.
// ---------------------------------------------------------------------------

/// Configuration of the Fig. 6 experiment: summed weight of all output
/// independent sets as mini-rounds advance, for several `N×M` networks.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Config {
    /// `(N, M)` pairs; the paper uses `{50,100,200} × {5,10}`.
    pub sizes: Vec<(usize, usize)>,
    /// Topology family. The paper's density is unspecified; the default
    /// unit-disk degree `d = 3.5` reproduces its "converged after the 4th
    /// mini-round" observation (see DESIGN.md).
    pub topology: TopologySpec,
    /// Channel-model family (only the means matter here).
    pub channel: ChannelModelSpec,
    /// Control-channel loss injection (lossless by default).
    pub loss: LossSpec,
    /// Local MWIS radius (the paper uses `r = 2`).
    pub r: usize,
    /// Mini-rounds to plot (paper x-axis: 1..10).
    pub minirounds: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            sizes: vec![(50, 5), (100, 5), (200, 5), (50, 10), (100, 10), (200, 10)],
            topology: TopologySpec::UnitDisk { avg_degree: 3.5 },
            channel: ChannelModelSpec::default(),
            loss: LossSpec::lossless(),
            r: 2,
            minirounds: 10,
            seed: 61,
        }
    }
}

impl Fig6Config {
    /// Scaled-down variant for tests.
    pub fn quick() -> Self {
        Fig6Config {
            sizes: vec![(30, 3), (50, 5)],
            topology: TopologySpec::UnitDisk { avg_degree: 5.0 },
            r: 1,
            minirounds: 8,
            ..Fig6Config::default()
        }
    }
}

/// One line of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Series {
    /// Users `N`.
    pub n: usize,
    /// Channels `M`.
    pub m: usize,
    /// Cumulative winner weight (kbps) after mini-round `i+1`; padded with
    /// the final value once the protocol terminates.
    pub weight_by_miniround: Vec<f64>,
    /// Mini-round after which every vertex was marked.
    pub converged_at: usize,
}

// ---------------------------------------------------------------------------
// Fig. 7 — practical regret and β-regret vs LLR on a 15×3 network.
// ---------------------------------------------------------------------------

/// Configuration of the Fig. 7 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Config {
    /// Users (paper: 15).
    pub n: usize,
    /// Channels (paper: 3).
    pub m: usize,
    /// Topology family (paper: a connected random network).
    pub topology: TopologySpec,
    /// Channel-model family (paper: truncated Gaussians, `σ = 0.1µ`).
    pub channel: ChannelModelSpec,
    /// Control-channel loss injection (lossless by default).
    pub loss: LossSpec,
    /// Horizon in slots (paper: 1000).
    pub horizon: u64,
    /// Local MWIS radius (paper: 2).
    pub r: usize,
    /// Mini-round budget per decision.
    pub minirounds: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            n: 15,
            m: 3,
            topology: TopologySpec::UnitDiskConnected { avg_degree: 4.0 },
            channel: ChannelModelSpec::default(),
            loss: LossSpec::lossless(),
            horizon: 1000,
            r: 2,
            minirounds: 4,
            seed: 71,
        }
    }
}

impl Fig7Config {
    /// Scaled-down variant for tests.
    pub fn quick() -> Self {
        Fig7Config {
            n: 8,
            m: 2,
            topology: TopologySpec::UnitDiskConnected { avg_degree: 3.0 },
            horizon: 120,
            r: 1,
            ..Fig7Config::default()
        }
    }
}

/// Per-policy regret series of Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Output {
    /// The exact optimum `R_1` in kbps (paper's instance: 7282.90).
    pub optimal_kbps: f64,
    /// β actually used for the β-regret target (`θ·α`).
    pub beta: f64,
    /// Run of the paper's policy (Algorithm 2 with CS-UCB).
    pub algorithm2: RunResult,
    /// Run of the LLR baseline (same oracle, same channels).
    pub llr: RunResult,
}

// ---------------------------------------------------------------------------
// Fig. 8 — throughput under periodic (stale-weight) updates.
// ---------------------------------------------------------------------------

/// Configuration of the Fig. 8 experiment: estimated vs actual average
/// effective throughput under periodic weight updates, Algorithm 2 vs LLR.
///
/// Expected shape (paper): actual throughput grows toward the ideal as
/// the update period `y` grows — 1/2, 9/10, 19/20 and 39/40 of ideal at
/// `y` = 1, 5, 10, 20 — while Algorithm 2's estimated and actual lines
/// nearly coincide and LLR's estimate overshoots badly. The
/// `fig8-reduced` registry scenario runs it on a 40-node network.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Config {
    /// Users (paper: 100).
    pub n: usize,
    /// Channels (paper: 10).
    pub m: usize,
    /// Topology family. Same density calibration as Fig. 6: at unit-disk
    /// degree `d ≈ 3.5` the `D = 4` mini-round budget resolves ≥ 97% of
    /// the weight, matching the paper's converged-by-4 observation;
    /// denser networks starve the budget and distort the comparison.
    pub topology: TopologySpec,
    /// Channel-model family.
    pub channel: ChannelModelSpec,
    /// Control-channel loss injection (lossless by default).
    pub loss: LossSpec,
    /// Update periods `y` (paper: 1, 5, 10, 20).
    pub update_periods: Vec<usize>,
    /// Weight updates per run (paper: 1000 ⇒ horizons `y·1000`).
    pub updates_per_run: u64,
    /// Local MWIS radius.
    pub r: usize,
    /// Mini-round budget per decision.
    pub minirounds: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            n: 100,
            m: 10,
            topology: TopologySpec::UnitDisk { avg_degree: 3.5 },
            channel: ChannelModelSpec::default(),
            loss: LossSpec::lossless(),
            update_periods: vec![1, 5, 10, 20],
            updates_per_run: 1000,
            r: 2,
            minirounds: 4,
            seed: 81,
        }
    }
}

impl Fig8Config {
    /// Scaled-down variant for tests and default bench runs.
    pub fn quick() -> Self {
        Fig8Config {
            n: 30,
            m: 4,
            topology: TopologySpec::UnitDisk { avg_degree: 4.0 },
            update_periods: vec![1, 5],
            updates_per_run: 60,
            r: 1,
            ..Fig8Config::default()
        }
    }
}

/// One subplot of Fig. 8 (one update period `y`).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Run {
    /// Update period `y`.
    pub y: usize,
    /// Horizon in slots (`y · updates_per_run`).
    pub horizon: u64,
    /// Algorithm 2 (CS-UCB) run: estimated vs actual series inside.
    pub algorithm2: RunResult,
    /// LLR run on the same network and channel realizations.
    pub llr: RunResult,
}

// ---------------------------------------------------------------------------
// Fig. 5 — linear-network worst case for the strategy decision.
// ---------------------------------------------------------------------------

/// One point of the worst-case demonstration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCasePoint {
    /// Line length `N`.
    pub n: usize,
    /// Mini-rounds Algorithm 3 needed to mark every vertex.
    pub minirounds_used: usize,
}

/// Configuration of the Fig. 5 worst-case experiment. The workload is
/// deterministic (a line with strictly decreasing weights), so there is no
/// seed or channel model.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Config {
    /// Line lengths `N` to measure.
    pub ns: Vec<usize>,
    /// Local MWIS radius.
    pub r: usize,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            ns: vec![10, 20, 40, 80, 160, 320],
            r: 1,
        }
    }
}

impl Fig5Config {
    /// Scaled-down variant for tests.
    pub fn quick() -> Self {
        Fig5Config {
            ns: vec![10, 20, 40],
            r: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Section IV-C — measured communication/space complexity.
// ---------------------------------------------------------------------------

/// One measured complexity point.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexityPoint {
    /// Users `N`.
    pub n: usize,
    /// Channels `M`.
    pub m: usize,
    /// Radius `r`.
    pub r: usize,
    /// Mini-rounds executed.
    pub minirounds: usize,
    /// Mean relay broadcasts per vertex for the decision.
    pub mean_tx_per_vertex: f64,
    /// Max relay broadcasts charged to one vertex.
    pub max_tx_per_vertex: u64,
    /// Pipelined mini-timeslots for the decision.
    pub timeslots: u64,
    /// Mean `(2r+1)`-ball size — the per-vertex storage `O(m)` claim.
    pub mean_ball_size: f64,
    /// Election probes that scanned a ball row
    /// ([`crate::DecideScanStats::candidates_scanned`]): on the
    /// incremental dirty-ball path every mini-round 0 probe and every
    /// later probe whose witness was determined, one per surviving
    /// Candidate per mini-round on the full-rescan reference.
    pub candidates_scanned: u64,
}

/// Configuration of the Section IV-C complexity measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexityConfig {
    /// Network sizes `N`.
    pub ns: Vec<usize>,
    /// Channels `M`.
    pub m: usize,
    /// Radii to measure.
    pub rs: Vec<usize>,
    /// Topology family.
    pub topology: TopologySpec,
    /// Channel-model family (only the means matter here).
    pub channel: ChannelModelSpec,
    /// Mini-round budget per decision.
    pub minirounds: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for ComplexityConfig {
    fn default() -> Self {
        ComplexityConfig {
            ns: vec![25, 50, 100, 200],
            m: 5,
            rs: vec![1, 2],
            topology: TopologySpec::UnitDisk { avg_degree: 5.0 },
            channel: ChannelModelSpec::default(),
            minirounds: 4,
            seed: 91,
        }
    }
}

impl ComplexityConfig {
    /// Scaled-down variant for tests.
    pub fn quick() -> Self {
        ComplexityConfig {
            ns: vec![20, 60],
            m: 3,
            rs: vec![1],
            topology: TopologySpec::UnitDisk { avg_degree: 4.0 },
            seed: 5,
            ..ComplexityConfig::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Theorem 3 — distributed vs centralized approximation quality.
// ---------------------------------------------------------------------------

/// One instance of the Theorem 3 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Theorem3Point {
    /// Seed of the instance.
    pub seed: u64,
    /// Exact optimum (branch-and-bound).
    pub optimal: f64,
    /// Centralized robust PTAS weight (ε = 0.5, unbounded radius).
    pub centralized: f64,
    /// Distributed Algorithm 3 weight, run to completion, exact local
    /// solving.
    pub distributed: f64,
    /// Distributed weight under the constant budget `D = 4`.
    pub distributed_capped: f64,
}

/// Configuration of the Theorem 3 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Theorem3Config {
    /// Users `N` (small enough for exact branch-and-bound).
    pub n: usize,
    /// Channels `M`.
    pub m: usize,
    /// Topology family.
    pub topology: TopologySpec,
    /// Channel-model family (only the means matter here).
    pub channel: ChannelModelSpec,
    /// First instance seed.
    pub seed: u64,
    /// Number of instances (`seed..seed + instances`).
    pub instances: u64,
}

impl Default for Theorem3Config {
    fn default() -> Self {
        Theorem3Config {
            n: 15,
            m: 3,
            topology: TopologySpec::UnitDisk { avg_degree: 3.5 },
            channel: ChannelModelSpec::default(),
            seed: 0,
            instances: 10,
        }
    }
}

impl Theorem3Config {
    /// Scaled-down variant for tests.
    pub fn quick() -> Self {
        Theorem3Config {
            n: 12,
            m: 2,
            topology: TopologySpec::UnitDisk { avg_degree: 3.0 },
            instances: 4,
            ..Theorem3Config::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Table II — the time model as data.
// ---------------------------------------------------------------------------

/// Table II rendered as data, with the derived quantities Section V uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// The timing parameters.
    pub time: TimeModel,
    /// Derived mini-round length `t_m`.
    pub miniround_ms: f64,
    /// Derived decision budget in mini-rounds.
    pub minirounds_per_decision: usize,
    /// Derived airtime fraction θ.
    pub theta: f64,
}

// ---------------------------------------------------------------------------
// Generic spec-driven policy run — the campaign cross-product workload.
// ---------------------------------------------------------------------------

/// A fully declarative Algorithm 2 run: topology × channel model × policy
/// × `(N, M)` × horizon × update period × loss, all from one seed. This is
/// the cross-product axis experiment campaigns sweep; the per-figure
/// configs above are fixed points of it.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRunConfig {
    /// Users `N`.
    pub n: usize,
    /// Channels `M`.
    pub m: usize,
    /// Topology family.
    pub topology: TopologySpec,
    /// Channel-model family.
    pub channel: ChannelModelSpec,
    /// Learning policy.
    pub policy: PolicySpec,
    /// Control-channel loss injection.
    pub loss: LossSpec,
    /// Horizon in slots.
    pub horizon: u64,
    /// Update period `y` (1 = decide every slot).
    pub update_period: usize,
    /// Local MWIS radius.
    pub r: usize,
    /// Mini-round budget per decision.
    pub minirounds: usize,
    /// Core+halo tiles of the lossless decide phase
    /// ([`crate::DistributedPtasConfig::partitions`]; `<= 1` = serial,
    /// byte-identical outcomes either way).
    pub partitions: usize,
    /// Optional traffic workload: arrival process × flows × deadlines,
    /// served from the channel-access outcome by the per-vertex queue
    /// engine ([`crate::QueueEngine`]). `None` (the default) leaves the
    /// run byte-identical to a pre-traffic-layer run.
    pub traffic: Option<crate::TrafficSpec>,
    /// Seed.
    pub seed: u64,
}

impl Default for PolicyRunConfig {
    fn default() -> Self {
        PolicyRunConfig {
            n: 15,
            m: 3,
            topology: TopologySpec::UnitDisk { avg_degree: 3.5 },
            channel: ChannelModelSpec::default(),
            policy: PolicySpec::default(),
            loss: LossSpec::lossless(),
            horizon: 500,
            update_period: 1,
            r: 2,
            minirounds: 4,
            partitions: 1,
            traffic: None,
            seed: 0,
        }
    }
}

impl PolicyRunConfig {
    /// Scaled-down variant for tests.
    pub fn quick() -> Self {
        PolicyRunConfig {
            n: 8,
            m: 2,
            horizon: 100,
            r: 1,
            ..PolicyRunConfig::default()
        }
    }
}

/// A paired head-to-head: `base.policy` vs `challenger` on the same
/// network and identical channel realizations (the Fig. 7 comparison
/// generalized — the counter-based channel matrix makes any two runs with
/// the same seed a paired experiment).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyDuelConfig {
    /// The baseline run (its `policy` is contestant A).
    pub base: PolicyRunConfig,
    /// Contestant B, run on the identical instance.
    pub challenger: PolicySpec,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, ExperimentData, ObserverSet, Table2Experiment};

    /// Engine shorthand: run an experiment observer-free at one seed and
    /// return its typed payload.
    fn run(exp: &dyn crate::experiment::Experiment, seed: u64) -> ExperimentData {
        run_experiment(exp, seed, ObserverSet::new()).data
    }

    fn fig6(cfg: &Fig6Config) -> Vec<Fig6Series> {
        match run(cfg, cfg.seed) {
            ExperimentData::Fig6 { series, .. } => series,
            other => panic!("wrong data variant {other:?}"),
        }
    }

    fn policy_run(cfg: &PolicyRunConfig) -> RunResult {
        match run(cfg, cfg.seed) {
            ExperimentData::PolicyRun { run, .. } => run,
            other => panic!("wrong data variant {other:?}"),
        }
    }

    #[test]
    fn fig6_quick_series_shape() {
        let cfg = Fig6Config::quick();
        let series = fig6(&cfg);
        assert_eq!(series.len(), cfg.sizes.len());
        for s in &series {
            assert_eq!(s.weight_by_miniround.len(), cfg.minirounds);
            // Cumulative weight never decreases.
            for w in s.weight_by_miniround.windows(2) {
                assert!(w[1] >= w[0] - 1e-9);
            }
            assert!(*s.weight_by_miniround.last().unwrap() > 0.0);
        }
    }

    #[test]
    fn fig7_quick_shows_negative_beta_regret() {
        let cfg = Fig7Config::quick();
        let ExperimentData::Fig7(out) = run(&cfg, cfg.seed) else {
            panic!("wrong data variant");
        };
        assert!(out.optimal_kbps > 0.0);
        // β-regret converges negative (Fig. 7(b)): the achieved effective
        // throughput beats the 1/β target.
        let last = *out.algorithm2.practical_beta_regret.last().unwrap();
        assert!(last < 0.0, "beta regret should go negative, got {last}");
        // Practical regret decreases over the run (learning).
        let pr = &out.algorithm2.practical_regret;
        assert!(pr.last().unwrap() < &pr[2]);
    }

    #[test]
    fn fig8_quick_stale_updates_improve_throughput() {
        let cfg = Fig8Config::quick();
        let ExperimentData::Fig8(runs) = run(&cfg, cfg.seed) else {
            panic!("wrong data variant");
        };
        assert_eq!(runs.len(), 2);
        let y1 = &runs[0];
        let y5 = &runs[1];
        assert_eq!(y1.y, 1);
        assert_eq!(y5.y, 5);
        let final_y1 = *y1.algorithm2.avg_actual_throughput.last().unwrap();
        let final_y5 = *y5.algorithm2.avg_actual_throughput.last().unwrap();
        assert!(
            final_y5 > final_y1,
            "y=5 effective {final_y5} should beat y=1 {final_y1}"
        );
    }

    #[test]
    fn fig5_worstcase_grows_linearly() {
        let exp = Fig5Config {
            ns: vec![10, 20, 40],
            r: 1,
        };
        let ExperimentData::Fig5(points) = run(&exp, 0) else {
            panic!("wrong data variant");
        };
        assert!(points[1].minirounds_used > points[0].minirounds_used);
        assert!(points[2].minirounds_used > points[1].minirounds_used);
        // Roughly linear: doubling N should not leave mini-rounds flat.
        assert!(points[2].minirounds_used as f64 >= 1.5 * points[1].minirounds_used as f64);
    }

    #[test]
    fn complexity_is_size_independent_per_vertex() {
        let cfg = ComplexityConfig::quick();
        let ExperimentData::Complexity(pts) = run(&cfg, cfg.seed) else {
            panic!("wrong data variant");
        };
        assert_eq!(pts.len(), 2);
        // The per-vertex message count must not scale with N (the paper's
        // O(r²+D) claim) — allow a generous factor for randomness.
        let small = pts[0].mean_tx_per_vertex.max(1e-9);
        let large = pts[1].mean_tx_per_vertex;
        assert!(
            large < 3.0 * small,
            "per-vertex tx grew with N: {small} -> {large}"
        );
    }

    #[test]
    fn theorem3_ratios_are_sane() {
        let cfg = Theorem3Config::quick();
        let ExperimentData::Theorem3(pts) = run(&cfg, cfg.seed) else {
            panic!("wrong data variant");
        };
        assert_eq!(pts.len(), cfg.instances as usize);
        for p in &pts {
            assert!(p.optimal >= p.centralized - 1e-9);
            assert!(p.optimal >= p.distributed - 1e-9);
            assert!(p.distributed_capped <= p.distributed + 1e-9);
            // Both approximations stay within a factor 2 of optimal on
            // these easy geometric instances.
            assert!(p.centralized * 2.0 >= p.optimal);
            assert!(p.distributed * 2.0 >= p.optimal);
        }
    }

    #[test]
    fn policy_run_spec_is_reproducible_and_learns() {
        let cfg = PolicyRunConfig::quick();
        let a = policy_run(&cfg);
        let b = policy_run(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.policy, "cs-ucb");
        assert_eq!(a.slots, cfg.horizon);
        let random = policy_run(&PolicyRunConfig {
            policy: PolicySpec::Random,
            horizon: 300,
            ..PolicyRunConfig::quick()
        });
        let learned = policy_run(&PolicyRunConfig {
            horizon: 300,
            ..PolicyRunConfig::quick()
        });
        assert!(learned.average_expected_kbps > random.average_expected_kbps);
    }

    #[test]
    fn policy_specs_build_the_named_policies() {
        let net = Network::random(6, 2, 2.5, 0.1, 3);
        for (spec, name) in [
            (PolicySpec::CsUcb { l: 2.0 }, "cs-ucb"),
            (PolicySpec::Llr { l: 2.0 }, "llr"),
            (PolicySpec::Random, "random"),
            (PolicySpec::Oracle, "oracle"),
        ] {
            assert_eq!(spec.build(&net).name(), name);
            assert_eq!(spec.label(), name);
        }
    }

    #[test]
    fn lossy_fig6_still_produces_series() {
        let cfg = Fig6Config {
            loss: LossSpec::lossy(0.15, 7),
            ..Fig6Config::quick()
        };
        let series = fig6(&cfg);
        assert_eq!(series.len(), cfg.sizes.len());
        for s in &series {
            assert!(*s.weight_by_miniround.last().unwrap() > 0.0);
        }
    }

    #[test]
    fn table2_matches_paper() {
        let ExperimentData::Table2(t) = run(&Table2Experiment, 0) else {
            panic!("wrong data variant");
        };
        assert_eq!(t.theta, 0.5);
        assert_eq!(t.miniround_ms, 250.0);
        assert_eq!(t.minirounds_per_decision, 4);
    }
}
