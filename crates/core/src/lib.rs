//! `mhca-core` — the paper's contribution, assembled.
//!
//! This crate implements the full channel-access scheme of *"Almost Optimal
//! Channel Access in Multi-Hop Networks With Unknown Channel Variables"*
//! (Zhou et al., ICDCS 2014) on top of the workspace substrates:
//!
//! * [`Network`] — a conflict graph `G`, its extended conflict graph `H`,
//!   and the `N×M` stochastic channel matrix, built from one seed.
//! * [`distributed`] — **Algorithm 3**: the distributed robust PTAS for
//!   strategy decision (Candidate/LocalLeader/Winner/Loser state machine,
//!   `D` mini-rounds, hop-limited floods on the simulated control channel).
//! * [`runner`] — **Algorithm 2**: the round loop (weight broadcast →
//!   strategy decision → data transmission → estimate update), with the
//!   periodic stale-weight variant of Section V-C.
//! * [`time`] — the Table II time model and the airtime fraction
//!   `θ = t_d/t_a`.
//! * [`experiment`] — the **unified experiment surface**: one
//!   [`Experiment`] trait driven by one engine ([`run_experiment`]),
//!   with a streaming [`RoundObserver`] pipeline that turns new
//!   metrics into composable observers instead of new result fields.
//! * [`experiments`] — the experiment configurations and output records
//!   for every figure of the paper's evaluation (Fig. 5 worst case,
//!   Fig. 6 convergence, Fig. 7 regret, Fig. 8 periodic updates, plus the
//!   complexity claims of Section IV-C); each config implements
//!   [`Experiment`] and runs through the [`experiment`] engine.
//!
//! # Quickstart
//!
//! ```
//! use mhca_core::{Network, runner::{Algorithm2Config, run_policy}};
//! use mhca_bandit::policies::CsUcb;
//!
//! // Small random network: 8 users, 3 channels, average degree ~3.
//! let net = Network::random(8, 3, 3.0, 0.1, 7);
//! let cfg = Algorithm2Config::default().with_horizon(50);
//! let result = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
//! assert_eq!(result.slots, 50);
//! assert!(result.average_observed_kbps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod distributed;
pub mod experiment;
pub mod experiments;
pub mod network;
pub mod runner;
pub mod stats;
pub mod sweep;
pub mod time;
pub mod traffic;

pub use distributed::{
    DecidePhaseNs, DecideScanStats, DecisionOutcome, DistributedPtas, DistributedPtasConfig,
    LocalSolver,
};
pub use experiment::{
    run_experiment, Experiment, ExperimentCtx, ExperimentData, ExperimentOutput, MetricTable,
    ObserverKind, ObserverSet, RoundObserver, RoundRecord, ScenarioShape, TelemetryObserver,
};
pub use experiments::{PolicyDuelConfig, PolicyRunConfig, PolicySpec};
pub use network::Network;
pub use runner::{run_policy_observed, Algorithm2Config, PolicyRunner, RunResult};
pub use time::TimeModel;
pub use traffic::{ArrivalProcess, FlowSpec, QueueEngine, TrafficSpec, TrafficSummary};
