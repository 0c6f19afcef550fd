//! The unified experiment surface: one [`Experiment`] trait, one engine,
//! one streaming metrics pipeline.
//!
//! Every evaluation workload of the reproduction — the paper's figures
//! and tables as well as the campaign cross-product runs — implements
//! [`Experiment`]: `spec()` describes the scenario's shape and `run()`
//! executes it against an [`ExperimentCtx`] (the seed plus the registered
//! [`RoundObserver`]s). The engine entry point [`run_experiment`] drives a
//! run and folds the observers' [`MetricTable`]s into the output, so the
//! campaign layer and the figure binaries share one execution path.
//!
//! Metrics come in two layers:
//!
//! * **Headline metrics** — each experiment emits its own flat
//!   `(metric, value)` rows (the quantities its paper figure plots).
//! * **Observer metrics** — [`RoundObserver`]s stream over every Algorithm
//!   2 round via [`RoundRecord`] and contribute whatever they measured at
//!   [`RoundObserver::finish`]. New metrics (decide-phase wall time,
//!   communication totals, per-vertex transmission load, sensing-cost
//!   budgets, capture tallies, windowed regret, …) are new observers,
//!   not new [`RunResult`] fields; the campaign attaches exactly the
//!   sinks a scenario needs via [`ObserverKind`].
//!
//! Nine observers ship built in (see [`ObserverKind::ALL`]); the
//! "observer cookbook" section of the repository README tabulates what
//! each one measures and costs. The experiment *configs* live in
//! [`crate::experiments`]; the engine here is the only execution entry
//! point (the pre-engine free functions `fig6`, `run_fig5`, … have been
//! retired).

use crate::{
    distributed::{DecidePhaseNs, DistributedPtas, DistributedPtasConfig},
    experiments::{
        ComplexityConfig, ComplexityPoint, Fig5Config, Fig6Config, Fig6Series, Fig7Config,
        Fig7Output, Fig8Config, Fig8Run, PolicyDuelConfig, PolicyRunConfig, Table2, Theorem3Config,
        Theorem3Point, WorstCasePoint,
    },
    network::Network,
    runner::{run_policy_observed, Algorithm2Config, RunResult},
    time::TimeModel,
    traffic::TrafficRound,
};
use mhca_bandit::policies::{CsUcb, Llr};
use mhca_bandit::state::{StateError, StateMap};
use mhca_graph::{topology, ExtendedConflictGraph};
use mhca_telemetry::{EventKind, FieldValue, LogHistogram, Telemetry};

// ---------------------------------------------------------------------------
// Metric tables.
// ---------------------------------------------------------------------------

/// An ordered list of flat `(metric, value)` rows — the cross-seed
/// aggregation currency of the campaign layer. Order is emission order
/// (deterministic), so aggregated CSV artifacts are stable across runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricTable {
    rows: Vec<(String, f64)>,
}

impl MetricTable {
    /// An empty table.
    pub fn new() -> Self {
        MetricTable::default()
    }

    /// Appends one metric row.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.rows.push((name.into(), value));
    }

    /// First value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The rows, in emission order.
    pub fn rows(&self) -> &[(String, f64)] {
        &self.rows
    }

    /// Consumes the table into its rows.
    pub fn into_rows(self) -> Vec<(String, f64)> {
        self.rows
    }

    /// Appends all of `other`'s rows.
    pub fn extend(&mut self, other: MetricTable) {
        self.rows.extend(other.rows);
    }

    /// `true` when no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

// ---------------------------------------------------------------------------
// The streaming round-observer pipeline.
// ---------------------------------------------------------------------------

/// One Algorithm 2 decision period, streamed to observers as it happens.
///
/// The engine emits one record per strategy decision (one per slot when
/// `update_period == 1`); borrowed slices point into the engine's scratch
/// and are only valid for the duration of the call.
#[derive(Debug)]
pub struct RoundRecord<'a> {
    /// First slot of this period (0-based).
    pub slot: u64,
    /// Slots the period spans (`update_period`, clipped at the horizon).
    pub period_len: u64,
    /// Strategy decisions executed so far, including this one (1-based).
    pub decision: u64,
    /// Winning vertices of this period's strategy decision.
    pub winners: &'a [usize],
    /// Per-slot expected (true-mean) throughput of the strategy (kbps).
    pub expected_kbps: f64,
    /// Total raw observed throughput across the period (kbps·slots).
    pub observed_kbps: f64,
    /// The policy's own estimate of the strategy value (kbps).
    pub estimated_kbps: f64,
    /// Wall-clock nanoseconds the strategy decision took (0 when no
    /// observers are registered — the engine skips the clock then).
    pub decide_ns: u64,
    /// Wall-clock nanoseconds of this decision's weight-broadcast (WB)
    /// flood phase. **Zero** unless some registered observer returns
    /// `true` from [`RoundObserver::wants_phase_timing`] (the engine
    /// skips the extra clock reads otherwise).
    pub wb_ns: u64,
    /// Wall-clock nanoseconds of this period's data-transmission /
    /// statistics-update loop. Zero under the same gate as
    /// [`RoundRecord::wb_ns`].
    pub learn_ns: u64,
    /// Per-phase breakdown of the decide (election / broadcast / MWIS /
    /// sweep), from [`crate::DistributedPtas::phase_ns`]. Zeroed unless
    /// some observer wants phase timing *and* the decide ran an
    /// instrumented path (the rescan reference leaves it zeroed).
    pub decide_phase_ns: DecidePhaseNs,
    /// Relay broadcasts of this decision's floods.
    pub decide_transmissions: u64,
    /// Message copies delivered by this decision's floods.
    pub decide_delivered: u64,
    /// Pipelined mini-timeslots of this decision.
    pub decide_timeslots: u64,
    /// Election probes of the decision that scanned a `(2r+1)`-ball row
    /// ([`crate::DecideScanStats::candidates_scanned`]) — the work metric
    /// the incremental dirty-ball decide path shrinks.
    pub decide_scanned: u64,
    /// Always 0 ([`crate::DecisionOutcome::fallback_floods`]): the flood
    /// engine's relay tables have no cap, so no decide flood falls back
    /// to BFS. Kept so that observers built against this field still
    /// compile and read the same value.
    pub decide_fallback_floods: u64,
    /// Per-vertex relay broadcasts of this decision (indexed by vertex).
    pub per_vertex_tx: &'a [u64],
    /// Number of channels `M` — vertex `v` transmits on channel `v % M`.
    pub n_channels: usize,
    /// Per-channel transmission attempts over this period (one per winner
    /// per slot), indexed by channel. **Empty** unless some registered
    /// observer returns `true` from
    /// [`RoundObserver::wants_channel_stats`] (the engine skips the
    /// per-slot tally otherwise).
    pub channel_attempts: &'a [u64],
    /// Per-channel attempts that observed a strictly positive rate — the
    /// "captures"; `attempts − captures` are outages (adversarial
    /// zero-rate phases, Bernoulli off-states). Empty under the same
    /// condition as [`RoundRecord::channel_attempts`].
    pub channel_captures: &'a [u64],
    /// Per-slot kbps of the exact offline optimum (branch-and-bound
    /// MWIS, the same benchmark the paper's Fig. 7 regret uses) under
    /// the channels' *instantaneous* means at this period's first slot —
    /// the moving benchmark windowed regret is measured against under
    /// drifting channels. Recomputed only when the instantaneous means
    /// change, and `0.0` unless some registered observer returns `true`
    /// from [`RoundObserver::wants_oracle`] (the engine skips the solve
    /// entirely otherwise).
    pub oracle_kbps: f64,
    /// This period's traffic view — arrivals, per-packet deliveries, and
    /// per-node queue backlogs — when the run carries a
    /// [`crate::TrafficSpec`]. `None` on traffic-free runs, so observers
    /// that ignore traffic see no change at all.
    pub traffic: Option<TrafficRound<'a>>,
}

/// A streaming metrics sink over Algorithm 2 rounds.
///
/// Observers see every decision period of every [`run_policy_observed`]
/// call made while they are registered (a paired experiment like Fig. 7
/// streams both contestants' runs through the same observers), then emit
/// whatever they measured as a [`MetricTable`].
///
/// # Example
///
/// A custom observer is a struct with per-run state:
///
/// ```
/// use mhca_core::{MetricTable, RoundObserver, RoundRecord};
///
/// /// Counts decision periods in which no vertex won.
/// #[derive(Default)]
/// struct IdlePeriods(u64);
///
/// impl RoundObserver for IdlePeriods {
///     fn on_round(&mut self, record: &RoundRecord<'_>) {
///         self.0 += u64::from(record.winners.is_empty());
///     }
///     fn finish(&mut self) -> MetricTable {
///         let mut t = MetricTable::new();
///         t.push("idle_periods", self.0 as f64);
///         t
///     }
/// }
///
/// let mut set = mhca_core::ObserverSet::new();
/// set.register("idle", Box::new(IdlePeriods::default()));
/// ```
pub trait RoundObserver {
    /// Called once per decision period.
    fn on_round(&mut self, record: &RoundRecord<'_>);

    /// Called once after the experiment completes; returns the metrics.
    fn finish(&mut self) -> MetricTable;

    /// `true` when this observer reads [`RoundRecord::oracle_kbps`]. The
    /// runner prices the drift oracle — an exact offline MWIS solve on
    /// the instantaneous means, cached between mean changes — only when
    /// some registered observer asks for it. Like [`Network::optimal`],
    /// the solve is exponential in the worst case: register such an
    /// observer on Fig. 7-sized instances (≲ 20 users × a few channels).
    fn wants_oracle(&self) -> bool {
        false
    }

    /// `true` when this observer reads [`RoundRecord::channel_attempts`]
    /// / [`RoundRecord::channel_captures`]. The runner tallies per-slot
    /// per-channel capture outcomes only when some registered observer
    /// asks for them; otherwise the slices arrive empty.
    fn wants_channel_stats(&self) -> bool {
        false
    }

    /// `true` when this observer reads [`RoundRecord::wb_ns`],
    /// [`RoundRecord::learn_ns`], or [`RoundRecord::decide_phase_ns`].
    /// The runner adds the per-phase clock reads (and switches the PTAS
    /// into phase-profiling mode) only when some registered observer asks
    /// — phase stamps are noise at large `n` but measurable in small-`n`
    /// hot loops.
    fn wants_phase_timing(&self) -> bool {
        false
    }

    /// Hands the observer a telemetry handle so it can stream events
    /// *incrementally* while the run is still going (counters every few
    /// decisions, window closes as they happen) instead of only reporting
    /// at [`finish`](RoundObserver::finish). The default keeps the
    /// observer metrics-only. Implementations must treat the handle as
    /// write-only: telemetry must never change what an observer returns
    /// from `finish` (the byte-identity contract).
    fn set_telemetry(&mut self, _telemetry: &Telemetry) {}

    /// Writes the observer's accumulated state into `out` — the
    /// mid-run checkpoint hook. Stateful observers record every field
    /// `finish` reads, so a restored observer finishes with the same
    /// metric rows an uninterrupted one would. The default writes
    /// nothing, which is correct for stateless or telemetry-only
    /// observers (a [`TelemetryObserver`] restarts its histograms after
    /// a resume; its metric table is empty either way).
    fn snapshot_state(&self, _out: &mut StateMap) {}

    /// Restores state captured by
    /// [`snapshot_state`](RoundObserver::snapshot_state) into a freshly
    /// built observer of the same kind and configuration. The default
    /// accepts anything and restores nothing.
    fn restore_state(&mut self, _state: &StateMap) -> Result<(), StateError> {
        Ok(())
    }
}

/// The ordered set of observers registered for one experiment run.
#[derive(Default)]
pub struct ObserverSet {
    observers: Vec<(&'static str, Box<dyn RoundObserver>)>,
}

impl ObserverSet {
    /// An empty set (the engine then skips all streaming work).
    pub fn new() -> Self {
        ObserverSet::default()
    }

    /// Builds a set from declarative kinds.
    pub fn from_kinds(kinds: &[ObserverKind]) -> Self {
        let mut set = ObserverSet::new();
        for kind in kinds {
            set.register(kind.label(), kind.build());
        }
        set
    }

    /// Registers an observer under a label (prefixed onto its metrics, so
    /// two observers cannot silently collide).
    pub fn register(&mut self, label: &'static str, observer: Box<dyn RoundObserver>) {
        self.observers.push((label, observer));
    }

    /// `true` when no observers are registered.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }

    /// `true` when some registered observer needs the drift oracle
    /// ([`RoundObserver::wants_oracle`]).
    pub fn wants_oracle(&self) -> bool {
        self.observers.iter().any(|(_, o)| o.wants_oracle())
    }

    /// `true` when some registered observer needs per-channel capture
    /// tallies ([`RoundObserver::wants_channel_stats`]).
    pub fn wants_channel_stats(&self) -> bool {
        self.observers.iter().any(|(_, o)| o.wants_channel_stats())
    }

    /// `true` when some registered observer needs per-phase wall clocks
    /// ([`RoundObserver::wants_phase_timing`]).
    pub fn wants_phase_timing(&self) -> bool {
        self.observers.iter().any(|(_, o)| o.wants_phase_timing())
    }

    /// Threads a telemetry handle through the set: every registered
    /// observer gets it via [`RoundObserver::set_telemetry`], and — when
    /// the handle is enabled — a [`TelemetryObserver`] is appended to
    /// record per-phase latency histograms and emit them as `hist`
    /// events. On a disabled handle this is a no-op, so untraced runs
    /// register nothing and the round loop's fast paths are untouched.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        if !telemetry.enabled() {
            return;
        }
        for (_, observer) in &mut self.observers {
            observer.set_telemetry(telemetry);
        }
        self.register(
            "telemetry",
            Box::new(TelemetryObserver::new(telemetry.clone())),
        );
    }

    /// Streams one record to every observer, in registration order.
    pub fn emit(&mut self, record: &RoundRecord<'_>) {
        for (_, observer) in &mut self.observers {
            observer.on_round(record);
        }
    }

    /// Snapshots every registered observer's state into one [`StateMap`],
    /// each observer nested under `"<index>-<label>"` (the index keeps
    /// prefixes unique even if two observers were registered under one
    /// label). Pair with [`ObserverSet::restore_states`] on a set built
    /// from the same kinds in the same order.
    pub fn snapshot_states(&self) -> StateMap {
        let mut out = StateMap::new();
        for (i, (label, observer)) in self.observers.iter().enumerate() {
            let mut child = StateMap::new();
            observer.snapshot_state(&mut child);
            out.put_nested(&format!("{i}-{label}"), child);
        }
        out
    }

    /// Restores observer state captured by
    /// [`ObserverSet::snapshot_states`]. The set must hold the same
    /// observers, registered in the same order, as the snapshotting set;
    /// each observer receives its own nested sub-map (possibly empty, for
    /// stateless observers).
    pub fn restore_states(&mut self, state: &StateMap) -> Result<(), StateError> {
        for (i, (label, observer)) in self.observers.iter_mut().enumerate() {
            let child = state.extract_nested(&format!("{i}-{label}"));
            observer.restore_state(&child)?;
        }
        Ok(())
    }

    /// Finishes every observer and appends its metrics (names prefixed
    /// with the observer label) to `table`.
    pub fn finish_into(&mut self, table: &mut MetricTable) {
        for (label, observer) in &mut self.observers {
            for (name, value) in observer.finish().into_rows() {
                table.push(format!("{label}:{name}"), value);
            }
        }
        self.observers.clear();
    }
}

/// Declarative observer choice — the serializable form campaign scenario
/// specs carry, so a scenario states which metric sinks to attach without
/// naming concrete types.
///
/// # Example
///
/// ```
/// use mhca_core::ObserverKind;
///
/// // Parameterless kinds round-trip through their labels...
/// assert_eq!(ObserverKind::parse("comm-totals"), Some(ObserverKind::CommTotals));
/// // ...and parameterized kinds parse to their defaults; scenario JSON
/// // overrides the knobs (see the campaign crate's ingest module).
/// assert_eq!(
///     ObserverKind::parse("windowed-regret"),
///     Some(ObserverKind::WindowedRegret { window: 250 }),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObserverKind {
    /// Wall-clock time spent in the decide phase ([`DecideTimingObserver`]).
    DecideTiming,
    /// Decision-flood communication totals ([`CommTotalsObserver`]).
    CommTotals,
    /// Per-vertex transmission load ([`PerVertexTxObserver`]).
    PerVertexTx,
    /// Observed-throughput averages ([`ThroughputObserver`]).
    Throughput,
    /// Per-vertex cumulative sensing/probe charges under a configurable
    /// cost model ([`SensingCostObserver`]) — the limited-sensing budget
    /// accounting of Yun et al.'s CSMA line of work.
    SensingCost {
        /// Cost of one winner sensing its channel for one slot.
        probe_cost: f64,
        /// Cost of one control-plane relay broadcast.
        report_cost: f64,
    },
    /// Per-channel capture/collision/idle tallies
    /// ([`CaptureStatsObserver`]) — the repeated-games view of slotted
    /// access under adversarial channel families (Neely).
    CaptureStats,
    /// Sliding-window regret against the per-window exact offline
    /// optimum on instantaneous means ([`WindowedRegretObserver`]) — the
    /// drifting-channel metric: regret re-grows after every mean shift.
    WindowedRegret {
        /// Window length in slots.
        window: u64,
    },
    /// Per-flow end-to-end delay distributions (p50/p99/p999 via the
    /// telemetry log-bucketed histograms) and the delay-constrained
    /// utility ([`FlowDelayObserver`]) — only meaningful on runs that
    /// carry a [`crate::TrafficSpec`].
    FlowDelay,
    /// Per-node queue-backlog distribution plus an overflow counter
    /// against a configurable bound ([`QueueTailObserver`]) — the
    /// tail-event view of König & Kwofie's large-deviations regime.
    QueueTail {
        /// Backlog (packets) above which a node-period counts as
        /// overflowed.
        bound: u64,
    },
}

impl ObserverKind {
    /// Every kind, in canonical order (parameterized kinds at their
    /// defaults).
    pub const ALL: [ObserverKind; 9] = [
        ObserverKind::DecideTiming,
        ObserverKind::CommTotals,
        ObserverKind::PerVertexTx,
        ObserverKind::Throughput,
        ObserverKind::SensingCost {
            probe_cost: 1.0,
            report_cost: 0.1,
        },
        ObserverKind::CaptureStats,
        ObserverKind::WindowedRegret { window: 250 },
        ObserverKind::FlowDelay,
        ObserverKind::QueueTail { bound: 64 },
    ];

    /// Kebab-case label used in scenario JSON. Parameterized kinds share
    /// one label across parameter values (the label prefixes the kind's
    /// metric names, so two observers with the same label cannot be
    /// registered together).
    pub fn label(self) -> &'static str {
        match self {
            ObserverKind::DecideTiming => "decide-timing",
            ObserverKind::CommTotals => "comm-totals",
            ObserverKind::PerVertexTx => "per-vertex-tx",
            ObserverKind::Throughput => "throughput",
            ObserverKind::SensingCost { .. } => "sensing-cost",
            ObserverKind::CaptureStats => "capture-stats",
            ObserverKind::WindowedRegret { .. } => "windowed-regret",
            ObserverKind::FlowDelay => "flow-delay",
            ObserverKind::QueueTail { .. } => "queue-tail",
        }
    }

    /// Inverse of [`ObserverKind::label`]; parameterized kinds come back
    /// at their default parameters.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Builds a fresh observer instance.
    pub fn build(self) -> Box<dyn RoundObserver> {
        match self {
            ObserverKind::DecideTiming => Box::new(DecideTimingObserver::default()),
            ObserverKind::CommTotals => Box::new(CommTotalsObserver::default()),
            ObserverKind::PerVertexTx => Box::new(PerVertexTxObserver::default()),
            ObserverKind::Throughput => Box::new(ThroughputObserver::default()),
            ObserverKind::SensingCost {
                probe_cost,
                report_cost,
            } => Box::new(SensingCostObserver::new(probe_cost, report_cost)),
            ObserverKind::CaptureStats => Box::new(CaptureStatsObserver::default()),
            ObserverKind::WindowedRegret { window } => {
                Box::new(WindowedRegretObserver::new(window))
            }
            ObserverKind::FlowDelay => Box::new(FlowDelayObserver::default()),
            ObserverKind::QueueTail { bound } => Box::new(QueueTailObserver::new(bound)),
        }
    }
}

/// Measures decide-phase wall time: total and mean per decision. This is
/// the canonical example of a metric no [`RunResult`] field carries — it
/// exists only while the round loop runs, so it must be streamed.
#[derive(Debug, Default)]
pub struct DecideTimingObserver {
    total_ns: u64,
    decisions: u64,
}

impl RoundObserver for DecideTimingObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.total_ns += record.decide_ns;
        self.decisions += 1;
    }

    fn finish(&mut self) -> MetricTable {
        let mut t = MetricTable::new();
        t.push("decide_ms_total", self.total_ns as f64 / 1e6);
        t.push(
            "decide_us_mean",
            self.total_ns as f64 / 1e3 / self.decisions.max(1) as f64,
        );
        t
    }

    fn snapshot_state(&self, out: &mut StateMap) {
        out.put_u64("total_ns", self.total_ns);
        out.put_u64("decisions", self.decisions);
    }

    fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        self.total_ns = state.get_u64("total_ns")?;
        self.decisions = state.get_u64("decisions")?;
        Ok(())
    }
}

/// Accumulates decision-flood communication totals across the run, plus
/// the leader election's scanned-candidate work counter — the metric the
/// incremental dirty-ball decide path shrinks while every communication
/// total stays identical.
///
/// With a telemetry handle attached ([`RoundObserver::set_telemetry`])
/// the cumulative totals also stream as `counter` events every
/// [`COMM_STREAM_EVERY`] decisions — the first consumer of the
/// incremental metrics path the resident-service roadmap item needs. The
/// metric rows returned at `finish` are unaffected.
#[derive(Debug, Default)]
pub struct CommTotalsObserver {
    transmissions: u64,
    delivered: u64,
    timeslots: u64,
    scanned: u64,
    decisions: u64,
    telemetry: Telemetry,
}

/// Cadence (in decisions) of [`CommTotalsObserver`]'s streamed counters.
pub const COMM_STREAM_EVERY: u64 = 64;

impl CommTotalsObserver {
    fn stream_counters(&self) {
        self.telemetry
            .counter("comm.decide_transmissions", self.transmissions);
        self.telemetry
            .counter("comm.decide_delivered", self.delivered);
        self.telemetry.counter("comm.decisions", self.decisions);
    }
}

impl RoundObserver for CommTotalsObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.transmissions += record.decide_transmissions;
        self.delivered += record.decide_delivered;
        self.timeslots += record.decide_timeslots;
        self.scanned += record.decide_scanned;
        self.decisions += 1;
        if self.telemetry.enabled() && self.decisions.is_multiple_of(COMM_STREAM_EVERY) {
            self.stream_counters();
        }
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    fn finish(&mut self) -> MetricTable {
        if self.telemetry.enabled() {
            self.stream_counters();
        }
        let mut t = MetricTable::new();
        t.push("decide_transmissions", self.transmissions as f64);
        t.push("decide_delivered", self.delivered as f64);
        t.push("decide_timeslots", self.timeslots as f64);
        t.push("decide_candidates_scanned", self.scanned as f64);
        // Constant 0: no decide flood falls back to BFS any more. The
        // row stays so that artifacts keep their shape and digests.
        t.push("decide_fallback_floods", 0.0);
        t.push("decisions", self.decisions as f64);
        t
    }

    fn snapshot_state(&self, out: &mut StateMap) {
        out.put_u64("transmissions", self.transmissions);
        out.put_u64("delivered", self.delivered);
        out.put_u64("timeslots", self.timeslots);
        out.put_u64("scanned", self.scanned);
        out.put_u64("decisions", self.decisions);
    }

    fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        self.transmissions = state.get_u64("transmissions")?;
        self.delivered = state.get_u64("delivered")?;
        self.timeslots = state.get_u64("timeslots")?;
        self.scanned = state.get_u64("scanned")?;
        self.decisions = state.get_u64("decisions")?;
        Ok(())
    }
}

/// Accumulates per-vertex decision-flood transmissions; reports the mean
/// and max load — the streaming counterpart of the Section IV-C
/// per-vertex communication claim.
#[derive(Debug, Default)]
pub struct PerVertexTxObserver {
    per_vertex: Vec<u64>,
}

impl RoundObserver for PerVertexTxObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        if self.per_vertex.len() < record.per_vertex_tx.len() {
            self.per_vertex.resize(record.per_vertex_tx.len(), 0);
        }
        for (acc, &c) in self.per_vertex.iter_mut().zip(record.per_vertex_tx) {
            *acc += c;
        }
    }

    fn finish(&mut self) -> MetricTable {
        let mut t = MetricTable::new();
        let n = self.per_vertex.len().max(1) as f64;
        let total: u64 = self.per_vertex.iter().sum();
        t.push("tx_per_vertex_mean", total as f64 / n);
        t.push(
            "tx_per_vertex_max",
            self.per_vertex.iter().copied().max().unwrap_or(0) as f64,
        );
        t
    }

    fn snapshot_state(&self, out: &mut StateMap) {
        out.put_u64_vec("per_vertex", self.per_vertex.clone());
    }

    fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        // The ledger is lazily sized on the first record, so any length
        // (including empty, from a pre-first-round snapshot) is valid.
        self.per_vertex = state.get_u64_slice("per_vertex")?.to_vec();
        Ok(())
    }
}

/// Accumulates observed throughput; reports the per-slot average. Useful
/// as a cross-check against [`RunResult::average_observed_kbps`] and as a
/// sensing-cost numerator for limited-sensing variants.
#[derive(Debug, Default)]
pub struct ThroughputObserver {
    observed_total: f64,
    slots: u64,
}

impl RoundObserver for ThroughputObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.observed_total += record.observed_kbps;
        self.slots += record.period_len;
    }

    fn finish(&mut self) -> MetricTable {
        let mut t = MetricTable::new();
        t.push(
            "avg_observed_kbps",
            self.observed_total / self.slots.max(1) as f64,
        );
        t.push("slots", self.slots as f64);
        t
    }

    fn snapshot_state(&self, out: &mut StateMap) {
        out.put_f64("observed_total", self.observed_total);
        out.put_u64("slots", self.slots);
    }

    fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        self.observed_total = state.get_f64("observed_total")?;
        self.slots = state.get_u64("slots")?;
        Ok(())
    }
}

/// Charges every sensing action to the vertex that performed it, under a
/// configurable cost model: `probe_cost` per winner-slot (a transmitter
/// senses its channel every slot it holds it — the sensing budget of Yun
/// et al.'s limited-sensing CSMA) plus `report_cost` per control-plane
/// relay broadcast (the decision floods' per-vertex transmissions).
/// Reports totals, the per-vertex load distribution, and the delivered
/// kbps bought per unit of sensing cost.
///
/// Steady-state allocation-free: the per-vertex ledger is sized once, on
/// the first record.
#[derive(Debug)]
pub struct SensingCostObserver {
    probe_cost: f64,
    report_cost: f64,
    per_vertex: Vec<f64>,
    probe_total: f64,
    report_total: f64,
    observed_total: f64,
}

impl SensingCostObserver {
    /// Creates the observer with the given cost model.
    ///
    /// # Panics
    ///
    /// Panics if either cost is negative or non-finite.
    pub fn new(probe_cost: f64, report_cost: f64) -> Self {
        assert!(
            probe_cost >= 0.0 && probe_cost.is_finite(),
            "probe cost must be finite and non-negative"
        );
        assert!(
            report_cost >= 0.0 && report_cost.is_finite(),
            "report cost must be finite and non-negative"
        );
        SensingCostObserver {
            probe_cost,
            report_cost,
            per_vertex: Vec::new(),
            probe_total: 0.0,
            report_total: 0.0,
            observed_total: 0.0,
        }
    }
}

impl RoundObserver for SensingCostObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        if self.per_vertex.len() < record.per_vertex_tx.len() {
            self.per_vertex.resize(record.per_vertex_tx.len(), 0.0);
        }
        let probe = self.probe_cost * record.period_len as f64;
        for &v in record.winners {
            self.per_vertex[v] += probe;
            self.probe_total += probe;
        }
        for (acc, &tx) in self.per_vertex.iter_mut().zip(record.per_vertex_tx) {
            let cost = self.report_cost * tx as f64;
            *acc += cost;
            self.report_total += cost;
        }
        self.observed_total += record.observed_kbps;
    }

    fn finish(&mut self) -> MetricTable {
        let mut t = MetricTable::new();
        let total = self.probe_total + self.report_total;
        t.push("cost_total", total);
        t.push("probe_cost_total", self.probe_total);
        t.push("report_cost_total", self.report_total);
        let n = self.per_vertex.len().max(1) as f64;
        t.push("cost_per_vertex_mean", total / n);
        t.push(
            "cost_per_vertex_max",
            self.per_vertex.iter().copied().fold(0.0, f64::max),
        );
        // Sensing efficiency: delivered kbps·slots bought per unit cost.
        t.push(
            "kbps_per_unit_cost",
            if total > 0.0 {
                self.observed_total / total
            } else {
                0.0
            },
        );
        t
    }

    fn snapshot_state(&self, out: &mut StateMap) {
        // `probe_cost` / `report_cost` are configuration, not state — a
        // restored observer is rebuilt with the scenario's cost model.
        out.put_f64_vec("per_vertex", self.per_vertex.clone());
        out.put_f64("probe_total", self.probe_total);
        out.put_f64("report_total", self.report_total);
        out.put_f64("observed_total", self.observed_total);
    }

    fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        self.per_vertex = state.get_f64_slice("per_vertex")?.to_vec();
        self.probe_total = state.get_f64("probe_total")?;
        self.report_total = state.get_f64("report_total")?;
        self.observed_total = state.get_f64("observed_total")?;
        Ok(())
    }
}

/// Tallies per-channel transmission outcomes — captures (positive
/// observed rate), outages (zero rate: an adversarial off-phase or a
/// Bernoulli bad state), and idle periods (no winner on the channel) —
/// the repeated-games accounting of slotted access under adversarial
/// channels (Neely). Protocol strategies are independent sets, so
/// same-channel attempts in one slot are spatial reuse, not collisions;
/// outages are the adversary's captures.
///
/// Steady-state allocation-free: the per-channel tallies are sized once,
/// on the first record.
#[derive(Debug, Default)]
pub struct CaptureStatsObserver {
    attempts: Vec<u64>,
    captures: Vec<u64>,
    idle_periods: Vec<u64>,
    periods: u64,
}

impl RoundObserver for CaptureStatsObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        let m = record.n_channels;
        if self.attempts.len() < m {
            self.attempts.resize(m, 0);
            self.captures.resize(m, 0);
            self.idle_periods.resize(m, 0);
        }
        for c in 0..m {
            self.attempts[c] += record.channel_attempts[c];
            self.captures[c] += record.channel_captures[c];
            self.idle_periods[c] += u64::from(record.channel_attempts[c] == 0);
        }
        self.periods += 1;
    }

    fn finish(&mut self) -> MetricTable {
        let mut t = MetricTable::new();
        let attempts: u64 = self.attempts.iter().sum();
        let captures: u64 = self.captures.iter().sum();
        t.push("attempts", attempts as f64);
        t.push("captures", captures as f64);
        t.push("outages", (attempts - captures) as f64);
        t.push("capture_rate", captures as f64 / (attempts.max(1)) as f64);
        let periods = self.periods.max(1) as f64;
        for c in 0..self.attempts.len() {
            t.push(format!("ch{c}_attempts"), self.attempts[c] as f64);
            t.push(
                format!("ch{c}_capture_rate"),
                self.captures[c] as f64 / self.attempts[c].max(1) as f64,
            );
            t.push(
                format!("ch{c}_idle_frac"),
                self.idle_periods[c] as f64 / periods,
            );
        }
        t
    }

    fn wants_channel_stats(&self) -> bool {
        true
    }

    fn snapshot_state(&self, out: &mut StateMap) {
        out.put_u64_vec("attempts", self.attempts.clone());
        out.put_u64_vec("captures", self.captures.clone());
        out.put_u64_vec("idle_periods", self.idle_periods.clone());
        out.put_u64("periods", self.periods);
    }

    fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        let attempts = state.get_u64_slice("attempts")?.to_vec();
        let m = attempts.len();
        self.captures = state.get_u64_vec_exact("captures", m)?;
        self.idle_periods = state.get_u64_vec_exact("idle_periods", m)?;
        self.attempts = attempts;
        self.periods = state.get_u64("periods")?;
        Ok(())
    }
}

/// Sliding-window regret against the per-window offline optimum: within
/// each window of `window` slots, the shortfall of observed throughput
/// below the exact offline optimum under the channels' *instantaneous*
/// true means ([`RoundRecord::oracle_kbps`] — the same branch-and-bound
/// benchmark as the paper's Fig. 7 regret, made time-varying). Under
/// stationary channels the per-window regret decays as the policy
/// converges; under drifting channels it **re-grows in the window after
/// every breakpoint**, which is exactly what this observer exists to
/// show. Windows close at the first decision-period boundary at or past
/// the window length, and never straddle a run boundary: on multi-run
/// experiments (Fig. 7/8, duels) each run's open window is flushed when
/// the next run starts, so the `wNN` sequence is the runs' window
/// series concatenated in execution order.
///
/// Emits one `wNN_end_slot` / `wNN_regret_per_slot` row pair per window
/// plus whole-run summary rows. Per-round work is allocation-free; the
/// per-window ledger grows amortized (one push per closed window).
///
/// With a telemetry handle attached, every window close also streams as a
/// `gauge` event (`regret.window_per_slot` with `end_slot`), so a live
/// consumer sees regret re-grow at a breakpoint without waiting for the
/// run to finish. The metric rows are unaffected.
#[derive(Debug)]
pub struct WindowedRegretObserver {
    window: u64,
    slots_in_window: u64,
    oracle_acc: f64,
    observed_acc: f64,
    end_slot: u64,
    windows: Vec<(u64, f64)>,
    telemetry: Telemetry,
}

impl WindowedRegretObserver {
    /// Creates the observer with the given window length in slots.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        WindowedRegretObserver {
            window,
            slots_in_window: 0,
            oracle_acc: 0.0,
            observed_acc: 0.0,
            end_slot: 0,
            windows: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    fn close_window(&mut self) {
        let regret_per_slot =
            (self.oracle_acc - self.observed_acc) / self.slots_in_window.max(1) as f64;
        self.windows.push((self.end_slot, regret_per_slot));
        self.telemetry.event(
            EventKind::Gauge,
            "regret.window_per_slot",
            &[
                ("end_slot", FieldValue::U64(self.end_slot)),
                ("value", FieldValue::F64(regret_per_slot)),
            ],
        );
        self.slots_in_window = 0;
        self.oracle_acc = 0.0;
        self.observed_acc = 0.0;
    }
}

impl RoundObserver for WindowedRegretObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        // Multi-run experiments (Fig. 7/8, duels) stream every
        // contestant's run through the same observers. Windows are
        // slot-indexed series, so a window must never straddle a run
        // boundary — blending two policies' slots into one window (and
        // emitting backwards-jumping end_slot rows) would make the
        // series incoherent. A record with `decision == 1` marks a new
        // run: flush whatever window the previous run left open.
        if record.decision == 1 && self.slots_in_window > 0 {
            self.close_window();
        }
        self.oracle_acc += record.oracle_kbps * record.period_len as f64;
        self.observed_acc += record.observed_kbps;
        self.slots_in_window += record.period_len;
        self.end_slot = record.slot + record.period_len;
        if self.slots_in_window >= self.window {
            self.close_window();
        }
    }

    fn finish(&mut self) -> MetricTable {
        if self.slots_in_window > 0 {
            self.close_window();
        }
        let mut t = MetricTable::new();
        t.push("window_slots", self.window as f64);
        t.push("windows", self.windows.len() as f64);
        for (i, &(end, regret)) in self.windows.iter().enumerate() {
            t.push(format!("w{:02}_end_slot", i + 1), end as f64);
            t.push(format!("w{:02}_regret_per_slot", i + 1), regret);
        }
        let max = self
            .windows
            .iter()
            .map(|&(_, r)| r)
            .fold(f64::MIN, f64::max);
        if let Some(&(_, last)) = self.windows.last() {
            t.push("max_window_regret_per_slot", max);
            t.push("final_window_regret_per_slot", last);
        }
        self.windows.clear();
        t
    }

    fn wants_oracle(&self) -> bool {
        true
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    fn snapshot_state(&self, out: &mut StateMap) {
        // `window` is configuration; the closed-window ledger is split
        // into parallel end-slot / regret series (StateMap carries no
        // pair type).
        out.put_u64("slots_in_window", self.slots_in_window);
        out.put_f64("oracle_acc", self.oracle_acc);
        out.put_f64("observed_acc", self.observed_acc);
        out.put_u64("end_slot", self.end_slot);
        let ends: Vec<u64> = self.windows.iter().map(|&(end, _)| end).collect();
        let regrets: Vec<f64> = self.windows.iter().map(|&(_, r)| r).collect();
        out.put_u64_vec("window_end_slots", ends);
        out.put_f64_vec("window_regrets", regrets);
    }

    fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        let ends = state.get_u64_slice("window_end_slots")?.to_vec();
        let regrets = state.get_f64_vec_exact("window_regrets", ends.len())?;
        self.slots_in_window = state.get_u64("slots_in_window")?;
        self.oracle_acc = state.get_f64("oracle_acc")?;
        self.observed_acc = state.get_f64("observed_acc")?;
        self.end_slot = state.get_u64("end_slot")?;
        self.windows = ends.into_iter().zip(regrets).collect();
        Ok(())
    }
}

/// Per-flow end-to-end delay distributions over the run, recorded into
/// the telemetry [`LogHistogram`]s (log-bucketed, so p50/p99/p999 carry a
/// bounded ≤ 6.25 % relative quantization error and survive
/// snapshot/restore bit-exactly via sparse bucket dumps). Also
/// accumulates per-flow delivered / on-time counts and reports the
/// delay-constrained utility `Σ_f ln(1 + ontime_f)` — the Khodaian &
/// Khalaj proportional-fair objective over on-time deliveries.
///
/// On a run without a [`crate::TrafficSpec`] every record's traffic view
/// is `None`; the observer still reports its (all-zero) headline rows, so
/// registering it never changes whether metrics exist. Per-flow ledgers
/// are grown lazily to the highest flow index seen in a delivery.
///
/// All `finish` rows are derived from bucket counts and exact integer
/// counters only — never [`LogHistogram::mean`]/[`LogHistogram::max`],
/// which a restore approximates by bucket representatives — so a resumed
/// observer finishes byte-identical to an uninterrupted one.
#[derive(Debug, Default)]
pub struct FlowDelayObserver {
    hists: Vec<LogHistogram>,
    delivered: Vec<u64>,
    ontime: Vec<u64>,
}

impl FlowDelayObserver {
    fn grow_to(&mut self, flow: usize) {
        if self.hists.len() <= flow {
            self.hists.resize_with(flow + 1, LogHistogram::new);
            self.delivered.resize(flow + 1, 0);
            self.ontime.resize(flow + 1, 0);
        }
    }
}

impl RoundObserver for FlowDelayObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        let Some(traffic) = &record.traffic else {
            return;
        };
        for d in traffic.deliveries {
            let f = d.flow as usize;
            self.grow_to(f);
            self.hists[f].record(d.delay);
            self.delivered[f] += 1;
            self.ontime[f] += u64::from(d.ontime);
        }
    }

    fn finish(&mut self) -> MetricTable {
        let mut t = MetricTable::new();
        t.push("flows", self.hists.len() as f64);
        let mut delivered_total = 0u64;
        let mut ontime_total = 0u64;
        let mut utility = 0.0;
        for f in 0..self.hists.len() {
            let h = &self.hists[f];
            t.push(format!("f{f}_delivered"), self.delivered[f] as f64);
            t.push(
                format!("f{f}_ontime_frac"),
                self.ontime[f] as f64 / self.delivered[f].max(1) as f64,
            );
            t.push(format!("f{f}_p50_slots"), h.p50() as f64);
            t.push(format!("f{f}_p99_slots"), h.p99() as f64);
            t.push(format!("f{f}_p999_slots"), h.p999() as f64);
            delivered_total += self.delivered[f];
            ontime_total += self.ontime[f];
            utility += (1.0 + self.ontime[f] as f64).ln();
        }
        t.push("delivered", delivered_total as f64);
        t.push("ontime", ontime_total as f64);
        t.push("delay_utility", utility);
        t
    }

    fn snapshot_state(&self, out: &mut StateMap) {
        out.put_u64("flows", self.hists.len() as u64);
        out.put_u64_vec("delivered", self.delivered.clone());
        out.put_u64_vec("ontime", self.ontime.clone());
        for (f, h) in self.hists.iter().enumerate() {
            put_hist(out, &format!("f{f}_"), h);
        }
    }

    fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        let flows = state.get_u64("flows")? as usize;
        let delivered = state.get_u64_vec_exact("delivered", flows)?;
        let ontime = state.get_u64_vec_exact("ontime", flows)?;
        self.hists = (0..flows)
            .map(|f| get_hist(state, &format!("f{f}_")))
            .collect::<Result<_, _>>()?;
        self.delivered = delivered;
        self.ontime = ontime;
        Ok(())
    }
}

/// Checkpoints a histogram as its sparse bucket dump: the nonzero bucket
/// indices under `{prefix}bucket_idx` and their counts under
/// `{prefix}bucket_n`.
fn put_hist(out: &mut StateMap, prefix: &str, h: &LogHistogram) {
    let (idx, n): (Vec<u64>, Vec<u64>) = h.nonzero_buckets().map(|(i, c)| (i as u64, c)).unzip();
    out.put_u64_vec(format!("{prefix}bucket_idx"), idx);
    out.put_u64_vec(format!("{prefix}bucket_n"), n);
}

/// Restores a histogram written by [`put_hist`] under the same prefix.
fn get_hist(state: &StateMap, prefix: &str) -> Result<LogHistogram, StateError> {
    let idx = state.get_u64_slice(&format!("{prefix}bucket_idx"))?;
    let counts = state.get_u64_vec_exact(&format!("{prefix}bucket_n"), idx.len())?;
    let mut h = LogHistogram::new();
    for (&i, &c) in idx.iter().zip(&counts) {
        h.merge_bucket(i as usize, c);
    }
    Ok(h)
}

/// Per-node queue-backlog distribution over the run: every period, every
/// node's end-of-period backlog is one sample in a [`LogHistogram`], and
/// any sample above the configured bound increments an overflow counter —
/// the queue-overflow-probability view König & Kwofie's large-deviations
/// analysis motivates (tails, not means). The engine's queues are
/// unbounded; the bound here is purely an accounting threshold.
///
/// Reports bucket-exact percentiles plus `overflows` / `overflow_frac`
/// and an exactly-tracked `backlog_max` (a separate counter, because a
/// restored histogram only approximates its max by the bucket
/// representative). Rows exist (all zero) even on traffic-free runs.
#[derive(Debug)]
pub struct QueueTailObserver {
    bound: u64,
    hist: LogHistogram,
    overflows: u64,
    max_backlog: u64,
}

impl QueueTailObserver {
    /// Creates the observer with the given backlog bound in packets.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn new(bound: u64) -> Self {
        assert!(bound > 0, "backlog bound must be positive");
        QueueTailObserver {
            bound,
            hist: LogHistogram::new(),
            overflows: 0,
            max_backlog: 0,
        }
    }
}

impl RoundObserver for QueueTailObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        let Some(traffic) = &record.traffic else {
            return;
        };
        for &b in traffic.backlogs {
            self.hist.record(b);
            self.overflows += u64::from(b > self.bound);
            self.max_backlog = self.max_backlog.max(b);
        }
    }

    fn finish(&mut self) -> MetricTable {
        let mut t = MetricTable::new();
        t.push("bound", self.bound as f64);
        t.push("samples", self.hist.count() as f64);
        t.push("backlog_p50", self.hist.p50() as f64);
        t.push("backlog_p99", self.hist.p99() as f64);
        t.push("backlog_p999", self.hist.p999() as f64);
        t.push("backlog_max", self.max_backlog as f64);
        t.push("overflows", self.overflows as f64);
        t.push(
            "overflow_frac",
            self.overflows as f64 / self.hist.count().max(1) as f64,
        );
        t
    }

    fn snapshot_state(&self, out: &mut StateMap) {
        // `bound` is configuration, not state.
        put_hist(out, "", &self.hist);
        out.put_u64("overflows", self.overflows);
        out.put_u64("max_backlog", self.max_backlog);
    }

    fn restore_state(&mut self, state: &StateMap) -> Result<(), StateError> {
        self.hist = get_hist(state, "")?;
        self.overflows = state.get_u64("overflows")?;
        self.max_backlog = state.get_u64("max_backlog")?;
        Ok(())
    }
}

/// Streams the run's phase timing into telemetry: fixed-size
/// [`LogHistogram`]s over every decision's WB / decide / learn wall time
/// (plus the decide's election / broadcast / MWIS / sweep breakdown when
/// an instrumented decide path ran), emitted as `hist` events at the end
/// of the job, with one sampled `span_end` event per
/// [`SPAN_SAMPLE_EVERY`] decisions carrying the full per-phase breakdown
/// of that decision.
///
/// Registered automatically by [`ObserverSet::attach_telemetry`] — never
/// by scenario specs. Its [`finish`](RoundObserver::finish) returns an
/// **empty** [`MetricTable`] by design: artifact CSVs and aggregated
/// metrics must be byte-identical whether tracing is on or off.
#[derive(Debug)]
pub struct TelemetryObserver {
    telemetry: Telemetry,
    wb: LogHistogram,
    decide: LogHistogram,
    learn: LogHistogram,
    election: LogHistogram,
    broadcast: LogHistogram,
    mwis: LogHistogram,
    sweep: LogHistogram,
    rounds: u64,
    slots: u64,
}

/// Cadence (in decisions) of [`TelemetryObserver`]'s sampled per-decision
/// phase-breakdown events. Decision 1 is always sampled, so short runs
/// still produce at least one.
pub const SPAN_SAMPLE_EVERY: u64 = 256;

impl TelemetryObserver {
    /// Creates the observer streaming into `telemetry`.
    pub fn new(telemetry: Telemetry) -> Self {
        TelemetryObserver {
            telemetry,
            wb: LogHistogram::new(),
            decide: LogHistogram::new(),
            learn: LogHistogram::new(),
            election: LogHistogram::new(),
            broadcast: LogHistogram::new(),
            mwis: LogHistogram::new(),
            sweep: LogHistogram::new(),
            rounds: 0,
            slots: 0,
        }
    }
}

impl RoundObserver for TelemetryObserver {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.rounds += 1;
        self.slots += record.period_len;
        self.decide.record(record.decide_ns);
        self.wb.record(record.wb_ns);
        self.learn.record(record.learn_ns);
        let phases = record.decide_phase_ns;
        if phases.total_ns() > 0 {
            self.election.record(phases.election_ns);
            self.broadcast.record(phases.broadcast_ns);
            self.mwis.record(phases.mwis_ns);
            self.sweep.record(phases.sweep_ns);
        }
        if record.decision == 1 || record.decision.is_multiple_of(SPAN_SAMPLE_EVERY) {
            self.telemetry.event(
                EventKind::SpanEnd,
                "phase.decide",
                &[
                    ("dur_ns", FieldValue::U64(record.decide_ns)),
                    ("slot", FieldValue::U64(record.slot)),
                    ("decision", FieldValue::U64(record.decision)),
                    ("wb_ns", FieldValue::U64(record.wb_ns)),
                    ("learn_ns", FieldValue::U64(record.learn_ns)),
                    ("election_ns", FieldValue::U64(phases.election_ns)),
                    ("broadcast_ns", FieldValue::U64(phases.broadcast_ns)),
                    ("mwis_ns", FieldValue::U64(phases.mwis_ns)),
                    ("sweep_ns", FieldValue::U64(phases.sweep_ns)),
                ],
            );
        }
    }

    fn wants_phase_timing(&self) -> bool {
        true
    }

    fn finish(&mut self) -> MetricTable {
        self.telemetry.counter("rounds", self.rounds);
        self.telemetry.counter("slots", self.slots);
        self.telemetry.hist("phase.wb", &self.wb);
        self.telemetry.hist("phase.decide", &self.decide);
        self.telemetry.hist("phase.learn", &self.learn);
        self.telemetry.hist("phase.election", &self.election);
        self.telemetry.hist("phase.broadcast", &self.broadcast);
        self.telemetry.hist("phase.mwis", &self.mwis);
        self.telemetry.hist("phase.sweep", &self.sweep);
        // Deliberately empty: telemetry must never add metric rows, or
        // trace-on artifacts would diverge from trace-off ones.
        MetricTable::new()
    }
}

// ---------------------------------------------------------------------------
// The Experiment trait and its engine.
// ---------------------------------------------------------------------------

/// The static shape of an experiment — what a scheduler or validator can
/// know without running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioShape {
    /// Short kind tag (also the campaign spec JSON tag).
    pub kind: &'static str,
    /// `true` when the workload is deterministic — seeds only replicate.
    pub deterministic: bool,
    /// `true` when the experiment drives Algorithm 2 round loops, i.e.
    /// registered [`RoundObserver`]s will actually see records.
    pub streams_rounds: bool,
}

/// Execution context handed to [`Experiment::run`]: the seed (overriding
/// any seed field the experiment's config carries) and the registered
/// observers, which experiments thread into [`run_policy_observed`].
pub struct ExperimentCtx {
    /// The seed for this run.
    pub seed: u64,
    /// Streaming metric sinks.
    pub observers: ObserverSet,
}

/// The typed payload of one experiment run — what the presentation layer
/// (`mhca_bench::report`) renders into the figure CSV.
// One value exists per experiment run (seconds of simulation), so the
// size spread between variants is irrelevant; boxing the large ones
// would only complicate every pattern match.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentData {
    /// Fig. 5 worst-case points.
    Fig5(Vec<WorstCasePoint>),
    /// Fig. 6 convergence series.
    Fig6 {
        /// Mini-rounds plotted (series are padded to this length).
        minirounds: usize,
        /// One series per `(N, M)` size.
        series: Vec<Fig6Series>,
    },
    /// Fig. 7 regret comparison.
    Fig7(Fig7Output),
    /// Fig. 8 periodic-update runs.
    Fig8(Vec<Fig8Run>),
    /// Table II.
    Table2(Table2),
    /// Section IV-C complexity points.
    Complexity(Vec<ComplexityPoint>),
    /// Theorem 3 quality comparison.
    Theorem3(Vec<Theorem3Point>),
    /// One generic spec-driven Algorithm 2 run.
    PolicyRun {
        /// The configuration actually run (seed resolved).
        cfg: PolicyRunConfig,
        /// The run.
        run: RunResult,
    },
    /// A paired policy duel on identical realizations.
    PolicyDuel {
        /// Contestant A: `(config, run)`.
        a: (PolicyRunConfig, RunResult),
        /// Contestant B: `(config, run)`.
        b: (PolicyRunConfig, RunResult),
    },
}

/// What one experiment run produced: the typed figure payload plus the
/// flat headline metrics (observer metrics are appended by the engine).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// Typed payload for rendering.
    pub data: ExperimentData,
    /// Flat metrics for cross-seed aggregation.
    pub metrics: MetricTable,
}

/// One experiment: a declarative shape plus an execution against a
/// context. Each paper workload's config struct implements it directly
/// (`Fig5Config` … `Theorem3Config`, `PolicyRunConfig`,
/// `PolicyDuelConfig`; [`Table2Experiment`] stands for the parameterless
/// Table II), so an experiment is plain `Send + Sync` data that parallel
/// campaign workers borrow rather than rebuild.
///
/// # Example
///
/// Running a paper workload through the engine with streaming observers:
///
/// ```
/// use mhca_core::experiment::run_experiment;
/// use mhca_core::{ObserverKind, ObserverSet, PolicyRunConfig};
///
/// let exp = PolicyRunConfig::quick();
/// let observers = ObserverSet::from_kinds(&[ObserverKind::CommTotals]);
/// let out = run_experiment(&exp, 7, observers);
/// // Headline metrics come from the experiment, prefixed rows from the
/// // observers the engine folded in after the run.
/// assert!(out.metrics.get("avg_expected_kbps").is_some());
/// assert!(out.metrics.get("comm-totals:decisions").is_some());
/// ```
pub trait Experiment: Send + Sync {
    /// The static shape of this experiment.
    fn spec(&self) -> ScenarioShape;

    /// Runs the experiment for `ctx.seed`, streaming rounds to
    /// `ctx.observers` where the workload drives Algorithm 2.
    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput;
}

/// The engine: runs an experiment for one seed with the given observers
/// and folds the observers' metrics into the output.
pub fn run_experiment(exp: &dyn Experiment, seed: u64, observers: ObserverSet) -> ExperimentOutput {
    let mut ctx = ExperimentCtx { seed, observers };
    let mut out = exp.run(&mut ctx);
    ctx.observers.finish_into(&mut out.metrics);
    out
}

// ---------------------------------------------------------------------------
// The eight experiment kinds (plus the campaign duel): each config type is
// its experiment. Table II has no parameters, so a unit struct stands in.
// ---------------------------------------------------------------------------

/// Fig. 5: linear-network worst case for the strategy decision.
impl Experiment for Fig5Config {
    fn spec(&self) -> ScenarioShape {
        ScenarioShape {
            kind: "fig5",
            deterministic: true,
            streams_rounds: false,
        }
    }

    fn run(&self, _ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let points: Vec<WorstCasePoint> = self
            .ns
            .iter()
            .map(|&n| {
                let g = topology::line(n);
                let h = ExtendedConflictGraph::new(&g, 1);
                let weights: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 / (n + 1) as f64).collect();
                let dcfg = DistributedPtasConfig::default()
                    .with_r(self.r)
                    .with_max_minirounds(None);
                let mut ptas = DistributedPtas::new(&h, dcfg);
                let out = ptas.decide(&weights);
                debug_assert!(out.all_marked);
                WorstCasePoint {
                    n,
                    minirounds_used: out.minirounds_used,
                }
            })
            .collect();
        let mut metrics = MetricTable::new();
        for p in &points {
            metrics.push(format!("minirounds_n{}", p.n), p.minirounds_used as f64);
        }
        ExperimentOutput {
            data: ExperimentData::Fig5(points),
            metrics,
        }
    }
}

/// Fig. 6: convergence of Algorithm 3 over mini-rounds.
impl Experiment for Fig6Config {
    fn spec(&self) -> ScenarioShape {
        ScenarioShape {
            kind: "fig6",
            deterministic: false,
            streams_rounds: false,
        }
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let series: Vec<Fig6Series> = self
            .sizes
            .iter()
            .enumerate()
            .map(|(i, &(n, m))| {
                let net =
                    Network::from_spec(n, m, &self.topology, &self.channel, ctx.seed + i as u64);
                let weights = net.channels().means();
                let dcfg = DistributedPtasConfig::default()
                    .with_r(self.r)
                    .with_max_minirounds(Some(self.minirounds))
                    .with_loss_spec(self.loss);
                let mut ptas = DistributedPtas::new(net.h(), dcfg);
                let out = ptas.decide(&weights);
                let mut weight_by_miniround = out.per_miniround_weight.clone();
                let last = weight_by_miniround.last().copied().unwrap_or(0.0);
                weight_by_miniround.resize(self.minirounds, last);
                Fig6Series {
                    n,
                    m,
                    weight_by_miniround,
                    converged_at: out.minirounds_used,
                }
            })
            .collect();
        let mut metrics = MetricTable::new();
        for s in &series {
            let label = format!("{}x{}", s.n, s.m);
            metrics.push(
                format!("final_weight_{label}"),
                *s.weight_by_miniround.last().unwrap_or(&0.0),
            );
            metrics.push(format!("converged_at_{label}"), s.converged_at as f64);
        }
        ExperimentOutput {
            data: ExperimentData::Fig6 {
                minirounds: self.minirounds,
                series,
            },
            metrics,
        }
    }
}

/// Fig. 7: practical regret and β-regret, Algorithm 2 vs LLR.
impl Experiment for Fig7Config {
    fn spec(&self) -> ScenarioShape {
        ScenarioShape {
            kind: "fig7",
            deterministic: false,
            streams_rounds: true,
        }
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let seed = ctx.seed;
        let net = Network::from_spec(self.n, self.m, &self.topology, &self.channel, seed);
        let optimal = net.optimal().weight;
        let dcfg = DistributedPtasConfig::default()
            .with_r(self.r)
            .with_max_minirounds(Some(self.minirounds))
            .with_loss_spec(self.loss);
        let base = Algorithm2Config::default()
            .with_horizon(self.horizon)
            .with_decision(dcfg)
            .with_seed(seed)
            .with_optimal_kbps(optimal);

        let mut cs = CsUcb::new(2.0);
        let algorithm2 = run_policy_observed(&net, &base, &mut cs, &mut ctx.observers);
        let mut llr_policy = Llr::new(self.n, 2.0);
        let llr = run_policy_observed(&net, &base, &mut llr_policy, &mut ctx.observers);
        let beta = algorithm2.beta;
        let out = Fig7Output {
            optimal_kbps: optimal,
            beta,
            algorithm2,
            llr,
        };

        let mut metrics = MetricTable::new();
        metrics.push("optimal_kbps", out.optimal_kbps);
        metrics.push("beta", out.beta);
        metrics.push(
            "alg2_final_regret",
            *out.algorithm2.practical_regret.last().unwrap_or(&0.0),
        );
        metrics.push(
            "llr_final_regret",
            *out.llr.practical_regret.last().unwrap_or(&0.0),
        );
        metrics.push(
            "alg2_final_beta_regret",
            *out.algorithm2.practical_beta_regret.last().unwrap_or(&0.0),
        );
        metrics.push(
            "alg2_avg_expected_kbps",
            out.algorithm2.average_expected_kbps,
        );
        metrics.push("llr_avg_expected_kbps", out.llr.average_expected_kbps);
        ExperimentOutput {
            data: ExperimentData::Fig7(out),
            metrics,
        }
    }
}

/// Fig. 8: throughput under periodic (stale-weight) updates.
impl Experiment for Fig8Config {
    fn spec(&self) -> ScenarioShape {
        ScenarioShape {
            kind: "fig8",
            deterministic: false,
            streams_rounds: true,
        }
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let seed = ctx.seed;
        let net = Network::from_spec(self.n, self.m, &self.topology, &self.channel, seed);
        let dcfg = DistributedPtasConfig::default()
            .with_r(self.r)
            .with_max_minirounds(Some(self.minirounds))
            .with_loss_spec(self.loss);
        let runs: Vec<Fig8Run> = self
            .update_periods
            .iter()
            .map(|&y| {
                let horizon = self.updates_per_run * y as u64;
                let base = Algorithm2Config::default()
                    .with_horizon(horizon)
                    .with_update_period(y)
                    .with_decision(dcfg)
                    .with_seed(seed);
                let mut cs = CsUcb::new(2.0);
                let algorithm2 = run_policy_observed(&net, &base, &mut cs, &mut ctx.observers);
                let mut llr_policy = Llr::new(self.n, 2.0);
                let llr = run_policy_observed(&net, &base, &mut llr_policy, &mut ctx.observers);
                Fig8Run {
                    y,
                    horizon,
                    algorithm2,
                    llr,
                }
            })
            .collect();
        let mut metrics = MetricTable::new();
        for run in &runs {
            let a_act = run.algorithm2.avg_actual_throughput.last().unwrap_or(&0.0);
            let a_est = run
                .algorithm2
                .avg_estimated_throughput
                .last()
                .unwrap_or(&0.0);
            let l_act = run.llr.avg_actual_throughput.last().unwrap_or(&0.0);
            metrics.push(format!("alg2_actual_y{}", run.y), *a_act);
            metrics.push(format!("llr_actual_y{}", run.y), *l_act);
            metrics.push(format!("alg2_estimate_gap_y{}", run.y), a_est - a_act);
        }
        ExperimentOutput {
            data: ExperimentData::Fig8(runs),
            metrics,
        }
    }
}

/// Table II: the time model as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Table2Experiment;

impl Experiment for Table2Experiment {
    fn spec(&self) -> ScenarioShape {
        ScenarioShape {
            kind: "table2",
            deterministic: true,
            streams_rounds: false,
        }
    }

    fn run(&self, _ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let time = TimeModel::default();
        let t = Table2 {
            miniround_ms: time.miniround_ms(),
            minirounds_per_decision: time.minirounds_per_decision(),
            theta: time.theta(),
            time,
        };
        let mut metrics = MetricTable::new();
        metrics.push("theta", t.theta);
        metrics.push("miniround_ms", t.miniround_ms);
        metrics.push("minirounds_per_decision", t.minirounds_per_decision as f64);
        ExperimentOutput {
            data: ExperimentData::Table2(t),
            metrics,
        }
    }
}

/// Section IV-C: measured communication/space complexity.
impl Experiment for ComplexityConfig {
    fn spec(&self) -> ScenarioShape {
        ScenarioShape {
            kind: "complexity",
            deterministic: false,
            streams_rounds: false,
        }
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let mut points = Vec::new();
        for (i, &n) in self.ns.iter().enumerate() {
            let seed = ctx.seed + i as u64;
            let net = Network::from_spec(n, self.m, &self.topology, &self.channel, seed);
            for &r in &self.rs {
                let dcfg = DistributedPtasConfig::default()
                    .with_r(r)
                    .with_max_minirounds(Some(self.minirounds));
                let mut ptas = DistributedPtas::new(net.h(), dcfg);
                let weights = net.channels().means();
                let outcome = ptas.decide(&weights);
                let hn = net.h().n_vertices();
                let ball_sizes: f64 =
                    (0..hn).map(|v| ptas.ball_len(v) as f64).sum::<f64>() / hn as f64;
                points.push(ComplexityPoint {
                    n,
                    m: self.m,
                    r,
                    minirounds: outcome.minirounds_used,
                    mean_tx_per_vertex: outcome.counters.mean_per_vertex_tx(),
                    max_tx_per_vertex: outcome.counters.max_per_vertex_tx(),
                    timeslots: outcome.counters.timeslots,
                    mean_ball_size: ball_sizes,
                    candidates_scanned: ptas.scan_stats().candidates_scanned,
                });
            }
        }
        let mut metrics = MetricTable::new();
        for p in &points {
            metrics.push(format!("mean_tx_n{}_r{}", p.n, p.r), p.mean_tx_per_vertex);
            metrics.push(format!("mean_ball_n{}_r{}", p.n, p.r), p.mean_ball_size);
            metrics.push(
                format!("scanned_n{}_r{}", p.n, p.r),
                p.candidates_scanned as f64,
            );
        }
        ExperimentOutput {
            data: ExperimentData::Complexity(points),
            metrics,
        }
    }
}

/// Theorem 3: distributed vs centralized approximation quality.
impl Experiment for Theorem3Config {
    fn spec(&self) -> ScenarioShape {
        ScenarioShape {
            kind: "theorem3",
            deterministic: false,
            streams_rounds: false,
        }
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        use mhca_mwis::{exact, robust_ptas};
        let points: Vec<Theorem3Point> = (ctx.seed..ctx.seed + self.instances)
            .map(|seed| {
                let net = Network::from_spec(self.n, self.m, &self.topology, &self.channel, seed);
                let w = net.channels().means();
                let allowed: Vec<usize> = (0..net.n_vertices()).collect();
                let optimal =
                    exact::solve_grouped(net.h().graph(), &w, &allowed, net.node_groups()).weight;
                let centralized = robust_ptas::solve_grouped(
                    net.h().graph(),
                    &w,
                    &robust_ptas::Config::with_epsilon(0.5),
                    net.node_groups(),
                )
                .weight;
                let weight_of = |d: Option<usize>| {
                    let cfg = DistributedPtasConfig::default()
                        .with_r(2)
                        .with_max_minirounds(d)
                        .with_local_solver(crate::distributed::LocalSolver::Exact);
                    let mut ptas = DistributedPtas::new(net.h(), cfg);
                    let out = ptas.decide(&w);
                    out.winners.iter().map(|&v| w[v]).sum::<f64>()
                };
                Theorem3Point {
                    seed,
                    optimal,
                    centralized,
                    distributed: weight_of(None),
                    distributed_capped: weight_of(Some(4)),
                }
            })
            .collect();
        let n = points.len().max(1) as f64;
        let mean = |f: fn(&Theorem3Point) -> f64| points.iter().map(f).sum::<f64>() / n;
        let mut metrics = MetricTable::new();
        metrics.push("central_ratio_mean", mean(|p| p.centralized / p.optimal));
        metrics.push("dist_ratio_mean", mean(|p| p.distributed / p.optimal));
        metrics.push(
            "capped_ratio_mean",
            mean(|p| p.distributed_capped / p.optimal),
        );
        ExperimentOutput {
            data: ExperimentData::Theorem3(points),
            metrics,
        }
    }
}

/// One generic declarative Algorithm 2 run — the campaign cross-product
/// workload; the per-figure experiments above are fixed points of it.
impl PolicyRunConfig {
    /// The network and Algorithm 2 configuration this config runs on at
    /// `seed` (the seed overrides the config's own). The one definition
    /// of the workload, shared by the plain run, the duel and any stepped
    /// driver of the same run (the campaign service's executor).
    pub fn setup(&self, seed: u64) -> (Network, Algorithm2Config) {
        let net = Network::from_spec(self.n, self.m, &self.topology, &self.channel, seed);
        let dcfg = DistributedPtasConfig::default()
            .with_r(self.r)
            .with_max_minirounds(Some(self.minirounds))
            .with_loss_spec(self.loss)
            .with_partitions(self.partitions);
        let mut acfg = Algorithm2Config::default()
            .with_horizon(self.horizon)
            .with_update_period(self.update_period)
            .with_decision(dcfg)
            .with_seed(seed);
        if let Some(traffic) = &self.traffic {
            acfg = acfg.with_traffic(traffic.clone());
        }
        (net, acfg)
    }

    /// The headline metrics of one finished run, in emission order (the
    /// observers' metrics follow them).
    pub fn headline_metrics(run: &RunResult) -> MetricTable {
        let mut metrics = MetricTable::new();
        metrics.push("avg_expected_kbps", run.average_expected_kbps);
        metrics.push("avg_effective_kbps", run.average_effective_kbps);
        metrics.push("avg_observed_kbps", run.average_observed_kbps);
        metrics.push("transmissions", run.comm.transmissions as f64);
        metrics.push("decisions", run.comm.decisions as f64);
        // Traffic headline rows exist only when the scenario carries a
        // TrafficSpec, so traffic-free artifacts stay byte-identical.
        if let Some(t) = &run.traffic {
            metrics.push("arrivals", t.arrivals as f64);
            metrics.push("delivered", t.delivered as f64);
            metrics.push("ontime", t.ontime as f64);
            metrics.push("backlog", t.backlog as f64);
            metrics.push("mean_delay_slots", t.mean_delay());
            metrics.push("delay_utility", t.delay_utility());
        }
        metrics
    }

    /// Runs the config at one seed with observers — shared by the plain
    /// run and the duel.
    fn run_one(&self, seed: u64, observers: &mut ObserverSet) -> RunResult {
        let (net, acfg) = self.setup(seed);
        let mut policy = self.policy.build(&net);
        run_policy_observed(&net, &acfg, policy.as_mut(), observers)
    }
}

impl Experiment for PolicyRunConfig {
    fn spec(&self) -> ScenarioShape {
        ScenarioShape {
            kind: "policy-run",
            deterministic: false,
            streams_rounds: true,
        }
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let cfg = PolicyRunConfig {
            seed: ctx.seed,
            ..self.clone()
        };
        let run = cfg.run_one(ctx.seed, &mut ctx.observers);
        ExperimentOutput {
            metrics: Self::headline_metrics(&run),
            data: ExperimentData::PolicyRun { cfg, run },
        }
    }
}

/// Paired head-to-head: `base.policy` vs `challenger` on the same network
/// and identical channel realizations (the Fig. 7 comparison generalized).
impl Experiment for PolicyDuelConfig {
    fn spec(&self) -> ScenarioShape {
        ScenarioShape {
            kind: "policy-duel",
            deterministic: false,
            streams_rounds: true,
        }
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let cfg_a = PolicyRunConfig {
            seed: ctx.seed,
            ..self.base.clone()
        };
        let cfg_b = PolicyRunConfig {
            policy: self.challenger,
            ..cfg_a.clone()
        };
        // Same seed ⇒ same network and channel realizations: a paired
        // comparison, as in the paper's Fig. 7/8.
        let run_a = cfg_a.run_one(ctx.seed, &mut ctx.observers);
        let run_b = cfg_b.run_one(ctx.seed, &mut ctx.observers);
        // A same-policy duel (e.g. cs-ucb l=2 vs cs-ucb l=1 — labels
        // ignore parameters) must not emit colliding metric names: the
        // campaign summarizer pools by name, which would silently blend
        // the two contestants into one aggregate.
        let (a, b) = (self.base.policy.label(), self.challenger.label());
        let (a, b) = if a == b {
            (format!("{a}-base"), format!("{b}-challenger"))
        } else {
            (a.to_string(), b.to_string())
        };
        let mut metrics = MetricTable::new();
        metrics.push(
            format!("{a}_avg_expected_kbps"),
            run_a.average_expected_kbps,
        );
        metrics.push(
            format!("{b}_avg_expected_kbps"),
            run_b.average_expected_kbps,
        );
        metrics.push(
            "advantage_kbps",
            run_a.average_expected_kbps - run_b.average_expected_kbps,
        );
        // Under a TrafficSpec the duel is ranked by the delay-constrained
        // utility (Khodaian & Khalaj) instead of raw kbps — a policy that
        // lands packets on time beats one that merely saturates links.
        let a_wins = match (&run_a.traffic, &run_b.traffic) {
            (Some(ta), Some(tb)) => {
                let (ua, ub) = (ta.delay_utility(), tb.delay_utility());
                metrics.push(format!("{a}_delay_utility"), ua);
                metrics.push(format!("{b}_delay_utility"), ub);
                metrics.push("delay_utility_advantage", ua - ub);
                ua > ub
            }
            _ => run_a.average_expected_kbps > run_b.average_expected_kbps,
        };
        metrics.push("a_wins", f64::from(u8::from(a_wins)));
        ExperimentOutput {
            data: ExperimentData::PolicyDuel {
                a: (cfg_a, run_a),
                b: (cfg_b, run_b),
            },
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicySpec;

    #[test]
    fn metric_table_preserves_order_and_lookups() {
        let mut t = MetricTable::new();
        assert!(t.is_empty());
        t.push("b", 2.0);
        t.push("a", 1.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("a"), Some(1.0));
        assert_eq!(t.get("missing"), None);
        assert_eq!(
            t.rows().iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["b", "a"]
        );
    }

    #[test]
    fn observer_kinds_round_trip_labels() {
        for kind in ObserverKind::ALL {
            assert_eq!(ObserverKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ObserverKind::parse("nope"), None);
    }

    #[test]
    fn full_observer_zoo_leaves_run_result_byte_identical() {
        // Registering every built-in observer at once — including the
        // windowed-regret sink, whose oracle runs extra counterfactual
        // strategy decisions — must not perturb the run itself: the
        // RunResult equals the observer-free `run_policy` output exactly.
        use crate::runner::{run_policy, run_policy_observed, Algorithm2Config};
        use mhca_bandit::policies::CsUcb;

        let net = crate::Network::random(10, 3, 3.0, 0.1, 9);
        let cfg = Algorithm2Config::default().with_horizon(80).with_seed(9);
        let plain = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        let mut observers = ObserverSet::from_kinds(&ObserverKind::ALL);
        assert!(observers.wants_oracle(), "windowed-regret needs the oracle");
        let observed = run_policy_observed(&net, &cfg, &mut CsUcb::new(2.0), &mut observers);
        assert_eq!(plain, observed, "observers must never perturb the run");

        // And every observer contributed at least one metric under its
        // own label prefix.
        let mut table = MetricTable::new();
        observers.finish_into(&mut table);
        for kind in ObserverKind::ALL {
            let prefix = format!("{}:", kind.label());
            assert!(
                table
                    .rows()
                    .iter()
                    .any(|(name, _)| name.starts_with(&prefix)),
                "no metrics from {prefix}"
            );
        }
    }

    #[test]
    fn observer_states_round_trip_mid_run() {
        // Snapshot the full observer zoo halfway through a stepped run,
        // restore into a freshly built set, continue — the final metric
        // table must be byte-identical to the uninterrupted run's.
        use crate::runner::{Algorithm2Config, PolicyRunner};
        use mhca_bandit::policies::CsUcb;

        let net = crate::Network::random(10, 3, 3.0, 0.1, 9);
        let cfg = Algorithm2Config::default().with_horizon(80).with_seed(9);

        let mut baseline_set = ObserverSet::from_kinds(&ObserverKind::ALL);
        let mut policy = CsUcb::new(2.0);
        let mut runner = PolicyRunner::new(&net, &cfg, &baseline_set);
        while !runner.done() {
            runner.step_period(&mut policy, &mut baseline_set);
        }
        let baseline = runner.finish(&policy);
        let mut baseline_metrics = MetricTable::new();
        baseline_set.finish_into(&mut baseline_metrics);

        // Interrupted run: step halfway, snapshot runner + policy +
        // observers, then rebuild everything from scratch and restore.
        let mut set_a = ObserverSet::from_kinds(&ObserverKind::ALL);
        let mut policy_a = CsUcb::new(2.0);
        let mut runner_a = PolicyRunner::new(&net, &cfg, &set_a);
        for _ in 0..40 {
            runner_a.step_period(&mut policy_a, &mut set_a);
        }
        let runner_state = runner_a.snapshot(&policy_a);
        let observer_state = set_a.snapshot_states();
        drop(runner_a);
        drop(set_a);

        let mut set_b = ObserverSet::from_kinds(&ObserverKind::ALL);
        let mut policy_b = CsUcb::new(2.0);
        let mut runner_b = PolicyRunner::new(&net, &cfg, &set_b);
        runner_b
            .restore(&mut policy_b, &runner_state)
            .expect("runner state must restore");
        set_b
            .restore_states(&observer_state)
            .expect("observer state must restore");
        while !runner_b.done() {
            runner_b.step_period(&mut policy_b, &mut set_b);
        }
        let resumed = runner_b.finish(&policy_b);
        let mut resumed_metrics = MetricTable::new();
        set_b.finish_into(&mut resumed_metrics);

        assert_eq!(baseline, resumed, "resumed RunResult must be identical");
        // Wall-clock observers (decide-timing, telemetry spans) are the
        // only nondeterministic rows; compare everything else exactly.
        let strip = |t: &MetricTable| -> Vec<(String, f64)> {
            t.rows()
                .iter()
                .filter(|(n, _)| !n.starts_with("decide-timing:"))
                .cloned()
                .collect()
        };
        assert_eq!(
            strip(&baseline_metrics),
            strip(&resumed_metrics),
            "resumed observer metrics must be identical"
        );
    }

    #[test]
    fn enabled_telemetry_leaves_run_result_and_metrics_byte_identical() {
        // The telemetry contract: attaching an *enabled* handle — which
        // registers the TelemetryObserver, switches on phase timing, and
        // streams incremental counters from CommTotals / WindowedRegret —
        // must change neither the RunResult nor the metric rows, while
        // actually producing events.
        use crate::runner::{run_policy_observed, Algorithm2Config};
        use mhca_bandit::policies::CsUcb;
        use mhca_telemetry::MemorySink;
        use std::sync::Arc;

        struct Fwd(Arc<MemorySink>);
        impl mhca_telemetry::TraceSink for Fwd {
            fn emit(&self, e: &mhca_telemetry::Event<'_>) {
                self.0.emit(e);
            }
        }

        let net = crate::Network::random(10, 3, 3.0, 0.1, 9);
        let cfg = Algorithm2Config::default().with_horizon(80).with_seed(9);
        let kinds = [
            ObserverKind::CommTotals,
            ObserverKind::WindowedRegret { window: 30 },
        ];

        let mut plain_set = ObserverSet::from_kinds(&kinds);
        let plain = run_policy_observed(&net, &cfg, &mut CsUcb::new(2.0), &mut plain_set);
        let mut plain_metrics = MetricTable::new();
        plain_set.finish_into(&mut plain_metrics);

        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::from_sink(Box::new(Fwd(sink.clone()))).with_scope("test/seed9");
        let mut traced_set = ObserverSet::from_kinds(&kinds);
        traced_set.attach_telemetry(&telemetry);
        assert!(traced_set.wants_phase_timing());
        let traced = run_policy_observed(&net, &cfg, &mut CsUcb::new(2.0), &mut traced_set);
        let mut traced_metrics = MetricTable::new();
        traced_set.finish_into(&mut traced_metrics);

        assert_eq!(plain, traced, "telemetry must never perturb the run");
        assert_eq!(
            plain_metrics, traced_metrics,
            "telemetry must never add or change metric rows"
        );

        let lines = sink.lines();
        assert!(
            lines.iter().any(|l| l.contains("\"name\":\"phase.decide\"")
                && l.contains("\"kind\":\"hist\"")),
            "expected a decide-phase histogram event"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"name\":\"regret.window_per_slot\"")),
            "expected incremental windowed-regret events"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"name\":\"comm.decisions\"")),
            "expected incremental comm-totals counters"
        );
        assert!(
            lines.iter().all(|l| l.contains("\"scope\":\"test/seed9\"")),
            "every event must carry the job scope"
        );
    }

    #[test]
    fn new_observer_metrics_are_deterministic() {
        let exp = PolicyRunConfig {
            channel: mhca_channels::ChannelModelSpec::Drifting {
                shift_frac: 0.5,
                breakpoints: vec![40, 80],
                ramp: 0,
            },
            horizon: 120,
            ..PolicyRunConfig::quick()
        };
        let kinds = [
            ObserverKind::SensingCost {
                probe_cost: 1.0,
                report_cost: 0.1,
            },
            ObserverKind::CaptureStats,
            ObserverKind::WindowedRegret { window: 30 },
        ];
        let a = run_experiment(&exp, 5, ObserverSet::from_kinds(&kinds));
        let b = run_experiment(&exp, 5, ObserverSet::from_kinds(&kinds));
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.get("windowed-regret:windows"), Some(4.0));
    }

    #[test]
    fn windowed_regret_regrows_at_drift_breakpoints() {
        // Piecewise-stationary drift with a strong shift at slot 300: the
        // policy converges over the first three windows, then the means
        // flip and the per-window regret against the exact
        // instantaneous-means optimum re-grows in the window containing
        // the breakpoint.
        let exp = PolicyRunConfig {
            channel: mhca_channels::ChannelModelSpec::Drifting {
                shift_frac: 0.5,
                breakpoints: vec![300],
                ramp: 0,
            },
            n: 12,
            m: 2,
            horizon: 600,
            // r = 2, as in the registry drift scenarios.
            r: 2,
            ..PolicyRunConfig::quick()
        };
        let observers = ObserverSet::from_kinds(&[ObserverKind::WindowedRegret { window: 100 }]);
        let out = run_experiment(&exp, 2, observers);
        assert_eq!(out.metrics.get("windowed-regret:windows"), Some(6.0));
        let w = |i: usize| {
            out.metrics
                .get(&format!("windowed-regret:w{i:02}_regret_per_slot"))
                .unwrap()
        };
        // Window 3 ends at the breakpoint; window 4 covers the shift.
        assert_eq!(out.metrics.get("windowed-regret:w03_end_slot"), Some(300.0));
        // Pre-break: learning converges (regret decays toward the floor).
        assert!(
            w(3) < w(1),
            "pre-break regret must decay: {} vs {}",
            w(3),
            w(1)
        );
        // Post-break: the stale strategy re-accumulates regret sharply.
        assert!(
            w(4) > 3.0 * w(3) && w(4) > w(3) + 100.0,
            "regret must re-grow in the breakpoint window: w3={} w4={}",
            w(3),
            w(4)
        );
    }

    #[test]
    fn windowed_regret_never_straddles_run_boundaries() {
        // Multi-run experiments (Fig. 7/8, duels) stream every
        // contestant through the same observers; a window open at the
        // end of run A must be flushed when run B's first record
        // (decision == 1) arrives, never blended into B's slots.
        let record = |slot: u64, decision: u64, observed: f64| RoundRecord {
            slot,
            period_len: 10,
            decision,
            winners: &[],
            expected_kbps: 0.0,
            observed_kbps: observed,
            estimated_kbps: 0.0,
            decide_ns: 0,
            wb_ns: 0,
            learn_ns: 0,
            decide_phase_ns: DecidePhaseNs::default(),
            decide_transmissions: 0,
            decide_delivered: 0,
            decide_timeslots: 0,
            decide_scanned: 0,
            decide_fallback_floods: 0,
            per_vertex_tx: &[],
            n_channels: 1,
            channel_attempts: &[0],
            channel_captures: &[0],
            oracle_kbps: 100.0,
            traffic: None,
        };
        let mut obs = WindowedRegretObserver::new(25);
        // Run A: 4 periods of 10 slots. The window closes at the first
        // period boundary past 25 slots (slot 30), leaving the fourth
        // period open when run B starts.
        for (i, d) in (1..=4u64).enumerate() {
            obs.on_round(&record(10 * i as u64, d, 500.0));
        }
        // Run B: slots restart at 0 with decision 1.
        for (i, d) in (1..=3u64).enumerate() {
            obs.on_round(&record(10 * i as u64, d, 0.0));
        }
        let t = obs.finish();
        // Windows: run A closes [0,30) then flushes [30,40) at the run
        // boundary; run B closes [0,30) — three windows total, and run
        // A's observations never leak into run B's window.
        assert_eq!(t.get("windows"), Some(3.0));
        assert_eq!(t.get("w01_end_slot"), Some(30.0));
        assert_eq!(t.get("w02_end_slot"), Some(40.0), "run A's tail flushed");
        assert_eq!(t.get("w03_end_slot"), Some(30.0), "run B starts fresh");
        // Run A earns 500/period against a 1000 oracle: +50/slot regret.
        assert_eq!(t.get("w01_regret_per_slot"), Some(50.0));
        assert_eq!(t.get("w02_regret_per_slot"), Some(50.0));
        // Run B earns nothing: exactly the full 100/slot oracle value —
        // any blending with run A's 500-observations would lower it.
        assert_eq!(t.get("w03_regret_per_slot"), Some(100.0));
    }

    #[test]
    fn capture_stats_tally_outages_under_full_swing_adversary() {
        // A full-swing square wave (low phase = 0 kbps): attempts split
        // into captures and outages, and the tallies are channel-complete.
        let exp = PolicyRunConfig {
            channel: mhca_channels::ChannelModelSpec::AdversarialSwitching {
                swing_frac: 1.0,
                dwell: 20,
            },
            horizon: 200,
            ..PolicyRunConfig::quick()
        };
        let out = run_experiment(
            &exp,
            3,
            ObserverSet::from_kinds(&[ObserverKind::CaptureStats]),
        );
        let get = |name: &str| out.metrics.get(&format!("capture-stats:{name}")).unwrap();
        let attempts = get("attempts");
        let captures = get("captures");
        let outages = get("outages");
        assert!(attempts > 0.0);
        assert_eq!(attempts, captures + outages);
        assert!(
            outages > 0.0,
            "a full-swing adversary must produce zero-rate observations"
        );
        let rate = get("capture_rate");
        assert!((0.0..1.0).contains(&rate), "capture rate {rate}");
        // Per-channel rows exist for every channel of the 2-channel net.
        for c in 0..2 {
            assert!(out
                .metrics
                .get(&format!("capture-stats:ch{c}_capture_rate"))
                .is_some());
        }
    }

    #[test]
    fn sensing_cost_charges_follow_the_cost_model() {
        let exp = PolicyRunConfig {
            horizon: 100,
            ..PolicyRunConfig::quick()
        };
        let run_with = |probe: f64, report: f64| {
            run_experiment(
                &exp,
                3,
                ObserverSet::from_kinds(&[ObserverKind::SensingCost {
                    probe_cost: probe,
                    report_cost: report,
                }]),
            )
        };
        let out = run_with(1.0, 0.1);
        let get = |name: &str| out.metrics.get(&format!("sensing-cost:{name}")).unwrap();
        let total = get("cost_total");
        assert!((total - (get("probe_cost_total") + get("report_cost_total"))).abs() < 1e-9);
        assert!(get("cost_per_vertex_max") >= get("cost_per_vertex_mean"));
        assert!(get("kbps_per_unit_cost") > 0.0);

        // The model is linear: doubling the probe price doubles the probe
        // total and leaves the report total untouched.
        let doubled = run_with(2.0, 0.1);
        let get2 = |name: &str| {
            doubled
                .metrics
                .get(&format!("sensing-cost:{name}"))
                .unwrap()
        };
        assert!((get2("probe_cost_total") - 2.0 * get("probe_cost_total")).abs() < 1e-9);
        assert_eq!(get2("report_cost_total"), get("report_cost_total"));

        // A free cost model charges nothing.
        let free = run_with(0.0, 0.0);
        assert_eq!(free.metrics.get("sensing-cost:cost_total"), Some(0.0));
    }

    #[test]
    fn engine_runs_table2_deterministically() {
        let out = run_experiment(&Table2Experiment, 0, ObserverSet::new());
        assert_eq!(out.metrics.get("theta"), Some(0.5));
        assert!(matches!(out.data, ExperimentData::Table2(_)));
        let shape = Table2Experiment.spec();
        assert!(shape.deterministic);
        assert!(!shape.streams_rounds);
    }

    #[test]
    fn policy_run_streams_rounds_to_observers() {
        let exp = PolicyRunConfig::quick();
        let observers = ObserverSet::from_kinds(&[
            ObserverKind::CommTotals,
            ObserverKind::Throughput,
            ObserverKind::DecideTiming,
        ]);
        let out = run_experiment(&exp, 3, observers);
        let ExperimentData::PolicyRun { run, .. } = &out.data else {
            panic!("wrong data variant");
        };
        // One decision per slot at y = 1.
        assert_eq!(
            out.metrics.get("comm-totals:decisions"),
            Some(run.comm.decisions as f64)
        );
        // The throughput observer recomputes the run's own average.
        let avg = out.metrics.get("throughput:avg_observed_kbps").unwrap();
        assert!((avg - run.average_observed_kbps).abs() < 1e-9);
        assert_eq!(out.metrics.get("throughput:slots"), Some(run.slots as f64));
        // Timing streamed something (non-negative, finite).
        let ms = out.metrics.get("decide-timing:decide_ms_total").unwrap();
        assert!(ms.is_finite() && ms >= 0.0);
    }

    #[test]
    fn comm_totals_restores_a_snapshot_with_the_retired_fallback_key() {
        // The key order and values of a snapshot written while the
        // observer still tallied fallback floods.
        let mut legacy = StateMap::new();
        for (key, value) in [
            ("transmissions", 7),
            ("delivered", 5),
            ("timeslots", 3),
            ("scanned", 2),
            ("fallback_floods", 4),
            ("decisions", 1),
        ] {
            legacy.put_u64(key, value);
        }
        let mut obs = CommTotalsObserver::default();
        obs.restore_state(&legacy).unwrap();
        let mut again = StateMap::new();
        obs.snapshot_state(&mut again);
        assert!(again.iter().all(|(key, _)| key != "fallback_floods"));
        let t = obs.finish();
        assert_eq!(t.get("decide_transmissions"), Some(7.0));
        assert_eq!(t.get("decide_candidates_scanned"), Some(2.0));
        assert_eq!(t.get("decide_fallback_floods"), Some(0.0));
        assert_eq!(t.get("decisions"), Some(1.0));
    }

    #[test]
    fn observer_metrics_are_deterministic_where_expected() {
        let exp = PolicyRunConfig::quick();
        let kinds = [ObserverKind::CommTotals, ObserverKind::PerVertexTx];
        let a = run_experiment(&exp, 5, ObserverSet::from_kinds(&kinds));
        let b = run_experiment(&exp, 5, ObserverSet::from_kinds(&kinds));
        assert_eq!(a.metrics, b.metrics);
        assert!(a.metrics.get("per-vertex-tx:tx_per_vertex_max").unwrap() > 0.0);
    }

    #[test]
    fn duel_pairs_runs_on_identical_instances() {
        let exp = PolicyDuelConfig {
            base: PolicyRunConfig {
                horizon: 120,
                ..PolicyRunConfig::quick()
            },
            challenger: PolicySpec::Random,
        };
        let out = run_experiment(&exp, 3, ObserverSet::new());
        let a = out.metrics.get("cs-ucb_avg_expected_kbps").unwrap();
        let b = out.metrics.get("random_avg_expected_kbps").unwrap();
        assert!((out.metrics.get("advantage_kbps").unwrap() - (a - b)).abs() < 1e-9);
    }

    #[test]
    fn same_policy_duel_disambiguates_metric_names() {
        // cs-ucb vs cs-ucb (different l): labels collide, so the metric
        // names must not — the campaign summarizer pools by name.
        let exp = PolicyDuelConfig {
            base: PolicyRunConfig {
                horizon: 60,
                ..PolicyRunConfig::quick()
            },
            challenger: PolicySpec::CsUcb { l: 0.5 },
        };
        let out = run_experiment(&exp, 3, ObserverSet::new());
        assert!(out.metrics.get("cs-ucb-base_avg_expected_kbps").is_some());
        assert!(out
            .metrics
            .get("cs-ucb-challenger_avg_expected_kbps")
            .is_some());
        let names: Vec<&str> = out.metrics.rows().iter().map(|(n, _)| n.as_str()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "colliding metric names");
    }

    /// A quick policy-run config carrying traffic: two flows on a line
    /// network, one deadline-bounded.
    fn traffic_cfg() -> PolicyRunConfig {
        PolicyRunConfig {
            topology: mhca_graph::TopologySpec::Line,
            traffic: Some(crate::TrafficSpec::poisson(
                0.4,
                vec![
                    crate::FlowSpec {
                        src: 0,
                        dst: 3,
                        deadline: Some(30),
                    },
                    crate::FlowSpec {
                        src: 5,
                        dst: 2,
                        deadline: None,
                    },
                ],
            )),
            horizon: 200,
            ..PolicyRunConfig::quick()
        }
    }

    #[test]
    fn flow_delay_and_queue_tail_report_per_flow_tails() {
        let exp = traffic_cfg();
        let kinds = [
            ObserverKind::FlowDelay,
            ObserverKind::QueueTail { bound: 4 },
        ];
        let out = run_experiment(&exp, 7, ObserverSet::from_kinds(&kinds));
        let get = |n: &str| {
            out.metrics
                .get(n)
                .unwrap_or_else(|| panic!("missing metric {n}"))
        };
        // Headline rows from the run summary.
        assert!(get("arrivals") > 0.0);
        assert!(get("delivered") > 0.0);
        assert!(get("delay_utility") > 0.0);
        // Per-flow delay tails from the observer.
        let flows = get("flow-delay:flows") as usize;
        assert!(flows >= 1);
        for f in 0..flows {
            let p50 = get(&format!("flow-delay:f{f}_p50_slots"));
            let p99 = get(&format!("flow-delay:f{f}_p99_slots"));
            let p999 = get(&format!("flow-delay:f{f}_p999_slots"));
            assert!(p50 >= 1.0, "delays are >= 1 slot");
            assert!(p99 >= p50 && p999 >= p99, "percentiles must be ordered");
        }
        // The observer's utility is computed from the same on-time counts
        // as the run summary's (undelivered flows contribute ln(1) = 0).
        assert!((get("flow-delay:delay_utility") - get("delay_utility")).abs() < 1e-9);
        // Backlog tails: one sample per node per period.
        assert!(get("queue-tail:samples") > 0.0);
        assert!(get("queue-tail:backlog_max") >= get("queue-tail:backlog_p50"));
        assert_eq!(get("queue-tail:bound"), 4.0);
    }

    #[test]
    fn traffic_duels_rank_by_delay_utility() {
        let exp = PolicyDuelConfig {
            base: traffic_cfg(),
            challenger: PolicySpec::Random,
        };
        let out = run_experiment(&exp, 3, ObserverSet::new());
        let ua = out.metrics.get("cs-ucb_delay_utility").unwrap();
        let ub = out.metrics.get("random_delay_utility").unwrap();
        let adv = out.metrics.get("delay_utility_advantage").unwrap();
        assert!((adv - (ua - ub)).abs() < 1e-9);
        // The winner bit follows utility, not kbps.
        assert_eq!(
            out.metrics.get("a_wins"),
            Some(f64::from(u8::from(ua > ub)))
        );
    }

    #[test]
    fn traffic_observer_states_round_trip_mid_run() {
        // FlowDelay/QueueTail accumulate log-bucketed histograms; their
        // snapshot is a sparse bucket dump, and every `finish` row is
        // derived from bucket counts or exact counters — so a restored
        // observer must finish byte-identical, traffic included.
        use crate::runner::{Algorithm2Config, PolicyRunner};
        use mhca_bandit::policies::CsUcb;

        let cfg_pr = traffic_cfg();
        let net =
            crate::Network::from_spec(cfg_pr.n, cfg_pr.m, &cfg_pr.topology, &cfg_pr.channel, 11);
        let cfg = Algorithm2Config::default()
            .with_horizon(200)
            .with_seed(11)
            .with_traffic(cfg_pr.traffic.clone().unwrap());
        let kinds = [
            ObserverKind::FlowDelay,
            ObserverKind::QueueTail { bound: 4 },
        ];

        let mut baseline_set = ObserverSet::from_kinds(&kinds);
        let mut policy = CsUcb::new(2.0);
        let mut runner = PolicyRunner::new(&net, &cfg, &baseline_set);
        while !runner.done() {
            runner.step_period(&mut policy, &mut baseline_set);
        }
        let baseline = runner.finish(&policy);
        let mut baseline_metrics = MetricTable::new();
        baseline_set.finish_into(&mut baseline_metrics);
        assert!(
            baseline.traffic.as_ref().unwrap().delivered > 0,
            "need deliveries for the round-trip to be meaningful"
        );

        let mut set_a = ObserverSet::from_kinds(&kinds);
        let mut policy_a = CsUcb::new(2.0);
        let mut runner_a = PolicyRunner::new(&net, &cfg, &set_a);
        for _ in 0..100 {
            runner_a.step_period(&mut policy_a, &mut set_a);
        }
        let runner_state = runner_a.snapshot(&policy_a);
        let observer_state = set_a.snapshot_states();

        let mut set_b = ObserverSet::from_kinds(&kinds);
        let mut policy_b = CsUcb::new(2.0);
        let mut runner_b = PolicyRunner::new(&net, &cfg, &set_b);
        runner_b
            .restore(&mut policy_b, &runner_state)
            .expect("runner state must restore");
        set_b
            .restore_states(&observer_state)
            .expect("observer state must restore");
        while !runner_b.done() {
            runner_b.step_period(&mut policy_b, &mut set_b);
        }
        let resumed = runner_b.finish(&policy_b);
        let mut resumed_metrics = MetricTable::new();
        set_b.finish_into(&mut resumed_metrics);

        assert_eq!(baseline, resumed, "resumed RunResult must be identical");
        assert_eq!(
            baseline_metrics, resumed_metrics,
            "resumed traffic observer metrics must be identical"
        );
    }

    #[test]
    fn seed_overrides_config_seed() {
        let cfg = PolicyRunConfig {
            seed: 999,
            ..PolicyRunConfig::quick()
        };
        let at_seed = |s| run_experiment(&cfg, s, ObserverSet::new());
        let a = at_seed(5);
        let b = at_seed(5);
        let c = at_seed(6);
        assert_eq!(a, b, "same seed must reproduce");
        assert_ne!(a.metrics, c.metrics, "different seeds must differ");
    }
}
