//! Algorithm 2 — the main round loop of the channel-access scheme.
//!
//! Each round: the previous round's transmitters broadcast their updated
//! estimates within `(2r+1)` hops (WB phase), every vertex recomputes the
//! learning indices (Eq. (3) — only `(µ̃_k, m_k)` need to travel; the index
//! is a public formula of them and `t`), the distributed robust PTAS picks
//! a strategy (Algorithm 3), the winners transmit and observe realized
//! rates, and the estimates update via Eqs. (5)–(6).
//!
//! The runner also implements the **periodic update** variant of
//! Section V-C: strategy decision only every `y` slots, with the
//! first slot of a period paying the decision airtime (`t_d` of `t_a`) and
//! the remaining `y−1` slots transmitting the full round.
//!
//! The loop lives in [`PolicyRunner`], a *resumable* runner that advances
//! one decision period per [`PolicyRunner::step_period`] call and can
//! serialize its complete mutable state between periods
//! ([`PolicyRunner::snapshot`] / [`PolicyRunner::restore`]) — the
//! round-granularity checkpointing behind `mhca-campaign serve`. The
//! batch entry points [`run_policy`] / [`run_policy_observed`] are thin
//! wrappers (construct, step to the horizon, finish), so batch behavior —
//! including the allocation-free steady state pinned by
//! `tests/alloc_free.rs` — is the stepwise loop's behavior.

use crate::{
    distributed::{DecisionOutcome, DistributedPtas, DistributedPtasConfig},
    experiment::{ObserverSet, RoundRecord},
    network::Network,
    time::TimeModel,
    traffic::{QueueEngine, TrafficSpec, TrafficSummary},
};
use mhca_bandit::{
    bounds,
    policies::IndexPolicy,
    state::{StateError, StateMap},
    ArmStats, RegretTracker,
};
use mhca_channels::rates;
use mhca_sim::{Counters, Flood, FloodEngine};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// Aggregate communication cost across a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommTotals {
    /// Total relay broadcasts (WB + LD + LB phases).
    pub transmissions: u64,
    /// Total message copies delivered.
    pub delivered: u64,
    /// Total pipelined mini-timeslots.
    pub timeslots: u64,
    /// Strategy decisions executed.
    pub decisions: u64,
}

/// Configuration of an Algorithm 2 run.
#[derive(Debug, Clone, PartialEq)]
pub struct Algorithm2Config {
    /// Horizon in time slots (`n`).
    pub horizon: u64,
    /// Update period `y` (Section V-C); `1` = decide every slot.
    pub update_period: usize,
    /// Strategy-decision (Algorithm 3) parameters.
    pub decision: DistributedPtasConfig,
    /// Round timing (Table II).
    pub time: TimeModel,
    /// RNG seed for policy randomness.
    pub seed: u64,
    /// Observation normalization: rewards are divided by this before
    /// entering the policy (`None` = the paper's maximum rate class,
    /// 1350 kbps).
    pub reward_scale: Option<f64>,
    /// Known optimum `R_1` in kbps; enables the regret series
    /// (exponential to compute, so caller-supplied).
    pub optimal_kbps: Option<f64>,
    /// Approximation factor `α` for the β-regret target `R_1/(θ·α)`;
    /// `None` = the Theorem 2 value `(M·(2r+1)²)^{1/r}`.
    pub alpha: Option<f64>,
    /// Optional traffic workload: arrival processes feeding per-vertex
    /// FIFO queues served from the capture outcome (see
    /// [`crate::traffic`]). `None` (the default) runs the saturation
    /// workload with zero queueing overhead — the observer-free path is
    /// pinned byte-identical and allocation-free either way.
    pub traffic: Option<TrafficSpec>,
}

impl Default for Algorithm2Config {
    fn default() -> Self {
        Algorithm2Config {
            horizon: 1000,
            update_period: 1,
            decision: DistributedPtasConfig::default(),
            time: TimeModel::default(),
            seed: 0,
            reward_scale: None,
            optimal_kbps: None,
            alpha: None,
            traffic: None,
        }
    }
}

impl Algorithm2Config {
    /// Builder-style horizon override.
    pub fn with_horizon(mut self, n: u64) -> Self {
        self.horizon = n;
        self
    }

    /// Builder-style update-period override.
    pub fn with_update_period(mut self, y: usize) -> Self {
        assert!(y > 0, "update period must be positive");
        self.update_period = y;
        self
    }

    /// Builder-style decision-config override.
    pub fn with_decision(mut self, d: DistributedPtasConfig) -> Self {
        self.decision = d;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style optimum (enables regret series).
    pub fn with_optimal_kbps(mut self, r1: f64) -> Self {
        self.optimal_kbps = Some(r1);
        self
    }

    /// Builder-style traffic workload (enables the queueing layer).
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(traffic);
        self
    }
}

/// Output of one Algorithm 2 run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Policy name.
    pub policy: String,
    /// Slots simulated.
    pub slots: u64,
    /// Slot index at the end of each period (x-axis of the series below).
    pub period_end_slots: Vec<u64>,
    /// Running average of *actual effective* throughput `R̃_P(z)` in kbps
    /// (Section V-C) — the solid lines of Fig. 8.
    pub avg_actual_throughput: Vec<f64>,
    /// Running average of *estimated effective* throughput `W̃_P(z)` in
    /// kbps — the estimated lines of Fig. 8.
    pub avg_estimated_throughput: Vec<f64>,
    /// Per-slot practical regret `R_1 − θ·(avg observed)` (Fig. 7(a));
    /// empty unless `optimal_kbps` was supplied and `update_period == 1`.
    pub practical_regret: Vec<f64>,
    /// Per-slot practical β-regret `R_1/(θα) − θ·(avg observed)`
    /// (Fig. 7(b)); empty unless `optimal_kbps` was supplied and
    /// `update_period == 1`.
    pub practical_beta_regret: Vec<f64>,
    /// Winners of the final strategy decision.
    pub final_strategy_vertices: Vec<usize>,
    /// Relay broadcasts charged to each vertex across the whole run (WB
    /// phase plus strategy-decision floods) — the measurable counterpart
    /// of the paper's per-vertex `O(r² + D)` communication claim. Earlier
    /// revisions rebuilt the WB flood engine every round and threw this
    /// away, keeping only scalar totals.
    pub per_vertex_tx: Vec<u64>,
    /// Mean raw observed throughput per slot (kbps).
    pub average_observed_kbps: f64,
    /// Mean *effective* (airtime-scaled) throughput per slot (kbps).
    pub average_effective_kbps: f64,
    /// Mean expected (true-mean) throughput of the played strategies (kbps).
    pub average_expected_kbps: f64,
    /// The β-regret target factor actually used (`β = θ·α`, clamped ≥ 1).
    pub beta: f64,
    /// Communication totals across the run.
    pub comm: CommTotals,
    /// The seed the run used (for reproducibility records).
    pub seed: u64,
    /// Traffic totals (per-flow deliveries, deadlines met, standing
    /// backlog); `Some` iff the config carried a [`TrafficSpec`]. Every
    /// other field is unaffected by traffic — pinned by
    /// `traffic_leaves_the_untraced_run_byte_identical`.
    pub traffic: Option<TrafficSummary>,
}

/// Runs Algorithm 2 with the given learning policy on a network.
///
/// Equivalent to [`run_policy_observed`] with no observers registered —
/// the steady-state loop is identical (no clocks, no record emission).
///
/// # Panics
///
/// Panics if `cfg.horizon == 0` or `cfg.update_period == 0`.
pub fn run_policy(
    net: &Network,
    cfg: &Algorithm2Config,
    policy: &mut dyn IndexPolicy,
) -> RunResult {
    run_policy_observed(net, cfg, policy, &mut ObserverSet::new())
}

/// Runs Algorithm 2, streaming one [`RoundRecord`] per strategy decision
/// to the registered observers (see [`crate::experiment`]).
///
/// With an empty [`ObserverSet`] this adds no work to the steady-state
/// loop: the decide-phase clock and the record emission are skipped, so
/// the lossless path stays allocation-free (`tests/alloc_free.rs`).
///
/// # Panics
///
/// Panics if `cfg.horizon == 0` or `cfg.update_period == 0`.
pub fn run_policy_observed(
    net: &Network,
    cfg: &Algorithm2Config,
    policy: &mut dyn IndexPolicy,
    observers: &mut ObserverSet,
) -> RunResult {
    let mut runner = PolicyRunner::new(net, cfg, observers);
    while !runner.done() {
        runner.step_period(policy, observers);
    }
    runner.finish(policy)
}

/// Observer-only drift-oracle scratch: the exact offline optimum
/// (branch-and-bound MWIS, the same benchmark the paper's Fig. 7 regret
/// uses) on the channels' *instantaneous* means, recomputed only when the
/// mean vector changes.
struct OracleState {
    weights: Vec<f64>,
    prev_weights: Vec<f64>,
    allowed: Vec<usize>,
    cached_kbps: f64,
}

/// The Algorithm 2 round loop as a long-lived, resumable state machine.
///
/// One [`PolicyRunner::step_period`] call advances exactly one decision
/// period (WB phase, index computation, strategy decision, `y` data
/// slots, bookkeeping, observer emission). Between steps the runner is at
/// a period boundary, where its complete mutable state — round counter,
/// RNG stream position, shared arm statistics, regret history, result
/// series, communication counters, and the loss stream position — can be
/// captured with [`PolicyRunner::snapshot`] and later re-injected with
/// [`PolicyRunner::restore`] into a freshly built runner over the same
/// network/config. A restored run continues the original bit for bit:
/// the final [`RunResult`] is byte-identical to an uninterrupted run
/// (floats are checkpointed by bit pattern; see `mhca_bandit::state`).
///
/// The policy is *not* owned: callers pass it to each call so the same
/// trait object can serve snapshotting ([`IndexPolicy::snapshot_state`])
/// and session ownership in the service layer.
pub struct PolicyRunner<'n> {
    net: &'n Network,
    cfg: Algorithm2Config,
    scale: f64,
    beta: f64,
    y: u64,
    wb_ttl: usize,
    m_channels: usize,
    stats: ArmStats,
    ptas: DistributedPtas<'n>,
    rng: StdRng,
    means: Vec<f64>,
    tracker: Option<RegretTracker>,
    comm: CommTotals,
    per_vertex_tx: Vec<u64>,
    period_end_slots: Vec<u64>,
    avg_actual: Vec<f64>,
    avg_estimated: Vec<f64>,
    practical_regret: Vec<f64>,
    practical_beta_regret: Vec<f64>,
    sum_rp: f64,
    sum_wp: f64,
    n_periods: u64,
    observed_total: f64,
    expected_total: f64,
    effective_total: f64,
    wb_engine: FloodEngine<'n>,
    wb_floods: Vec<Flood<()>>,
    indices: Vec<f64>,
    outcome: DecisionOutcome,
    obs: Vec<(usize, f64)>,
    period_obs: Vec<f64>,
    prev_winners: Vec<usize>,
    observing: bool,
    tally_channels: bool,
    phase_timing: bool,
    chan_attempts: Vec<u64>,
    chan_captures: Vec<u64>,
    oracle: Option<OracleState>,
    /// Present iff the config carries a traffic spec — the queueing layer
    /// is gated exactly like the observer scratch, so the no-traffic
    /// path is untouched (byte-identical and allocation-free).
    queue: Option<QueueEngine>,
    t: u64,
}

impl<'n> PolicyRunner<'n> {
    /// Builds a runner at slot 0. `observers` is inspected (not stored)
    /// to decide which observer-only instrumentation the loop prices —
    /// pass the same set to every [`PolicyRunner::step_period`] call.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.horizon == 0`, `cfg.update_period == 0`, or the
    /// reward scale is not positive.
    pub fn new(net: &'n Network, cfg: &Algorithm2Config, observers: &ObserverSet) -> Self {
        assert!(cfg.horizon > 0, "horizon must be positive");
        assert!(cfg.update_period > 0, "update period must be positive");
        let k = net.n_vertices();
        let scale = cfg.reward_scale.unwrap_or(rates::MAX_RATE);
        assert!(scale > 0.0, "reward scale must be positive");
        let theta = cfg.time.theta();
        let alpha = cfg
            .alpha
            .unwrap_or_else(|| bounds::theorem2_rho(net.n_channels(), cfg.decision.r.max(1)));
        let beta = (theta * alpha).max(1.0);

        let stats = ArmStats::new(k);
        let mut ptas = DistributedPtas::new(net.h(), cfg.decision);
        let rng = StdRng::seed_from_u64(cfg.seed);
        let means = net.channels().means();
        let tracker = cfg
            .optimal_kbps
            .map(|r1| RegretTracker::new(r1, beta, theta));

        let y = cfg.update_period as u64;
        // Series lengths are known up front: one entry per period (and per
        // slot for the regret series) — reserve once so the steady-state
        // loop never reallocates them.
        let n_periods_total = cfg.horizon.div_ceil(y) as usize;
        let regret_len = if tracker.is_some() && cfg.update_period == 1 {
            cfg.horizon as usize
        } else {
            0
        };

        // ---- Long-lived engine and per-round scratch, hoisted out of the
        // loop: the steady-state round performs no heap allocation on the
        // lossless path (see `tests/alloc_free.rs`).
        let wb_ttl = cfg.decision.declaration_ttl();
        let mut wb_engine = FloodEngine::new(net.h().graph());
        // The decision engine already prewarmed the (2r+1)-hop table on
        // this graph; adopt it instead of building a second copy. The
        // prewarm is a no-op then, and a real build only when the ptas
        // runs lossy.
        wb_engine.adopt_tables(ptas.flood_engine());
        wb_engine.prewarm(wb_ttl);

        // ---- Observer-only scratch (all empty/skipped with no observers,
        // so the plain `run_policy` path is untouched): per-channel
        // capture tallies for the CaptureStats sink, and the drift oracle
        // for sinks that request it (WindowedRegret). Like
        // `Network::optimal`, the oracle is intended for Fig. 7-sized
        // instances (≲ 20 users × a few channels).
        let observing = !observers.is_empty();
        let tally_channels = observers.wants_channel_stats();
        // Per-phase wall clocks (WB / learn, plus the PTAS's internal
        // decide breakdown) are priced only when a sink asks: the extra
        // Instant reads are noise at large n but measurable in small-n
        // hot loops, and set_profile_phases adds stamps inside the decide
        // itself.
        let phase_timing = observers.wants_phase_timing();
        if phase_timing {
            ptas.set_profile_phases(true);
        }
        let m_channels = net.n_channels();
        let oracle = observers.wants_oracle().then(|| OracleState {
            weights: Vec::with_capacity(k),
            prev_weights: Vec::new(),
            allowed: (0..k).collect(),
            cached_kbps: 0.0,
        });
        let queue = cfg
            .traffic
            .as_ref()
            .map(|spec| QueueEngine::new(spec, net.g(), m_channels));

        PolicyRunner {
            net,
            cfg: cfg.clone(),
            scale,
            beta,
            y,
            wb_ttl,
            m_channels,
            stats,
            ptas,
            rng,
            means,
            tracker,
            comm: CommTotals::default(),
            per_vertex_tx: vec![0u64; k],
            period_end_slots: Vec::with_capacity(n_periods_total),
            avg_actual: Vec::with_capacity(n_periods_total),
            avg_estimated: Vec::with_capacity(n_periods_total),
            practical_regret: Vec::with_capacity(regret_len),
            practical_beta_regret: Vec::with_capacity(regret_len),
            sum_rp: 0.0,
            sum_wp: 0.0,
            n_periods: 0,
            observed_total: 0.0,
            expected_total: 0.0,
            effective_total: 0.0,
            wb_engine,
            wb_floods: Vec::new(),
            indices: Vec::with_capacity(k),
            outcome: DecisionOutcome::default(),
            obs: Vec::new(),
            period_obs: Vec::with_capacity(y.min(cfg.horizon) as usize),
            prev_winners: Vec::new(),
            observing,
            tally_channels,
            phase_timing,
            chan_attempts: vec![0u64; if tally_channels { m_channels } else { 0 }],
            chan_captures: vec![0u64; if tally_channels { m_channels } else { 0 }],
            oracle,
            queue,
            t: 0,
        }
    }

    /// `true` once the horizon is reached — [`PolicyRunner::step_period`]
    /// must not be called again and [`PolicyRunner::finish`] may be.
    pub fn done(&self) -> bool {
        self.t >= self.cfg.horizon
    }

    /// The next slot to simulate (equals the horizon when done). Between
    /// steps this is always a period boundary.
    pub fn slot(&self) -> u64 {
        self.t
    }

    /// The configured horizon in slots.
    pub fn horizon(&self) -> u64 {
        self.cfg.horizon
    }

    /// Decision periods completed so far.
    pub fn periods(&self) -> u64 {
        self.n_periods
    }

    /// Advances one decision period: WB phase, index computation, strategy
    /// decision, `y` data slots (fewer at the horizon tail), bookkeeping,
    /// and — when observers are registered — one [`RoundRecord`] emission.
    ///
    /// # Panics
    ///
    /// Panics if the run is already [`PolicyRunner::done`].
    pub fn step_period(&mut self, policy: &mut dyn IndexPolicy, observers: &mut ObserverSet) {
        assert!(self.t < self.cfg.horizon, "run already complete");
        let t = self.t;

        // ---- WB phase: previous transmitters broadcast updated stats.
        // The simulation models the learning state directly (the policy's
        // ArmStats are global), so only the broadcast's cost is needed —
        // counters advance without materializing inboxes.
        let wb_start = self.phase_timing.then(Instant::now);
        if !self.prev_winners.is_empty() {
            self.wb_floods.clear();
            let wb_ttl = self.wb_ttl;
            self.wb_floods
                .extend(self.prev_winners.iter().map(|&v| Flood {
                    origin: v,
                    ttl: wb_ttl,
                    payload: (),
                }));
            self.wb_engine.broadcast_only(&self.wb_floods);
        }
        let wb_ns = wb_start.map_or(0, |s| s.elapsed().as_nanos() as u64);

        // ---- Strategy decision with the policy's current indices.
        policy.indices_into(t + 1, &self.stats, &mut self.rng, &mut self.indices);
        let decide_start = self.observing.then(Instant::now);
        self.ptas.decide_into(&self.indices, &mut self.outcome);
        let decide_ns = decide_start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        self.comm.transmissions += self.outcome.counters.transmissions;
        self.comm.delivered += self.outcome.counters.delivered;
        self.comm.timeslots += self.outcome.counters.timeslots;
        self.comm.decisions += 1;
        for (v, &c) in self.outcome.counters.per_vertex_tx.iter().enumerate() {
            self.per_vertex_tx[v] += c;
        }
        let winners = &self.outcome.winners;
        let estimated_kbps: f64 =
            winners.iter().map(|&v| self.indices[v]).sum::<f64>() * self.scale;

        // ---- Data transmission for the whole period (y slots).
        let period_len = self.y.min(self.cfg.horizon - t);
        self.period_obs.clear();
        if let Some(q) = self.queue.as_mut() {
            q.begin_period();
        }
        if self.tally_channels {
            self.chan_attempts.fill(0);
            self.chan_captures.fill(0);
        }
        // The winners and their means are fixed for the period, so every
        // slot expects the same sum.
        let expected: f64 = winners.iter().map(|&v| self.means[v]).sum();
        let learn_start = self.phase_timing.then(Instant::now);
        for s in t..t + period_len {
            self.net.channels().observe_into(s, winners, &mut self.obs);
            let raw: f64 = self.obs.iter().map(|&(_, x)| x).sum();
            self.period_obs.push(raw);
            self.observed_total += raw;
            self.expected_total += expected;
            for &(v, x) in &self.obs {
                self.stats.update(v, x / self.scale);
                policy.observe(v, x / self.scale);
            }
            if self.tally_channels {
                // Per-channel capture bookkeeping, only when a sink
                // (CaptureStats) asked for it: vertex v transmits on
                // channel v % M; a positive observed rate is a capture,
                // zero is an outage.
                for &(v, x) in &self.obs {
                    let c = v % self.m_channels;
                    self.chan_attempts[c] += 1;
                    self.chan_captures[c] += u64::from(x > 0.0);
                }
            }
            if let Some(tr) = self.tracker.as_mut() {
                tr.record(expected, raw);
                if self.cfg.update_period == 1 {
                    self.practical_regret.push(tr.practical_regret());
                    self.practical_beta_regret.push(tr.practical_beta_regret());
                }
            }
            // Queueing layer: the slot's capture outcome is this slot's
            // service opportunity. Draws come from the dedicated arrival
            // stream, so the run RNG (and everything above) is untouched.
            if let Some(q) = self.queue.as_mut() {
                q.step_slot(s, &self.obs);
            }
        }
        let learn_ns = learn_start.map_or(0, |s| s.elapsed().as_nanos() as u64);

        // ---- Period bookkeeping (Section V-C identities).
        let rp = self.cfg.time.period_effective_throughput(&self.period_obs);
        let wp = self
            .cfg
            .time
            .period_effective_estimate(estimated_kbps, period_len as usize);
        self.effective_total += rp * period_len as f64;
        self.n_periods += 1;
        self.sum_rp += rp;
        self.sum_wp += wp;
        self.period_end_slots.push(t + period_len);
        self.avg_actual.push(self.sum_rp / self.n_periods as f64);
        self.avg_estimated.push(self.sum_wp / self.n_periods as f64);

        // ---- Stream the period to registered observers (skipped — and
        // allocation-free — when none are registered).
        if self.observing {
            // The drift oracle: the exact offline optimum per slot under
            // the channels' instantaneous true means at this period's
            // first slot, recomputed only when those means change (a
            // counterfactual — it never touches the run's communication
            // totals). Computed only when an observer asked for it.
            let oracle_kbps = match self.oracle.as_mut() {
                Some(st) => {
                    self.net.channels().means_at_into(t, &mut st.weights);
                    if st.weights != st.prev_weights {
                        st.cached_kbps = mhca_mwis::exact::solve_grouped(
                            self.net.h().graph(),
                            &st.weights,
                            &st.allowed,
                            self.net.node_groups(),
                        )
                        .weight;
                        st.prev_weights.clone_from(&st.weights);
                    }
                    st.cached_kbps
                }
                None => 0.0,
            };
            observers.emit(&RoundRecord {
                slot: t,
                period_len,
                decision: self.comm.decisions,
                winners,
                expected_kbps: expected,
                observed_kbps: self.period_obs.iter().sum(),
                estimated_kbps,
                decide_ns,
                wb_ns,
                learn_ns,
                decide_phase_ns: self.ptas.phase_ns(),
                decide_transmissions: self.outcome.counters.transmissions,
                decide_delivered: self.outcome.counters.delivered,
                decide_timeslots: self.outcome.counters.timeslots,
                decide_scanned: self.ptas.scan_stats().candidates_scanned,
                decide_fallback_floods: self.outcome.fallback_floods,
                per_vertex_tx: &self.outcome.counters.per_vertex_tx,
                n_channels: self.m_channels,
                channel_attempts: &self.chan_attempts,
                channel_captures: &self.chan_captures,
                oracle_kbps,
                traffic: self.queue.as_ref().map(|q| q.round()),
            });
        }

        self.prev_winners.clone_from(&self.outcome.winners);
        self.t += period_len;
    }

    /// Folds the WB engine's whole-run totals into the communication
    /// record and assembles the [`RunResult`].
    ///
    /// # Panics
    ///
    /// Panics unless the run is [`PolicyRunner::done`].
    pub fn finish(mut self, policy: &dyn IndexPolicy) -> RunResult {
        assert!(self.done(), "finish called before the horizon");
        let wb = self.wb_engine.counters();
        self.comm.transmissions += wb.transmissions;
        self.comm.delivered += wb.delivered;
        self.comm.timeslots += wb.timeslots;
        for (v, &c) in wb.per_vertex_tx.iter().enumerate() {
            self.per_vertex_tx[v] += c;
        }

        RunResult {
            policy: policy.name().to_string(),
            slots: self.cfg.horizon,
            period_end_slots: self.period_end_slots,
            avg_actual_throughput: self.avg_actual,
            avg_estimated_throughput: self.avg_estimated,
            practical_regret: self.practical_regret,
            practical_beta_regret: self.practical_beta_regret,
            final_strategy_vertices: self.prev_winners,
            per_vertex_tx: self.per_vertex_tx,
            average_observed_kbps: self.observed_total / self.cfg.horizon as f64,
            average_effective_kbps: self.effective_total / self.cfg.horizon as f64,
            average_expected_kbps: self.expected_total / self.cfg.horizon as f64,
            beta: self.beta,
            comm: self.comm,
            seed: self.cfg.seed,
            traffic: self.queue.as_ref().map(|q| q.summary()),
        }
    }

    /// Captures the runner's complete mutable state at the current period
    /// boundary, including the policy's own state
    /// ([`IndexPolicy::snapshot_state`], nested under `policy.`). A fresh
    /// runner over the same network/config/observer kinds that
    /// [`PolicyRunner::restore`]s this map continues the run
    /// bit-identically. Observer state is *not* included — the observer
    /// pipeline snapshots separately (`ObserverSet::snapshot_states`).
    pub fn snapshot(&self, policy: &dyn IndexPolicy) -> StateMap {
        let mut out = StateMap::new();
        out.put_u64("t", self.t);
        out.put_u64_vec("rng", self.rng.state().to_vec());
        out.put_f64_vec("stats.means", self.stats.means().to_vec());
        out.put_u64_vec("stats.counts", self.stats.counts().to_vec());
        let mut pol = StateMap::new();
        policy.snapshot_state(&mut pol);
        out.put_nested("policy", pol);
        if let Some(tr) = &self.tracker {
            let mut trs = StateMap::new();
            tr.snapshot_state(&mut trs);
            out.put_nested("tracker", trs);
        }
        out.put_u64_vec("period_end_slots", self.period_end_slots.clone());
        out.put_f64_vec("avg_actual", self.avg_actual.clone());
        out.put_f64_vec("avg_estimated", self.avg_estimated.clone());
        out.put_f64_vec("practical_regret", self.practical_regret.clone());
        out.put_f64_vec("practical_beta_regret", self.practical_beta_regret.clone());
        out.put_f64("sum_rp", self.sum_rp);
        out.put_f64("sum_wp", self.sum_wp);
        out.put_u64("n_periods", self.n_periods);
        out.put_f64("observed_total", self.observed_total);
        out.put_f64("expected_total", self.expected_total);
        out.put_f64("effective_total", self.effective_total);
        out.put_u64("comm.transmissions", self.comm.transmissions);
        out.put_u64("comm.delivered", self.comm.delivered);
        out.put_u64("comm.timeslots", self.comm.timeslots);
        out.put_u64("comm.decisions", self.comm.decisions);
        out.put_u64_vec("per_vertex_tx", self.per_vertex_tx.clone());
        out.put_u64_vec(
            "prev_winners",
            self.prev_winners
                .iter()
                .map(|&v| v as u64)
                .collect::<Vec<_>>(),
        );
        let wb = self.wb_engine.counters();
        out.put_u64("wb.transmissions", wb.transmissions);
        out.put_u64("wb.delivered", wb.delivered);
        out.put_u64("wb.timeslots", wb.timeslots);
        out.put_u64_vec("wb.per_vertex_tx", wb.per_vertex_tx.clone());
        out.put_u64("ptas.loss_flood", self.ptas.loss_flood_index());
        if let Some(q) = &self.queue {
            q.snapshot_into(&mut out, "traffic");
        }
        out
    }

    /// Re-injects a [`PolicyRunner::snapshot`] into a freshly constructed
    /// runner (same network, config, and observer kinds) and its freshly
    /// built policy. Validates lengths and ranges; on error the runner
    /// must be discarded (it may be partially restored).
    pub fn restore(
        &mut self,
        policy: &mut dyn IndexPolicy,
        state: &StateMap,
    ) -> Result<(), StateError> {
        let k = self.net.n_vertices();
        let t = state.get_u64("t")?;
        if t > self.cfg.horizon {
            return Err(StateError::invalid("t", "slot beyond the horizon"));
        }
        let rng = state.get_u64_vec_exact("rng", 4)?;
        if rng.iter().all(|&w| w == 0) {
            return Err(StateError::invalid("rng", "all-zero generator state"));
        }
        self.rng = StdRng::from_state([rng[0], rng[1], rng[2], rng[3]]);
        self.t = t;
        self.stats = ArmStats::from_parts(
            state.get_f64_vec_exact("stats.means", k)?,
            state.get_u64_vec_exact("stats.counts", k)?,
        );
        policy.restore_state(&state.extract_nested("policy"))?;
        if let Some(tr) = self.tracker.as_mut() {
            tr.restore_state(&state.extract_nested("tracker"))?;
        }
        self.n_periods = state.get_u64("n_periods")?;
        let periods = usize::try_from(self.n_periods)
            .map_err(|_| StateError::invalid("n_periods", "period count overflows usize"))?;
        // Refill the preallocated series in place so the reserved
        // capacities from construction survive the restore.
        self.period_end_slots.clear();
        self.period_end_slots
            .extend_from_slice(state.get_u64_slice("period_end_slots")?);
        self.avg_actual.clear();
        self.avg_actual
            .extend_from_slice(state.get_f64_slice("avg_actual")?);
        self.avg_estimated.clear();
        self.avg_estimated
            .extend_from_slice(state.get_f64_slice("avg_estimated")?);
        if self.period_end_slots.len() != periods
            || self.avg_actual.len() != periods
            || self.avg_estimated.len() != periods
        {
            return Err(StateError::invalid(
                "period_end_slots",
                "series length disagrees with n_periods",
            ));
        }
        let regret_len = if self.tracker.is_some() && self.cfg.update_period == 1 {
            t as usize
        } else {
            0
        };
        self.practical_regret.clear();
        self.practical_regret.extend_from_slice(
            state
                .get_f64_vec_exact("practical_regret", regret_len)?
                .as_slice(),
        );
        self.practical_beta_regret.clear();
        self.practical_beta_regret.extend_from_slice(
            state
                .get_f64_vec_exact("practical_beta_regret", regret_len)?
                .as_slice(),
        );
        self.sum_rp = state.get_f64("sum_rp")?;
        self.sum_wp = state.get_f64("sum_wp")?;
        self.observed_total = state.get_f64("observed_total")?;
        self.expected_total = state.get_f64("expected_total")?;
        self.effective_total = state.get_f64("effective_total")?;
        self.comm = CommTotals {
            transmissions: state.get_u64("comm.transmissions")?,
            delivered: state.get_u64("comm.delivered")?,
            timeslots: state.get_u64("comm.timeslots")?,
            decisions: state.get_u64("comm.decisions")?,
        };
        self.per_vertex_tx = state.get_u64_vec_exact("per_vertex_tx", k)?;
        self.prev_winners.clear();
        for &v in state.get_u64_slice("prev_winners")? {
            let v = usize::try_from(v)
                .ok()
                .filter(|&v| v < k)
                .ok_or_else(|| StateError::invalid("prev_winners", "vertex out of range"))?;
            self.prev_winners.push(v);
        }
        let mut wb = Counters::new(k);
        wb.transmissions = state.get_u64("wb.transmissions")?;
        wb.delivered = state.get_u64("wb.delivered")?;
        wb.timeslots = state.get_u64("wb.timeslots")?;
        wb.per_vertex_tx = state.get_u64_vec_exact("wb.per_vertex_tx", k)?;
        self.wb_engine.restore_counters(&wb);
        self.ptas
            .set_loss_flood_index(state.get_u64("ptas.loss_flood")?);
        if let Some(q) = self.queue.as_mut() {
            q.restore_from(state, "traffic")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_bandit::policies::{CsUcb, Llr, Oracle, Random};

    fn small_net() -> Network {
        Network::random(6, 3, 2.5, 0.1, 11)
    }

    #[test]
    fn run_produces_consistent_lengths() {
        let net = small_net();
        let cfg = Algorithm2Config::default().with_horizon(40);
        let res = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        assert_eq!(res.slots, 40);
        assert_eq!(res.period_end_slots.len(), 40); // y = 1
        assert_eq!(res.avg_actual_throughput.len(), 40);
        assert_eq!(res.avg_estimated_throughput.len(), 40);
        assert!(res.comm.decisions == 40);
    }

    #[test]
    fn periodic_updates_decide_less_often() {
        let net = small_net();
        let cfg = Algorithm2Config::default()
            .with_horizon(40)
            .with_update_period(10);
        let res = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        assert_eq!(res.comm.decisions, 4);
        assert_eq!(res.period_end_slots, vec![10, 20, 30, 40]);
    }

    #[test]
    fn oracle_achieves_near_optimal_expected_throughput() {
        let net = small_net();
        let opt = net.optimal();
        let cfg = Algorithm2Config::default().with_horizon(30);
        let mut oracle = Oracle::new(net.channels().means());
        let res = run_policy(&net, &cfg, &mut oracle);
        // The distributed PTAS may lose a little vs the exact optimum, but
        // with true means it should be close on this tiny instance.
        assert!(
            res.average_expected_kbps >= 0.8 * opt.weight,
            "oracle expected {} vs optimal {}",
            res.average_expected_kbps,
            opt.weight
        );
    }

    #[test]
    fn learning_beats_random() {
        let net = small_net();
        let cfg = Algorithm2Config::default().with_horizon(300);
        let learned = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        let random = run_policy(&net, &cfg, &mut Random);
        assert!(
            learned.average_expected_kbps > random.average_expected_kbps,
            "cs-ucb {} vs random {}",
            learned.average_expected_kbps,
            random.average_expected_kbps
        );
    }

    #[test]
    fn regret_series_only_with_optimum() {
        let net = small_net();
        let cfg = Algorithm2Config::default().with_horizon(20);
        let res = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        assert!(res.practical_regret.is_empty());

        let opt = net.optimal().weight;
        let cfg = cfg.with_optimal_kbps(opt);
        let res = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        assert_eq!(res.practical_regret.len(), 20);
        // Practical regret is bounded below by R1·(1 − θ·max/opt); just
        // check it is finite and decreasing-ish over the run.
        assert!(res.practical_regret.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let net = small_net();
        let cfg = Algorithm2Config::default().with_horizon(25).with_seed(3);
        let a = run_policy(&net, &cfg, &mut Llr::new(net.n_nodes(), 2.0));
        let b = run_policy(&net, &cfg, &mut Llr::new(net.n_nodes(), 2.0));
        assert_eq!(a, b);
    }

    #[test]
    fn longer_periods_raise_effective_throughput_late() {
        // With stale weights the fraction of airtime spent deciding drops:
        // y=10 must beat y=1 in effective throughput for the same policy
        // once learning has mostly settled.
        let net = small_net();
        let base = Algorithm2Config::default().with_horizon(400);
        let frequent = run_policy(&net, &base.clone(), &mut CsUcb::new(2.0));
        let stale = run_policy(&net, &base.with_update_period(10), &mut CsUcb::new(2.0));
        assert!(
            stale.average_effective_kbps > frequent.average_effective_kbps,
            "stale {} vs frequent {}",
            stale.average_effective_kbps,
            frequent.average_effective_kbps
        );
    }

    #[test]
    fn per_vertex_tx_survives_the_whole_run() {
        // Regression: the WB-phase engine used to be rebuilt every round,
        // so per-vertex transmission counts were discarded each slot and
        // only scalar totals survived.
        let net = small_net();
        let cfg = Algorithm2Config::default().with_horizon(50);
        let res = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        assert_eq!(res.per_vertex_tx.len(), net.n_vertices());
        let sum: u64 = res.per_vertex_tx.iter().sum();
        // Every relay broadcast is charged to exactly one vertex.
        assert_eq!(sum, res.comm.transmissions);
        assert!(sum > 0, "a 50-slot run must transmit");
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_rejected() {
        let net = small_net();
        let cfg = Algorithm2Config::default().with_horizon(0);
        let _ = run_policy(&net, &cfg, &mut Random);
    }

    #[test]
    fn stepwise_runner_matches_batch_entry_point() {
        let net = small_net();
        let cfg = Algorithm2Config::default().with_horizon(60).with_seed(5);
        let batch = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        let mut observers = ObserverSet::new();
        let mut policy = CsUcb::new(2.0);
        let mut runner = PolicyRunner::new(&net, &cfg, &observers);
        let mut steps = 0;
        while !runner.done() {
            runner.step_period(&mut policy, &mut observers);
            steps += 1;
        }
        assert_eq!(steps, 60);
        assert_eq!(runner.finish(&policy), batch);
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let net = small_net();
        let opt = net.optimal().weight;
        let cfg = Algorithm2Config::default()
            .with_horizon(50)
            .with_seed(9)
            .with_optimal_kbps(opt);
        let uninterrupted = run_policy(&net, &cfg, &mut CsUcb::new(2.0));

        // Run 20 periods, snapshot, throw the runner away, restore into a
        // fresh one, and finish.
        let observers = ObserverSet::new();
        let mut policy = CsUcb::new(2.0);
        let mut first = PolicyRunner::new(&net, &cfg, &observers);
        let mut obs = ObserverSet::new();
        for _ in 0..20 {
            first.step_period(&mut policy, &mut obs);
        }
        let snap = first.snapshot(&policy);
        drop(first);

        let mut policy2 = CsUcb::new(2.0);
        let mut second = PolicyRunner::new(&net, &cfg, &observers);
        second.restore(&mut policy2, &snap).unwrap();
        assert_eq!(second.slot(), 20);
        let mut obs = ObserverSet::new();
        while !second.done() {
            second.step_period(&mut policy2, &mut obs);
        }
        assert_eq!(second.finish(&policy2), uninterrupted);
    }

    fn line_net(n: usize) -> Network {
        Network::from_spec(
            n,
            2,
            &mhca_graph::TopologySpec::Line,
            &mhca_channels::ChannelModelSpec::default(),
            4,
        )
    }

    fn line_traffic() -> TrafficSpec {
        crate::traffic::TrafficSpec::poisson(
            0.4,
            vec![crate::traffic::FlowSpec {
                src: 0,
                dst: 3,
                deadline: Some(30),
            }],
        )
    }

    #[test]
    fn traffic_leaves_the_untraced_run_byte_identical() {
        // Satellite pin: the arrival stream is dedicated and the queue
        // step reads (never writes) the capture outcome, so enabling
        // traffic must leave every pre-existing RunResult field — series,
        // regret, comm counters, RNG-driven decisions — byte-identical.
        let net = line_net(6);
        let cfg = Algorithm2Config::default().with_horizon(120).with_seed(7);
        let plain = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        assert!(plain.traffic.is_none());

        let cfg_t = cfg.clone().with_traffic(line_traffic());
        let with = run_policy(&net, &cfg_t, &mut CsUcb::new(2.0));
        let summary = with.traffic.clone().expect("traffic config must summarize");
        assert!(summary.arrivals > 0, "a 120-slot Poisson run must arrive");
        assert!(summary.delivered > 0, "line flow must deliver");
        assert_eq!(
            summary.arrivals - summary.delivered,
            summary.backlog,
            "Lindley conservation at the horizon"
        );

        let mut stripped = with.clone();
        stripped.traffic = None;
        assert_eq!(stripped, plain, "traffic perturbed the base run");
    }

    #[test]
    fn snapshot_restore_with_traffic_continues_bit_identically() {
        // Checkpoint/resume must round-trip the queue state: packets in
        // flight, fractional credits, and per-flow totals.
        let net = line_net(6);
        let cfg = Algorithm2Config::default()
            .with_horizon(80)
            .with_seed(3)
            .with_traffic(line_traffic());
        let uninterrupted = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        assert!(uninterrupted.traffic.as_ref().unwrap().delivered > 0);

        let observers = ObserverSet::new();
        let mut policy = CsUcb::new(2.0);
        let mut first = PolicyRunner::new(&net, &cfg, &observers);
        let mut obs = ObserverSet::new();
        for _ in 0..37 {
            first.step_period(&mut policy, &mut obs);
        }
        let snap = first.snapshot(&policy);
        drop(first);

        let mut policy2 = CsUcb::new(2.0);
        let mut second = PolicyRunner::new(&net, &cfg, &observers);
        second.restore(&mut policy2, &snap).unwrap();
        let mut obs = ObserverSet::new();
        while !second.done() {
            second.step_period(&mut policy2, &mut obs);
        }
        assert_eq!(second.finish(&policy2), uninterrupted);

        // A snapshot without traffic keys must not restore into a
        // traffic-configured runner.
        let plain_cfg = Algorithm2Config::default().with_horizon(80).with_seed(3);
        let mut plain_policy = CsUcb::new(2.0);
        let mut plain = PolicyRunner::new(&net, &plain_cfg, &observers);
        let mut obs = ObserverSet::new();
        plain.step_period(&mut plain_policy, &mut obs);
        let plain_snap = plain.snapshot(&plain_policy);
        let mut fresh = PolicyRunner::new(&net, &cfg, &observers);
        assert!(fresh.restore(&mut policy2, &plain_snap).is_err());
    }

    #[test]
    fn restore_rejects_a_packet_of_an_unknown_flow() {
        // A tampered checkpoint must fail at restore, not panic in the
        // next step_period when the packet's flow indexes the path table.
        let net = line_net(6);
        let cfg = Algorithm2Config::default()
            .with_horizon(80)
            .with_seed(3)
            .with_traffic(line_traffic());
        let observers = ObserverSet::new();
        let mut obs = ObserverSet::new();
        let mut policy = CsUcb::new(2.0);
        let mut runner = PolicyRunner::new(&net, &cfg, &observers);
        // Checkpoint at the first period boundary with packets in flight.
        let (good, in_flight) = loop {
            assert!(!runner.done(), "no period boundary had packets in flight");
            runner.step_period(&mut policy, &mut obs);
            let snap = runner.snapshot(&policy);
            let in_flight = snap.get_u64_slice("traffic.pkt_flow").unwrap().len();
            if in_flight > 0 {
                break (snap, in_flight);
            }
        };

        let mut bad = StateMap::new();
        for (k, v) in good.iter() {
            if k == "traffic.pkt_flow" {
                bad.put_u64_vec(k, vec![7; in_flight]);
            } else {
                bad.put(k.to_string(), v.clone());
            }
        }
        let mut policy2 = CsUcb::new(2.0);
        let mut fresh = PolicyRunner::new(&net, &cfg, &observers);
        let err = fresh.restore(&mut policy2, &bad).unwrap_err();
        assert_eq!(err.key, "traffic.pkt_flow", "{err}");
    }

    #[test]
    fn snapshot_with_the_retired_fallback_key_still_restores() {
        // Snapshots written before the flood engine lost its BFS fallback
        // also carry `wb.fallback_floods`; restore ignores the key.
        let net = small_net();
        let cfg = Algorithm2Config::default().with_horizon(30).with_seed(4);
        let uninterrupted = run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        let observers = ObserverSet::new();
        let mut obs = ObserverSet::new();
        let mut policy = CsUcb::new(2.0);
        let mut first = PolicyRunner::new(&net, &cfg, &observers);
        for _ in 0..10 {
            first.step_period(&mut policy, &mut obs);
        }
        let mut legacy = first.snapshot(&policy);
        legacy.put_u64("wb.fallback_floods", 0);

        let mut policy2 = CsUcb::new(2.0);
        let mut second = PolicyRunner::new(&net, &cfg, &observers);
        second.restore(&mut policy2, &legacy).unwrap();
        while !second.done() {
            second.step_period(&mut policy2, &mut obs);
        }
        assert_eq!(second.finish(&policy2), uninterrupted);
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let net = small_net();
        let cfg = Algorithm2Config::default().with_horizon(10);
        let observers = ObserverSet::new();
        let mut policy = CsUcb::new(2.0);
        let mut runner = PolicyRunner::new(&net, &cfg, &observers);
        let mut obs = ObserverSet::new();
        runner.step_period(&mut policy, &mut obs);
        let good = runner.snapshot(&policy);

        let mut fresh = PolicyRunner::new(&net, &cfg, &observers);
        assert!(fresh.restore(&mut policy, &StateMap::new()).is_err());

        // Tamper: t beyond the horizon.
        let mut bad = StateMap::new();
        for (k, v) in good.iter() {
            if k == "t" {
                bad.put_u64("t", 99);
            } else {
                bad.put(k.to_string(), v.clone());
            }
        }
        let mut fresh = PolicyRunner::new(&net, &cfg, &observers);
        assert!(fresh.restore(&mut policy, &bad).is_err());
    }
}
