//! The traced job: the Algorithm 2 round loop driven from outside through
//! the same public calls `PolicyRunner::step_period` makes, in the same
//! order, with a span around each call. The loop reproduces the runner's
//! `RunResult` exactly (the output gate compares the digests), so the
//! spans time the program's real work, not a lookalike.
//!
//! Spans are kept in memory (capacity reserved before the first period,
//! so recording never allocates inside a period) and written out when
//! the run ends.

use crate::alloc;
use crate::workload::{job_config, job_digest, job_rows, observers, policy_run};
use mhca_bandit::{bounds, ArmStats};
use mhca_campaign::ScenarioSpec;
use mhca_channels::rates;
use mhca_core::runner::CommTotals;
use mhca_core::{DecisionOutcome, DistributedPtas, Network, QueueEngine, RoundRecord, RunResult};
use mhca_sim::{Flood, FloodEngine};
use rand::{rngs::StdRng, SeedableRng};
use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// A traced call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole job, set-up to `RunResult`.
    Job,
    /// `TopologySpec::build`.
    Topology,
    /// `ChannelModelSpec::build`.
    Channels,
    /// `Network::from_parts` (builds `H`).
    FromParts,
    /// `PolicySpec::build`.
    PolicyBuild,
    /// `DistributedPtas::new` (ball tables, flood-table prewarm, stripes).
    DistributedNew,
    /// WB engine: `FloodEngine::new` + `adopt_tables` + `prewarm(2r+1)`.
    WbSetup,
    /// `QueueEngine::new`.
    QueueNew,
    /// One decision period (container of the per-period spans).
    Period,
    /// WB phase: `FloodEngine::broadcast_only`.
    Wb,
    /// `IndexPolicy::indices_into`.
    Indices,
    /// `DistributedPtas::decide_into`.
    Decide,
    /// `ChannelMatrix::observe_into` (one slot).
    Observe,
    /// `ArmStats::update` + `IndexPolicy::observe` (one slot).
    Update,
    /// `QueueEngine::step_slot` (one slot).
    QueueStep,
    /// `ObserverSet::emit`.
    Emit,
    /// Folding the WB counters into the `RunResult`.
    Finish,
    /// `decide_into` on the `partitions: 1` twin (outside the period).
    TwinDecide,
}

impl Layer {
    /// Every layer, in discriminant order.
    pub const ALL: [Layer; 18] = [
        Layer::Job,
        Layer::Topology,
        Layer::Channels,
        Layer::FromParts,
        Layer::PolicyBuild,
        Layer::DistributedNew,
        Layer::WbSetup,
        Layer::QueueNew,
        Layer::Period,
        Layer::Wb,
        Layer::Indices,
        Layer::Decide,
        Layer::Observe,
        Layer::Update,
        Layer::QueueStep,
        Layer::Emit,
        Layer::Finish,
        Layer::TwinDecide,
    ];
    /// Number of layers.
    pub const COUNT: usize = Layer::ALL.len();

    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Job => "job",
            Layer::Topology => "graph.topology",
            Layer::Channels => "channels.build",
            Layer::FromParts => "network.from_parts",
            Layer::PolicyBuild => "policy.build",
            Layer::DistributedNew => "distributed.new",
            Layer::WbSetup => "sim.wb_setup",
            Layer::QueueNew => "traffic.new",
            Layer::Period => "runner.period",
            Layer::Wb => "sim.wb_flood",
            Layer::Indices => "bandit.indices",
            Layer::Decide => "distributed.decide",
            Layer::Observe => "channels.observe",
            Layer::Update => "bandit.update",
            Layer::QueueStep => "traffic.step",
            Layer::Emit => "experiment.emit",
            Layer::Finish => "runner.finish",
            Layer::TwinDecide => "distributed.decide_serial",
        }
    }

    /// `true` for spans that are timed children of the job: every span
    /// except the job, the period containers, and the twin (which runs
    /// outside the job's wall time).
    pub fn is_leaf(self) -> bool {
        !matches!(self, Layer::Job | Layer::Period | Layer::TwinDecide)
    }
}

/// One recorded span: nanoseconds since the tracer's epoch, and the
/// index of the span that caused it (`u32::MAX` for roots).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call site.
    pub layer: Layer,
    /// Parent span index.
    pub parent: u32,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

const ROOT: u32 = u32::MAX;

impl Tracer {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, layer: Layer, parent: u32, start: u64) -> u32 {
        let end = self.now();
        self.spans.push(Span {
            layer,
            parent,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }

    fn timed<T>(&mut self, layer: Layer, parent: u32, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.push(layer, parent, start);
        out
    }

    /// The spans recorded since the last [`Tracer::clear`].
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops the recorded spans, keeping their storage.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Tab-separated rendering: `index parent layer start_ns end_ns`.
    pub fn render(&self, job: &str) -> String {
        let mut out = String::from("# job\tindex\tparent\tspan\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{job}\t{i}\t{parent}\t{}\t{}\t{}",
                s.layer.name(),
                s.start,
                s.end
            );
        }
        out
    }
}

/// Decision counters summed over a traced job.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecideCounts {
    /// Decisions made.
    pub decisions: u64,
    /// `scan_stats().candidates_scanned`, summed.
    pub candidates_scanned: u64,
    /// `scan_stats().fast_skips`, summed.
    pub fast_skips: u64,
    /// Mini-rounds executed, summed.
    pub minirounds: u64,
    /// Decide relay broadcasts, summed.
    pub transmissions: u64,
    /// Decide copies delivered, summed.
    pub delivered: u64,
    /// Decide pipelined mini-timeslots, summed.
    pub timeslots: u64,
    /// Floods served by the BFS fallback, summed.
    pub fallback_floods: u64,
    /// Adjacent winner pairs, summed (0 unless loss corrupted a decision).
    pub conflicts: u64,
}

impl DecideCounts {
    /// Adds another job's counters.
    pub fn add(&mut self, o: &DecideCounts) {
        self.decisions += o.decisions;
        self.candidates_scanned += o.candidates_scanned;
        self.fast_skips += o.fast_skips;
        self.minirounds += o.minirounds;
        self.transmissions += o.transmissions;
        self.delivered += o.delivered;
        self.timeslots += o.timeslots;
        self.fallback_floods += o.fallback_floods;
        self.conflicts += o.conflicts;
    }
}

/// What one traced job produced.
pub struct TracedJob {
    /// The reproduced `RunResult`.
    pub result: RunResult,
    /// Metric rows as the campaign records them.
    pub rows: Vec<(String, f64)>,
    /// Output digest, comparable with the untraced job's.
    pub digest: u64,
    /// Job wall time in ns (set-up to `RunResult`, twin excluded).
    pub wall_ns: u64,
    /// Allocations made inside each period.
    pub allocs_per_period: Vec<u64>,
    /// Decision counters.
    pub decide: DecideCounts,
    /// `H` ball-table entries the decider's flood engine holds.
    pub table_entries: u64,
    /// Halo entries of the decide tiling (0 when untiled).
    pub halo_entries: u64,
    /// Periods whose twin outcome differed from the tiled outcome.
    pub twin_mismatches: u64,
}

/// Runs one job of `spec` at `seed` through the traced loop, recording
/// spans into `tracer` (which is cleared first). With `twin` set, every
/// decision is repeated on a `partitions: 1` decider with the same
/// weights, timed as [`Layer::TwinDecide`] outside the period.
pub fn run_traced(spec: &ScenarioSpec, seed: u64, twin: bool, tracer: &mut Tracer) -> TracedJob {
    let cfg = policy_run(spec);
    let acfg = job_config(cfg, seed);
    assert!(
        acfg.optimal_kbps.is_none(),
        "the traced loop mirrors runs without a regret tracker"
    );
    let cell = Rc::new(Cell::new(0));
    let mut obs = observers(spec, &cell);
    assert!(
        !obs.wants_oracle() && !obs.wants_channel_stats(),
        "the traced loop mirrors observers without oracle or channel tallies"
    );
    let horizon = acfg.horizon;
    let y = acfg.update_period as u64;
    let n_periods = horizon.div_ceil(y) as usize;
    let per_slot = 2 + usize::from(acfg.traffic.is_some());
    tracer.clear();
    tracer
        .spans
        .reserve(16 + n_periods * (7 + usize::from(twin)) + horizon as usize * per_slot);
    let mut allocs_per_period = Vec::with_capacity(n_periods);

    // ---- Set-up: Network::from_spec, the policy, and PolicyRunner::new,
    // call by call.
    let job_start = tracer.now();
    let (g, layout) = tracer.timed(Layer::Topology, ROOT, || cfg.topology.build(cfg.n, seed));
    let channels = tracer.timed(Layer::Channels, ROOT, || {
        cfg.channel.build(cfg.n, cfg.m, seed)
    });
    let net = tracer.timed(Layer::FromParts, ROOT, || {
        Network::from_parts(g, channels, layout)
    });
    let mut policy = tracer.timed(Layer::PolicyBuild, ROOT, || cfg.policy.build(&net));
    let k = net.n_vertices();
    let scale = acfg.reward_scale.unwrap_or(rates::MAX_RATE);
    let theta = acfg.time.theta();
    let alpha = acfg
        .alpha
        .unwrap_or_else(|| bounds::theorem2_rho(net.n_channels(), acfg.decision.r.max(1)));
    let beta = (theta * alpha).max(1.0);
    let mut stats = ArmStats::new(k);
    let mut ptas = tracer.timed(Layer::DistributedNew, ROOT, || {
        DistributedPtas::new(net.h(), acfg.decision)
    });
    let mut rng = StdRng::seed_from_u64(acfg.seed);
    let means = net.channels().means();
    let wb_ttl = 2 * acfg.decision.r + 1;
    let mut wb_engine = tracer.timed(Layer::WbSetup, ROOT, || {
        let mut e = FloodEngine::new(net.h().graph());
        e.adopt_tables(ptas.flood_engine());
        e.prewarm(wb_ttl);
        e
    });
    if obs.wants_phase_timing() {
        ptas.set_profile_phases(true);
    }
    let m_channels = net.n_channels();
    let mut queue = acfg.traffic.as_ref().map(|spec| {
        tracer.timed(Layer::QueueNew, ROOT, || {
            QueueEngine::new(spec, net.g(), m_channels)
        })
    });
    // The twin is built and run outside the job's wall time.
    let twin_start = tracer.now();
    let mut twin_ptas = twin.then(|| {
        let dcfg = acfg.decision.with_partitions(1);
        (
            DistributedPtas::new(net.h(), dcfg),
            DecisionOutcome::default(),
        )
    });
    let mut twin_ns = tracer.now() - twin_start;
    let table_entries = ptas.flood_engine().cached_table_entries() as u64;
    let halo_entries = ptas.partition().map_or(0, |p| p.halo_entries() as u64);

    let mut comm = CommTotals::default();
    let mut per_vertex_tx = vec![0u64; k];
    let mut period_end_slots = Vec::with_capacity(n_periods);
    let mut avg_actual = Vec::with_capacity(n_periods);
    let mut avg_estimated = Vec::with_capacity(n_periods);
    let (mut sum_rp, mut sum_wp, mut n_periods_done) = (0.0, 0.0, 0u64);
    let (mut observed_total, mut expected_total, mut effective_total) = (0.0, 0.0, 0.0);
    let mut wb_floods: Vec<Flood<()>> = Vec::new();
    let mut indices = Vec::with_capacity(k);
    let mut outcome = DecisionOutcome::default();
    let mut obs_buf: Vec<(usize, f64)> = Vec::new();
    let mut period_obs = Vec::with_capacity(y.min(horizon) as usize);
    let mut prev_winners: Vec<usize> = Vec::new();
    let mut decide = DecideCounts::default();
    let mut twin_mismatches = 0;

    // ---- The round loop, one period per iteration.
    let mut t = 0;
    while t < horizon {
        let allocs_before = alloc::allocations();
        let period_start = tracer.now();
        let period = tracer.spans.len() as u32;
        // The period span is written when the period ends; its children
        // name the slot it will occupy.
        tracer.spans.push(Span {
            layer: Layer::Period,
            parent: ROOT,
            start: period_start,
            end: period_start,
        });

        let wb_start = tracer.now();
        if !prev_winners.is_empty() {
            wb_floods.clear();
            wb_floods.extend(prev_winners.iter().map(|&v| Flood {
                origin: v,
                ttl: wb_ttl,
                payload: (),
            }));
            wb_engine.broadcast_only(&wb_floods);
        }
        tracer.push(Layer::Wb, period, wb_start);

        tracer.timed(Layer::Indices, period, || {
            policy.indices_into(t + 1, &stats, &mut rng, &mut indices)
        });
        let decide_start = tracer.now();
        ptas.decide_into(&indices, &mut outcome);
        let decide_span = tracer.push(Layer::Decide, period, decide_start);
        let decide_ns = tracer.spans[decide_span as usize].ns();
        comm.transmissions += outcome.counters.transmissions;
        comm.delivered += outcome.counters.delivered;
        comm.timeslots += outcome.counters.timeslots;
        comm.decisions += 1;
        for (v, &c) in outcome.counters.per_vertex_tx.iter().enumerate() {
            per_vertex_tx[v] += c;
        }
        let scan = ptas.scan_stats();
        decide.decisions += 1;
        decide.candidates_scanned += scan.candidates_scanned;
        decide.fast_skips += scan.fast_skips;
        decide.minirounds += outcome.minirounds_used as u64;
        decide.transmissions += outcome.counters.transmissions;
        decide.delivered += outcome.counters.delivered;
        decide.timeslots += outcome.counters.timeslots;
        decide.fallback_floods += outcome.fallback_floods;
        decide.conflicts += outcome.conflicts as u64;
        let winners = &outcome.winners;
        let estimated_kbps: f64 = winners.iter().map(|&v| indices[v]).sum::<f64>() * scale;

        let period_len = y.min(horizon - t);
        period_obs.clear();
        if let Some(q) = queue.as_mut() {
            q.begin_period();
        }
        let mut period_expected = 0.0;
        for s in t..t + period_len {
            tracer.timed(Layer::Observe, period, || {
                net.channels().observe_into(s, winners, &mut obs_buf)
            });
            let raw: f64 = obs_buf.iter().map(|&(_, x)| x).sum();
            period_obs.push(raw);
            observed_total += raw;
            let expected: f64 = winners.iter().map(|&v| means[v]).sum();
            expected_total += expected;
            period_expected = expected;
            tracer.timed(Layer::Update, period, || {
                for &(v, x) in &obs_buf {
                    stats.update(v, x / scale);
                    policy.observe(v, x / scale);
                }
            });
            if let Some(q) = queue.as_mut() {
                tracer.timed(Layer::QueueStep, period, || q.step_slot(s, &obs_buf));
            }
        }

        let rp = acfg.time.period_effective_throughput(&period_obs);
        let wp = acfg
            .time
            .period_effective_estimate(estimated_kbps, period_len as usize);
        effective_total += rp * period_len as f64;
        n_periods_done += 1;
        sum_rp += rp;
        sum_wp += wp;
        period_end_slots.push(t + period_len);
        avg_actual.push(sum_rp / n_periods_done as f64);
        avg_estimated.push(sum_wp / n_periods_done as f64);

        let emit_start = tracer.now();
        obs.emit(&RoundRecord {
            slot: t,
            period_len,
            decision: comm.decisions,
            winners,
            expected_kbps: period_expected,
            observed_kbps: period_obs.iter().sum(),
            estimated_kbps,
            decide_ns,
            wb_ns: 0,
            learn_ns: 0,
            decide_phase_ns: ptas.phase_ns(),
            decide_transmissions: outcome.counters.transmissions,
            decide_delivered: outcome.counters.delivered,
            decide_timeslots: outcome.counters.timeslots,
            decide_scanned: scan.candidates_scanned,
            decide_fallback_floods: outcome.fallback_floods,
            per_vertex_tx: &outcome.counters.per_vertex_tx,
            n_channels: m_channels,
            channel_attempts: &[],
            channel_captures: &[],
            oracle_kbps: 0.0,
            traffic: queue.as_ref().map(|q| q.round()),
        });
        tracer.push(Layer::Emit, period, emit_start);

        prev_winners.clone_from(&outcome.winners);
        t += period_len;
        allocs_per_period.push(alloc::allocations() - allocs_before);
        tracer.spans[period as usize].end = tracer.now();

        if let Some((tw, tw_out)) = twin_ptas.as_mut() {
            let start = tracer.now();
            tw.decide_into(&indices, tw_out);
            let span = tracer.push(Layer::TwinDecide, ROOT, start);
            twin_ns += tracer.spans[span as usize].ns();
            twin_mismatches += u64::from(*tw_out != outcome);
        }
    }

    // ---- PolicyRunner::finish.
    let result = tracer.timed(Layer::Finish, ROOT, || {
        let wb = wb_engine.counters();
        comm.transmissions += wb.transmissions;
        comm.delivered += wb.delivered;
        comm.timeslots += wb.timeslots;
        for (v, &c) in wb.per_vertex_tx.iter().enumerate() {
            per_vertex_tx[v] += c;
        }
        RunResult {
            policy: policy.name().to_string(),
            slots: horizon,
            period_end_slots,
            avg_actual_throughput: avg_actual,
            avg_estimated_throughput: avg_estimated,
            practical_regret: Vec::new(),
            practical_beta_regret: Vec::new(),
            final_strategy_vertices: prev_winners,
            per_vertex_tx,
            average_observed_kbps: observed_total / horizon as f64,
            average_effective_kbps: effective_total / horizon as f64,
            average_expected_kbps: expected_total / horizon as f64,
            beta,
            comm,
            seed: acfg.seed,
            traffic: queue.as_ref().map(|q| q.summary()),
        }
    });
    let job_end = tracer.now();
    tracer.spans.push(Span {
        layer: Layer::Job,
        parent: ROOT,
        start: job_start,
        end: job_end,
    });

    let rows = job_rows(&result, &mut obs);
    let digest = job_digest(&result, cell.get(), &rows);
    TracedJob {
        result,
        rows,
        digest,
        wall_ns: job_end - job_start - twin_ns,
        allocs_per_period,
        decide,
        table_entries,
        halo_entries,
        twin_mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use crate::workload::{run_direct, shrunk, Workload};

    #[test]
    fn layers_are_indexed_by_discriminant_with_distinct_legal_names() {
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            assert_eq!(layer as usize, i);
            assert!(valid_metric_name(layer.name()), "{}", layer.name());
        }
        let mut names: Vec<_> = Layer::ALL.map(Layer::name).to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Layer::COUNT);
    }

    #[test]
    fn traced_jobs_reproduce_the_runner_exactly() {
        for w in Workload::ALL {
            let spec = shrunk(w, 5);
            let seed = spec.seeds.start;
            let direct = run_direct(&spec, seed, &mut Vec::new()).expect("outputs hold");
            let mut tracer = Tracer::new();
            let traced = run_traced(&spec, seed, true, &mut tracer);
            assert_eq!(traced.result, direct.result, "{}", w.name());
            assert_eq!(traced.rows, direct.rows, "{}", w.name());
            assert_eq!(traced.digest, direct.digest, "{}", w.name());
            assert_eq!(traced.twin_mismatches, 0, "{}", w.name());
            let n_periods = policy_run(&spec)
                .horizon
                .div_ceil(policy_run(&spec).update_period as u64);
            assert_eq!(traced.allocs_per_period.len() as u64, n_periods);

            let spans = tracer.spans();
            let job = spans.last().expect("job span");
            assert_eq!(job.layer, Layer::Job);
            for s in spans {
                assert!(s.start <= s.end && job.start <= s.start && s.end <= job.end);
                if s.parent != ROOT {
                    let p = spans[s.parent as usize];
                    assert_eq!(p.layer, Layer::Period);
                    assert!(p.start <= s.start && s.end <= p.end, "{:?} in {:?}", s, p);
                }
            }
            let periods = spans.iter().filter(|s| s.layer == Layer::Period).count();
            assert_eq!(periods as u64, n_periods);
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_digest() {
        for w in Workload::ALL {
            let a = shrunk(w, 7);
            let b = shrunk(w, 8);
            let (sa, sb) = (a.seeds.start, b.seeds.start);
            let d1 = run_direct(&a, sa, &mut Vec::new())
                .expect("outputs hold")
                .digest;
            let d2 = run_direct(&a, sa, &mut Vec::new())
                .expect("outputs hold")
                .digest;
            let d3 = run_direct(&b, sb, &mut Vec::new())
                .expect("outputs hold")
                .digest;
            assert_eq!(d1, d2, "{}", w.name());
            assert_ne!(d1, d3, "{}", w.name());
        }
    }
}
