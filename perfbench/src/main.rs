//! Outside-in benchmark of the mhca simulator.
//!
//! ```text
//! python3 perfbench/run.py \
//!     --workload <decide-r2|large-n-tiled|traffic-lossy-campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! program's own calls in the timed regions. `--trace 1` alternates
//! untraced jobs with traced ones (the round loop driven call by call
//! from outside, see `traced.rs`) and reports the per-layer metrics.
//! Both modes gate every job on its output digest; the last stdout line
//! is the JSON result. See `README.md` for the metric definitions.

mod alloc;
mod campaign;
mod cpu;
mod stats;
mod traced;
mod workload;

use mhca_campaign::ScenarioSpec;
use mhca_graph::Partition;
use mhca_sim::FloodEngine;
use stats::{median, min_samples_for_tail, quantile, tail, Fnv, Metric};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traced::{Layer, Tracer};
use workload::{policy_run, run_direct, setup_only, Workload, CAMPAIGN_WORKERS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Share of an untraced run spent on set-up-only builds, spread between
/// the jobs so the builds sample the whole run rather than its first
/// second (the host's speed drifts over tens of seconds). The median of
/// these and every job's own set-up is `setup_s`.
const SETUP_SHARE: f64 = 0.05;
/// Tail percentile reported for period CPU times.
const TAIL_P: f64 = 0.9;

/// Digests the simulated outputs must reproduce on every host at the
/// default seed: every job of each workload, and the whole campaign of
/// `traffic-lossy-campaign`. At other seeds the run's jobs, the traced
/// loop and the campaign records must agree with each other, every job
/// must pass `workload::check_outputs`, and the canary job ([`CANARY`])
/// must reproduce its pin.
#[rustfmt::skip]
const PINNED: &[(&str, u64, &str, u64)] = &[
    ("decide-r2", 1, "job/seed16", 0x8d02_1643_8a31_a8a3),
    ("decide-r2", 1, "job/seed17", 0x0138_cb8e_dd95_e03a),
    ("decide-r2", 1, "job/seed18", 0xf5ea_44d7_c5f0_65af),
    ("decide-r2", 1, "job/seed19", 0xbf0b_13b1_7afd_c6c8),
    ("decide-r2", 1, "job/seed20", 0xcb1b_a45c_c8d1_1298),
    ("decide-r2", 1, "job/seed21", 0xd071_8208_8185_036a),
    ("decide-r2", 1, "job/seed22", 0x83f6_9e18_2151_f083),
    ("decide-r2", 1, "job/seed23", 0xf8ff_02d7_15c1_bca9),
    ("decide-r2", 1, "job/seed24", 0x8e52_f5f4_40a6_d945),
    ("decide-r2", 1, "job/seed25", 0x1af4_8656_ec03_500e),
    ("decide-r2", 1, "job/seed26", 0x97ab_96a6_f556_c9c8),
    ("decide-r2", 1, "job/seed27", 0x75b6_84c0_24ae_21c8),
    ("decide-r2", 1, "job/seed28", 0xbba2_8e2f_e373_de5a),
    ("decide-r2", 1, "job/seed29", 0x7ced_51f1_fecd_73f7),
    ("decide-r2", 1, "job/seed30", 0x6f95_ab25_801f_5c9d),
    ("decide-r2", 1, "job/seed31", 0x4c0a_c8f2_fffa_0617),
    ("large-n-tiled", 1, "job/seed2", 0x604d_f553_7666_b75b),
    ("large-n-tiled", 1, "job/seed3", 0xd1c8_c449_34df_5dc7),
    ("traffic-lossy-campaign", 1, "campaign", 0xa7be_dcbb_83cf_e888),
    ("traffic-lossy-campaign", 1, "job/seed4", 0x18f9_71b8_7358_0ad8),
    ("traffic-lossy-campaign", 1, "job/seed5", 0x21a1_67a5_d7b6_8fb9),
    ("traffic-lossy-campaign", 1, "job/seed6", 0x13ab_ef42_d18a_3049),
    ("traffic-lossy-campaign", 1, "job/seed7", 0x11fa_802a_cdb8_bbca),
];

/// Pinned digest of each workload's canary job
/// ([`workload::canary`]), checked at the end of every run.
const CANARY: &[(&str, u64)] = &[
    ("decide-r2", 0xcd3a_8a15_6e5f_ada9),
    ("large-n-tiled", 0x99ad_03b5_c1f8_cde5),
    ("traffic-lossy-campaign", 0xc244_4e24_72ae_375c),
];

/// Default `--seed`.
const DEFAULT_SEED: u64 = 1;
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The output gate: every digest recorded under a key must equal the
/// first one recorded under it (or the pinned value, when pinned). A
/// mismatch or an error fails the job that produced it.
#[derive(Default)]
struct Gate {
    expected: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn pin(&mut self, workload: Workload, seed: u64) {
        for &(w, s, key, digest) in PINNED {
            if w == workload.name() && s == seed {
                self.expected.insert(key.to_string(), digest);
            }
        }
    }

    /// `true` when `digest` agrees with the key's reference.
    fn agrees(&mut self, key: String, digest: u64) -> bool {
        let expected = *self.expected.entry(key.clone()).or_insert(digest);
        if expected != digest {
            eprintln!("output gate: {key} digest {digest:016x}, expected {expected:016x}");
        }
        expected == digest
    }

    /// Records one job: `checks` are (key, digest) pairs it produced.
    fn job(&mut self, what: &str, checks: Result<Vec<(String, u64)>, String>) -> bool {
        self.attempted += 1;
        let ok = match checks {
            Ok(checks) => checks
                .into_iter()
                .fold(true, |ok, (k, d)| self.agrees(k, d) && ok),
            Err(e) => {
                eprintln!("{what}: {e}");
                false
            }
        };
        self.failed += u64::from(!ok);
        ok
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into()))
    })
}

/// The `avg_expected_kbps` row of a job's metric rows.
fn expected_kbps(rows: &[(String, f64)]) -> f64 {
    rows.iter()
        .find(|(k, _)| k == "avg_expected_kbps")
        .map_or(0.0, |&(_, v)| v)
}

fn rows_digest(rows: &[(String, f64)]) -> u64 {
    Fnv::of(format!("{rows:?}").as_bytes())
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Shared run state.
struct Run {
    workload: Workload,
    seed: u64,
    spec: ScenarioSpec,
    deadline: Instant,
    gate: Gate,
}

impl Run {
    fn job_seeds(&self) -> Vec<u64> {
        self.spec.seeds.iter().collect()
    }

    fn timed_out(&self) -> bool {
        Instant::now() >= self.deadline
    }

    fn direct_job(&mut self, seed: u64, period_ms: &mut Vec<f64>) -> Option<workload::DirectJob> {
        let spec = &self.spec;
        let job = guarded(|| run_direct(spec, seed, period_ms));
        let checks = job.as_ref().map(|j| {
            vec![
                (format!("job/seed{seed}"), j.digest),
                (format!("rows/seed{seed}"), rows_digest(&j.rows)),
            ]
        });
        let ok = self.gate.job(
            &format!("direct job seed {seed}"),
            checks.map_err(Clone::clone),
        );
        job.ok().filter(|_| ok)
    }

    fn campaign(&mut self, workers: usize, tag: &str) -> Option<campaign::CampaignRun> {
        let spec = &self.spec;
        let run = guarded(|| campaign::run(spec, workers, tag).map_err(|e| e.to_string()));
        let n = spec.seeds.count;
        let checks = run.as_ref().map_err(Clone::clone).and_then(|r| {
            if r.executed as u64 != n {
                return Err(format!("executed {} of {n} jobs", r.executed));
            }
            let mut checks = vec![("campaign".to_string(), r.digest())];
            for s in &r.seeds {
                checks.push((format!("rows/seed{}", s.seed), rows_digest(&s.rows)));
                checks.push((format!("artifact/seed{}", s.seed), s.artifact));
            }
            Ok(checks)
        });
        // A campaign counts as one job per seed; a mismatch fails them all.
        let ok = self.gate.job(&format!("campaign {tag}"), checks);
        self.gate.attempted += n - 1;
        if !ok {
            self.gate.failed += n - 1;
        }
        run.ok().filter(|_| ok)
    }

    /// Runs the workload's canary job and checks its pinned digest.
    fn canary(&mut self) {
        let (spec, seed) = workload::canary(self.workload, DEFAULT_SEED);
        if let Some(&(_, digest)) = CANARY.iter().find(|(w, _)| *w == self.workload.name()) {
            self.gate.expected.insert("canary".into(), digest);
        }
        let job = guarded(|| run_direct(&spec, seed, &mut Vec::new()));
        let checks = job.map(|j| vec![("canary".to_string(), j.digest)]);
        self.gate.job("canary job", checks);
    }
}

/// Samples grouped by network instance.
#[derive(Default)]
struct PerInstance(BTreeMap<u64, Vec<f64>>);

impl PerInstance {
    fn push(&mut self, instance: u64, value: f64) {
        self.0.entry(instance).or_default().push(value);
    }

    /// Mean over instances of each instance's median.
    fn mean_of_medians(&self) -> f64 {
        ratio(
            self.0.values().map(|v| median(v)).sum(),
            self.0.len() as f64,
        )
    }
}

/// End-to-end metrics, tracing off.
fn untraced(run: &mut Run) -> Vec<Metric> {
    let seeds = run.job_seeds();
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut setup_only_s = 0.0;
    let campaign = run.workload == Workload::TrafficLossyCampaign;
    let min_periods = min_samples_for_tail(TAIL_P);
    // Rates are kept per network instance (per campaign for the campaign
    // workload, whose every run covers all its seeds) and reported as the
    // mean of the instances' medians, so a repeated instance does not
    // outweigh the others.
    let mut period_ms = Vec::new();
    let (mut slots_per_s, mut wall_slots_per_s, mut jobs_per_s, mut expected) = (
        PerInstance::default(),
        PerInstance::default(),
        PerInstance::default(),
        PerInstance::default(),
    );
    let mut rss = None;
    let mut i = 0;
    loop {
        if campaign {
            if let Some(c) = run.campaign(CAMPAIGN_WORKERS, &format!("rep{i}")) {
                let slots = policy_run(&run.spec).horizon * c.seeds.len() as u64;
                slots_per_s.push(0, slots as f64 / c.cpu_s);
                wall_slots_per_s.push(0, slots as f64 / c.wall_s);
                jobs_per_s.push(0, c.executed as f64 / c.cpu_s);
                let kbps: Vec<f64> = c.seeds.iter().map(|s| expected_kbps(&s.rows)).collect();
                expected.push(0, kbps.iter().sum::<f64>() / kbps.len() as f64);
            }
        }
        let seed = seeds[i % seeds.len()];
        if let Some(j) = run.direct_job(seed, &mut period_ms) {
            setup_s.push(j.setup_s);
            if !campaign {
                slots_per_s.push(seed, j.result.slots as f64 / j.step_s);
                wall_slots_per_s.push(seed, j.result.slots as f64 / j.step_wall_s);
                jobs_per_s.push(seed, 1.0 / j.cpu_s);
                expected.push(seed, j.result.average_expected_kbps);
            }
        }
        // Set-up-only builds until they fill their share of the run so far.
        while setup_only_s < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let spec = &run.spec;
            let seed = seeds[setup_s.len() % seeds.len()];
            match guarded(|| Ok(setup_only(spec, seed))) {
                Ok(s) => {
                    setup_s.push(s);
                    setup_only_s += s;
                }
                Err(e) => {
                    run.gate.job("set-up", Err(e));
                    break;
                }
            }
        }
        i += 1;
        // Peak memory is read once every instance has run: later passes
        // only repeat jobs for timing, and the heap fragmentation they
        // add varies with how many fit in the run.
        if i == seeds.len() {
            rss = Some(peak_rss_mb());
        }
        let enough = i >= seeds.len() && period_ms.len() >= min_periods;
        if (run.timed_out() && enough) || (i >= 3 && period_ms.is_empty()) {
            break;
        }
    }
    let periods = tail(&period_ms, TAIL_P).unwrap_or_else(|e| {
        run.gate.job("period samples", Err(e));
        stats::Tail {
            p50: 0.0,
            tail: 0.0,
            count: period_ms.len(),
            beyond: 0,
        }
    });
    let rss = rss.unwrap_or_else(peak_rss_mb).unwrap_or_else(|e| {
        run.gate.job("peak rss", Err(e));
        0.0
    });
    println!(
        "samples: {} set-ups, {} jobs, {} periods ({} beyond p{:.0})",
        setup_s.len(),
        i,
        periods.count,
        periods.beyond,
        TAIL_P * 100.0
    );
    // Wall-clock rate, for reading only: on a shared host it follows the
    // other tenants (see `cpu.rs`), so no metric is built on it.
    println!(
        "wall clock: {:.1} slots/s",
        wall_slots_per_s.mean_of_medians()
    );
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("slots_per_cpu_s", slots_per_s.mean_of_medians(), "slots/s"),
        metric("period_cpu_p50_ms", periods.p50, "ms"),
        metric("period_cpu_p90_ms", periods.tail, "ms"),
        metric("jobs_per_cpu_s", jobs_per_s.mean_of_medians(), "jobs/s"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("expected_kbps", expected.mean_of_medians(), "kbps"),
    ]
}

/// Per-layer aggregates over the traced jobs of a run.
#[derive(Default)]
struct Agg {
    total_ns: [u64; Layer::COUNT],
    calls: [u64; Layer::COUNT],
    setup_ms: BTreeMap<&'static str, Vec<f64>>,
    decide_us: Vec<f64>,
    twin_us: Vec<f64>,
    wb_us: Vec<f64>,
    indices_us: Vec<f64>,
    periods: u64,
    job_ns: u64,
    leaf_ns: u64,
    period_child_ns: u64,
    steady_allocs: Vec<f64>,
    decide: traced::DecideCounts,
    table_entries: u64,
    halo_entries: u64,
    /// `(arrivals, delivered)` per job seed, counted once per seed.
    traffic: BTreeMap<u64, (u64, u64)>,
}

impl Agg {
    fn add(&mut self, tracer: &Tracer, job: &traced::TracedJob) {
        for s in tracer.spans() {
            let ns = s.ns();
            self.total_ns[s.layer as usize] += ns;
            self.calls[s.layer as usize] += 1;
            let us = ns as f64 / 1e3;
            match s.layer {
                Layer::Decide => self.decide_us.push(us),
                Layer::TwinDecide => self.twin_us.push(us),
                Layer::Wb => self.wb_us.push(us),
                Layer::Indices => self.indices_us.push(us),
                Layer::Topology
                | Layer::Channels
                | Layer::FromParts
                | Layer::DistributedNew
                | Layer::WbSetup => self
                    .setup_ms
                    .entry(s.layer.name())
                    .or_default()
                    .push(us / 1e3),
                _ => {}
            }
            if s.layer.is_leaf() {
                self.leaf_ns += ns;
                if s.parent != u32::MAX {
                    self.period_child_ns += ns;
                }
            }
        }
        self.job_ns += job.wall_ns;
        self.periods += job.allocs_per_period.len() as u64;
        // Steady state: skip the first tenth of the periods, where the
        // scratch pools still grow.
        let warm = job.allocs_per_period.len().div_ceil(10).max(1);
        self.steady_allocs
            .extend(job.allocs_per_period.iter().skip(warm).map(|&a| a as f64));
        self.decide.add(&job.decide);
        self.table_entries = job.table_entries;
        self.halo_entries = job.halo_entries;
        if let Some(t) = &job.result.traffic {
            self.traffic
                .insert(job.result.seed, (t.arrivals, t.delivered));
        }
    }

    fn mean_ns(&self, layer: Layer, per: u64) -> f64 {
        ratio(self.total_ns[layer as usize] as f64, per as f64)
    }

    fn setup(&self, name: &str) -> f64 {
        self.setup_ms.get(name).map_or(0.0, |v| median(v))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Standalone set-up layers on the first job seed's network:
/// `Partition::stripes` (tiled workloads only) and a lossless
/// `FloodEngine::prewarm(2r+1)`, each the median of three builds.
fn standalone_setup(spec: &ScenarioSpec, seed: u64) -> (f64, f64) {
    let cfg = policy_run(spec);
    let net = mhca_core::Network::from_spec(cfg.n, cfg.m, &cfg.topology, &cfg.channel, seed);
    let g = net.h().graph();
    let radius = 2 * cfg.r + 1;
    let time_ms = |f: &dyn Fn()| {
        let v: Vec<f64> = (0..3)
            .map(|_| {
                let s = Instant::now();
                f();
                s.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&v)
    };
    let partition_ms = if cfg.partitions > 1 {
        time_ms(&|| {
            drop(std::hint::black_box(Partition::stripes(
                g,
                cfg.partitions,
                radius,
            )))
        })
    } else {
        0.0
    };
    let prewarm_ms = time_ms(&|| {
        let mut e = FloodEngine::new(g);
        e.prewarm(radius);
        std::hint::black_box(&e);
    });
    (partition_ms, prewarm_ms)
}

/// Per-layer metrics: untraced and traced jobs alternate, and every
/// traced job must reproduce its untraced twin's digest.
fn traced_run(run: &mut Run) -> Vec<Metric> {
    let seeds = run.job_seeds();
    let campaign = run.workload == Workload::TrafficLossyCampaign;
    let cfg = policy_run(&run.spec).clone();
    let twin = cfg.partitions > 1;
    let spec = run.spec.clone();
    let (partition_ms, prewarm_ms) = guarded(|| Ok(standalone_setup(&spec, seeds[0])))
        .unwrap_or_else(|e| {
            run.gate.job("standalone set-up", Err(e));
            (0.0, 0.0)
        });

    // Campaign layers: a pool run, a one-worker run, and each job alone.
    let (mut job_ms, mut commit_ms, mut artifact_bytes, mut busy) = (0.0, 0.0, 0.0, 0.0);
    if campaign {
        let pool = run.campaign(CAMPAIGN_WORKERS, "pool");
        let serial = run.campaign(1, "serial");
        let mut jobs_s = Vec::new();
        for &seed in &seeds {
            let mut artifact = Vec::new();
            let start = Instant::now();
            let rows = guarded(|| spec.run_job(seed, &mut artifact).map_err(|e| e.to_string()));
            jobs_s.push(start.elapsed().as_secs_f64());
            let checks = rows.map(|rows| {
                vec![
                    (format!("rows/seed{seed}"), rows_digest(&rows)),
                    (format!("artifact/seed{seed}"), Fnv::of(&artifact)),
                ]
            });
            run.gate.job(&format!("run_job seed {seed}"), checks);
        }
        let sum_job_s: f64 = jobs_s.iter().sum();
        job_ms = median(&jobs_s) * 1e3;
        if let Some(s) = &serial {
            commit_ms = (s.wall_s - sum_job_s) / seeds.len() as f64 * 1e3;
            artifact_bytes = s.bytes as f64;
        }
        if let Some(pool) = &pool {
            busy = sum_job_s / (CAMPAIGN_WORKERS as f64 * pool.wall_s);
        }
    }

    let mut tracer = Tracer::new();
    let mut agg = Agg::default();
    let mut overhead = Vec::new();
    let mut period_ms = Vec::new();
    let mut i = 0;
    loop {
        let seed = seeds[i % seeds.len()];
        period_ms.clear();
        let direct = run.direct_job(seed, &mut period_ms);
        let traced = guarded(|| Ok(traced::run_traced(&spec, seed, twin, &mut tracer)));
        let checks = traced.as_ref().map_err(Clone::clone).and_then(|t| {
            if t.twin_mismatches > 0 {
                return Err(format!(
                    "{} tiled/serial outcome mismatches",
                    t.twin_mismatches
                ));
            }
            if cfg.loss.is_lossless() && t.decide.conflicts > 0 {
                return Err(format!(
                    "{} conflicts on a lossless run",
                    t.decide.conflicts
                ));
            }
            Ok(vec![
                (format!("job/seed{seed}"), t.digest),
                (format!("rows/seed{seed}"), rows_digest(&t.rows)),
            ])
        });
        if run.gate.job(&format!("traced job seed {seed}"), checks) {
            let t = traced.expect("checked above");
            agg.add(&tracer, &t);
            if let Some(d) = direct {
                overhead.push(t.wall_ns as f64 / 1e9 / d.wall_s);
            }
        }
        i += 1;
        if (run.timed_out() && !overhead.is_empty()) || (i >= 3 && overhead.is_empty()) {
            break;
        }
    }
    write_trace(run, &tracer);

    let d = agg.decide;
    let dec = d.decisions as f64;
    let slots = agg.calls[Layer::Observe as usize];
    let decide_ns = agg.total_ns[Layer::Decide as usize] as f64;
    let twin_ns = agg.total_ns[Layer::TwinDecide as usize] as f64;
    let k = (cfg.n * cfg.m) as f64;
    let (arrivals, delivered) = agg
        .traffic
        .values()
        .fold((0, 0), |(a, d), &(ja, jd)| (a + ja, d + jd));
    vec![
        metric("graph.topology_ms", agg.setup(Layer::Topology.name()), "ms"),
        metric("channels.build_ms", agg.setup(Layer::Channels.name()), "ms"),
        metric(
            "network.from_parts_ms",
            agg.setup(Layer::FromParts.name()),
            "ms",
        ),
        metric(
            "distributed.new_ms",
            agg.setup(Layer::DistributedNew.name()),
            "ms",
        ),
        metric("sim.wb_setup_ms", agg.setup(Layer::WbSetup.name()), "ms"),
        metric("graph.partition_ms", partition_ms, "ms"),
        metric("sim.prewarm_ms", prewarm_ms, "ms"),
        metric("sim.table_entries", agg.table_entries as f64, "count"),
        metric("graph.halo_entries", agg.halo_entries as f64, "count"),
        metric("distributed.decide_us_p50", median(&agg.decide_us), "us"),
        metric(
            "distributed.decide_us_p90",
            quantile(&agg.decide_us, TAIL_P),
            "us",
        ),
        metric(
            "distributed.candidates_scanned",
            ratio(d.candidates_scanned as f64, dec),
            "count",
        ),
        metric(
            "distributed.fast_skips",
            ratio(d.fast_skips as f64, dec),
            "count",
        ),
        metric(
            "distributed.fast_skip_frac",
            ratio(
                d.fast_skips as f64,
                (d.fast_skips + d.candidates_scanned) as f64,
            ),
            "ratio",
        ),
        metric(
            "distributed.minirounds",
            ratio(d.minirounds as f64, dec),
            "count",
        ),
        metric(
            "distributed.transmissions",
            ratio(d.transmissions as f64, dec),
            "count",
        ),
        metric(
            "distributed.tx_per_vertex",
            ratio(d.transmissions as f64, dec * k),
            "count",
        ),
        metric(
            "distributed.timeslots",
            ratio(d.timeslots as f64, dec),
            "count",
        ),
        metric(
            "distributed.fallback_floods",
            d.fallback_floods as f64,
            "count",
        ),
        metric("distributed.decide_serial_us", median(&agg.twin_us), "us"),
        metric(
            "distributed.tiled_speedup",
            ratio(twin_ns, decide_ns),
            "ratio",
        ),
        metric(
            "sim.delivered_per_tx",
            ratio(d.delivered as f64, d.transmissions as f64),
            "ratio",
        ),
        metric("sim.wb_flood_us", median(&agg.wb_us), "us"),
        metric("bandit.indices_us", median(&agg.indices_us), "us"),
        metric(
            "runner.self_us",
            ratio(
                (agg.total_ns[Layer::Period as usize] - agg.period_child_ns) as f64 / 1e3,
                agg.periods as f64,
            ),
            "us",
        ),
        metric(
            "runner.allocs_per_period",
            mean(&agg.steady_allocs),
            "count",
        ),
        metric(
            "channels.observe_ns",
            agg.mean_ns(Layer::Observe, slots),
            "ns",
        ),
        metric("bandit.update_ns", agg.mean_ns(Layer::Update, slots), "ns"),
        metric(
            "traffic.step_ns",
            agg.mean_ns(Layer::QueueStep, slots),
            "ns",
        ),
        metric(
            "traffic.delivered_frac",
            ratio(delivered as f64, arrivals as f64),
            "ratio",
        ),
        metric("traffic.delivered_pkts", delivered as f64, "pkts"),
        metric(
            "experiment.emit_us",
            agg.mean_ns(Layer::Emit, agg.periods) / 1e3,
            "us",
        ),
        metric("campaign.job_ms", job_ms, "ms"),
        metric("campaign.commit_ms", commit_ms, "ms"),
        metric("campaign.artifact_bytes", artifact_bytes, "bytes"),
        metric("campaign.worker_busy_frac", busy, "ratio"),
        metric("trace.overhead_frac", median(&overhead) - 1.0, "ratio"),
        metric(
            "trace.coverage",
            ratio(agg.leaf_ns as f64, agg.job_ns as f64),
            "ratio",
        ),
    ]
}

/// Mean of the samples (allocation counts are small integers, so the
/// mean keeps a rare allocating period visible where a median would not).
fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// Writes the last traced job's spans next to the campaign out-dirs.
fn write_trace(run: &Run, tracer: &Tracer) {
    let dir = campaign::out_dir();
    let path = dir.join(format!(
        "trace-{}-seed{}.tsv",
        run.workload.name(),
        run.seed
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.render(run.workload.name())));
    match written {
        Ok(()) => println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mhca-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} host_threads {threads}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if threads == 1 { " (single-core)" } else { "" }
    );
    let mut run = Run {
        workload: args.workload,
        seed: args.seed,
        spec: args.workload.scenario(args.seed),
        deadline: Instant::now() + Duration::from_secs_f64(args.seconds),
        gate: Gate::default(),
    };
    run.gate.pin(args.workload, args.seed);
    let metrics = if args.trace {
        traced_run(&mut run)
    } else {
        untraced(&mut run)
    };
    run.canary();
    for m in &metrics {
        if !stats::valid_metric_name(m.name) {
            run.gate.job(
                "metric names",
                Err(format!("illegal metric name {:?}", m.name)),
            );
        }
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (key, digest) in &run.gate.expected {
        println!("  digest {key} {digest:016x}");
    }
    println!(
        "{}",
        stats::result_json(run.gate.attempted, run.gate.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let body = &json[json.find(&format!("\"{list}\"")).expect("list present")..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let tag = format!("\"{key}\": \"");
                    let at = entry.find(&tag).expect("field present") + tag.len();
                    entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn both_modes_report_exactly_the_declared_metrics() {
        let mut run = Run {
            workload: Workload::DecideR2,
            seed: 2,
            spec: workload::shrunk(Workload::DecideR2, 2),
            deadline: Instant::now(),
            gate: Gate::default(),
        };
        let end_to_end = untraced(&mut run);
        let per_layer = traced_run(&mut run);
        assert!(run.gate.attempted > 0);
        assert_eq!(run.gate.failed, 0);
        assert_eq!(reported(&end_to_end), declared("end_to_end"));
        assert_eq!(reported(&per_layer), declared("per_layer"));
        for (name, _) in declared("end_to_end").iter().chain(&declared("per_layer")) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        assert!(end_to_end.iter().all(|m| m.value > 0.0), "{end_to_end:?}");
    }

    #[test]
    fn the_canary_reproduces_its_pin() {
        let mut run = Run {
            workload: Workload::TrafficLossyCampaign,
            seed: 9,
            spec: workload::shrunk(Workload::TrafficLossyCampaign, 9),
            deadline: Instant::now(),
            gate: Gate::default(),
        };
        run.canary();
        assert_eq!((run.gate.attempted, run.gate.failed), (1, 0));
    }

    #[test]
    fn the_gate_fails_a_mismatching_job() {
        let mut gate = Gate::default();
        assert!(gate.job("a", Ok(vec![("k".into(), 1)])));
        assert!(gate.job("b", Ok(vec![("k".into(), 1), ("j".into(), 2)])));
        assert!(!gate.job("c", Ok(vec![("k".into(), 3)])));
        assert!(!gate.job("d", Err("boom".into())));
        assert_eq!((gate.attempted, gate.failed), (4, 2));
    }
}
