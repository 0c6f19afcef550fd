//! The campaign runner: expands scenario specs into a job matrix,
//! executes pending jobs on a bounded worker pool that spans the **whole
//! matrix** (not just seeds within one scenario — a heterogeneous catalog
//! keeps every worker busy), streams per-seed figure CSV artifacts,
//! aggregates metrics across seeds, and keeps the durable manifest
//! current so an interrupted campaign resumes without re-executing
//! completed jobs.
//!
//! Layout of a campaign output directory:
//!
//! ```text
//! <out_dir>/
//!   manifest.json             durable job ledger (resume state)
//!   campaign.csv              long-format per-job metrics (scenario,seed,metric,value)
//!   campaign.json             everything: spec, per-job metrics, aggregates
//!   <scenario>/seed<k>.csv    per-seed figure artifact (mhca_bench::report)
//!   <scenario>/summary.csv    per-metric aggregate across seeds
//! ```

use crate::manifest::{JobStatus, Manifest};
use crate::spec::{expand_jobs, spec_hash, ScenarioSpec};
use mhca_bench::csv::CsvWriter;
use mhca_core::sweep::{for_each_bounded, Aggregate};
use mhca_service::json::Json;
use mhca_telemetry::{
    EventKind, FieldValue, JsonlSink, ProgressSnapshot, ProgressTracker, Telemetry,
};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Campaign execution parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign name (recorded in the manifest; part of the spec hash).
    pub name: String,
    /// Output directory (created if absent).
    pub out_dir: PathBuf,
    /// Ordered scenario list.
    pub scenarios: Vec<ScenarioSpec>,
    /// Run pending jobs in parallel (`false` forces strictly in-order
    /// serial execution). Artifacts and all deterministic metrics are
    /// identical at any worker count; only wall-clock observer metrics
    /// (e.g. `decide-timing:*`, attached to some registry scenarios)
    /// vary between runs, parallel or not.
    pub parallel: bool,
    /// Worker-thread bound across the whole job matrix (`None` = one per
    /// available core). Ignored when `parallel` is off.
    pub jobs: Option<usize>,
    /// Start fresh when an existing manifest was written for a different
    /// spec (default: refuse, so a typo cannot silently discard results).
    pub force: bool,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
    /// Write structured telemetry (`events.jsonl` in the out-dir:
    /// campaign/scenario/job spans, per-phase latency histograms,
    /// incremental observer counters, failure events). Artifacts are
    /// byte-identical with tracing on or off — the standing contract.
    pub trace: bool,
    /// Emit live progress heartbeats (jobs-done/total, rounds/sec, ETA)
    /// on stderr, plus a `progress.json` snapshot in the out-dir.
    pub progress: bool,
}

impl CampaignConfig {
    /// Config with the defaults: parallel on all cores, not forced, not
    /// quiet.
    pub fn new(
        name: impl Into<String>,
        out_dir: impl Into<PathBuf>,
        scenarios: Vec<ScenarioSpec>,
    ) -> Self {
        CampaignConfig {
            name: name.into(),
            out_dir: out_dir.into(),
            scenarios,
            parallel: true,
            jobs: None,
            force: false,
            quiet: false,
            trace: false,
            progress: false,
        }
    }

    /// The effective worker count: 1 when serial, else the `jobs` bound
    /// (or every available core).
    pub fn workers(&self) -> usize {
        if !self.parallel {
            return 1;
        }
        self.jobs.unwrap_or_else(available_cores).max(1)
    }
}

/// Available cores (1 if the query fails).
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One executed job: `(seed, rendered artifact bytes, headline metrics)`.
type JobResult = (u64, Vec<u8>, Vec<(String, f64)>);

/// Aggregates of one scenario's metrics across its seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub name: String,
    /// Per-metric aggregate, in first-seed emission order.
    pub aggregates: Vec<(String, Aggregate)>,
}

/// What a campaign run did.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Jobs executed in this invocation.
    pub executed: usize,
    /// Jobs skipped because the manifest already recorded them done.
    pub skipped: usize,
    /// The final manifest (also on disk).
    pub manifest: Manifest,
    /// Cross-seed aggregates per scenario.
    pub summaries: Vec<ScenarioSummary>,
}

/// Runs (or resumes) a campaign. See the module docs for the output
/// layout and `Manifest` for the resume rules.
///
/// # Errors
///
/// I/O errors from the output directory, plus `InvalidInput` when an
/// existing manifest belongs to a different spec and `force` is off.
pub fn run(cfg: &CampaignConfig) -> io::Result<CampaignOutcome> {
    // Graceful interrupt: SIGINT/SIGTERM raise a flag the commit loop
    // polls between jobs. The campaign then checkpoints the manifest and
    // returns `Interrupted` instead of dying mid-write — a rerun resumes
    // from exactly the committed jobs.
    mhca_service::signals::install();
    fs::create_dir_all(&cfg.out_dir)?;
    let jobs = expand_jobs(&cfg.scenarios);
    let hash = spec_hash(&cfg.name, &cfg.scenarios);

    let mut manifest = match Manifest::load(&cfg.out_dir)? {
        Some(existing) if existing.spec_hash == hash => {
            let (done, pending) = existing.progress();
            progress(
                cfg,
                &format!(
                    "resuming campaign '{}': {done} jobs done, {pending} pending",
                    cfg.name
                ),
            );
            existing
        }
        Some(existing) if !cfg.force => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "manifest in {} belongs to campaign '{}' (spec hash {}), \
                     not '{}' (spec hash {hash}); pass force to overwrite",
                    cfg.out_dir.display(),
                    existing.campaign,
                    existing.spec_hash,
                    cfg.name
                ),
            ));
        }
        _ => Manifest::new(&cfg.name, &cfg.scenarios, &jobs),
    };

    // Defensive backfill: the spec hash guarantees a matching manifest
    // was created from this exact job matrix, but manifests are plain
    // JSON a human may hand-edit or truncate — missing records become
    // pending rather than panicking in the commit loop below.
    for job in &jobs {
        if manifest.record(&job.scenario, job.seed).is_none() {
            manifest.jobs.push(crate::manifest::JobRecord::pending(job));
        }
    }
    manifest.save(&cfg.out_dir)?;

    // ---- Telemetry. Opened only after the manifest accepted the spec,
    // and in append mode: a resumed campaign's trace accumulates across
    // sessions exactly like the manifest, so job spans from an
    // interrupted run plus its resume sum to the whole campaign. The
    // handle is disabled without `--trace`: every emission below is then
    // a branch, and the job path is exactly the untraced one.
    let telemetry = if cfg.trace {
        Telemetry::from_sink(Box::new(JsonlSink::append(
            &cfg.out_dir.join("events.jsonl"),
        )?))
    } else {
        Telemetry::disabled()
    };
    let campaign_span = telemetry.span("campaign");
    telemetry.event(
        EventKind::Gauge,
        "campaign.meta",
        &[
            ("name", FieldValue::Str(&cfg.name)),
            ("spec_hash", FieldValue::Str(&hash)),
            ("workers", FieldValue::U64(cfg.workers() as u64)),
        ],
    );

    // ---- Build the pending work list across the whole matrix, in
    // matrix order (scenario-major, seed-minor).
    let mut pending: Vec<(usize, u64)> = Vec::new();
    let mut remaining_per_scenario = vec![0usize; cfg.scenarios.len()];
    let mut scenario_spans: Vec<Option<mhca_telemetry::Span>> =
        (0..cfg.scenarios.len()).map(|_| None).collect();
    let mut skipped = 0;
    for (idx, scenario) in cfg.scenarios.iter().enumerate() {
        let todo: Vec<u64> = scenario
            .seeds
            .iter()
            .filter(|&seed| !manifest.is_complete(&cfg.out_dir, &scenario.name, seed))
            .collect();
        skipped += scenario.seeds.count as usize - todo.len();
        if todo.is_empty() {
            progress(cfg, &format!("{}: all seeds already done", scenario.name));
            continue;
        }
        fs::create_dir_all(cfg.out_dir.join(&scenario.name))?;
        remaining_per_scenario[idx] = todo.len();
        scenario_spans[idx] = Some(telemetry.with_scope(&scenario.name).span("scenario"));
        pending.extend(todo.into_iter().map(|seed| (idx, seed)));
    }

    let workers = cfg.workers().min(pending.len().max(1));
    if !pending.is_empty() {
        progress(
            cfg,
            &format!(
                "running {} pending job(s) across {} scenario(s) on {} worker(s)",
                pending.len(),
                remaining_per_scenario.iter().filter(|&&n| n > 0).count(),
                workers
            ),
        );
    }

    // ---- Execute on the bounded pool spanning all scenarios, committing
    // each artifact + manifest record on this thread as results stream
    // in. The manifest checkpoints whenever a scenario's last pending job
    // lands, and at least every `CHECKPOINT_EVERY` commits — so a killed
    // thousand-seed single-scenario campaign still resumes with at most a
    // handful of jobs to redo.
    const CHECKPOINT_EVERY: usize = 16;
    let scenarios = &cfg.scenarios;
    let mut executed = 0;
    let mut commits_since_save = 0usize;
    let mut first_error: Option<io::Error> = None;
    let mut interrupted = false;
    let mut tracker = ProgressTracker::new(
        manifest.jobs.len(),
        manifest.jobs.len() - pending.len(),
        Duration::from_secs(2),
    );
    heartbeat(cfg, &telemetry, &mut tracker);
    for_each_bounded(
        pending,
        workers,
        |_, (idx, seed)| -> ((usize, u64), io::Result<JobResult>) {
            let scenario = &scenarios[idx];
            let mut buffer = Vec::new();
            // Job scope "<scenario>/seed<k>": every event the run emits
            // (phase histograms, incremental counters) carries its origin.
            let job_telemetry = telemetry.with_scope(&format!("{}/seed{seed}", scenario.name));
            let span = job_telemetry.span("job");
            let result = scenario
                .run_job_traced(seed, &mut buffer, &job_telemetry)
                .map(|metrics| (seed, buffer, metrics));
            span.end_with(&[(
                "status",
                FieldValue::Str(if result.is_ok() { "ok" } else { "error" }),
            )]);
            ((idx, seed), result)
        },
        |_, ((idx, seed), result)| {
            let scenario = &scenarios[idx];
            let commit = result.and_then(|(seed, buffer, metrics)| {
                let rel = format!("{}/seed{}.csv", scenario.name, seed);
                fs::write(cfg.out_dir.join(&rel), &buffer)?;
                tracker.job_done(rounds_of(&metrics));
                let record = manifest
                    .record_mut(&scenario.name, seed)
                    .expect("record exists for every job");
                record.status = JobStatus::Done;
                record.artifact = rel;
                record.metrics = metrics;
                executed += 1;
                commits_since_save += 1;
                remaining_per_scenario[idx] -= 1;
                if remaining_per_scenario[idx] == 0 {
                    progress(cfg, &format!("{}: all seeds done", scenario.name));
                    if let Some(span) = scenario_spans[idx].take() {
                        span.end_with(&[("jobs", FieldValue::U64(scenario.seeds.count))]);
                    }
                }
                if remaining_per_scenario[idx] == 0 || commits_since_save >= CHECKPOINT_EVERY {
                    manifest.save(&cfg.out_dir)?;
                    commits_since_save = 0;
                }
                heartbeat(cfg, &telemetry, &mut tracker);
                Ok(())
            });
            match commit {
                // A signal between commits cancels the remaining matrix;
                // the just-committed job is already durable (or will be
                // in the checkpoint below), so nothing recomputes.
                Ok(()) if mhca_service::signals::shutdown_requested() => {
                    interrupted = true;
                    false
                }
                Ok(()) => true,
                Err(e) => {
                    telemetry
                        .with_scope(&scenario.name)
                        .error("job", &format!("seed {seed} failed: {e}"));
                    first_error = Some(io::Error::new(
                        e.kind(),
                        format!("job {}/seed{seed}: {e}", scenario.name),
                    ));
                    false // cancel remaining work
                }
            }
        },
    );
    if let Some(e) = first_error {
        // Checkpoint what completed before surfacing the failure, so a
        // rerun resumes instead of recomputing. Flush telemetry so the
        // failure event (and everything before it) is on disk.
        let _ = manifest.save(&cfg.out_dir);
        drop(scenario_spans);
        campaign_span.end_with(&[("status", FieldValue::Str("error"))]);
        telemetry.flush();
        return Err(e);
    }
    if interrupted {
        // Same checkpoint discipline for SIGINT/SIGTERM: flush the
        // manifest and the trace, then exit with `Interrupted` so the
        // shell sees a non-zero status. Rerunning the identical command
        // resumes from the checkpoint.
        manifest.save(&cfg.out_dir)?;
        let (done, still_pending) = manifest.progress();
        progress(
            cfg,
            &format!("interrupted: manifest checkpointed ({done} done, {still_pending} pending)"),
        );
        drop(scenario_spans);
        campaign_span.end_with(&[("status", FieldValue::Str("interrupted"))]);
        telemetry.flush();
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "interrupted by signal; manifest checkpointed — rerun to resume",
        ));
    }

    // ---- Aggregation and campaign-level artifacts.
    let summaries = summarize(&manifest, &cfg.scenarios);
    write_campaign_csv(&cfg.out_dir, &manifest)?;
    for summary in &summaries {
        write_summary_csv(&cfg.out_dir, summary)?;
    }
    write_campaign_json(&cfg.out_dir, &manifest, &summaries)?;
    manifest.save(&cfg.out_dir)?;
    // Final heartbeat (always due at completion) + campaign span close.
    heartbeat(cfg, &telemetry, &mut tracker);
    campaign_span.end_with(&[
        ("status", FieldValue::Str("ok")),
        ("executed", FieldValue::U64(executed as u64)),
        ("skipped", FieldValue::U64(skipped as u64)),
    ]);
    telemetry.flush();
    progress(
        cfg,
        &format!(
            "campaign '{}' complete: {executed} executed, {skipped} skipped, artifacts in {}",
            cfg.name,
            cfg.out_dir.display()
        ),
    );

    Ok(CampaignOutcome {
        executed,
        skipped,
        manifest,
        summaries,
    })
}

fn progress(cfg: &CampaignConfig, message: &str) {
    if !cfg.quiet {
        eprintln!("[mhca-campaign] {message}");
    }
}

/// Decision rounds a finished job executed, for the rounds/sec heartbeat
/// rate: the first `decisions` metric row (headline or observer-prefixed,
/// e.g. `comm-totals:decisions`), 0 when the scenario tracks none.
fn rounds_of(metrics: &[(String, f64)]) -> u64 {
    metrics
        .iter()
        .find(|(name, _)| name == "decisions" || name.ends_with(":decisions"))
        .map(|&(_, v)| v.max(0.0) as u64)
        .unwrap_or(0)
}

/// Rate-limited progress emission: a stderr line under `--progress`, a
/// `progress.json` snapshot plus a `progress` telemetry event whenever
/// either progress or tracing is on. The tracker guarantees the first and
/// last heartbeats always fire, so even sub-second campaigns leave one.
fn heartbeat(cfg: &CampaignConfig, telemetry: &Telemetry, tracker: &mut ProgressTracker) {
    if !cfg.progress && !cfg.trace {
        return;
    }
    if !tracker.should_emit() {
        return;
    }
    let snapshot = tracker.snapshot();
    if cfg.progress && !cfg.quiet {
        eprintln!("[mhca-campaign] {}", snapshot.heartbeat_line());
    }
    write_progress_json(&cfg.out_dir, &snapshot);
    telemetry.event(
        EventKind::Progress,
        "heartbeat",
        &[
            ("done", FieldValue::U64(snapshot.done as u64)),
            ("total", FieldValue::U64(snapshot.total as u64)),
            ("jobs_per_s", FieldValue::F64(snapshot.jobs_per_s)),
            ("rounds_per_s", FieldValue::F64(snapshot.rounds_per_s)),
            ("eta_s", FieldValue::F64(snapshot.eta_s.unwrap_or(f64::NAN))),
        ],
    );
}

/// Best-effort `progress.json` write (a failed snapshot must not fail the
/// campaign).
fn write_progress_json(out_dir: &Path, snapshot: &ProgressSnapshot) {
    let mut body = snapshot.to_json();
    body.push('\n');
    let _ = fs::write(out_dir.join("progress.json"), body);
}

/// Cross-seed aggregation from the manifest's per-job metrics (done jobs
/// only), preserving each scenario's metric emission order.
pub fn summarize(manifest: &Manifest, scenarios: &[ScenarioSpec]) -> Vec<ScenarioSummary> {
    scenarios
        .iter()
        .map(|scenario| {
            let mut order: Vec<String> = Vec::new();
            let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
            for seed in scenario.seeds.iter() {
                let Some(record) = manifest.record(&scenario.name, seed) else {
                    continue;
                };
                if record.status != JobStatus::Done {
                    continue;
                }
                for (metric, value) in &record.metrics {
                    match samples.iter_mut().find(|(name, _)| name == metric) {
                        Some((_, xs)) => xs.push(*value),
                        None => {
                            order.push(metric.clone());
                            samples.push((metric.clone(), vec![*value]));
                        }
                    }
                }
            }
            let aggregates = order
                .iter()
                .map(|metric| {
                    let xs = &samples
                        .iter()
                        .find(|(name, _)| name == metric)
                        .expect("ordered metric has samples")
                        .1;
                    (metric.clone(), Aggregate::from_samples(xs))
                })
                .collect();
            ScenarioSummary {
                name: scenario.name.clone(),
                aggregates,
            }
        })
        .collect()
}

/// `campaign.csv`: every done job's metrics in long format.
fn write_campaign_csv(out_dir: &Path, manifest: &Manifest) -> io::Result<()> {
    let file = fs::File::create(out_dir.join("campaign.csv"))?;
    let mut w = CsvWriter::new(io::BufWriter::new(file));
    w.row(&["scenario", "seed", "metric", "value"])?;
    for record in &manifest.jobs {
        if record.status != JobStatus::Done {
            continue;
        }
        for (metric, value) in &record.metrics {
            w.row(&[
                record.scenario.clone(),
                record.seed.to_string(),
                metric.clone(),
                format!("{value}"),
            ])?;
        }
    }
    Ok(())
}

/// `<scenario>/summary.csv`: mean ± std-dev per metric across seeds.
fn write_summary_csv(out_dir: &Path, summary: &ScenarioSummary) -> io::Result<()> {
    let dir = out_dir.join(&summary.name);
    fs::create_dir_all(&dir)?;
    let file = fs::File::create(dir.join("summary.csv"))?;
    let mut w = CsvWriter::new(io::BufWriter::new(file));
    w.row(&["metric", "runs", "mean", "std_dev", "min", "max"])?;
    for (metric, agg) in &summary.aggregates {
        w.row(&[
            metric.clone(),
            agg.runs.to_string(),
            format!("{}", agg.mean),
            format!("{}", agg.std_dev),
            format!("{}", agg.min),
            format!("{}", agg.max),
        ])?;
    }
    Ok(())
}

/// `campaign.json`: spec, per-job metrics, and aggregates in one document
/// (emitted by the hand-rolled `json` module).
fn write_campaign_json(
    out_dir: &Path,
    manifest: &Manifest,
    summaries: &[ScenarioSummary],
) -> io::Result<()> {
    let jobs = Json::Arr(
        manifest
            .jobs
            .iter()
            .map(|record| record.to_json())
            .collect(),
    );
    let aggregates = Json::Arr(
        summaries
            .iter()
            .map(|summary| {
                Json::obj(vec![
                    ("scenario", Json::str(&summary.name)),
                    (
                        "metrics",
                        Json::Obj(
                            summary
                                .aggregates
                                .iter()
                                .map(|(metric, agg)| {
                                    (
                                        metric.clone(),
                                        Json::obj(vec![
                                            ("runs", Json::Num(agg.runs as f64)),
                                            ("mean", Json::Num(agg.mean)),
                                            ("std_dev", Json::Num(agg.std_dev)),
                                            ("min", Json::Num(agg.min)),
                                            ("max", Json::Num(agg.max)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let doc = Json::obj(vec![
        ("campaign", Json::str(&manifest.campaign)),
        ("spec_hash", Json::str(&manifest.spec_hash)),
        ("spec", manifest.spec.clone()),
        ("jobs", jobs),
        ("aggregates", aggregates),
    ]);
    fs::write(out_dir.join("campaign.json"), doc.to_string_pretty())
}
