//! The campaign surface: one workload scenario run through
//! `mhca_campaign::runner::run` into a temporary out-dir.

use crate::cpu;
use crate::stats::Fnv;
use mhca_campaign::{runner, CampaignConfig, JobStatus, ScenarioSpec};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory the benchmark writes into: campaign out-dirs and traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One seed's committed job.
pub struct SeedOutput {
    /// The seed.
    pub seed: u64,
    /// Metric rows from the manifest record.
    pub rows: Vec<(String, f64)>,
    /// Digest of the seed's artifact file.
    pub artifact: u64,
}

/// One `runner::run` call.
pub struct CampaignRun {
    /// Wall time of `runner::run`, seconds.
    pub wall_s: f64,
    /// Process CPU time of `runner::run` (every worker), seconds.
    pub cpu_s: f64,
    /// Jobs the run executed.
    pub executed: usize,
    /// Per-seed outputs, in seed order.
    pub seeds: Vec<SeedOutput>,
    /// Bytes of every file the campaign wrote.
    pub bytes: u64,
}

impl CampaignRun {
    /// Digest over every seed's artifact and metric rows.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for s in &self.seeds {
            h.u64(s.seed);
            h.u64(s.artifact);
            h.bytes(format!("{:?}", s.rows).as_bytes());
        }
        h.0
    }
}

/// Runs `spec` as a fresh campaign on `workers` workers in a new
/// directory named `tag` under [`out_dir`], reads its outputs back, and
/// removes the directory.
pub fn run(spec: &ScenarioSpec, workers: usize, tag: &str) -> io::Result<CampaignRun> {
    let dir = out_dir().join(format!("campaign-{}-{tag}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir)?;
    }
    let mut cfg = CampaignConfig::new("perfbench", &dir, vec![spec.clone()]);
    cfg.jobs = Some(workers);
    cfg.parallel = workers > 1;
    cfg.quiet = true;
    let start = Instant::now();
    let cpu_start = cpu::process_s();
    let result = runner::run(&cfg);
    let cpu_s = cpu::process_s() - cpu_start;
    let wall_s = start.elapsed().as_secs_f64();
    let outcome = result.and_then(|outcome| {
        let mut seeds = Vec::new();
        for seed in spec.seeds.iter() {
            let record = outcome.manifest.record(&spec.name, seed).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no record for seed {seed}"),
                )
            })?;
            if record.status != JobStatus::Done {
                return Err(io::Error::other(format!("seed {seed} is not done")));
            }
            let artifact = fs::read(dir.join(&record.artifact))?;
            seeds.push(SeedOutput {
                seed,
                rows: record.metrics.clone(),
                artifact: Fnv::of(&artifact),
            });
        }
        Ok(CampaignRun {
            wall_s,
            cpu_s,
            executed: outcome.executed,
            seeds,
            bytes: dir_bytes(&dir)?,
        })
    });
    fs::remove_dir_all(&dir)?;
    outcome
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
