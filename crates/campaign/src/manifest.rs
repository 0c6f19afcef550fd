//! Durable campaign manifests: the on-disk record that makes campaigns
//! resumable.
//!
//! A manifest lives at `<out_dir>/manifest.json` and holds the campaign
//! id, the canonical spec (plus its hash), and one record per job with
//! its status, artifact path, and headline metrics. The runner rewrites
//! it after every completed batch (write-temp + rename, so a kill leaves
//! either the old or the new manifest, never a torn one); on restart,
//! jobs recorded `done` — with their artifact still present — are skipped
//! and their metrics reused, so a killed campaign continues where it
//! stopped instead of recomputing finished work.

use crate::spec::{campaign_json, spec_hash, Job, ScenarioSpec};
use mhca_service::json::{self, Json};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Status of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Not yet executed (or executed but not recorded).
    Pending,
    /// Executed; metrics and artifact recorded.
    Done,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Pending => "pending",
            JobStatus::Done => "done",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "pending" => Some(JobStatus::Pending),
            "done" => Some(JobStatus::Done),
            _ => None,
        }
    }
}

/// One job's durable record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Scenario name.
    pub scenario: String,
    /// Seed.
    pub seed: u64,
    /// Execution status.
    pub status: JobStatus,
    /// Artifact path relative to the manifest's directory (empty until
    /// the job ran).
    pub artifact: String,
    /// Headline metrics, in emission order.
    pub metrics: Vec<(String, f64)>,
}

impl JobRecord {
    /// A fresh pending record for a job.
    pub fn pending(job: &Job) -> Self {
        JobRecord {
            scenario: job.scenario.clone(),
            seed: job.seed,
            status: JobStatus::Pending,
            artifact: String::new(),
            metrics: Vec::new(),
        }
    }

    /// Stable job identifier (`<scenario>/seed<seed>`).
    pub fn id(&self) -> String {
        format!("{}/seed{}", self.scenario, self.seed)
    }

    /// The record's JSON form — used for both `manifest.json` and the
    /// jobs array of `campaign.json`, so the two cannot diverge.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scenario", Json::str(&self.scenario)),
            ("seed", Json::Num(self.seed as f64)),
            ("status", Json::str(self.status.as_str())),
            ("artifact", Json::str(&self.artifact)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let scenario = v
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("job missing scenario")?
            .to_string();
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("job missing seed")?;
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .and_then(JobStatus::parse)
            .ok_or("job missing status")?;
        let artifact = v
            .get("artifact")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let metrics = match v.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| format!("metric {k} is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        Ok(JobRecord {
            scenario,
            seed,
            status,
            artifact,
            metrics,
        })
    }
}

/// The durable campaign record.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name.
    pub campaign: String,
    /// FNV-1a hash of the canonical spec JSON (resume guard).
    pub spec_hash: String,
    /// The canonical spec itself, for human inspection.
    pub spec: Json,
    /// Build + host provenance of the session that created the manifest
    /// (`host_threads`, rustc version, git commit), so machine-conditional
    /// numbers in the recorded metrics are self-describing. `Json::Null`
    /// in manifests written before provenance stamping existed — resume
    /// tolerates both.
    pub provenance: Json,
    /// One record per job, in job-matrix order.
    pub jobs: Vec<JobRecord>,
}

/// The current build/host provenance as a JSON object.
pub fn provenance_json() -> Json {
    let p = mhca_telemetry::Provenance::capture();
    Json::obj(vec![
        ("host_threads", Json::Num(p.host_threads as f64)),
        ("rustc", Json::str(p.rustc)),
        ("git_commit", Json::str(p.git_commit)),
    ])
}

impl Manifest {
    /// File name inside a campaign output directory.
    pub const FILE_NAME: &'static str = "manifest.json";

    /// A fresh manifest: every job pending.
    pub fn new(name: &str, scenarios: &[ScenarioSpec], jobs: &[Job]) -> Self {
        Manifest {
            campaign: name.to_string(),
            spec_hash: spec_hash(name, scenarios),
            spec: campaign_json(name, scenarios),
            provenance: provenance_json(),
            jobs: jobs.iter().map(JobRecord::pending).collect(),
        }
    }

    /// The manifest path inside `out_dir`.
    pub fn path_in(out_dir: &Path) -> PathBuf {
        out_dir.join(Self::FILE_NAME)
    }

    /// Renders the manifest as pretty JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("campaign", Json::str(&self.campaign)),
            ("spec_hash", Json::str(&self.spec_hash)),
            ("spec", self.spec.clone()),
            ("provenance", self.provenance.clone()),
            (
                "jobs",
                Json::Arr(self.jobs.iter().map(JobRecord::to_json).collect()),
            ),
        ])
    }

    /// Parses a manifest document.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let campaign = v
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or("manifest missing campaign")?
            .to_string();
        let spec_hash = v
            .get("spec_hash")
            .and_then(Json::as_str)
            .ok_or("manifest missing spec_hash")?
            .to_string();
        let spec = v.get("spec").cloned().unwrap_or(Json::Null);
        let provenance = v.get("provenance").cloned().unwrap_or(Json::Null);
        let jobs = v
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("manifest missing jobs")?
            .iter()
            .map(JobRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Manifest {
            campaign,
            spec_hash,
            spec,
            provenance,
            jobs,
        })
    }

    /// Durably writes the manifest into `out_dir`
    /// ([`mhca_service::replace_file`]), so neither a kill nor a power
    /// loss leaves a torn manifest.
    pub fn save(&self, out_dir: &Path) -> io::Result<()> {
        let text = self.to_json().to_string_pretty();
        mhca_service::replace_file(&Self::path_in(out_dir), text.as_bytes())
    }

    /// Loads the manifest from `out_dir`; `Ok(None)` when absent.
    pub fn load(out_dir: &Path) -> io::Result<Option<Manifest>> {
        let path = Self::path_in(out_dir);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let value = json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Manifest::from_json(&value)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The record for a job id, if present.
    pub fn record(&self, scenario: &str, seed: u64) -> Option<&JobRecord> {
        self.jobs
            .iter()
            .find(|r| r.scenario == scenario && r.seed == seed)
    }

    /// Mutable record lookup.
    pub fn record_mut(&mut self, scenario: &str, seed: u64) -> Option<&mut JobRecord> {
        self.jobs
            .iter_mut()
            .find(|r| r.scenario == scenario && r.seed == seed)
    }

    /// `true` when the record for this job says `done` **and** its
    /// artifact (if any) still exists under `out_dir` — a deleted
    /// artifact demotes the job to pending so resume regenerates it.
    pub fn is_complete(&self, out_dir: &Path, scenario: &str, seed: u64) -> bool {
        match self.record(scenario, seed) {
            Some(r) if r.status == JobStatus::Done => {
                r.artifact.is_empty() || out_dir.join(&r.artifact).is_file()
            }
            _ => false,
        }
    }

    /// Counts of (done, pending) records.
    pub fn progress(&self) -> (usize, usize) {
        let done = self
            .jobs
            .iter()
            .filter(|r| r.status == JobStatus::Done)
            .count();
        (done, self.jobs.len() - done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::quick_registry;
    use crate::spec::expand_jobs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mhca-campaign-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let scenarios = quick_registry();
        let jobs = expand_jobs(&scenarios);
        let mut manifest = Manifest::new("smoke", &scenarios, &jobs);
        manifest.jobs[0].status = JobStatus::Done;
        manifest.jobs[0].artifact = "fig6-quick/seed61.csv".into();
        manifest.jobs[0].metrics = vec![("final_weight_30x3".into(), 1234.5)];

        let dir = tmp_dir("roundtrip");
        manifest.save(&dir).unwrap();
        let loaded = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(loaded, manifest);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_stamps_provenance_and_tolerates_its_absence() {
        let scenarios = quick_registry();
        let jobs = expand_jobs(&scenarios);
        let manifest = Manifest::new("smoke", &scenarios, &jobs);
        let p = &manifest.provenance;
        assert!(p.get("host_threads").and_then(Json::as_u64).unwrap() >= 1);
        assert!(!p.get("rustc").and_then(Json::as_str).unwrap().is_empty());
        assert!(!p
            .get("git_commit")
            .and_then(Json::as_str)
            .unwrap()
            .is_empty());

        // Manifests written before provenance stamping existed still
        // load: the field degrades to Null instead of failing resume.
        let Json::Obj(mut pairs) = manifest.to_json() else {
            panic!("manifest JSON must be an object");
        };
        pairs.retain(|(k, _)| k != "provenance");
        let old = Manifest::from_json(&Json::Obj(pairs)).unwrap();
        assert_eq!(old.provenance, Json::Null);
        assert_eq!(old.jobs, manifest.jobs);
    }

    #[test]
    fn load_missing_is_none() {
        let dir = tmp_dir("missing");
        assert!(Manifest::load(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn completion_requires_done_status_and_artifact() {
        let scenarios = quick_registry();
        let jobs = expand_jobs(&scenarios);
        let mut manifest = Manifest::new("smoke", &scenarios, &jobs);
        let dir = tmp_dir("complete");

        // Pending: not complete.
        assert!(!manifest.is_complete(&dir, "fig6-quick", 61));

        // Done with a missing artifact: still not complete.
        {
            let rec = manifest.record_mut("fig6-quick", 61).unwrap();
            rec.status = JobStatus::Done;
            rec.artifact = "fig6-quick/seed61.csv".into();
        }
        assert!(!manifest.is_complete(&dir, "fig6-quick", 61));

        // Artifact present: complete.
        fs::create_dir_all(dir.join("fig6-quick")).unwrap();
        fs::write(dir.join("fig6-quick/seed61.csv"), "x\n").unwrap();
        assert!(manifest.is_complete(&dir, "fig6-quick", 61));

        // Done with no artifact recorded counts as complete (table2-style
        // metric-only jobs).
        {
            let rec = manifest.record_mut("fig6-quick", 62).unwrap();
            rec.status = JobStatus::Done;
        }
        assert!(manifest.is_complete(&dir, "fig6-quick", 62));

        assert_eq!(manifest.progress(), (2, 4));
        fs::remove_dir_all(&dir).unwrap();
    }
}
