//! Session records: the supervisor's unit of work and its durable form.
//!
//! A session is one submitted scenario — a seed list, an artifact
//! directory, and a cursor through the seeds. Its durable form is a
//! single `session.json` under the daemon's state directory, rewritten
//! atomically (temp file + rename) at every commit point: seed
//! completion, checkpoint, pause, terminal transition. A killed daemon
//! therefore restarts from the last commit point: completed seeds are
//! never re-run (their artifacts are already on disk), and the in-flight
//! seed resumes from its mid-seed checkpoint when one was taken.
//!
//! Metric values are stored as hex `f64` bit patterns (the
//! [`checkpoint`](crate::checkpoint) codec), so a resumed session's
//! final summary is byte-identical to an uninterrupted one's.

use crate::checkpoint::{f64_from_json, f64_to_json, u64_from_json, u64_to_json};
use crate::json::{parse, Json};
use std::path::Path;

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Submitted, worker not yet running a seed.
    Queued,
    /// Worker actively stepping a seed.
    Running,
    /// Parked at a decision-period boundary (explicit `pause`, or
    /// recovered from disk after a daemon restart and awaiting
    /// `resume`).
    Paused,
    /// All seeds completed.
    Done,
    /// Stopped by `cancel`; artifacts of completed seeds remain.
    Cancelled,
    /// The executor reported an error; see the record's `error`.
    Failed,
}

impl SessionStatus {
    /// Wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionStatus::Queued => "queued",
            SessionStatus::Running => "running",
            SessionStatus::Paused => "paused",
            SessionStatus::Done => "done",
            SessionStatus::Cancelled => "cancelled",
            SessionStatus::Failed => "failed",
        }
    }

    /// Inverse of [`as_str`](SessionStatus::as_str).
    pub fn parse(s: &str) -> Result<SessionStatus, String> {
        match s {
            "queued" => Ok(SessionStatus::Queued),
            "running" => Ok(SessionStatus::Running),
            "paused" => Ok(SessionStatus::Paused),
            "done" => Ok(SessionStatus::Done),
            "cancelled" => Ok(SessionStatus::Cancelled),
            "failed" => Ok(SessionStatus::Failed),
            other => Err(format!("unknown session status {other:?}")),
        }
    }

    /// Whether the session will make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SessionStatus::Done | SessionStatus::Cancelled | SessionStatus::Failed
        )
    }
}

/// One completed seed: its headline + observer metrics in emission
/// order. The rendered artifact lives in the session's `out_dir`, not
/// here.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRecord {
    /// The seed.
    pub seed: u64,
    /// `(metric name, value)` rows.
    pub metrics: Vec<(String, f64)>,
}

/// A mid-seed checkpoint: which seed, and the executor's serialized
/// state ([`Json::Null`] for kinds without mid-seed state — resume
/// restarts that seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Seed the state belongs to.
    pub seed: u64,
    /// Executor state, as handed to
    /// [`JobCtrl::save_checkpoint`](crate::executor::JobCtrl::save_checkpoint).
    pub state: Json,
}

/// The durable session record (`session.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Session id (auto-assigned or client-chosen).
    pub id: String,
    /// The scenario document as submitted.
    pub scenario: Json,
    /// Artifact directory.
    pub out_dir: String,
    /// Experiment kind tag (from the executor's job plan).
    pub kind: String,
    /// All seeds, in run order.
    pub seeds: Vec<u64>,
    /// Seeds finished so far, in completion order.
    pub completed: Vec<SeedRecord>,
    /// Mid-seed checkpoint, if one is pending.
    pub checkpoint: Option<Checkpoint>,
    /// Current lifecycle state.
    pub status: SessionStatus,
    /// Failure message when `status == Failed`.
    pub error: Option<String>,
}

impl SessionRecord {
    /// Seeds not yet completed, in run order.
    pub fn remaining_seeds(&self) -> Vec<u64> {
        self.seeds
            .iter()
            .copied()
            .filter(|s| !self.completed.iter().any(|c| c.seed == *s))
            .collect()
    }

    /// Serializes to the `session.json` document.
    pub fn to_json(&self) -> Json {
        let completed = Json::Arr(
            self.completed
                .iter()
                .map(|rec| {
                    Json::obj(vec![
                        ("seed", u64_to_json(rec.seed)),
                        (
                            "metrics",
                            Json::Arr(
                                rec.metrics
                                    .iter()
                                    .map(|(name, value)| {
                                        Json::Arr(vec![
                                            Json::Str(name.clone()),
                                            f64_to_json(*value),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let checkpoint = match &self.checkpoint {
            Some(cp) => Json::obj(vec![
                ("seed", u64_to_json(cp.seed)),
                ("state", cp.state.clone()),
            ]),
            None => Json::Null,
        };
        Json::obj(vec![
            ("format", Json::Str("mhca-session-v1".to_string())),
            ("id", Json::Str(self.id.clone())),
            ("scenario", self.scenario.clone()),
            ("out_dir", Json::Str(self.out_dir.clone())),
            ("kind", Json::Str(self.kind.clone())),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| u64_to_json(s)).collect()),
            ),
            ("completed", completed),
            ("checkpoint", checkpoint),
            ("status", Json::Str(self.status.as_str().to_string())),
            (
                "error",
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Inverse of [`to_json`](SessionRecord::to_json).
    pub fn from_json(v: &Json) -> Result<SessionRecord, String> {
        let format = v.get("format").and_then(Json::as_str).unwrap_or("");
        if format != "mhca-session-v1" {
            return Err(format!("unsupported session format {format:?}"));
        }
        let field_str = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("session record missing string `{key}`"))
        };
        let seeds = v
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or_else(|| "session record missing `seeds` array".to_string())?
            .iter()
            .map(u64_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let completed =
            v.get("completed")
                .and_then(Json::as_arr)
                .ok_or_else(|| "session record missing `completed` array".to_string())?
                .iter()
                .map(|rec| {
                    let seed = rec
                        .get("seed")
                        .ok_or_else(|| "completed entry missing `seed`".to_string())
                        .and_then(u64_from_json)?;
                    let metrics =
                        rec.get("metrics")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| "completed entry missing `metrics`".to_string())?
                            .iter()
                            .map(|pair| {
                                let row = pair.as_arr().filter(|row| row.len() == 2).ok_or_else(
                                    || "metric row must be [name, value]".to_string(),
                                )?;
                                let name = row[0]
                                    .as_str()
                                    .ok_or_else(|| "metric name must be a string".to_string())?;
                                Ok((name.to_string(), f64_from_json(&row[1])?))
                            })
                            .collect::<Result<Vec<_>, String>>()?;
                    Ok(SeedRecord { seed, metrics })
                })
                .collect::<Result<Vec<_>, String>>()?;
        let checkpoint = match v.get("checkpoint") {
            None | Some(Json::Null) => None,
            Some(cp) => Some(Checkpoint {
                seed: cp
                    .get("seed")
                    .ok_or_else(|| "checkpoint missing `seed`".to_string())
                    .and_then(u64_from_json)?,
                state: cp
                    .get("state")
                    .cloned()
                    .ok_or_else(|| "checkpoint missing `state`".to_string())?,
            }),
        };
        Ok(SessionRecord {
            id: field_str("id")?,
            scenario: v
                .get("scenario")
                .cloned()
                .ok_or_else(|| "session record missing `scenario`".to_string())?,
            out_dir: field_str("out_dir")?,
            kind: field_str("kind")?,
            seeds,
            completed,
            checkpoint,
            status: SessionStatus::parse(&field_str("status")?)?,
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// Durably rewrites `path` ([`crate::replace_file`]), so neither a
    /// kill nor a power loss leaves a torn record.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut text = self.to_json().to_string_pretty();
        text.push('\n');
        crate::replace_file(path, text.as_bytes())
    }

    /// Loads and validates a `session.json`.
    pub fn load(path: &Path) -> Result<SessionRecord, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = parse(&text).map_err(|e| {
            format!(
                "{}: bad JSON at byte {}: {}",
                path.display(),
                e.offset,
                e.message
            )
        })?;
        SessionRecord::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A point-in-time status snapshot, as reported by `status`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// Session id.
    pub id: String,
    /// Lifecycle state.
    pub status: SessionStatus,
    /// Experiment kind tag.
    pub kind: String,
    /// Total seeds in the session.
    pub seeds_total: usize,
    /// Seeds completed.
    pub seeds_done: usize,
    /// Slots simulated in the in-flight seed (0 when idle).
    pub slots_done: u64,
    /// Total slots in the in-flight seed (0 when idle or unknown).
    pub slots_total: u64,
    /// Failure message when failed.
    pub error: Option<String>,
}

impl SessionInfo {
    /// Serializes for a `status` response. Counters here are plain JSON
    /// numbers (they are well under 2^53); only checkpoint state needs
    /// the exact codec.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("status", Json::Str(self.status.as_str().to_string())),
            ("kind", Json::Str(self.kind.clone())),
            ("seeds_total", Json::Num(self.seeds_total as f64)),
            ("seeds_done", Json::Num(self.seeds_done as f64)),
            ("slots_done", Json::Num(self.slots_done as f64)),
            ("slots_total", Json::Num(self.slots_total as f64)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionRecord {
        SessionRecord {
            id: "sess1".to_string(),
            scenario: Json::obj(vec![("name", Json::Str("quick".to_string()))]),
            out_dir: "/tmp/out".to_string(),
            kind: "policy-run".to_string(),
            seeds: vec![3, 4, 5],
            completed: vec![SeedRecord {
                seed: 3,
                metrics: vec![
                    ("avg_expected_kbps".to_string(), 123.456),
                    ("comm:transmissions".to_string(), -0.0),
                ],
            }],
            checkpoint: Some(Checkpoint {
                seed: 4,
                state: Json::obj(vec![("slot", Json::Str("0x0000000000000280".to_string()))]),
            }),
            status: SessionStatus::Paused,
            error: None,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = sample();
        let back = SessionRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(rec.id, back.id);
        assert_eq!(rec.seeds, back.seeds);
        assert_eq!(rec.status, back.status);
        assert_eq!(rec.checkpoint, back.checkpoint);
        assert_eq!(back.completed.len(), 1);
        assert_eq!(back.completed[0].metrics[0].0, "avg_expected_kbps");
        assert_eq!(
            back.completed[0].metrics[1].1.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(back.remaining_seeds(), vec![4, 5]);
    }

    #[test]
    fn record_round_trips_through_disk_atomically() {
        let dir = std::env::temp_dir().join("mhca_session_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.json");
        let rec = sample();
        rec.save(&path).unwrap();
        assert!(!path.with_extension("json.tmp").exists());
        let back = SessionRecord::load(&path).unwrap();
        assert_eq!(rec, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_formats_and_statuses_are_rejected() {
        let mut rec = sample().to_json();
        if let Json::Obj(pairs) = &mut rec {
            pairs[0].1 = Json::Str("mhca-session-v9".to_string());
        }
        assert!(SessionRecord::from_json(&rec).is_err());
        assert!(SessionStatus::parse("zombie").is_err());
    }

    #[test]
    fn terminal_states() {
        assert!(SessionStatus::Done.is_terminal());
        assert!(SessionStatus::Cancelled.is_terminal());
        assert!(SessionStatus::Failed.is_terminal());
        assert!(!SessionStatus::Running.is_terminal());
        assert!(!SessionStatus::Paused.is_terminal());
        assert!(!SessionStatus::Queued.is_terminal());
    }
}
