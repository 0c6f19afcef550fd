//! The supervisor: owns sessions, their worker threads, and their
//! durable records.
//!
//! One worker thread per session (no pool — sessions are few and
//! long-lived; seeds within a session run sequentially so mid-seed
//! checkpoints have a single cursor). The worker drives
//! [`Executor::run_seed`] and control flows back through
//! `WorkerCtrl`'s [`JobCtrl`] implementation, which the executor polls
//! at every decision-period boundary:
//!
//! * **pause** marks the session paused and returns a
//!   [`Directive::Checkpoint`] so the pause point is durable, then parks
//!   the worker inside `poll` until resume/cancel/shutdown; like
//!   checkpoint, it answers once the pause checkpoint is on disk, or with
//!   the error that kept it off;
//! * **checkpoint** hands a reply channel to the worker, which answers
//!   after `session.json` hits disk, or with the error that kept it off;
//! * **shutdown** (command, SIGINT/SIGTERM, or a dropped control
//!   channel) returns [`Directive::CheckpointAndStop`]: the executor
//!   serializes its state and unwinds, leaving the session `paused` and
//!   resumable — even across a daemon restart.
//!
//! Every commit point rewrites the session record atomically, so a
//! `kill -9` between commits only loses work since the last checkpoint;
//! determinism of the experiment stack makes the re-run of that tail
//! byte-identical. A record that cannot be written is never ignored: a
//! call waiting on the commit (opening the state directory, submit,
//! pause, checkpoint, cancel of a recovered session) returns the error,
//! and a transition nobody waits on (running, resumed, seed done,
//! cancelled, stopped, done, failed, a shutdown checkpoint) publishes a
//! `persist_failed` event carrying it.

use crate::bus::{BusSink, EventBus};
use crate::executor::{Directive, Executor, JobCtrl, JobProgress};
use crate::json::Json;
use crate::relock;
use crate::session::{Checkpoint, SeedRecord, SessionInfo, SessionRecord, SessionStatus};
use mhca_telemetry::{FanoutSink, JsonlSink, Telemetry, TraceSink};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default events retained per session for `watch` backfill; override
/// with [`Supervisor::with_bus_capacity`] (the `serve --bus-capacity`
/// flag).
pub const DEFAULT_BUS_CAPACITY: usize = 4096;

/// How long a `checkpoint` or `pause` command waits for the worker to
/// reach a checkpoint-safe boundary. Non-steppable kinds only poll between
/// seeds, so a long seed can exhaust this; the error says so.
const CHECKPOINT_REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Reply channel of a command that waits for its checkpoint to be saved.
type Reply = SyncSender<Result<String, String>>;

enum Ctrl {
    Pause(Reply),
    Resume,
    Checkpoint(Reply),
    Cancel,
    Shutdown,
}

enum StopReason {
    Cancelled,
    Shutdown,
}

struct SessionEntry {
    id: String,
    /// `state_dir/<id>.json`.
    path: PathBuf,
    bus: Arc<EventBus>,
    record: Mutex<SessionRecord>,
    progress: Mutex<JobProgress>,
    ctrl: Mutex<Option<Sender<Ctrl>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl SessionEntry {
    /// Writes the record; the error names the file. The in-memory
    /// record stays authoritative for this daemon's lifetime either way.
    fn persist(&self) -> Result<(), String> {
        let rec = relock(&self.record);
        rec.save(&self.path)
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))
    }

    /// [`persist`](SessionEntry::persist) for a transition no command
    /// waits on: a failure is published as a `persist_failed` event.
    fn persist_or_report(&self, transition: &str) {
        if let Err(e) = self.persist() {
            self.report_unsaved(transition, e);
        }
    }

    fn report_unsaved(&self, transition: &str, error: String) {
        self.publish_event(
            "persist_failed",
            vec![
                ("transition", Json::Str(transition.to_string())),
                ("error", Json::Str(error)),
            ],
        );
    }

    fn publish_event(&self, kind: &str, extra: Vec<(&str, Json)>) {
        let mut fields = vec![("event", Json::Str(kind.to_string()))];
        fields.extend(extra);
        self.bus.publish(Json::obj(fields).to_string_compact());
    }

    fn set_status(&self, status: SessionStatus) {
        relock(&self.record).status = status;
    }

    fn info(&self) -> SessionInfo {
        let rec = relock(&self.record);
        let progress = *relock(&self.progress);
        SessionInfo {
            id: rec.id.clone(),
            status: rec.status,
            kind: rec.kind.clone(),
            seeds_total: rec.seeds.len(),
            seeds_done: rec.completed.len(),
            slots_done: progress.slots_done,
            slots_total: progress.slots_total,
            error: rec.error.clone(),
        }
    }
}

/// The [`JobCtrl`] handed to the executor; lives on the worker thread's
/// stack for the duration of one seed.
struct WorkerCtrl<'a> {
    entry: &'a SessionEntry,
    rx: &'a Receiver<Ctrl>,
    shutdown: &'a AtomicBool,
    seed: u64,
    paused: bool,
    stop: Option<StopReason>,
    /// Commands waiting for the next checkpoint to be saved.
    pending_replies: Vec<Reply>,
}

impl WorkerCtrl<'_> {
    /// Handles one control message; `Some(directive)` overrides the
    /// default `Continue`.
    fn handle(&mut self, msg: Ctrl) -> Option<Directive> {
        match msg {
            Ctrl::Pause(reply) => {
                if self.paused {
                    let _ = reply.send(Ok("already paused".to_string()));
                    return None;
                }
                self.paused = true;
                self.entry.set_status(SessionStatus::Paused);
                self.entry.publish_event("paused", vec![]);
                // Make the pause point durable before parking: the
                // checkpoint writes the whole record, paused status
                // included, and answers the command.
                self.pending_replies.push(reply);
                Some(Directive::Checkpoint)
            }
            Ctrl::Resume => {
                if !self.paused {
                    return None;
                }
                self.paused = false;
                self.entry.set_status(SessionStatus::Running);
                self.entry.persist_or_report("resumed");
                self.entry.publish_event("resumed", vec![]);
                Some(Directive::Continue)
            }
            Ctrl::Checkpoint(reply) => {
                if self.paused {
                    // The pause already persisted a checkpoint and the
                    // worker is parked; nothing new to serialize.
                    let _ = reply.send(Ok("paused; pause checkpoint retained".to_string()));
                    return None;
                }
                self.pending_replies.push(reply);
                Some(Directive::Checkpoint)
            }
            Ctrl::Cancel => {
                self.stop = Some(StopReason::Cancelled);
                Some(Directive::Stop)
            }
            Ctrl::Shutdown => {
                self.stop = Some(StopReason::Shutdown);
                Some(Directive::CheckpointAndStop)
            }
        }
    }
}

impl JobCtrl for WorkerCtrl<'_> {
    fn poll(&mut self, progress: JobProgress) -> Directive {
        *relock(&self.entry.progress) = progress;
        if self.shutdown.load(Ordering::Relaxed) {
            self.stop = Some(StopReason::Shutdown);
            return Directive::CheckpointAndStop;
        }
        let mut directive = Directive::Continue;
        loop {
            match self.rx.try_recv() {
                Ok(msg) => {
                    if let Some(d) = self.handle(msg) {
                        match d {
                            Directive::Stop | Directive::CheckpointAndStop => return d,
                            d => directive = d,
                        }
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.stop = Some(StopReason::Shutdown);
                    return Directive::CheckpointAndStop;
                }
            }
        }
        // Park while paused. (The pause itself returned `Checkpoint`
        // above; the park begins at the *next* poll, so the persisted
        // checkpoint trails the parked position by at most one period —
        // harmless, since resuming from it deterministically replays
        // that period.)
        while self.paused && directive == Directive::Continue {
            match self.rx.recv() {
                Ok(msg) => {
                    if let Some(d) = self.handle(msg) {
                        match d {
                            Directive::Stop | Directive::CheckpointAndStop => return d,
                            d => directive = d,
                        }
                    }
                }
                Err(_) => {
                    self.stop = Some(StopReason::Shutdown);
                    return Directive::CheckpointAndStop;
                }
            }
        }
        directive
    }

    fn save_checkpoint(&mut self, state: Json) {
        let path = self.entry.path.display().to_string();
        let saved = {
            let mut rec = relock(&self.entry.record);
            rec.checkpoint = Some(Checkpoint {
                seed: self.seed,
                state,
            });
            rec.save(&self.entry.path)
        };
        let reply = match saved {
            Ok(()) => {
                self.entry
                    .publish_event("checkpointed", vec![("seed", Json::Num(self.seed as f64))]);
                Ok(path)
            }
            Err(e) => Err(format!("checkpoint not saved: cannot write {path}: {e}")),
        };
        if let Err(e) = &reply {
            if self.pending_replies.is_empty() {
                self.entry.report_unsaved("checkpoint", e.clone());
            }
        }
        for pending in self.pending_replies.drain(..) {
            let _ = pending.send(reply.clone());
        }
    }
}

/// Owns every session: submit spawns a worker, control commands route to
/// it, and the whole roster persists under one state directory.
pub struct Supervisor {
    executor: Arc<dyn Executor>,
    state_dir: PathBuf,
    bus_capacity: usize,
    sessions: Mutex<Vec<Arc<SessionEntry>>>,
    shutdown_flag: Arc<AtomicBool>,
}

impl Supervisor {
    /// Opens (or creates) a state directory and recovers every session
    /// record in it. Sessions that were `running` when the previous
    /// daemon died come back as `paused` — `resume` restarts them from
    /// their last checkpoint.
    pub fn new(executor: Arc<dyn Executor>, state_dir: PathBuf) -> Result<Supervisor, String> {
        Supervisor::with_bus_capacity(executor, state_dir, DEFAULT_BUS_CAPACITY)
    }

    /// As [`new`](Supervisor::new), with each session's event-bus ring
    /// retaining at most `bus_capacity` events (a slow `watch` client
    /// then observes a sequence gap plus the `dropped_events` counter
    /// instead of the daemon buffering without bound).
    pub fn with_bus_capacity(
        executor: Arc<dyn Executor>,
        state_dir: PathBuf,
        bus_capacity: usize,
    ) -> Result<Supervisor, String> {
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;
        let mut sessions = Vec::new();
        let mut names: Vec<PathBuf> = std::fs::read_dir(&state_dir)
            .map_err(|e| format!("cannot read state dir {}: {e}", state_dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        names.sort();
        for path in names {
            let mut record = SessionRecord::load(&path)?;
            if matches!(
                record.status,
                SessionStatus::Running | SessionStatus::Queued
            ) {
                record.status = SessionStatus::Paused;
            }
            let entry = Arc::new(SessionEntry {
                id: record.id.clone(),
                path,
                bus: Arc::new(EventBus::new(bus_capacity)),
                record: Mutex::new(record),
                progress: Mutex::new(JobProgress::default()),
                ctrl: Mutex::new(None),
                worker: Mutex::new(None),
            });
            entry.persist()?;
            sessions.push(entry);
        }
        Ok(Supervisor {
            executor,
            state_dir,
            bus_capacity,
            sessions: Mutex::new(sessions),
            shutdown_flag: Arc::new(AtomicBool::new(false)),
        })
    }

    fn find(&self, id: &str) -> Result<Arc<SessionEntry>, String> {
        relock(&self.sessions)
            .iter()
            .find(|s| s.id == id)
            .cloned()
            .ok_or_else(|| format!("no such session {id:?}"))
    }

    /// Validates and starts a session; returns its id.
    pub fn submit(
        &self,
        scenario: Json,
        out_dir: String,
        name: Option<String>,
    ) -> Result<String, String> {
        let plan = self.executor.validate(&scenario)?;
        let mut sessions = relock(&self.sessions);
        let id = match name {
            Some(name) => {
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_alphanumeric() || c == '-' || c == '_')
                {
                    return Err(format!(
                        "session name {name:?} must be non-empty [alphanumeric-_]"
                    ));
                }
                if sessions.iter().any(|s| s.id == name) {
                    return Err(format!("session {name:?} already exists"));
                }
                name
            }
            None => {
                let mut n = sessions.len() + 1;
                while sessions.iter().any(|s| s.id == format!("s{n}")) {
                    n += 1;
                }
                format!("s{n}")
            }
        };
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("cannot create out dir {out_dir}: {e}"))?;
        let record = SessionRecord {
            id: id.clone(),
            scenario,
            out_dir,
            kind: plan.kind,
            seeds: plan.seeds,
            completed: Vec::new(),
            checkpoint: None,
            status: SessionStatus::Queued,
            error: None,
        };
        let entry = Arc::new(SessionEntry {
            id: id.clone(),
            path: self.state_dir.join(format!("{id}.json")),
            bus: Arc::new(EventBus::new(self.bus_capacity)),
            record: Mutex::new(record),
            progress: Mutex::new(JobProgress::default()),
            ctrl: Mutex::new(None),
            worker: Mutex::new(None),
        });
        entry.persist()?;
        entry.publish_event("submitted", vec![("session", Json::Str(id.clone()))]);
        self.spawn_worker(entry.clone());
        sessions.push(entry);
        Ok(id)
    }

    fn spawn_worker(&self, entry: Arc<SessionEntry>) {
        let (tx, rx) = mpsc::channel();
        // Join any finished previous worker before replacing it.
        if let Some(old) = relock(&entry.worker).take() {
            let _ = old.join();
        }
        *relock(&entry.ctrl) = Some(tx);
        let executor = self.executor.clone();
        let shutdown = self.shutdown_flag.clone();
        let entry2 = entry.clone();
        let handle = std::thread::spawn(move || worker_loop(executor, entry2, rx, shutdown));
        *relock(&entry.worker) = Some(handle);
    }

    /// Status snapshot of one session or the whole roster.
    pub fn status(&self, id: Option<&str>) -> Result<Vec<SessionInfo>, String> {
        match id {
            Some(id) => Ok(vec![self.find(id)?.info()]),
            None => Ok(relock(&self.sessions).iter().map(|s| s.info()).collect()),
        }
    }

    /// The session's event bus, for `watch` streaming.
    pub fn bus(&self, id: &str) -> Result<Arc<EventBus>, String> {
        Ok(self.find(id)?.bus.clone())
    }

    fn send_ctrl(&self, id: &str, msg: Ctrl) -> Result<(), String> {
        let entry = self.find(id)?;
        let guard = relock(&entry.ctrl);
        let tx = guard
            .as_ref()
            .ok_or_else(|| format!("session {id:?} has no running worker"))?;
        tx.send(msg)
            .map_err(|_| format!("session {id:?} is not running"))
    }

    /// Parks the session at its next decision-period boundary and
    /// persists a checkpoint of the pause point; resolves once that
    /// checkpoint is on disk, or with the error that kept it off disk
    /// (the session stays parked either way).
    pub fn pause(&self, id: &str) -> Result<(), String> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.send_ctrl(id, Ctrl::Pause(tx))?;
        await_reply(id, "pause", &rx).map(|_| ())
    }

    /// Wakes a paused session — either one parked in its worker, or one
    /// recovered from disk (a new worker is spawned, resuming the
    /// in-flight seed from its checkpoint).
    pub fn resume(&self, id: &str) -> Result<(), String> {
        let entry = self.find(id)?;
        if self.send_ctrl(id, Ctrl::Resume).is_ok() {
            return Ok(());
        }
        let status = relock(&entry.record).status;
        if status.is_terminal() {
            return Err(format!("session {id:?} is {}", status.as_str()));
        }
        self.spawn_worker(entry);
        Ok(())
    }

    /// Checkpoints the in-flight seed; resolves once `session.json` is
    /// on disk, returning its path, or with the error that kept it off
    /// disk.
    pub fn checkpoint(&self, id: &str) -> Result<String, String> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.send_ctrl(id, Ctrl::Checkpoint(tx))?;
        await_reply(id, "checkpoint", &rx)
    }

    /// Stops the session without checkpointing. Completed seeds keep
    /// their artifacts.
    pub fn cancel(&self, id: &str) -> Result<(), String> {
        let entry = self.find(id)?;
        if self.send_ctrl(id, Ctrl::Cancel).is_ok() {
            return Ok(());
        }
        // No worker (recovered session): mark terminal directly.
        let status = relock(&entry.record).status;
        if status.is_terminal() {
            return Err(format!("session {id:?} is already {}", status.as_str()));
        }
        entry.set_status(SessionStatus::Cancelled);
        let persisted = entry.persist();
        entry.publish_event("cancelled", vec![]);
        entry.bus.close();
        persisted
    }

    /// Checkpoint-and-stop every running session and join all workers.
    /// After this returns, every non-terminal session is `paused` on
    /// disk and resumable by the next daemon.
    pub fn shutdown(&self) {
        self.shutdown_flag.store(true, Ordering::Relaxed);
        let sessions: Vec<Arc<SessionEntry>> = relock(&self.sessions).clone();
        for entry in &sessions {
            // Wake parked workers; send failures mean the worker already
            // exited.
            if let Some(tx) = relock(&entry.ctrl).as_ref() {
                let _ = tx.send(Ctrl::Shutdown);
            }
        }
        for entry in &sessions {
            if let Some(handle) = relock(&entry.worker).take() {
                let _ = handle.join();
            }
        }
    }

    /// Whether [`shutdown`](Supervisor::shutdown) has begun (set eagerly
    /// by the signal path so pollers observe it before workers join).
    pub fn shutting_down(&self) -> bool {
        self.shutdown_flag.load(Ordering::Relaxed)
    }
}

/// Waits for the worker's answer to a `command` that needs a saved
/// checkpoint.
fn await_reply(
    id: &str,
    command: &str,
    rx: &Receiver<Result<String, String>>,
) -> Result<String, String> {
    match rx.recv_timeout(CHECKPOINT_REPLY_TIMEOUT) {
        Ok(result) => result,
        Err(RecvTimeoutError::Timeout) => Err(format!(
            "{command} of session {id:?} timed out (job not at a checkpoint-safe boundary \
             within {}s)",
            CHECKPOINT_REPLY_TIMEOUT.as_secs()
        )),
        Err(RecvTimeoutError::Disconnected) => Err(format!(
            "session {id:?} stopped before its {command} took effect"
        )),
    }
}

fn worker_loop(
    executor: Arc<dyn Executor>,
    entry: Arc<SessionEntry>,
    rx: Receiver<Ctrl>,
    shutdown: Arc<AtomicBool>,
) {
    let (scenario, out_dir, remaining) = {
        let rec = relock(&entry.record);
        (
            rec.scenario.clone(),
            rec.out_dir.clone(),
            rec.remaining_seeds(),
        )
    };
    entry.set_status(SessionStatus::Running);
    entry.persist_or_report("running");
    entry.publish_event("running", vec![]);
    let out_dir = PathBuf::from(out_dir);

    for seed in remaining {
        let resume_from = {
            let rec = relock(&entry.record);
            rec.checkpoint
                .clone()
                .filter(|cp| cp.seed == seed)
                .map(|cp| cp.state)
        };
        let mut sinks: Vec<Box<dyn TraceSink>> = vec![Box::new(BusSink::new(entry.bus.clone()))];
        if let Ok(jsonl) = JsonlSink::append(&out_dir.join("events.jsonl")) {
            sinks.push(Box::new(jsonl));
        }
        let telemetry = Telemetry::from_sink(Box::new(FanoutSink::new(sinks)))
            .with_scope(&format!("{}/seed{seed}", entry.id));
        entry.publish_event(
            "seed_start",
            vec![
                ("seed", Json::Num(seed as f64)),
                ("resumed", Json::Bool(resume_from.is_some())),
            ],
        );
        let mut ctrl = WorkerCtrl {
            entry: &entry,
            rx: &rx,
            shutdown: &shutdown,
            seed,
            paused: false,
            stop: None,
            pending_replies: Vec::new(),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            executor.run_seed(&scenario, seed, resume_from.as_ref(), &telemetry, &mut ctrl)
        }))
        .unwrap_or_else(|_| Err(format!("executor panicked on seed {seed}")));
        telemetry.flush();

        match outcome {
            Ok(Some(output)) => {
                let artifact_path = out_dir.join(format!("seed{seed}.csv"));
                if let Err(e) = std::fs::write(&artifact_path, &output.artifact) {
                    fail(
                        &entry,
                        format!("cannot write {}: {e}", artifact_path.display()),
                    );
                    return;
                }
                {
                    let mut rec = relock(&entry.record);
                    rec.completed.push(SeedRecord {
                        seed,
                        metrics: output.metrics,
                    });
                    rec.checkpoint = None;
                }
                *relock(&entry.progress) = JobProgress::default();
                entry.persist_or_report("seed_done");
                entry.publish_event("seed_done", vec![("seed", Json::Num(seed as f64))]);
            }
            Ok(None) => {
                match ctrl.stop {
                    Some(StopReason::Cancelled) => {
                        entry.set_status(SessionStatus::Cancelled);
                        entry.persist_or_report("cancelled");
                        entry.publish_event("cancelled", vec![]);
                    }
                    // Shutdown (or a vanished control channel): the
                    // checkpoint is already persisted; stay resumable.
                    _ => {
                        entry.set_status(SessionStatus::Paused);
                        entry.persist_or_report("stopped");
                        entry.publish_event("stopped", vec![]);
                    }
                }
                entry.bus.close();
                return;
            }
            Err(message) => {
                fail(&entry, message);
                return;
            }
        }
    }

    entry.set_status(SessionStatus::Done);
    entry.persist_or_report("done");
    entry.publish_event("done", vec![]);
    entry.bus.close();
}

fn fail(entry: &SessionEntry, message: String) {
    {
        let mut rec = relock(&entry.record);
        rec.status = SessionStatus::Failed;
        rec.error = Some(message.clone());
    }
    entry.persist_or_report("failed");
    entry.publish_event("failed", vec![("error", Json::Str(message))]);
    entry.bus.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{u64_from_json, u64_to_json};
    use crate::executor::JobOutput;
    use std::time::Instant;

    /// Deterministic steppable executor: a keyed LCG stepped `steps`
    /// times, checkpointable at every step.
    struct MockExec {
        steps: u64,
        step_sleep: Duration,
    }

    impl MockExec {
        fn state(i: u64, acc: u64) -> Json {
            Json::obj(vec![("i", u64_to_json(i)), ("acc", u64_to_json(acc))])
        }
    }

    impl Executor for MockExec {
        fn validate(&self, scenario: &Json) -> Result<crate::executor::JobPlan, String> {
            let name = scenario
                .get("name")
                .and_then(Json::as_str)
                .ok_or("scenario needs a name")?
                .to_string();
            let seeds = scenario
                .get("seeds")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_else(|| vec![1]);
            Ok(crate::executor::JobPlan {
                name,
                kind: "mock".to_string(),
                seeds,
                steppable: true,
            })
        }

        fn run_seed(
            &self,
            _scenario: &Json,
            seed: u64,
            resume_from: Option<&Json>,
            telemetry: &Telemetry,
            ctrl: &mut dyn JobCtrl,
        ) -> Result<Option<JobOutput>, String> {
            let (mut i, mut acc) = match resume_from {
                Some(v) if !matches!(v, Json::Null) => (
                    u64_from_json(v.get("i").ok_or("checkpoint missing i")?)?,
                    u64_from_json(v.get("acc").ok_or("checkpoint missing acc")?)?,
                ),
                _ => (0, seed),
            };
            loop {
                match ctrl.poll(JobProgress {
                    slots_done: i,
                    slots_total: self.steps,
                }) {
                    Directive::Continue => {}
                    Directive::Checkpoint => ctrl.save_checkpoint(Self::state(i, acc)),
                    Directive::CheckpointAndStop => {
                        ctrl.save_checkpoint(Self::state(i, acc));
                        return Ok(None);
                    }
                    Directive::Stop => return Ok(None),
                }
                if i == self.steps {
                    break;
                }
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(seed ^ i);
                i += 1;
                if i % 16 == 0 {
                    telemetry.counter("mock.step", i);
                }
                if !self.step_sleep.is_zero() {
                    std::thread::sleep(self.step_sleep);
                }
            }
            Ok(Some(JobOutput {
                artifact: format!("seed,{seed}\nacc,{acc}\n").into_bytes(),
                metrics: vec![("acc".to_string(), acc as f64)],
            }))
        }
    }

    fn temp_dirs(tag: &str) -> (PathBuf, PathBuf) {
        let base = std::env::temp_dir().join(format!("mhca_supervisor_{tag}"));
        std::fs::remove_dir_all(&base).ok();
        (base.join("state"), base.join("out"))
    }

    fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    fn scenario(seeds: &[u64]) -> Json {
        Json::obj(vec![
            ("name", Json::Str("mock".to_string())),
            (
                "seeds",
                Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
            ),
        ])
    }

    fn wait_done(sup: &Supervisor, id: &str) {
        assert!(
            wait_until(Duration::from_secs(30), || {
                sup.status(Some(id)).unwrap()[0].status == SessionStatus::Done
            }),
            "session {id} did not finish: {:?}",
            sup.status(Some(id)).unwrap()
        );
    }

    #[test]
    fn session_runs_to_done_and_streams_events() {
        let (state, out) = temp_dirs("done");
        let sup = Supervisor::new(
            Arc::new(MockExec {
                steps: 64,
                step_sleep: Duration::ZERO,
            }),
            state,
        )
        .unwrap();
        let id = sup
            .submit(scenario(&[7, 8]), out.display().to_string(), None)
            .unwrap();
        wait_done(&sup, &id);
        let info = &sup.status(Some(&id)).unwrap()[0];
        assert_eq!(info.seeds_done, 2);
        assert!(out.join("seed7.csv").exists() && out.join("seed8.csv").exists());
        let (events, closed) = sup.bus(&id).unwrap().read_from(0, Duration::ZERO);
        assert!(closed);
        let text: Vec<&str> = events.iter().map(|(_, l)| l.as_str()).collect();
        assert!(text.iter().any(|l| l.contains("\"seed_done\"")));
        assert!(text.iter().any(|l| l.contains("mock.step")));
        assert!(text.last().unwrap().contains("\"done\""));
        sup.shutdown();
    }

    #[test]
    fn shutdown_restart_resume_is_byte_identical() {
        let (state, out) = temp_dirs("resume");
        let make_exec = || {
            Arc::new(MockExec {
                steps: 5000,
                step_sleep: Duration::from_micros(100),
            })
        };
        // Uninterrupted baseline in its own universe.
        let (state_b, out_b) = temp_dirs("resume_baseline");
        let baseline = Supervisor::new(
            Arc::new(MockExec {
                steps: 5000,
                step_sleep: Duration::ZERO,
            }),
            state_b,
        )
        .unwrap();
        let bid = baseline
            .submit(scenario(&[42]), out_b.display().to_string(), None)
            .unwrap();
        wait_done(&baseline, &bid);
        baseline.shutdown();
        let expected = std::fs::read(out_b.join("seed42.csv")).unwrap();

        // Interrupted run: shutdown mid-seed, new supervisor, resume.
        let sup = Supervisor::new(make_exec(), state.clone()).unwrap();
        let id = sup
            .submit(scenario(&[42]), out.display().to_string(), None)
            .unwrap();
        assert!(wait_until(Duration::from_secs(10), || {
            sup.status(Some(&id)).unwrap()[0].slots_done > 50
        }));
        sup.shutdown();
        let mid = sup.status(Some(&id)).unwrap()[0].clone();
        assert_eq!(mid.status, SessionStatus::Paused, "stopped mid-seed");
        assert!(
            mid.slots_done < 5000,
            "job finished before shutdown; raise steps"
        );

        let sup2 = Supervisor::new(make_exec(), state).unwrap();
        let recovered = &sup2.status(Some(&id)).unwrap()[0];
        assert_eq!(recovered.status, SessionStatus::Paused);
        sup2.resume(&id).unwrap();
        wait_done(&sup2, &id);
        sup2.shutdown();

        assert_eq!(std::fs::read(out.join("seed42.csv")).unwrap(), expected);
    }

    #[test]
    fn pause_parks_and_resume_continues() {
        let (state, out) = temp_dirs("pause");
        let sup = Supervisor::new(
            Arc::new(MockExec {
                steps: 3000,
                step_sleep: Duration::from_micros(100),
            }),
            state,
        )
        .unwrap();
        let id = sup
            .submit(scenario(&[5]), out.display().to_string(), None)
            .unwrap();
        assert!(wait_until(Duration::from_secs(10), || {
            sup.status(Some(&id)).unwrap()[0].slots_done > 10
        }));
        sup.pause(&id).unwrap();
        assert!(wait_until(Duration::from_secs(5), || {
            sup.status(Some(&id)).unwrap()[0].status == SessionStatus::Paused
        }));
        // Parked: progress freezes (allow the one-period drift).
        let frozen = sup.status(Some(&id)).unwrap()[0].slots_done;
        std::thread::sleep(Duration::from_millis(50));
        assert!(sup.status(Some(&id)).unwrap()[0].slots_done <= frozen + 1);
        // Checkpoint while paused answers without advancing.
        assert!(sup.checkpoint(&id).unwrap().contains("pause checkpoint"));
        sup.resume(&id).unwrap();
        wait_done(&sup, &id);
        sup.shutdown();
    }

    #[test]
    fn cancel_is_terminal() {
        let (state, out) = temp_dirs("cancel");
        let sup = Supervisor::new(
            Arc::new(MockExec {
                steps: 100_000,
                step_sleep: Duration::from_micros(100),
            }),
            state,
        )
        .unwrap();
        let id = sup
            .submit(
                scenario(&[1]),
                out.display().to_string(),
                Some("job-a".into()),
            )
            .unwrap();
        assert_eq!(id, "job-a");
        sup.cancel(&id).unwrap();
        assert!(wait_until(Duration::from_secs(5), || {
            sup.status(Some(&id)).unwrap()[0].status == SessionStatus::Cancelled
        }));
        assert!(sup.resume(&id).is_err());
        sup.shutdown();
    }

    #[test]
    fn checkpoint_reports_a_record_that_did_not_reach_disk() {
        let (state, out) = temp_dirs("ckpt_lost");
        let sup = Supervisor::new(
            Arc::new(MockExec {
                steps: 100_000,
                step_sleep: Duration::from_micros(100),
            }),
            state.clone(),
        )
        .unwrap();
        let id = sup
            .submit(scenario(&[9]), out.display().to_string(), None)
            .unwrap();
        assert!(wait_until(Duration::from_secs(10), || {
            sup.status(Some(&id)).unwrap()[0].slots_done > 10
        }));
        // Removal rather than a permission change: root ignores
        // directory permissions.
        std::fs::remove_dir_all(&state).unwrap();
        let err = sup.checkpoint(&id).unwrap_err();
        assert!(err.contains("checkpoint not saved"), "{err}");
        let info = &sup.status(Some(&id)).unwrap()[0];
        assert_eq!(info.status, SessionStatus::Running, "the session runs on");
        sup.cancel(&id).unwrap();
        sup.shutdown();
    }

    #[test]
    fn pause_reports_a_checkpoint_that_did_not_reach_disk() {
        let (state, out) = temp_dirs("pause_lost");
        let sup = Supervisor::new(
            Arc::new(MockExec {
                steps: 100_000,
                step_sleep: Duration::from_micros(100),
            }),
            state.clone(),
        )
        .unwrap();
        let id = sup
            .submit(scenario(&[9]), out.display().to_string(), None)
            .unwrap();
        assert!(wait_until(Duration::from_secs(10), || {
            sup.status(Some(&id)).unwrap()[0].slots_done > 10
        }));
        std::fs::remove_dir_all(&state).unwrap();
        let err = sup.pause(&id).unwrap_err();
        assert!(err.contains("checkpoint not saved"), "{err}");
        let info = &sup.status(Some(&id)).unwrap()[0];
        assert_eq!(info.status, SessionStatus::Paused, "parked all the same");
        assert!(!state.join(format!("{id}.json")).exists());
        sup.cancel(&id).unwrap();
        sup.shutdown();
    }

    #[test]
    fn cancel_of_a_recovered_session_reports_an_unwritable_record() {
        let (state, out) = temp_dirs("cancel_lost");
        let exec = || {
            Arc::new(MockExec {
                steps: 100_000,
                step_sleep: Duration::from_micros(100),
            })
        };
        let sup = Supervisor::new(exec(), state.clone()).unwrap();
        let id = sup
            .submit(scenario(&[3]), out.display().to_string(), None)
            .unwrap();
        assert!(wait_until(Duration::from_secs(10), || {
            sup.status(Some(&id)).unwrap()[0].slots_done > 10
        }));
        sup.shutdown();
        let recovered = Supervisor::new(exec(), state.clone()).unwrap();
        std::fs::remove_dir_all(&state).unwrap();
        let err = recovered.cancel(&id).unwrap_err();
        assert!(err.contains("cannot write"), "{err}");
        let info = &recovered.status(Some(&id)).unwrap()[0];
        assert_eq!(info.status, SessionStatus::Cancelled);
        recovered.shutdown();
    }

    #[test]
    fn unsaved_seed_completion_is_published() {
        let (state, out) = temp_dirs("done_lost");
        let sup = Supervisor::new(
            Arc::new(MockExec {
                steps: 3000,
                step_sleep: Duration::from_micros(100),
            }),
            state.clone(),
        )
        .unwrap();
        let id = sup
            .submit(scenario(&[4]), out.display().to_string(), None)
            .unwrap();
        assert!(wait_until(Duration::from_secs(10), || {
            sup.status(Some(&id)).unwrap()[0].slots_done > 10
        }));
        std::fs::remove_dir_all(&state).unwrap();
        wait_done(&sup, &id);
        let (events, _) = sup.bus(&id).unwrap().read_from(0, Duration::ZERO);
        let failed: Vec<&str> = events
            .iter()
            .map(|(_, l)| l.as_str())
            .filter(|l| l.contains("\"persist_failed\""))
            .collect();
        for transition in ["seed_done", "done"] {
            assert!(
                failed
                    .iter()
                    .any(|l| l.contains(&format!("\"transition\":\"{transition}\""))),
                "{transition}: {failed:?}"
            );
        }
        sup.shutdown();
    }

    #[test]
    fn checkpoint_command_persists_mid_seed_state() {
        let (state, out) = temp_dirs("ckpt");
        let sup = Supervisor::new(
            Arc::new(MockExec {
                steps: 100_000,
                step_sleep: Duration::from_micros(100),
            }),
            state.clone(),
        )
        .unwrap();
        let id = sup
            .submit(scenario(&[9]), out.display().to_string(), None)
            .unwrap();
        assert!(wait_until(Duration::from_secs(10), || {
            sup.status(Some(&id)).unwrap()[0].slots_done > 10
        }));
        let path = sup.checkpoint(&id).unwrap();
        let record = SessionRecord::load(std::path::Path::new(&path)).unwrap();
        let cp = record.checkpoint.expect("checkpoint persisted");
        assert_eq!(cp.seed, 9);
        assert!(u64_from_json(cp.state.get("i").unwrap()).unwrap() > 0);
        sup.cancel(&id).unwrap();
        sup.shutdown();
    }
}
