//! `mhca-service` — the resident experiment service.
//!
//! The campaign layer runs batch jobs to completion; this crate is the
//! long-lived counterpart behind `mhca-campaign serve`: a daemon that
//! owns experiment **sessions**, streams their metrics live, and can
//! checkpoint a job *mid-run* — serializing the bandit policy's learner
//! state, the round counter, and the RNG stream position — so a killed
//! daemon restarts and resumes inside the job with a byte-identical
//! final result.
//!
//! The pieces, bottom up:
//!
//! * [`json`] — the hand-rolled JSON value model, emitter, and parser
//!   (moved here from `mhca-campaign`, which now re-exports it). The
//!   wire protocol, the checkpoint codec, and the campaign manifests
//!   all share it.
//! * [`checkpoint`] — the exact [`StateMap`](mhca_bandit::StateMap) ↔
//!   JSON codec: `u64` as decimal strings (full 64-bit range — RNG
//!   state words do not fit JSON's 2^53-exact numbers), `f64` as hex
//!   bit patterns (`"0x3fe0000000000000"`), so restore is bit-exact.
//! * [`protocol`] — the line-delimited JSON request/response grammar
//!   (see `docs/SERVICE.md` for the full specification).
//! * [`bus`] — the per-session in-memory event bus `watch` streams
//!   from, plus [`BusSink`], the
//!   [`TraceSink`](mhca_telemetry::TraceSink) that feeds telemetry
//!   events into it.
//! * [`executor`] — the inversion-of-control seam to the experiment
//!   stack: the service calls [`Executor::run_seed`](executor::Executor)
//!   and the *executor* (implemented by `mhca-campaign`) polls back a
//!   [`JobCtrl`] at every decision-period boundary,
//!   where a checkpoint is legal. Layering the trait here (below the
//!   campaign crate) is what keeps the service free of experiment
//!   dependencies.
//! * [`session`] / [`supervisor`] — session records, their durable
//!   on-disk form, and the thread-per-session supervisor that owns
//!   them.
//! * [`server`] — the unix-socket / TCP listener: a small accept poll
//!   loop, one thread per connection, no async runtime (the workspace
//!   vendoring rule: no tokio).
//! * [`signals`] — SIGINT/SIGTERM → an [`AtomicBool`] flag, the only
//!   `unsafe` in the crate (one `extern "C"` handler registration).
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

#![deny(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod bus;
pub mod checkpoint;
pub mod executor;
pub mod json;
pub mod protocol;
pub mod server;
pub mod session;
pub mod signals;
pub mod supervisor;

pub use bus::{BusSink, EventBus};

/// Locks a mutex, recovering the guard when a panicking thread poisoned
/// it. Every critical section in this crate leaves its state consistent
/// before any operation that can panic, so the data behind a poisoned
/// lock is still valid — and one worker's panic (already downgraded to a
/// session failure by the supervisor's `catch_unwind`) must never
/// cascade into killing the whole daemon through an `unwrap` on the
/// next lock.
pub(crate) fn relock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use executor::{Directive, Executor, JobCtrl, JobOutput, JobPlan, JobProgress};
pub use protocol::Request;
pub use server::{serve, Endpoint};
pub use session::{SessionInfo, SessionStatus};
pub use supervisor::Supervisor;

/// Durably replaces the file at `path` with `contents`: writes
/// `<name>.tmp` beside it, syncs that file, renames it over `path` and
/// syncs the directory. A kill at any point leaves the old file or the
/// new one, and once this returns `Ok` a power loss cannot leave an
/// empty or torn file after the rename. The session records and the
/// campaign manifest are both saved this way.
pub fn replace_file(path: &std::path::Path, contents: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(contents)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}
