//! Hand-rolled tracing + metrics substrate for the reproduction.
//!
//! The stack's standing rule is that infrastructure is vendored or
//! hand-rolled (see `vendor/README.md`): no tokio, no `tracing`, no
//! `metrics` crates. This crate provides the observability layer under
//! that constraint, in four pieces:
//!
//! * [`Event`] / [`TraceSink`] — a borrowed, allocation-free event record
//!   (spans, counters, gauges, histograms, errors) and the sink trait that
//!   receives them. [`NoopSink`] discards, [`JsonlSink`] appends one JSON
//!   object per line to a buffered file, [`MemorySink`] captures lines for
//!   tests.
//! * [`Telemetry`] — a cheaply clonable handle threaded through the
//!   experiment stack. A disabled handle (`Telemetry::disabled()`) is a
//!   `None` inside; every operation on it is a branch and nothing more, so
//!   instrumented hot loops stay allocation-free (pinned by
//!   `tests/alloc_free.rs`).
//! * [`LogHistogram`] — a fixed-size log-bucketed latency histogram
//!   (HdrHistogram-style, 16 sub-buckets per octave, ≤ 6.25 % relative
//!   error). `record` is branch-and-increment; p50/p99/p999 come out at
//!   the end. Histograms serialize sparsely into events and merge exactly,
//!   so `mhca-campaign tail` can reconstruct campaign-wide percentiles
//!   from per-job events.
//! * [`ProgressTracker`] — jobs-done/total, rounds/sec and ETA heartbeats
//!   for `mhca-campaign run --progress`, plus the `progress.json` snapshot
//!   a future resident service can poll.
//!
//! The **standing contract**: telemetry on or off, `RunResult` and every
//! artifact CSV stay byte-identical. Sinks only observe; they never feed
//! back into the experiment. See `docs/OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

mod event;
mod hist;
mod progress;
mod sink;

pub use event::{push_json_str, Event, EventKind, FieldValue};
pub use hist::LogHistogram;
pub use progress::{ProgressSnapshot, ProgressTracker};
pub use sink::{FanoutSink, JsonlSink, MemorySink, NoopSink, Span, Telemetry, TraceSink};

/// Build + host provenance, stamped into `manifest.json` and the
/// `decide_profile` JSON reports so machine-conditional numbers (single
/// core ratios, wall times) are self-describing.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Parallelism available on the host at capture time.
    pub host_threads: usize,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
    /// Short git commit hash of the built tree (`"unknown"` outside git).
    pub git_commit: &'static str,
}

impl Provenance {
    /// Capture provenance for the running binary. The compiler and commit
    /// are baked in at build time by `build.rs`; only `host_threads` is
    /// probed at runtime.
    pub fn capture() -> Self {
        Provenance {
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("MHCA_RUSTC_VERSION"),
            git_commit: env!("MHCA_GIT_COMMIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_nonempty() {
        let p = Provenance::capture();
        assert!(p.host_threads >= 1);
        assert!(!p.rustc.is_empty());
        assert!(!p.git_commit.is_empty());
    }
}
