//! `mhca-campaign` — campaign orchestration for the reproduction.
//!
//! The paper's evaluation (Section V) is reproduced as registry
//! scenarios, one per figure or table, each an experiment of
//! `mhca_core::experiment` over a seed range. This crate is that layer:
//!
//! * [`spec`] — declarative [`ScenarioSpec`]s: experiment kind (wrapping
//!   the spec-driven configs of `mhca_core::experiments`), topology and
//!   channel families, policy, loss injection, and a seed range, all
//!   serializable to canonical JSON.
//! * [`registry`] — the scenario catalog: every figure/table of the paper
//!   plus cross-product scenarios along the channel-model, topology, and
//!   policy axes.
//! * [`ingest`] — user-authored scenario JSON ingestion (the inverse of
//!   `show`): `mhca-campaign run --scenario-file <path>` runs arbitrary
//!   user-defined campaigns with field-path diagnostics on malformed
//!   input, no registry recompile required.
//! * [`runner`] — the [`CampaignRunner`](runner::run): expands specs into
//!   a job matrix, executes pending jobs in parallel with
//!   order-preserving aggregation, and writes per-seed figure CSVs,
//!   per-scenario summaries, and a campaign-wide CSV/JSON record.
//! * [`manifest`] — the durable job ledger enabling
//!   resume-after-interrupt: completed jobs are skipped and their
//!   recorded metrics reused.
//! * [`tail`] — offline reader for the `--trace` event stream: re-merges
//!   the per-job histogram dumps in `events.jsonl` and renders the
//!   per-scenario / per-phase latency table behind `mhca-campaign tail`.
//! * [`service_exec`] — the [`mhca_service::Executor`] implementation
//!   behind `mhca-campaign serve`: long-lived sessions that step
//!   policy-run seeds one decision period at a time with mid-seed
//!   checkpoint/resume (see `docs/SERVICE.md`).
//!
//! One command runs the whole evaluation:
//!
//! ```text
//! mhca-campaign run --quick            # CI smoke: 2 scenarios × 3 seeds
//! mhca-campaign run                    # the full catalog, multi-seed
//! mhca-campaign run --scenarios fig6,fig7 --seeds 10
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod ingest;
pub mod manifest;
pub mod registry;
pub mod runner;
mod schema;
pub mod service_exec;
pub mod spec;
pub mod tail;

pub use ingest::{scenarios_from_str, SpecError};
pub use manifest::{JobRecord, JobStatus, Manifest};
pub use runner::{CampaignConfig, CampaignOutcome, ScenarioSummary};
pub use service_exec::ServiceExecutor;
pub use spec::{expand_jobs, spec_hash, ExperimentKind, Job, ScenarioSpec, SeedRange};
