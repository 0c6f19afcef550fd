//! Declarative scenario specs: what to run, on what, how many times.
//!
//! A [`ScenarioSpec`] names an experiment kind (wrapping the spec-driven
//! configs of `mhca_core::experiments`) plus a seed range; a campaign is
//! an ordered list of scenarios. Specs expand deterministically into a
//! per-seed [`Job`] matrix, serialize to canonical JSON (the manifest's
//! human-readable record, and the input of the spec hash that guards
//! resume), and know how to execute one job and summarize it as flat
//! `(metric, value)` pairs for cross-seed aggregation.

use crate::schema;
use mhca_bench::report;
use mhca_core::experiment::{
    run_experiment, Experiment, ObserverKind, ObserverSet, Table2Experiment,
};
use mhca_core::experiments::{
    ComplexityConfig, Fig5Config, Fig6Config, Fig7Config, Fig8Config, PolicyDuelConfig,
    PolicyRunConfig, Theorem3Config,
};
use mhca_service::json::Json;
use mhca_telemetry::Telemetry;
use std::io::{self, Write};

/// A contiguous seed range `start..start + count`.
///
/// Seeds must stay below `2^53`: job seeds are persisted in the
/// manifest as JSON numbers, which are exact only up to that bound
/// (larger seeds would save fine but fail to load on resume).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedRange {
    /// First seed.
    pub start: u64,
    /// Number of seeds.
    pub count: u64,
}

impl SeedRange {
    /// Largest exclusive seed bound (`2^53`, the JSON-exact integer
    /// range).
    pub const MAX_SEED: u64 = 1 << 53;

    /// `start..start + count`.
    ///
    /// # Panics
    ///
    /// Panics if `start + count` exceeds [`SeedRange::MAX_SEED`] (such
    /// seeds would not survive a manifest round-trip).
    pub fn new(start: u64, count: u64) -> Self {
        assert!(
            start
                .checked_add(count)
                .is_some_and(|end| end <= Self::MAX_SEED),
            "seed range end must stay within 2^53 (JSON-exact integers)"
        );
        SeedRange { start, count }
    }

    /// Canonical JSON rendering: `{"start", "count"}`.
    pub fn to_json(&self) -> Json {
        schema::emit(self)
    }

    /// Iterates the seeds.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.start..self.start + self.count
    }
}

/// The experiment a scenario runs, with its full parameterization. Each
/// variant wraps the corresponding spec-driven config from
/// `mhca_core::experiments`, which is itself the [`Experiment`]; the
/// scenario's per-job seed overrides the config's own seed field.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentKind {
    /// Fig. 5 linear worst case (deterministic — seeds only replicate).
    Fig5(Fig5Config),
    /// Fig. 6 convergence over mini-rounds.
    Fig6(Fig6Config),
    /// Fig. 7 regret vs LLR (includes an exact-optimum computation).
    Fig7(Fig7Config),
    /// Fig. 8 periodic stale-weight updates.
    Fig8(Fig8Config),
    /// Table II time model (deterministic).
    Table2,
    /// Section IV-C communication/space complexity measurement.
    Complexity(ComplexityConfig),
    /// Theorem 3 distributed-vs-centralized quality comparison.
    Theorem3(Theorem3Config),
    /// Generic declarative Algorithm 2 run (the cross-product axis).
    PolicyRun(PolicyRunConfig),
    /// Paired head-to-head of two policies on identical realizations.
    PolicyDuel(PolicyDuelConfig),
}

impl ExperimentKind {
    /// Short kind tag used in spec JSON and artifact names: the engine
    /// shape's `kind`, declared once with each experiment.
    pub fn tag(&self) -> &'static str {
        self.experiment().spec().kind
    }

    /// The unified-engine [`Experiment`] this kind describes: the wrapped
    /// config itself. All eight paper workloads (plus the duel) run
    /// through this one surface; the per-kind metric extraction lives
    /// with the experiment implementations in `mhca_core::experiment`.
    pub fn experiment(&self) -> &dyn Experiment {
        match self {
            ExperimentKind::Fig5(cfg) => cfg,
            ExperimentKind::Fig6(cfg) => cfg,
            ExperimentKind::Fig7(cfg) => cfg,
            ExperimentKind::Fig8(cfg) => cfg,
            ExperimentKind::Table2 => &Table2Experiment,
            ExperimentKind::Complexity(cfg) => cfg,
            ExperimentKind::Theorem3(cfg) => cfg,
            ExperimentKind::PolicyRun(cfg) => cfg,
            ExperimentKind::PolicyDuel(cfg) => cfg,
        }
    }

    /// Canonical JSON rendering of the kind and its full parameterization
    /// (the manifest's `spec` record; hashed for resume validation).
    pub fn to_json(&self) -> Json {
        schema::emit(self)
    }
}

/// One named scenario of a campaign: an experiment kind, a seed range,
/// and the streaming observers to attach to each job.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique scenario name (also the artifact directory name).
    pub name: String,
    /// One-line description shown by `mhca-campaign list`.
    pub title: String,
    /// What to run.
    pub kind: ExperimentKind,
    /// Seeds to run it over.
    pub seeds: SeedRange,
    /// Streaming metric sinks registered for every job of this scenario
    /// (fresh instances per job). Only experiments that drive Algorithm 2
    /// round loops feed them; on others they contribute zero-valued
    /// metrics.
    pub observers: Vec<ObserverKind>,
}

impl ScenarioSpec {
    /// Convenience constructor (no observers).
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        kind: ExperimentKind,
        seeds: SeedRange,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            title: title.into(),
            kind,
            seeds,
            observers: Vec::new(),
        }
    }

    /// Builder-style observer attachment.
    pub fn with_observers(mut self, observers: Vec<ObserverKind>) -> Self {
        self.observers = observers;
        self
    }

    /// Runs one job of this scenario: the experiment at `seed` with this
    /// scenario's observers attached.
    pub fn run_job(&self, seed: u64, artifact: &mut dyn Write) -> io::Result<Vec<(String, f64)>> {
        self.run_job_traced(seed, artifact, &Telemetry::disabled())
    }

    /// Runs one job through the unified engine: the experiment at `seed`
    /// with this scenario's observers, `telemetry` threaded through them
    /// (see `ObserverSet::attach_telemetry` in `mhca_core`). Writes the
    /// per-seed artifact (the figure CSV, then observer metrics; see
    /// [`report::render_job_artifact`]) and returns the flat metric rows,
    /// the experiment's first, used for cross-seed aggregation. By the
    /// byte-identity contract both are the same whether `telemetry` is
    /// enabled or not; an enabled handle adds phase histograms, sampled
    /// decide spans and incremental observer counters to its sink.
    pub fn run_job_traced(
        &self,
        seed: u64,
        artifact: &mut dyn Write,
        telemetry: &Telemetry,
    ) -> io::Result<Vec<(String, f64)>> {
        let mut observers = ObserverSet::from_kinds(&self.observers);
        observers.attach_telemetry(telemetry);
        let out = run_experiment(self.kind.experiment(), seed, observers);
        let rows = out.metrics.into_rows();
        report::render_job_artifact(&out.data, &rows, artifact)?;
        Ok(rows)
    }

    /// Expands this scenario into its per-seed jobs, in seed order.
    pub fn jobs(&self) -> Vec<Job> {
        self.seeds
            .iter()
            .map(|seed| Job {
                scenario: self.name.clone(),
                seed,
            })
            .collect()
    }

    /// Canonical JSON rendering (recorded in the manifest; hashed for
    /// resume validation; re-ingestible via `mhca_campaign::ingest`).
    pub fn to_json(&self) -> Json {
        schema::emit(self)
    }
}

/// One unit of campaign work: a scenario at one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The scenario name.
    pub scenario: String,
    /// The seed this job runs.
    pub seed: u64,
}

impl Job {
    /// Stable job identifier: `<scenario>/seed<seed>`.
    pub fn id(&self) -> String {
        format!("{}/seed{}", self.scenario, self.seed)
    }
}

/// Expands a campaign (ordered scenario list) into its full job matrix —
/// scenario-major, seed-minor, deterministic.
pub fn expand_jobs(scenarios: &[ScenarioSpec]) -> Vec<Job> {
    scenarios.iter().flat_map(ScenarioSpec::jobs).collect()
}

/// Canonical JSON of a whole campaign spec.
pub fn campaign_json(name: &str, scenarios: &[ScenarioSpec]) -> Json {
    Json::obj(vec![
        ("campaign", Json::str(name)),
        (
            "scenarios",
            Json::Arr(scenarios.iter().map(ScenarioSpec::to_json).collect()),
        ),
    ])
}

/// FNV-1a 64-bit hash of the canonical campaign spec JSON — the cheap,
/// dependency-free fingerprint that guards manifest resume (a manifest
/// written for one spec must not silently resume a different one).
pub fn spec_hash(name: &str, scenarios: &[ScenarioSpec]) -> String {
    let text = campaign_json(name, scenarios).to_string_compact();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_core::experiments::PolicySpec;

    /// A one-seed scenario running `kind` with no observers.
    fn job(kind: ExperimentKind) -> ScenarioSpec {
        ScenarioSpec::new("job", "job", kind, SeedRange::new(0, 1))
    }

    fn two_scenarios() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new(
                "fig6-quick",
                "quick fig6",
                ExperimentKind::Fig6(Fig6Config::quick()),
                SeedRange::new(61, 3),
            ),
            ScenarioSpec::new(
                "table2",
                "table II",
                ExperimentKind::Table2,
                SeedRange::new(0, 1),
            ),
        ]
    }

    #[test]
    fn jobs_expand_scenario_major_seed_minor() {
        let jobs = expand_jobs(&two_scenarios());
        let ids: Vec<String> = jobs.iter().map(Job::id).collect();
        assert_eq!(
            ids,
            vec![
                "fig6-quick/seed61",
                "fig6-quick/seed62",
                "fig6-quick/seed63",
                "table2/seed0"
            ]
        );
    }

    #[test]
    fn spec_hash_is_stable_and_sensitive() {
        let scenarios = two_scenarios();
        let h1 = spec_hash("smoke", &scenarios);
        let h2 = spec_hash("smoke", &scenarios);
        assert_eq!(h1, h2);
        assert_eq!(h1.len(), 16);
        // Renaming the campaign or changing a seed count changes the hash.
        assert_ne!(h1, spec_hash("other", &scenarios));
        let mut more_seeds = two_scenarios();
        more_seeds[0].seeds.count += 1;
        assert_ne!(h1, spec_hash("smoke", &more_seeds));
    }

    #[test]
    fn spec_json_is_parseable_and_tagged() {
        let scenarios = two_scenarios();
        let text = campaign_json("smoke", &scenarios).to_string_pretty();
        let parsed = mhca_service::json::parse(&text).unwrap();
        let list = parsed.get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(
            list[0]
                .get("spec")
                .and_then(|s| s.get("kind"))
                .and_then(Json::as_str),
            Some("fig6")
        );
    }

    #[test]
    fn spec_hash_sees_policy_parameters() {
        // Parameter-only policy edits must invalidate resume: same label,
        // different exploration bonus ⇒ different hash.
        let duel = |l: f64| {
            vec![ScenarioSpec::new(
                "duel",
                "duel",
                ExperimentKind::PolicyDuel(PolicyDuelConfig {
                    base: PolicyRunConfig::quick(),
                    challenger: PolicySpec::Llr { l },
                }),
                SeedRange::new(0, 2),
            )]
        };
        assert_ne!(spec_hash("c", &duel(2.0)), spec_hash("c", &duel(4.0)));
        let run = |eps: f64| {
            vec![ScenarioSpec::new(
                "eg",
                "eg",
                ExperimentKind::PolicyRun(PolicyRunConfig {
                    policy: PolicySpec::EpsilonGreedy { eps },
                    ..PolicyRunConfig::quick()
                }),
                SeedRange::new(0, 2),
            )]
        };
        assert_ne!(spec_hash("c", &run(0.05)), spec_hash("c", &run(0.3)));
    }

    #[test]
    fn run_produces_metrics_and_artifact() {
        let mut artifact = Vec::new();
        let metrics = job(ExperimentKind::Table2)
            .run_job(0, &mut artifact)
            .unwrap();
        assert!(metrics.iter().any(|(k, v)| k == "theta" && *v == 0.5));
        assert!(!artifact.is_empty());
    }

    #[test]
    fn policy_duel_runs_both_contestants_paired() {
        let kind = ExperimentKind::PolicyDuel(PolicyDuelConfig {
            base: PolicyRunConfig {
                horizon: 150,
                ..PolicyRunConfig::quick()
            },
            challenger: PolicySpec::Random,
        });
        let mut artifact = Vec::new();
        let metrics = job(kind).run_job(3, &mut artifact).unwrap();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
                .1
        };
        let a = get("cs-ucb_avg_expected_kbps");
        let b = get("random_avg_expected_kbps");
        assert!((get("advantage_kbps") - (a - b)).abs() < 1e-9);
        assert!(a > b, "cs-ucb must beat random: {a} vs {b}");
        assert_eq!(get("a_wins"), 1.0);
        // Both contestants' series land in the artifact.
        let text = String::from_utf8(artifact).unwrap();
        assert!(text.contains("policy=cs-ucb"));
        assert!(text.contains("policy=random"));
    }

    #[test]
    #[should_panic(expected = "2^53")]
    fn oversized_seed_ranges_are_rejected() {
        let _ = SeedRange::new(u64::MAX - 1, 1);
    }

    #[test]
    fn kind_tags_match_engine_shapes() {
        let kinds = [
            ExperimentKind::Fig5(Fig5Config::quick()),
            ExperimentKind::Fig6(Fig6Config::quick()),
            ExperimentKind::Fig7(Fig7Config::quick()),
            ExperimentKind::Fig8(Fig8Config::quick()),
            ExperimentKind::Table2,
            ExperimentKind::Complexity(ComplexityConfig::quick()),
            ExperimentKind::Theorem3(Theorem3Config::quick()),
            ExperimentKind::PolicyRun(PolicyRunConfig::quick()),
            ExperimentKind::PolicyDuel(PolicyDuelConfig {
                base: PolicyRunConfig::quick(),
                challenger: PolicySpec::Random,
            }),
        ];
        for kind in &kinds {
            assert_eq!(kind.tag(), kind.experiment().spec().kind);
        }
    }

    #[test]
    fn scenario_observers_contribute_metrics_and_hash() {
        let plain = ScenarioSpec::new(
            "run",
            "run",
            ExperimentKind::PolicyRun(PolicyRunConfig::quick()),
            SeedRange::new(0, 1),
        );
        let observed = plain
            .clone()
            .with_observers(vec![ObserverKind::CommTotals, ObserverKind::Throughput]);
        // Observer choice is part of the canonical spec (and so the hash).
        assert_ne!(
            spec_hash("c", std::slice::from_ref(&plain)),
            spec_hash("c", std::slice::from_ref(&observed))
        );
        let text = observed.to_json().to_string_pretty();
        assert!(text.contains("\"observers\""));
        assert!(text.contains("\"comm-totals\""));

        // Observer metrics ride behind the experiment's own metrics.
        let mut sink = Vec::new();
        let metrics = observed.run_job(3, &mut sink).unwrap();
        assert!(metrics.iter().any(|(k, _)| k == "avg_expected_kbps"));
        let obs_avg = metrics
            .iter()
            .find(|(k, _)| k == "throughput:avg_observed_kbps")
            .expect("observer metric present")
            .1;
        let run_avg = metrics
            .iter()
            .find(|(k, _)| k == "avg_observed_kbps")
            .unwrap()
            .1;
        assert!((obs_avg - run_avg).abs() < 1e-9);
    }

    #[test]
    fn job_seed_overrides_config_seed() {
        let spec = job(ExperimentKind::PolicyRun(PolicyRunConfig::quick()));
        let mut sink = Vec::new();
        let a = spec.run_job(5, &mut sink).unwrap();
        let b = spec.run_job(5, &mut sink).unwrap();
        let c = spec.run_job(6, &mut sink).unwrap();
        assert_eq!(a, b, "same seed must reproduce");
        assert_ne!(a, c, "different seeds must differ");
    }
}
