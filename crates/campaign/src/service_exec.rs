//! The campaign's [`Executor`] implementation — what `mhca-campaign
//! serve` hands to the service supervisor.
//!
//! The service crate sits below this one and knows nothing about
//! networks or policies; this module closes the loop. Scenario documents
//! arrive as JSON (the same shape `--scenario-file` ingests), and each
//! seed runs in one of two modes:
//!
//! * **Steppable** (`policy-run`): the seed is driven through
//!   [`PolicyRunner`] one decision period at a time, polling
//!   [`JobCtrl`] between periods. A checkpoint serializes the complete
//!   learner state — policy indices, arm statistics, the RNG stream
//!   position, the round counter, and every registered observer — via
//!   the exact codec in `mhca_service::checkpoint`, so a resumed seed
//!   finishes byte-identical to an uninterrupted one (metrics *and*
//!   rendered artifact; pinned by this module's
//!   `*_resumes_*byte_identically` tests and the `traffic_service_resume`
//!   contract in `mhca-specgen`).
//! * **Opaque** (every other kind): the seed runs to completion through
//!   the same [`run_job_traced`](ScenarioSpec::run_job_traced) path the
//!   batch runner uses. [`JobCtrl`] is polled once at the start; a
//!   mid-seed checkpoint records [`Json::Null`] and resume restarts the
//!   seed (they are minutes-scale at worst, and deterministic).
//!
//! The steppable path builds its workload with [`PolicyRunConfig::setup`],
//! emits [`PolicyRunConfig::headline_metrics`] and renders
//! `mhca_bench::report::render_job_artifact` — the calls the batch path
//! makes — so a service-run seed and a batch-run seed produce identical
//! bytes.

use crate::ingest;
use crate::spec::{ExperimentKind, ScenarioSpec};
use mhca_bench::report;
use mhca_core::{ExperimentData, ObserverSet, PolicyRunConfig, PolicyRunner};
use mhca_service::checkpoint::{
    state_map_from_json, state_map_to_json, u64_from_json, u64_to_json,
};
use mhca_service::json::Json;
use mhca_service::{Directive, Executor, JobCtrl, JobOutput, JobPlan, JobProgress};
use mhca_telemetry::Telemetry;

/// Version tag of the mid-seed checkpoint document.
pub const CHECKPOINT_FORMAT: &str = "mhca-checkpoint-v1";

/// Executes campaign scenarios on behalf of the resident service.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceExecutor;

fn parse_scenario(scenario: &Json) -> Result<ScenarioSpec, String> {
    ingest::scenario_from_json(scenario, "submit").map_err(|e| e.to_string())
}

impl Executor for ServiceExecutor {
    fn validate(&self, scenario: &Json) -> Result<JobPlan, String> {
        let spec = parse_scenario(scenario)?;
        Ok(JobPlan {
            name: spec.name.clone(),
            kind: spec.kind.tag().to_string(),
            seeds: spec.seeds.iter().collect(),
            steppable: matches!(spec.kind, ExperimentKind::PolicyRun(_)),
        })
    }

    fn run_seed(
        &self,
        scenario: &Json,
        seed: u64,
        resume_from: Option<&Json>,
        telemetry: &Telemetry,
        ctrl: &mut dyn JobCtrl,
    ) -> Result<Option<JobOutput>, String> {
        let spec = parse_scenario(scenario)?;
        match &spec.kind {
            ExperimentKind::PolicyRun(cfg) => {
                run_steppable_seed(&spec, cfg, seed, resume_from, telemetry, ctrl)
            }
            _ => run_opaque_seed(&spec, seed, telemetry, ctrl),
        }
    }
}

/// Serializes the complete mid-seed state: the runner's snapshot (which
/// nests the policy's learner state and the RNG stream position) plus
/// every observer's accumulated state.
fn snapshot_json(
    seed: u64,
    runner: &PolicyRunner<'_>,
    policy: &dyn mhca_bandit::policies::IndexPolicy,
    observers: &ObserverSet,
) -> Json {
    Json::obj(vec![
        ("format", Json::Str(CHECKPOINT_FORMAT.to_string())),
        ("kind", Json::Str("policy-run".to_string())),
        ("seed", u64_to_json(seed)),
        ("slot", u64_to_json(runner.slot())),
        ("runner", state_map_to_json(&runner.snapshot(policy))),
        ("observers", state_map_to_json(&observers.snapshot_states())),
    ])
}

fn restore_from_json(
    state: &Json,
    seed: u64,
    runner: &mut PolicyRunner<'_>,
    policy: &mut dyn mhca_bandit::policies::IndexPolicy,
    observers: &mut ObserverSet,
) -> Result<(), String> {
    let format = state.get("format").and_then(Json::as_str).unwrap_or("");
    if format != CHECKPOINT_FORMAT {
        return Err(format!("unsupported checkpoint format {format:?}"));
    }
    let ck_seed = state
        .get("seed")
        .ok_or_else(|| "checkpoint missing `seed`".to_string())
        .and_then(u64_from_json)?;
    if ck_seed != seed {
        return Err(format!(
            "checkpoint is for seed {ck_seed}, job runs seed {seed}"
        ));
    }
    let runner_state = state_map_from_json(
        state
            .get("runner")
            .ok_or_else(|| "checkpoint missing `runner` state".to_string())?,
    )?;
    runner
        .restore(policy, &runner_state)
        .map_err(|e| format!("checkpoint runner state: {e}"))?;
    let observer_state = state_map_from_json(
        state
            .get("observers")
            .ok_or_else(|| "checkpoint missing `observers` state".to_string())?,
    )?;
    observers
        .restore_states(&observer_state)
        .map_err(|e| format!("checkpoint observer state: {e}"))
}

/// The steppable path: Algorithm 2 one decision period at a time, with
/// [`JobCtrl`] polled at every period boundary (the only points where a
/// checkpoint is legal — the runner snapshots between periods only).
fn run_steppable_seed(
    spec: &ScenarioSpec,
    base: &PolicyRunConfig,
    seed: u64,
    resume_from: Option<&Json>,
    telemetry: &Telemetry,
    ctrl: &mut dyn JobCtrl,
) -> Result<Option<JobOutput>, String> {
    // The batch run's own workload definition and, below, its metric
    // emission and artifact rendering: a service-run seed and a
    // batch-run seed produce identical bytes.
    let cfg = PolicyRunConfig {
        seed,
        ..base.clone()
    };
    let (net, acfg) = cfg.setup(seed);
    let mut policy = cfg.policy.build(&net);
    let mut observers = ObserverSet::from_kinds(&spec.observers);
    observers.attach_telemetry(telemetry);
    let mut runner = PolicyRunner::new(&net, &acfg, &observers);
    if let Some(state) = resume_from.filter(|v| !matches!(v, Json::Null)) {
        restore_from_json(state, seed, &mut runner, policy.as_mut(), &mut observers)?;
    }

    loop {
        match ctrl.poll(JobProgress {
            slots_done: runner.slot(),
            slots_total: runner.horizon(),
        }) {
            Directive::Continue => {}
            Directive::Checkpoint => {
                ctrl.save_checkpoint(snapshot_json(seed, &runner, policy.as_ref(), &observers));
            }
            Directive::CheckpointAndStop => {
                ctrl.save_checkpoint(snapshot_json(seed, &runner, policy.as_ref(), &observers));
                return Ok(None);
            }
            Directive::Stop => return Ok(None),
        }
        if runner.done() {
            break;
        }
        runner.step_period(policy.as_mut(), &mut observers);
    }
    let run = runner.finish(policy.as_ref());

    let mut metrics = PolicyRunConfig::headline_metrics(&run);
    observers.finish_into(&mut metrics);
    let rows = metrics.into_rows();
    let mut artifact = Vec::new();
    let data = ExperimentData::PolicyRun { cfg, run };
    report::render_job_artifact(&data, &rows, &mut artifact).map_err(|e| e.to_string())?;
    Ok(Some(JobOutput {
        artifact,
        metrics: rows,
    }))
}

/// The opaque path: one poll, then the batch execution surface. A
/// checkpoint directive records no state ([`Json::Null`]); resuming a
/// killed opaque seed restarts it from scratch, which is correct because
/// every kind is deterministic in its seed.
fn run_opaque_seed(
    spec: &ScenarioSpec,
    seed: u64,
    telemetry: &Telemetry,
    ctrl: &mut dyn JobCtrl,
) -> Result<Option<JobOutput>, String> {
    match ctrl.poll(JobProgress::default()) {
        Directive::Continue => {}
        Directive::Checkpoint => ctrl.save_checkpoint(Json::Null),
        Directive::CheckpointAndStop => {
            ctrl.save_checkpoint(Json::Null);
            return Ok(None);
        }
        Directive::Stop => return Ok(None),
    }
    let mut artifact = Vec::new();
    let metrics = spec
        .run_job_traced(seed, &mut artifact, telemetry)
        .map_err(|e| e.to_string())?;
    Ok(Some(JobOutput { artifact, metrics }))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct InertCtrl {
        polls: u64,
        checkpoints: Vec<Json>,
        checkpoint_at: Option<u64>,
        stop_after_checkpoint: bool,
    }

    impl InertCtrl {
        fn new() -> Self {
            InertCtrl {
                polls: 0,
                checkpoints: Vec::new(),
                checkpoint_at: None,
                stop_after_checkpoint: false,
            }
        }
    }

    impl JobCtrl for InertCtrl {
        fn poll(&mut self, _progress: JobProgress) -> Directive {
            self.polls += 1;
            if Some(self.polls) == self.checkpoint_at {
                if self.stop_after_checkpoint {
                    Directive::CheckpointAndStop
                } else {
                    Directive::Checkpoint
                }
            } else {
                Directive::Continue
            }
        }

        fn save_checkpoint(&mut self, state: Json) {
            self.checkpoints.push(state);
        }
    }

    fn scenario() -> Json {
        mhca_service::json::parse(
            r#"{
                "name": "svc-test",
                "spec": {"kind": "policy-run", "n": 10, "m": 3, "horizon": 120},
                "seeds": {"start": 5, "count": 2},
                "observers": ["comm-totals", "throughput", "windowed-regret"]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn validate_reports_the_plan() {
        let plan = ServiceExecutor.validate(&scenario()).unwrap();
        assert_eq!(plan.name, "svc-test");
        assert_eq!(plan.kind, "policy-run");
        assert_eq!(plan.seeds, vec![5, 6]);
        assert!(plan.steppable);
        assert!(ServiceExecutor
            .validate(&mhca_service::json::parse(r#"{"name":"x"}"#).unwrap())
            .is_err());
    }

    #[test]
    fn interrupted_seed_resumes_byte_identically() {
        let scenario = scenario();
        let telemetry = Telemetry::disabled();

        let mut plain = InertCtrl::new();
        let baseline = ServiceExecutor
            .run_seed(&scenario, 5, None, &telemetry, &mut plain)
            .unwrap()
            .unwrap();

        // Interrupt mid-run: checkpoint-and-stop at the 17th boundary.
        let mut interrupter = InertCtrl::new();
        interrupter.checkpoint_at = Some(17);
        interrupter.stop_after_checkpoint = true;
        let stopped = ServiceExecutor
            .run_seed(&scenario, 5, None, &telemetry, &mut interrupter)
            .unwrap();
        assert!(stopped.is_none());
        assert_eq!(interrupter.checkpoints.len(), 1);

        // Resume in a fresh universe from the serialized checkpoint.
        let mut resumed_ctrl = InertCtrl::new();
        let resumed = ServiceExecutor
            .run_seed(
                &scenario,
                5,
                Some(&interrupter.checkpoints[0]),
                &telemetry,
                &mut resumed_ctrl,
            )
            .unwrap()
            .unwrap();

        assert_eq!(resumed.artifact, baseline.artifact);
        assert_eq!(resumed.metrics.len(), baseline.metrics.len());
        for ((ka, va), (kb, vb)) in resumed.metrics.iter().zip(&baseline.metrics) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "metric {ka}");
        }
    }

    #[test]
    fn checkpoints_reject_wrong_seed_and_format() {
        let scenario = scenario();
        let telemetry = Telemetry::disabled();
        let mut ctrl = InertCtrl::new();
        ctrl.checkpoint_at = Some(9);
        ctrl.stop_after_checkpoint = true;
        ServiceExecutor
            .run_seed(&scenario, 5, None, &telemetry, &mut ctrl)
            .unwrap();
        let good = ctrl.checkpoints.pop().unwrap();

        let mut fresh = InertCtrl::new();
        let wrong_seed =
            ServiceExecutor.run_seed(&scenario, 6, Some(&good), &telemetry, &mut fresh);
        assert!(wrong_seed.unwrap_err().contains("seed"));

        let tampered = mhca_service::json::parse(
            &good
                .to_string_compact()
                .replace(CHECKPOINT_FORMAT, "mhca-checkpoint-v0"),
        )
        .unwrap();
        let bad_format =
            ServiceExecutor.run_seed(&scenario, 5, Some(&tampered), &telemetry, &mut fresh);
        assert!(bad_format.unwrap_err().contains("format"));
    }

    #[test]
    fn matches_the_batch_execution_path() {
        // The steppable path must reproduce `run_job_traced` exactly —
        // same artifact bytes, same metric rows.
        let spec = ingest::scenario_from_json(&scenario(), "test").unwrap();
        let mut batch_artifact = Vec::new();
        let batch_metrics = spec
            .run_job_traced(6, &mut batch_artifact, &Telemetry::disabled())
            .unwrap();

        let mut ctrl = InertCtrl::new();
        let service = ServiceExecutor
            .run_seed(&scenario(), 6, None, &Telemetry::disabled(), &mut ctrl)
            .unwrap()
            .unwrap();
        assert_eq!(service.artifact, batch_artifact);
        assert_eq!(service.metrics, batch_metrics);
        // Polled once per decision period plus the final boundary.
        assert!(ctrl.polls > 100);
    }

    fn traffic_scenario() -> Json {
        mhca_service::json::parse(
            r#"{
                "name": "svc-traffic",
                "spec": {
                    "kind": "policy-run", "n": 10, "m": 3, "horizon": 160,
                    "traffic": {
                        "arrivals": {"process": "poisson", "rate": 0.5},
                        "flows": [
                            {"src": 0, "dst": 4, "deadline": 24},
                            {"src": 7, "dst": 2}
                        ]
                    }
                },
                "seeds": {"start": 3, "count": 1},
                "observers": [
                    "flow-delay",
                    {"kind": "queue-tail", "bound": 8}
                ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn traffic_seed_resumes_with_queue_state_byte_identically() {
        // Satellite pin: a mid-seed checkpoint must carry the queueing
        // layer — packets in flight, per-flow delay histograms, arrival
        // stream position — so a daemon killed mid-run resumes to the
        // exact artifact an uninterrupted run produces.
        let scenario = traffic_scenario();
        let telemetry = Telemetry::disabled();

        let mut plain = InertCtrl::new();
        let baseline = ServiceExecutor
            .run_seed(&scenario, 3, None, &telemetry, &mut plain)
            .unwrap()
            .unwrap();
        let text = String::from_utf8(baseline.artifact.clone()).unwrap();
        assert!(
            text.contains("traffic flows"),
            "service path must run the queueing layer:\n{text}"
        );
        assert!(baseline
            .metrics
            .iter()
            .any(|(k, _)| k == "flow-delay:delay_utility"));

        // Kill mid-run at a boundary where queues are demonstrably
        // non-empty, then resume in a fresh universe.
        let mut interrupter = InertCtrl::new();
        interrupter.checkpoint_at = Some(23);
        interrupter.stop_after_checkpoint = true;
        assert!(ServiceExecutor
            .run_seed(&scenario, 3, None, &telemetry, &mut interrupter)
            .unwrap()
            .is_none());
        let checkpoint = interrupter.checkpoints.pop().unwrap();
        assert!(
            checkpoint.to_string_compact().contains("traffic."),
            "checkpoint must serialize queue state"
        );

        let mut resumed_ctrl = InertCtrl::new();
        let resumed = ServiceExecutor
            .run_seed(
                &scenario,
                3,
                Some(&checkpoint),
                &telemetry,
                &mut resumed_ctrl,
            )
            .unwrap()
            .unwrap();
        assert_eq!(resumed.artifact, baseline.artifact);
        assert_eq!(resumed.metrics.len(), baseline.metrics.len());
        for ((ka, va), (kb, vb)) in resumed.metrics.iter().zip(&baseline.metrics) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "metric {ka}");
        }

        // And the service path stays byte-identical to the batch path.
        let spec = ingest::scenario_from_json(&traffic_scenario(), "test").unwrap();
        let mut batch_artifact = Vec::new();
        let batch_metrics = spec
            .run_job_traced(3, &mut batch_artifact, &Telemetry::disabled())
            .unwrap();
        assert_eq!(baseline.artifact, batch_artifact);
        assert_eq!(baseline.metrics, batch_metrics);
    }

    #[test]
    fn opaque_kinds_run_and_checkpoint_null() {
        let scenario = mhca_service::json::parse(
            r#"{"name":"t2","spec":{"kind":"table2"},"seeds":{"start":1,"count":1}}"#,
        )
        .unwrap();
        let plan = ServiceExecutor.validate(&scenario).unwrap();
        assert!(!plan.steppable);
        let mut ctrl = InertCtrl::new();
        ctrl.checkpoint_at = Some(1);
        let out = ServiceExecutor
            .run_seed(&scenario, 1, None, &Telemetry::disabled(), &mut ctrl)
            .unwrap()
            .unwrap();
        assert!(!out.artifact.is_empty());
        assert_eq!(ctrl.checkpoints, vec![Json::Null]);
    }
}
