//! End-to-end tests of the campaign orchestration layer: spec expansion,
//! artifact/manifest layout, resume-after-interrupt semantics, and
//! parallel-vs-serial aggregate equality.
//!
//! The campaign scaffolding (`tmp_dir`, `quiet`, `paper_campaign`,
//! `observer_zoo_campaign`) lives in `mhca_specgen::support`, shared with
//! the generated `campaign_worker_parity` contract.

use mhca_campaign::manifest::{JobStatus, Manifest};
use mhca_campaign::registry;
use mhca_campaign::runner::{self, CampaignConfig};
use mhca_campaign::spec::{expand_jobs, ExperimentKind, ScenarioSpec, SeedRange};
use mhca_service::json::{self, Json};
use mhca_specgen::support::{observer_zoo_campaign, paper_campaign, quiet, tmp_dir};
use std::fs;
use std::path::PathBuf;

#[test]
fn campaign_reproduces_paper_figures_with_aggregates_and_artifacts() {
    let dir = tmp_dir("paper");
    let scenarios = paper_campaign();
    let cfg = quiet(CampaignConfig::new("paper-test", &dir, scenarios.clone()));
    let outcome = runner::run(&cfg).unwrap();

    assert_eq!(outcome.executed, 7); // 2 + 2 + 2 + 1 jobs
    assert_eq!(outcome.skipped, 0);

    // Per-seed figure artifacts exist and carry the figure CSV headers.
    let fig6_csv = fs::read_to_string(dir.join("fig6/seed61.csv")).unwrap();
    assert!(fig6_csv.starts_with("miniround,"));
    let fig7_csv = fs::read_to_string(dir.join("fig7/seed71.csv")).unwrap();
    assert!(fig7_csv.contains("slot,alg2_practical_regret"));
    let fig8_csv = fs::read_to_string(dir.join("fig8/seed81.csv")).unwrap();
    assert!(fig8_csv.contains("alg2_estimated"));
    let table2_csv = fs::read_to_string(dir.join("table2/seed0.csv")).unwrap();
    assert!(table2_csv.contains("theta,0.5"));

    // Multi-seed aggregates: fig7's optimum aggregates over 2 seeds.
    let fig7 = outcome.summaries.iter().find(|s| s.name == "fig7").unwrap();
    let (_, optimal) = fig7
        .aggregates
        .iter()
        .find(|(m, _)| m == "optimal_kbps")
        .unwrap();
    assert_eq!(optimal.runs, 2);
    assert!(optimal.mean > 0.0);

    // Per-scenario summary CSV and campaign-level artifacts.
    let summary = fs::read_to_string(dir.join("fig7/summary.csv")).unwrap();
    assert!(summary.starts_with("metric,runs,mean,std_dev,min,max\n"));
    assert!(summary.contains("optimal_kbps,2,"));
    let campaign_csv = fs::read_to_string(dir.join("campaign.csv")).unwrap();
    assert!(campaign_csv.starts_with("scenario,seed,metric,value\n"));
    assert!(campaign_csv.contains("fig8,81,alg2_actual_y1,"));

    // campaign.json parses with the hand-rolled parser and holds the spec
    // plus per-scenario aggregates.
    let doc = json::parse(&fs::read_to_string(dir.join("campaign.json")).unwrap()).unwrap();
    assert_eq!(
        doc.get("campaign").and_then(Json::as_str),
        Some("paper-test")
    );
    let aggs = doc.get("aggregates").and_then(Json::as_arr).unwrap();
    assert_eq!(aggs.len(), 4);
    let spec_scenarios = doc
        .get("spec")
        .and_then(|s| s.get("scenarios"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(spec_scenarios.len(), 4);

    // The manifest records every job done.
    let manifest = Manifest::load(&dir).unwrap().unwrap();
    assert_eq!(manifest.progress(), (7, 0));

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rerun_skips_everything_and_preserves_results() {
    let dir = tmp_dir("rerun");
    let scenarios = registry::quick_registry();
    let cfg = quiet(CampaignConfig::new("quick", &dir, scenarios));
    let first = runner::run(&cfg).unwrap();
    assert_eq!(first.executed, 6);

    let again = runner::run(&cfg).unwrap();
    assert_eq!(
        again.executed, 0,
        "a completed campaign must re-execute nothing"
    );
    assert_eq!(again.skipped, 6);
    assert_eq!(first.summaries, again.summaries);

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_campaign_resumes_without_reexecuting_completed_jobs() {
    let dir = tmp_dir("resume");
    let scenarios = registry::quick_registry();
    let cfg = quiet(CampaignConfig::new("quick", &dir, scenarios.clone()));

    // Simulate a killed campaign: a manifest where one job finished (with
    // a sentinel metric value no real run could produce) and the rest
    // never ran. The sentinel proves resume *reuses* recorded results
    // instead of recomputing them.
    let jobs = expand_jobs(&scenarios);
    let mut manifest = Manifest::new("quick", &scenarios, &jobs);
    {
        let record = manifest.record_mut("fig6-quick", 61).unwrap();
        record.status = JobStatus::Done;
        record.artifact = "fig6-quick/seed61.csv".into();
        record.metrics = vec![("final_weight_30x3".into(), 123456789.0)];
    }
    fs::create_dir_all(dir.join("fig6-quick")).unwrap();
    fs::write(dir.join("fig6-quick/seed61.csv"), "sentinel artifact\n").unwrap();
    manifest.save(&dir).unwrap();

    let outcome = runner::run(&cfg).unwrap();
    assert_eq!(outcome.executed, 5, "only the five unfinished jobs run");
    assert_eq!(outcome.skipped, 1);

    // The sentinel survived: the done job was not re-executed.
    let loaded = Manifest::load(&dir).unwrap().unwrap();
    let record = loaded.record("fig6-quick", 61).unwrap();
    assert_eq!(record.metrics[0].1, 123456789.0);
    assert_eq!(
        fs::read_to_string(dir.join("fig6-quick/seed61.csv")).unwrap(),
        "sentinel artifact\n"
    );
    // And the sentinel flows into the aggregates (it was reused as data).
    let fig6 = outcome
        .summaries
        .iter()
        .find(|s| s.name == "fig6-quick")
        .unwrap();
    let (_, agg) = fig6
        .aggregates
        .iter()
        .find(|(m, _)| m == "final_weight_30x3")
        .unwrap();
    assert_eq!(agg.max, 123456789.0);

    // A deleted artifact demotes a done job back to pending.
    fs::remove_file(dir.join("fig6-quick/seed61.csv")).unwrap();
    let healed = runner::run(&cfg).unwrap();
    assert_eq!(healed.executed, 1);
    let loaded = Manifest::load(&dir).unwrap().unwrap();
    assert_ne!(
        loaded.record("fig6-quick", 61).unwrap().metrics[0].1,
        123456789.0,
        "regenerated job must carry real metrics"
    );

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn parallel_and_serial_campaigns_aggregate_identically() {
    let dir_par = tmp_dir("par");
    let dir_ser = tmp_dir("ser");
    let scenarios = registry::quick_registry();
    let par = runner::run(&quiet(CampaignConfig::new(
        "quick",
        &dir_par,
        scenarios.clone(),
    )))
    .unwrap();
    let ser = runner::run(&quiet(CampaignConfig {
        parallel: false,
        ..CampaignConfig::new("quick", &dir_ser, scenarios)
    }))
    .unwrap();

    assert_eq!(par.summaries, ser.summaries);
    // Byte-identical artifacts, job records, and campaign CSV.
    let par_manifest = Manifest::load(&dir_par).unwrap().unwrap();
    let ser_manifest = Manifest::load(&dir_ser).unwrap().unwrap();
    assert_eq!(par_manifest.jobs, ser_manifest.jobs);
    assert_eq!(
        fs::read_to_string(dir_par.join("campaign.csv")).unwrap(),
        fs::read_to_string(dir_ser.join("campaign.csv")).unwrap()
    );
    assert_eq!(
        fs::read_to_string(dir_par.join("fig7-quick/seed71.csv")).unwrap(),
        fs::read_to_string(dir_ser.join("fig7-quick/seed71.csv")).unwrap()
    );

    fs::remove_dir_all(&dir_par).unwrap();
    fs::remove_dir_all(&dir_ser).unwrap();
}

#[test]
fn bounded_jobs_campaign_matches_serial_byte_for_byte() {
    // The --jobs worker bound spans the whole matrix; any bound must
    // produce the same artifacts and records as strict serial execution.
    let dir_bounded = tmp_dir("jobs2");
    let dir_serial = tmp_dir("jobs-serial");
    let scenarios = registry::quick_registry();
    let bounded = runner::run(&quiet(CampaignConfig {
        jobs: Some(2),
        ..CampaignConfig::new("quick", &dir_bounded, scenarios.clone())
    }))
    .unwrap();
    let serial = runner::run(&quiet(CampaignConfig {
        parallel: false,
        ..CampaignConfig::new("quick", &dir_serial, scenarios)
    }))
    .unwrap();

    assert_eq!(bounded.summaries, serial.summaries);
    let m_bounded = Manifest::load(&dir_bounded).unwrap().unwrap();
    let m_serial = Manifest::load(&dir_serial).unwrap().unwrap();
    assert_eq!(m_bounded.jobs, m_serial.jobs);
    assert_eq!(
        fs::read_to_string(dir_bounded.join("campaign.csv")).unwrap(),
        fs::read_to_string(dir_serial.join("campaign.csv")).unwrap()
    );

    fs::remove_dir_all(&dir_bounded).unwrap();
    fs::remove_dir_all(&dir_serial).unwrap();
}

#[test]
fn traffic_campaigns_are_byte_identical_across_worker_shapes() {
    // A scaled-down traffic scenario (flows + FlowDelay/QueueTail): the
    // arrival stream is counter-based and the queue engine deterministic,
    // so serial, bounded (--jobs 2), and fully parallel campaigns must
    // produce byte-identical artifacts — and each per-seed CSV must carry
    // the per-flow delay-tail percentile rows.
    use mhca_core::experiment::ObserverKind;
    use mhca_core::experiments::PolicyRunConfig;
    use mhca_core::{FlowSpec, TrafficSpec};
    use mhca_graph::TopologySpec;

    let mut cfg = PolicyRunConfig::quick();
    cfg.topology = TopologySpec::Line;
    cfg.n = 10;
    cfg.horizon = 120;
    cfg.traffic = Some(TrafficSpec::poisson(
        0.5,
        vec![
            FlowSpec {
                src: 0,
                dst: 4,
                deadline: Some(24),
            },
            FlowSpec {
                src: 7,
                dst: 2,
                deadline: None,
            },
        ],
    ));
    let scenarios = vec![ScenarioSpec::new(
        "traffic-quick",
        "traffic smoke",
        ExperimentKind::PolicyRun(cfg),
        SeedRange::new(0, 3),
    )
    .with_observers(vec![
        ObserverKind::FlowDelay,
        ObserverKind::QueueTail { bound: 8 },
    ])];

    let dir_ser = tmp_dir("traffic-ser");
    let dir_bnd = tmp_dir("traffic-bnd");
    let dir_par = tmp_dir("traffic-par");
    let ser = runner::run(&quiet(CampaignConfig {
        parallel: false,
        ..CampaignConfig::new("traffic", &dir_ser, scenarios.clone())
    }))
    .unwrap();
    let bnd = runner::run(&quiet(CampaignConfig {
        jobs: Some(2),
        ..CampaignConfig::new("traffic", &dir_bnd, scenarios.clone())
    }))
    .unwrap();
    let par = runner::run(&quiet(CampaignConfig::new("traffic", &dir_par, scenarios))).unwrap();

    assert_eq!(ser.summaries, bnd.summaries);
    assert_eq!(ser.summaries, par.summaries);
    for dir in [&dir_bnd, &dir_par] {
        assert_eq!(
            fs::read_to_string(dir_ser.join("campaign.csv")).unwrap(),
            fs::read_to_string(dir.join("campaign.csv")).unwrap()
        );
        for seed in 0..3 {
            assert_eq!(
                fs::read_to_string(dir_ser.join(format!("traffic-quick/seed{seed}.csv"))).unwrap(),
                fs::read_to_string(dir.join(format!("traffic-quick/seed{seed}.csv"))).unwrap()
            );
        }
    }

    // The per-seed artifact carries both the exact flow table and the
    // streamed delay-tail percentiles (acceptance: p50/p99/p999 rows).
    let seed_csv = fs::read_to_string(dir_ser.join("traffic-quick/seed0.csv")).unwrap();
    assert!(
        seed_csv.contains("flow,arrivals,delivered,ontime"),
        "{seed_csv}"
    );
    for row in [
        "flow-delay:f0_p50_slots",
        "flow-delay:f0_p99_slots",
        "flow-delay:f0_p999_slots",
        "flow-delay:f1_p50_slots",
        "flow-delay:delay_utility",
        "queue-tail:backlog_p99",
        "queue-tail:overflows",
    ] {
        assert!(seed_csv.contains(row), "missing {row} in:\n{seed_csv}");
    }
    // Headline traffic metrics aggregate across seeds.
    let s = ser
        .summaries
        .iter()
        .find(|s| s.name == "traffic-quick")
        .unwrap();
    for metric in ["arrivals", "delivered", "delay_utility"] {
        let (_, agg) = s
            .aggregates
            .iter()
            .find(|(m, _)| m == metric)
            .unwrap_or_else(|| panic!("missing aggregate {metric}"));
        assert_eq!(agg.runs, 3, "{metric}");
    }

    fs::remove_dir_all(&dir_ser).unwrap();
    fs::remove_dir_all(&dir_bnd).unwrap();
    fs::remove_dir_all(&dir_par).unwrap();
}

#[test]
fn scenario_observers_feed_campaign_aggregates() {
    // fig7-quick carries the comm-totals observer: its streamed metrics
    // must land in the manifest, campaign.csv, and the summary — produced
    // by the RoundObserver pipeline, not a RunResult field.
    let dir = tmp_dir("observers");
    let scenarios = registry::quick_registry();
    let outcome = runner::run(&quiet(CampaignConfig::new("quick", &dir, scenarios))).unwrap();

    let fig7 = outcome
        .summaries
        .iter()
        .find(|s| s.name == "fig7-quick")
        .unwrap();
    let (_, agg) = fig7
        .aggregates
        .iter()
        .find(|(m, _)| m == "comm-totals:decide_transmissions")
        .expect("observer metric aggregated across seeds");
    assert_eq!(agg.runs, 3);
    assert!(agg.mean > 0.0);
    // Both Fig. 7 contestants run every slot: 2 runs × horizon decisions.
    let horizon = mhca_core::experiments::Fig7Config::quick().horizon as f64;
    let (_, decisions) = fig7
        .aggregates
        .iter()
        .find(|(m, _)| m == "comm-totals:decisions")
        .unwrap();
    assert_eq!(decisions.mean, 2.0 * horizon);

    let campaign_csv = fs::read_to_string(dir.join("campaign.csv")).unwrap();
    assert!(campaign_csv.contains("comm-totals:decide_transmissions"));
    // The incremental decide phase streams its work counter too.
    assert!(campaign_csv.contains("comm-totals:decide_candidates_scanned"));
    let (_, scanned) = fig7
        .aggregates
        .iter()
        .find(|(m, _)| m == "comm-totals:decide_candidates_scanned")
        .expect("scanned-candidate metric aggregated across seeds");
    assert!(scanned.mean > 0.0);

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn incremental_decide_streams_scan_and_timing_metrics() {
    // The observer pipeline on the dirty-ball decide path (a lossless
    // config): the communication, throughput and scanned-candidate
    // counters and the decide wall time all reach the metric table. That
    // the path's outcomes equal the rescan path's, with fewer scans, is
    // checked at the decide level (`decide_incremental_matches_rescan_reference`,
    // `decide_scan_stats_near_one_sweep_on_incremental_path`).
    use mhca_bandit::policies::CsUcb;
    use mhca_core::runner::run_policy_observed;
    use mhca_core::{Algorithm2Config, MetricTable, Network, ObserverKind, ObserverSet};

    let net = Network::random(30, 3, 4.0, 0.1, 17);
    let cfg = Algorithm2Config::default().with_horizon(60);
    assert!(cfg.decision.loss.is_lossless());
    let mut observers = ObserverSet::from_kinds(&[
        ObserverKind::CommTotals,
        ObserverKind::Throughput,
        ObserverKind::DecideTiming,
    ]);
    run_policy_observed(&net, &cfg, &mut CsUcb::new(2.0), &mut observers);
    let mut metrics = MetricTable::new();
    observers.finish_into(&mut metrics);
    for metric in [
        "throughput:avg_observed_kbps",
        "comm-totals:decide_transmissions",
        "comm-totals:decide_candidates_scanned",
    ] {
        assert!(metrics.get(metric).unwrap() > 0.0, "{metric}");
    }
    assert_eq!(metrics.get("throughput:slots"), Some(60.0));
    // Wall time is machine-dependent, so only its shape is asserted.
    let ms = metrics.get("decide-timing:decide_ms_total").unwrap();
    assert!(ms.is_finite() && ms >= 0.0);
}

#[test]
fn observer_zoo_metrics_are_identical_at_any_worker_count() {
    // The new observers (windowed-regret incl. its oracle decisions,
    // capture-stats, sensing-cost) are deterministic: serial, bounded,
    // and all-cores campaigns must produce byte-identical artifacts.
    let dirs: Vec<PathBuf> = ["zoo-serial", "zoo-jobs2", "zoo-par"]
        .iter()
        .map(|t| tmp_dir(t))
        .collect();
    let scenarios = observer_zoo_campaign();
    let run_at = |dir: &PathBuf, parallel: bool, jobs: Option<usize>| {
        runner::run(&quiet(CampaignConfig {
            parallel,
            jobs,
            ..CampaignConfig::new("zoo", dir, scenarios.clone())
        }))
        .unwrap()
    };
    let serial = run_at(&dirs[0], false, None);
    let bounded = run_at(&dirs[1], true, Some(2));
    let par = run_at(&dirs[2], true, None);

    assert_eq!(serial.summaries, bounded.summaries);
    assert_eq!(serial.summaries, par.summaries);
    for dir in &dirs[1..] {
        for rel in [
            "campaign.csv",
            "drift-mini/seed0.csv",
            "capture-mini/seed1.csv",
        ] {
            assert_eq!(
                fs::read_to_string(dirs[0].join(rel)).unwrap(),
                fs::read_to_string(dir.join(rel)).unwrap(),
                "{rel} differs from serial"
            );
        }
    }

    // The per-seed artifact carries the windowed-regret series as a CSV
    // section: one row per window, 6 windows at horizon 300 / window 50.
    let drift_csv = fs::read_to_string(dirs[0].join("drift-mini/seed0.csv")).unwrap();
    assert!(drift_csv.contains("observer_metric,value"));
    for w in 1..=6 {
        assert!(
            drift_csv.contains(&format!("windowed-regret:w{w:02}_regret_per_slot,")),
            "missing window {w} in artifact:\n{drift_csv}"
        );
    }
    // And the capture/sensing metrics land in the campaign aggregates.
    let campaign_csv = fs::read_to_string(dirs[0].join("campaign.csv")).unwrap();
    for metric in [
        "capture-stats:capture_rate",
        "capture-stats:outages",
        "sensing-cost:cost_total",
        "sensing-cost:kbps_per_unit_cost",
        "windowed-regret:windows",
    ] {
        assert!(campaign_csv.contains(metric), "missing {metric}");
    }

    for dir in &dirs {
        fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn ingested_scenario_file_runs_like_a_registry_scenario() {
    // The spec-ingestion path end to end at the library level: emit a
    // registry scenario as JSON (what `show` prints), mutate nothing,
    // re-ingest, and run it in a campaign.
    let dir = tmp_dir("ingested");
    let shown = registry::find("fig6-quick").unwrap();
    let text = shown.to_json().to_string_pretty();
    let parsed = mhca_campaign::ingest::scenarios_from_str(&text).unwrap();
    assert_eq!(parsed, vec![shown]);

    let outcome = runner::run(&quiet(CampaignConfig::new("custom", &dir, parsed))).unwrap();
    assert_eq!(outcome.executed, 3);
    assert!(dir.join("fig6-quick/seed61.csv").is_file());
    assert!(dir.join("fig6-quick/summary.csv").is_file());

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mismatched_spec_is_refused_unless_forced() {
    let dir = tmp_dir("mismatch");
    let quick_specs = registry::quick_registry();
    runner::run(&quiet(CampaignConfig::new(
        "quick",
        &dir,
        quick_specs.clone(),
    )))
    .unwrap();

    // Same directory, different spec: refused.
    let mut changed = quick_specs.clone();
    changed[0].seeds.count = 2;
    let err = runner::run(&quiet(CampaignConfig::new("quick", &dir, changed.clone())))
        .expect_err("spec mismatch must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // With force: starts fresh and succeeds.
    let outcome = runner::run(&quiet(CampaignConfig {
        force: true,
        ..CampaignConfig::new("quick", &dir, changed)
    }))
    .unwrap();
    assert_eq!(outcome.executed, 5); // 2 + 3 seeds
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn job_matrix_expansion_is_deterministic_and_complete() {
    let scenarios = registry::registry();
    let jobs = expand_jobs(&scenarios);
    let total: u64 = scenarios.iter().map(|s| s.seeds.count).sum();
    assert_eq!(jobs.len(), total as usize);
    assert_eq!(jobs, expand_jobs(&scenarios));
    // Scenario-major order: all of one scenario's seeds before the next.
    let mut seen = Vec::new();
    for job in &jobs {
        if seen.last() != Some(&job.scenario) {
            assert!(!seen.contains(&job.scenario), "interleaved scenario order");
            seen.push(job.scenario.clone());
        }
    }
    assert_eq!(seen.len(), scenarios.len());
}
