//! `service_latency` — the PR 8 service regression numbers.
//!
//! Measures the resident service's reaction latency in-process (no
//! socket: the wire adds one line-buffered read/write per command and
//! would swamp the numbers with client process spawn time). Each
//! iteration submits a small policy-run scenario to a live
//! [`Supervisor`] and clocks two marks on the session's event bus:
//!
//! * **submit → first streamed metric event** — the first telemetry
//!   event out of the job (the first decide-phase span), i.e. how long
//!   after `submit` a `watch` client sees the first round land;
//! * **submit → done** — the whole session.
//!
//! Samples land in [`LogHistogram`]s (the same log-bucketed histograms
//! the telemetry layer streams), so the reported p50/p99 carry the same
//! ≤6.25 % bucket error as every other latency figure in this repo.
//!
//! ```text
//! cargo run --release -p mhca-campaign --bin service_latency            # -> BENCH_PR8.json
//! cargo run --release -p mhca-campaign --bin service_latency -- --quick --out target/x.json
//! ```

use mhca_campaign::{ExperimentKind, ScenarioSpec, SeedRange, ServiceExecutor};
use mhca_core::experiment::ObserverKind;
use mhca_core::experiments::PolicyRunConfig;
use mhca_service::json;
use mhca_service::Supervisor;
use mhca_telemetry::{LogHistogram, Provenance};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The measured workload, as the JSON document a client submits: small
/// enough that 50 iterations finish in seconds, deep enough (100
/// decision periods) that "first round" is a meaningful fraction of a
/// real session's startup path.
fn scenario() -> json::Json {
    let cfg = PolicyRunConfig {
        n: 10,
        m: 3,
        horizon: 2000,
        update_period: 20,
        ..PolicyRunConfig::default()
    };
    ScenarioSpec::new(
        "latency-probe",
        "latency-probe",
        ExperimentKind::PolicyRun(cfg),
        SeedRange::new(0, 1),
    )
    .with_observers(vec![ObserverKind::Throughput])
    .to_json()
}

fn hist_json(h: &LogHistogram) -> String {
    format!(
        "{{\"count\": {}, \"min_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.1}}}",
        h.count(),
        h.min(),
        h.p50(),
        h.p99(),
        h.max(),
        h.mean()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = PathBuf::from("BENCH_PR8.json");
    let mut iters: u32 = 50;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                quick = true;
                iters = 8;
            }
            "--out" => out = PathBuf::from(it.next().expect("--out needs a path")),
            "--iters" => {
                iters = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--iters needs a positive integer");
            }
            other => panic!("unknown option {other:?} (known: --quick, --out, --iters)"),
        }
    }

    let scratch = std::env::temp_dir().join(format!("mhca-service-latency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let supervisor = Arc::new(
        Supervisor::new(Arc::new(ServiceExecutor), scratch.join("state"))
            .expect("supervisor state dir"),
    );

    let mut first_event = LogHistogram::new();
    let mut done = LogHistogram::new();
    // One warmup session absorbs lazy init (thread spawn paths, fs
    // caches) before sampling starts.
    for i in 0..=iters {
        let scenario = scenario();
        let out_dir = scratch.join(format!("out{i}")).display().to_string();
        let t0 = Instant::now();
        let id = supervisor
            .submit(scenario, out_dir, None)
            .expect("submit accepted");
        let bus = supervisor.bus(&id).expect("session bus");
        let mut cursor = 0u64;
        let mut first_at: Option<Duration> = None;
        loop {
            let (batch, closed) = bus.read_from(cursor, Duration::from_millis(500));
            for (seq, line) in &batch {
                cursor = seq + 1;
                // Telemetry events carry a "kind" field; lifecycle events
                // (submitted/running/seed_start/...) carry "event".
                if first_at.is_none() && line.contains("\"kind\":") {
                    first_at = Some(t0.elapsed());
                }
            }
            if closed && batch.is_empty() {
                break;
            }
        }
        if i == 0 {
            continue; // warmup
        }
        let first = first_at.expect("session streamed no telemetry event");
        first_event.record(first.as_nanos() as u64);
        done.record(t0.elapsed().as_nanos() as u64);
    }
    supervisor.shutdown();

    let provenance = Provenance::capture();
    let doc = format!(
        "{{\n  \"description\": \"PR 8 service latency: submit -> first streamed metric event \
         (the first decide-phase telemetry span on the session bus, i.e. when a watch client \
         sees the first round) and submit -> session done, measured against an in-process \
         Supervisor driving the real ServiceExecutor. Histograms are the telemetry layer's \
         log-bucketed LogHistogram: p50/p99 are bucket representatives, accurate to 6.25%.\",\n  \
         \"workload\": \"policy-run n=10 m=3 horizon=2000 update_period=20, 1 seed, throughput \
         observer; sessions run sequentially, 1 warmup excluded; release profile.\",\n  \
         \"quick\": {quick},\n  \"iterations\": {iters},\n  \"host_threads\": {threads},\n  \
         \"submit_to_first_event_ns\": {first},\n  \"submit_to_done_ns\": {done}\n}}\n",
        quick = quick,
        iters = iters,
        threads = provenance.host_threads,
        first = hist_json(&first_event),
        done = hist_json(&done),
    );
    std::fs::write(&out, &doc).expect("write output");
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "service_latency: {} iterations, submit->first p50 {} us, p99 {} us -> {}",
        iters,
        first_event.p50() / 1_000,
        first_event.p99() / 1_000,
        out.display()
    );
}
