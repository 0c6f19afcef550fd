//! The standing telemetry contract, end to end: a traced campaign emits
//! a line-parseable `events.jsonl` with campaign/scenario/job spans and
//! per-phase histograms — while every artifact CSV stays byte-identical
//! to the untraced run of the same campaign.

use mhca_campaign::runner::{self, CampaignConfig};
use mhca_campaign::{registry, tail};
use mhca_service::json::{self, Json};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Fresh temp directory per test (process-unique + tag-unique).
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhca-telemetry-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// All files under `dir` with the given extension, keyed by path
/// relative to `dir`.
fn files_by_ext(dir: &Path, ext: &str) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == ext) {
                let rel = path.strip_prefix(dir).unwrap().display().to_string();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    out
}

#[test]
fn traced_quick_registry_is_byte_identical_and_emits_parseable_events() {
    let plain_dir = tmp_dir("plain");
    let traced_dir = tmp_dir("traced");
    let scenarios = registry::quick_registry();

    let plain = CampaignConfig {
        quiet: true,
        ..CampaignConfig::new("quick", &plain_dir, scenarios.clone())
    };
    runner::run(&plain).unwrap();

    let traced = CampaignConfig {
        quiet: true,
        trace: true,
        progress: true,
        ..CampaignConfig::new("quick", &traced_dir, scenarios)
    };
    runner::run(&traced).unwrap();

    // ---- The contract: telemetry on or off, every artifact CSV is
    // byte-identical.
    let plain_csvs = files_by_ext(&plain_dir, "csv");
    let traced_csvs = files_by_ext(&traced_dir, "csv");
    assert!(!plain_csvs.is_empty(), "campaign produced no CSV artifacts");
    assert_eq!(
        plain_csvs.keys().collect::<Vec<_>>(),
        traced_csvs.keys().collect::<Vec<_>>(),
        "trace changed the artifact file set"
    );
    for (rel, bytes) in &plain_csvs {
        assert_eq!(
            bytes, &traced_csvs[rel],
            "{rel} differs between traced and untraced runs"
        );
    }

    // ---- events.jsonl: every line parses, and the span/hist/heartbeat
    // families the schema promises are all present.
    let events = fs::read_to_string(traced_dir.join("events.jsonl")).unwrap();
    let mut kinds_names: Vec<(String, String)> = Vec::new();
    for (i, line) in events.lines().enumerate() {
        let event =
            json::parse(line).unwrap_or_else(|e| panic!("events.jsonl line {}: {e}", i + 1));
        let get = |k: &str| {
            event
                .get(k)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("line {} lacks string '{k}'", i + 1))
                .to_string()
        };
        kinds_names.push((get("kind"), get("name")));
    }
    let has = |kind: &str, name: &str| kinds_names.iter().any(|(k, n)| k == kind && n == name);
    assert!(has("span_end", "campaign"), "no campaign span");
    assert!(has("span_end", "scenario"), "no scenario span");
    assert!(has("span_end", "job"), "no job span");
    assert!(has("hist", "phase.decide"), "no decide-phase histogram");
    assert!(has("hist", "phase.wb"), "no wb-phase histogram");
    assert!(has("counter", "rounds"), "no rounds counter");
    assert!(
        has("counter", "comm.decisions"),
        "no streamed CommTotals counter (fig7-quick declares the observer)"
    );
    assert!(has("progress", "heartbeat"), "no progress heartbeat");
    // Histogram events carry percentile fields.
    let hist_line = events
        .lines()
        .find(|l| l.contains("\"kind\": \"hist\"") || l.contains("\"kind\":\"hist\""))
        .expect("at least one hist event");
    for field in ["\"p50\"", "\"p99\"", "\"p999\"", "\"buckets\""] {
        assert!(
            hist_line.contains(field),
            "hist event lacks {field}: {hist_line}"
        );
    }

    // ---- progress.json reflects the finished campaign.
    let progress = json::parse(&fs::read_to_string(traced_dir.join("progress.json")).unwrap())
        .expect("progress.json parses");
    let done = progress.get("done").and_then(Json::as_u64).unwrap();
    let total = progress.get("total").and_then(Json::as_u64).unwrap();
    assert_eq!(done, total, "final progress.json not at completion");
    assert_eq!(total, 6, "quick registry is 2 scenarios x 3 seeds");

    // ---- manifest.json carries the provenance stamp.
    let manifest = json::parse(&fs::read_to_string(traced_dir.join("manifest.json")).unwrap())
        .expect("manifest.json parses");
    let provenance = manifest.get("provenance").expect("provenance object");
    assert!(
        provenance
            .get("host_threads")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    assert!(provenance.get("rustc").and_then(Json::as_str).is_some());

    // ---- `tail` renders the stream into the per-scenario table.
    let mut rendered = Vec::new();
    tail::tail_dir(&traced_dir, &mut rendered).unwrap();
    let rendered = String::from_utf8(rendered).unwrap();
    for needle in ["fig6-quick", "fig7-quick", "decide", "p99", "3 job(s)"] {
        assert!(
            rendered.contains(needle),
            "tail output lacks '{needle}':\n{rendered}"
        );
    }
}
