//! Golden oracle for per-job campaign output: one [`ScenarioSpec::run_job`]
//! per experiment kind, pinned to an FNV-1a digest of the artifact bytes
//! plus the `{:?}` rendering of the returned metric rows.
//!
//! The jobs cover every `ExperimentKind` at its `quick()` config (Table II
//! has none, and the duel runs `PolicyRunConfig::quick()` against the
//! random policy), plus one lossy traffic run on two decide tiles. Every
//! deterministic observer kind rides on every job; `DecideTiming` is left
//! out because it measures wall time. f64s print exactly under `{:?}`, so
//! any change to an experiment's numbers, its artifact layout or its
//! metric order fails here. On a mismatch the test prints the whole
//! current table, ready to paste after an intended change.

use mhca_campaign::ingest::kind_from_json;
use mhca_campaign::{ExperimentKind, ScenarioSpec, SeedRange};
use mhca_core::experiments::{
    ComplexityConfig, Fig5Config, Fig6Config, Fig7Config, Fig8Config, Theorem3Config,
};
use mhca_core::{FlowSpec, ObserverKind, PolicyRunConfig, TrafficSpec};
use mhca_graph::TopologySpec;
use mhca_service::json;
use mhca_sim::LossSpec;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The policy-run quick config against the random policy, built through
/// the spec codec so the test does not depend on how the duel variant is
/// spelled in Rust.
fn quick_duel() -> ExperimentKind {
    let run = ExperimentKind::PolicyRun(PolicyRunConfig::quick()).to_json();
    let text = run.to_string_compact().replacen(
        "\"kind\":\"policy-run\"",
        "\"kind\":\"policy-duel\",\"challenger\":{\"name\":\"random\"}",
        1,
    );
    let kind = kind_from_json(&json::parse(&text).unwrap(), "spec").unwrap();
    assert_eq!(kind.tag(), "policy-duel");
    kind
}

/// A Poisson traffic run on a line under 10% control loss, on two tiles.
fn lossy_traffic() -> ExperimentKind {
    ExperimentKind::PolicyRun(PolicyRunConfig {
        n: 12,
        topology: TopologySpec::Line,
        horizon: 200,
        loss: LossSpec::lossy(0.1, 7),
        partitions: 2,
        traffic: Some(TrafficSpec::poisson(
            0.3,
            vec![
                FlowSpec {
                    src: 0,
                    dst: 5,
                    deadline: Some(20),
                },
                FlowSpec {
                    src: 9,
                    dst: 2,
                    deadline: None,
                },
            ],
        )),
        ..PolicyRunConfig::quick()
    })
}

/// Every observer kind whose metrics are a pure function of the run.
fn deterministic_observers() -> Vec<ObserverKind> {
    ObserverKind::ALL
        .into_iter()
        .filter(|k| *k != ObserverKind::DecideTiming)
        .collect()
}

const GOLDEN: &[(&str, u64)] = &[
    ("fig5", 0xfb5580df2a77cbbe),
    ("fig6", 0x2ca7a299eabcb591),
    ("fig7", 0xd4d49d3348b3ce27),
    ("fig8", 0x7e7fb97b42965858),
    ("table2", 0x97855a29c34da0c9),
    ("complexity", 0x0a684b98429af338),
    ("theorem3", 0xfbef276e4b7e0dfa),
    ("policy-run", 0xd0e0de38fcece35a),
    ("policy-duel", 0x708a787b55658910),
    ("policy-run lossy traffic p2", 0xd11a6c86649ed970),
];

#[test]
fn every_kind_writes_its_pinned_artifact_and_metrics() {
    let jobs = [
        ("fig5", ExperimentKind::Fig5(Fig5Config::quick())),
        ("fig6", ExperimentKind::Fig6(Fig6Config::quick())),
        ("fig7", ExperimentKind::Fig7(Fig7Config::quick())),
        ("fig8", ExperimentKind::Fig8(Fig8Config::quick())),
        ("table2", ExperimentKind::Table2),
        (
            "complexity",
            ExperimentKind::Complexity(ComplexityConfig::quick()),
        ),
        (
            "theorem3",
            ExperimentKind::Theorem3(Theorem3Config::quick()),
        ),
        (
            "policy-run",
            ExperimentKind::PolicyRun(PolicyRunConfig::quick()),
        ),
        ("policy-duel", quick_duel()),
        ("policy-run lossy traffic p2", lossy_traffic()),
    ];
    let mut got: Vec<(&str, u64)> = Vec::new();
    for (label, kind) in jobs {
        let spec = ScenarioSpec::new(label, label, kind, SeedRange::new(3, 1))
            .with_observers(deterministic_observers());
        let mut artifact = Vec::new();
        let rows = spec.run_job(3, &mut artifact).unwrap();
        let digest = fnv1a(0xcbf2_9ce4_8422_2325, &artifact);
        got.push((label, fnv1a(digest, format!("{rows:?}").as_bytes())));
    }
    let table: String = got
        .iter()
        .map(|(label, d)| format!("    ({label:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for ((label, d), (want_label, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(label, want_label, "golden table:\n{table}");
        assert_eq!(d, want, "{label}: digest changed; golden table:\n{table}");
    }
}
