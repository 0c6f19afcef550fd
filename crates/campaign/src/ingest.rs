//! User-authored scenario JSON ingestion — the inverse of
//! [`ScenarioSpec::to_json`].
//!
//! `mhca-campaign show <scenario>` emits canonical spec JSON; this module
//! parses the same shape back into [`ScenarioSpec`]s, so user-defined
//! campaigns run through `mhca-campaign run --scenario-file` without
//! recompiling the registry. Three document shapes are accepted:
//!
//! * a single scenario object (what `show` prints),
//! * an array of scenario objects,
//! * a campaign document `{"campaign": <name>, "scenarios": [...]}`.
//!
//! Each spec type is described once, in the crate's schema module: its
//! fields, with JSON key, default and check, drive both the emitter and
//! this strict parser. Unknown or repeated keys are rejected (with a
//! did-you-mean hint for typos like `horizion`, and for unknown kinds,
//! families, policies, observers and arrival processes), every error
//! carries its dotted JSON field path, and values that would panic deep
//! in the simulator (zero horizons, out-of-range probabilities, oversized
//! seed ranges, flows off the network) are refused up front. Omitted
//! fields keep the type's defaults, so hand-authored files only need the
//! fields they change — while `show` output, which carries every field,
//! re-emits byte-identical JSON.

use crate::schema::{self, check_fields, err, fail};
use crate::spec::{ExperimentKind, ScenarioSpec};
use mhca_service::json::{self, Json};

/// A spec-ingestion failure: the JSON field path plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted field path (e.g. `scenarios[2].spec.topology.family`).
    pub path: String,
    /// What went wrong there.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Parses a scenario document (see the module docs for accepted shapes)
/// into its scenarios, rejecting duplicate names. The campaign-document
/// shape may also carry a campaign name; see [`campaign_from_str`].
pub fn scenarios_from_str(text: &str) -> Result<Vec<ScenarioSpec>, SpecError> {
    campaign_from_str(text).map(|(_, scenarios)| scenarios)
}

/// As [`scenarios_from_str`], additionally returning the `"campaign"`
/// name when the document is the campaign shape and carries one (the CLI
/// uses it as the default campaign name for `run --scenario-file`).
pub fn campaign_from_str(text: &str) -> Result<(Option<String>, Vec<ScenarioSpec>), SpecError> {
    let doc = json::parse(text).map_err(|e| err("<document>", e.to_string()))?;
    let list = |items: &[Json], prefix: &str| {
        let item = |(i, v)| scenario_from_json(v, &format!("{prefix}[{i}]"));
        items
            .iter()
            .enumerate()
            .map(item)
            .collect::<Result<Vec<_>, _>>()
    };
    let mut campaign = None;
    let scenarios = match &doc {
        Json::Arr(items) => list(items, "")?,
        Json::Obj(_) if doc.get("scenarios").is_some() => {
            check_fields(&doc, "<document>", &["campaign", "scenarios"])?;
            campaign = match doc.get("campaign") {
                None => None,
                Some(Json::Str(name)) if name.is_empty() => {
                    return fail("campaign", "must not be empty");
                }
                Some(Json::Str(name)) => Some(name.clone()),
                Some(_) => return fail("<document>.campaign", "must be a string"),
            };
            let Some(items) = doc.get("scenarios").and_then(Json::as_arr) else {
                return fail("scenarios", "must be an array of scenario objects");
            };
            list(items, "scenarios")?
        }
        Json::Obj(_) => vec![scenario_from_json(&doc, "scenario")?],
        _ => return fail("<document>", "expected a scenario object or array"),
    };
    if scenarios.is_empty() {
        return fail("<document>", "no scenarios in document");
    }
    for (i, s) in scenarios.iter().enumerate() {
        if scenarios[..i].iter().any(|other| other.name == s.name) {
            let message = format!("duplicate scenario name '{}'", s.name);
            return fail(&format!("scenarios[{i}].name"), message);
        }
    }
    Ok((campaign, scenarios))
}

/// Parses one scenario object.
pub fn scenario_from_json(v: &Json, path: &str) -> Result<ScenarioSpec, SpecError> {
    schema::parse(v, path)
}

/// Parses one experiment spec object (the `"spec"` value of a scenario).
pub fn kind_from_json(v: &Json, path: &str) -> Result<ExperimentKind, SpecError> {
    schema::parse(v, path)
}

/// The closest candidate by edit distance (≤ 3 edits), for "did you
/// mean" hints on unknown names.
pub fn nearest<'a>(want: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .map(|c| (edit_distance(want, c), c))
        .filter(|&(d, _)| d <= 3)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

/// Levenshtein distance (iterative two-row DP).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::spec::SeedRange;
    use mhca_core::experiment::ObserverKind;
    use mhca_core::experiments::PolicyRunConfig;
    use mhca_core::{ArrivalProcess, FlowSpec};

    #[test]
    fn every_registry_scenario_round_trips_byte_identically() {
        for scenario in registry::registry()
            .into_iter()
            .chain(registry::quick_registry())
        {
            let text = scenario.to_json().to_string_pretty();
            let parsed =
                scenarios_from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            assert_eq!(parsed.len(), 1);
            assert_eq!(parsed[0], scenario, "{} spec drifted", scenario.name);
            assert_eq!(
                parsed[0].to_json().to_string_pretty(),
                text,
                "{} re-emission not byte-identical",
                scenario.name
            );
        }
    }

    #[test]
    fn campaign_documents_and_arrays_parse() {
        let scenarios = registry::quick_registry();
        let doc = crate::spec::campaign_json("mine", &scenarios).to_string_pretty();
        let (campaign, parsed) = campaign_from_str(&doc).unwrap();
        assert_eq!(campaign.as_deref(), Some("mine"));
        assert_eq!(parsed, scenarios);

        let arr = Json::Arr(scenarios.iter().map(|s| s.to_json()).collect());
        let (campaign, parsed) = campaign_from_str(&arr.to_string_pretty()).unwrap();
        assert_eq!(campaign, None, "arrays carry no campaign name");
        assert_eq!(parsed, scenarios);
    }

    #[test]
    fn duplicate_json_keys_rejected() {
        // Json::get is first-match: a repeated key would silently shadow
        // the later value, so ingestion must refuse it.
        let text = r#"{
            "name": "x",
            "spec": {"kind": "policy-run", "horizon": 800, "horizon": 5000}
        }"#;
        let err = scenarios_from_str(text).unwrap_err();
        assert_eq!(err.path, "scenario.spec");
        assert!(err.message.contains("duplicate field 'horizon'"), "{err}");
    }

    #[test]
    fn minimal_hand_authored_scenario_gets_defaults() {
        let text = r#"{
            "name": "mine",
            "spec": {"kind": "policy-run", "horizon": 50}
        }"#;
        let parsed = scenarios_from_str(text).unwrap();
        assert_eq!(parsed.len(), 1);
        let s = &parsed[0];
        assert_eq!(s.title, "mine");
        assert_eq!(s.seeds, SeedRange::new(0, 1));
        assert!(s.observers.is_empty());
        match &s.kind {
            ExperimentKind::PolicyRun(cfg) => {
                assert_eq!(cfg.horizon, 50);
                assert_eq!(cfg.n, PolicyRunConfig::default().n);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_carry_paths_and_hints() {
        let text = r#"{
            "name": "x",
            "spec": {"kind": "policy-run", "horizion": 50}
        }"#;
        let err = scenarios_from_str(text).unwrap_err();
        assert_eq!(err.path, "scenario.spec");
        assert!(err.message.contains("unknown field 'horizion'"), "{err}");
        assert!(err.message.contains("did you mean 'horizon'"), "{err}");

        let nested = r#"{
            "name": "x",
            "spec": {"kind": "fig7", "topology": {"family": "unit-disk", "avg_deg": 3.0}}
        }"#;
        let err = scenarios_from_str(nested).unwrap_err();
        assert_eq!(err.path, "scenario.spec.topology");
        assert!(err.message.contains("avg_deg"), "{err}");
    }

    #[test]
    fn unknown_kind_family_policy_are_diagnosed() {
        let bad_kind = r#"{"name": "x", "spec": {"kind": "fig9"}}"#;
        let err = scenarios_from_str(bad_kind).unwrap_err();
        assert_eq!(err.path, "scenario.spec.kind");
        assert!(err.message.contains("did you mean 'fig"), "{err}");

        let bad_family = r#"{
            "name": "x",
            "spec": {"kind": "fig7", "channel": {"family": "gaussain"}}
        }"#;
        let err = scenarios_from_str(bad_family).unwrap_err();
        assert_eq!(err.path, "scenario.spec.channel.family");

        let bad_policy = r#"{
            "name": "x",
            "spec": {"kind": "policy-run", "policy": {"name": "ucb9000"}}
        }"#;
        let err = scenarios_from_str(bad_policy).unwrap_err();
        assert_eq!(err.path, "scenario.spec.policy.name");
    }

    #[test]
    fn panicking_values_are_refused_up_front() {
        for (snippet, path_bit) in [
            (
                r#"{"name":"x","spec":{"kind":"policy-run","horizon":0}}"#,
                "horizon",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","update_period":0}}"#,
                "update_period",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","loss":{"prob":1.5,"seed":0}}}"#,
                "loss.prob",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","channel":{"family":"bernoulli","p":0}}}"#,
                "channel.p",
            ),
            (
                r#"{"name":"x","seeds":{"start":0,"count":0},"spec":{"kind":"table2"}}"#,
                "count",
            ),
            (
                r#"{"name":"x","seeds":{"start":9007199254740992,"count":1},"spec":{"kind":"table2"}}"#,
                "seeds",
            ),
            (
                r#"{"name":"x","observers":["decide-timer"],"spec":{"kind":"table2"}}"#,
                "observers",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"thompson","sigma":0}}}"#,
                "policy.sigma",
            ),
            (
                r#"{"name":"x","spec":{"kind":"complexity","ns":[25,0]}}"#,
                "ns[1]",
            ),
            (
                r#"{"name":"x","spec":{"kind":"fig8","update_periods":[1,0]}}"#,
                "update_periods[1]",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","traffic":{"arrivals":{"process":"poisson","rate":0},"flows":[{"src":0,"dst":1}]}}}"#,
                "traffic.arrivals.rate",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","traffic":{"arrivals":{"process":"poisson"},"flows":[]}}}"#,
                "traffic.flows",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":2,"dst":2}]}}}"#,
                "traffic.flows[0]",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":8}]}}}"#,
                "traffic.flows[0].dst",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":1,"deadline":0}]}}}"#,
                "traffic.flows[0].deadline",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":1}],"packet_kbps":0}}}"#,
                "traffic.packet_kbps",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","traffic":{"arrivals":{"process":"bursty","burst":0},"flows":[{"src":0,"dst":1}]}}}"#,
                "traffic.arrivals.burst",
            ),
            (
                r#"{"name":"x","observers":[{"kind":"queue-tail","bound":0}],"spec":{"kind":"table2"}}"#,
                "bound",
            ),
        ] {
            let err = scenarios_from_str(snippet).unwrap_err();
            assert!(
                err.path.contains(path_bit),
                "snippet {snippet} gave path {} ({})",
                err.path,
                err.message
            );
        }
    }

    #[test]
    fn duplicate_observers_rejected() {
        let text = r#"{
            "name": "x",
            "observers": ["comm-totals", "throughput", "comm-totals"],
            "spec": {"kind": "policy-run"}
        }"#;
        let err = scenarios_from_str(text).unwrap_err();
        assert_eq!(err.path, "scenario.observers[2]");
        assert!(err.message.contains("duplicate observer"), "{err}");

        // Same-label duplicates through different shapes (string + object
        // with different knobs) collide on the metric prefix too.
        let text = r#"{
            "name": "x",
            "observers": ["windowed-regret", {"kind": "windowed-regret", "window": 50}],
            "spec": {"kind": "policy-run"}
        }"#;
        let err = scenarios_from_str(text).unwrap_err();
        assert_eq!(err.path, "scenario.observers[1]");
        assert!(err.message.contains("duplicate observer"), "{err}");
    }

    #[test]
    fn parameterized_observers_parse_both_shapes() {
        // Bare labels come back at default parameters; objects override.
        let text = r#"{
            "name": "x",
            "observers": [
                "sensing-cost",
                {"kind": "windowed-regret", "window": 125},
                {"kind": "capture-stats"}
            ],
            "spec": {"kind": "policy-run"}
        }"#;
        let parsed = scenarios_from_str(text).unwrap();
        assert_eq!(
            parsed[0].observers,
            vec![
                ObserverKind::SensingCost {
                    probe_cost: 1.0,
                    report_cost: 0.1
                },
                ObserverKind::WindowedRegret { window: 125 },
                ObserverKind::CaptureStats,
            ]
        );
        // Canonical re-emission parses back to the same scenario.
        let text = parsed[0].to_json().to_string_pretty();
        assert_eq!(scenarios_from_str(&text).unwrap(), parsed);
    }

    #[test]
    fn bad_observer_parameters_are_refused() {
        for (snippet, path_bit) in [
            (
                r#"{"name":"x","observers":[{"kind":"windowed-regret","window":0}],"spec":{"kind":"policy-run"}}"#,
                "window",
            ),
            (
                r#"{"name":"x","observers":[{"kind":"sensing-cost","probe_cost":-1}],"spec":{"kind":"policy-run"}}"#,
                "probe_cost",
            ),
            (
                r#"{"name":"x","observers":[{"kind":"comm-totals","window":5}],"spec":{"kind":"policy-run"}}"#,
                "observers[0]",
            ),
            (
                r#"{"name":"x","observers":[{"kind":"windowed-regrets"}],"spec":{"kind":"policy-run"}}"#,
                "observers[0]",
            ),
            (
                r#"{"name":"x","observers":[{"window":5}],"spec":{"kind":"policy-run"}}"#,
                "observers[0]",
            ),
        ] {
            let err = scenarios_from_str(snippet).unwrap_err();
            assert!(
                err.path.contains(path_bit),
                "snippet {snippet} gave path {} ({})",
                err.path,
                err.message
            );
        }
    }

    #[test]
    fn drifting_channel_round_trips_and_validates() {
        let text = r#"{
            "name": "drift",
            "spec": {
                "kind": "policy-run",
                "channel": {
                    "family": "drifting",
                    "shift_frac": 0.4,
                    "breakpoints": [250, 500, 750],
                    "ramp": 20
                },
                "horizon": 1000
            }
        }"#;
        let parsed = scenarios_from_str(text).unwrap();
        let ExperimentKind::PolicyRun(cfg) = &parsed[0].kind else {
            panic!("wrong kind");
        };
        assert_eq!(
            cfg.channel,
            mhca_channels::ChannelModelSpec::Drifting {
                shift_frac: 0.4,
                breakpoints: vec![250, 500, 750],
                ramp: 20,
            }
        );
        let emitted = parsed[0].to_json().to_string_pretty();
        assert_eq!(scenarios_from_str(&emitted).unwrap(), parsed);
        assert_eq!(
            scenarios_from_str(&emitted).unwrap()[0]
                .to_json()
                .to_string_pretty(),
            emitted,
            "drifting re-emission not byte-identical"
        );
    }

    #[test]
    fn bad_drifting_parameters_are_refused() {
        for (snippet, path_bit) in [
            // Missing breakpoints: the family is meaningless without them.
            (
                r#"{"name":"x","spec":{"kind":"policy-run","channel":{"family":"drifting"}}}"#,
                "breakpoints",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","channel":{"family":"drifting","breakpoints":[]}}}"#,
                "breakpoints",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","channel":{"family":"drifting","breakpoints":[0]}}}"#,
                "breakpoints[0]",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","channel":{"family":"drifting","breakpoints":[500,250]}}}"#,
                "breakpoints[1]",
            ),
            (
                r#"{"name":"x","spec":{"kind":"policy-run","channel":{"family":"drifting","breakpoints":[250],"shift_frac":1.5}}}"#,
                "shift_frac",
            ),
            // A ramp longer than a segment would jump from mid-ramp.
            (
                r#"{"name":"x","spec":{"kind":"policy-run","channel":{"family":"drifting","breakpoints":[10,12],"ramp":5}}}"#,
                "ramp",
            ),
        ] {
            let err = scenarios_from_str(snippet).unwrap_err();
            assert!(
                err.path.contains(path_bit),
                "snippet {snippet} gave path {} ({})",
                err.path,
                err.message
            );
        }
    }

    #[test]
    fn traffic_specs_round_trip_and_diagnose() {
        // Every arrival-process family, a deadline-carrying flow, and an
        // unbounded one: the canonical re-emission must be byte-identical
        // (the deadline key is omitted, not null, so a round trip cannot
        // invent it).
        let text = r#"{
            "name": "flows",
            "spec": {
                "kind": "policy-run",
                "n": 12,
                "topology": {"family": "ring"},
                "horizon": 400,
                "traffic": {
                    "arrivals": {"process": "bursty", "rate": 0.3, "burst": 6},
                    "flows": [
                        {"src": 0, "dst": 5, "deadline": 24},
                        {"src": 7, "dst": 2}
                    ],
                    "packet_kbps": 80,
                    "seed": 9
                }
            },
            "observers": ["flow-delay", {"kind": "queue-tail", "bound": 16}]
        }"#;
        let parsed = scenarios_from_str(text).unwrap();
        let ExperimentKind::PolicyRun(cfg) = &parsed[0].kind else {
            panic!("wrong kind");
        };
        let traffic = cfg.traffic.as_ref().expect("traffic parsed");
        assert_eq!(
            traffic.arrivals,
            ArrivalProcess::Bursty {
                rate: 0.3,
                burst: 6
            }
        );
        assert_eq!(
            traffic.flows,
            vec![
                FlowSpec {
                    src: 0,
                    dst: 5,
                    deadline: Some(24)
                },
                FlowSpec {
                    src: 7,
                    dst: 2,
                    deadline: None
                },
            ]
        );
        assert_eq!(traffic.packet_kbps, 80.0);
        assert_eq!(traffic.seed, 9);
        assert_eq!(
            parsed[0].observers,
            vec![
                ObserverKind::FlowDelay,
                ObserverKind::QueueTail { bound: 16 }
            ]
        );
        let emitted = parsed[0].to_json().to_string_pretty();
        assert_eq!(scenarios_from_str(&emitted).unwrap(), parsed);
        assert_eq!(
            scenarios_from_str(&emitted).unwrap()[0]
                .to_json()
                .to_string_pretty(),
            emitted,
            "traffic re-emission not byte-identical"
        );

        // Typo in the process name gets the usual nearest-label hint.
        let typo = r#"{
            "name": "x",
            "spec": {
                "kind": "policy-run",
                "traffic": {"arrivals": {"process": "posson"}, "flows": [{"src": 0, "dst": 1}]}
            }
        }"#;
        let err = scenarios_from_str(typo).unwrap_err();
        assert_eq!(err.path, "scenario.spec.traffic.arrivals.process");
        assert!(err.message.contains("did you mean 'poisson'"), "{err}");
    }

    #[test]
    fn duplicate_names_rejected() {
        let text = r#"[
            {"name": "a", "spec": {"kind": "table2"}},
            {"name": "a", "spec": {"kind": "table2"}}
        ]"#;
        let err = scenarios_from_str(text).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn string_escapes_survive_ingestion() {
        // Titles are free-form (only names are path-constrained): quotes,
        // backslashes, tabs, and non-ASCII must round-trip exactly.
        let spec = ScenarioSpec::new(
            "weird name with spaces é 中",
            "title \"quoted\" with \\ and \t tab and 😀",
            ExperimentKind::Table2,
            SeedRange::new(0, 1),
        );
        let text = spec.to_json().to_string_pretty();
        let parsed = scenarios_from_str(&text).unwrap();
        assert_eq!(parsed[0], spec);
        assert_eq!(parsed[0].to_json().to_string_pretty(), text);
    }

    #[test]
    fn path_traversal_names_rejected() {
        for bad in ["../../tmp/evil", "a/b", "a\\b", "..", ".", "ctrl\u{1}name"] {
            // Emit through the JSON writer so escapes are JSON-valid.
            let text = Json::obj(vec![
                ("name", Json::str(bad)),
                ("spec", Json::obj(vec![("kind", Json::str("table2"))])),
            ])
            .to_string_compact();
            let err =
                scenarios_from_str(&text).expect_err(&format!("accepted dangerous name {bad:?}"));
            assert_eq!(err.path, "scenario.name", "{bad:?}: {err}");
        }
    }

    #[test]
    fn non_finite_numbers_and_trailing_garbage_rejected() {
        for bad in [
            r#"{"name":"x","spec":{"kind":"policy-run","horizon":NaN}}"#,
            r#"{"name":"x","spec":{"kind":"policy-run","horizon":Infinity}}"#,
            r#"{"name":"x","spec":{"kind":"policy-run","horizon":1e999}}"#,
            r#"{"name":"x","spec":{"kind":"table2"}} trailing"#,
            r#"{"name":"x","spec":{"kind":"table2"}}{}"#,
        ] {
            let err = scenarios_from_str(bad).unwrap_err();
            assert_eq!(err.path, "<document>", "accepted {bad}: {err}");
        }
    }

    #[test]
    fn edit_distance_and_nearest() {
        assert_eq!(edit_distance("fig7", "fig7"), 0);
        assert_eq!(edit_distance("fig9", "fig8"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(
            nearest("fig6-quik", ["fig6-quick", "fig7-quick"].into_iter()),
            Some("fig6-quick")
        );
        assert_eq!(nearest("zzzzzzz", ["fig6", "fig7"].into_iter()), None);
    }

    #[test]
    fn ingested_scenario_actually_runs() {
        let text = r#"{
            "name": "user-authored",
            "title": "tiny policy run",
            "spec": {
                "kind": "policy-run",
                "n": 8, "m": 2,
                "topology": {"family": "unit-disk", "avg_degree": 3.5},
                "channel": {"family": "constant"},
                "policy": {"name": "cs-ucb", "l": 2},
                "horizon": 40, "update_period": 1, "r": 1, "minirounds": 4
            },
            "seeds": {"start": 3, "count": 1},
            "observers": ["comm-totals"]
        }"#;
        let parsed = scenarios_from_str(text).unwrap();
        let mut sink = Vec::new();
        let metrics = parsed[0].run_job(3, &mut sink).unwrap();
        assert!(metrics.iter().any(|(k, _)| k == "avg_expected_kbps"));
        assert!(metrics.iter().any(|(k, _)| k == "comm-totals:decisions"));
        assert!(!sink.is_empty());
    }
}
