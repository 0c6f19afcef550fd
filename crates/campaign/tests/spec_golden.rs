//! Golden oracle for the scenario-spec codec: the canonical `show`
//! rendering and `spec_hash` of every registry scenario, and the exact
//! `(path, message)` diagnostic of a table of malformed documents.
//!
//! Both tables were recorded on the hand-written emitters and parsers
//! that preceded the schema-driven codec, so any drift in canonical
//! bytes (which would invalidate manifest resume) or in the strict
//! ingest diagnostics fails here. On a mismatch the test prints the
//! whole current table, ready to paste after an intended change.

use mhca_campaign::ingest::campaign_from_str;
use mhca_campaign::registry;
use mhca_campaign::spec_hash;

/// FNV-1a 64 of `text`.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Panics with the whole current table (in source form) unless `got`
/// equals `want` row for row.
fn assert_table(got: &[String], want: &[String], what: &str) {
    if got != want {
        let table: String = got.iter().map(|row| format!("    {row},\n")).collect();
        let first = got
            .iter()
            .zip(want)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()));
        panic!(
            "{what} drifted (first difference at row {first}: got {:?}, want {:?}); \
             current table:\n{table}",
            got.get(first),
            want.get(first)
        );
    }
}

#[test]
fn show_output_and_spec_hash_are_pinned_for_every_registry_scenario() {
    let got: Vec<String> = registry::registry()
        .into_iter()
        .chain(registry::quick_registry())
        .map(|s| {
            let show = format!("{:016x}", fnv1a(&s.to_json().to_string_pretty()));
            let hash = spec_hash(&s.name, std::slice::from_ref(&s));
            format!("({:?}, {show:?}, {hash:?})", s.name)
        })
        .collect();
    let want: Vec<String> = SHOW_GOLDEN
        .iter()
        .map(|(name, show, hash)| format!("({name:?}, {show:?}, {hash:?})"))
        .collect();
    assert_table(&got, &want, "show/spec_hash golden");
}

#[test]
fn malformed_documents_get_pinned_diagnostics() {
    let row =
        |doc: &str, path: &str, message: &str| format!("(r#\"{doc}\"#, {path:?}, {message:?})");
    let got: Vec<String> = DIAGNOSTICS_GOLDEN
        .iter()
        .map(|(doc, _, _)| match campaign_from_str(doc) {
            Ok(_) => row(doc, "", "accepted"),
            Err(e) => row(doc, &e.path, &e.message),
        })
        .collect();
    let want: Vec<String> = DIAGNOSTICS_GOLDEN
        .iter()
        .map(|(doc, path, message)| row(doc, path, message))
        .collect();
    assert_table(&got, &want, "diagnostics golden");
}

/// `(scenario, FNV-1a 64 of the `show` output, spec_hash)` for every
/// scenario of `registry()` then `quick_registry()`.
const SHOW_GOLDEN: &[(&str, &str, &str)] = &[
    ("fig5", "20becf4711926bec", "3a99c8e024537e8e"),
    ("fig6", "3b9531e2e051c649", "93b8fc1e80e527b4"),
    ("fig7", "e491ab294b9a3592", "7ac0795063ba7b7c"),
    ("fig8", "aa2713258278d49c", "e89a89a17532737b"),
    ("fig8-reduced", "963a734d3d74332d", "3a6fdcac1161827d"),
    ("table2", "588ee1c8649a6bb2", "7bea81cab56bd219"),
    ("complexity", "49c8613e9bca3aec", "e80a62a5fdc988bd"),
    ("theorem3", "8361f1fbe364b5c4", "b54a3e2b925143c6"),
    ("fig7-lossy", "630e39b6967e9aa9", "5afda694c1b00f16"),
    ("fig6-lossy", "f9bdcae69c02f0a0", "8a9922cae945497e"),
    (
        "duel-adv-sinusoidal",
        "aade714a65e7f050",
        "d9ffb2dc80fec0b5",
    ),
    ("duel-adv-switching", "d8f662f459567620", "e078df18b2ada9ce"),
    ("duel-bernoulli", "4914c97649f94736", "b862ef509d675130"),
    ("topology-line", "b5c081f8d2085187", "a77cf72fe9e5e07a"),
    ("topology-grid", "9c62b53aed7506af", "de4254ccde7a6e14"),
    ("topology-complete", "afd459d50832bcd4", "d28b3bd2b0b9b53e"),
    ("policy-thompson", "1f856881e9e5e164", "906f1a99596b783c"),
    (
        "policy-epsilon-greedy",
        "a723b545e53cce94",
        "b85ed9f9e7551805",
    ),
    ("policy-oracle", "a48bd10aa9e2172c", "201fa01aa7636a66"),
    ("drift-regret", "c59f1ce3a27886d2", "89a40a446d58b1a2"),
    ("drift-thompson", "4d121da5630b8b65", "b2714b569f0c20a0"),
    ("drift-oracle", "30d816e4e6a79331", "a08166f7643174ea"),
    (
        "capture-adversarial",
        "5cfe57d549662098",
        "bbf893353f4901d4",
    ),
    ("large-n", "e86cf66ed15d8c8f", "6137791c59e0bc20"),
    ("sensing-cost", "41bdd70eb65cf20c", "52b6bae76bceacdc"),
    (
        "traffic-poisson-light",
        "974d9e7608d84f19",
        "043782e07a4b11b6",
    ),
    (
        "traffic-poisson-heavy",
        "3e02c1f5162c6bb4",
        "7bcbb19d677ca51e",
    ),
    (
        "traffic-deadline-duel",
        "a377e13a9038ee37",
        "c4bb079559f4a8b7",
    ),
    ("traffic-bursty", "08559d28f1e16fa5", "e4eb4e767e70ab23"),
    ("fig6-quick", "f3e27615371149ce", "0670be208b70aca7"),
    ("fig7-quick", "62dccd067c6a4ca3", "e261c66c8e22183d"),
];

/// `(document, path, message)`: one malformed document per row — an
/// unknown field at each nesting level, an unknown tag in each tagged
/// set, the first out-of-range value of every constrained field, wrong
/// JSON types, and every cross-field check.
const DIAGNOSTICS_GOLDEN: &[(&str, &str, &str)] = &[
    (r#"{"#, "<document>", "json parse error at byte 1: expected '\"'"),
    (r#"5"#, "<document>", "expected a scenario object or array"),
    (r#"[]"#, "<document>", "no scenarios in document"),
    (r#"{"campaign":"c","scenarios":[],"extra":1}"#, "<document>", "unknown field 'extra' (expected one of campaign, scenarios)"),
    (r#"{"campaign":"","scenarios":[{"name":"x","spec":{"kind":"table2"}}]}"#, "campaign", "must not be empty"),
    (r#"{"campaign":5,"scenarios":[]}"#, "<document>.campaign", "must be a string"),
    (r#"{"scenarios":{}}"#, "scenarios", "must be an array of scenario objects"),
    (r#"[{"name":"a","spec":{"kind":"table2"}},{"name":"a","spec":{"kind":"table2"}}]"#, "scenarios[1].name", "duplicate scenario name 'a'"),
    (r#"[5]"#, "[0]", "expected a scenario object"),
    (r#"{"name":"x","spec":{"kind":"table2"},"titel":"t"}"#, "scenario", "unknown field 'titel' (expected one of name, title, spec, seeds, observers); did you mean 'title'?"),
    (r#"{"name":"x","name":"y","spec":{"kind":"table2"}}"#, "scenario", "duplicate field 'name'"),
    (r#"{"spec":{"kind":"table2"}}"#, "scenario", "missing required field 'name'"),
    (r#"{"name":"x"}"#, "scenario", "missing required field 'spec'"),
    (r#"{"name":5,"spec":{"kind":"table2"}}"#, "scenario.name", "must be a string"),
    (r#"{"name":"x","title":5,"spec":{"kind":"table2"}}"#, "scenario.title", "must be a string"),
    (r#"{"name":"","spec":{"kind":"table2"}}"#, "scenario.name", "must not be empty"),
    (r#"{"name":"..","spec":{"kind":"table2"}}"#, "scenario.name", "must not be a relative path component"),
    (r#"{"name":"a/b","spec":{"kind":"table2"}}"#, "scenario.name", "must not contain path separators or control characters (it names the artifact directory)"),
    (r#"{"name":"x","spec":"fig7"}"#, "scenario.spec", "expected an experiment spec object"),
    (r#"{"name":"x","spec":{"kind":"table2"},"seeds":3}"#, "scenario.seeds", "expected an object {start, count}"),
    (r#"{"name":"x","spec":{"kind":"table2"},"seeds":{"start":0,"cnt":1}}"#, "scenario.seeds", "unknown field 'cnt' (expected one of start, count); did you mean 'count'?"),
    (r#"{"name":"x","spec":{"kind":"table2"},"seeds":{"start":0,"count":0}}"#, "scenario.seeds.count", "must be at least 1"),
    (r#"{"name":"x","spec":{"kind":"table2"},"seeds":{"start":-1}}"#, "scenario.seeds.start", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{"kind":"table2"},"seeds":{"start":9007199254740991,"count":2}}"#, "scenario.seeds", "start + count must stay within 2^53 (JSON-exact integers)"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":"comm-totals"}"#, "scenario.observers", "expected an array of observer labels or objects"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[5]}"#, "scenario.observers[0]", "expected an observer label string or object"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":["comm-total"]}"#, "scenario.observers[0]", "unknown observer 'comm-total' (expected one of decide-timing, comm-totals, per-vertex-tx, throughput, sensing-cost, capture-stats, windowed-regret, flow-delay, queue-tail); did you mean 'comm-totals'?"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":["comm-totals","throughput","comm-totals"]}"#, "scenario.observers[2]", "duplicate observer 'comm-totals'"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":["windowed-regret",{"kind":"windowed-regret","window":50}]}"#, "scenario.observers[1]", "duplicate observer 'windowed-regret'"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"window":5}]}"#, "scenario.observers[0]", "missing required field 'kind'"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"kind":7}]}"#, "scenario.observers[0].kind", "must be a string"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"kind":"comm-totals","window":5}]}"#, "scenario.observers[0]", "unknown field 'window' (expected one of kind); did you mean 'kind'?"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"kind":"sensing-cost","probe":1}]}"#, "scenario.observers[0]", "unknown field 'probe' (expected one of kind, probe_cost, report_cost)"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"kind":"sensing-cost","probe_cost":-0.5}]}"#, "scenario.observers[0].probe_cost", "must be finite and non-negative"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"kind":"sensing-cost","report_cost":-0.5}]}"#, "scenario.observers[0].report_cost", "must be finite and non-negative"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"kind":"windowed-regret","window":0}]}"#, "scenario.observers[0].window", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"kind":"windowed-regret","windw":5}]}"#, "scenario.observers[0]", "unknown field 'windw' (expected one of kind, window); did you mean 'window'?"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"kind":"queue-tail","bound":0}]}"#, "scenario.observers[0].bound", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"table2"},"observers":[{"kind":"queue-tail","bound":"big"}]}"#, "scenario.observers[0].bound", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{}}"#, "scenario.spec", "missing required field 'kind'"),
    (r#"{"name":"x","spec":{"kind":7}}"#, "scenario.spec.kind", "must be a string"),
    (r#"{"name":"x","spec":{"kind":"fig9"}}"#, "scenario.spec.kind", "unknown experiment kind 'fig9' (expected one of fig5, fig6, fig7, fig8, table2, complexity, theorem3, policy-run, policy-duel); did you mean 'fig5'?"),
    (r#"{"name":"x","spec":{"kind":"fig5","rr":1}}"#, "scenario.spec", "unknown field 'rr' (expected one of kind, ns, r); did you mean 'r'?"),
    (r#"{"name":"x","spec":{"kind":"fig6","mini":1}}"#, "scenario.spec", "unknown field 'mini' (expected one of kind, sizes, topology, channel, loss, r, minirounds); did you mean 'kind'?"),
    (r#"{"name":"x","spec":{"kind":"fig7","horizion":5}}"#, "scenario.spec", "unknown field 'horizion' (expected one of kind, n, m, topology, channel, loss, horizon, r, minirounds); did you mean 'horizon'?"),
    (r#"{"name":"x","spec":{"kind":"fig8","update_period":5}}"#, "scenario.spec", "unknown field 'update_period' (expected one of kind, n, m, topology, channel, loss, update_periods, updates_per_run, r, minirounds); did you mean 'update_periods'?"),
    (r#"{"name":"x","spec":{"kind":"table2","n":5}}"#, "scenario.spec", "unknown field 'n' (expected one of kind); did you mean 'kind'?"),
    (r#"{"name":"x","spec":{"kind":"complexity","r":1}}"#, "scenario.spec", "unknown field 'r' (expected one of kind, ns, m, rs, topology, channel, minirounds); did you mean 'm'?"),
    (r#"{"name":"x","spec":{"kind":"theorem3","horizon":5}}"#, "scenario.spec", "unknown field 'horizon' (expected one of kind, n, m, topology, channel, instances)"),
    (r#"{"name":"x","spec":{"kind":"policy-run","miniround":5}}"#, "scenario.spec", "unknown field 'miniround' (expected one of kind, n, m, topology, channel, policy, loss, horizon, update_period, r, minirounds, partitions, traffic); did you mean 'minirounds'?"),
    (r#"{"name":"x","spec":{"kind":"policy-duel","challenger":{"name":"llr"},"chalenger":1}}"#, "scenario.spec", "unknown field 'chalenger' (expected one of kind, n, m, topology, channel, policy, loss, horizon, update_period, r, minirounds, partitions, traffic, challenger); did you mean 'challenger'?"),
    (r#"{"name":"x","spec":{"kind":"policy-run","horizon":800,"horizon":5000}}"#, "scenario.spec", "duplicate field 'horizon'"),
    (r#"{"name":"x","spec":{"kind":"fig5","ns":[3,0]}}"#, "scenario.spec.ns[1]", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig5","ns":"3"}}"#, "scenario.spec.ns", "must be an array of non-negative integers"),
    (r#"{"name":"x","spec":{"kind":"fig5","ns":[1.5]}}"#, "scenario.spec.ns[0]", "must be a non-negative integer"),
    (r#"{"name":"x","spec":{"kind":"fig5","r":-1}}"#, "scenario.spec.r", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{"kind":"fig6","sizes":3}}"#, "scenario.spec.sizes", "expected an array of [n, m] pairs"),
    (r#"{"name":"x","spec":{"kind":"fig6","sizes":[[50,5],[1]]}}"#, "scenario.spec.sizes[1]", "expected a [n, m] pair of positive integers"),
    (r#"{"name":"x","spec":{"kind":"fig6","sizes":[[0,5]]}}"#, "scenario.spec.sizes[0]", "expected a [n, m] pair of positive integers"),
    (r#"{"name":"x","spec":{"kind":"fig6","minirounds":1.5}}"#, "scenario.spec.minirounds", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{"kind":"fig7","n":0}}"#, "scenario.spec.n", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig7","m":0}}"#, "scenario.spec.m", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig7","horizon":0}}"#, "scenario.spec.horizon", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig7","horizon":"50"}}"#, "scenario.spec.horizon", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{"kind":"fig8","update_periods":[1,0]}}"#, "scenario.spec.update_periods[1]", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig8","updates_per_run":0}}"#, "scenario.spec.updates_per_run", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"complexity","rs":[0]}}"#, "scenario.spec.rs[0]", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"complexity","m":0}}"#, "scenario.spec.m", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"theorem3","instances":0}}"#, "scenario.spec.instances", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"theorem3","n":0}}"#, "scenario.spec.n", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"policy-run","update_period":0}}"#, "scenario.spec.update_period", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"policy-run","partitions":-2}}"#, "scenario.spec.partitions", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{"kind":"policy-run","horizon":0}}"#, "scenario.spec.horizon", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"policy-duel"}}"#, "scenario.spec", "missing required field 'challenger'"),
    (r#"{"name":"x","spec":{"kind":"policy-duel","horizon":0,"challenger":{"name":"llr"}}}"#, "scenario.spec.horizon", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig7","topology":"line"}}"#, "scenario.spec.topology", "expected a topology object {family, ...}"),
    (r#"{"name":"x","spec":{"kind":"fig7","topology":{}}}"#, "scenario.spec.topology", "missing required field 'family'"),
    (r#"{"name":"x","spec":{"kind":"fig7","topology":{"family":"unit-disc"}}}"#, "scenario.spec.topology.family", "unknown topology family 'unit-disc' (expected one of unit-disk, unit-disk-connected, line, ring, grid, star, complete, independent); did you mean 'unit-disk'?"),
    (r#"{"name":"x","spec":{"kind":"fig7","topology":{"family":"unit-disk","avg_deg":3}}}"#, "scenario.spec.topology", "unknown field 'avg_deg' (expected one of family, avg_degree); did you mean 'avg_degree'?"),
    (r#"{"name":"x","spec":{"kind":"fig7","topology":{"family":"line","avg_degree":3}}}"#, "scenario.spec.topology", "unknown field 'avg_degree' (expected one of family)"),
    (r#"{"name":"x","spec":{"kind":"fig7","topology":{"family":"unit-disk","avg_degree":0}}}"#, "scenario.spec.topology.avg_degree", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig7","topology":{"family":"unit-disk-connected","avg_degree":0}}}"#, "scenario.spec.topology.avg_degree", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":[]}}"#, "scenario.spec.channel", "expected a channel-model object {family, ...}"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"gaussain"}}}"#, "scenario.spec.channel.family", "unknown channel family 'gaussain' (expected one of gaussian, constant, bernoulli, uniform, adv-sinusoidal, adv-switching, adv-ramp, drifting); did you mean 'gaussian'?"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"gaussian","sigma":0.1}}}"#, "scenario.spec.channel", "unknown field 'sigma' (expected one of family, sigma_frac)"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"constant","p":0.5}}}"#, "scenario.spec.channel", "unknown field 'p' (expected one of family)"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"gaussian","sigma_frac":1.01}}}"#, "scenario.spec.channel.sigma_frac", "must be in [0, 1]"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"gaussian","sigma_frac":"x"}}}"#, "scenario.spec.channel.sigma_frac", "must be a number"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"bernoulli","p":0}}}"#, "scenario.spec.channel.p", "must be in (0, 1]"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"uniform","spread_frac":-0.01}}}"#, "scenario.spec.channel.spread_frac", "must be in [0, 1]"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"adv-sinusoidal","amp_frac":1.01}}}"#, "scenario.spec.channel.amp_frac", "must be in [0, 1]"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"adv-sinusoidal","period":0}}}"#, "scenario.spec.channel.period", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"adv-switching","swing_frac":1.01}}}"#, "scenario.spec.channel.swing_frac", "must be in [0, 1]"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"adv-switching","dwell":0}}}"#, "scenario.spec.channel.dwell", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"adv-ramp","horizon":0}}}"#, "scenario.spec.channel.horizon", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting"}}}"#, "scenario.spec.channel.breakpoints", "drifting needs a breakpoints array of positive slots"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting","breakpoints":5}}}"#, "scenario.spec.channel.breakpoints", "drifting needs a breakpoints array of positive slots"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting","breakpoints":[]}}}"#, "scenario.spec.channel.breakpoints", "needs at least one breakpoint"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting","breakpoints":[10,0]}}}"#, "scenario.spec.channel.breakpoints[1]", "must be a positive integer slot"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting","breakpoints":[1.5]}}}"#, "scenario.spec.channel.breakpoints[0]", "must be a positive integer slot"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting","breakpoints":[10,20,20]}}}"#, "scenario.spec.channel.breakpoints[2]", "breakpoints must be strictly increasing"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting","breakpoints":[10,30,35],"ramp":6}}}"#, "scenario.spec.channel.ramp", "ramp (6) must not exceed the gap between consecutive breakpoints (smallest violated gap: 30 to 35)"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting","breakpoints":[10],"shift_frac":1.5}}}"#, "scenario.spec.channel.shift_frac", "must be in [0, 1]"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting","breakpoints":[10],"ramp":-1}}}"#, "scenario.spec.channel.ramp", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{"kind":"fig7","channel":{"family":"drifting","breakpoints":[10],"rmp":1}}}"#, "scenario.spec.channel", "unknown field 'rmp' (expected one of family, shift_frac, breakpoints, ramp); did you mean 'ramp'?"),
    (r#"{"name":"x","spec":{"kind":"fig7","loss":0.1}}"#, "scenario.spec.loss", "expected a loss object {prob, seed}"),
    (r#"{"name":"x","spec":{"kind":"fig7","loss":{"prob":0.1,"sed":1}}}"#, "scenario.spec.loss", "unknown field 'sed' (expected one of prob, seed); did you mean 'seed'?"),
    (r#"{"name":"x","spec":{"kind":"fig7","loss":{"prob":1}}}"#, "scenario.spec.loss.prob", "must be in [0, 1)"),
    (r#"{"name":"x","spec":{"kind":"fig7","loss":{"prob":-0.01}}}"#, "scenario.spec.loss.prob", "must be in [0, 1)"),
    (r#"{"name":"x","spec":{"kind":"fig7","loss":{"seed":-1}}}"#, "scenario.spec.loss.seed", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":"cs-ucb"}}"#, "scenario.spec.policy", "expected a policy object {name, ...}"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"l":2}}}"#, "scenario.spec.policy", "missing required field 'name'"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"cs-ucbb"}}}"#, "scenario.spec.policy.name", "unknown policy 'cs-ucbb' (expected one of cs-ucb, llr, thompson, discounted-cs-ucb, epsilon-greedy, random, oracle); did you mean 'cs-ucb'?"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"cs-ucb","gamma":0.5}}}"#, "scenario.spec.policy", "unknown field 'gamma' (expected one of name, l); did you mean 'name'?"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"random","l":2}}}"#, "scenario.spec.policy", "unknown field 'l' (expected one of name)"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"llr","l":"two"}}}"#, "scenario.spec.policy.l", "must be a number"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"cs-ucb","l":0}}}"#, "scenario.spec.policy.l", "must be positive and finite"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"cs-ucb","l":-1}}}"#, "scenario.spec.policy.l", "must be positive and finite"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"llr","l":-3}}}"#, "scenario.spec.policy.l", "must be positive and finite"),
    (r#"{"name":"x","spec":{"kind":"policy-duel","challenger":{"name":"llr","l":0}}}"#, "scenario.spec.challenger.l", "must be positive and finite"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"thompson","sigma":0}}}"#, "scenario.spec.policy.sigma", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"discounted-cs-ucb","gamma":0}}}"#, "scenario.spec.policy.gamma", "must be in (0, 1]"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"discounted-cs-ucb","gamma":1.01}}}"#, "scenario.spec.policy.gamma", "must be in (0, 1]"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"epsilon-greedy","eps":1.01}}}"#, "scenario.spec.policy.eps", "must be in [0, 1]"),
    (r#"{"name":"x","spec":{"kind":"policy-run","policy":{"name":"epsilon-greedy","eps":-0.01}}}"#, "scenario.spec.policy.eps", "must be in [0, 1]"),
    (r#"{"name":"x","spec":{"kind":"policy-duel","challenger":{"name":"oracle","l":2}}}"#, "scenario.spec.challenger", "unknown field 'l' (expected one of name)"),
    (r#"{"name":"x","spec":{"kind":"policy-duel","challenger":{"name":"thompson","sigma":0}}}"#, "scenario.spec.challenger.sigma", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":[]}}"#, "scenario.spec.traffic", "expected a traffic object {arrivals, flows, ...}"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":1}],"rate":1}}}"#, "scenario.spec.traffic", "unknown field 'rate' (expected one of arrivals, flows, packet_kbps, seed)"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic", "missing required field 'arrivals'"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"}}}}"#, "scenario.spec.traffic.flows", "traffic needs a flows array of {src, dst} objects"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":{}}}}"#, "scenario.spec.traffic.flows", "traffic needs a flows array of {src, dst} objects"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[]}}}"#, "scenario.spec.traffic.flows", "needs at least one flow"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":1}],"packet_kbps":0}}}"#, "scenario.spec.traffic.packet_kbps", "must be positive and finite"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":1}],"seed":-1}}}"#, "scenario.spec.traffic.seed", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":"poisson","flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals", "expected an arrival-process object {process, ...}"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"rate":1},"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals", "missing required field 'process'"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"posson"},"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals.process", "unknown arrival process 'posson' (expected one of poisson, deterministic, bursty); did you mean 'poisson'?"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson","burst":2},"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals", "unknown field 'burst' (expected one of process, rate)"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson","rate":0},"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals.rate", "must be positive and finite"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"bursty","rate":0},"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals.rate", "must be positive and finite"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"bursty","burst":0},"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals.burst", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"deterministic","period":0},"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals.period", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"bursty","rate":5,"burst":1},"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals.rate", "must not exceed burst (1): at most one burst arrives per slot"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"deterministic","rate":1},"flows":[{"src":0,"dst":1}]}}}"#, "scenario.spec.traffic.arrivals", "unknown field 'rate' (expected one of process, period)"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[1]}}}"#, "scenario.spec.traffic.flows[0]", "expected a flow object {src, dst[, deadline]}"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"dst":1}]}}}"#, "scenario.spec.traffic.flows[0]", "missing required field 'src'"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":1,"ddl":3}]}}}"#, "scenario.spec.traffic.flows[0]", "unknown field 'ddl' (expected one of src, dst, deadline); did you mean 'dst'?"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":2,"dst":2}]}}}"#, "scenario.spec.traffic.flows[0]", "src and dst must differ"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":8,"dst":1}]}}}"#, "scenario.spec.traffic.flows[0].src", "vertex 8 out of range for n = 8"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":8}]}}}"#, "scenario.spec.traffic.flows[0].dst", "vertex 8 out of range for n = 8"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":1},{"src":1,"dst":0,"deadline":0}]}}}"#, "scenario.spec.traffic.flows[1].deadline", "must be positive"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":8,"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":1,"deadline":"soon"}]}}}"#, "scenario.spec.traffic.flows[0].deadline", "must be a non-negative integer (within 2^53)"),
    (r#"{"name":"x","spec":{"kind":"policy-duel","n":4,"challenger":{"name":"llr"},"traffic":{"arrivals":{"process":"poisson"},"flows":[{"src":0,"dst":4}]}}}"#, "scenario.spec.traffic.flows[0].dst", "vertex 4 out of range for n = 4"),    (r#"{"name":"x","spec":{"kind":"fig6","sizes":[[1,1]],"topology":{"family":"unit-disk","avg_degree":5}}}"#, "scenario.spec.sizes[0]", "a unit-disk topology needs n >= 2 (got n = 1)"),
    (r#"{"name":"x","spec":{"kind":"fig6","sizes":[[50,5],[4,2]],"topology":{"family":"unit-disk","avg_degree":5}}}"#, "scenario.spec.sizes[1]", "a unit-disk topology needs avg_degree < n (got 5 with n = 4)"),
    (r#"{"name":"x","spec":{"kind":"fig7","n":3,"topology":{"family":"unit-disk-connected","avg_degree":3.5}}}"#, "scenario.spec.n", "a unit-disk-connected topology needs avg_degree < n (got 3.5 with n = 3)"),
    (r#"{"name":"x","spec":{"kind":"fig8","n":1,"topology":{"family":"unit-disk","avg_degree":4}}}"#, "scenario.spec.n", "a unit-disk topology needs n >= 2 (got n = 1)"),
    (r#"{"name":"x","spec":{"kind":"complexity","ns":[20,4],"topology":{"family":"unit-disk","avg_degree":4}}}"#, "scenario.spec.ns[1]", "a unit-disk topology needs avg_degree < n (got 4 with n = 4)"),
    (r#"{"name":"x","spec":{"kind":"theorem3","n":1,"topology":{"family":"unit-disk","avg_degree":0.5}}}"#, "scenario.spec.n", "a unit-disk topology needs n >= 2 (got n = 1)"),
    (r#"{"name":"x","spec":{"kind":"policy-run","n":2,"topology":{"family":"unit-disk","avg_degree":3.5}}}"#, "scenario.spec.n", "a unit-disk topology needs avg_degree < n (got 3.5 with n = 2)"),
    (r#"{"name":"x","spec":{"kind":"policy-duel","n":3,"challenger":{"name":"llr"},"topology":{"family":"unit-disk-connected","avg_degree":3}}}"#, "scenario.spec.n", "a unit-disk-connected topology needs avg_degree < n (got 3 with n = 3)"),
];
