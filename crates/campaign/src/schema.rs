//! One schema per spec type: each field is declared once — JSON key,
//! Rust field, default and constraint — and that declaration drives both
//! the canonical emitter (`show`, the manifest record, the spec hash) and
//! the strict parser behind [`crate::ingest`].
//!
//! A spec type implements [`Schema`]: its [`fields`](Schema::fields)
//! method hands every field, in canonical order, to a [`Visitor`]. Three
//! visitors walk that one list: one collects the allowed keys, one emits
//! the canonical JSON, one parses a JSON object into the value. Parsing
//! starts from a template (the type's defaults; for tagged enums, the
//! variant named by the tag at its defaults), so an omitted field keeps
//! its default. Constraints are plain functions on the parsed field;
//! checks that span fields run afterwards in [`Schema::validate`].
//!
//! The workspace links no serialization framework, so this is the
//! derive-free route: a trait with one visitor per direction.

use crate::ingest::{nearest, SpecError};
use crate::spec::{ExperimentKind, ScenarioSpec, SeedRange};
use mhca_channels::ChannelModelSpec;
use mhca_core::experiment::ObserverKind;
use mhca_core::experiments::{PolicyDuelConfig, PolicyRunConfig, PolicySpec};
use mhca_core::{ArrivalProcess, FlowSpec, TrafficSpec};
use mhca_graph::TopologySpec;
use mhca_service::json::Json;
use mhca_sim::LossSpec;

pub(crate) fn err(path: &str, message: impl Into<String>) -> SpecError {
    SpecError {
        path: path.to_string(),
        message: message.into(),
    }
}

pub(crate) fn fail<T>(path: &str, message: impl Into<String>) -> Result<T, SpecError> {
    Err(err(path, message))
}

/// A check's verdict: `Err((path suffix, message))`. The suffix is
/// relative to the checked value (`"[2]"` for an array element,
/// `".ramp"` for a field of a checked object) and empty for the value
/// itself.
pub(crate) type Checked = Result<(), (String, String)>;

/// A field check: a plain function of the parsed value.
pub(crate) type Check<T> = fn(&T) -> Checked;

fn ensure(ok: bool, suffix: &str, message: impl Into<String>) -> Checked {
    if ok {
        Ok(())
    } else {
        Err((suffix.to_string(), message.into()))
    }
}

fn positive<T: PartialOrd + Default>(x: &T) -> Checked {
    ensure(*x > T::default(), "", "must be positive")
}

fn each_positive<T: AsRef<[usize]>>(xs: &T) -> Checked {
    match xs.as_ref().iter().position(|&x| x == 0) {
        Some(i) => ensure(false, &format!("[{i}]"), "must be positive"),
        None => Ok(()),
    }
}

fn positive_finite(x: &f64) -> Checked {
    ensure(*x > 0.0 && x.is_finite(), "", "must be positive and finite")
}

fn unit(x: &f64) -> Checked {
    ensure((0.0..=1.0).contains(x), "", "must be in [0, 1]")
}

fn unit_open_low(x: &f64) -> Checked {
    ensure(*x > 0.0 && *x <= 1.0, "", "must be in (0, 1]")
}

fn cost(x: &f64) -> Checked {
    ensure(
        *x >= 0.0 && x.is_finite(),
        "",
        "must be finite and non-negative",
    )
}

/// Declares a tagged enum's variants in canonical order, each field
/// once — `rust_field "json_key" = default => visitor method(check);` —
/// and expands to the [`Schema::templates`] and [`Schema::fields`] they
/// imply.
macro_rules! variants {
    ($ty:ident: $($variant:ident $({
        $($field:ident $key:literal = $default:expr => $method:ident $(($check:expr))?;)*
    })?),* $(,)?) => {
        fn templates() -> Vec<Self> {
            vec![$($ty::$variant $({ $($field: $default),* })?),*]
        }

        fn fields(&mut self, v: &mut impl Visitor) {
            match self {
                $($ty::$variant $({ $($field),* })? => {
                    $($(v.$method($key, $field $(, $check)?);)*)?
                })*
            }
        }
    };
}

/// Receives a spec value's fields in canonical order.
pub(crate) trait Visitor {
    /// One field: its JSON key, the Rust field, whether the parser
    /// requires it, and the check a parsed value must pass.
    fn visit<T: Value>(&mut self, key: &'static str, slot: &mut T, req: bool, check: Check<T>);

    /// An optional, unchecked field.
    fn field<T: Value>(&mut self, key: &'static str, value: &mut T) {
        self.visit(key, value, false, |_| Ok(()));
    }

    /// An optional field with a check.
    fn checked<T: Value>(&mut self, key: &'static str, value: &mut T, check: Check<T>) {
        self.visit(key, value, false, check);
    }

    /// A field the parser requires.
    fn required<T: Value>(&mut self, key: &'static str, value: &mut T) {
        self.visit(key, value, true, |_| Ok(()));
    }
}

/// A spec type written as a JSON object.
pub(crate) trait Schema: Clone {
    /// The diagnostic for a value of the wrong JSON type.
    const EXPECTED: &'static str;
    /// Tagged enums: the tag key and the noun naming the tag set.
    const TAG: Option<(&'static str, &'static str)> = None;
    /// The tag of a variant (tagged enums only).
    const LABEL: fn(&Self) -> &'static str = |_| "";
    /// Whether fieldless variants are written as their bare label.
    const BARE: bool = false;
    /// Array diagnostic, for types that appear as array elements.
    const ARRAY: &'static str = "";
    /// Whether an empty array of these is left out.
    const OMIT_EMPTY: bool = false;

    /// Where parsing starts: the defaults of an untagged type (one
    /// value), or every variant of a tagged enum at its defaults, in
    /// canonical order.
    fn templates() -> Vec<Self>;

    /// Hands every field, in canonical order, to `v`.
    fn fields(&mut self, v: &mut impl Visitor);

    /// Checks across fields, run on the parsed value; `obj` is its JSON.
    fn validate(&mut self, _obj: &Json) -> Checked {
        Ok(())
    }
}

/// A field type: how one value is written and read.
pub(crate) trait Value: Sized {
    /// The diagnostic for a non-array (or missing required) array of
    /// these.
    const ARRAY: &'static str = "";
    /// Whether an empty array of these is left out.
    const OMIT_EMPTY: bool = false;

    /// The canonical JSON, or `None` when the field is left out.
    fn emit(&self) -> Option<Json>;

    /// Reads a present value.
    fn parse(v: &Json, path: &str) -> Result<Self, SpecError>;

    /// Reads one element of an array of these.
    fn parse_elem(v: &Json, path: &str) -> Result<Self, SpecError> {
        Self::parse(v, path)
    }

    /// The diagnostic for a missing required field.
    fn missing(parent: &str, key: &str) -> SpecError {
        err(parent, format!("missing required field '{key}'"))
    }
}

/// The canonical JSON of a spec value.
pub(crate) fn emit<T: Schema>(value: &T) -> Json {
    let mut out = Emit(Vec::new());
    value.clone().fields(&mut out);
    let label = (T::LABEL)(value);
    match T::TAG {
        _ if T::BARE && out.0.is_empty() => Json::str(label),
        Some((key, _)) => {
            out.0.insert(0, (key.to_string(), Json::str(label)));
            Json::Obj(out.0)
        }
        None => Json::Obj(out.0),
    }
}

/// Parses a spec value strictly: unknown or duplicate keys, wrong JSON
/// types, failed checks and failed cross-field checks are errors
/// carrying the field path.
pub(crate) fn parse<T: Schema>(v: &Json, path: &str) -> Result<T, SpecError> {
    if let (true, Some(label)) = (T::BARE, v.as_str()) {
        return lookup(label, path);
    }
    if !matches!(v, Json::Obj(_)) {
        return fail(path, T::EXPECTED);
    }
    let mut value: T = match T::TAG {
        None => T::templates().remove(0),
        Some((key, _)) => match v.get(key) {
            // A bare-label type reports an unknown tag at the entry
            // itself, whichever shape named it.
            Some(Json::Str(label)) if T::BARE => lookup(label, path)?,
            Some(Json::Str(label)) => lookup(label, &format!("{path}.{key}"))?,
            Some(_) => return fail(&format!("{path}.{key}"), "must be a string"),
            None => return fail(path, format!("missing required field '{key}'")),
        },
    };
    let mut keys = Keys(T::TAG.map(|(key, _)| key).into_iter().collect());
    value.fields(&mut keys);
    check_fields(v, path, &keys.0)?;
    let mut parser = Parse {
        obj: v,
        path,
        result: Ok(()),
    };
    value.fields(&mut parser);
    parser.result?;
    value
        .validate(v)
        .map_err(|(suffix, message)| err(&format!("{path}{suffix}"), message))?;
    Ok(value)
}

/// The variant of `T` tagged `label`, at its defaults.
fn lookup<T: Schema>(label: &str, path: &str) -> Result<T, SpecError> {
    let templates = T::templates();
    let labels: Vec<&str> = templates.iter().map(T::LABEL).collect();
    match labels.iter().position(|&l| l == label) {
        Some(i) => Ok(templates[i].clone()),
        None => fail(path, unknown(T::TAG.map_or("", |t| t.1), label, &labels)),
    }
}

/// `unknown <what> '<name>' (expected one of …)`, plus a did-you-mean
/// hint when a candidate is close — the one diagnostic for unknown tags
/// and unknown keys.
fn unknown(what: &str, name: &str, candidates: &[&str]) -> String {
    let mut message = format!(
        "unknown {what} '{name}' (expected one of {})",
        candidates.join(", ")
    );
    if let Some(near) = nearest(name, candidates.iter().copied()) {
        message.push_str(&format!("; did you mean '{near}'?"));
    }
    message
}

/// Rejects keys outside `allowed` (with a nearest-key hint) and repeated
/// keys.
pub(crate) fn check_fields(v: &Json, path: &str, allowed: &[&str]) -> Result<(), SpecError> {
    let Json::Obj(pairs) = v else {
        return Ok(());
    };
    for (i, (key, _)) in pairs.iter().enumerate() {
        if !allowed.contains(&key.as_str()) {
            return fail(path, unknown("field", key, allowed));
        }
        // `Json::get` returns the first match, so a repeated key would
        // silently shadow the later value — exactly the kind of edit
        // mistake (add a line, forget to delete the old one) strict
        // ingest exists to catch.
        if pairs[..i].iter().any(|(earlier, _)| earlier == key) {
            return fail(path, format!("duplicate field '{key}'"));
        }
    }
    Ok(())
}

struct Keys(Vec<&'static str>);

impl Visitor for Keys {
    fn visit<T: Value>(&mut self, key: &'static str, _: &mut T, _: bool, _: Check<T>) {
        self.0.push(key);
    }
}

struct Emit(Vec<(String, Json)>);

impl Visitor for Emit {
    fn visit<T: Value>(&mut self, key: &'static str, value: &mut T, _: bool, _: Check<T>) {
        if let Some(json) = value.emit() {
            self.0.push((key.to_string(), json));
        }
    }
}

/// Overwrites each present field; stops at the first error.
struct Parse<'a> {
    obj: &'a Json,
    path: &'a str,
    result: Result<(), SpecError>,
}

impl Visitor for Parse<'_> {
    fn visit<T: Value>(&mut self, key: &'static str, slot: &mut T, req: bool, check: Check<T>) {
        if self.result.is_err() {
            return;
        }
        let path = format!("{}.{key}", self.path);
        self.result = match self.obj.get(key) {
            None if req => Err(T::missing(self.path, key)),
            None => Ok(()),
            Some(json) => T::parse(json, &path).and_then(|parsed| {
                check(&parsed)
                    .map_err(|(suffix, message)| err(&format!("{path}{suffix}"), message))?;
                *slot = parsed;
                Ok(())
            }),
        };
    }
}

// ---- Field types.

impl<T: Schema> Value for T {
    const ARRAY: &'static str = T::ARRAY;
    const OMIT_EMPTY: bool = T::OMIT_EMPTY;

    fn emit(&self) -> Option<Json> {
        Some(emit(self))
    }

    fn parse(v: &Json, path: &str) -> Result<Self, SpecError> {
        parse(v, path)
    }
}

impl Value for f64 {
    fn emit(&self) -> Option<Json> {
        Some(Json::Num(*self))
    }

    fn parse(v: &Json, path: &str) -> Result<Self, SpecError> {
        v.as_f64().ok_or_else(|| err(path, "must be a number"))
    }
}

impl Value for u64 {
    /// `u64` arrays are the drifting channel's breakpoint slots.
    const ARRAY: &'static str = "drifting needs a breakpoints array of positive slots";

    fn emit(&self) -> Option<Json> {
        Some(Json::Num(*self as f64))
    }

    fn parse(v: &Json, path: &str) -> Result<Self, SpecError> {
        v.as_u64()
            .ok_or_else(|| err(path, "must be a non-negative integer (within 2^53)"))
    }

    fn parse_elem(v: &Json, path: &str) -> Result<Self, SpecError> {
        let slot = v.as_u64().filter(|&b| b > 0);
        slot.ok_or_else(|| err(path, "must be a positive integer slot"))
    }
}

impl Value for usize {
    const ARRAY: &'static str = "must be an array of non-negative integers";

    fn emit(&self) -> Option<Json> {
        Some(Json::Num(*self as f64))
    }

    fn parse(v: &Json, path: &str) -> Result<Self, SpecError> {
        u64::parse(v, path).map(|x| x as usize)
    }

    fn parse_elem(v: &Json, path: &str) -> Result<Self, SpecError> {
        let x = v.as_u64().map(|x| x as usize);
        x.ok_or_else(|| err(path, "must be a non-negative integer"))
    }
}

/// Fig. 6 `[n, m]` network sizes.
impl Value for (usize, usize) {
    const ARRAY: &'static str = "expected an array of [n, m] pairs";

    fn emit(&self) -> Option<Json> {
        Some(Json::Arr(vec![self.0.emit()?, self.1.emit()?]))
    }

    fn parse(v: &Json, path: &str) -> Result<Self, SpecError> {
        let positive = |x: &Json| x.as_u64().filter(|&x| x > 0).map(|x| x as usize);
        let pair = match v.as_arr() {
            Some([n, m]) => positive(n).zip(positive(m)),
            _ => None,
        };
        pair.ok_or_else(|| err(path, "expected a [n, m] pair of positive integers"))
    }
}

impl Value for String {
    fn emit(&self) -> Option<Json> {
        Some(Json::str(self))
    }

    fn parse(v: &Json, path: &str) -> Result<Self, SpecError> {
        let s = v.as_str().map(str::to_string);
        s.ok_or_else(|| err(path, "must be a string"))
    }
}

/// Left out when `None`.
impl<T: Value> Value for Option<T> {
    fn emit(&self) -> Option<Json> {
        self.as_ref().and_then(Value::emit)
    }

    fn parse(v: &Json, path: &str) -> Result<Self, SpecError> {
        T::parse(v, path).map(Some)
    }
}

impl<T: Value> Value for Vec<T> {
    fn emit(&self) -> Option<Json> {
        let omit = T::OMIT_EMPTY && self.is_empty();
        (!omit).then(|| Json::Arr(self.iter().filter_map(Value::emit).collect()))
    }

    fn parse(v: &Json, path: &str) -> Result<Self, SpecError> {
        let items = v.as_arr().ok_or_else(|| err(path, T::ARRAY))?;
        let elem = |(i, item)| T::parse_elem(item, &format!("{path}[{i}]"));
        items.iter().enumerate().map(elem).collect()
    }

    /// A required array reports its absence like a wrong type.
    fn missing(parent: &str, key: &str) -> SpecError {
        err(&format!("{parent}.{key}"), T::ARRAY)
    }
}

// ---- The spec types.

impl Schema for ScenarioSpec {
    const EXPECTED: &'static str = "expected a scenario object";

    fn templates() -> Vec<Self> {
        let kind = ExperimentKind::Table2;
        vec![ScenarioSpec::new("", "", kind, SeedRange::new(0, 1))]
    }

    fn fields(&mut self, v: &mut impl Visitor) {
        v.required("name", &mut self.name);
        v.field("title", &mut self.title);
        v.required("spec", &mut self.kind);
        v.field("seeds", &mut self.seeds);
        v.field("observers", &mut self.observers);
    }

    fn validate(&mut self, obj: &Json) -> Checked {
        let name = &self.name;
        ensure(!name.is_empty(), ".name", "must not be empty")?;
        // The name becomes the artifact directory under --out; a
        // separator or dot-dot component would let a spec file write
        // outside it.
        let relative = name == "." || name == "..";
        ensure(!relative, ".name", "must not be a relative path component")?;
        let unsafe_char = |c: char| c == '/' || c == '\\' || (c as u32) < 0x20;
        ensure(
            !name.chars().any(unsafe_char),
            ".name",
            "must not contain path separators or control characters \
             (it names the artifact directory)",
        )?;
        if obj.get("title").is_none() {
            self.title = name.clone();
        }
        // Duplicate labels would register two observers with the same
        // metric prefix: every row emitted twice (or, for parameterized
        // kinds, colliding names with different meanings), and aggregate
        // run counts silently doubled.
        for (i, kind) in self.observers.iter().enumerate() {
            let label = kind.label();
            if self.observers[..i].iter().any(|k| k.label() == label) {
                let message = format!("duplicate observer '{label}'");
                return ensure(false, &format!(".observers[{i}]"), message);
            }
        }
        Ok(())
    }
}

impl Schema for SeedRange {
    const EXPECTED: &'static str = "expected an object {start, count}";

    fn templates() -> Vec<Self> {
        vec![SeedRange::new(0, 1)]
    }

    fn fields(&mut self, v: &mut impl Visitor) {
        v.field("start", &mut self.start);
        v.checked("count", &mut self.count, |&c| {
            ensure(c >= 1, "", "must be at least 1")
        });
    }

    fn validate(&mut self, _: &Json) -> Checked {
        let end = self.start.checked_add(self.count);
        ensure(
            end.is_some_and(|end| end <= SeedRange::MAX_SEED),
            "",
            "start + count must stay within 2^53 (JSON-exact integers)",
        )
    }
}

impl Schema for ObserverKind {
    const EXPECTED: &'static str = "expected an observer label string or object";
    const TAG: Option<(&'static str, &'static str)> = Some(("kind", "observer"));
    const LABEL: fn(&Self) -> &'static str = |k| k.label();
    const BARE: bool = true;
    const ARRAY: &'static str = "expected an array of observer labels or objects";
    const OMIT_EMPTY: bool = true;

    fn templates() -> Vec<Self> {
        ObserverKind::ALL.to_vec()
    }

    fn fields(&mut self, v: &mut impl Visitor) {
        match self {
            ObserverKind::SensingCost {
                probe_cost,
                report_cost,
            } => {
                v.checked("probe_cost", probe_cost, cost);
                v.checked("report_cost", report_cost, cost);
            }
            ObserverKind::WindowedRegret { window } => v.checked("window", window, positive),
            ObserverKind::QueueTail { bound } => v.checked("bound", bound, positive),
            // Enumerated, no wildcard: a new parameterized kind must not
            // compile until its knobs are declared here.
            ObserverKind::DecideTiming
            | ObserverKind::CommTotals
            | ObserverKind::PerVertexTx
            | ObserverKind::Throughput
            | ObserverKind::CaptureStats
            | ObserverKind::FlowDelay => {}
        }
    }
}

impl Schema for ExperimentKind {
    const EXPECTED: &'static str = "expected an experiment spec object";
    const TAG: Option<(&'static str, &'static str)> = Some(("kind", "experiment kind"));
    const LABEL: fn(&Self) -> &'static str = ExperimentKind::tag;

    fn templates() -> Vec<Self> {
        vec![
            ExperimentKind::Fig5(Default::default()),
            ExperimentKind::Fig6(Default::default()),
            ExperimentKind::Fig7(Default::default()),
            ExperimentKind::Fig8(Default::default()),
            ExperimentKind::Table2,
            ExperimentKind::Complexity(Default::default()),
            ExperimentKind::Theorem3(Default::default()),
            ExperimentKind::PolicyRun(Default::default()),
            ExperimentKind::PolicyDuel(Default::default()),
        ]
    }

    fn fields(&mut self, v: &mut impl Visitor) {
        match self {
            ExperimentKind::Fig5(c) => {
                v.checked("ns", &mut c.ns, each_positive);
                v.field("r", &mut c.r);
            }
            ExperimentKind::Fig6(c) => {
                v.field("sizes", &mut c.sizes);
                v.field("topology", &mut c.topology);
                v.field("channel", &mut c.channel);
                v.field("loss", &mut c.loss);
                v.field("r", &mut c.r);
                v.field("minirounds", &mut c.minirounds);
            }
            ExperimentKind::Fig7(c) => {
                v.checked("n", &mut c.n, positive);
                v.checked("m", &mut c.m, positive);
                v.field("topology", &mut c.topology);
                v.field("channel", &mut c.channel);
                v.field("loss", &mut c.loss);
                v.checked("horizon", &mut c.horizon, positive);
                v.field("r", &mut c.r);
                v.field("minirounds", &mut c.minirounds);
            }
            ExperimentKind::Fig8(c) => {
                v.checked("n", &mut c.n, positive);
                v.checked("m", &mut c.m, positive);
                v.field("topology", &mut c.topology);
                v.field("channel", &mut c.channel);
                v.field("loss", &mut c.loss);
                v.checked("update_periods", &mut c.update_periods, each_positive);
                v.checked("updates_per_run", &mut c.updates_per_run, positive);
                v.field("r", &mut c.r);
                v.field("minirounds", &mut c.minirounds);
            }
            ExperimentKind::Table2 => {}
            ExperimentKind::Complexity(c) => {
                v.checked("ns", &mut c.ns, each_positive);
                v.checked("m", &mut c.m, positive);
                v.checked("rs", &mut c.rs, each_positive);
                v.field("topology", &mut c.topology);
                v.field("channel", &mut c.channel);
                v.field("minirounds", &mut c.minirounds);
            }
            ExperimentKind::Theorem3(c) => {
                v.checked("n", &mut c.n, positive);
                v.checked("m", &mut c.m, positive);
                v.field("topology", &mut c.topology);
                v.field("channel", &mut c.channel);
                v.checked("instances", &mut c.instances, positive);
            }
            ExperimentKind::PolicyRun(c) => policy_run_fields(c, v),
            ExperimentKind::PolicyDuel(c) => {
                policy_run_fields(&mut c.base, v);
                v.required("challenger", &mut c.challenger);
            }
        }
    }

    /// Flow endpoints must name vertices of the run's network (the queue
    /// engine panics on out-of-range vertices), and every network built
    /// on a unit-disk topology must be one the sampler can draw.
    fn validate(&mut self, _: &Json) -> Checked {
        match self {
            ExperimentKind::Fig5(_) | ExperimentKind::Table2 => Ok(()),
            ExperimentKind::Fig6(c) => c.sizes.iter().enumerate().try_for_each(|(i, &(n, _))| {
                unit_disk_size(&c.topology, n, &format!(".sizes[{i}]"))
            }),
            ExperimentKind::Fig7(c) => unit_disk_size(&c.topology, c.n, ".n"),
            ExperimentKind::Fig8(c) => unit_disk_size(&c.topology, c.n, ".n"),
            ExperimentKind::Complexity(c) => {
                c.ns.iter()
                    .enumerate()
                    .try_for_each(|(i, &n)| unit_disk_size(&c.topology, n, &format!(".ns[{i}]")))
            }
            ExperimentKind::Theorem3(c) => unit_disk_size(&c.topology, c.n, ".n"),
            ExperimentKind::PolicyRun(cfg)
            | ExperimentKind::PolicyDuel(PolicyDuelConfig { base: cfg, .. }) => {
                let flows = cfg.traffic.iter().flat_map(|t| t.flows.iter().enumerate());
                for (i, flow) in flows {
                    for (end, x) in [("src", flow.src), ("dst", flow.dst)] {
                        if x >= cfg.n {
                            let message = format!("vertex {x} out of range for n = {}", cfg.n);
                            return ensure(false, &format!(".traffic.flows[{i}].{end}"), message);
                        }
                    }
                }
                unit_disk_size(&cfg.topology, cfg.n, ".n")
            }
        }
    }
}

/// The unit-disk sampler panics unless `n >= 2` and `avg_degree < n`, so a
/// network of `n` nodes on such a topology is checked up front. (Whether
/// the connected family finds a connected instance cannot be.)
fn unit_disk_size(topology: &TopologySpec, n: usize, suffix: &str) -> Checked {
    let (TopologySpec::UnitDisk { avg_degree } | TopologySpec::UnitDiskConnected { avg_degree }) =
        *topology
    else {
        return Ok(());
    };
    let family = topology.label();
    ensure(
        n >= 2,
        suffix,
        format!("a {family} topology needs n >= 2 (got n = {n})"),
    )?;
    ensure(
        avg_degree < n as f64,
        suffix,
        format!("a {family} topology needs avg_degree < n (got {avg_degree} with n = {n})"),
    )
}

/// The fields of a policy run (also the base run of a duel).
fn policy_run_fields(c: &mut PolicyRunConfig, v: &mut impl Visitor) {
    v.checked("n", &mut c.n, positive);
    v.checked("m", &mut c.m, positive);
    v.field("topology", &mut c.topology);
    v.field("channel", &mut c.channel);
    v.field("policy", &mut c.policy);
    v.field("loss", &mut c.loss);
    v.checked("horizon", &mut c.horizon, positive);
    v.checked("update_period", &mut c.update_period, positive);
    v.field("r", &mut c.r);
    v.field("minirounds", &mut c.minirounds);
    v.field("partitions", &mut c.partitions);
    // Left out when unset, so traffic-free specs (and their resume
    // hashes) render as they did before the traffic layer existed.
    v.field("traffic", &mut c.traffic);
}

impl Schema for TopologySpec {
    const EXPECTED: &'static str = "expected a topology object {family, ...}";
    const TAG: Option<(&'static str, &'static str)> = Some(("family", "topology family"));
    const LABEL: fn(&Self) -> &'static str = TopologySpec::label;

    variants! { TopologySpec:
        UnitDisk { avg_degree "avg_degree" = 3.5 => checked(positive); },
        UnitDiskConnected { avg_degree "avg_degree" = 3.5 => checked(positive); },
        Line, Ring, Grid, Star, Complete, Independent,
    }
}

impl Schema for ChannelModelSpec {
    const EXPECTED: &'static str = "expected a channel-model object {family, ...}";
    const TAG: Option<(&'static str, &'static str)> = Some(("family", "channel family"));
    const LABEL: fn(&Self) -> &'static str = ChannelModelSpec::label;

    variants! { ChannelModelSpec:
        GaussianRateClasses { sigma_frac "sigma_frac" = 0.1 => checked(unit); },
        ConstantRateClasses,
        BernoulliRateClasses { p "p" = 0.5 => checked(unit_open_low); },
        UniformRateClasses { spread_frac "spread_frac" = 0.5 => checked(unit); },
        AdversarialSinusoidal {
            amp_frac "amp_frac" = 0.3 => checked(unit);
            period "period" = 50 => checked(positive);
        },
        AdversarialSwitching {
            swing_frac "swing_frac" = 0.5 => checked(unit);
            dwell "dwell" = 25 => checked(positive);
        },
        AdversarialRamp { horizon "horizon" = 1000 => checked(positive); },
        Drifting {
            shift_frac "shift_frac" = 0.5 => checked(unit);
            breakpoints "breakpoints" = Vec::new() => required;
            ramp "ramp" = 0 => field;
        },
    }

    /// Drift breakpoints must be strictly increasing, and a ramp must
    /// finish before the next flip begins (the process constructor
    /// panics on either).
    fn validate(&mut self, _: &Json) -> Checked {
        let ChannelModelSpec::Drifting {
            breakpoints: bp,
            ramp,
            ..
        } = self
        else {
            return Ok(());
        };
        ensure(
            !bp.is_empty(),
            ".breakpoints",
            "needs at least one breakpoint",
        )?;
        if let Some(i) = bp.windows(2).position(|w| w[0] >= w[1]) {
            let at = format!(".breakpoints[{}]", i + 1);
            return ensure(false, &at, "breakpoints must be strictly increasing");
        }
        match bp.windows(2).find(|w| *ramp > w[1] - w[0]) {
            Some(w) => ensure(
                false,
                ".ramp",
                format!(
                    "ramp ({ramp}) must not exceed the gap between consecutive \
                     breakpoints (smallest violated gap: {} to {})",
                    w[0], w[1]
                ),
            ),
            None => Ok(()),
        }
    }
}

/// Parameters are part of the canonical form, so the spec hash sees
/// parameter-only edits.
impl Schema for PolicySpec {
    const EXPECTED: &'static str = "expected a policy object {name, ...}";
    const TAG: Option<(&'static str, &'static str)> = Some(("name", "policy"));
    const LABEL: fn(&Self) -> &'static str = PolicySpec::label;

    variants! { PolicySpec:
        CsUcb { l "l" = 2.0 => checked(positive_finite); },
        Llr { l "l" = 2.0 => checked(positive_finite); },
        Thompson { sigma "sigma" = 0.1 => checked(positive); },
        DiscountedCsUcb { gamma "gamma" = 0.99 => checked(unit_open_low); },
        EpsilonGreedy { eps "eps" = 0.05 => checked(unit); },
        Random,
        Oracle,
    }
}

impl Schema for LossSpec {
    const EXPECTED: &'static str = "expected a loss object {prob, seed}";

    fn templates() -> Vec<Self> {
        vec![LossSpec::lossless()]
    }

    fn fields(&mut self, v: &mut impl Visitor) {
        let prob = |p: &f64| ensure((0.0..1.0).contains(p), "", "must be in [0, 1)");
        v.checked("prob", &mut self.prob, prob);
        v.field("seed", &mut self.seed);
    }
}

impl Schema for TrafficSpec {
    const EXPECTED: &'static str = "expected a traffic object {arrivals, flows, ...}";

    fn templates() -> Vec<Self> {
        vec![TrafficSpec::poisson(0.5, Vec::new())]
    }

    fn fields(&mut self, v: &mut impl Visitor) {
        v.required("arrivals", &mut self.arrivals);
        v.required("flows", &mut self.flows);
        v.checked("packet_kbps", &mut self.packet_kbps, positive_finite);
        v.field("seed", &mut self.seed);
    }

    fn validate(&mut self, _: &Json) -> Checked {
        ensure(!self.flows.is_empty(), ".flows", "needs at least one flow")
    }
}

impl Schema for ArrivalProcess {
    const EXPECTED: &'static str = "expected an arrival-process object {process, ...}";
    const TAG: Option<(&'static str, &'static str)> = Some(("process", "arrival process"));
    const LABEL: fn(&Self) -> &'static str = ArrivalProcess::label;

    variants! { ArrivalProcess:
        Poisson { rate "rate" = 0.5 => checked(positive_finite); },
        Deterministic { period "period" = 4 => checked(positive); },
        Bursty {
            rate "rate" = 0.5 => checked(positive_finite);
            burst "burst" = 8 => checked(positive);
        },
    }

    /// A bursty source draws at most one burst a slot, so a mean rate
    /// above `burst` cannot be reached (the sampler would clamp it).
    fn validate(&mut self, _: &Json) -> Checked {
        match *self {
            ArrivalProcess::Bursty { rate, burst } => ensure(
                rate <= burst as f64,
                ".rate",
                format!("must not exceed burst ({burst}): at most one burst arrives per slot"),
            ),
            _ => Ok(()),
        }
    }
}

impl Schema for FlowSpec {
    const EXPECTED: &'static str = "expected a flow object {src, dst[, deadline]}";
    const ARRAY: &'static str = "traffic needs a flows array of {src, dst} objects";

    fn templates() -> Vec<Self> {
        vec![FlowSpec {
            src: 0,
            dst: 0,
            deadline: None,
        }]
    }

    /// The deadline key is left out, not null, for unbounded flows.
    fn fields(&mut self, v: &mut impl Visitor) {
        v.required("src", &mut self.src);
        v.required("dst", &mut self.dst);
        let deadline = |d: &Option<u64>| ensure(*d != Some(0), "", "must be positive");
        v.checked("deadline", &mut self.deadline, deadline);
    }

    fn validate(&mut self, _: &Json) -> Checked {
        ensure(self.src != self.dst, "", "src and dst must differ")
    }
}
