//! `mhca-campaign` — one CLI for multi-seed experiment campaigns.
//!
//! ```text
//! mhca-campaign list [--json]            # catalog of scenarios
//! mhca-campaign show <scenario>          # canonical spec JSON
//! mhca-campaign validate <file>          # check a user-authored spec file
//! mhca-campaign run [options]            # run / resume a campaign
//! mhca-campaign tail <out-dir>           # summarize a --trace event stream
//! mhca-campaign serve [options]          # resident experiment service
//! mhca-campaign client [options] <json>  # one-shot service request
//!
//! run options:
//!   --quick                the CI smoke catalog (2 scenarios × 3 seeds)
//!   --out DIR              output directory (default target/campaigns/<name>)
//!   --name NAME            campaign name (default: paper, quick, or custom)
//!   --scenarios a,b,c      subset of the catalog, by name
//!   --scenario-file FILE   add user-authored scenarios from a JSON file
//!                          (repeatable; see `show` for the format)
//!   --seeds K              override every scenario's seed count
//!   --jobs N               bound worker threads across the whole job
//!                          matrix (default: available cores)
//!   --serial               force strictly in-order serial execution
//!   --force                discard a manifest from a different spec
//!   --trace                write structured telemetry to events.jsonl
//!   --progress             live heartbeat lines + progress.json
//! ```
//!
//! A campaign writes `manifest.json`, per-seed figure CSVs, per-scenario
//! `summary.csv`, and campaign-wide `campaign.csv` / `campaign.json`
//! into the output directory. Re-running with the same spec and output
//! directory resumes: jobs recorded done in the manifest are skipped.
//! With `--trace`, spans, counters, and per-phase latency histograms land
//! in `events.jsonl`; `mhca-campaign tail <out-dir>` renders them into a
//! per-scenario summary table (see `docs/OBSERVABILITY.md`).
//!
//! `serve` turns the binary into a resident daemon speaking a
//! line-delimited JSON protocol over a unix socket (`--socket PATH`,
//! default `target/service/mhca.sock`) or TCP (`--tcp ADDR`), with
//! durable session state under `--state-dir` (default
//! `target/service/state`). `client` is the matching one-shot scripting
//! tool: it sends a single request line and prints the response — for
//! `watch`, the whole stream until the session closes. See
//! `docs/SERVICE.md` for the protocol.

use mhca_campaign::ingest::{self, nearest};
use mhca_campaign::{
    registry, runner, tail as tail_mod, CampaignConfig, CampaignOutcome, ScenarioSpec,
    ServiceExecutor,
};
use mhca_service::json::Json;
use mhca_service::{protocol, Endpoint, Request, Supervisor};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// A CLI failure: message, plus whether to print the usage block.
struct CliError {
    message: String,
    show_usage: bool,
}

impl CliError {
    fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            show_usage: false,
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            show_usage: true,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mhca-campaign: {}", e.message);
            if e.show_usage {
                eprintln!();
                eprintln!(
                    "usage: mhca-campaign <list [--json] | show <scenario> | validate <file> | \
                     run [options] | tail <out-dir> | serve [options] | client [options] <json>>"
                );
                eprintln!(
                    "run options: --quick --out DIR --name NAME --scenarios a,b,c \
                     --scenario-file FILE --seeds K --jobs N --serial --force \
                     --trace --progress"
                );
                eprintln!(
                    "serve options: --socket PATH | --tcp ADDR, --state-dir DIR, \
                     --bus-capacity N \
                     (client: same endpoint flags, then one JSON request line)"
                );
            }
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("list") => match args.get(1).map(String::as_str) {
            None => {
                list();
                Ok(())
            }
            Some("--json") => {
                list_json();
                Ok(())
            }
            Some(other) => Err(CliError::usage(format!("unknown list option '{other}'"))),
        },
        Some("show") => match args.get(1) {
            Some(name) => show(name),
            None => Err(CliError::usage("show needs a scenario name")),
        },
        Some("validate") => match args.get(1) {
            Some(path) => validate(Path::new(path)),
            None => Err(CliError::usage("validate needs a spec file path")),
        },
        Some("run") => run(&args[1..]),
        Some("tail") => match args.get(1) {
            Some(dir) => tail(Path::new(dir)),
            None => Err(CliError::usage("tail needs a campaign output directory")),
        },
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some(other) => {
            let mut message = format!("unknown command '{other}'");
            if let Some(near) = nearest(
                other,
                ["list", "show", "validate", "run", "tail", "serve", "client"].into_iter(),
            ) {
                message.push_str(&format!(" (did you mean '{near}'?)"));
            }
            Err(CliError::usage(message))
        }
        None => Err(CliError::usage("missing command")),
    }
}

fn list() {
    println!("full catalog (mhca-campaign run):");
    for s in registry::registry() {
        println!("  {:<18} seeds {:>2}  {}", s.name, s.seeds.count, s.title);
    }
    println!();
    println!("quick catalog (mhca-campaign run --quick):");
    for s in registry::quick_registry() {
        println!("  {:<18} seeds {:>2}  {}", s.name, s.seeds.count, s.title);
    }
}

/// `mhca-campaign list --json`: the machine-readable catalog, one entry
/// per scenario with name, kind tag, seed range, and observer labels —
/// enough for a service client to compose `submit` requests without
/// scraping the human listing.
fn list_json() {
    fn entries(scenarios: Vec<ScenarioSpec>) -> Json {
        Json::Arr(
            scenarios
                .into_iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(&s.name)),
                        ("title", Json::str(&s.title)),
                        ("kind", Json::str(s.kind.tag())),
                        ("seeds", s.seeds.to_json()),
                        (
                            "observers",
                            Json::Arr(s.observers.iter().map(|o| Json::str(o.label())).collect()),
                        ),
                    ])
                })
                .collect(),
        )
    }
    let doc = Json::obj(vec![
        ("full", entries(registry::registry())),
        ("quick", entries(registry::quick_registry())),
    ]);
    println!("{}", doc.to_string_pretty());
}

/// Unknown-scenario error with a nearest-name hint.
fn unknown_scenario(name: &str) -> CliError {
    let catalog: Vec<String> = registry::registry()
        .into_iter()
        .chain(registry::quick_registry())
        .map(|s| s.name)
        .collect();
    let mut message = format!("no scenario named '{name}' (see mhca-campaign list)");
    if let Some(near) = nearest(name, catalog.iter().map(String::as_str)) {
        message.push_str(&format!("; did you mean '{near}'?"));
    }
    CliError::new(message)
}

fn show(name: &str) -> Result<(), CliError> {
    match registry::find(name) {
        Some(s) => {
            print!("{}", s.to_json().to_string_pretty());
            Ok(())
        }
        None => Err(unknown_scenario(name)),
    }
}

/// Loads and parses a user-authored scenario file; returns the campaign
/// name (when the file is a campaign document carrying one) and the
/// scenarios.
fn load_scenario_file(path: &Path) -> Result<(Option<String>, Vec<ScenarioSpec>), CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read '{}': {e}", path.display())))?;
    ingest::campaign_from_str(&text).map_err(|e| CliError::new(format!("{}: {e}", path.display())))
}

fn validate(path: &Path) -> Result<(), CliError> {
    let (campaign, scenarios) = load_scenario_file(path)?;
    match campaign {
        Some(name) => println!("ok: campaign '{name}', {} scenario(s)", scenarios.len()),
        None => println!("ok: {} scenario(s)", scenarios.len()),
    }
    for s in &scenarios {
        let shape = s.kind.experiment().spec();
        println!(
            "  {:<18} kind {:<12} seeds {}..{}  observers {}",
            s.name,
            shape.kind,
            s.seeds.start,
            s.seeds.start + s.seeds.count,
            if s.observers.is_empty() {
                "none".to_string()
            } else {
                s.observers
                    .iter()
                    .map(|o| o.label())
                    .collect::<Vec<_>>()
                    .join(",")
            }
        );
        if shape.deterministic && s.seeds.count > 1 {
            eprintln!(
                "warning: {}: '{}' is deterministic — {} seeds only replicate the same job",
                s.name, shape.kind, s.seeds.count
            );
        }
        if !shape.streams_rounds && !s.observers.is_empty() {
            eprintln!(
                "warning: {}: '{}' drives no Algorithm 2 rounds — observers will report zeros",
                s.name, shape.kind
            );
        }
    }
    Ok(())
}

/// `mhca-campaign tail <out-dir>`: summarize `<out-dir>/events.jsonl`.
fn tail(out_dir: &Path) -> Result<(), CliError> {
    let mut stdout = std::io::stdout().lock();
    tail_mod::tail_dir(out_dir, &mut stdout).map_err(|e| CliError::new(e.to_string()))
}

fn run(args: &[String]) -> Result<(), CliError> {
    let mut quick = false;
    let mut serial = false;
    let mut force = false;
    let mut trace = false;
    let mut progress = false;
    let mut out: Option<String> = None;
    let mut name: Option<String> = None;
    let mut scenario_filter: Option<Vec<String>> = None;
    let mut scenario_files: Vec<String> = Vec::new();
    let mut seed_count: Option<u64> = None;
    let mut jobs: Option<usize> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--serial" => serial = true,
            "--force" => force = true,
            "--trace" => trace = true,
            "--progress" => progress = true,
            "--out" => match it.next() {
                Some(dir) => out = Some(dir.clone()),
                None => return Err(CliError::usage("--out needs a directory")),
            },
            "--name" => match it.next() {
                Some(n) => name = Some(n.clone()),
                None => return Err(CliError::usage("--name needs a value")),
            },
            "--scenarios" => match it.next() {
                Some(csv) => {
                    scenario_filter = Some(csv.split(',').map(str::to_string).collect());
                }
                None => {
                    return Err(CliError::usage("--scenarios needs a comma-separated list"));
                }
            },
            "--scenario-file" => match it.next() {
                Some(path) => scenario_files.push(path.clone()),
                None => return Err(CliError::usage("--scenario-file needs a path")),
            },
            "--seeds" => match it.next().and_then(|s| s.parse().ok()) {
                Some(k) if k > 0 => seed_count = Some(k),
                _ => return Err(CliError::usage("--seeds needs a positive integer")),
            },
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => jobs = Some(n),
                _ => return Err(CliError::usage("--jobs needs a positive integer")),
            },
            other => {
                let mut message = format!("unknown run option '{other}'");
                let known = [
                    "--quick",
                    "--serial",
                    "--force",
                    "--trace",
                    "--progress",
                    "--out",
                    "--name",
                    "--scenarios",
                    "--scenario-file",
                    "--seeds",
                    "--jobs",
                ];
                if let Some(near) = nearest(other, known.into_iter()) {
                    message.push_str(&format!(" (did you mean '{near}'?)"));
                }
                return Err(CliError::usage(message));
            }
        }
    }

    // ---- Assemble the scenario list: catalog selection, then any
    // user-authored files. Files alone (no --quick/--scenarios) run just
    // the file scenarios.
    let files_only = !scenario_files.is_empty() && !quick && scenario_filter.is_none();
    let mut scenarios = if files_only {
        Vec::new()
    } else if quick {
        registry::quick_registry()
    } else {
        registry::registry()
    };
    if let Some(filter) = &scenario_filter {
        let known: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
        for want in filter {
            if !known.contains(want) {
                // Allow pulling any catalog entry by name, even under
                // --quick (and vice versa).
                match registry::find(want) {
                    Some(s) => scenarios.push(s),
                    None => return Err(unknown_scenario(want)),
                }
            }
        }
        scenarios.retain(|s| filter.contains(&s.name));
        // Keep the order the user asked for.
        scenarios.sort_by_key(|s| filter.iter().position(|w| w == &s.name));
    }
    let mut file_campaign_name: Option<String> = None;
    for path in &scenario_files {
        let (campaign, file_scenarios) = load_scenario_file(Path::new(path))?;
        // A campaign document's own name is the default campaign name
        // (first file wins); the --name flag still overrides it.
        if file_campaign_name.is_none() {
            file_campaign_name = campaign;
        }
        for scenario in file_scenarios {
            if scenarios.iter().any(|s| s.name == scenario.name) {
                return Err(CliError::new(format!(
                    "{path}: scenario '{}' collides with an already-selected scenario",
                    scenario.name
                )));
            }
            scenarios.push(scenario);
        }
    }
    if let Some(k) = seed_count {
        for s in &mut scenarios {
            s.seeds.count = k;
        }
    }
    if scenarios.is_empty() {
        return Err(CliError::usage("no scenarios selected"));
    }

    let name = name.or(file_campaign_name).unwrap_or_else(|| {
        if quick {
            "quick"
        } else if files_only {
            "custom"
        } else {
            "paper"
        }
        .to_string()
    });
    let out_dir = out.unwrap_or_else(|| format!("target/campaigns/{name}"));
    ensure_writable(Path::new(&out_dir))?;
    let cfg = CampaignConfig {
        parallel: !serial,
        jobs,
        force,
        trace,
        progress,
        ..CampaignConfig::new(name, out_dir, scenarios)
    };

    let outcome = runner::run(&cfg).map_err(|e| CliError::new(e.to_string()))?;
    // The results are committed by now, so a reader that has gone away
    // (`run … | grep -q`) only loses the summary: end quietly.
    match print_run_summary(&outcome) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(CliError::new(format!("writing the run summary: {e}")))
        }
        _ => Ok(()),
    }
}

/// Prints `run`'s summary lines through one stdout lock.
fn print_run_summary(outcome: &CampaignOutcome) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    let (done, pending) = outcome.manifest.progress();
    writeln!(
        out,
        "executed {} job(s), skipped {} (manifest: {done} done, {pending} pending)",
        outcome.executed, outcome.skipped
    )?;
    for summary in &outcome.summaries {
        if let Some((metric, agg)) = summary.aggregates.first() {
            writeln!(
                out,
                "  {:<18} {} = {:.2} ± {:.2} over {} seed(s)",
                summary.name, metric, agg.mean, agg.std_dev, agg.runs
            )?;
        }
    }
    out.flush()
}

/// Parsed `--socket PATH` / `--tcp ADDR` endpoint selection, shared by
/// `serve` and `client`. Exactly one transport; unix socket by default.
fn parse_endpoint(socket: Option<String>, tcp: Option<String>) -> Result<Endpoint, CliError> {
    match (socket, tcp) {
        (Some(_), Some(_)) => Err(CliError::usage("--socket and --tcp are mutually exclusive")),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr)),
        (sock, None) => {
            Ok(Endpoint::Unix(PathBuf::from(sock.unwrap_or_else(|| {
                "target/service/mhca.sock".to_string()
            }))))
        }
    }
}

/// `mhca-campaign serve`: the resident experiment service. Binds the
/// endpoint, recovers any sessions persisted under the state directory
/// (interrupted ones come back `paused`, resumable mid-seed from their
/// checkpoint), and serves until a `shutdown` request or SIGINT/SIGTERM.
fn serve(args: &[String]) -> Result<(), CliError> {
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let mut bus_capacity: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = Some(p.clone()),
                None => return Err(CliError::usage("--socket needs a path")),
            },
            "--tcp" => match it.next() {
                Some(a) => tcp = Some(a.clone()),
                None => return Err(CliError::usage("--tcp needs an address")),
            },
            "--state-dir" => match it.next() {
                Some(d) => state_dir = Some(d.clone()),
                None => return Err(CliError::usage("--state-dir needs a directory")),
            },
            "--bus-capacity" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => bus_capacity = Some(n),
                Some(_) => return Err(CliError::usage("--bus-capacity needs a positive integer")),
                None => return Err(CliError::usage("--bus-capacity needs a positive integer")),
            },
            other => return Err(CliError::usage(format!("unknown serve option '{other}'"))),
        }
    }
    let endpoint = parse_endpoint(socket, tcp)?;
    let state_dir = PathBuf::from(state_dir.unwrap_or_else(|| "target/service/state".to_string()));
    let supervisor = Arc::new(
        Supervisor::with_bus_capacity(
            Arc::new(ServiceExecutor),
            state_dir.clone(),
            bus_capacity.unwrap_or(mhca_service::supervisor::DEFAULT_BUS_CAPACITY),
        )
        .map_err(CliError::new)?,
    );
    let recovered = supervisor
        .status(None)
        .map_err(CliError::new)?
        .iter()
        .filter(|s| !s.status.is_terminal())
        .count();
    match &endpoint {
        Endpoint::Unix(path) => println!(
            "mhca-campaign serve: unix socket {} (state: {}, {} resumable session(s))",
            path.display(),
            state_dir.display(),
            recovered
        ),
        Endpoint::Tcp(addr) => println!(
            "mhca-campaign serve: tcp {addr} (state: {}, {} resumable session(s))",
            state_dir.display(),
            recovered
        ),
    }
    mhca_service::serve(supervisor, endpoint).map_err(CliError::new)
}

/// `mhca-campaign client`: one-shot scripting client. Sends a single
/// request line and prints the response; `watch` requests stream every
/// event line until the session's bus closes. Exits non-zero when the
/// server answers `"ok": false`.
fn client(args: &[String]) -> Result<(), CliError> {
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut request: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = Some(p.clone()),
                None => return Err(CliError::usage("--socket needs a path")),
            },
            "--tcp" => match it.next() {
                Some(a) => tcp = Some(a.clone()),
                None => return Err(CliError::usage("--tcp needs an address")),
            },
            other if request.is_none() && !other.starts_with("--") => {
                request = Some(other.to_string());
            }
            other => return Err(CliError::usage(format!("unknown client option '{other}'"))),
        }
    }
    let line = request.ok_or_else(|| CliError::usage("client needs a JSON request argument"))?;
    // Validate locally so a typo fails with the protocol's diagnostic
    // instead of a round-trip, and to learn whether this is a stream.
    let parsed = protocol::parse_request(&line).map_err(CliError::new)?;
    let streaming = matches!(parsed, Request::Watch { .. });

    let stream: Box<dyn ReadWrite> = match parse_endpoint(socket, tcp)? {
        Endpoint::Unix(path) => {
            Box::new(std::os::unix::net::UnixStream::connect(&path).map_err(|e| {
                CliError::new(format!("cannot connect to '{}': {e}", path.display()))
            })?)
        }
        Endpoint::Tcp(addr) => Box::new(
            std::net::TcpStream::connect(&addr)
                .map_err(|e| CliError::new(format!("cannot connect to '{addr}': {e}")))?,
        ),
    };
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| CliError::new(format!("send failed: {e}")))?;

    let mut first = true;
    let mut ok = true;
    loop {
        let mut response = String::new();
        let n = reader
            .read_line(&mut response)
            .map_err(|e| CliError::new(format!("read failed: {e}")))?;
        if n == 0 {
            break; // server closed the connection
        }
        print!("{response}");
        let value = mhca_service::json::parse(response.trim_end()).ok();
        if first {
            first = false;
            ok = value
                .as_ref()
                .and_then(|v| v.get("ok"))
                .is_some_and(|v| matches!(v, Json::Bool(true)));
            if !streaming || !ok {
                break;
            }
            continue;
        }
        // Watch stream: the terminator is the ok-line carrying "closed".
        if value.as_ref().and_then(|v| v.get("closed")).is_some() {
            break;
        }
    }
    if ok {
        Ok(())
    } else {
        Err(CliError::new(
            "server reported an error (see response above)",
        ))
    }
}

/// The two stream types `client` speaks; `Read + Write` is all it needs.
trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

/// Fails early — with a clear message instead of a mid-campaign I/O error
/// — when the output directory cannot be created or written.
fn ensure_writable(out_dir: &Path) -> Result<(), CliError> {
    fs::create_dir_all(out_dir).map_err(|e| {
        CliError::new(format!(
            "cannot create output directory '{}': {e}",
            out_dir.display()
        ))
    })?;
    let probe = out_dir.join(".write-probe");
    fs::write(&probe, b"")
        .and_then(|()| fs::remove_file(&probe))
        .map_err(|e| {
            CliError::new(format!(
                "output directory '{}' is not writable: {e}",
                out_dir.display()
            ))
        })
}
