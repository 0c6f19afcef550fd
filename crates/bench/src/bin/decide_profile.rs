//! Profiles the decide phase: incremental dirty-ball leader election vs
//! the full-rescan reference, across network sizes and radii, emitting
//! per-phase counters and wall-clock percentiles (p50/p99 from
//! [`mhca_telemetry::LogHistogram`]) as JSON (`BENCH_PR4.json`).
//!
//! Both paths run in one process on identical networks and weights, so
//! the speedup column is a true paired comparison (same machine, same
//! cache state, same inputs). Alongside wall time the profile records the
//! per-phase work counters that explain it: leader-election ball scans
//! (`*_scanned` — the term the witness cursor shrinks), the `O(1)`
//! witness verdicts and wake-walk entries unique to the incremental path,
//! and the flood-phase communication totals (identical across paths by
//! construction — the differential test battery pins this).
//!
//! The `--pr6` flag switches to the large-N grid instead: serial vs
//! partition-parallel (tiled) decide up to `n = 50_000`, with per-phase
//! nanosecond breakdowns ([`mhca_core::DecidePhaseNs`]) and halo sizes,
//! emitted as `BENCH_PR6.json`. The
//! partitioned outcome is asserted byte-identical to the serial one at
//! every grid point (and to the full-rescan oracle where it is run).
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p mhca-bench --bin decide_profile              # full grid -> BENCH_PR4.json
//! cargo run --release -p mhca-bench --bin decide_profile -- --quick   # small grid, CI smoke
//! cargo run --release -p mhca-bench --bin decide_profile -- --out target/decide.json
//! cargo run --release -p mhca-bench --bin decide_profile -- --pr6     # large-N grid -> BENCH_PR6.json
//! cargo run --release -p mhca-bench --bin decide_profile -- --pr6 --quick
//! ```
//!
//! Any other argument prints usage and exits with status 2 before any
//! work; `--help` prints usage and exits 0.

use mhca_core::{DecidePhaseNs, DecisionOutcome, DistributedPtas, DistributedPtasConfig, Network};
use mhca_telemetry::{LogHistogram, Provenance};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured grid point.
struct ProfilePoint {
    n: usize,
    m: usize,
    r: usize,
    minirounds: usize,
    rescan_wall: LogHistogram,
    incremental_wall: LogHistogram,
    incremental_phases: PhaseHists,
    rescan_scanned: u64,
    incremental_scanned: u64,
    fast_skips: u64,
    dirty_decrements: u64,
    decide_transmissions: u64,
    decide_timeslots: u64,
}

/// Per-phase latency histograms over the timed decide calls.
struct PhaseHists {
    election: LogHistogram,
    broadcast: LogHistogram,
    mwis: LogHistogram,
    sweep: LogHistogram,
}

impl PhaseHists {
    fn new() -> Self {
        PhaseHists {
            election: LogHistogram::new(),
            broadcast: LogHistogram::new(),
            mwis: LogHistogram::new(),
            sweep: LogHistogram::new(),
        }
    }

    fn record(&mut self, p: &DecidePhaseNs) {
        self.election.record(p.election_ns);
        self.broadcast.record(p.broadcast_ns);
        self.mwis.record(p.mwis_ns);
        self.sweep.record(p.sweep_ns);
    }

    /// `{"election": {"p50_ns": …, "p99_ns": …}, …}` over the sampled calls.
    fn json(&self) -> String {
        let q = |h: &LogHistogram| format!("{{\"p50_ns\": {}, \"p99_ns\": {}}}", h.p50(), h.p99());
        format!(
            "{{\"election\": {}, \"broadcast\": {}, \"mwis\": {}, \"sweep\": {}}}",
            q(&self.election),
            q(&self.broadcast),
            q(&self.mwis),
            q(&self.sweep)
        )
    }
}

/// `{"host_threads": …, "rustc": "…", "git_commit": "…"}` — the same
/// stamp `mhca-campaign` writes into `manifest.json`.
fn provenance_json() -> String {
    let p = Provenance::capture();
    format!(
        "{{\"host_threads\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\"}}",
        p.host_threads, p.rustc, p.git_commit
    )
}

/// Times `calls` individual decide calls on `engine`, recording wall
/// nanoseconds per call and (when the engine profiles phases) the
/// per-phase breakdown of each call.
fn sample_engine(
    engine: &mut DistributedPtas<'_>,
    weights: &[f64],
    out: &mut DecisionOutcome,
    calls: usize,
    rescan: bool,
) -> (LogHistogram, PhaseHists) {
    let mut wall = LogHistogram::new();
    let mut phases = PhaseHists::new();
    for _ in 0..calls {
        let start = Instant::now();
        if rescan {
            engine.decide_into_rescan(weights, out);
        } else {
            engine.decide_into(weights, out);
        }
        wall.record(start.elapsed().as_nanos() as u64);
        phases.record(&engine.phase_ns());
    }
    (wall, phases)
}

fn profile(n: usize, m: usize, r: usize, samples: usize, iters: usize) -> ProfilePoint {
    let net = Network::random(n, m, 5.0, 0.1, 300 + n as u64);
    let weights = net.channels().means();
    let cfg = DistributedPtasConfig::default()
        .with_r(r)
        .with_max_minirounds(Some(4));
    let mut out = DecisionOutcome::default();
    let calls = samples * iters;

    let mut incremental = DistributedPtas::new(net.h(), cfg);
    incremental.set_profile_phases(true);
    incremental.decide_into(&weights, &mut out); // warm pools + tables
    let (incremental_wall, incremental_phases) =
        sample_engine(&mut incremental, &weights, &mut out, calls, false);
    let inc_stats = incremental.scan_stats();
    let minirounds = out.minirounds_used;
    let decide_transmissions = out.counters.transmissions;
    let decide_timeslots = out.counters.timeslots;

    let mut rescan = DistributedPtas::new(net.h(), cfg);
    rescan.decide_into_rescan(&weights, &mut out);
    let (rescan_wall, _) = sample_engine(&mut rescan, &weights, &mut out, calls, true);
    let re_stats = rescan.scan_stats();
    assert_eq!(
        out.counters.transmissions, decide_transmissions,
        "paths diverged — the parity battery should have caught this"
    );

    ProfilePoint {
        n,
        m,
        r,
        minirounds,
        rescan_wall,
        incremental_wall,
        incremental_phases,
        rescan_scanned: re_stats.candidates_scanned,
        incremental_scanned: inc_stats.candidates_scanned,
        fast_skips: inc_stats.fast_skips,
        dirty_decrements: inc_stats.dirty_decrements,
        decide_transmissions,
        decide_timeslots,
    }
}

// ---------------------------------------------------------------------------
// PR 6: large-N serial vs partition-parallel grid.
// ---------------------------------------------------------------------------

/// One measured large-N grid point.
struct Pr6Point {
    n: usize,
    m: usize,
    r: usize,
    partitions: usize,
    h_vertices: usize,
    minirounds: usize,
    serial_wall: LogHistogram,
    partitioned_wall: LogHistogram,
    rescan_wall: Option<LogHistogram>,
    serial_phases: PhaseHists,
    partitioned_phases: PhaseHists,
    halo_entries: usize,
    decide_transmissions: u64,
}

fn profile_pr6(
    n: usize,
    m: usize,
    r: usize,
    partitions: usize,
    samples: usize,
    iters: usize,
    with_rescan: bool,
) -> Pr6Point {
    let net = Network::random(n, m, 5.0, 0.1, 300 + n as u64);
    let weights = net.channels().means();
    let base = DistributedPtasConfig::default()
        .with_r(r)
        .with_max_minirounds(Some(4));
    let mut out = DecisionOutcome::default();

    let calls = samples * iters;

    // Serial reference first; dropped before the partitioned engine is
    // built so only one ball CSR is resident at a time at n = 5×10^4.
    let mut serial = DistributedPtas::new(net.h(), base);
    serial.set_profile_phases(true);
    serial.decide_into(&weights, &mut out); // warm pools + tables
    let (serial_wall, serial_phases) = sample_engine(&mut serial, &weights, &mut out, calls, false);
    let expect = out.clone();
    drop(serial);

    let mut tiled = DistributedPtas::new(net.h(), base.with_partitions(partitions));
    tiled.set_profile_phases(true);
    tiled.decide_into(&weights, &mut out);
    assert_eq!(
        out, expect,
        "partitioned decide diverged from serial at n={n} r={r} p={partitions}"
    );
    let (partitioned_wall, partitioned_phases) =
        sample_engine(&mut tiled, &weights, &mut out, calls, false);
    let halo_entries = tiled.partition().map_or(0, |p| p.halo_entries());
    drop(tiled);

    let rescan_wall = with_rescan.then(|| {
        let mut rescan = DistributedPtas::new(net.h(), base);
        rescan.decide_into_rescan(&weights, &mut out);
        assert_eq!(
            out, expect,
            "rescan oracle diverged from serial at n={n} r={r}"
        );
        sample_engine(&mut rescan, &weights, &mut out, calls, true).0
    });

    Pr6Point {
        n,
        m,
        r,
        partitions,
        h_vertices: net.h().n_vertices(),
        minirounds: expect.minirounds_used,
        serial_wall,
        partitioned_wall,
        rescan_wall,
        serial_phases,
        partitioned_phases,
        halo_entries,
        decide_transmissions: expect.counters.transmissions,
    }
}

fn run_pr6(quick: bool, out_path: &str) {
    // (n, r, samples, iters, rescan-oracle?): r = 2 (the paper's radius)
    // through n = 10^4, r = 1 on the two largest sizes to keep the
    // (2r+1)-ball tables affordable; the rescan oracle is O(survivors)
    // per mini-round, so it is only timed on the small end.
    let grid: &[(usize, usize, usize, usize, bool)] = if quick {
        &[(2_000, 1, 3, 1, true), (10_000, 1, 3, 1, false)]
    } else {
        &[
            (1_000, 2, 5, 3, true),
            (5_000, 2, 5, 2, true),
            (10_000, 2, 3, 2, false),
            (20_000, 1, 3, 1, false),
            (50_000, 1, 3, 1, false),
        ]
    };
    let (m, partitions) = (2usize, 4usize);

    let mut points = Vec::new();
    for &(n, r, samples, iters, with_rescan) in grid {
        eprintln!("profiling large-N n={n} m={m} r={r} partitions={partitions} ...");
        let p = profile_pr6(n, m, r, partitions, samples, iters, with_rescan);
        eprintln!(
            "  serial p50 {:>13} ns  partitioned p50 {:>13} ns  ratio {:.2}x  \
             halo {}",
            p.serial_wall.p50(),
            p.partitioned_wall.p50(),
            p.serial_wall.p50() as f64 / p.partitioned_wall.p50().max(1) as f64,
            p.halo_entries,
        );
        points.push(p);
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"description\": \"PR 6 regression numbers: partition-parallel decide on the \
         large-N grid. Each point runs the serial incremental decide and the tiled \
         (core+halo stripe) decide on the same network and weights; *_ns are p50 \
         wall-clock per decision from a log-bucketed latency histogram (<=6.25% relative \
         error; *_p99_ns is the same histogram's p99), ratio = serial_ns / \
         partitioned_ns. Outcomes are asserted byte-identical in-process at every point \
         (and against the full-rescan oracle where rescan_ns is non-null). Per-phase \
         breakdowns come from DecidePhaseNs recorded on every profiled decision \
         (p50/p99 per phase).\",\n",
    );
    json.push_str(
        "  \"workload\": \"Network::random(n, 2, 5.0, 0.1, 300 + n): unit-disk, 2 channels, \
         average conflict degree 5, max_minirounds 4; 4 tiles, one scoped worker thread \
         per tile; release profile, single process. The serial/partitioned ratio is \
         machine-conditional — on a single-core host the tiled path pays thread overhead \
         for no parallel speedup; see BENCHMARKS.md 'Large-N' for the honest read.\",\n",
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"provenance\": {},", provenance_json());
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let rescan = p
            .rescan_wall
            .as_ref()
            .map_or("null".to_string(), |h| h.p50().to_string());
        let rescan_p99 = p
            .rescan_wall
            .as_ref()
            .map_or("null".to_string(), |h| h.p99().to_string());
        let _ = writeln!(
            json,
            "    {{\"id\": \"large_n/r{}/{}\", \"n\": {}, \"m\": {}, \"r\": {}, \
             \"partitions\": {}, \"h_vertices\": {}, \"minirounds\": {}, \
             \"serial_ns\": {}, \"serial_p99_ns\": {}, \
             \"partitioned_ns\": {}, \"partitioned_p99_ns\": {}, \"ratio\": {:.2}, \
             \"rescan_ns\": {}, \"rescan_p99_ns\": {}, \
             \"serial_phase_ns\": {}, \"partitioned_phase_ns\": {}, \
             \"halo_entries\": {}, \"decide_transmissions\": {}}}{}",
            p.r,
            p.n,
            p.n,
            p.m,
            p.r,
            p.partitions,
            p.h_vertices,
            p.minirounds,
            p.serial_wall.p50(),
            p.serial_wall.p99(),
            p.partitioned_wall.p50(),
            p.partitioned_wall.p99(),
            p.serial_wall.p50() as f64 / p.partitioned_wall.p50().max(1) as f64,
            rescan,
            rescan_p99,
            p.serial_phases.json(),
            p.partitioned_phases.json(),
            p.halo_entries,
            p.decide_transmissions,
            comma,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write profile JSON");
    eprintln!("wrote {out_path}");
}

const USAGE: &str = "usage: decide_profile [--quick] [--pr6] [--out PATH]";

fn main() {
    // Parse everything before doing any work: a typo (or a bare `--out`)
    // must not run the full grid and clobber a committed BENCH file.
    let (mut quick, mut pr6, mut out_path) = (false, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--pr6" => pr6 = true,
            "--out" => match args.next() {
                Some(path) if !path.starts_with("--") => out_path = Some(path),
                _ => usage_error("--out requires a path argument"),
            },
            "--help" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unexpected argument '{other}'")),
        }
    }
    let out_path = out_path.unwrap_or_else(|| {
        if pr6 {
            "BENCH_PR6.json"
        } else {
            "BENCH_PR4.json"
        }
        .to_string()
    });

    if pr6 {
        run_pr6(quick, &out_path);
        return;
    }

    let (ns, samples, iters): (&[usize], usize, usize) = if quick {
        (&[50, 100], 5, 3)
    } else {
        (&[100, 200, 400, 800], 9, 5)
    };
    let m = 5;

    let mut points = Vec::new();
    for &n in ns {
        for r in [1usize, 2] {
            eprintln!("profiling n={n} m={m} r={r} ...");
            let p = profile(n, m, r, samples, iters);
            eprintln!(
                "  rescan p50 {:>12} ns  incremental p50 {:>12} ns  speedup {:.2}x  \
                 scans {} -> {}",
                p.rescan_wall.p50(),
                p.incremental_wall.p50(),
                p.rescan_wall.p50() as f64 / p.incremental_wall.p50().max(1) as f64,
                p.rescan_scanned,
                p.incremental_scanned,
            );
            points.push(p);
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"description\": \"PR 4 regression numbers: incremental dirty-ball leader \
         election in the decide phase. Each grid point runs DistributedPtas::decide_into \
         (incremental witness-cursor election, counters-only floods) and \
         DistributedPtas::decide_into_rescan (the full-rescan reference, bit-identical \
         outcomes pinned by tests/decide_parity.rs) on the same network and weights; \
         *_ns are p50 wall-clock per decision from a log-bucketed latency histogram \
         (<=6.25% relative error; *_p99_ns is the same histogram's p99), speedup = \
         rescan_ns / incremental_ns; incremental_phase_ns carries per-phase p50/p99. \
         Scanned counters are election probes that scanned a (2r+1)-ball row, per \
         decision (on the incremental path every mini-round 0 probe and every later probe \
         whose stored witness was determined; one per survivor per mini-round on the \
         reference); fast_skips are incremental probes that stopped at a still \
         undetermined witness in O(1), and dirty_decrements the ball entries its wake \
         rule walked.\",\n",
    );
    json.push_str(
        "  \"workload\": \"Network::random(n, 5, 5.0, 0.1, 300 + n): unit-disk, 5 channels, \
         average conflict degree 5, max_minirounds 4 (the decision_distributed bench \
         family); release profile, single process, paired measurement.\",\n",
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"provenance\": {},", provenance_json());
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"id\": \"decision_distributed/r{}/{}\", \"n\": {}, \"m\": {}, \"r\": {}, \
             \"minirounds\": {}, \"rescan_ns\": {}, \"rescan_p99_ns\": {}, \
             \"incremental_ns\": {}, \"incremental_p99_ns\": {}, \"speedup\": {:.2}, \
             \"incremental_phase_ns\": {}, \
             \"rescan_scanned\": {}, \"incremental_scanned\": {}, \
             \"fast_skips\": {}, \"dirty_decrements\": {}, \"decide_transmissions\": {}, \
             \"decide_timeslots\": {}}}{}",
            p.r,
            p.n,
            p.n,
            p.m,
            p.r,
            p.minirounds,
            p.rescan_wall.p50(),
            p.rescan_wall.p99(),
            p.incremental_wall.p50(),
            p.incremental_wall.p99(),
            p.rescan_wall.p50() as f64 / p.incremental_wall.p50().max(1) as f64,
            p.incremental_phases.json(),
            p.rescan_scanned,
            p.incremental_scanned,
            p.fast_skips,
            p.dirty_decrements,
            p.decide_transmissions,
            p.decide_timeslots,
            comma,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write profile JSON");
    eprintln!("wrote {out_path}");
}

fn usage_error(message: &str) -> ! {
    eprintln!("decide_profile: {message}\n{USAGE}");
    std::process::exit(2);
}
