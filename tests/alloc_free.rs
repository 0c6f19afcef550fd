//! Allocation accounting for the steady-state round loop.
//!
//! The PR-1 tentpole claims the lossless hot path — flood delivery and the
//! distributed strategy decision — performs **no heap allocation after
//! warm-up**. These tests pin that down with a counting global allocator:
//! warm the component up, then assert that further identical operations
//! allocate nothing.
//!
//! The counting allocator wraps `System`; its `unsafe` is confined to this
//! test binary (every library crate is `#![forbid(unsafe_code)]`). It
//! counts per thread, and only the measuring thread reads its own count,
//! so tests running concurrently on other harness threads cannot leak
//! allocations into a measured window. Measurements still take the
//! minimum over several attempts.

use mhca::bandit::policies::{CsUcb, IndexPolicy};
use mhca::core::{DistributedPtas, DistributedPtasConfig, Network};
use mhca::sim::{Flood, FloodEngine, Received};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread. Const-initialized with no
    /// destructor, so reading it from inside the allocator never
    /// allocates or re-enters.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` so an allocation during thread teardown is not a panic.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation count of `f` on the calling thread, minimized over
/// `attempts` runs.
fn min_allocs(attempts: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..attempts {
        let before = allocations();
        f();
        let after = allocations();
        best = best.min(after - before);
    }
    best
}

#[test]
fn lossless_flood_delivery_is_allocation_free_after_warmup() {
    let net = Network::random(60, 3, 4.0, 0.1, 5);
    let graph = net.h().graph();
    let r = DistributedPtasConfig::default().r;
    let floods: Vec<Flood<()>> = (0..net.n_vertices())
        .step_by(7)
        .map(|v| Flood {
            origin: v,
            ttl: 2 * r + 1,
            payload: (),
        })
        .collect();
    let mut engine = FloodEngine::new(graph);
    let mut inboxes: Vec<Vec<Received<()>>> = Vec::new();
    // Warm-up: builds the ball table and sizes every inbox.
    engine.deliver_into(&floods, &mut inboxes);

    let allocs = min_allocs(3, || {
        for _ in 0..20 {
            engine.deliver_into(&floods, &mut inboxes);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state deliver_into must not allocate (counted {allocs})"
    );
}

#[test]
fn strategy_decision_is_allocation_free_after_warmup() {
    let net = Network::random(40, 3, 4.0, 0.1, 9);
    let weights = net.channels().means();
    let mut ptas = DistributedPtas::new(net.h(), DistributedPtasConfig::default());
    let mut outcome = Default::default();
    // Warm-up: grows the determination pools, MWIS workspace, and outcome
    // vectors to their steady-state sizes.
    for _ in 0..3 {
        ptas.decide_into(&weights, &mut outcome);
    }

    let allocs = min_allocs(3, || {
        for _ in 0..10 {
            ptas.decide_into(&weights, &mut outcome);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state decide_into must not allocate (counted {allocs})"
    );
}

#[test]
fn incremental_decide_into_is_allocation_free_with_varying_weights() {
    // The incremental dirty-ball decide path reuses the blocker table,
    // epoch-stamped dirty buffer, and changed list across decisions. Vary
    // the weights each call so the dirty-set shape, leader counts, and
    // per-mini-round series lengths all change between decisions — the
    // exact situation where a clear()-vs-truncate mistake or an
    // under-grown pool would allocate. The weight vectors are prepared up
    // front and the warm-up runs the same cycle, so the measured section
    // is pure steady state.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let net = Network::random(50, 3, 4.5, 0.1, 13);
    let mut rng = StdRng::seed_from_u64(13);
    let cycle: Vec<Vec<f64>> = (0..6)
        .map(|_| {
            (0..net.n_vertices())
                .map(|_| rng.gen_range(0.05..1.0))
                .collect()
        })
        .collect();
    let cfg = DistributedPtasConfig::default().with_max_minirounds(None);
    assert_eq!(cfg.loss_prob, 0.0, "must exercise the incremental path");
    let mut ptas = DistributedPtas::new(net.h(), cfg);
    let mut outcome = Default::default();
    for w in cycle.iter().chain(cycle.iter()) {
        ptas.decide_into(w, &mut outcome);
    }

    let allocs = min_allocs(3, || {
        for w in &cycle {
            ptas.decide_into(w, &mut outcome);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state incremental decide_into must not allocate (counted {allocs})"
    );
}

#[test]
fn tiled_decide_into_is_allocation_free_with_varying_weights() {
    // The partition-parallel decide in its deterministic single-thread
    // configuration (`threads: 1` — the inline tile loop; spawning scoped
    // threads allocates by nature, so the threaded spelling is exempt).
    // Per-tile scratch (leader/pending/candidate pools, solver
    // workspaces), the seeding-sweep snapshot, and the changed-rank
    // buffer must all reach steady state during warm-up and be reused
    // verbatim after, across weight changes that reshape every tile's
    // leader sets and pending lists.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let net = Network::random(50, 3, 4.5, 0.1, 13);
    let mut rng = StdRng::seed_from_u64(29);
    let cycle: Vec<Vec<f64>> = (0..6)
        .map(|_| {
            (0..net.n_vertices())
                .map(|_| rng.gen_range(0.05..1.0))
                .collect()
        })
        .collect();
    let cfg = DistributedPtasConfig::default()
        .with_max_minirounds(None)
        .with_partitions(4)
        .with_threads(1);
    let mut ptas = DistributedPtas::new(net.h(), cfg);
    assert!(ptas.partition().is_some(), "must exercise the tiled path");
    let mut outcome = Default::default();
    for w in cycle.iter().chain(cycle.iter()) {
        ptas.decide_into(w, &mut outcome);
    }

    let allocs = min_allocs(3, || {
        for w in &cycle {
            ptas.decide_into(w, &mut outcome);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state tiled decide_into must not allocate (counted {allocs})"
    );
}

#[test]
fn rescan_decide_into_is_allocation_free_with_varying_weights() {
    // The rescan decide is the lossy path; `force_rescan` runs the same
    // code deterministically. The flat local views, the reverse slots,
    // the receiver marks and the per-flood receiver lists are sized during
    // warm-up and reused after, across the varying-weight cycle that
    // reshapes leader sets and determination lists every decision.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let net = Network::random(50, 3, 4.5, 0.1, 13);
    let mut rng = StdRng::seed_from_u64(31);
    let cycle: Vec<Vec<f64>> = (0..6)
        .map(|_| {
            (0..net.n_vertices())
                .map(|_| rng.gen_range(0.05..1.0))
                .collect()
        })
        .collect();
    let cfg = DistributedPtasConfig::default()
        .with_max_minirounds(None)
        .with_force_rescan(true);
    let mut ptas = DistributedPtas::new(net.h(), cfg);
    let mut outcome = Default::default();
    for w in cycle.iter().chain(cycle.iter()) {
        ptas.decide_into(w, &mut outcome);
    }

    let allocs = min_allocs(3, || {
        for w in &cycle {
            ptas.decide_into(w, &mut outcome);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state rescan decide_into must not allocate (counted {allocs})"
    );
}

#[test]
fn policy_indices_into_is_allocation_free() {
    use mhca::bandit::ArmStats;
    use rand::{rngs::StdRng, SeedableRng};
    let mut stats = ArmStats::new(300);
    for arm in 0..300 {
        stats.update(arm, 0.5);
    }
    let mut policy = CsUcb::new(2.0);
    let mut rng = StdRng::seed_from_u64(0);
    let mut out = Vec::new();
    policy.indices_into(1, &stats, &mut rng, &mut out);

    let allocs = min_allocs(3, || {
        for t in 2..50 {
            policy.indices_into(t, &stats, &mut rng, &mut out);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state indices_into must not allocate (counted {allocs})"
    );
}

#[test]
fn log_histogram_record_is_allocation_free() {
    // The telemetry histogram is a fixed inline bucket array; recording
    // must never touch the heap, or the traced round loop would allocate
    // per decision.
    let mut hist = mhca::telemetry::LogHistogram::new();
    hist.record(1); // nothing to warm, but keep the shape uniform
    let allocs = min_allocs(3, || {
        for v in 0..10_000u64 {
            hist.record(v * v);
        }
    });
    assert_eq!(
        allocs, 0,
        "LogHistogram::record must not allocate (counted {allocs})"
    );
    assert!(hist.count() > 0);
}

#[test]
fn disabled_telemetry_emission_is_allocation_free() {
    // The disabled handle is the default in every runner; its counter /
    // gauge / span path must cost nothing so untraced runs stay on the
    // PR-1 allocation-free contract.
    use mhca::telemetry::{FieldValue, Telemetry};
    let telemetry = Telemetry::disabled();
    let allocs = min_allocs(3, || {
        for i in 0..1_000u64 {
            telemetry.counter("loop.counter", i);
            telemetry.gauge("loop.gauge", i as f64);
            telemetry.event(
                mhca::telemetry::EventKind::SpanEnd,
                "loop.span",
                &[("dur_ns", FieldValue::U64(i))],
            );
            let span = telemetry.span("loop");
            span.end();
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled Telemetry must not allocate on emission (counted {allocs})"
    );
}

#[test]
fn traced_round_loop_allocation_grows_sublinearly_with_horizon() {
    // Same end-to-end guard as below, but with a telemetry-attached
    // observer set over a no-op sink: histogram recording and sampled
    // span emission ride the round loop, so the per-slot path must stay
    // allocation-free with tracing enabled too. (Span/hist emission at
    // the run boundaries may allocate; the loop must not.)
    use mhca::core::experiment::ObserverSet;
    use mhca::telemetry::{NoopSink, Telemetry};
    let net = Network::random(30, 3, 4.0, 0.1, 3);
    let count_run = |horizon: u64| {
        min_allocs(2, || {
            let telemetry = Telemetry::from_sink(Box::new(NoopSink));
            let mut observers = ObserverSet::new();
            observers.attach_telemetry(&telemetry);
            let cfg = mhca::core::runner::Algorithm2Config::default().with_horizon(horizon);
            let _ = mhca::core::runner::run_policy_observed(
                &net,
                &cfg,
                &mut CsUcb::new(2.0),
                &mut observers,
            );
        })
    };
    let short = count_run(40);
    let long = count_run(160);
    // 4× the slots must cost well under 2× the allocations.
    assert!(
        long < short * 2,
        "per-slot allocations leak under tracing: horizon 40 → {short} allocs, horizon 160 → {long}"
    );
}

#[test]
fn run_policy_allocation_grows_sublinearly_with_horizon() {
    // End-to-end guard: the whole-run allocation count must be dominated
    // by setup, not by the per-slot loop. With the loop allocation-free,
    // doubling the horizon adds (almost) nothing; before PR 1 each slot
    // cost a fresh engine + inboxes + index/observation vectors.
    let net = Network::random(30, 3, 4.0, 0.1, 3);
    let count_run = |horizon: u64| {
        min_allocs(2, || {
            let cfg = mhca::core::runner::Algorithm2Config::default().with_horizon(horizon);
            let _ = mhca::core::runner::run_policy(&net, &cfg, &mut CsUcb::new(2.0));
        })
    };
    let short = count_run(40);
    let long = count_run(160);
    // 4× the slots must cost well under 2× the allocations.
    assert!(
        long < short * 2,
        "per-slot allocations leak: horizon 40 → {short} allocs, horizon 160 → {long}"
    );
}
