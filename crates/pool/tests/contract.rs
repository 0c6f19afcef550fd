//! The tile pool's contract: tile affinity, panic propagation after every
//! tile has ended, joining on drop, and independent pools on concurrent
//! threads (driven through the tiled decide of `mhca-core`).

use mhca_core::{DecisionOutcome, DistributedPtas, DistributedPtasConfig, Network};
use mhca_pool::TilePool;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::Duration;

#[test]
fn each_tile_runs_once_and_always_on_the_same_thread() {
    let mut pool = TilePool::new();
    let tiles = 5;
    let mut first: Option<Vec<ThreadId>> = None;
    for _ in 0..20 {
        let seen: Vec<Mutex<Vec<ThreadId>>> = (0..tiles).map(|_| Mutex::new(Vec::new())).collect();
        pool.run(tiles, |t| {
            seen[t].lock().unwrap().push(thread::current().id())
        });
        let ids: Vec<ThreadId> = seen
            .into_iter()
            .map(|m| {
                let ran = m.into_inner().unwrap();
                assert_eq!(ran.len(), 1, "every tile runs exactly once");
                ran[0]
            })
            .collect();
        assert_eq!(ids[0], thread::current().id(), "tile 0 runs on the caller");
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b, "two tiles shared a thread");
            }
        }
        match &first {
            None => first = Some(ids),
            Some(f) => assert_eq!(f, &ids, "tile affinity changed between runs"),
        }
    }
    assert_eq!(pool.workers(), tiles - 1);
}

#[test]
fn a_panicking_tile_reaches_the_caller_after_every_tile_has_ended() {
    let mut pool = TilePool::new();
    let finished = AtomicUsize::new(0);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.run(4, |t| {
            if t == 2 {
                panic::panic_any(format!("tile {t} failed"));
            }
            // The other tiles are still running when tile 2 panics.
            thread::sleep(Duration::from_millis(50));
            finished.fetch_add(1, Ordering::SeqCst);
        })
    }));
    let payload = result.expect_err("the tile's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("tile 2 failed"),
        "the payload is the tile's own"
    );
    assert_eq!(
        finished.load(Ordering::SeqCst),
        3,
        "run returned before the other tiles ended"
    );

    // The caller's own panic also waits for the workers, and wins over a
    // worker's; the pool stays usable after both.
    finished.store(0, Ordering::SeqCst);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.run(4, |t| match t {
            0 => panic::panic_any("caller"),
            1 => panic::panic_any("worker"),
            _ => {
                thread::sleep(Duration::from_millis(50));
                finished.fetch_add(1, Ordering::SeqCst);
            }
        })
    }));
    assert_eq!(
        result.expect_err("panics").downcast_ref::<&str>(),
        Some(&"caller")
    );
    assert_eq!(
        finished.load(Ordering::SeqCst),
        2,
        "the caller's panic left tiles running"
    );
    let hits = AtomicUsize::new(0);
    pool.run(4, |_| {
        hits.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(hits.load(Ordering::SeqCst), 4);
}

/// Counts the worker threads that have exited: each worker's thread-local
/// guard is dropped when its thread ends, before `join` returns.
static EXITED: AtomicUsize = AtomicUsize::new(0);

struct ExitGuard;

impl Drop for ExitGuard {
    fn drop(&mut self) {
        EXITED.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    static GUARD: ExitGuard = const { ExitGuard };
}

#[test]
fn dropping_the_pool_joins_every_worker() {
    let mut pool = TilePool::new();
    let caller = thread::current().id();
    pool.run(4, |_| {
        if thread::current().id() != caller {
            GUARD.with(|_| {});
        }
    });
    assert_eq!(pool.workers(), 3);
    assert_eq!(EXITED.load(Ordering::SeqCst), 0);
    drop(pool);
    assert_eq!(
        EXITED.load(Ordering::SeqCst),
        3,
        "drop returned before every worker had exited"
    );
}

#[test]
fn concurrent_deciders_each_match_the_serial_outcome() {
    // Two threads each drive their own 2-tile threaded decider, so two
    // pools run at once; neither may wait on or disturb the other.
    let handles: Vec<_> = (0..2u64)
        .map(|k| {
            thread::spawn(move || {
                let net = Network::random(60, 3, 4.5, 0.1, 70 + k);
                let base = DistributedPtasConfig::default().with_max_minirounds(None);
                let mut serial = DistributedPtas::new(net.h(), base);
                let mut tiled =
                    DistributedPtas::new(net.h(), base.with_partitions(2).with_threads(0));
                assert!(tiled.partition().is_some(), "must exercise the tiled path");
                let mut rng = StdRng::seed_from_u64(900 + k);
                let (mut expect, mut got) =
                    (DecisionOutcome::default(), DecisionOutcome::default());
                for step in 0..200 {
                    let w: Vec<f64> = (0..net.n_vertices())
                        .map(|_| rng.gen_range(0.05..1.0))
                        .collect();
                    serial.decide_into(&w, &mut expect);
                    tiled.decide_into(&w, &mut got);
                    assert_eq!(got, expect, "thread {k}, step {step}: tiled != serial");
                    assert_eq!(
                        tiled.scan_stats(),
                        serial.scan_stats(),
                        "thread {k}, step {step}: scan stats diverged"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("a decider thread failed");
    }
}
