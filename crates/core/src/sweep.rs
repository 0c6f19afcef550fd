//! Multi-seed sweeps: aggregate experiment outputs across random
//! instances.
//!
//! The paper reports single-instance simulations; this module adds the
//! missing statistical layer — a bounded worker pool that runs per-seed
//! jobs ([`for_each_bounded`], [`run_bounded`]) and the mean ± standard
//! deviation of their results ([`Aggregate`]), so claims like "Algorithm 2
//! outperforms LLR" can be checked for robustness rather than luck.

use crate::stats;

/// Mean ± population standard deviation of a measurement across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Number of seeds aggregated.
    pub runs: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Aggregate {
    /// Aggregates a slice of per-seed observations.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn from_samples(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "need at least one sample");
        Aggregate {
            runs: xs.len(),
            mean: stats::mean(xs),
            std_dev: stats::std_dev(xs),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Runs `work` over `items` on at most `workers` threads, delivering each
/// `(index, result)` to `sink` **on the calling thread** as results
/// complete (completion order, not index order).
///
/// This is a shared work queue, not an even chunking: a slow item stalls
/// one worker, not a whole chunk — which is what a heterogeneous campaign
/// job matrix needs. `sink` returning `false` cancels the run: items not
/// yet started are dropped, in-flight results are drained but no longer
/// delivered.
///
/// `workers == 0` is treated as 1.
pub fn for_each_bounded<T, R, F, S>(items: Vec<T>, workers: usize, work: F, mut sink: S)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    S: FnMut(usize, R) -> bool,
{
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Mutex};

    let n = items.len();
    if n == 0 {
        return;
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        // Strictly in-order serial execution — bit-identical to the
        // historical serial paths.
        for (i, item) in items.into_iter().enumerate() {
            if !sink(i, work(i, item)) {
                return;
            }
        }
        return;
    }

    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let cancelled = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (queue, cancelled, work) = (&queue, &cancelled, &work);
            scope.spawn(move || loop {
                if cancelled.load(Ordering::Relaxed) {
                    break;
                }
                let next = queue.lock().expect("work queue poisoned").pop_front();
                let Some((i, item)) = next else { break };
                // A closed channel means the receiver gave up; stop.
                if tx.send((i, work(i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut open = true;
        for (i, result) in rx {
            if open && !sink(i, result) {
                open = false;
                cancelled.store(true, Ordering::Relaxed);
            }
        }
    });
}

/// Order-preserving variant of [`for_each_bounded`]: runs every item on
/// at most `workers` threads and returns the results in item order.
pub fn run_bounded<T, R, F>(items: Vec<T>, workers: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for_each_bounded(items, workers, work, |i, r| {
        out[i] = Some(r);
        true
    });
    out.into_iter()
        .map(|r| r.expect("every item completes"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_statistics() {
        let a = Aggregate::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a.runs, 3);
        assert_eq!(a.mean, 2.0);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
        assert!((a.std_dev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_aggregate_rejected() {
        let _ = Aggregate::from_samples(&[]);
    }

    #[test]
    fn run_bounded_preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [0, 1, 2, 7, 64] {
            let got = run_bounded(items.clone(), workers, |_, x| x * 3 + 1);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn for_each_bounded_delivers_every_result_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let started = AtomicUsize::new(0);
        let mut seen = [0u32; 40];
        for_each_bounded(
            (0..40usize).collect(),
            4,
            |_, i| {
                started.fetch_add(1, Ordering::Relaxed);
                i
            },
            |idx, i| {
                assert_eq!(idx, i);
                seen[i] += 1;
                true
            },
        );
        assert_eq!(started.load(Ordering::Relaxed), 40);
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn for_each_bounded_cancellation_stops_unstarted_work() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let mut delivered = 0;
        for_each_bounded(
            (0..1000usize).collect(),
            2,
            |_, i| {
                ran.fetch_add(1, Ordering::Relaxed);
                // Non-instant work, so the sink's cancel lands while the
                // queue still holds unstarted items.
                std::thread::sleep(std::time::Duration::from_millis(1));
                i
            },
            |_, _| {
                delivered += 1;
                delivered < 5 // cancel after five deliveries
            },
        );
        assert_eq!(delivered, 5, "sink stops being called after cancel");
        let ran = ran.load(Ordering::Relaxed);
        assert!(
            ran < 1000,
            "cancellation must drop unstarted items, ran {ran}"
        );
    }

    #[test]
    fn bounded_pool_matches_serial_map() {
        // A fixed-size pool and a serial map must agree on a pure
        // per-seed measurement.
        let seeds: Vec<u64> = (0..16).collect();
        let measure = |seed: u64| (seed as f64).sqrt();
        let pooled = run_bounded(seeds.clone(), 3, |_, s| measure(s));
        let serial: Vec<f64> = seeds.into_iter().map(measure).collect();
        assert_eq!(
            Aggregate::from_samples(&pooled),
            Aggregate::from_samples(&serial)
        );
    }
}
