//! Multi-seed sweeps: aggregate experiment outputs across random
//! instances.
//!
//! The paper reports single-instance simulations; this module adds the
//! missing statistical layer — run any per-seed measurement across a seed
//! range and report mean ± standard deviation, so claims like "Algorithm 2
//! outperforms LLR" can be checked for robustness rather than luck.

use crate::{
    network::Network,
    runner::{run_policy, Algorithm2Config},
    stats,
};
use mhca_bandit::policies::IndexPolicy;
use serde::{Deserialize, Serialize};

/// Mean ± population standard deviation of a measurement across seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Runs `measure` once per seed in `seeds` — **in parallel**, on a
/// [`run_bounded`] pool with one worker per available core — and
/// aggregates the results.
///
/// `measure` must be a pure function of the seed (`Fn + Sync`): every
/// workload in this repository derives its network, channel realizations,
/// and policy randomness from the seed alone, so per-seed runs are
/// embarrassingly parallel and the aggregate is identical to a serial
/// sweep (results are collected in seed order).
///
/// For stateful measurements, see [`sweep_serial`].
pub fn sweep<F: Fn(u64) -> f64 + Sync>(
    seeds: impl IntoIterator<Item = u64>,
    measure: F,
) -> Aggregate {
    let xs = run_bounded(seeds.into_iter().collect(), workers(), |_, seed| {
        measure(seed)
    });
    Aggregate::from_samples(&xs)
}

/// Serial variant of [`sweep`] for measurements that mutate shared state
/// between seeds (`FnMut`).
pub fn sweep_serial<F: FnMut(u64) -> f64>(
    seeds: impl IntoIterator<Item = u64>,
    mut measure: F,
) -> Aggregate {
    let xs: Vec<f64> = seeds.into_iter().map(&mut measure).collect();
    Aggregate::from_samples(&xs)
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

/// Worker count of the parallel sweeps: one per available core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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

/// Head-to-head comparison of two policies across seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyComparison {
    /// Name of policy A.
    pub policy_a: String,
    /// Name of policy B.
    pub policy_b: String,
    /// Aggregate expected throughput of policy A (kbps).
    pub a: Aggregate,
    /// Aggregate expected throughput of policy B (kbps).
    pub b: Aggregate,
    /// Fraction of seeds where A strictly beat B.
    pub a_win_rate: f64,
}

/// Compares two policy constructors across seeded random networks: each
/// seed builds one network (`n` users, `m` channels, degree `d`) and runs
/// both policies on identical channel realizations (paired comparison).
/// Seeds run in parallel (each seed's pair of runs is one work item, so
/// the pairing — and hence the win rate — is exact).
///
/// The measured quantity is average expected throughput over the horizon.
#[allow(clippy::too_many_arguments)]
pub fn compare_policies<A, B>(
    n: usize,
    m: usize,
    d: f64,
    horizon: u64,
    seeds: std::ops::Range<u64>,
    cfg: &Algorithm2Config,
    make_a: A,
    make_b: B,
) -> PolicyComparison
where
    A: Fn(&Network) -> Box<dyn IndexPolicy> + Sync,
    B: Fn(&Network) -> Box<dyn IndexPolicy> + Sync,
{
    let total = (seeds.end.saturating_sub(seeds.start)) as usize;
    let per_seed: Vec<(f64, f64, String, String)> =
        run_bounded(seeds.collect(), workers(), |_, seed| {
            let net = Network::random(n, m, d, 0.1, seed);
            let run_cfg = cfg.clone().with_horizon(horizon).with_seed(seed);
            let mut pa = make_a(&net);
            let mut pb = make_b(&net);
            let name_a = pa.name().to_string();
            let name_b = pb.name().to_string();
            let ra = run_policy(&net, &run_cfg, pa.as_mut());
            let rb = run_policy(&net, &run_cfg, pb.as_mut());
            (
                ra.average_expected_kbps,
                rb.average_expected_kbps,
                name_a,
                name_b,
            )
        });
    let xs_a: Vec<f64> = per_seed.iter().map(|r| r.0).collect();
    let xs_b: Vec<f64> = per_seed.iter().map(|r| r.1).collect();
    let wins = per_seed.iter().filter(|r| r.0 > r.1).count();
    let (name_a, name_b) = per_seed
        .last()
        .map(|r| (r.2.clone(), r.3.clone()))
        .unwrap_or_default();
    PolicyComparison {
        policy_a: name_a,
        policy_b: name_b,
        a: Aggregate::from_samples(&xs_a),
        b: Aggregate::from_samples(&xs_b),
        a_win_rate: wins as f64 / total.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_bandit::policies::{CsUcb, Random};

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
    fn sweep_applies_measure_per_seed() {
        let agg = sweep(0..5, |seed| seed as f64);
        assert_eq!(agg.runs, 5);
        assert_eq!(agg.mean, 2.0);
        assert_eq!(agg.max, 4.0);
    }

    #[test]
    fn cs_ucb_beats_random_across_seeds() {
        let cfg = Algorithm2Config::default();
        let cmp = compare_policies(
            8,
            2,
            2.5,
            150,
            0..4,
            &cfg,
            |_net| Box::new(CsUcb::new(2.0)),
            |_net| Box::new(Random),
        );
        assert_eq!(cmp.policy_a, "cs-ucb");
        assert_eq!(cmp.policy_b, "random");
        assert!(cmp.a.mean > cmp.b.mean);
        assert!(cmp.a_win_rate >= 0.75, "win rate {}", cmp.a_win_rate);
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
    fn bounded_pool_matches_parallel_sweep() {
        // A fixed-size pool and the per-core sweep must agree on a pure
        // per-seed measurement.
        let seeds: Vec<u64> = (0..16).collect();
        let measure = |seed: u64| (seed as f64).sqrt();
        let pooled = run_bounded(seeds.clone(), 3, |_, s| measure(s));
        let agg = sweep(seeds, measure);
        assert_eq!(Aggregate::from_samples(&pooled), agg);
    }
}
