//! Work shape of the lossless leader election.
//!
//! The decide's own election counters (`DistributedPtas::scan_stats`) are
//! deterministic, so the election's total work — probes that read past
//! a witness, probes that stopped at one, and ball entries walked to wake
//! Candidates — can be compared across instance sizes without timing
//! noise. Per vertex it must stay flat as `n` grows at fixed density,
//! including on the Fig. 5 line, where a decision runs `Θ(n)` mini-rounds
//! and an election that probes every remaining Candidate each mini-round
//! does `Θ(n²)` work.

use mhca::core::{DistributedPtas, DistributedPtasConfig};
use mhca::graph::{topology, unit_disk, ExtendedConflictGraph, Graph};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Election work per vertex of one run-to-completion decision.
fn work_per_vertex(g: &Graph, m: usize, r: usize, weights: impl Fn(usize) -> f64) -> f64 {
    let h = ExtendedConflictGraph::new(g, m);
    let n = h.n_vertices();
    let w: Vec<f64> = (0..n).map(weights).collect();
    let cfg = DistributedPtasConfig::default()
        .with_r(r)
        .with_max_minirounds(None);
    let mut ptas = DistributedPtas::new(&h, cfg);
    let out = ptas.decide(&w);
    assert!(out.all_marked);
    let s = ptas.scan_stats();
    (s.candidates_scanned + s.fast_skips + s.dirty_decrements) as f64 / n as f64
}

fn assert_flat(label: &str, small: f64, large: f64) {
    assert!(
        large <= 1.5 * small,
        "{label}: election work per vertex grew {small:.2} -> {large:.2}"
    );
}

#[test]
fn line_election_work_is_linear_in_n() {
    // Fig. 5: decreasing weights along a line, one channel, r = 1.
    let line = |n: usize| {
        work_per_vertex(&topology::line(n), 1, 1, |i| {
            1.0 - i as f64 / (n + 1) as f64
        })
    };
    assert_flat("line", line(2000), line(8000));
}

#[test]
fn unit_disk_election_work_is_linear_in_n() {
    let unit_disk = |n: usize, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = unit_disk::random_with_average_degree(n, 5.0, &mut rng);
        let w: Vec<f64> = (0..3 * n).map(|_| rng.gen_range(0.1..1.0)).collect();
        work_per_vertex(&g, 3, 2, |v| w[v])
    };
    assert_flat("unit disk", unit_disk(500, 5), unit_disk(2000, 6));
}
