//! Differential oracle for the partition-parallel decide phase.
//!
//! Tiling is an execution strategy, not a semantic knob: for every tile
//! count and threading mode, `DistributedPtas::decide_into` must produce
//! **bit-identical** [`DecisionOutcome`]s — winners, per-mini-round weight
//! series, flat leader lists, conflict audit, fallback-flood counter, and
//! communication counters — to the serial incremental path, and both must
//! match the full-rescan reference (`decide_into_rescan`), the ultimate
//! oracle. The scan-stats instrumentation must agree too: the tiled probe
//! visits exactly the vertices the serial probe visits, just from
//! different threads.
//!
//! Sequences run on persistent engines so cross-decision cache reuse
//! (rewound witness cursors, witnesses left over from the previous
//! decision, the reused changed list) is exercised under tiling, not
//! just the first call.
//!
//! The topology zoo and the tiled-parity assertion live in
//! `mhca_specgen::support`, shared with `tests/decide_parity.rs` and the
//! generated `partition_parity` contract (`tests/specgen_contracts.rs`).
//! Adversarial vertex *relabelings* of these same families are pinned
//! separately in `tests/partition_orderings.rs`.

use mhca::core::{DecisionOutcome, DistributedPtas, DistributedPtasConfig};
use mhca::graph::{topology, ExtendedConflictGraph, Graph};
use mhca_specgen::support::{assert_tiled_parity_sequence, topology_zoo};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn partition_parity_grid() {
    // Tile counts straddle the interesting seams: 2 (one boundary),
    // 3 (uneven stripes), 8 (more tiles than some instances have
    // boundary-free vertices — tiny cores, giant halos).
    let mut combinations = 0usize;
    for (name, build) in topology_zoo() {
        for instance in 0..3u64 {
            let g = build(400 + instance);
            for &m in &[1usize, 3] {
                let h = ExtendedConflictGraph::new(&g, m);
                for &r in &[1usize, 2] {
                    let base = DistributedPtasConfig::default()
                        .with_r(r)
                        .with_max_minirounds(None);
                    for &partitions in &[2usize, 3, 8] {
                        for &threads in &[0usize, 1] {
                            let label = format!("{name} m={m} r={r} instance={instance}");
                            assert_tiled_parity_sequence(
                                &h,
                                base,
                                partitions,
                                threads,
                                2000 * instance + r as u64,
                                2,
                                &label,
                            );
                            combinations += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        combinations >= 300,
        "grid shrank below the 300-combination floor: {combinations}"
    );
}

#[test]
fn partition_parity_capped_minirounds() {
    // A capped run leaves Candidates undetermined, holding witnesses and
    // mid-row cursors, so the next decision starts from a cache the last
    // one left half-way: its cursors are rewound and mini-round 0 probes
    // every vertex afresh before any skip or wake walk trusts a witness —
    // the seam where a tile reading a stale witness would diverge.
    let mut rng = StdRng::seed_from_u64(31);
    for instance in 0..4u64 {
        let (g, _) = mhca::graph::unit_disk::random_with_average_degree(30, 4.5, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        for &cap in &[Some(1), Some(2), Some(4)] {
            let base = DistributedPtasConfig::default()
                .with_r(2)
                .with_max_minirounds(cap);
            for &partitions in &[2usize, 5] {
                let label = format!("caps instance={instance} cap={cap:?}");
                assert_tiled_parity_sequence(&h, base, partitions, 0, 90 + instance, 3, &label);
            }
        }
    }
}

#[test]
fn partition_parity_equal_weight_tie_storm() {
    // All-equal weights force every verdict through the id tiebreak — the
    // regime where any reordering of elections across tiles would change
    // the leader sets.
    for &(rows, cols) in &[(4usize, 6usize), (3, 9)] {
        let g = topology::grid(rows, cols);
        let h = ExtendedConflictGraph::new(&g, 2);
        let w = vec![0.5; h.n_vertices()];
        for r in [1usize, 2] {
            let base = DistributedPtasConfig::default()
                .with_r(r)
                .with_max_minirounds(None);
            let mut serial = DistributedPtas::new(&h, base);
            let mut expect = DecisionOutcome::default();
            serial.decide_into(&w, &mut expect);
            for partitions in [2usize, 4, 7] {
                let mut tiled =
                    DistributedPtas::new(&h, base.with_partitions(partitions).with_threads(0));
                let mut got = DecisionOutcome::default();
                tiled.decide_into(&w, &mut got);
                assert_eq!(got, expect, "ties {rows}x{cols} r={r} p={partitions}");
            }
        }
    }
}

#[test]
fn partition_counts_beyond_n_degenerate_to_one_vertex_tiles() {
    // More requested tiles than vertices: the partitioner clamps, cores
    // shrink to singletons, every ball lives in the halo.
    let g = topology::ring(6);
    let h = ExtendedConflictGraph::new(&g, 1);
    let base = DistributedPtasConfig::default()
        .with_r(1)
        .with_max_minirounds(None);
    assert_tiled_parity_sequence(&h, base, 64, 0, 5, 2, "tiny-ring oversplit");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random graphs, random weights, random tile/thread settings: the
    /// tiled decide is indistinguishable from the serial one.
    #[test]
    fn tiled_decide_matches_serial_on_random_instances(
        ((n, edge_seed), (weight_seed, partitions), (threads, r)) in
            ((4usize..40, 0u64..10_000), (0u64..10_000, 2usize..10), (0usize..2, 1usize..3)),
    ) {
        let mut rng = StdRng::seed_from_u64(edge_seed);
        let mut b = Graph::builder(n);
        for _ in 0..(2 * n) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let h = ExtendedConflictGraph::new(&g, 2);
        let base = DistributedPtasConfig::default()
            .with_r(r)
            .with_max_minirounds(None);
        assert_tiled_parity_sequence(
            &h, base, partitions, threads, weight_seed, 2, "proptest instance",
        );
    }
}
