//! Differential oracle for the decide phase.
//!
//! The incremental dirty-ball leader election
//! (`DistributedPtas::decide_into`) must produce **bit-identical**
//! [`DecisionOutcome`]s — winners, per-mini-round weight series, leader
//! lists, mini-round counts, conflict audit, and communication counters —
//! to the full-rescan reference implementation
//! (`DistributedPtas::decide_into_rescan`), across every topology family,
//! radius, loss setting, and seed in the grid below (≥ 200 combinations).
//!
//! Each combination runs a *sequence* of decisions on one persistent
//! engine pair, so cache reuse across decisions (stale blockers, dirty
//! stamps, epoch wraparound seams) is exercised, not just the first call.
//! Under message loss `decide_into` runs the reference path by design,
//! so the lossy rows of the grid compare that path with itself: they
//! check that it completes and is deterministic, not what it computes.
//! `decide_parity_lossy_golden` pins the lossy outcomes, and the
//! lossless outcomes of `decide_into_rescan`, to recorded digests
//! instead, so a changed lossy result (or loss-stream position) fails
//! there.
//!
//! The topology zoo and the parity-sequence assertion live in
//! `mhca_specgen::support`, shared with `tests/partition_parity.rs` and
//! the generated `decide_parity` contract
//! (`tests/specgen_contracts.rs`), which extends this pinned grid with
//! generated spec-space coverage.

use mhca::core::{DecisionOutcome, DistributedPtas, DistributedPtasConfig, LocalSolver};
use mhca::graph::{topology, ExtendedConflictGraph};
use mhca::sim::LossSpec;
use mhca_specgen::support::{assert_parity_sequence, topology_zoo};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn decide_parity_grid_lossless_and_lossy() {
    let mut combinations = 0usize;
    let mut compared = 0usize;
    let (mut inc_scans, mut ref_scans) = (0u64, 0u64);
    for (name, build) in topology_zoo() {
        for instance in 0..5u64 {
            let g = build(900 + instance);
            for &m in &[1usize, 3] {
                let h = ExtendedConflictGraph::new(&g, m);
                for &r in &[1usize, 2] {
                    for &(loss, loss_seed) in &[(0.0, 0), (0.15, 7 + instance)] {
                        let cfg = DistributedPtasConfig::default()
                            .with_r(r)
                            .with_max_minirounds(None)
                            .with_loss_spec(LossSpec::lossy(loss, loss_seed));
                        let label = format!("{name} m={m} r={r} loss={loss} instance={instance}");
                        let (n_decisions, inc, re) =
                            assert_parity_sequence(&h, cfg, 1000 * instance + r as u64, 2, &label);
                        compared += n_decisions;
                        if loss == 0.0 {
                            inc_scans += inc;
                            ref_scans += re;
                        }
                        combinations += 1;
                    }
                }
            }
        }
    }
    assert!(
        combinations >= 200,
        "grid shrank below the 200-combination floor: {combinations}"
    );
    assert!(compared >= 2 * combinations);
    assert!(
        inc_scans < ref_scans,
        "incremental path saved no scans across the lossless grid \
         ({inc_scans} vs {ref_scans})"
    );
}

#[test]
fn decide_parity_capped_minirounds_and_solvers() {
    // Mini-round budgets interact with the dirty set (a capped run leaves
    // candidates undetermined); solver variants change the determination
    // lists the dirty expansion consumes.
    let mut rng = StdRng::seed_from_u64(77);
    for instance in 0..6u64 {
        let (g, _) = mhca::graph::unit_disk::random_with_average_degree(30, 4.5, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        for &cap in &[Some(1), Some(2), Some(4), None] {
            for solver in [
                LocalSolver::Exact,
                LocalSolver::Greedy,
                LocalSolver::Auto {
                    max_exact_groups: 6,
                },
            ] {
                let cfg = DistributedPtasConfig::default()
                    .with_r(2)
                    .with_max_minirounds(cap)
                    .with_local_solver(solver);
                let label = format!("caps instance={instance} cap={cap:?} solver={solver:?}");
                assert_parity_sequence(&h, cfg, 50 + instance, 2, &label);
            }
        }
    }
}

#[test]
fn decide_parity_worstcase_line_runs_to_completion() {
    // The Θ(N)-mini-round worst case (Fig. 5): decreasing weights along a
    // line maximize mini-round count and dirty-set churn.
    let n = 48;
    let g = topology::line(n);
    let h = ExtendedConflictGraph::new(&g, 1);
    let w: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 / (n + 1) as f64).collect();
    let cfg = DistributedPtasConfig::default()
        .with_r(1)
        .with_max_minirounds(None);
    let mut incremental = DistributedPtas::new(&h, cfg);
    let mut reference = DistributedPtas::new(&h, cfg);
    let mut got = DecisionOutcome::default();
    let mut expect = DecisionOutcome::default();
    incremental.decide_into(&w, &mut got);
    reference.decide_into_rescan(&w, &mut expect);
    assert_eq!(got, expect);
    assert!(got.minirounds_used >= n / 4);
    // Many mini-rounds is exactly where the dirty set pays: the reference
    // rescans surviving candidates every round.
    assert!(
        incremental.scan_stats().candidates_scanned * 2 < reference.scan_stats().candidates_scanned,
        "incremental {} vs reference {}",
        incremental.scan_stats().candidates_scanned,
        reference.scan_stats().candidates_scanned
    );
}

#[test]
fn decide_parity_equal_weight_tie_storm() {
    // All-equal weights force every verdict through the id tiebreak.
    for &(rows, cols) in &[(4usize, 6usize), (3, 9)] {
        let g = topology::grid(rows, cols);
        let h = ExtendedConflictGraph::new(&g, 2);
        let w = vec![0.5; h.n_vertices()];
        for r in [1, 2] {
            let cfg = DistributedPtasConfig::default()
                .with_r(r)
                .with_max_minirounds(None);
            let mut incremental = DistributedPtas::new(&h, cfg);
            let mut reference = DistributedPtas::new(&h, cfg);
            let mut got = DecisionOutcome::default();
            let mut expect = DecisionOutcome::default();
            incremental.decide_into(&w, &mut got);
            reference.decide_into_rescan(&w, &mut expect);
            assert_eq!(got, expect, "ties {rows}x{cols} r={r}");
        }
    }
}

/// FNV-1a 64-bit over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Digest of three fresh-weight `decide` calls (`decide_into` or
/// `decide_into_rescan`) on one persistent engine: every outcome's `Debug`
/// text (f64s print exactly) and scan stats, so the loss stream's
/// carry-over between decisions is pinned too.
fn decision_digest<'h>(
    h: &'h ExtendedConflictGraph,
    cfg: DistributedPtasConfig,
    seed: u64,
    decide: fn(&mut DistributedPtas<'h>, &[f64], &mut DecisionOutcome),
) -> u64 {
    let mut ptas = DistributedPtas::new(h, cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = DecisionOutcome::default();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..3 {
        let w = mhca_specgen::support::random_weights(h, &mut rng);
        decide(&mut ptas, &w, &mut out);
        hash = fnv1a(hash, format!("{out:?}").as_bytes());
        hash = fnv1a(hash, format!("{:?}", ptas.scan_stats()).as_bytes());
    }
    hash
}

/// The rescan decide pinned to recorded digests.
///
/// Under message loss `decide_into` and `decide_into_rescan` run the same
/// code, so the parity grids above compare that path with itself. These
/// digests were recorded from the per-vertex-view implementation and pin
/// every lossy outcome, counter and loss-stream position bit for bit. The
/// rows labelled `force_rescan` are lossless configs decided through
/// `decide_into_rescan`; the label is the name of the config flag that
/// once chose that path, kept so the table stays as recorded.
const LOSSY_GOLDEN: &[(&str, u64)] = &[
    ("unit-disk-sparse m=1 r=1 loss=0.15", 0xca8ae1974c3ce3a6),
    ("unit-disk-sparse m=1 r=1 loss=0.3", 0x8656485bdfcd3f3d),
    ("unit-disk-sparse m=1 r=1 force_rescan", 0x07d9bd19ab93f604),
    ("unit-disk-sparse m=1 r=2 loss=0.15", 0x2a07d398f8f481c2),
    ("unit-disk-sparse m=1 r=2 loss=0.3", 0x68fe7b30e9e532eb),
    ("unit-disk-sparse m=1 r=2 force_rescan", 0xc52e489cd750811c),
    ("unit-disk-sparse m=3 r=1 loss=0.15", 0xb4ac5b1f2eb930f7),
    ("unit-disk-sparse m=3 r=1 loss=0.3", 0x4d1b84aef57fe6f9),
    ("unit-disk-sparse m=3 r=1 force_rescan", 0xaede30d14781b3dc),
    ("unit-disk-sparse m=3 r=2 loss=0.15", 0x64ce471fe8ec9254),
    ("unit-disk-sparse m=3 r=2 loss=0.3", 0x55aa1cc5ae07f8ee),
    ("unit-disk-sparse m=3 r=2 force_rescan", 0x1b941917ca624fcb),
    ("unit-disk-dense m=1 r=1 loss=0.15", 0xf73f7efd81ffa4de),
    ("unit-disk-dense m=1 r=1 loss=0.3", 0x9d557400e704c405),
    ("unit-disk-dense m=1 r=1 force_rescan", 0x70cf6bb9a74c3510),
    ("unit-disk-dense m=1 r=2 loss=0.15", 0xacac7abf966aaf64),
    ("unit-disk-dense m=1 r=2 loss=0.3", 0xa3bae80190c13614),
    ("unit-disk-dense m=1 r=2 force_rescan", 0x7f7a54b3a37e520f),
    ("unit-disk-dense m=3 r=1 loss=0.15", 0x2658a6e1e56c6242),
    ("unit-disk-dense m=3 r=1 loss=0.3", 0xe8bc090c369926d0),
    ("unit-disk-dense m=3 r=1 force_rescan", 0x99f46dec00a647b7),
    ("unit-disk-dense m=3 r=2 loss=0.15", 0xe81e8630be507bd0),
    ("unit-disk-dense m=3 r=2 loss=0.3", 0x4591ceed0dc7d4f2),
    ("unit-disk-dense m=3 r=2 force_rescan", 0x8aa07ab1a43a9a70),
    ("unit-disk-mid m=1 r=1 loss=0.15", 0xd9df5cffa71b3e8e),
    ("unit-disk-mid m=1 r=1 loss=0.3", 0x21ad9a557929e498),
    ("unit-disk-mid m=1 r=1 force_rescan", 0xb4509fcf5f3a4faa),
    ("unit-disk-mid m=1 r=2 loss=0.15", 0x3f89d4519e6b8789),
    ("unit-disk-mid m=1 r=2 loss=0.3", 0x75ee9d9545090c7d),
    ("unit-disk-mid m=1 r=2 force_rescan", 0x4f8dcae055c3675c),
    ("unit-disk-mid m=3 r=1 loss=0.15", 0x73e1fe090ec574a3),
    ("unit-disk-mid m=3 r=1 loss=0.3", 0xcc02553426f16a08),
    ("unit-disk-mid m=3 r=1 force_rescan", 0x0635748c4b34e2ee),
    ("unit-disk-mid m=3 r=2 loss=0.15", 0x5d72b6c2c3a0094d),
    ("unit-disk-mid m=3 r=2 loss=0.3", 0xa8ce0652a332f240),
    ("unit-disk-mid m=3 r=2 force_rescan", 0x1f10444ad372f97e),
    ("line m=1 r=1 loss=0.15", 0x62de3f6c8a2b46bf),
    ("line m=1 r=1 loss=0.3", 0xe373f958135ebe30),
    ("line m=1 r=1 force_rescan", 0x329333573d3b6fe2),
    ("line m=1 r=2 loss=0.15", 0xf1c15f25e59f4d9d),
    ("line m=1 r=2 loss=0.3", 0x69685b629a871155),
    ("line m=1 r=2 force_rescan", 0x1ab82095e2e16ee2),
    ("line m=3 r=1 loss=0.15", 0xec1a25a073f34c9f),
    ("line m=3 r=1 loss=0.3", 0xc1dc0aadb019f9c6),
    ("line m=3 r=1 force_rescan", 0xd566a113acf4cbb7),
    ("line m=3 r=2 loss=0.15", 0xefcf791b413bf4d9),
    ("line m=3 r=2 loss=0.3", 0xb9e8c72155ff190e),
    ("line m=3 r=2 force_rescan", 0x3be5ef5794c73f20),
    ("ring m=1 r=1 loss=0.15", 0x5ebe79ce63644d60),
    ("ring m=1 r=1 loss=0.3", 0x67741f797835010b),
    ("ring m=1 r=1 force_rescan", 0x21014844d15d1e16),
    ("ring m=1 r=2 loss=0.15", 0x77dce6262f989bed),
    ("ring m=1 r=2 loss=0.3", 0x2787997a5143e216),
    ("ring m=1 r=2 force_rescan", 0x1fb67e96c5ec24bd),
    ("ring m=3 r=1 loss=0.15", 0xbc4c586d74eb0e03),
    ("ring m=3 r=1 loss=0.3", 0x95c78339f97f75e0),
    ("ring m=3 r=1 force_rescan", 0x44aa1ceee739475a),
    ("ring m=3 r=2 loss=0.15", 0x987bd0e21d619861),
    ("ring m=3 r=2 loss=0.3", 0x99bb8dc07522c948),
    ("ring m=3 r=2 force_rescan", 0x4b0a2be70a3fefb9),
    ("grid m=1 r=1 loss=0.15", 0x84196bd488c2d3d5),
    ("grid m=1 r=1 loss=0.3", 0x6c4280d781c8b7b4),
    ("grid m=1 r=1 force_rescan", 0xd9628fa684d17831),
    ("grid m=1 r=2 loss=0.15", 0x3ce5faa158867566),
    ("grid m=1 r=2 loss=0.3", 0x2656782cb5e88423),
    ("grid m=1 r=2 force_rescan", 0xf8ac81082b90d7fa),
    ("grid m=3 r=1 loss=0.15", 0x06f1d00c2fe95268),
    ("grid m=3 r=1 loss=0.3", 0xff486573ec94d944),
    ("grid m=3 r=1 force_rescan", 0x1b594ff5ade1be79),
    ("grid m=3 r=2 loss=0.15", 0xdd420c0466c4416b),
    ("grid m=3 r=2 loss=0.3", 0xa315e4bf0206435d),
    ("grid m=3 r=2 force_rescan", 0x746df5521258369e),
    ("sparse-components m=1 r=1 loss=0.15", 0x06ff953d3b860914),
    ("sparse-components m=1 r=1 loss=0.3", 0xbadc78da93b9540e),
    ("sparse-components m=1 r=1 force_rescan", 0x269d63b1524ee588),
    ("sparse-components m=1 r=2 loss=0.15", 0x66cc6c45f5eb4ac6),
    ("sparse-components m=1 r=2 loss=0.3", 0x9cfc63a1359487c0),
    ("sparse-components m=1 r=2 force_rescan", 0xc28deaea23da0da9),
    ("sparse-components m=3 r=1 loss=0.15", 0xd483b53bac9e14d4),
    ("sparse-components m=3 r=1 loss=0.3", 0x019449d7e420fdb5),
    ("sparse-components m=3 r=1 force_rescan", 0x50b58a3ecd33ec45),
    ("sparse-components m=3 r=2 loss=0.15", 0x49337a608f9991b9),
    ("sparse-components m=3 r=2 loss=0.3", 0x374d23b40e7f7ab5),
    ("sparse-components m=3 r=2 force_rescan", 0xc8353492a2ca9b2b),
    ("caps 0 Some(1) exact", 0x0a81e5afbca3f6a0),
    ("caps 0 Some(1) greedy", 0xdf90b5ca265d96f5),
    ("caps 0 Some(1) auto6", 0x7bba3726e3886dc6),
    ("caps 0 Some(2) exact", 0x3aebf3cdc7ebc7e2),
    ("caps 0 Some(2) greedy", 0xc75a8ec5b36ae924),
    ("caps 0 Some(2) auto6", 0x6acbd185d299295a),
    ("caps 0 Some(4) exact", 0x32eade79e5424b83),
    ("caps 0 Some(4) greedy", 0x3790a2800e5b628f),
    ("caps 0 Some(4) auto6", 0x2dd70ad266940cb9),
    ("caps 0 None exact", 0x1747ad93aacb4ae8),
    ("caps 0 None greedy", 0xb5c09253e711b3f4),
    ("caps 0 None auto6", 0x4c4990c09cc32cd4),
    ("caps 1 Some(1) exact", 0x7d27d461d5f3ece4),
    ("caps 1 Some(1) greedy", 0x3623bddc77965333),
    ("caps 1 Some(1) auto6", 0x3623bddc77965333),
    ("caps 1 Some(2) exact", 0x87bd9133af290eb6),
    ("caps 1 Some(2) greedy", 0x5397d889da2c9d5c),
    ("caps 1 Some(2) auto6", 0x28f4869080466fcc),
    ("caps 1 Some(4) exact", 0xcd64ddf70535076d),
    ("caps 1 Some(4) greedy", 0x48aa63ad76c23407),
    ("caps 1 Some(4) auto6", 0x48aa63ad76c23407),
    ("caps 1 None exact", 0x434de8268b4dd31b),
    ("caps 1 None greedy", 0xc973438e4f79ace2),
    ("caps 1 None auto6", 0xb6e77fc9feabc131),
];

#[test]
fn decide_parity_lossy_golden() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, build) in topology_zoo() {
        let g = build(4242);
        for &m in &[1usize, 3] {
            let h = ExtendedConflictGraph::new(&g, m);
            for &r in &[1usize, 2] {
                let base = DistributedPtasConfig::default()
                    .with_r(r)
                    .with_max_minirounds(None);
                for &loss in &[0.15, 0.3] {
                    let cfg = base.with_loss_spec(LossSpec::lossy(loss, 31 + r as u64));
                    got.push((
                        format!("{name} m={m} r={r} loss={loss}"),
                        decision_digest(&h, cfg, 5 + m as u64, DistributedPtas::decide_into),
                    ));
                }
                got.push((
                    format!("{name} m={m} r={r} force_rescan"),
                    decision_digest(&h, base, 5 + m as u64, DistributedPtas::decide_into_rescan),
                ));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(78);
    for instance in 0..2u64 {
        let (g, _) = mhca::graph::unit_disk::random_with_average_degree(30, 4.5, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        for &cap in &[Some(1), Some(2), Some(4), None] {
            for (solver_name, solver) in [
                ("exact", LocalSolver::Exact),
                ("greedy", LocalSolver::Greedy),
                (
                    "auto6",
                    LocalSolver::Auto {
                        max_exact_groups: 6,
                    },
                ),
            ] {
                let cfg = DistributedPtasConfig::default()
                    .with_r(2)
                    .with_max_minirounds(cap)
                    .with_local_solver(solver)
                    .with_loss_spec(LossSpec::lossy(0.2, 90 + instance));
                got.push((
                    format!("caps {instance} {cap:?} {solver_name}"),
                    decision_digest(&h, cfg, 60 + instance, DistributedPtas::decide_into),
                ));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(label, d)| format!("    ({label:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), LOSSY_GOLDEN.len(), "golden table:\n{table}");
    for ((label, d), (want_label, want)) in got.iter().zip(LOSSY_GOLDEN) {
        assert_eq!(label, want_label, "golden table:\n{table}");
        assert_eq!(d, want, "{label}: digest changed; golden table:\n{table}");
    }
}
