//! `local_search::solve_subset` and the `LocalSearch` decide pinned to
//! recorded digests.
//!
//! The solver runs over the `r`-balls of `H` — the sets a LocalLeader
//! hands it — for every topology family of the shared zoo, both channel
//! counts, `r ∈ {1, 2}` and several pass budgets. Every seventh weight is
//! zero, so the solver's non-positive-weight filter is pinned too, and
//! each ball is also passed reversed with a repeated member, so the
//! result must not depend on the order or multiplicity of `allowed`.

use mhca::core::{DecisionOutcome, DistributedPtas, DistributedPtasConfig, LocalSolver};
use mhca::graph::{BallScan, ExtendedConflictGraph};
use mhca::mwis::local_search;
use mhca::sim::LossSpec;
use mhca_specgen::support::{random_weights, topology_zoo};
use rand::{rngs::StdRng, SeedableRng};

/// FNV-1a 64-bit over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn solve_subset_digest(h: &ExtendedConflictGraph, r: usize, passes: usize, seed: u64) -> u64 {
    let g = h.graph();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = random_weights(h, &mut rng);
    for x in w.iter_mut().step_by(7) {
        *x = 0.0;
    }
    let mut scan = BallScan::default();
    let mut hash = FNV_OFFSET;
    for v in 0..g.n() {
        let mut ball = vec![v];
        scan.for_each(g, v, r, |u, _| ball.push(u));
        ball.sort_unstable();
        let mut shuffled: Vec<usize> = ball.iter().rev().copied().collect();
        shuffled.push(ball[0]);
        for allowed in [&ball, &shuffled] {
            let s = local_search::solve_subset(g, &w, allowed, passes);
            for &u in &s.vertices {
                hash = fnv1a(hash, &(u as u64).to_le_bytes());
            }
            hash = fnv1a(hash, &s.weight.to_bits().to_le_bytes());
        }
    }
    hash
}

const SOLVE_SUBSET_GOLDEN: &[(&str, u64)] = &[
    ("unit-disk-sparse m=1 r=1 passes=0", 0xfcfc8599cf5f1a21),
    ("unit-disk-sparse m=1 r=1 passes=1", 0xfcfc8599cf5f1a21),
    ("unit-disk-sparse m=1 r=1 passes=3", 0xfcfc8599cf5f1a21),
    ("unit-disk-sparse m=1 r=1 passes=20", 0xfcfc8599cf5f1a21),
    ("unit-disk-sparse m=1 r=2 passes=0", 0xe521506c958670e9),
    ("unit-disk-sparse m=1 r=2 passes=1", 0xe521506c958670e9),
    ("unit-disk-sparse m=1 r=2 passes=3", 0xe521506c958670e9),
    ("unit-disk-sparse m=1 r=2 passes=20", 0xe521506c958670e9),
    ("unit-disk-sparse m=3 r=1 passes=0", 0xeed1209ccf0e3d15),
    ("unit-disk-sparse m=3 r=1 passes=1", 0xc68b44a2e8adfbd5),
    ("unit-disk-sparse m=3 r=1 passes=3", 0x2b9dc6fb21735a19),
    ("unit-disk-sparse m=3 r=1 passes=20", 0x2b9dc6fb21735a19),
    ("unit-disk-sparse m=3 r=2 passes=0", 0x596610b9e627542d),
    ("unit-disk-sparse m=3 r=2 passes=1", 0xc3471f16288b16a5),
    ("unit-disk-sparse m=3 r=2 passes=3", 0xc3471f16288b16a5),
    ("unit-disk-sparse m=3 r=2 passes=20", 0xc3471f16288b16a5),
    ("unit-disk-dense m=1 r=1 passes=0", 0x29fa3d4cc327be5d),
    ("unit-disk-dense m=1 r=1 passes=1", 0xf1599f8b3a31395d),
    ("unit-disk-dense m=1 r=1 passes=3", 0xf1599f8b3a31395d),
    ("unit-disk-dense m=1 r=1 passes=20", 0xf1599f8b3a31395d),
    ("unit-disk-dense m=1 r=2 passes=0", 0x6de62d21f7ea5b55),
    ("unit-disk-dense m=1 r=2 passes=1", 0x602027ef7791000d),
    ("unit-disk-dense m=1 r=2 passes=3", 0x602027ef7791000d),
    ("unit-disk-dense m=1 r=2 passes=20", 0x602027ef7791000d),
    ("unit-disk-dense m=3 r=1 passes=0", 0x0d7fa7dbb6c3047d),
    ("unit-disk-dense m=3 r=1 passes=1", 0xddfb637e28c6c529),
    ("unit-disk-dense m=3 r=1 passes=3", 0xf35961e13709f8bd),
    ("unit-disk-dense m=3 r=1 passes=20", 0xf35961e13709f8bd),
    ("unit-disk-dense m=3 r=2 passes=0", 0x041c971a4d41f591),
    ("unit-disk-dense m=3 r=2 passes=1", 0x975c9a61bce1cdc5),
    ("unit-disk-dense m=3 r=2 passes=3", 0x8a1451b7cbedd2b1),
    ("unit-disk-dense m=3 r=2 passes=20", 0x8a1451b7cbedd2b1),
    ("unit-disk-mid m=1 r=1 passes=0", 0x48d8791a07141a59),
    ("unit-disk-mid m=1 r=1 passes=1", 0x18126468dcdceddd),
    ("unit-disk-mid m=1 r=1 passes=3", 0x18126468dcdceddd),
    ("unit-disk-mid m=1 r=1 passes=20", 0x18126468dcdceddd),
    ("unit-disk-mid m=1 r=2 passes=0", 0x11fa8003fc826069),
    ("unit-disk-mid m=1 r=2 passes=1", 0xb1419760441193e9),
    ("unit-disk-mid m=1 r=2 passes=3", 0xb1419760441193e9),
    ("unit-disk-mid m=1 r=2 passes=20", 0xb1419760441193e9),
    ("unit-disk-mid m=3 r=1 passes=0", 0xfab8a4f779c4ea65),
    ("unit-disk-mid m=3 r=1 passes=1", 0x1e4540de51d390a9),
    ("unit-disk-mid m=3 r=1 passes=3", 0xe65011a9194540f1),
    ("unit-disk-mid m=3 r=1 passes=20", 0xe65011a9194540f1),
    ("unit-disk-mid m=3 r=2 passes=0", 0x9dbf0490345edf7d),
    ("unit-disk-mid m=3 r=2 passes=1", 0x3721c6661bc5cf81),
    ("unit-disk-mid m=3 r=2 passes=3", 0xe18c7017d87cb849),
    ("unit-disk-mid m=3 r=2 passes=20", 0xe18c7017d87cb849),
    ("line m=1 r=1 passes=0", 0x46966e99857593c9),
    ("line m=1 r=1 passes=1", 0x46966e99857593c9),
    ("line m=1 r=1 passes=3", 0x46966e99857593c9),
    ("line m=1 r=1 passes=20", 0x46966e99857593c9),
    ("line m=1 r=2 passes=0", 0x25e658d73c348821),
    ("line m=1 r=2 passes=1", 0x25e658d73c348821),
    ("line m=1 r=2 passes=3", 0x25e658d73c348821),
    ("line m=1 r=2 passes=20", 0x25e658d73c348821),
    ("line m=3 r=1 passes=0", 0xde0760553690cb1d),
    ("line m=3 r=1 passes=1", 0x99648dae5de9ea41),
    ("line m=3 r=1 passes=3", 0xf6deefb552d985dd),
    ("line m=3 r=1 passes=20", 0xf6deefb552d985dd),
    ("line m=3 r=2 passes=0", 0x3403ad2452114519),
    ("line m=3 r=2 passes=1", 0x706d3f8f38d0d7a1),
    ("line m=3 r=2 passes=3", 0x63cc27fe53d26f3d),
    ("line m=3 r=2 passes=20", 0x63cc27fe53d26f3d),
    ("ring m=1 r=1 passes=0", 0xf166a049fe151385),
    ("ring m=1 r=1 passes=1", 0xf166a049fe151385),
    ("ring m=1 r=1 passes=3", 0xf166a049fe151385),
    ("ring m=1 r=1 passes=20", 0xf166a049fe151385),
    ("ring m=1 r=2 passes=0", 0x47886c4104490121),
    ("ring m=1 r=2 passes=1", 0x47886c4104490121),
    ("ring m=1 r=2 passes=3", 0x47886c4104490121),
    ("ring m=1 r=2 passes=20", 0x47886c4104490121),
    ("ring m=3 r=1 passes=0", 0x986d0690ddbb884d),
    ("ring m=3 r=1 passes=1", 0x266bc7769cf88ddd),
    ("ring m=3 r=1 passes=3", 0x3e449d665fd529f5),
    ("ring m=3 r=1 passes=20", 0x3e449d665fd529f5),
    ("ring m=3 r=2 passes=0", 0x63c5fc70a135f905),
    ("ring m=3 r=2 passes=1", 0xfa83a21ad0e0d045),
    ("ring m=3 r=2 passes=3", 0xdb6e736fb540bba5),
    ("ring m=3 r=2 passes=20", 0xdb6e736fb540bba5),
    ("grid m=1 r=1 passes=0", 0x4896c3fac52c75e5),
    ("grid m=1 r=1 passes=1", 0xdfb1f98918589cc9),
    ("grid m=1 r=1 passes=3", 0x915912aa031b05ed),
    ("grid m=1 r=1 passes=20", 0x915912aa031b05ed),
    ("grid m=1 r=2 passes=0", 0xc82f02626b6bef95),
    ("grid m=1 r=2 passes=1", 0xa312984599bbf879),
    ("grid m=1 r=2 passes=3", 0x640a351450c9dfed),
    ("grid m=1 r=2 passes=20", 0x640a351450c9dfed),
    ("grid m=3 r=1 passes=0", 0xf66b976174c55619),
    ("grid m=3 r=1 passes=1", 0x87e021882898ab81),
    ("grid m=3 r=1 passes=3", 0x71c5323c0d5127a5),
    ("grid m=3 r=1 passes=20", 0x71c5323c0d5127a5),
    ("grid m=3 r=2 passes=0", 0x65eb74e21cdf1b9d),
    ("grid m=3 r=2 passes=1", 0x7f83d13151fff0cd),
    ("grid m=3 r=2 passes=3", 0x99a869a784b1e411),
    ("grid m=3 r=2 passes=20", 0x99a869a784b1e411),
    ("sparse-components m=1 r=1 passes=0", 0xefab02f5fb4392fd),
    ("sparse-components m=1 r=1 passes=1", 0x7a7f396b5b5db6b1),
    ("sparse-components m=1 r=1 passes=3", 0x7a7f396b5b5db6b1),
    ("sparse-components m=1 r=1 passes=20", 0x7a7f396b5b5db6b1),
    ("sparse-components m=1 r=2 passes=0", 0x08dd2ef9fe3f4541),
    ("sparse-components m=1 r=2 passes=1", 0x1ba2ef918adedc05),
    ("sparse-components m=1 r=2 passes=3", 0x1ba2ef918adedc05),
    ("sparse-components m=1 r=2 passes=20", 0x1ba2ef918adedc05),
    ("sparse-components m=3 r=1 passes=0", 0xd58e863fb5908fd5),
    ("sparse-components m=3 r=1 passes=1", 0x89c5e1bf43bb31c5),
    ("sparse-components m=3 r=1 passes=3", 0x5e3f3916bb9963d9),
    ("sparse-components m=3 r=1 passes=20", 0x5e3f3916bb9963d9),
    ("sparse-components m=3 r=2 passes=0", 0xfedf562bf40843ed),
    ("sparse-components m=3 r=2 passes=1", 0x1a07a56d0056c279),
    ("sparse-components m=3 r=2 passes=3", 0x1a07a56d0056c279),
    ("sparse-components m=3 r=2 passes=20", 0x1a07a56d0056c279),
];

#[test]
fn local_search_solve_subset_golden() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, build) in topology_zoo() {
        let g = build(515);
        for &m in &[1usize, 3] {
            let h = ExtendedConflictGraph::new(&g, m);
            for &r in &[1usize, 2] {
                for &passes in &[0usize, 1, 3, 20] {
                    got.push((
                        format!("{name} m={m} r={r} passes={passes}"),
                        solve_subset_digest(&h, r, passes, 17 + m as u64),
                    ));
                }
            }
        }
    }
    let want: Vec<(String, u64)> = SOLVE_SUBSET_GOLDEN
        .iter()
        .map(|&(l, d)| (l.to_string(), d))
        .collect();
    assert_eq!(got, want, "solve_subset digests changed");
}

/// Digest of three fresh-weight `LocalSearch` decisions on one engine.
fn decide_digest(h: &ExtendedConflictGraph, cfg: DistributedPtasConfig, seed: u64) -> u64 {
    let mut ptas = DistributedPtas::new(h, cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = DecisionOutcome::default();
    let mut hash = FNV_OFFSET;
    for _ in 0..3 {
        let w = random_weights(h, &mut rng);
        ptas.decide_into(&w, &mut out);
        hash = fnv1a(hash, format!("{out:?}").as_bytes());
    }
    hash
}

const DECIDE_GOLDEN: &[(&str, u64)] = &[
    ("unit-disk-sparse r=1 passes=1 lossless", 0x3b3f571e2fbb63b8),
    ("unit-disk-sparse r=1 passes=1 loss=0.2", 0x4424330b6429b5dd),
    (
        "unit-disk-sparse r=1 passes=20 lossless",
        0x9ab4d0bf1bf66fef,
    ),
    (
        "unit-disk-sparse r=1 passes=20 loss=0.2",
        0xd3bbfbeae19751f9,
    ),
    ("unit-disk-sparse r=2 passes=1 lossless", 0xfb4d91776e0ac8d3),
    ("unit-disk-sparse r=2 passes=1 loss=0.2", 0x539bad14cc1ffd18),
    (
        "unit-disk-sparse r=2 passes=20 lossless",
        0xfb4d91776e0ac8d3,
    ),
    (
        "unit-disk-sparse r=2 passes=20 loss=0.2",
        0x539bad14cc1ffd18,
    ),
    ("unit-disk-dense r=1 passes=1 lossless", 0xd9b5c0783b8809c9),
    ("unit-disk-dense r=1 passes=1 loss=0.2", 0xc148a38e31a3a7fd),
    ("unit-disk-dense r=1 passes=20 lossless", 0x814117ed099fe362),
    ("unit-disk-dense r=1 passes=20 loss=0.2", 0x871d123263ac5524),
    ("unit-disk-dense r=2 passes=1 lossless", 0x48f56ec6edeb7cc5),
    ("unit-disk-dense r=2 passes=1 loss=0.2", 0xfeda92902ea352f6),
    ("unit-disk-dense r=2 passes=20 lossless", 0x48f56ec6edeb7cc5),
    ("unit-disk-dense r=2 passes=20 loss=0.2", 0xfeda92902ea352f6),
    ("unit-disk-mid r=1 passes=1 lossless", 0xdf059084d3617530),
    ("unit-disk-mid r=1 passes=1 loss=0.2", 0x295559d6c16329c4),
    ("unit-disk-mid r=1 passes=20 lossless", 0xf6c8a36773724b8d),
    ("unit-disk-mid r=1 passes=20 loss=0.2", 0x893656e6b65248e1),
    ("unit-disk-mid r=2 passes=1 lossless", 0x8cb02a9f40b0a165),
    ("unit-disk-mid r=2 passes=1 loss=0.2", 0xb8b4c074d622ddd0),
    ("unit-disk-mid r=2 passes=20 lossless", 0x8cb02a9f40b0a165),
    ("unit-disk-mid r=2 passes=20 loss=0.2", 0xb8b4c074d622ddd0),
    ("line r=1 passes=1 lossless", 0x12027b17c005e360),
    ("line r=1 passes=1 loss=0.2", 0x5d4ec0d945771fac),
    ("line r=1 passes=20 lossless", 0x75c980979875a1de),
    ("line r=1 passes=20 loss=0.2", 0x3496b198478aa8e4),
    ("line r=2 passes=1 lossless", 0xffc49079dbf47e45),
    ("line r=2 passes=1 loss=0.2", 0x4d6829614afb7b04),
    ("line r=2 passes=20 lossless", 0xffc49079dbf47e45),
    ("line r=2 passes=20 loss=0.2", 0x4d6829614afb7b04),
    ("ring r=1 passes=1 lossless", 0xa3a1cc67cbd1b4ae),
    ("ring r=1 passes=1 loss=0.2", 0x8024d8993bda4b1e),
    ("ring r=1 passes=20 lossless", 0xe15af72d4b60fe72),
    ("ring r=1 passes=20 loss=0.2", 0x3e595cf7f53d7b72),
    ("ring r=2 passes=1 lossless", 0x09b0fd68a100caf6),
    ("ring r=2 passes=1 loss=0.2", 0x611bf840d11cefbf),
    ("ring r=2 passes=20 lossless", 0x09b0fd68a100caf6),
    ("ring r=2 passes=20 loss=0.2", 0x611bf840d11cefbf),
    ("grid r=1 passes=1 lossless", 0x970cd06e2fd149ae),
    ("grid r=1 passes=1 loss=0.2", 0x4676eee277f6957a),
    ("grid r=1 passes=20 lossless", 0x5e5616538b109a2c),
    ("grid r=1 passes=20 loss=0.2", 0x404911e3049b1561),
    ("grid r=2 passes=1 lossless", 0x9f1ff489ea6a35ef),
    ("grid r=2 passes=1 loss=0.2", 0x75f123905c3b2ee0),
    ("grid r=2 passes=20 lossless", 0x9f1ff489ea6a35ef),
    ("grid r=2 passes=20 loss=0.2", 0x75f123905c3b2ee0),
    (
        "sparse-components r=1 passes=1 lossless",
        0x4bd9664934bb1921,
    ),
    (
        "sparse-components r=1 passes=1 loss=0.2",
        0xc4447f244a88d224,
    ),
    (
        "sparse-components r=1 passes=20 lossless",
        0xbf501a8d2af8357a,
    ),
    (
        "sparse-components r=1 passes=20 loss=0.2",
        0xd0ff90f677ef8bfc,
    ),
    (
        "sparse-components r=2 passes=1 lossless",
        0x85b906565c88e6cf,
    ),
    (
        "sparse-components r=2 passes=1 loss=0.2",
        0x0a7d2b539684e23f,
    ),
    (
        "sparse-components r=2 passes=20 lossless",
        0x85b906565c88e6cf,
    ),
    (
        "sparse-components r=2 passes=20 loss=0.2",
        0x0a7d2b539684e23f,
    ),
];

#[test]
fn local_search_decide_golden() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, build) in topology_zoo() {
        let g = build(616);
        let h = ExtendedConflictGraph::new(&g, 3);
        for &r in &[1usize, 2] {
            for &passes in &[1usize, 20] {
                let base = DistributedPtasConfig::default()
                    .with_r(r)
                    .with_max_minirounds(None)
                    .with_local_solver(LocalSolver::LocalSearch { max_passes: passes });
                for (mode, cfg) in [
                    ("lossless", base),
                    ("loss=0.2", base.with_loss_spec(LossSpec::lossy(0.2, 3))),
                ] {
                    got.push((
                        format!("{name} r={r} passes={passes} {mode}"),
                        decide_digest(&h, cfg, 9 + r as u64),
                    ));
                }
            }
        }
    }
    let want: Vec<(String, u64)> = DECIDE_GOLDEN
        .iter()
        .map(|&(l, d)| (l.to_string(), d))
        .collect();
    assert_eq!(got, want, "LocalSearch decide digests changed");
}
