//! Golden oracle for the exact grouped branch-and-bound: the vertex list
//! and weight bits of `exact::Workspace::solve_grouped_into` over
//! generated grouped instances, pinned to FNV-1a digests.
//!
//! The exact solver promises *an* optimum; which one it returns among
//! equal-weight optima depends on its member and group order, its DFS
//! order and its strict incumbent update. Callers (the LocalLeader
//! enumeration of Algorithm 3, the Fig. 7 ground truth) observe that
//! choice, so it is pinned here byte for byte. The instances cover:
//!
//! * `h` (positive-weight allowed vertices) at 1, 63, 64, 65, 128 and
//!   129 — both sides of each 64-bit word boundary;
//! * identity groups (every vertex alone) and the master-node groups of
//!   `H` at m ∈ {1, 3, 5};
//! * continuous weights and weights drawn from four levels, so members of
//!   one group and whole groups tie;
//! * allowed vertices of weight `0.0`, `-0.0` and negative, which never
//!   count toward `h`, in a shuffled allowed order;
//! * one warm workspace running every instance, alternating the largest
//!   and smallest remaining, against a fresh workspace per call.
//!
//! On a mismatch the test prints the whole current table, ready to paste
//! after an intended change.

use mhca_graph::{unit_disk, ExtendedConflictGraph, Graph};
use mhca_mwis::exact;
use rand::{rngs::StdRng, Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Digest of one solve: the returned vertices, then the weight's bits.
fn digest(hash: u64, vertices: &[usize], weight: f64) -> u64 {
    let hash = vertices
        .iter()
        .fold(hash, |h, &v| fnv1a(h, &(v as u64).to_le_bytes()));
    fnv1a(hash, &weight.to_bits().to_le_bytes())
}

/// How an instance's groups are drawn.
#[derive(Clone, Copy)]
enum Groups {
    /// Every vertex its own group.
    Identity,
    /// The master-node groups of `H`: vertex `v` is in group `v / m`.
    Master,
}

/// How positive weights are drawn.
#[derive(Clone, Copy)]
enum Weights {
    /// Uniform in `(0, 1)`.
    Continuous,
    /// One of four levels, so members and groups tie.
    Tied,
}

struct Instance {
    label: String,
    graph: Graph,
    weights: Vec<f64>,
    allowed: Vec<usize>,
    groups: Vec<usize>,
    h: usize,
}

/// An instance with `h` positive allowed vertices plus a few
/// non-positive allowed ones, the allowed list shuffled. Identity groups
/// run on a dense `G(n, 0.6)` graph; master groups on `H` over a
/// unit-disk graph, dense at m = 1 (where `H` is that graph and every
/// group a single vertex) and sparse above, so every instance stays a
/// fraction of a second in a debug build.
fn instance(seed: u64, h: usize, m: usize, groups: Groups, weights: Weights) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let extra = 3;
    let graph = match groups {
        Groups::Identity => {
            let n = h + extra;
            let mut g = Graph::builder(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.6) {
                        g.add_edge(u, v);
                    }
                }
            }
            g.build()
        }
        Groups::Master => {
            let nodes = (h + extra).div_ceil(m).max(4);
            let degree = if m == 1 { nodes as f64 * 0.9 } else { 1.2 };
            let (g, _) = unit_disk::random_with_average_degree(nodes, degree, &mut rng);
            ExtendedConflictGraph::new(&g, m).graph().clone()
        }
    };
    let n = graph.n();
    let mut order: Vec<usize> = (0..n).collect();
    for j in (1..n).rev() {
        order.swap(j, rng.gen_range(0..=j));
    }
    let mut w: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for &v in &order[..h] {
        w[v] = match weights {
            Weights::Continuous => rng.gen_range(0.01..1.0),
            Weights::Tied => f64::from(rng.gen_range(1..=4u32)) * 0.25,
        };
    }
    for (&v, x) in order[h..h + extra].iter().zip([0.0, -0.0, -0.5]) {
        w[v] = x;
    }
    let mut allowed = order[..h + extra].to_vec();
    for j in (1..allowed.len()).rev() {
        allowed.swap(j, rng.gen_range(0..=j));
    }
    let groups = match groups {
        Groups::Identity => (0..n).collect(),
        Groups::Master => (0..n).map(|v| v / m).collect(),
    };
    Instance {
        label: String::new(),
        graph,
        weights: w,
        allowed,
        groups,
        h,
    }
}

fn instances() -> Vec<Instance> {
    let mut out = Vec::new();
    let mut seed = 0;
    for h in [1, 63, 64, 65, 128, 129] {
        for (m, groups) in [
            (1, Groups::Identity),
            (1, Groups::Master),
            (3, Groups::Master),
            (5, Groups::Master),
        ] {
            for weights in [Weights::Continuous, Weights::Tied] {
                seed += 1;
                let mut inst = instance(seed, h, m, groups, weights);
                inst.label = format!(
                    "h={h} m={m} {} {}",
                    match groups {
                        Groups::Identity => "identity",
                        Groups::Master => "master",
                    },
                    match weights {
                        Weights::Continuous => "continuous",
                        Weights::Tied => "tied",
                    }
                );
                out.push(inst);
            }
        }
    }
    out
}

/// `(label, digest)` per instance, then the warm alternating sequence.
const GOLDEN: &[(&str, u64)] = &[
    ("h=1 m=1 identity continuous", 0x695413c63860cd03),
    ("h=1 m=1 identity tied", 0x25af904986cd3846),
    ("h=1 m=1 master continuous", 0x5aa31e6caf5169b5),
    ("h=1 m=1 master tied", 0xd97470817610d6b7),
    ("h=1 m=3 master continuous", 0x8c7bbd3036837b8e),
    ("h=1 m=3 master tied", 0x9eb00e8a205cdbee),
    ("h=1 m=5 master continuous", 0x58f944eb758762b2),
    ("h=1 m=5 master tied", 0x7206301197a13b0d),
    ("h=63 m=1 identity continuous", 0xa36d33be9984fa61),
    ("h=63 m=1 identity tied", 0xbf109c83e6f3efda),
    ("h=63 m=1 master continuous", 0x074c3a7b762b43ed),
    ("h=63 m=1 master tied", 0xf6881f002de71413),
    ("h=63 m=3 master continuous", 0x23b25be34aa9bd88),
    ("h=63 m=3 master tied", 0xdc17224ff346c629),
    ("h=63 m=5 master continuous", 0x29a5e5f75ec1344c),
    ("h=63 m=5 master tied", 0x23e2777f1026f6b9),
    ("h=64 m=1 identity continuous", 0xbff089d990302ba3),
    ("h=64 m=1 identity tied", 0xa83b1b5f4c291de1),
    ("h=64 m=1 master continuous", 0x862ca790b53c54dc),
    ("h=64 m=1 master tied", 0xbe525464969e5b82),
    ("h=64 m=3 master continuous", 0x4b62a4b495ec066f),
    ("h=64 m=3 master tied", 0x4dca82082bf066b7),
    ("h=64 m=5 master continuous", 0x3816acb7e38a72df),
    ("h=64 m=5 master tied", 0x2fb34b0949de6fd8),
    ("h=65 m=1 identity continuous", 0xab029efac9d19160),
    ("h=65 m=1 identity tied", 0xbce596527b19b8e4),
    ("h=65 m=1 master continuous", 0xea996d997a2bf3dc),
    ("h=65 m=1 master tied", 0x87023066167af003),
    ("h=65 m=3 master continuous", 0x330c9c86eb9eba75),
    ("h=65 m=3 master tied", 0x3d0b88fcf8522b13),
    ("h=65 m=5 master continuous", 0x268701b9d77d9147),
    ("h=65 m=5 master tied", 0x7d92f827ec62adbe),
    ("h=128 m=1 identity continuous", 0xb5e7a47c56679066),
    ("h=128 m=1 identity tied", 0x7116766a1a5ea348),
    ("h=128 m=1 master continuous", 0x49902b0333ca9294),
    ("h=128 m=1 master tied", 0xcb804aff99f09192),
    ("h=128 m=3 master continuous", 0xde2a1bd72232f3d9),
    ("h=128 m=3 master tied", 0x7a64d11226f9711f),
    ("h=128 m=5 master continuous", 0x180ab33145d6d651),
    ("h=128 m=5 master tied", 0x94f3c62c799713d3),
    ("h=129 m=1 identity continuous", 0x4762e3922d8e95f2),
    ("h=129 m=1 identity tied", 0x2c69754d6d8b009f),
    ("h=129 m=1 master continuous", 0xca02de17ed93da0b),
    ("h=129 m=1 master tied", 0xd1a03908ef51ba6b),
    ("h=129 m=3 master continuous", 0x6a52a8c05d91169c),
    ("h=129 m=3 master tied", 0x57658d85ade4831b),
    ("h=129 m=5 master continuous", 0xe8a46b3c201a8558),
    ("h=129 m=5 master tied", 0x902f71e95e1dd258),
    ("warm alternating", 0x017f95b378143059),
];

#[test]
fn exact_grouped_outcomes_match_golden() {
    let insts = instances();
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut out = Vec::new();
    for inst in &insts {
        let positive = inst
            .allowed
            .iter()
            .filter(|&&v| inst.weights[v] > 0.0)
            .count();
        assert_eq!(positive, inst.h, "{}", inst.label);
        let weight = exact::Workspace::new().solve_grouped_into(
            &inst.graph,
            &inst.weights,
            &inst.allowed,
            &inst.groups,
            &mut out,
        );
        assert!(inst.graph.is_independent(&out), "{}", inst.label);
        got.push((inst.label.clone(), digest(FNV_OFFSET, &out, weight)));
    }

    // One warm workspace: largest, smallest, next largest, next smallest…
    let mut by_h: Vec<usize> = (0..insts.len()).collect();
    by_h.sort_by_key(|&i| insts[i].h);
    let (mut lo, mut hi) = (0, by_h.len());
    let mut warm = exact::Workspace::new();
    let mut hash = FNV_OFFSET;
    while lo < hi {
        hi -= 1;
        let mut next = vec![by_h[hi]];
        if lo < hi {
            next.push(by_h[lo]);
            lo += 1;
        }
        for i in next {
            let inst = &insts[i];
            let weight = warm.solve_grouped_into(
                &inst.graph,
                &inst.weights,
                &inst.allowed,
                &inst.groups,
                &mut out,
            );
            let one = digest(FNV_OFFSET, &out, weight);
            assert_eq!(one, got[i].1, "warm vs fresh: {}", inst.label);
            hash = digest(hash, &out, weight);
        }
    }
    got.push(("warm alternating".to_string(), hash));

    let table: String = got
        .iter()
        .map(|(label, d)| format!("    ({label:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for ((label, d), (want_label, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(label, want_label, "golden table:\n{table}");
        assert_eq!(d, want, "{label}: digest changed; golden table:\n{table}");
    }
}
