//! A warm solver scratch must behave exactly like a fresh one.
//!
//! `exact::Workspace` and `greedy::Scratch` restore only the entries a
//! call wrote instead of wiping their `n`-long maps, so stale state from
//! an earlier call must never leak into a later one. Each check here runs
//! one long-lived scratch over a random sequence of subsets — growing,
//! shrinking, empty, all non-positive weight, and across graph-size
//! changes — against a fresh scratch per call.

use mhca_graph::{unit_disk, ExtendedConflictGraph, Graph};
use mhca_mwis::{exact, greedy};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One instance: the graph, per-vertex weights (some non-positive), and
/// the clique groups of `H` (vertices of one master node).
struct Instance {
    graph: Graph,
    weights: Vec<f64>,
    groups: Vec<usize>,
}

fn instance(rng: &mut StdRng, nodes: usize, m: usize) -> Instance {
    let (g, _) = unit_disk::random_with_average_degree(nodes, 3.0, rng);
    let h = ExtendedConflictGraph::new(&g, m);
    let n = h.n_vertices();
    let weights = (0..n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                -rng.gen_range(0.0..1.0)
            } else {
                rng.gen_range(0.0..1.0)
            }
        })
        .collect();
    Instance {
        graph: h.graph().clone(),
        weights,
        groups: (0..n).map(|v| v / m).collect(),
    }
}

/// The subset sequence: random sizes that grow and shrink, the empty
/// set, the whole graph, and a subset of only non-positive weights.
fn subsets(rng: &mut StdRng, inst: &Instance, calls: usize) -> Vec<Vec<usize>> {
    let n = inst.graph.n();
    let mut all: Vec<usize> = (0..n).collect();
    let non_positive: Vec<usize> = (0..n).filter(|&v| inst.weights[v] <= 0.0).collect();
    let mut out = vec![Vec::new(), all.clone(), non_positive.clone()];
    for i in 0..calls {
        let size = match i % 4 {
            0 => rng.gen_range(0..=n.min(6)),
            1 => rng.gen_range(0..=n.min(14)),
            2 => rng.gen_range(0..=n.min(24)),
            _ => 0,
        };
        for j in (1..n).rev() {
            all.swap(j, rng.gen_range(0..=j));
        }
        out.push(all[..size].to_vec());
        if i % 7 == 3 {
            out.push(non_positive.clone());
        }
    }
    out
}

#[test]
fn warm_exact_workspace_matches_a_fresh_one_per_call() {
    let mut rng = StdRng::seed_from_u64(2026);
    let mut warm = exact::Workspace::new();
    let mut out = Vec::new();
    // Graph sizes change between rounds, so the warm workspace is resized
    // with entries of the previous graph's calls behind it.
    for &(nodes, m) in &[(12, 2), (30, 2), (8, 3), (30, 2), (20, 1)] {
        let inst = instance(&mut rng, nodes, m);
        for (call, allowed) in subsets(&mut rng, &inst, 40).iter().enumerate() {
            for groups in [&inst.groups, &(0..inst.graph.n()).collect::<Vec<_>>()] {
                let fresh = exact::solve_grouped(&inst.graph, &inst.weights, allowed, groups);
                let weight =
                    warm.solve_grouped_into(&inst.graph, &inst.weights, allowed, groups, &mut out);
                assert_eq!(out, fresh.vertices, "n={nodes} call {call}: {allowed:?}");
                assert_eq!(weight, fresh.weight, "n={nodes} call {call}");
            }
        }
    }
}

#[test]
fn warm_greedy_scratch_matches_a_fresh_one_per_call() {
    let mut rng = StdRng::seed_from_u64(2027);
    let mut warm = greedy::Scratch::default();
    let mut out = Vec::new();
    for &(nodes, m) in &[(12, 2), (60, 2), (8, 3), (60, 2), (25, 1)] {
        let inst = instance(&mut rng, nodes, m);
        for (call, allowed) in subsets(&mut rng, &inst, 40).iter().enumerate() {
            let fresh = greedy::max_weight_subset(&inst.graph, &inst.weights, allowed);
            let weight = greedy::max_weight_subset_into(
                &inst.graph,
                &inst.weights,
                allowed,
                &mut warm,
                &mut out,
            );
            assert_eq!(out, fresh.vertices, "n={nodes} call {call}: {allowed:?}");
            assert_eq!(weight, fresh.weight, "n={nodes} call {call}");
        }
    }
}

#[test]
fn exact_workspace_recovers_after_a_rejected_call() {
    // A duplicate vertex panics part-way through marking `allowed`; the
    // marks it left must not turn the next call's valid input into a
    // spurious "duplicate".
    let g = mhca_graph::topology::line(4);
    let w = [1.0, 2.0, 3.0, 4.0];
    let groups = [0, 1, 2, 3];
    let mut ws = exact::Workspace::new();
    let mut out = Vec::new();
    let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ws.solve_grouped_into(&g, &w, &[1, 2, 1], &groups, &mut out)
    }));
    assert!(rejected.is_err());
    let weight = ws.solve_grouped_into(&g, &w, &[0, 1, 2, 3], &groups, &mut out);
    assert_eq!(out, vec![1, 3]);
    assert_eq!(weight, 6.0);
}
