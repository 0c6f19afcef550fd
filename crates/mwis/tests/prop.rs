//! Property-based tests for the MWIS solvers against subset-enumeration
//! brute force.

use mhca_graph::{ExtendedConflictGraph, Graph};
use mhca_mwis::{exact, greedy, robust_ptas, verify};
use proptest::prelude::*;

fn arb_weighted_graph(max_n: usize) -> impl Strategy<Value = (Graph, Vec<f64>)> {
    (1..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..n * 2);
        let weights = proptest::collection::vec(0.0f64..5.0, n..=n);
        (edges, weights).prop_map(move |(es, w)| {
            let mut g = Graph::builder(n);
            for (u, v) in es {
                if u != v {
                    g.add_edge(u, v);
                }
            }
            (g.build(), w)
        })
    })
}

fn brute_force(g: &Graph, w: &[f64]) -> f64 {
    let n = g.n();
    assert!(n <= 16);
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let set: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
        if g.is_independent(&set) {
            best = best.max(set.iter().map(|&v| w[v]).sum());
        }
    }
    best
}

/// `H` over a random graph of `nodes` master nodes and `m` channels,
/// with weights that tie (quarter steps) and include zero, `-0.0` and
/// negative values; at most 20 vertices.
fn arb_grouped_h() -> impl Strategy<Value = (Graph, Vec<f64>, usize)> {
    (1..=3usize).prop_flat_map(|m| {
        (1..=20 / m).prop_flat_map(move |nodes| {
            let n = nodes * m;
            let edges = proptest::collection::vec((0..nodes, 0..nodes), 0..nodes * 2);
            let weights = proptest::collection::vec(-2i32..=8, n..=n);
            (edges, weights).prop_map(move |(es, w)| {
                let mut g = Graph::builder(nodes);
                for (u, v) in es {
                    if u != v {
                        g.add_edge(u, v);
                    }
                }
                let h = ExtendedConflictGraph::new(&g.build(), m);
                let w = w
                    .into_iter()
                    .map(|x| match x {
                        -1 => -0.0,
                        x => f64::from(x) * 0.25,
                    })
                    .collect();
                (h.graph().clone(), w, m)
            })
        })
    })
}

/// Brute force by recursive enumeration of independent sets over
/// adjacency masks (n ≤ 20); fast enough for the 20-vertex inputs.
fn brute_force_masks(g: &Graph, w: &[f64]) -> f64 {
    fn go(v: usize, avail: u32, adj: &[u32], w: &[f64], acc: f64, best: &mut f64) {
        if v == adj.len() {
            *best = best.max(acc);
            return;
        }
        if avail >> v & 1 == 1 && w[v] > 0.0 {
            go(v + 1, avail & !adj[v], adj, w, acc + w[v], best);
        }
        go(v + 1, avail, adj, w, acc, best);
    }
    let n = g.n();
    assert!(n <= 20);
    let adj: Vec<u32> = (0..n)
        .map(|v| g.neighbors(v).iter().fold(0, |a, &u| a | 1 << u))
        .collect();
    let mut best = 0.0;
    go(0, (1 << n) - 1, &adj, w, 0.0, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exact_equals_brute_force((g, w) in arb_weighted_graph(12)) {
        let s = exact::solve(&g, &w);
        let bf = brute_force(&g, &w);
        prop_assert!((s.weight - bf).abs() < 1e-9, "bb {} vs brute {}", s.weight, bf);
        prop_assert!(g.is_independent(&s.vertices));
        prop_assert!((verify::weight_of(&w, &s.vertices) - s.weight).abs() < 1e-9);
    }

    #[test]
    fn grouped_with_singleton_groups_matches_plain((g, w) in arb_weighted_graph(10)) {
        let identity: Vec<usize> = (0..g.n()).collect();
        let allowed: Vec<usize> = (0..g.n()).collect();
        let a = exact::solve(&g, &w);
        let b = exact::solve_grouped(&g, &w, &allowed, &identity);
        prop_assert!((a.weight - b.weight).abs() < 1e-9);
    }

    #[test]
    fn grouped_on_h_equals_brute_force((g, w, m) in arb_grouped_h()) {
        let groups: Vec<usize> = (0..g.n()).map(|v| v / m).collect();
        let allowed: Vec<usize> = (0..g.n()).collect();
        let s = exact::solve_grouped(&g, &w, &allowed, &groups);
        let bf = brute_force_masks(&g, &w);
        prop_assert!((s.weight - bf).abs() < 1e-9, "bb {} vs brute {}", s.weight, bf);
        prop_assert!(g.is_independent(&s.vertices));
        prop_assert!(s.vertices.iter().all(|&v| w[v] > 0.0));
        let plain = exact::solve(&g, &w);
        prop_assert!((plain.weight - bf).abs() < 1e-9);
    }

    #[test]
    fn greedy_solvers_are_independent_and_bounded((g, w) in arb_weighted_graph(14)) {
        let opt = exact::solve(&g, &w);
        for s in [greedy::max_weight(&g, &w), greedy::weight_degree(&g, &w)] {
            prop_assert!(g.is_independent(&s.vertices));
            prop_assert!(s.weight <= opt.weight + 1e-9);
        }
        // Max-weight greedy (but not GWMIN, which may trade a heavy
        // high-degree vertex for light low-degree ones) is at least the
        // single heaviest vertex.
        let heaviest = w.iter().cloned().fold(0.0, f64::max);
        let mw = greedy::max_weight(&g, &w);
        prop_assert!(mw.weight >= heaviest - 1e-9);
        // GWMIN still satisfies its own Σ w/(deg+1) floor.
        let gw = greedy::weight_degree(&g, &w);
        let floor: f64 = (0..g.n()).map(|v| w[v] / (g.degree(v) + 1) as f64).sum();
        prop_assert!(gw.weight >= floor - 1e-9);
    }

    #[test]
    fn ptas_ratio_and_monotonicity((g, w) in arb_weighted_graph(10)) {
        let opt = exact::solve(&g, &w);
        let tight = robust_ptas::solve(&g, &w, &robust_ptas::Config::with_epsilon(0.1));
        let loose = robust_ptas::solve(&g, &w, &robust_ptas::Config::with_epsilon(2.0));
        prop_assert!(tight.weight * 1.1 >= opt.weight - 1e-9);
        prop_assert!(loose.weight * 3.0 >= opt.weight - 1e-9);
        prop_assert!(g.is_independent(&tight.vertices));
        prop_assert!(g.is_independent(&loose.vertices));
    }

    #[test]
    fn subset_solutions_stay_in_subset((g, w) in arb_weighted_graph(12)) {
        let allowed: Vec<usize> = (0..g.n()).filter(|v| v % 2 == 0).collect();
        let s = exact::solve_subset(&g, &w, &allowed);
        for &v in &s.vertices {
            prop_assert!(allowed.contains(&v));
        }
        let gr = greedy::max_weight_subset(&g, &w, &allowed);
        for &v in &gr.vertices {
            prop_assert!(allowed.contains(&v));
        }
        prop_assert!(gr.weight <= s.weight + 1e-9);
    }

    #[test]
    fn capped_ptas_is_never_worse_than_half_greedy((g, w) in arb_weighted_graph(12)) {
        let capped = robust_ptas::solve(&g, &w, &robust_ptas::Config::with_epsilon_and_max_r(0.5, 1));
        prop_assert!(g.is_independent(&capped.vertices));
        // r=0 pieces are single max-weight vertices; the union dominates
        // picking just the heaviest vertex.
        let heaviest = w.iter().cloned().fold(0.0, f64::max);
        prop_assert!(capped.weight >= heaviest - 1e-9);
    }
}
