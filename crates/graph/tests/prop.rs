//! Property-based tests for the graph substrate.

use mhca_graph::{BallScan, ExtendedConflictGraph, Graph, NodeId, Strategy as ChannelStrategy};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    arb_edge_list(max_n).prop_map(|(n, edges)| {
        let mut g = Graph::builder(n);
        for &(u, v) in &edges {
            if u != v {
                g.add_edge(u, v);
            }
        }
        g.build()
    })
}

/// Raw `(n, edge list)` pairs, so the same input can drive both the CSR
/// graph and the naive reference model.
fn arb_edge_list(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..n * 3).prop_map(move |edges| (n, edges))
    })
}

/// Reference model: a dense adjacency matrix with O(1) edge updates —
/// trivially correct, structurally unlike CSR.
struct MatrixGraph {
    n: usize,
    adj: Vec<Vec<bool>>,
}

impl MatrixGraph {
    fn new(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj = vec![vec![false; n]; n];
        for &(u, v) in edges {
            if u != v {
                adj[u][v] = true;
                adj[v][u] = true;
            }
        }
        MatrixGraph { n, adj }
    }

    fn edge_count(&self) -> usize {
        (0..self.n)
            .map(|u| (u + 1..self.n).filter(|&v| self.adj[u][v]).count())
            .sum()
    }

    fn neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.n).filter(|&u| self.adj[v][u]).collect()
    }

    /// Plain BFS distances straight off the matrix.
    fn bfs(&self, src: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.n];
        dist[src] = Some(0);
        let mut frontier = vec![src];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                let du = dist[u].unwrap();
                for (w, &edge) in self.adj[u].iter().enumerate() {
                    if edge && dist[w].is_none() {
                        dist[w] = Some(du + 1);
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut comps = Vec::new();
        for s in 0..self.n {
            if seen[s] {
                continue;
            }
            let mut comp: Vec<usize> = self
                .bfs(s)
                .iter()
                .enumerate()
                .filter_map(|(v, d)| d.map(|_| v))
                .filter(|&v| !seen[v])
                .collect();
            for &v in &comp {
                seen[v] = true;
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_agrees_with_adjacency_matrix_model((n, edges) in arb_edge_list(16)) {
        let mut b = Graph::builder(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        let m = MatrixGraph::new(n, &edges);
        prop_assert_eq!(g.n(), m.n);
        prop_assert_eq!(g.edge_count(), m.edge_count());
        for v in 0..n {
            prop_assert_eq!(g.neighbors(v), m.neighbors(v).as_slice(), "neighbors of {}", v);
            prop_assert_eq!(g.degree(v), m.neighbors(v).len());
        }
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(g.has_edge(u, v), m.adj[u][v], "edge {}-{}", u, v);
            }
        }
    }

    #[test]
    fn csr_distances_match_matrix_bfs((n, edges) in arb_edge_list(14)) {
        let g = Graph::from_edges(n, &edges.iter().copied().filter(|&(u, v)| u != v).collect::<Vec<_>>());
        let m = MatrixGraph::new(n, &edges);
        for src in 0..n {
            let expect = m.bfs(src);
            prop_assert_eq!(g.bfs_distances(src), expect.clone());
            for (v, d) in expect.iter().enumerate() {
                prop_assert_eq!(g.hop_distance(src, v), *d);
            }
            // r-hop neighborhoods follow from the distances.
            for r in 0..4 {
                let ball = g.r_hop_neighborhood(src, r);
                let expect_ball: Vec<usize> = (0..n)
                    .filter(|&v| expect[v].is_some_and(|d| d <= r))
                    .collect();
                prop_assert_eq!(ball, expect_ball, "src={} r={}", src, r);
            }
        }
    }

    #[test]
    fn csr_components_match_matrix_model((n, edges) in arb_edge_list(16)) {
        let g = Graph::from_edges(n, &edges.iter().copied().filter(|&(u, v)| u != v).collect::<Vec<_>>());
        let m = MatrixGraph::new(n, &edges);
        prop_assert_eq!(g.connected_components(), m.components());
    }

    #[test]
    fn ball_scan_matches_fresh_bfs(g in arb_graph(16), r in 0usize..5) {
        // One scratch for every origin, as the per-vertex tables use it.
        let mut scan = BallScan::default();
        for v in 0..g.n() {
            let dist = g.bfs_distances(v);
            let mut expect: Vec<(u32, u32)> = dist
                .iter()
                .enumerate()
                .filter_map(|(u, d)| {
                    d.filter(|&d| d >= 1 && d <= r).map(|d| (u as u32, d as u32))
                })
                .collect();
            expect.sort_unstable();
            let mut got = Vec::new();
            scan.for_each(&g, v, r, |w, d| got.push((w as u32, d)));
            // Members arrive in BFS (distance) order; check that first.
            prop_assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "v={}", v);
            got.sort_unstable();
            prop_assert_eq!(got, expect, "v={} r={}", v, r);
        }
    }

    #[test]
    fn r_hop_neighborhood_matches_bfs_distances(g in arb_graph(20), r in 0usize..5) {
        for v in 0..g.n() {
            let ball = g.r_hop_neighborhood(v, r);
            let dist = g.bfs_distances(v);
            for (u, du) in dist.iter().enumerate() {
                let in_ball = ball.binary_search(&u).is_ok();
                let close = du.is_some_and(|d| d <= r);
                prop_assert_eq!(in_ball, close, "v={} u={} r={}", v, u, r);
            }
        }
    }

    #[test]
    fn hop_distance_is_symmetric_and_triangular(g in arb_graph(12)) {
        let n = g.n();
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(g.hop_distance(u, v), g.hop_distance(v, u));
            }
        }
        // Triangle inequality where defined.
        for u in 0..n {
            for v in 0..n {
                for w in 0..n {
                    if let (Some(a), Some(b), Some(c)) =
                        (g.hop_distance(u, v), g.hop_distance(v, w), g.hop_distance(u, w))
                    {
                        prop_assert!(c <= a + b);
                    }
                }
            }
        }
    }

    #[test]
    fn components_partition_the_vertex_set(g in arb_graph(20)) {
        let comps = g.connected_components();
        let mut seen = vec![false; g.n()];
        for comp in &comps {
            for &v in comp {
                prop_assert!(!seen[v], "vertex {} in two components", v);
                seen[v] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
        // No edges between components.
        for (i, a) in comps.iter().enumerate() {
            for b in comps.iter().skip(i + 1) {
                for &u in a {
                    for &v in b {
                        prop_assert!(!g.has_edge(u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn induced_subgraph_preserves_adjacency(g in arb_graph(15)) {
        // Take every other vertex.
        let verts: Vec<usize> = (0..g.n()).step_by(2).collect();
        let (sub, map) = g.induced_subgraph(&verts);
        for i in 0..sub.n() {
            for j in 0..sub.n() {
                prop_assert_eq!(sub.has_edge(i, j), g.has_edge(map[i], map[j]));
            }
        }
    }

    #[test]
    fn h_has_exactly_the_right_edges(g in arb_graph(8), m in 1usize..4) {
        let h = ExtendedConflictGraph::new(&g, m);
        let hg = h.graph();
        prop_assert_eq!(h.n_vertices(), g.n() * m);
        // Edge count: one clique per node + M edges per G-edge.
        let expect = g.n() * m * (m - 1) / 2 + g.edge_count() * m;
        prop_assert_eq!(hg.edge_count(), expect);
        // Structure check vertex by vertex.
        for a in 0..h.n_vertices() {
            for b in (a + 1)..h.n_vertices() {
                let (na, ca) = (a / m, a % m);
                let (nb, cb) = (b / m, b % m);
                let should = (na == nb) || (ca == cb && g.has_edge(na, nb));
                prop_assert_eq!(hg.has_edge(a, b), should, "a={} b={}", a, b);
            }
        }
    }

    #[test]
    fn independent_sets_of_h_are_feasible_strategies(g in arb_graph(8), m in 1usize..4, mask in any::<u64>()) {
        let h = ExtendedConflictGraph::new(&g, m);
        // Build a random vertex subset; keep it independent greedily.
        let mut set = Vec::new();
        for v in 0..h.n_vertices() {
            if mask >> (v % 64) & 1 == 1
                && set.iter().all(|&u| !h.graph().has_edge(u, v))
            {
                set.push(v);
            }
        }
        let s = h.strategy_from_is(&set);
        prop_assert!(h.is_feasible(&s));
        prop_assert_eq!(s.assigned_count(), set.len());
        prop_assert_eq!(h.is_from_strategy(&s), set);
    }

    #[test]
    fn strategy_weight_matches_manual_sum(g in arb_graph(6), m in 1usize..3) {
        let h = ExtendedConflictGraph::new(&g, m);
        let w: Vec<f64> = (0..h.n_vertices()).map(|v| v as f64 + 0.5).collect();
        // Assign node 0 its channel 0 (always feasible alone).
        let mut s = ChannelStrategy::new(g.n());
        s.assign(NodeId(0), mhca_graph::ChannelId(0));
        prop_assert_eq!(h.strategy_weight(&s, &w), 0.5);
    }
}
