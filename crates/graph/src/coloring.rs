//! Greedy graph coloring.
//!
//! Section III of the paper remarks that "the independence number of `H`
//! is less than `N` if the chromatic number of `G` is greater than `M`,
//! and is `N` otherwise": with enough channels to properly color the
//! conflict graph, every user can transmit simultaneously. A greedy
//! coloring gives a cheap upper bound on the chromatic number, which the
//! tests use to verify that remark on concrete instances.

use crate::graph::Graph;

/// A proper vertex coloring: `color[v]` for every vertex, colors `0..k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Color assigned to each vertex.
    pub color: Vec<usize>,
    /// Number of distinct colors used.
    pub colors_used: usize,
}

impl Coloring {
    /// Vertices of one color class (an independent set).
    pub fn class(&self, c: usize) -> Vec<usize> {
        (0..self.color.len())
            .filter(|&v| self.color[v] == c)
            .collect()
    }
}

/// Greedy coloring in the given vertex order: each vertex takes the
/// smallest color unused by its already-colored neighbors.
///
/// Uses at most `Δ + 1` colors.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..n`.
pub fn greedy_in_order(graph: &Graph, order: &[usize]) -> Coloring {
    let n = graph.n();
    assert_eq!(order.len(), n, "order must cover all vertices");
    let mut seen = vec![false; n];
    for &v in order {
        assert!(v < n && !seen[v], "order must be a permutation");
        seen[v] = true;
    }
    let mut color = vec![usize::MAX; n];
    let mut used = 0;
    let mut forbidden = vec![usize::MAX; n + 1]; // stamped by vertex
    for &v in order {
        for &u in graph.neighbors(v) {
            if color[u] != usize::MAX {
                forbidden[color[u]] = v;
            }
        }
        let c = (0..).find(|&c| forbidden[c] != v).expect("some color free");
        color[v] = c;
        used = used.max(c + 1);
    }
    Coloring {
        color,
        colors_used: used,
    }
}

/// Greedy coloring in descending-degree order (Welsh–Powell) — usually
/// fewer colors than arbitrary order.
pub fn welsh_powell(graph: &Graph) -> Coloring {
    let mut order: Vec<usize> = (0..graph.n()).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    greedy_in_order(graph, &order)
}

/// `true` if `coloring` is proper for `graph`.
pub fn is_proper(graph: &Graph, coloring: &Coloring) -> bool {
    graph
        .edges()
        .all(|(u, v)| coloring.color[u] != coloring.color[v])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, ExtendedConflictGraph};

    #[test]
    fn empty_graph_needs_one_color() {
        let g = topology::independent(4);
        let c = welsh_powell(&g);
        assert_eq!(c.colors_used, 1);
        assert!(is_proper(&g, &c));
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let g = topology::complete(5);
        let c = welsh_powell(&g);
        assert_eq!(c.colors_used, 5);
        assert!(is_proper(&g, &c));
    }

    #[test]
    fn path_needs_two_colors() {
        let g = topology::line(7);
        let c = welsh_powell(&g);
        assert_eq!(c.colors_used, 2);
        assert!(is_proper(&g, &c));
    }

    #[test]
    fn odd_cycle_needs_three() {
        let g = topology::ring(5);
        let c = welsh_powell(&g);
        assert_eq!(c.colors_used, 3);
        assert!(is_proper(&g, &c));
    }

    #[test]
    fn color_classes_are_independent() {
        let g = topology::grid(4, 5);
        let c = welsh_powell(&g);
        assert!(is_proper(&g, &c));
        for cls in 0..c.colors_used {
            assert!(g.is_independent(&c.class(cls)));
        }
    }

    #[test]
    fn never_more_than_max_degree_plus_one() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let n = rng.gen_range(1..40);
            let mut g = Graph::builder(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen::<f64>() < 0.2 {
                        g.add_edge(u, v);
                    }
                }
            }
            let g = g.build();
            let c = welsh_powell(&g);
            assert!(is_proper(&g, &c));
            assert!(c.colors_used <= g.max_degree() + 1);
        }
    }

    #[test]
    fn paper_remark_chromatic_vs_independence_number() {
        // Section III: if χ(G) ≤ M, the independence number of H is N —
        // a proper M-coloring of G gives every node a conflict-free
        // channel. Verify constructively on a grid (χ = 2).
        let g = topology::grid(3, 3);
        let coloring = welsh_powell(&g);
        assert!(coloring.colors_used <= 2);
        let m = coloring.colors_used;
        let h = ExtendedConflictGraph::new(&g, m);
        // Assign each node the channel equal to its color: this is an IS
        // of H with N vertices.
        let is_: Vec<usize> = (0..g.n()).map(|v| v * m + coloring.color[v]).collect();
        assert!(h.graph().is_independent(&is_));
        assert_eq!(is_.len(), g.n());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_rejected() {
        let g = topology::line(3);
        let _ = greedy_in_order(&g, &[0, 0, 1]);
    }
}
