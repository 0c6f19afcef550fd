//! Deterministic conflict-graph topologies.
//!
//! These serve as regression workloads: [`line()`](fn@line) is the Fig. 5 worst case
//! where, with strictly decreasing weights along the line, the distributed
//! strategy decision needs `Θ(N)` mini-rounds; the others cover standard
//! shapes used in tests and ablation benches.

use crate::graph::{Graph, GraphBuilder};
use crate::unit_disk::{self, Layout};

/// Path (linear network) on `n` vertices: `0 — 1 — … — n−1`.
///
/// This is the worst-case topology of Fig. 5 in the paper.
pub fn line(n: usize) -> Graph {
    let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    Graph::from_edges(n, &edges)
}

/// Cycle on `n` vertices (`n ≥ 3` gives a proper ring; smaller `n`
/// degenerates to a line).
pub fn ring(n: usize) -> Graph {
    let mut edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    if n >= 3 {
        edges.push((n - 1, 0));
    }
    Graph::from_edges(n, &edges)
}

/// `rows × cols` grid graph with 4-neighbor connectivity.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut g = GraphBuilder::new(n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                g.add_edge(v, v + 1);
            }
            if r + 1 < rows {
                g.add_edge(v, v + cols);
            }
        }
    }
    g.build()
}

/// Star on `n` vertices: vertex `0` is the hub.
pub fn star(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
    Graph::from_edges(n, &edges)
}

/// Complete graph `K_n` — models a single-hop network where every pair of
/// users conflicts (the setting of prior single-hop MAB work the paper
/// generalizes).
pub fn complete(n: usize) -> Graph {
    let mut g = GraphBuilder::with_edge_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v);
        }
    }
    g.build()
}

/// Edgeless graph — no conflicts at all; every node can always transmit.
pub fn independent(n: usize) -> Graph {
    Graph::new(n)
}

/// Near-square grid on **exactly** `n` vertices: `rows = ⌊√n⌋` full rows of
/// `⌈n/rows⌉` columns with the last row possibly partial. Unlike
/// [`grid`], the vertex count is an input, which is what spec-driven
/// experiment construction needs (the channel matrix is `n × m`).
pub fn grid_n(n: usize) -> Graph {
    if n == 0 {
        return Graph::new(0);
    }
    let rows = (1..).take_while(|r| r * r <= n).last().unwrap_or(1);
    let cols = n.div_ceil(rows);
    let mut g = GraphBuilder::new(n);
    for v in 0..n {
        if (v % cols) + 1 < cols && v + 1 < n {
            g.add_edge(v, v + 1);
        }
        if v + cols < n {
            g.add_edge(v, v + cols);
        }
    }
    g.build()
}

/// Declarative topology family — the enum-dispatched counterpart of the
/// constructors in this module and [`unit_disk`], used by spec-driven
/// experiment campaigns: a `(family, n, seed)` triple fully determines the
/// conflict graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// Random unit-disk graph targeting an average conflict degree
    /// (Section IV-D's "random networks with an average degree `d`").
    UnitDisk {
        /// Target average degree `d`.
        avg_degree: f64,
    },
    /// As [`TopologySpec::UnitDisk`] but resampled until connected (the
    /// Fig. 7 workload).
    UnitDiskConnected {
        /// Target average degree `d`.
        avg_degree: f64,
    },
    /// Linear network `0 — 1 — … — n−1` (the Fig. 5 worst case).
    Line,
    /// Cycle on `n` vertices.
    Ring,
    /// Near-square grid on exactly `n` vertices ([`grid_n`]).
    Grid,
    /// Star with vertex 0 as the hub.
    Star,
    /// Complete graph — the single-hop setting of prior MAB work.
    Complete,
    /// Edgeless graph — no conflicts at all.
    Independent,
}

impl TopologySpec {
    /// Builds the conflict graph (plus the geometric layout for unit-disk
    /// families). Deterministic in `(self, n, seed)`; the unit-disk seed
    /// stream is identical to the historical `Network::random` path, so
    /// existing pinned results are unchanged.
    ///
    /// # Panics
    ///
    /// Propagates the constructor panics (e.g. unit-disk families need
    /// `2 ≤ n` and `0 < avg_degree < n`; the connected family panics if no
    /// connected instance is found in 1000 tries).
    pub fn build(&self, n: usize, seed: u64) -> (Graph, Option<Layout>) {
        use rand::{rngs::StdRng, SeedableRng};
        match *self {
            TopologySpec::UnitDisk { avg_degree } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let (g, layout) = unit_disk::random_with_average_degree(n, avg_degree, &mut rng);
                (g, Some(layout))
            }
            TopologySpec::UnitDiskConnected { avg_degree } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let (g, layout) =
                    unit_disk::random_connected_with_average_degree(n, avg_degree, 1000, &mut rng)
                        .expect("no connected instance found in 1000 tries");
                (g, Some(layout))
            }
            TopologySpec::Line => (line(n), None),
            TopologySpec::Ring => (ring(n), None),
            TopologySpec::Grid => (grid_n(n), None),
            TopologySpec::Star => (star(n), None),
            TopologySpec::Complete => (complete(n), None),
            TopologySpec::Independent => (independent(n), None),
        }
    }

    /// Short kebab-case family name for artifact paths and CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            TopologySpec::UnitDisk { .. } => "unit-disk",
            TopologySpec::UnitDiskConnected { .. } => "unit-disk-connected",
            TopologySpec::Line => "line",
            TopologySpec::Ring => "ring",
            TopologySpec::Grid => "grid",
            TopologySpec::Star => "star",
            TopologySpec::Complete => "complete",
            TopologySpec::Independent => "independent",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_has_n_minus_one_edges() {
        assert_eq!(line(5).edge_count(), 4);
        assert_eq!(line(1).edge_count(), 0);
        assert_eq!(line(0).n(), 0);
    }

    #[test]
    fn line_diameter_is_n_minus_one() {
        let g = line(6);
        assert_eq!(g.hop_distance(0, 5), Some(5));
    }

    #[test]
    fn ring_closes_the_loop() {
        let g = ring(5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.hop_distance(0, 4), Some(1));
        // n = 2 degenerates to a single edge, not a multi-edge.
        assert_eq!(ring(2).edge_count(), 1);
    }

    #[test]
    fn grid_edge_count() {
        // rows*(cols-1) horizontal + (rows-1)*cols vertical
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert!(g.is_connected());
    }

    #[test]
    fn star_hub_degree() {
        let g = star(7);
        assert_eq!(g.degree(0), 6);
        for v in 1..7 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn complete_graph_edges() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        // The only independent sets are singletons.
        assert!(!g.is_independent(&[0, 1]));
    }

    #[test]
    fn independent_graph_has_no_conflicts() {
        let g = independent(4);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_independent(&[0, 1, 2, 3]));
    }

    #[test]
    fn grid_n_has_exact_vertex_count() {
        for n in [0usize, 1, 2, 5, 9, 12, 16, 17, 30] {
            let g = grid_n(n);
            assert_eq!(g.n(), n, "n={n}");
            if n > 1 {
                assert!(g.is_connected(), "grid_n({n}) must be connected");
            }
        }
        // A perfect square reproduces the rectangular grid.
        assert_eq!(grid_n(12).edge_count(), grid(3, 4).edge_count());
    }

    #[test]
    fn spec_build_matches_direct_constructors() {
        let (g, layout) = TopologySpec::Line.build(6, 0);
        assert_eq!(g, line(6));
        assert!(layout.is_none());
        let (g, _) = TopologySpec::Complete.build(5, 9);
        assert_eq!(g, complete(5));
        // Seed-determinism of the random family.
        let spec = TopologySpec::UnitDisk { avg_degree: 3.0 };
        let (a, la) = spec.build(20, 7);
        let (b, lb) = spec.build(20, 7);
        assert_eq!(a, b);
        assert_eq!(la, lb);
        assert!(la.is_some());
    }

    #[test]
    fn spec_connected_family_is_connected() {
        let spec = TopologySpec::UnitDiskConnected { avg_degree: 4.0 };
        let (g, _) = spec.build(15, 3);
        assert!(g.is_connected());
    }
}
