//! Structural metrics of conflict graphs, used by the experiment
//! harnesses to characterize the random workloads they generate.

use crate::graph::Graph;

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub edges: usize,
    /// Mean degree.
    pub average_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of connected components.
    pub components: usize,
    /// Diameter of the largest component (hops), 0 for singleton graphs.
    pub diameter: usize,
}

/// Computes [`GraphMetrics`].
///
/// Diameter is exact (BFS from every vertex of the largest component), so
/// this is `O(V·E)` — fine for the simulation scales of this workspace.
pub fn metrics(graph: &Graph) -> GraphMetrics {
    let comps = graph.connected_components();
    let largest = comps
        .iter()
        .max_by_key(|c| c.len())
        .cloned()
        .unwrap_or_default();
    let mut diameter = 0;
    for &v in &largest {
        let dist = graph.bfs_distances(v);
        for &u in &largest {
            if let Some(d) = dist[u] {
                diameter = diameter.max(d);
            }
        }
    }
    GraphMetrics {
        n: graph.n(),
        edges: graph.edge_count(),
        average_degree: graph.average_degree(),
        max_degree: graph.max_degree(),
        components: comps.len(),
        diameter,
    }
}

/// Degree histogram: `hist[d]` = number of vertices of degree `d`.
pub fn degree_histogram(graph: &Graph) -> Vec<usize> {
    let mut hist = vec![0; graph.max_degree() + 1];
    for v in 0..graph.n() {
        hist[graph.degree(v)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn path_metrics() {
        let g = topology::line(5);
        let m = metrics(&g);
        assert_eq!(m.n, 5);
        assert_eq!(m.edges, 4);
        assert_eq!(m.max_degree, 2);
        assert_eq!(m.components, 1);
        assert_eq!(m.diameter, 4);
    }

    #[test]
    fn disconnected_metrics_use_largest_component() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let m = metrics(&g);
        assert_eq!(m.components, 2);
        assert_eq!(m.diameter, 3); // path 0-1-2-3
    }

    #[test]
    fn complete_graph_diameter_one() {
        let g = topology::complete(4);
        assert_eq!(metrics(&g).diameter, 1);
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::new(1);
        let m = metrics(&g);
        assert_eq!(m.diameter, 0);
        assert_eq!(m.components, 1);
    }

    #[test]
    fn degree_histogram_star() {
        let g = topology::star(5);
        let h = degree_histogram(&g);
        assert_eq!(h[1], 4); // four leaves
        assert_eq!(h[4], 1); // one hub
        assert_eq!(h.iter().sum::<usize>(), 5);
    }

    #[test]
    fn histogram_of_edgeless_graph() {
        let g = topology::independent(3);
        assert_eq!(degree_histogram(&g), vec![3]);
    }
}
