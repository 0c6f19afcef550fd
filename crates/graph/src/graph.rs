//! Compact undirected graph with the neighborhood queries of Table I.
//!
//! The graph is stored in **CSR (compressed sparse row)** form: one flat
//! `targets` array holding every adjacency list back to back, and an
//! `offsets` array with one entry per vertex delimiting its slice. This
//! makes neighbor iteration a single contiguous scan (the hot operation of
//! the flood engine and every BFS in the workspace) and costs two `Vec`s
//! total instead of one `Vec` per vertex.
//!
//! CSR is immutable by construction; the mutation phase lives in
//! [`GraphBuilder`], which buffers raw edges and sorts/dedups once in
//! [`GraphBuilder::build`] — O(E log E) overall instead of the O(deg)
//! sorted-insert per edge the old `Vec<Vec<usize>>` representation paid.

use crate::balls::BallScan;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An undirected simple graph over vertices `0..n`, stored as CSR.
///
/// Adjacency slices are sorted, so [`Graph::has_edge`] is a binary search
/// and neighbor iteration is one cache-friendly scan. The structure is
/// used both for the original conflict graph `G` and the extended conflict
/// graph `H` of the paper.
///
/// Construction goes through [`GraphBuilder`] (or the [`Graph::from_edges`]
/// shorthand); a built graph never changes.
///
/// # Example
///
/// ```
/// use mhca_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.hop_distance(0, 3), Some(3));
/// assert_eq!(g.r_hop_neighborhood(0, 2), vec![0, 1, 2]);
/// assert!(g.is_independent(&[0, 2]));
/// assert!(!g.is_independent(&[1, 2]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` delimits `v`'s slice of `targets`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    targets: Vec<usize>,
    /// Number of vertices (`offsets.len() - 1` when non-empty; kept
    /// explicit so the `Default` empty graph needs no special case).
    n: usize,
    edge_count: usize,
}

/// Incremental edge buffer that [`Graph`]s are built from.
///
/// `add_edge` is O(1) amortized (it pushes onto a raw edge list);
/// [`GraphBuilder::build`] sorts and dedups once. Self-loops and duplicate
/// edges are tolerated and dropped at build time, matching the old
/// `Graph::add_edge` semantics.
///
/// # Example
///
/// ```
/// use mhca_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, dropped at build
/// b.add_edge(2, 2); // self-loop, dropped at build
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Directed half-edges `(u, v)`; both directions are materialized here
    /// so the build pass is a single counting sort over sources.
    half_edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices with no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            half_edges: Vec::new(),
        }
    }

    /// Like [`GraphBuilder::new`], pre-sizing the edge buffer.
    pub fn with_edge_capacity(n: usize, edges: usize) -> Self {
        GraphBuilder {
            n,
            half_edges: Vec::with_capacity(2 * edges),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Records the undirected edge `{u, v}`. Duplicates and self-loops are
    /// dropped at [`GraphBuilder::build`] time.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        if u == v {
            return;
        }
        self.half_edges.push((u, v));
        self.half_edges.push((v, u));
    }

    /// Finalizes into an immutable CSR [`Graph`].
    pub fn build(mut self) -> Graph {
        let n = self.n;
        // Sort half-edges by (source, target); dedup kills duplicate edges
        // in both directions at once.
        self.half_edges.sort_unstable();
        self.half_edges.dedup();

        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &self.half_edges {
            offsets[u + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<usize> = self.half_edges.iter().map(|&(_, v)| v).collect();
        let edge_count = targets.len() / 2;
        Graph {
            offsets,
            targets,
            n,
            edge_count,
        }
    }
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            n,
            edge_count: 0,
        }
    }

    /// A [`GraphBuilder`] for a graph on `n` vertices.
    pub fn builder(n: usize) -> GraphBuilder {
        GraphBuilder::new(n)
    }

    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// Duplicate edges and self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut b = GraphBuilder::with_edge_capacity(n, edges.len());
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Mean vertex degree (`0` for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.n as f64
        }
    }

    /// Maximum vertex degree (`0` for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && v < self.n && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// BFS hop distances from `src`; `None` for unreachable vertices.
    pub fn bfs_distances(&self, src: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.n];
        dist[src] = Some(0);
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued vertex has distance");
            for &w in self.neighbors(u) {
                if dist[w].is_none() {
                    dist[w] = Some(du + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Minimum hop count between `u` and `v` (`d_G(u, v)` in the paper),
    /// or `None` when disconnected.
    pub fn hop_distance(&self, u: usize, v: usize) -> Option<usize> {
        if u == v {
            return Some(0);
        }
        // Early-exit BFS.
        let mut dist = vec![usize::MAX; self.n];
        dist[u] = 0;
        let mut queue = VecDeque::from([u]);
        while let Some(x) = queue.pop_front() {
            for &w in self.neighbors(x) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[x] + 1;
                    if w == v {
                        return Some(dist[w]);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// The `r`-hop neighborhood `J_{G,r}(v) = {u : d_G(u,v) ≤ r}`,
    /// sorted ascending and always containing `v` itself.
    ///
    /// A one-shot convenience: every call allocates `O(n)` visit marks,
    /// so computing many balls this way costs `O(n)` each. Loops over
    /// vertices should reuse one [`BallScan`] instead.
    pub fn r_hop_neighborhood(&self, v: usize, r: usize) -> Vec<usize> {
        let mut out = vec![v];
        BallScan::default().for_each(self, v, r, |w, _| out.push(w));
        out.sort_unstable();
        out
    }

    /// `true` when no two vertices of `set` are adjacent.
    ///
    /// Duplicates in `set` are tolerated (a vertex is never adjacent to
    /// itself in a simple graph).
    pub fn is_independent(&self, set: &[usize]) -> bool {
        for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                if self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Induced subgraph on `verts`.
    ///
    /// Returns the subgraph (with vertices relabelled `0..verts.len()` in
    /// the order given) and the local→global vertex map.
    ///
    /// # Panics
    ///
    /// Panics if `verts` contains duplicates or out-of-range vertices.
    pub fn induced_subgraph(&self, verts: &[usize]) -> (Graph, Vec<usize>) {
        let mut global_to_local = vec![usize::MAX; self.n];
        for (i, &v) in verts.iter().enumerate() {
            assert!(v < self.n, "vertex out of range");
            assert!(global_to_local[v] == usize::MAX, "duplicate vertex");
            global_to_local[v] = i;
        }
        let mut sub = GraphBuilder::new(verts.len());
        for (i, &v) in verts.iter().enumerate() {
            for &w in self.neighbors(v) {
                let j = global_to_local[w];
                if j != usize::MAX && j > i {
                    sub.add_edge(i, j);
                }
            }
        }
        (sub.build(), verts.to_vec())
    }

    /// Connected components, each sorted ascending; components ordered by
    /// their smallest vertex.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut comps = Vec::new();
        for s in 0..self.n {
            if seen[s] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([s]);
            seen[s] = true;
            while let Some(u) = queue.pop_front() {
                comp.push(u);
                for &w in self.neighbors(u) {
                    if !seen[w] {
                        seen[w] = true;
                        queue.push_back(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// `true` when every vertex is reachable from every other
    /// (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// Iterator over all edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| v > u)
                .map(move |&v| (u, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn builder_dedups_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn default_graph_is_empty() {
        let g = Graph::default();
        assert!(g.is_empty());
        assert_eq!(g.n(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn csr_layout_is_contiguous() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 3)]);
        // Degrees: 3, 1, 2, 2 → 8 half-edges in one flat array.
        let total: usize = (0..4).map(|v| g.neighbors(v).len()).sum();
        assert_eq!(total, 8);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn hop_distance_disconnected_is_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(g.hop_distance(0, 3), None);
        assert_eq!(g.hop_distance(0, 1), Some(1));
        assert_eq!(g.hop_distance(2, 2), Some(0));
    }

    #[test]
    fn r_hop_neighborhood_matches_definition() {
        let g = path(6);
        assert_eq!(g.r_hop_neighborhood(2, 0), vec![2]);
        assert_eq!(g.r_hop_neighborhood(2, 1), vec![1, 2, 3]);
        assert_eq!(g.r_hop_neighborhood(2, 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.r_hop_neighborhood(2, 100), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn independence_checks() {
        let g = path(5);
        assert!(g.is_independent(&[]));
        assert!(g.is_independent(&[0]));
        assert!(g.is_independent(&[0, 2, 4]));
        assert!(!g.is_independent(&[0, 1]));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (sub, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(map, vec![0, 1, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.edge_count(), 1); // only (0,1) survives
        assert!(sub.has_edge(0, 1));
        assert!(!sub.has_edge(1, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn induced_subgraph_rejects_duplicates() {
        let g = path(3);
        let _ = g.induced_subgraph(&[0, 0]);
    }

    #[test]
    fn connected_components_and_connectivity() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3], vec![4, 5]]);
        assert!(!g.is_connected());
        assert!(path(4).is_connected());
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn average_and_max_degree() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }
}
