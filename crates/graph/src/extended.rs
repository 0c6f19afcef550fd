//! The extended conflict graph `H` of Section III.
//!
//! Given the original conflict graph `G = (V, E)` on `N` nodes and `M`
//! channels, `H = (Ṽ, Ẽ)` has a *virtual vertex* `v_{i,j}` per (node `i`,
//! channel `j`) pair, with
//!
//! 1. a clique over `{v_{i,1}, …, v_{i,M}}` for every node `i` (a node can
//!    use at most one channel at a time), and
//! 2. an edge `{v_{i,j}, v_{p,j}}` whenever `{i, p} ∈ E` (conflicting nodes
//!    cannot share a channel).
//!
//! An independent set of `H` is then exactly a feasible strategy of `G`, and
//! a maximum weighted independent set (with weights `µ_{i,j}`) is a
//! throughput-optimal channel allocation (paper Eq. (2)).

use crate::{
    graph::Graph,
    ids::{ChannelId, NodeId, VertexId},
    strategy::Strategy,
};

/// The extended conflict graph `H` plus master/slave bookkeeping.
///
/// Vertices are packed as `vertex = node · M + channel`, so conversions are
/// O(1) arithmetic.
///
/// # Example
///
/// ```
/// use mhca_graph::{topology, ExtendedConflictGraph};
///
/// let g = topology::line(3); // 0 — 1 — 2
/// let h = ExtendedConflictGraph::new(&g, 2);
/// // Non-adjacent nodes 0 and 2 may share a channel…
/// assert!(h.graph().is_independent(&[0, 4])); // v(0,c0), v(2,c0)
/// // …adjacent nodes 0 and 1 may not.
/// assert!(!h.graph().is_independent(&[0, 2])); // v(0,c0), v(1,c0)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExtendedConflictGraph {
    graph: Graph,
    n_nodes: usize,
    n_channels: usize,
    /// Master node of every vertex (`v ↦ v / M`), the grouping the
    /// grouped MWIS solvers take.
    node_groups: Vec<usize>,
}

impl ExtendedConflictGraph {
    /// Builds `H` from the conflict graph `g` and channel count `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(g: &Graph, m: usize) -> Self {
        assert!(m > 0, "need at least one channel");
        let n = g.n();
        let mut h = crate::GraphBuilder::with_edge_capacity(
            n * m,
            n * m * (m - 1) / 2 + g.edge_count() * m,
        );
        for node in 0..n {
            // Clique among this node's slave vertices.
            for a in 0..m {
                for b in (a + 1)..m {
                    h.add_edge(node * m + a, node * m + b);
                }
            }
            // Same-channel conflicts mirroring G.
            for &other in g.neighbors(node) {
                if other > node {
                    for ch in 0..m {
                        h.add_edge(node * m + ch, other * m + ch);
                    }
                }
            }
        }
        ExtendedConflictGraph {
            graph: h.build(),
            n_nodes: n,
            n_channels: m,
            node_groups: (0..n * m).map(|v| v / m).collect(),
        }
    }

    /// The underlying graph structure of `H`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes `N` of the original graph.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of channels `M`.
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// The master node index of every vertex (`v ↦ v / M`), as one slice
    /// for the grouped MWIS solvers.
    pub fn node_groups(&self) -> &[usize] {
        &self.node_groups
    }

    /// Number of virtual vertices `N·M` (the paper's arm count `K`).
    pub fn n_vertices(&self) -> usize {
        self.n_nodes * self.n_channels
    }

    /// The virtual vertex `v_{node, channel}`.
    ///
    /// # Panics
    ///
    /// Panics if `node ≥ N` or `channel ≥ M`.
    pub fn vertex(&self, node: NodeId, channel: ChannelId) -> VertexId {
        assert!(node.0 < self.n_nodes, "node out of range");
        assert!(channel.0 < self.n_channels, "channel out of range");
        VertexId(node.0 * self.n_channels + channel.0)
    }

    /// Master node of a virtual vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn master(&self, v: VertexId) -> NodeId {
        assert!(v.0 < self.n_vertices(), "vertex out of range");
        NodeId(v.0 / self.n_channels)
    }

    /// Channel index of a virtual vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn channel(&self, v: VertexId) -> ChannelId {
        assert!(v.0 < self.n_vertices(), "vertex out of range");
        ChannelId(v.0 % self.n_channels)
    }

    /// Converts an independent set of `H` (raw vertex indices) into a
    /// [`Strategy`].
    ///
    /// # Panics
    ///
    /// Panics if `is_` is not an independent set of `H` (in particular, if
    /// two vertices share a master node) or contains out-of-range vertices.
    pub fn strategy_from_is(&self, is_: &[usize]) -> Strategy {
        assert!(
            self.graph.is_independent(is_),
            "vertex set is not independent in H"
        );
        let mut s = Strategy::new(self.n_nodes);
        for &v in is_ {
            let vid = VertexId(v);
            s.assign(self.master(vid), self.channel(vid));
        }
        s
    }

    /// Converts a strategy into the corresponding vertex set of `H`
    /// (sorted ascending). The result is independent iff the strategy is
    /// feasible.
    pub fn is_from_strategy(&self, s: &Strategy) -> Vec<usize> {
        s.assignments().map(|(n, c)| self.vertex(n, c).0).collect()
    }

    /// `true` when the strategy is feasible, i.e. its vertex set is
    /// independent in `H` (no conflicting nodes share a channel).
    pub fn is_feasible(&self, s: &Strategy) -> bool {
        self.graph.is_independent(&self.is_from_strategy(s))
    }

    /// Total weight of a strategy under per-vertex weights (length `N·M`,
    /// indexed by packed vertex id).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != N·M`.
    pub fn strategy_weight(&self, s: &Strategy, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.n_vertices(), "weight vector length");
        self.is_from_strategy(s).iter().map(|&v| weights[v]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    /// The Fig. 1 instance: triangle G, 3 channels.
    fn fig1() -> ExtendedConflictGraph {
        ExtendedConflictGraph::new(&topology::complete(3), 3)
    }

    #[test]
    fn fig1_vertex_count_and_cliques() {
        let h = fig1();
        assert_eq!(h.n_vertices(), 9);
        // Each node's 3 slave vertices form a clique: C(3,2)=3 edges per node.
        // Each G-edge contributes M=3 same-channel edges; triangle has 3 edges.
        assert_eq!(h.graph().edge_count(), 3 * 3 + 3 * 3);
    }

    #[test]
    fn master_and_channel_invert_vertex() {
        let h = fig1();
        for node in 0..3 {
            for ch in 0..3 {
                let v = h.vertex(NodeId(node), ChannelId(ch));
                assert_eq!(h.master(v), NodeId(node));
                assert_eq!(h.channel(v), ChannelId(ch));
            }
        }
    }

    #[test]
    fn same_channel_conflict_edges_mirror_g() {
        let g = topology::line(3);
        let h = ExtendedConflictGraph::new(&g, 2);
        let v0c0 = h.vertex(NodeId(0), ChannelId(0)).0;
        let v1c0 = h.vertex(NodeId(1), ChannelId(0)).0;
        let v2c0 = h.vertex(NodeId(2), ChannelId(0)).0;
        assert!(h.graph().has_edge(v0c0, v1c0));
        assert!(!h.graph().has_edge(v0c0, v2c0)); // 0 and 2 not adjacent in G
                                                  // Different channels never conflict across nodes.
        let v1c1 = h.vertex(NodeId(1), ChannelId(1)).0;
        assert!(!h.graph().has_edge(v0c0, v1c1));
    }

    #[test]
    fn strategy_is_roundtrip() {
        let h = ExtendedConflictGraph::new(&topology::line(3), 2);
        let mut s = Strategy::new(3);
        s.assign(NodeId(0), ChannelId(0));
        s.assign(NodeId(1), ChannelId(1));
        s.assign(NodeId(2), ChannelId(0));
        assert!(h.is_feasible(&s));
        let is_ = h.is_from_strategy(&s);
        let s2 = h.strategy_from_is(&is_);
        assert_eq!(s, s2);
    }

    #[test]
    fn infeasible_strategy_detected() {
        let h = ExtendedConflictGraph::new(&topology::line(2), 2);
        let mut s = Strategy::new(2);
        s.assign(NodeId(0), ChannelId(1));
        s.assign(NodeId(1), ChannelId(1)); // adjacent nodes, same channel
        assert!(!h.is_feasible(&s));
    }

    #[test]
    #[should_panic(expected = "not independent")]
    fn strategy_from_dependent_set_panics() {
        let h = ExtendedConflictGraph::new(&topology::line(2), 2);
        // v(0,c0) and v(1,c0) conflict.
        let _ = h.strategy_from_is(&[0, 2]);
    }

    #[test]
    fn strategy_weight_sums_selected_vertices() {
        let h = ExtendedConflictGraph::new(&topology::independent(2), 2);
        let mut s = Strategy::new(2);
        s.assign(NodeId(0), ChannelId(1));
        s.assign(NodeId(1), ChannelId(0));
        let w = h.strategy_weight(&s, &[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(w, 2.0 + 4.0);
    }

    #[test]
    fn independence_number_capped_by_chromatic_argument() {
        // Complete G on 4 nodes with 2 channels: at most 2 nodes can
        // transmit (one per channel) — "independence number of H is less
        // than N if the chromatic number of G is greater than M".
        let h = ExtendedConflictGraph::new(&topology::complete(4), 2);
        // Any 3 vertices must contain a conflict.
        let hg = h.graph();
        let n = h.n_vertices();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    assert!(
                        !hg.is_independent(&[a, b, c]),
                        "found independent triple {a},{b},{c}"
                    );
                }
            }
        }
    }
}
