//! Channel-assignment strategies (the paper's strategy vectors `s_x`).

use crate::ids::{ChannelId, NodeId};

/// A (possibly partial) channel assignment: each node either selects one
/// channel or stays silent.
///
/// The paper's strategy vector `s_x = {s_{x,i}}` allows "the actual length
/// of a feasible strategy" to "be smaller than N if some nodes do not
/// choose any channel" (Section III) — hence the `Option`.
///
/// # Example
///
/// ```
/// use mhca_graph::{Strategy, NodeId, ChannelId};
///
/// let mut s = Strategy::new(3);
/// s.assign(NodeId(0), ChannelId(2));
/// s.assign(NodeId(2), ChannelId(0));
/// assert_eq!(s.channel_of(NodeId(0)), Some(ChannelId(2)));
/// assert_eq!(s.channel_of(NodeId(1)), None);
/// assert_eq!(s.assigned_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strategy {
    choices: Vec<Option<ChannelId>>,
}

impl Strategy {
    /// Creates an empty strategy (all `n` nodes silent).
    pub fn new(n: usize) -> Self {
        Strategy {
            choices: vec![None; n],
        }
    }

    /// Number of nodes the strategy covers (`N`, not the assigned count).
    pub fn n_nodes(&self) -> usize {
        self.choices.len()
    }

    /// Assigns `channel` to `node`, replacing any previous choice.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn assign(&mut self, node: NodeId, channel: ChannelId) {
        self.choices[node.0] = Some(channel);
    }

    /// Makes `node` silent (no channel).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn clear(&mut self, node: NodeId) {
        self.choices[node.0] = None;
    }

    /// The channel selected by `node`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn channel_of(&self, node: NodeId) -> Option<ChannelId> {
        self.choices[node.0]
    }

    /// Number of nodes that selected a channel.
    pub fn assigned_count(&self) -> usize {
        self.choices.iter().filter(|c| c.is_some()).count()
    }

    /// `true` if no node selected a channel.
    pub fn is_silent(&self) -> bool {
        self.assigned_count() == 0
    }

    /// Iterator over `(node, channel)` pairs of assigned nodes, in node order.
    pub fn assignments(&self) -> impl Iterator<Item = (NodeId, ChannelId)> + '_ {
        self.choices
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|ch| (NodeId(i), ch)))
    }

    /// Sum of `weight(node, channel)` over assigned pairs — the strategy
    /// throughput `λ_x = Σ µ_{i, s_{x,i}}` when `weight` returns means.
    pub fn total_weight<F: Fn(NodeId, ChannelId) -> f64>(&self, weight: F) -> f64 {
        self.assignments().map(|(n, c)| weight(n, c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_strategy_is_silent() {
        let s = Strategy::new(4);
        assert!(s.is_silent());
        assert_eq!(s.n_nodes(), 4);
        assert_eq!(s.assigned_count(), 0);
    }

    #[test]
    fn assign_clear_roundtrip() {
        let mut s = Strategy::new(2);
        s.assign(NodeId(1), ChannelId(3));
        assert_eq!(s.channel_of(NodeId(1)), Some(ChannelId(3)));
        s.clear(NodeId(1));
        assert_eq!(s.channel_of(NodeId(1)), None);
    }

    #[test]
    fn reassignment_replaces() {
        let mut s = Strategy::new(1);
        s.assign(NodeId(0), ChannelId(0));
        s.assign(NodeId(0), ChannelId(5));
        assert_eq!(s.channel_of(NodeId(0)), Some(ChannelId(5)));
        assert_eq!(s.assigned_count(), 1);
    }

    #[test]
    fn assignments_iterate_in_node_order() {
        let mut s = Strategy::new(5);
        s.assign(NodeId(4), ChannelId(1));
        s.assign(NodeId(0), ChannelId(2));
        let v: Vec<_> = s.assignments().collect();
        assert_eq!(
            v,
            vec![(NodeId(0), ChannelId(2)), (NodeId(4), ChannelId(1))]
        );
    }

    #[test]
    fn total_weight_sums_assigned_pairs() {
        let mut s = Strategy::new(3);
        s.assign(NodeId(0), ChannelId(1));
        s.assign(NodeId(2), ChannelId(0));
        let w = s.total_weight(|n, c| (n.0 * 10 + c.0) as f64);
        assert_eq!(w, 1.0 + 20.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_node_panics() {
        let mut s = Strategy::new(1);
        s.assign(NodeId(1), ChannelId(0));
    }
}
