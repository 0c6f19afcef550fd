//! Typed identifiers for nodes, channels, and virtual vertices.

use std::fmt;

/// Identifier of a node (secondary user) in the original conflict graph `G`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub usize);

/// Identifier of a channel, `0 ≤ ChannelId < M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ChannelId(pub usize);

/// Identifier of a virtual vertex `v_{i,j}` in the extended conflict graph `H`.
///
/// The canonical packing is `vertex = node · M + channel`; see
/// [`crate::ExtendedConflictGraph::vertex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VertexId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

impl From<usize> for ChannelId {
    fn from(i: usize) -> Self {
        ChannelId(i)
    }
}

impl From<usize> for VertexId {
    fn from(i: usize) -> Self {
        VertexId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(ChannelId(1).to_string(), "c1");
        assert_eq!(VertexId(10).to_string(), "v10");
    }

    #[test]
    fn ordering_follows_inner() {
        assert!(NodeId(1) < NodeId(2));
        assert!(VertexId(0) < VertexId(1));
    }

    #[test]
    fn from_usize_roundtrip() {
        let n: NodeId = 7usize.into();
        assert_eq!(n, NodeId(7));
    }
}
