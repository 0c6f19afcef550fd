//! Graph substrate for multi-hop channel access.
//!
//! This crate provides every graph-structural piece the paper
//! *"Almost Optimal Channel Access in Multi-Hop Networks With Unknown
//! Channel Variables"* (Zhou et al., ICDCS 2014) relies on:
//!
//! * [`Graph`] — a compact undirected graph with the neighborhood and
//!   hop-distance queries (`J_{G,r}(v)`, `d_G(u,v)`) used throughout the
//!   paper (Table I notation).
//! * [`unit_disk`] — random geometric (unit-disk) conflict graphs `G`,
//!   including generation targeting a prescribed average degree `d`
//!   (Section IV-D studies random networks with average degree `d`).
//! * [`topology`] — deterministic topologies, including the linear network
//!   of Fig. 5 that forces `Θ(N)` mini-rounds.
//! * [`ExtendedConflictGraph`] — the extended conflict graph `H`
//!   (Section III, Fig. 1): `N·M` virtual vertices, one clique per node,
//!   same-channel edges mirroring conflicts of `G`.
//! * [`Strategy`] — a feasible channel assignment, bijective with
//!   independent sets of `H`.
//!
//! # Example
//!
//! ```
//! use mhca_graph::{topology, ExtendedConflictGraph, NodeId, ChannelId};
//!
//! // Triangle conflict graph with 3 channels — the instance of Fig. 1.
//! let g = topology::complete(3);
//! let h = ExtendedConflictGraph::new(&g, 3);
//! assert_eq!(h.n_vertices(), 9);
//!
//! // Vertices of the same master node form a clique in H.
//! let v0 = h.vertex(NodeId(0), ChannelId(0));
//! let v1 = h.vertex(NodeId(0), ChannelId(1));
//! assert!(h.graph().has_edge(v0.0, v1.0));
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod balls;
pub mod coloring;
pub mod extended;
pub mod geometry;
pub mod graph;
pub mod metrics;
pub mod partition;
pub mod strategy;
pub mod topology;
pub mod unit_disk;

mod ids;

pub use balls::{BallScan, BallTable, CompactBallTable};
pub use extended::ExtendedConflictGraph;
pub use geometry::Point;
pub use graph::{Graph, GraphBuilder};
pub use ids::{ChannelId, NodeId, VertexId};
pub use partition::Partition;
pub use strategy::Strategy;
pub use topology::TopologySpec;
pub use unit_disk::Layout;
