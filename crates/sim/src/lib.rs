//! Synchronous message-passing simulation substrate.
//!
//! The distributed protocol of the paper (Algorithm 2/3) communicates only
//! through **hop-limited local broadcasts** on the extended conflict graph:
//! weight broadcasts within `(2r+1)` hops, LocalLeader declarations within
//! `(2r+1)` hops, and status determinations within `(3r+1)` hops
//! (Section IV-C, Fig. 2). This crate simulates exactly that primitive:
//!
//! * [`FloodEngine`] delivers batches of TTL-limited floods over a graph,
//!   with optional per-transmission message loss for failure-injection
//!   tests.
//! * [`Counters`] records transmissions, delivered copies, and pipelined
//!   mini-timeslots, so the paper's communication-complexity claims
//!   (`O(r² + D)` messages per vertex per round) can be *measured* rather
//!   than assumed — see the `complexity` campaign scenario.
//!
//! The engine is deliberately transport-only: protocol state machines (the
//! Candidate/LocalLeader/Winner/Loser logic) live in `mhca-core`, and are
//! restricted to information received through
//! [`FloodEngine::deliver_receivers_into`], preserving the locality the
//! paper's distributed claims rest on.
//!
//! # Example
//!
//! ```
//! use mhca_graph::topology;
//! use mhca_sim::{Flood, FloodEngine, FloodReceivers};
//!
//! let g = topology::line(5);
//! let mut engine = FloodEngine::new(&g);
//! let mut heard = FloodReceivers::default();
//! engine.deliver_receivers_into(&[Flood { origin: 0, ttl: 2, payload: "hi" }], &mut heard);
//! // Vertices within 2 hops hear the flood; vertex 0 itself does not
//! // receive its own message.
//! assert_eq!(heard.of(0), &[1, 2]);
//! // The origin and vertex 1 relayed; vertices 1 and 2 got a copy.
//! assert_eq!(engine.counters().transmissions, 2);
//! assert_eq!(engine.counters().delivered, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod counters;
pub mod engine;
pub mod loss;

pub use counters::Counters;
pub use engine::{Flood, FloodEngine, FloodReceivers, LossSpec};
pub use loss::{counter_uniform, SkipSampler};
