//! Maximum weighted independent set (MWIS) solvers.
//!
//! Throughput-optimal channel allocation in the paper reduces to MWIS on
//! the extended conflict graph `H` (Eq. (2)); this crate provides every
//! solver the reproduction needs:
//!
//! * [`exact`] — branch-and-bound over vertex *groups* (each group is a
//!   clique: at most one member selected). For `H`, grouping by master node
//!   exploits the per-node channel cliques; for a generic graph every
//!   vertex is its own group. Used for ground truth (the paper's brute-force
//!   optimum in Fig. 7) and for the LocalLeader enumeration of Algorithm 3.
//! * [`greedy`] — classic max-weight and weight/degree greedy baselines
//!   ("more efficient constant approximation algorithm" per Section IV-C).
//! * [`robust_ptas`] — the centralized robust PTAS of Nieberg–Hurink–Kern
//!   (paper Section IV-B): grows `r`-hop neighborhoods around the heaviest
//!   remaining vertex until `W(MWIS(J_{r+1})) ≤ ρ·W(MWIS(J_r))`.
//! * [`verify`] — independence and approximation-ratio checks.
//!
//! # Example
//!
//! ```
//! use mhca_graph::topology;
//! use mhca_mwis::{exact, greedy, robust_ptas};
//!
//! let g = topology::line(5);
//! let w = [1.0, 2.0, 3.0, 2.0, 1.0];
//! let opt = exact::solve(&g, &w);
//! assert_eq!(opt.vertices, vec![0, 2, 4]); // weight 5
//! assert_eq!(opt.weight, 5.0);
//!
//! let ptas = robust_ptas::solve(&g, &w, &robust_ptas::Config::with_epsilon(0.5));
//! assert!(ptas.weight >= opt.weight / 1.5 - 1e-9);
//! assert!(g.is_independent(&ptas.vertices));
//!
//! let gr = greedy::max_weight(&g, &w);
//! assert!(g.is_independent(&gr.vertices));
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod exact;
pub mod greedy;
pub mod local_search;
pub mod robust_ptas;
pub mod verify;

mod set;

pub use set::WeightedSet;
