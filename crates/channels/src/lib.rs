//! Stochastic channel-quality substrate for cognitive-radio simulation.
//!
//! The paper assumes each (node, channel) pair `(i, j)` has a data rate
//! `ξ_{i,j}(t)` drawn from an i.i.d. stochastic process with unknown mean
//! `µ_{i,j}` (Section II), and its simulations use "8 types of channels with
//! data rates 150, 225, 300, 450, 600, 900, 1200, 1350 kbps … each channel
//! evolves as a distinct i.i.d. Gaussian stochastic process" (Section V).
//!
//! This crate provides:
//!
//! * [`ChannelProcess`] — a closed enum over the eight rate families: the
//!   stochastic [`process::Constant`], [`process::Bernoulli`],
//!   [`process::TruncatedGaussian`] (the paper's choice) and
//!   [`process::Uniform`], and the four of [`adversarial`].
//! * [`adversarial`] — non-stochastic processes (sinusoidal, switching,
//!   ramp, piecewise-stationary drift) for the paper's future-work
//!   extension (Section VII); the drifting family backs the campaign's
//!   windowed-regret scenarios.
//! * [`ChannelMatrix`] — the `N×M` bank of processes with **counter-based
//!   deterministic sampling**: the value observed on vertex `k` at slot `t`
//!   is a pure function of `(seed, k, t)`, so two learning policies compared
//!   on the same matrix observe identical realizations (paired comparison,
//!   as in the paper's Fig. 7/8).
//! * [`rates`] — the paper's 8 rate classes and helpers.
//!
//! # Example
//!
//! ```
//! use mhca_channels::{ChannelMatrix, rates};
//!
//! // 4 nodes × 3 channels with truncated-Gaussian rates from the paper's
//! // rate classes, fully determined by the seed.
//! let m = ChannelMatrix::gaussian_from_rate_classes(4, 3, 0.1, 42);
//! assert_eq!(m.n_vertices(), 12);
//! let x = m.value(0, 5);
//! assert_eq!(x, m.value(0, 5)); // deterministic in (t, vertex)
//! assert!(rates::PAPER_RATE_CLASSES.contains(&m.mean(5)));
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod dists;
pub mod matrix;
pub mod process;
pub mod rates;
pub mod spec;

pub use matrix::ChannelMatrix;
pub use process::ChannelProcess;
pub use spec::ChannelModelSpec;
