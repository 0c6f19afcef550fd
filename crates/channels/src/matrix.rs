//! The `N×M` channel matrix with counter-based deterministic sampling.

use crate::{
    process::{ChannelProcess, TruncatedGaussian},
    rates,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// SplitMix64 finalizer — a tiny, high-quality mixing function used to
/// derive an independent RNG stream per `(slot, vertex)` pair.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The bank of `N×M` channel processes, one per virtual vertex of the
/// extended conflict graph `H`, indexed by `vertex = node·M + channel`.
///
/// # Determinism
///
/// [`ChannelMatrix::value`] is a pure function of `(seed, t, vertex)`: the
/// per-call RNG is derived with a counter-based mix, so comparing two
/// learning policies on the same matrix is a *paired* experiment — both see
/// identical channel realizations on the vertices they happen to select, as
/// in the paper's Fig. 7/8 comparisons against LLR.
///
/// # Example
///
/// ```
/// use mhca_channels::ChannelMatrix;
///
/// let m = ChannelMatrix::gaussian_from_rate_classes(10, 5, 0.1, 7);
/// let means = m.means();
/// assert_eq!(means.len(), 50);
/// // Means come from the paper's rate classes.
/// assert!(means.iter().all(|&x| x >= 150.0 && x <= 1350.0));
/// ```
#[derive(Debug, Clone)]
pub struct ChannelMatrix {
    processes: Vec<ChannelProcess>,
    n_nodes: usize,
    n_channels: usize,
    seed: u64,
}

impl ChannelMatrix {
    /// Builds a matrix from explicit processes (length must be `n·m`,
    /// indexed `node·m + channel`).
    ///
    /// # Panics
    ///
    /// Panics if `processes.len() != n·m` or `n·m == 0`.
    pub fn from_processes(n: usize, m: usize, processes: Vec<ChannelProcess>, seed: u64) -> Self {
        assert!(n * m > 0, "empty matrix");
        assert_eq!(processes.len(), n * m, "need one process per vertex");
        ChannelMatrix {
            processes,
            n_nodes: n,
            n_channels: m,
            seed,
        }
    }

    /// The paper's simulation workload: each (node, channel) pair gets a
    /// truncated-Gaussian process whose mean is drawn uniformly from the 8
    /// rate classes, with `sigma = sigma_frac · mean`.
    ///
    /// # Panics
    ///
    /// Panics if `n·m == 0` or `sigma_frac < 0`.
    pub fn gaussian_from_rate_classes(n: usize, m: usize, sigma_frac: f64, seed: u64) -> Self {
        assert!(sigma_frac >= 0.0, "negative sigma fraction");
        ChannelMatrix::from_rate_class_draws(n, m, seed, |mu, _vertex| {
            TruncatedGaussian::symmetric(mu, sigma_frac * mu).into()
        })
    }

    /// Generic rate-class workload: draws one mean per vertex uniformly
    /// from the paper's 8 rate classes (same seed stream as
    /// [`ChannelMatrix::gaussian_from_rate_classes`], so swapping the
    /// process family keeps the mean matrix identical) and builds each
    /// vertex's process with `make(mean, vertex)`.
    ///
    /// # Panics
    ///
    /// Panics if `n·m == 0`.
    pub fn from_rate_class_draws(
        n: usize,
        m: usize,
        seed: u64,
        mut make: impl FnMut(f64, usize) -> ChannelProcess,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xC0FF_EE00));
        let processes: Vec<ChannelProcess> = (0..n * m)
            .map(|vertex| {
                let mu =
                    rates::PAPER_RATE_CLASSES[rng.gen_range(0..rates::PAPER_RATE_CLASSES.len())];
                make(mu, vertex)
            })
            .collect();
        ChannelMatrix::from_processes(n, m, processes, seed)
    }

    /// Number of nodes `N`.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of channels `M`.
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// Number of vertices `N·M` (the arm count `K`).
    pub fn n_vertices(&self) -> usize {
        self.processes.len()
    }

    /// Mean rate `µ_k` of `vertex`.
    pub fn mean(&self, vertex: usize) -> f64 {
        self.processes[vertex].mean()
    }

    /// All means, indexed by vertex — the weight vector of the paper's
    /// optimal MWIS problem, Eq. (2).
    pub fn means(&self) -> Vec<f64> {
        self.processes.iter().map(|p| p.mean()).collect()
    }

    /// Instantaneous design mean of `vertex` at slot `t` — equals
    /// [`ChannelMatrix::mean`] for i.i.d. processes, the scheduled level
    /// for deterministic adversarial/drifting ones (see
    /// [`ChannelProcess::mean_at`]).
    pub fn mean_at(&self, t: u64, vertex: usize) -> f64 {
        self.processes[vertex].mean_at(t)
    }

    /// All instantaneous means at slot `t`, written into a caller-owned
    /// buffer (cleared first) — the weight vector of the drift oracle's
    /// per-period MWIS problem, kept allocation-free on the runner's hot
    /// path.
    pub fn means_at_into(&self, t: u64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.processes.iter().map(|p| p.mean_at(t)));
    }

    /// The rate observed on `vertex` at slot `t` — deterministic in
    /// `(seed, t, vertex)`.
    ///
    /// # Panics
    ///
    /// Panics if `vertex` is out of range.
    pub fn value(&self, t: u64, vertex: usize) -> f64 {
        let stream = splitmix64(
            self.seed
                ^ splitmix64((vertex as u64) << 32 | 0xA5A5)
                ^ splitmix64(t.wrapping_mul(0x9E37)),
        );
        let mut rng = StdRng::seed_from_u64(stream);
        self.processes[vertex].sample(t, &mut rng)
    }

    /// Observes all vertices of a selected set at slot `t`, writing
    /// `(vertex, rate)` pairs into a caller-owned buffer (cleared first) —
    /// the per-slot hot path of the Algorithm 2 runner.
    pub fn observe_into(&self, t: u64, vertices: &[usize], out: &mut Vec<(usize, f64)>) {
        out.clear();
        out.extend(vertices.iter().map(|&v| (v, self.value(t, v))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Constant;

    #[test]
    fn value_is_deterministic() {
        let m = ChannelMatrix::gaussian_from_rate_classes(5, 4, 0.1, 99);
        for t in [0u64, 1, 17, 1000] {
            for v in 0..20 {
                assert_eq!(m.value(t, v), m.value(t, v));
            }
        }
    }

    #[test]
    fn distinct_slots_give_distinct_draws() {
        let m = ChannelMatrix::gaussian_from_rate_classes(2, 2, 0.1, 3);
        // With a continuous distribution, repeated values across slots would
        // betray a broken PRF.
        let a = m.value(0, 0);
        let b = m.value(1, 0);
        let c = m.value(2, 0);
        assert!(a != b || b != c, "suspiciously constant stream");
    }

    #[test]
    fn distinct_vertices_are_decorrelated() {
        let m = ChannelMatrix::gaussian_from_rate_classes(2, 2, 0.5, 5);
        let xs: Vec<f64> = (0..4).map(|v| m.value(0, v)).collect();
        let all_same = xs.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same);
    }

    #[test]
    fn identical_seeds_reproduce_the_matrix() {
        let a = ChannelMatrix::gaussian_from_rate_classes(6, 3, 0.1, 1234);
        let b = ChannelMatrix::gaussian_from_rate_classes(6, 3, 0.1, 1234);
        assert_eq!(a.means(), b.means());
        for v in 0..18 {
            assert_eq!(a.value(7, v), b.value(7, v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChannelMatrix::gaussian_from_rate_classes(6, 3, 0.1, 1);
        let b = ChannelMatrix::gaussian_from_rate_classes(6, 3, 0.1, 2);
        assert_ne!(a.means(), b.means());
    }

    #[test]
    fn empirical_mean_converges_to_process_mean() {
        let m = ChannelMatrix::gaussian_from_rate_classes(1, 1, 0.1, 42);
        let mu = m.mean(0);
        let n = 20_000;
        let avg: f64 = (0..n).map(|t| m.value(t as u64, 0)).sum::<f64>() / n as f64;
        assert!((avg - mu).abs() < 0.02 * mu, "empirical {avg} vs mean {mu}");
    }

    #[test]
    fn observe_returns_pairs_in_order() {
        let procs = [1.0, 2.0, 3.0, 4.0].map(|r| Constant::new(r).into());
        let m = ChannelMatrix::from_processes(2, 2, procs.to_vec(), 0);
        let mut obs = vec![(7, 7.0)];
        m.observe_into(5, &[3, 0], &mut obs);
        assert_eq!(obs, vec![(3, 4.0), (0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "one process per vertex")]
    fn from_processes_checks_length() {
        let procs = vec![Constant::new(1.0).into()];
        let _ = ChannelMatrix::from_processes(2, 2, procs, 0);
    }
}
