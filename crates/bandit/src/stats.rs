//! Per-arm sufficient statistics and the update rules (5)–(6).

/// Running statistics for `K` arms: observed mean `µ̃_k` and play count
/// `m_k`, updated exactly as the paper's Eqs. (5) and (6):
///
/// ```text
/// µ̃_k(t) = (µ̃_k(t−1)·m_k(t−1) + ξ_k(t)) / m_k(t)   if k played,
/// m_k(t) = m_k(t−1) + 1                              if k played,
/// ```
///
/// both unchanged otherwise. Storage is `O(K) = O(MN)` — the paper's
/// headline space saving over the `O(M^N)` joint formulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmStats {
    means: Vec<f64>,
    counts: Vec<u64>,
}

impl ArmStats {
    /// Fresh statistics for `k` arms (all means 0, all counts 0).
    pub fn new(k: usize) -> Self {
        ArmStats {
            means: vec![0.0; k],
            counts: vec![0; k],
        }
    }

    /// Rebuilds statistics from previously captured parts (checkpoint
    /// restore). The vectors must be exactly as returned by
    /// [`ArmStats::means`] / [`ArmStats::counts`].
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_parts(means: Vec<f64>, counts: Vec<u64>) -> Self {
        assert_eq!(means.len(), counts.len(), "means/counts length mismatch");
        ArmStats { means, counts }
    }

    /// Number of arms `K`.
    pub fn k(&self) -> usize {
        self.means.len()
    }

    /// Observed mean `µ̃_k` (0 before the first play).
    pub fn mean(&self, arm: usize) -> f64 {
        self.means[arm]
    }

    /// Play count `m_k`.
    pub fn count(&self, arm: usize) -> u64 {
        self.counts[arm]
    }

    /// All means (slice view).
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// All counts (slice view).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Records one observation of `arm` — Eqs. (5)–(6).
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range or `value` is not finite.
    pub fn update(&mut self, arm: usize, value: f64) {
        assert!(value.is_finite(), "observation must be finite");
        let m = self.counts[arm];
        self.means[arm] = (self.means[arm] * m as f64 + value) / (m + 1) as f64;
        self.counts[arm] = m + 1;
    }

    /// Arms never played so far.
    pub fn unplayed(&self) -> Vec<usize> {
        (0..self.k()).filter(|&a| self.counts[a] == 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let s = ArmStats::new(3);
        assert_eq!(s.k(), 3);
        assert_eq!(s.mean(0), 0.0);
        assert_eq!(s.count(2), 0);
        assert_eq!(s.unplayed(), vec![0, 1, 2]);
    }

    #[test]
    fn running_mean_equals_arithmetic_mean() {
        let mut s = ArmStats::new(1);
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for &x in &xs {
            s.update(0, x);
        }
        let expect = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean(0) - expect).abs() < 1e-12);
        assert_eq!(s.count(0), xs.len() as u64);
    }

    #[test]
    fn unplayed_arms_untouched_by_updates() {
        let mut s = ArmStats::new(3);
        s.update(1, 2.0);
        assert_eq!(s.mean(0), 0.0);
        assert_eq!(s.count(0), 0);
        assert_eq!(s.unplayed(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_observation_rejected() {
        let mut s = ArmStats::new(1);
        s.update(0, f64::NAN);
    }
}
