//! The naive joint-strategy formulation the paper argues against.
//!
//! Taking "an arm [to be] a strategy consisting of decisions from each of
//! the N users" gives `O(M^N)` arms (Section I). [`JointUcb1`] implements
//! that formulation faithfully: it enumerates every **maximal** independent
//! set of the extended conflict graph (restricting to maximal sets loses
//! nothing, since weights are non-negative) and runs plain UCB1 over them.
//! Its per-round time and memory are linear in the number of strategies —
//! exponential in `N` — the blowup the vertex-level formulation avoids.

use mhca_graph::Graph;

/// Enumerates all maximal independent sets of `graph` via Bron–Kerbosch
/// (with pivoting) on the complement, using `u128` vertex masks.
///
/// # Panics
///
/// Panics if `graph.n() > 128` — this formulation is only meant for the
/// tiny instances where it is tractable at all.
pub fn maximal_independent_sets(graph: &Graph) -> Vec<Vec<usize>> {
    let n = graph.n();
    assert!(n <= 128, "joint enumeration limited to 128 vertices");
    if n == 0 {
        return vec![vec![]];
    }
    // Complement adjacency: candidates that can still join an IS with v.
    let full: u128 = if n == 128 { !0 } else { (1u128 << n) - 1 };
    let nonadj: Vec<u128> = (0..n)
        .map(|v| {
            let mut mask = full & !(1u128 << v);
            for &u in graph.neighbors(v) {
                mask &= !(1u128 << u);
            }
            mask
        })
        .collect();
    let mut out = Vec::new();
    bron_kerbosch(&nonadj, full, 0, &mut Vec::new(), &mut out);
    out
}

fn bron_kerbosch(
    nonadj: &[u128],
    mut p: u128,
    mut x: u128,
    current: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if p == 0 && x == 0 {
        let mut set = current.clone();
        set.sort_unstable();
        out.push(set);
        return;
    }
    // Pivot: vertex of P ∪ X with most "complement-neighbors" in P.
    let pux = p | x;
    let pivot = iter_bits(pux)
        .max_by_key(|&u| (p & nonadj[u]).count_ones())
        .expect("P ∪ X non-empty");
    let candidates = p & !nonadj[pivot];
    for v in iter_bits(candidates).collect::<Vec<_>>() {
        let bit = 1u128 << v;
        current.push(v);
        bron_kerbosch(nonadj, p & nonadj[v], x & nonadj[v], current, out);
        current.pop();
        p &= !bit;
        x |= bit;
    }
}

fn iter_bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(b)
        }
    })
}

/// UCB1 over whole strategies — the `O(M^N)`-arm baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct JointUcb1 {
    strategies: Vec<Vec<usize>>,
    means: Vec<f64>,
    counts: Vec<u64>,
    t: u64,
    reward_scale: f64,
}

impl JointUcb1 {
    /// Builds the strategy arms by enumerating all maximal independent
    /// sets of `graph` (of the extended conflict graph `H`).
    ///
    /// `reward_scale` normalizes strategy rewards into `[0, 1]` for the
    /// UCB1 confidence radius (pass the maximum achievable strategy
    /// throughput, e.g. `N · max-rate`).
    ///
    /// # Panics
    ///
    /// Panics if `graph.n() > 128` or `reward_scale <= 0`.
    pub fn new(graph: &Graph, reward_scale: f64) -> Self {
        assert!(reward_scale > 0.0, "reward scale must be positive");
        let strategies = maximal_independent_sets(graph);
        let n_arms = strategies.len();
        JointUcb1 {
            strategies,
            means: vec![0.0; n_arms],
            counts: vec![0; n_arms],
            t: 0,
            reward_scale,
        }
    }

    /// Number of strategy arms (exponential in `N` in general).
    pub fn n_strategies(&self) -> usize {
        self.strategies.len()
    }

    /// The vertex set of strategy `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn strategy(&self, idx: usize) -> &[usize] {
        &self.strategies[idx]
    }

    /// Selects the next strategy by UCB1 (unplayed strategies first, in
    /// index order). Advances the internal round counter.
    pub fn select(&mut self) -> usize {
        self.t += 1;
        if let Some(unplayed) = self.counts.iter().position(|&c| c == 0) {
            return unplayed;
        }
        let ln_t = (self.t as f64).ln();
        (0..self.n_strategies())
            .map(|i| {
                let bonus = (2.0 * ln_t / self.counts[i] as f64).sqrt();
                (i, self.means[i] / self.reward_scale + bonus)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite index"))
            .expect("at least one strategy")
            .0
    }

    /// Records the observed total reward of strategy `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `reward` is not finite.
    pub fn update(&mut self, idx: usize, reward: f64) {
        assert!(reward.is_finite(), "reward must be finite");
        let c = self.counts[idx];
        self.means[idx] = (self.means[idx] * c as f64 + reward) / (c + 1) as f64;
        self.counts[idx] = c + 1;
    }

    /// Observed mean reward of strategy `idx`.
    pub fn mean(&self, idx: usize) -> f64 {
        self.means[idx]
    }

    /// Play count of strategy `idx`.
    pub fn count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_graph::topology;

    #[test]
    fn mis_enumeration_on_path3() {
        // Path 0-1-2: maximal ISs are {1} and {0,2}.
        let g = topology::line(3);
        let mut sets = maximal_independent_sets(&g);
        sets.sort();
        assert_eq!(sets, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn mis_enumeration_on_complete_graph() {
        let g = topology::complete(4);
        let mut sets = maximal_independent_sets(&g);
        sets.sort();
        assert_eq!(sets, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn mis_enumeration_on_empty_graph() {
        let g = topology::independent(3);
        let sets = maximal_independent_sets(&g);
        assert_eq!(sets, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn mis_count_grows_exponentially_on_matchings() {
        // A perfect matching of k edges has 2^k maximal ISs.
        for k in 1..=6 {
            let edges: Vec<_> = (0..k).map(|i| (2 * i, 2 * i + 1)).collect();
            let g = Graph::from_edges(2 * k, &edges);
            assert_eq!(maximal_independent_sets(&g).len(), 1 << k);
        }
    }

    #[test]
    fn every_enumerated_set_is_maximal_and_independent() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let n = rng.gen_range(1..=10);
            let mut g = Graph::builder(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen::<f64>() < 0.4 {
                        g.add_edge(u, v);
                    }
                }
            }
            let g = g.build();
            for set in maximal_independent_sets(&g) {
                assert!(g.is_independent(&set));
                // Maximality: every vertex outside conflicts with the set.
                for v in 0..n {
                    if !set.contains(&v) {
                        assert!(
                            set.iter().any(|&u| g.has_edge(u, v)),
                            "set {set:?} not maximal (can add {v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ucb1_finds_the_best_strategy() {
        // Path 0-1-2 with deterministic rewards: {0,2} pays 2, {1} pays 1.
        let g = topology::line(3);
        let mut ucb = JointUcb1::new(&g, 2.0);
        for _ in 0..200 {
            let idx = ucb.select();
            let reward = if ucb.strategy(idx) == [0, 2] {
                2.0
            } else {
                1.0
            };
            ucb.update(idx, reward);
        }
        let best = (0..ucb.n_strategies())
            .max_by_key(|&i| ucb.count(i))
            .unwrap();
        assert_eq!(ucb.strategy(best), &[0, 2]);
    }

    #[test]
    fn unplayed_strategies_are_tried_first() {
        let g = topology::line(3);
        let mut ucb = JointUcb1::new(&g, 2.0);
        let a = ucb.select();
        ucb.update(a, 1.0);
        let b = ucb.select();
        assert_ne!(a, b, "second round must try the other strategy");
    }

    use mhca_graph::Graph;
}
