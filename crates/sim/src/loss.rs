//! Order-independent per-flood loss sampling.
//!
//! The legacy lossy path drew one `StdRng` sample per relay broadcast from
//! a single engine-wide stream, which had two scaling problems. First,
//! **cost**: at long horizons the per-reception draws dominate lossy
//! scenarios. Second, **coupling**: every flood's realization depended on
//! how many draws all *earlier* floods consumed, so no two floods could be
//! sampled independently (and batched sampling could never be pinned
//! byte-identical to per-reception sampling).
//!
//! [`SkipSampler`] fixes both with counter-based geometric skip-sampling.
//! Each flood `f` owns a private drop stream derived by hashing
//! `(seed, f, draw_index)` (a SplitMix64-style finalizer — the same
//! counter-based construction the channel matrix uses for paired
//! comparisons). Instead of one Bernoulli draw per relay, the sampler
//! draws the *gap to the next dropped relay* — geometric with parameter
//! `p` — so a flood with `k` drops costs `k + 1` hashes **however many
//! relays it has**. Because the gap sequence is a pure function of
//! `(seed, flood, draw_index)`:
//!
//! * per-relay queries ([`SkipSampler::should_drop`]) and batch
//!   materialization ([`SkipSampler::fill_drops`]) are byte-identical by
//!   construction, and
//! * a flood's realization is independent of every other flood — floods
//!   can be sampled in any order, on any tile, with identical results.
//!
//! The price is a one-time stream change: lossy realizations differ from
//! the pre-skip-sampling releases (same distribution, different draws).
//! BENCHMARKS.md ("Large-N") records the change.

/// SplitMix64 finalizer: a bijective avalanche mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Weyl increment of SplitMix64 (odd, so every counter maps to a distinct
/// pre-mix state).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Counter-based uniform: a value in the open interval `(0, 1)` for draw
/// `draw` of stream `stream` under `seed`, a pure function of the three
/// (SplitMix64-style hashing, no state). Every stream is independent of
/// every other, so streams can be sampled in any order. The loss sampler
/// keys its streams by flood; the traffic arrival process by flow, with
/// the slot as the draw.
#[inline]
pub fn counter_uniform(seed: u64, stream: u64, draw: u64) -> f64 {
    let x = mix(seed
        .wrapping_add(stream.wrapping_mul(GOLDEN))
        .wrapping_add(mix(draw.wrapping_mul(GOLDEN))));
    // 53 mantissa bits, offset by half an ulp so 0 is unreachable (ln(0)
    // would be -inf) and 1 is unreachable too.
    ((x >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// Counter-based geometric skip-sampler over one engine's relay stream.
///
/// Relays of flood `f` are indexed `0, 1, 2, …` in delivery order; relay
/// `i` is dropped iff `i` appears in the flood's drop sequence. The
/// sequence is generated lazily, one geometric gap per drop.
///
/// # Example
///
/// ```
/// use mhca_sim::SkipSampler;
///
/// let mut s = SkipSampler::new(0.25, 7);
/// s.begin_flood();
/// let stream: Vec<bool> = (0..100).map(|_| s.should_drop()).collect();
/// // Batch materialization of the same flood is byte-identical.
/// let mut t = SkipSampler::new(0.25, 7);
/// t.begin_flood();
/// let mut drops = Vec::new();
/// t.fill_drops(100, &mut drops);
/// let batch: Vec<bool> = (0..100).map(|i| drops.contains(&(i as u64))).collect();
/// assert_eq!(stream, batch);
/// ```
#[derive(Debug, Clone)]
pub struct SkipSampler {
    prob: f64,
    seed: u64,
    /// `ln(1 - prob)`; negative and finite for `prob ∈ (0, 1)`.
    ln_q: f64,
    /// Index of the current flood (pre-incremented by
    /// [`SkipSampler::begin_flood`], so the first flood is `1`).
    flood: u64,
    /// Next relay index of the current flood.
    relay: u64,
    /// Relay index of the current flood's next drop.
    next_drop: u64,
    /// Gaps drawn so far for the current flood.
    draws: u64,
}

impl SkipSampler {
    /// Sampler dropping each relay independently with probability `prob`,
    /// streams keyed by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `prob ∉ [0, 1)`.
    pub fn new(prob: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&prob),
            "loss probability must be in [0, 1)"
        );
        SkipSampler {
            prob,
            seed,
            ln_q: (1.0 - prob).ln(),
            flood: 0,
            relay: 0,
            next_drop: u64::MAX,
            draws: 0,
        }
    }

    /// The drop probability.
    pub fn prob(&self) -> f64 {
        self.prob
    }

    /// Index of the current flood — the sampler's stream position.
    /// `0` until the first [`SkipSampler::begin_flood`].
    pub fn flood_index(&self) -> u64 {
        self.flood
    }

    /// Repositions the stream so the next [`SkipSampler::begin_flood`]
    /// starts flood `flood + 1` — checkpoint restore. Because each
    /// flood's drop realization is a pure function of `(seed, flood)`,
    /// restoring the flood index between floods reproduces the remaining
    /// stream exactly; per-flood progress is reset, so this must not be
    /// called while a flood's relays are still being queried.
    pub fn set_flood_index(&mut self, flood: u64) {
        self.flood = flood;
        self.relay = 0;
        self.draws = 0;
        self.next_drop = u64::MAX;
    }

    /// Geometric gap (failures before the next success) for draw `k` of
    /// the current flood: `floor(ln(u) / ln(1 - p))`.
    #[inline]
    fn gap(&self, k: u64) -> u64 {
        if self.prob <= 0.0 {
            return u64::MAX;
        }
        let g = counter_uniform(self.seed, self.flood, k).ln() / self.ln_q;
        // `as` saturates, so gaps beyond any real relay count are fine.
        g as u64
    }

    /// Starts the next flood's drop stream. Must be called once per flood
    /// before its relay queries; floods are numbered by call order, so an
    /// engine replaying the same flood sequence reproduces the same
    /// drops regardless of how each flood was queried.
    pub fn begin_flood(&mut self) {
        self.flood += 1;
        self.relay = 0;
        self.draws = 1;
        self.next_drop = self.gap(0);
    }

    /// Whether the current flood's next relay (in delivery order) is
    /// dropped; advances the relay index. Amortized O(1): one hash per
    /// *drop*, none per surviving relay.
    #[inline]
    pub fn should_drop(&mut self) -> bool {
        let i = self.relay;
        self.relay += 1;
        if i < self.next_drop {
            return false;
        }
        debug_assert_eq!(i, self.next_drop);
        let k = self.draws;
        self.draws += 1;
        self.next_drop = i.saturating_add(1).saturating_add(self.gap(k));
        true
    }

    /// Batch form: appends to `out` every dropped relay index `< len` of
    /// the current flood, ascending, leaving the sampler positioned at
    /// relay `len` (so mixing batch and per-relay queries stays
    /// consistent). Byte-identical to `len` successive
    /// [`SkipSampler::should_drop`] calls by construction.
    pub fn fill_drops(&mut self, len: u64, out: &mut Vec<u64>) {
        while self.next_drop < len {
            out.push(self.next_drop);
            let i = self.next_drop;
            let k = self.draws;
            self.draws += 1;
            self.next_drop = i.saturating_add(1).saturating_add(self.gap(k));
        }
        self.relay = self.relay.max(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_relay_and_batch_sampling_are_byte_identical() {
        for seed in 0..20u64 {
            for &prob in &[0.05, 0.3, 0.7, 0.95] {
                for len in [0u64, 1, 17, 400] {
                    let mut per = SkipSampler::new(prob, seed);
                    let mut bat = SkipSampler::new(prob, seed);
                    // Several floods so non-first flood streams are covered.
                    for flood in 0..3 {
                        per.begin_flood();
                        bat.begin_flood();
                        let stream: Vec<u64> = (0..len).filter(|_| per.should_drop()).collect();
                        let mut batch = Vec::new();
                        bat.fill_drops(len, &mut batch);
                        assert_eq!(
                            stream, batch,
                            "seed {seed} prob {prob} len {len} flood {flood}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn floods_are_order_independent() {
        // Flood 3's realization must not depend on how floods 1–2 were
        // queried (or whether they were queried at all).
        let observe_flood_3 = |spent_relays: &[u64]| {
            let mut s = SkipSampler::new(0.4, 99);
            for &spent in spent_relays {
                s.begin_flood();
                for _ in 0..spent {
                    let _ = s.should_drop();
                }
            }
            s.begin_flood();
            let mut drops = Vec::new();
            s.fill_drops(200, &mut drops);
            drops
        };
        let a = observe_flood_3(&[0, 0]);
        let b = observe_flood_3(&[1000, 3]);
        let c = observe_flood_3(&[17, 170]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(!a.is_empty(), "p=0.4 over 200 relays must drop something");
    }

    #[test]
    fn empirical_drop_rate_matches_probability() {
        for &prob in &[0.1, 0.5, 0.9] {
            let mut s = SkipSampler::new(prob, 1234);
            let mut drops = 0u64;
            let total = 200_000u64;
            s.begin_flood();
            for _ in 0..total {
                drops += u64::from(s.should_drop());
            }
            let rate = drops as f64 / total as f64;
            assert!(
                (rate - prob).abs() < 0.01,
                "prob {prob}: empirical rate {rate}"
            );
        }
    }

    #[test]
    fn zero_probability_never_drops() {
        let mut s = SkipSampler::new(0.0, 5);
        for _ in 0..3 {
            s.begin_flood();
            for _ in 0..1000 {
                assert!(!s.should_drop());
            }
        }
    }

    #[test]
    fn distinct_seeds_and_floods_give_distinct_streams() {
        let drops = |seed: u64, floods_before: u64| {
            let mut s = SkipSampler::new(0.5, seed);
            for _ in 0..=floods_before {
                s.begin_flood();
            }
            let mut out = Vec::new();
            s.fill_drops(64, &mut out);
            out
        };
        assert_ne!(drops(1, 0), drops(2, 0), "seeds must decorrelate");
        assert_ne!(drops(1, 0), drops(1, 1), "floods must decorrelate");
    }
}
