//! Small numeric and formatting helpers: percentiles with a tail rule,
//! the FNV-1a digest behind the output gate, metric-name validation, and
//! the one-line JSON result.

/// A percentile is only reported when at least this many samples lie
/// beyond it, so a tail figure is never a single outlier.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Samples strictly beyond the nearest-rank `p`-quantile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// 1-based nearest rank of the `p`-quantile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Smallest sample count whose `p`-quantile keeps [`MIN_BEYOND_TAIL`]
/// samples beyond it.
pub fn min_samples_for_tail(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= MIN_BEYOND_TAIL)
        .expect("p < 1")
}

/// Nearest-rank `p`-quantile of unsorted samples; `0.0` when empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// Median of unsorted samples; `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A tail percentile together with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median of the samples.
    pub p50: f64,
    /// The tail percentile.
    pub tail: f64,
    /// Number of samples.
    pub count: usize,
    /// Samples beyond the tail percentile.
    pub beyond: usize,
}

/// Median and `p`-quantile of `samples`, or an error when fewer than
/// [`MIN_BEYOND_TAIL`] samples would lie beyond the tail.
pub fn tail(samples: &[f64], p: f64) -> Result<Tail, String> {
    let beyond = samples_beyond(samples.len(), p);
    if samples.is_empty() || beyond < MIN_BEYOND_TAIL {
        return Err(format!(
            "{} samples leave {beyond} beyond p{}, need {MIN_BEYOND_TAIL}",
            samples.len(),
            p * 100.0
        ));
    }
    Ok(Tail {
        p50: median(samples),
        tail: quantile(samples, p),
        count: samples.len(),
        beyond,
    })
}

/// FNV-1a 64-bit running hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one `u64` (little-endian) into the hash.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Hash of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(bytes);
        h.0
    }
}

/// `true` when `name` is a legal metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Values print with Rust's shortest round-trip formatting, so every
/// measured digit survives; a non-finite value prints as `0`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}": {{"value": {v:?}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_keeps_ten_samples_beyond_it() {
        let n = min_samples_for_tail(0.9);
        assert_eq!(n, 100);
        assert_eq!(samples_beyond(n, 0.9), 10);
        assert!(samples_beyond(n - 1, 0.9) < MIN_BEYOND_TAIL);
        let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let t = tail(&samples, 0.9).unwrap();
        assert_eq!((t.p50, t.tail, t.count, t.beyond), (50.0, 90.0, 100, 10));
        let above = samples.iter().filter(|&&x| x > t.tail).count();
        assert_eq!(above, t.beyond);
    }

    #[test]
    fn short_sample_sets_refuse_a_tail() {
        let samples = vec![1.0; 99];
        assert!(tail(&samples, 0.9).is_err());
        assert!(tail(&[], 0.9).is_err());
        assert_eq!(min_samples_for_tail(0.99), 1000);
    }

    #[test]
    fn median_and_quantiles_are_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[4.0, 2.0, 3.0, 1.0], 0.25), 1.0);
    }

    #[test]
    fn metric_names_use_the_legal_alphabet() {
        assert!(valid_metric_name("distributed.decide_us_p50"));
        assert!(valid_metric_name("1-a"));
        for bad in ["", "_x", "a b", "a/b", "décide", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn result_line_carries_every_digit() {
        let m = [Metric {
            name: "setup_s",
            value: 0.812_734_5,
            unit: "s",
        }];
        assert_eq!(
            result_json(3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.8127345, "unit": "s"}}}"#
        );
        assert!(result_json(3, 1, &m).starts_with(r#"{"correct": false"#));
    }
}
