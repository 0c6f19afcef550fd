//! Verification helpers for solver outputs.

/// Total weight of a vertex set.
///
/// # Panics
///
/// Panics if a vertex is out of range of `weights`.
pub fn weight_of(weights: &[f64], set: &[usize]) -> f64 {
    set.iter().map(|&v| weights[v]).sum()
}

/// `achieved / optimal`, defined as 1 when both are zero.
///
/// # Panics
///
/// Panics if `optimal < achieved` beyond floating-point noise is *not*
/// checked here — callers comparing an approximation against an exact
/// optimum may legitimately pass `achieved > optimal` when "optimal" is
/// itself approximate.
pub fn ratio(achieved: f64, optimal: f64) -> f64 {
    if optimal == 0.0 {
        if achieved == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        achieved / optimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_of_sums() {
        assert_eq!(weight_of(&[1.0, 2.0, 3.0], &[0, 2]), 4.0);
        assert_eq!(weight_of(&[1.0], &[]), 0.0);
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(1.0, 2.0), 0.5);
        assert_eq!(ratio(1.0, 0.0), f64::INFINITY);
    }
}
