//! Shared helpers for the analysis binaries.
//!
//! The binaries in `src/bin/` print CSV on stdout plus a short commentary
//! on the expected shape, except `decide_profile`, which writes a JSON
//! report (the paper's figures and tables themselves are `mhca-campaign`
//! registry scenarios).
//!
//! The presentation layer is shared: [`csv`] holds the one CSV
//! formatting/escaping implementation and [`report`] the per-figure
//! renderers, both reused by the `mhca-campaign` orchestration layer for
//! its artifact files.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod csv;
pub mod report;

/// Prints one CSV row from anything displayable (escaped via
/// [`csv::format_row`]).
pub fn csv_row<T: std::fmt::Display>(cells: &[T]) {
    println!("{}", csv::format_row(cells));
}

/// Evenly spaced sample indices covering `0..len` (always including the
/// last index), for decimating long per-slot series into readable CSV.
pub fn sample_indices(len: usize, max_points: usize) -> Vec<usize> {
    if len == 0 || max_points == 0 {
        return Vec::new();
    }
    if len <= max_points {
        return (0..len).collect();
    }
    let stride = len as f64 / max_points as f64;
    let mut idx: Vec<usize> = (0..max_points)
        .map(|i| (((i as f64 + 0.5) * stride) as usize).min(len - 1))
        .collect();
    if idx.last() != Some(&(len - 1)) {
        idx.push(len - 1);
    }
    idx.dedup();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_indices_cover_and_bound() {
        let idx = sample_indices(1000, 20);
        assert!(idx.len() <= 21);
        assert_eq!(*idx.last().unwrap(), 999);
        for w in idx.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn sample_indices_short_input() {
        assert_eq!(sample_indices(3, 10), vec![0, 1, 2]);
        assert!(sample_indices(0, 10).is_empty());
    }
}
