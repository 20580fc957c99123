//! Order statistics for latency samples.

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of a non-empty sample (mean of the two middle values for even n).
/// Returns NaN for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile of the reported order statistic (share of samples at or
    /// below it, in percent).
    pub percentile: f64,
    /// The order statistic itself.
    pub value: f64,
}

/// The largest sample with exactly [`TAIL_BEYOND`] samples above it, or
/// `None` when fewer than `2 × TAIL_BEYOND` samples leave no such sample at
/// or above the median (a "tail" below the median would mislead).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let at = n - TAIL_BEYOND - 1;
    Some(Tail {
        percentile: 100.0 * (at + 1) as f64 / n as f64,
        value: s[at],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
