//! Statistics used by the paper's evaluation protocol (Section 7.1):
//! min/mean/max over 5 repetitions, geometric means over the benchmark
//! networks and geometric standard deviations.

/// Minimum, arithmetic mean and maximum of a series of repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Smallest observed value.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty slice of observations.
    ///
    /// # Panics
    /// Panics if `values` is empty or contains NaN.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize zero observations");
        assert!(values.iter().all(|v| !v.is_nan()), "NaN observation");
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Summary { min, mean, max }
    }
}

/// Geometric mean of positive values (zeroes are clamped to a tiny epsilon so
/// a single degenerate observation cannot zero out the whole aggregate).
///
/// Returns `None` on an empty slice: a sweep that produced zero results must
/// not silently read as a quotient of 1.0 ("no change") in the artifact.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|&v| v.max(1e-12).ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Geometric standard deviation of positive values.
///
/// Returns `None` on an empty slice (no observations is not the same as no
/// spread); a single observation legitimately has spread 1.0.
pub fn geometric_std_dev(values: &[f64]) -> Option<f64> {
    let gm = geometric_mean(values)?;
    if values.len() < 2 {
        return Some(1.0);
    }
    let var: f64 = values
        .iter()
        .map(|&v| (v.max(1e-12) / gm).ln().powi(2))
        .sum::<f64>()
        / values.len() as f64;
    Some(var.sqrt().exp())
}

/// Geometric mean of the min/mean/max components across networks: the 9
/// quotient values `qT_min, …, qCo_max` of the paper collapse to 3 values per
/// metric; this helper aggregates one component across all networks.
///
/// Returns `None` when there are no per-network summaries to aggregate.
pub fn aggregate_summaries(per_network: &[Summary]) -> Option<Summary> {
    Some(Summary {
        min: geometric_mean(&per_network.iter().map(|s| s.min).collect::<Vec<_>>())?,
        mean: geometric_mean(&per_network.iter().map(|s| s.mean).collect::<Vec<_>>())?,
        max: geometric_mean(&per_network.iter().map(|s| s.max).collect::<Vec<_>>())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_values() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_empty_is_none() {
        // An empty sweep must be visible as "no data", never as quotient 1.0.
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_std_dev(&[]), None);
        assert_eq!(aggregate_summaries(&[]), None);
    }

    #[test]
    fn geometric_std_dev_of_constant_series_is_one() {
        assert!((geometric_std_dev(&[3.0, 3.0, 3.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!(geometric_std_dev(&[1.0, 10.0]).unwrap() > 1.0);
        assert_eq!(geometric_std_dev(&[5.0]), Some(1.0));
    }

    #[test]
    fn aggregate_summaries_geomean() {
        let a = Summary {
            min: 1.0,
            mean: 2.0,
            max: 4.0,
        };
        let b = Summary {
            min: 4.0,
            mean: 2.0,
            max: 1.0,
        };
        let agg = aggregate_summaries(&[a, b]).unwrap();
        assert!((agg.min - 2.0).abs() < 1e-9);
        assert!((agg.mean - 2.0).abs() < 1e-9);
        assert!((agg.max - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn summary_of_empty_panics() {
        let _ = Summary::of(&[]);
    }
}
