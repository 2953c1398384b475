//! Median and quartile arithmetic shared by `run`, `trace` and `compare`.

use serde::{Deserialize, Serialize};

/// Median, quartiles and sample count of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
    /// them (exclusive method), so a spread printed here is the spread the
    /// acceptance check sees. Panics on an empty slice: every metric has at
    /// least one sample or the child failed earlier.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let quantile = |i: usize| {
            if n == 1 {
                return sorted[0];
            }
            // position i·(n+1)/4 on a 1-based axis, clamped so both
            // neighbours exist (extrapolates past the ends for tiny n)
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&v).spread() - 1.0).abs() < 1e-12);
    }
}
