//! Summary statistics over scalar fields.
//!
//! Used by workload validation (the synthetic generators must produce fields
//! whose distributions look like science data), by the results tables, and
//! by tests.

use serde::{Deserialize, Serialize};

/// Single-pass summary of a scalar array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub count: usize,
    pub min: f32,
    pub max: f32,
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Compute a summary; `None` for an empty slice.
    pub fn of(values: &[f32]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        // Welford's algorithm: numerically stable single pass.
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        for (i, &v) in values.iter().enumerate() {
            min = min.min(v);
            max = max.max(v);
            let d = v as f64 - mean;
            mean += d / (i + 1) as f64;
            m2 += d * (v as f64 - mean);
        }
        Some(Summary {
            count: values.len(),
            min,
            max,
            mean,
            std_dev: (m2 / values.len() as f64).sqrt(),
        })
    }

    /// Value range (max - min).
    pub fn range(&self) -> f32 {
        self.max - self.min
    }
}

/// Fixed-width histogram over `[lo, hi]` with `bins` buckets.
/// Values outside the range are clamped into the edge buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub lo: f32,
    pub hi: f32,
    pub counts: Vec<u64>,
}

impl Histogram {
    pub fn build(values: &[f32], lo: f32, hi: f32, bins: usize) -> Histogram {
        assert!(bins > 0 && hi > lo, "invalid histogram domain");
        let mut counts = vec![0u64; bins];
        let w = (hi - lo) / bins as f32;
        for &v in values {
            let b = (((v - lo) / w) as isize).clamp(0, bins as isize - 1) as usize;
            counts[b] += 1;
        }
        Histogram { lo, hi, counts }
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Shannon entropy of the normalized histogram, in bits. A rough proxy
    /// for information content; used to validate that synthetic fields are
    /// not trivially flat ("simulated data does not generally contain enough
    /// complexity", Section III).
    pub fn entropy_bits(&self) -> f64 {
        let total = self.total() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in &self.counts {
            if c > 0 {
                let p = c as f64 / total;
                h -= p * p.log2();
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constants() {
        let s = Summary::of(&[5.0; 10]).unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!(s.std_dev < 1e-9);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.mean, 2.5);
        // population std dev of 1..4 = sqrt(1.25)
        assert!((s.std_dev - 1.25f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let h = Histogram::build(&[0.1, 0.2, 0.6, -5.0, 99.0], 0.0, 1.0, 2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts, vec![3, 2]); // -5 clamps low, 99 clamps high
    }

    #[test]
    fn entropy_extremes() {
        // All mass in one bin: zero entropy.
        let h = Histogram::build(&[0.5; 100], 0.0, 1.0, 8);
        assert!(h.entropy_bits() < 1e-9);
        // Uniform over 8 bins: 3 bits.
        let vals: Vec<f32> = (0..800).map(|i| (i % 8) as f32 / 8.0 + 0.01).collect();
        let h = Histogram::build(&vals, 0.0, 1.0, 8);
        assert!((h.entropy_bits() - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn histogram_rejects_empty_domain() {
        Histogram::build(&[1.0], 1.0, 1.0, 4);
    }
}
