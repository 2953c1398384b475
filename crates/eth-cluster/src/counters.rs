//! TACC-stats-flavored counter aggregation.
//!
//! "We use TACC stats, a low-overhead monitoring infrastructure, to collect
//! hardware performance counter data, which we use for analyzing our
//! results." (Section V-A). The harness's analogue: named counters
//! collected per rank/phase and merged across the job — the render
//! statistics (fragments, ray steps, cells scanned) and transport traffic
//! flow into these.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of log-spaced histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;
/// Upper bound of the first bucket (1 ns when observing seconds).
const BUCKET_FIRST: f64 = 1e-9;
/// Geometric growth factor between bucket upper bounds.
const BUCKET_GROWTH: f64 = 2.0;

/// A fixed log-bucket latency/throughput histogram.
///
/// 64 buckets with upper bounds `1e-9 · 2^i` cover ~1 ns to ~9×10⁹ in
/// whatever unit is observed, so one shape serves queue waits (seconds),
/// journal fsyncs (seconds), and encode throughput (MB/s). Quantiles are
/// read from bucket upper bounds (≤ one factor-of-2 of error by
/// construction) and clamped to the exact observed min/max; `merge` is
/// element-wise, so per-rank histograms aggregate losslessly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Per-bucket observation counts (`HISTOGRAM_BUCKETS` entries).
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    /// Exact observed extrema (both 0 until the first observation; the
    /// `count` field disambiguates).
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Upper bound of bucket `i`.
    pub fn bucket_upper(i: usize) -> f64 {
        BUCKET_FIRST * BUCKET_GROWTH.powi(i as i32)
    }

    /// Bucket index for `value` (multiplicative walk — deterministic,
    /// no platform-dependent `log2`).
    fn bucket_index(value: f64) -> usize {
        let mut upper = BUCKET_FIRST;
        let mut i = 0;
        while value > upper && i < HISTOGRAM_BUCKETS - 1 {
            upper *= BUCKET_GROWTH;
            i += 1;
        }
        i
    }

    pub fn observe(&mut self, value: f64) {
        let v = if value.is_finite() { value.max(0.0) } else { 0.0 };
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn min_value(&self) -> f64 {
        self.min
    }

    pub fn max_value(&self) -> f64 {
        self.max
    }

    /// Quantile `q` in [0, 1], read from bucket upper bounds and clamped
    /// into the exact observed range.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Element-wise merge (cross-rank / cross-run aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Cumulative `(upper_bound, count ≤ upper_bound)` pairs for the
    /// Prometheus exposition format, trailing empty buckets elided.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        self.counts[..last.max(1)]
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                cumulative += c;
                (Self::bucket_upper(i), cumulative)
            })
            .collect()
    }
}

/// A set of named monotonically-accumulating counters, plus named
/// latency/throughput histograms (absent from serialized form when
/// unused, so pre-existing payloads round-trip unchanged).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CounterSet {
    values: BTreeMap<String, f64>,
    #[serde(default)]
    histograms: BTreeMap<String, Histogram>,
}

impl CounterSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `amount` to `name` (creating it at zero).
    pub fn add(&mut self, name: &str, amount: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += amount;
    }

    /// Set `name` to exactly `value` (gauges).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Record `value` into the named histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// The named histogram, if anything was ever observed into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Deterministic histogram iteration (sorted by name).
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty() && self.histograms.is_empty()
    }

    /// Number of scalar counters (histograms counted separately via
    /// [`CounterSet::histograms`]).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Merge another set into this one (sums scalar counters, merges
    /// histograms element-wise — cross-rank aggregation).
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in &other.values {
            self.add(k, *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Deterministic iteration (sorted by name).
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = CounterSet::new();
        assert_eq!(c.get("x"), 0.0);
        c.add("x", 2.0);
        c.add("x", 3.0);
        assert_eq!(c.get("x"), 5.0);
        c.set("x", 1.0);
        assert_eq!(c.get("x"), 1.0);
    }

    #[test]
    fn merge_sums_by_name() {
        let mut a = CounterSet::new();
        a.add("rays", 10.0);
        a.add("frags", 1.0);
        let mut b = CounterSet::new();
        b.add("rays", 5.0);
        b.add("cells", 7.0);
        a.merge(&b);
        assert_eq!(a.get("rays"), 15.0);
        assert_eq!(a.get("frags"), 1.0);
        assert_eq!(a.get("cells"), 7.0);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn iteration_sorted() {
        let mut c = CounterSet::new();
        c.add("b", 1.0);
        c.add("a", 1.0);
        let keys: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = Histogram::new();
        assert_eq!(h.p50(), 0.0);
        for i in 1..=100 {
            h.observe(i as f64 * 1e-3); // 1 ms .. 100 ms
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - 5.05).abs() < 1e-9);
        assert_eq!(h.min_value(), 1e-3);
        assert_eq!(h.max_value(), 0.1);
        // log buckets: quantiles land within a factor of 2 of the truth
        assert!(h.p50() >= 0.05 && h.p50() <= 0.1, "p50 = {}", h.p50());
        assert!(h.p95() >= 0.095 && h.p95() <= 0.1, "p95 = {}", h.p95());
        assert!(h.quantile(1.0) <= h.max_value());
    }

    #[test]
    fn histogram_merge_matches_combined_observations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..50 {
            let v = (i as f64 + 1.0) * 2e-6;
            a.observe(v);
            both.observe(v);
        }
        for i in 0..50 {
            let v = (i as f64 + 1.0) * 3e-4;
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn histogram_handles_out_of_range_and_nonfinite() {
        let mut h = Histogram::new();
        h.observe(-1.0); // clamped to 0 → first bucket
        h.observe(f64::NAN); // treated as 0
        h.observe(1e30); // clamped into the last bucket
        assert_eq!(h.count(), 3);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(buckets.last().unwrap().1, 3);
    }

    #[test]
    fn counter_set_histograms_merge_and_serialize() {
        let mut a = CounterSet::new();
        a.add("retries", 2.0);
        a.observe("queue_wait_s", 0.010);
        a.observe("queue_wait_s", 0.020);
        let mut b = CounterSet::new();
        b.observe("queue_wait_s", 0.040);
        a.merge(&b);
        let h = a.histogram("queue_wait_s").unwrap();
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 0.070).abs() < 1e-12);

        let json = serde_json::to_string(&a).unwrap();
        let back: CounterSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);

        // histogram-free sets keep their pre-histogram wire shape working
        let legacy = r#"{"values":{"rays":10.0}}"#;
        let c: CounterSet = serde_json::from_str(legacy).unwrap();
        assert_eq!(c.get("rays"), 10.0);
        assert!(c.histograms().next().is_none());
    }
}
