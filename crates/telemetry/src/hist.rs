//! Log-bucketed histograms with a guaranteed relative quantile error.
//!
//! The design is the classic log-spaced sketch (as in DDSketch): a
//! value `v > 0` lands in bucket `ceil(log_γ v)` where
//! `γ = (1 + α) / (1 − α)` for a target relative error `α`, so the
//! bucket bounds `(γ^(i−1), γ^i]` pin the reported bucket midpoint
//! `2γ^i / (γ + 1)` within `α · v` of every value in the bucket.
//! Quantiles are answered by rank-walking the buckets, which means any
//! reported quantile is within relative error `α` of the *exact*
//! nearest-rank quantile — a bound the crate's tests check against
//! adversarial distributions, not just on average.
//!
//! Everything is deterministic: buckets live in a [`BTreeMap`] keyed by
//! integer index, observation order cannot change the stored state, and
//! merging shards is exact (bucket counts add).

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::json::ObjectWriter;

/// Default target relative error for registry histograms: 1%.
pub const DEFAULT_RELATIVE_ERROR: f64 = 0.01;

/// A log-bucketed histogram of non-negative samples with bounded
/// relative quantile error.
///
/// Zero (and any negative or non-finite input, which clamps/drops —
/// see [`LogHistogram::observe`]) is tracked in a dedicated exact
/// bucket, so sparse series with real zero gaps don't distort the
/// positive buckets.
///
/// # Examples
///
/// ```
/// use litmus_telemetry::LogHistogram;
///
/// let mut hist = LogHistogram::new(0.01);
/// for v in [1.0, 2.0, 4.0, 8.0, 1000.0] {
///     hist.observe(v);
/// }
/// let p50 = hist.quantile(0.5);
/// assert!((p50 - 4.0).abs() <= 0.01 * 4.0);
/// assert_eq!(hist.count(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    relative_error: f64,
    gamma: f64,
    inv_log_gamma: f64,
    zero_count: u64,
    dropped: u64,
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// A histogram guaranteeing relative quantile error at most
    /// `relative_error` (clamped into `[1e-4, 0.5]`).
    pub fn new(relative_error: f64) -> Self {
        let alpha = if relative_error.is_finite() {
            relative_error.clamp(1e-4, 0.5)
        } else {
            DEFAULT_RELATIVE_ERROR
        };
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        LogHistogram {
            relative_error: alpha,
            gamma,
            inv_log_gamma: 1.0 / gamma.ln(),
            zero_count: 0,
            dropped: 0,
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The guaranteed relative quantile error bound.
    pub fn relative_error(&self) -> f64 {
        self.relative_error
    }

    fn index(&self, v: f64) -> i32 {
        (v.ln() * self.inv_log_gamma).ceil() as i32
    }

    fn bucket_value(&self, index: i32) -> f64 {
        2.0 * self.gamma.powi(index) / (self.gamma + 1.0)
    }

    /// Records one sample. Negative values clamp to the zero bucket
    /// (telemetry series here — latencies, counts, slowdowns — are
    /// non-negative by construction, so a negative input is a
    /// zero-rate observation, not a distinct magnitude); non-finite
    /// values are dropped and counted in [`LogHistogram::dropped`].
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.dropped += 1;
            return;
        }
        let v = v.max(0.0);
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v == 0.0 {
            self.zero_count += 1;
        } else {
            *self.buckets.entry(self.index(v)).or_insert(0) += 1;
        }
    }

    /// Records `n` identical samples in one update — the bulk form the
    /// cluster driver's gap skipping uses so a million-slice idle
    /// stretch costs one histogram touch. Exactly equivalent to `n`
    /// calls of [`LogHistogram::observe`] for `v ≤ 0` and non-finite
    /// `v` (adding `0.0` to the sum `n` times equals adding it once);
    /// for positive `v` the counts are exact and the sum accumulates
    /// as one fused `v · n` add rather than `n` separate adds.
    pub fn observe_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        if !v.is_finite() {
            self.dropped += n;
            return;
        }
        let v = v.max(0.0);
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v == 0.0 {
            self.zero_count += n;
        } else {
            *self.buckets.entry(self.index(v)).or_insert(0) += n;
        }
    }

    /// Samples recorded (zero bucket included, dropped excluded).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (after the negative clamp).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Samples recorded exactly at zero (or clamped there).
    pub fn zero_count(&self) -> u64 {
        self.zero_count
    }

    /// Non-finite samples that were dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Quantile `q ∈ [0, 1]` (nearest rank), within relative error
    /// [`LogHistogram::relative_error`] of the exact quantile of the
    /// recorded samples; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        if rank < self.zero_count {
            return 0.0;
        }
        let mut seen = self.zero_count;
        for (&index, &bucket_count) in &self.buckets {
            seen += bucket_count;
            if rank < seen {
                return self.bucket_value(index);
            }
        }
        // Unreachable for coherent counts; fall back to the max.
        self.max()
    }

    /// Several quantiles in `qs` order from one bucket walk (`qs`
    /// need not be sorted; each is answered independently).
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }

    /// Folds another histogram into this one. Merging is exact when
    /// both sides share the same relative error (bucket counts add);
    /// merging mismatched resolutions re-observes nothing and is
    /// rejected with `false`.
    #[must_use = "a false return means the histograms were not merged"]
    pub fn merge(&mut self, other: &LogHistogram) -> bool {
        if (self.relative_error - other.relative_error).abs() > f64::EPSILON {
            return false;
        }
        for (&index, &bucket_count) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += bucket_count;
        }
        self.zero_count += other.zero_count;
        self.dropped += other.dropped;
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        true
    }

    /// Occupied positive buckets in ascending index order, as
    /// `(index, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.buckets.iter().map(|(&i, &c)| (i, c))
    }

    /// Appends one JSONL line (no trailing newline) describing the
    /// histogram to `out`: scalar stats, the standard quantiles, and
    /// the raw `[index, count]` bucket pairs so downstream tooling can
    /// re-derive any quantile.
    pub fn write_json(&self, name: &str, out: &mut String) {
        let mut obj = ObjectWriter::open(out);
        obj.str_field("type", "histogram").str_field("name", name);
        obj.f64_field("relative_error", self.relative_error);
        obj.u64_field("count", self.count)
            .u64_field("zero", self.zero_count)
            .u64_field("dropped", self.dropped);
        obj.f64_field("sum", self.sum)
            .f64_field("min", self.min())
            .f64_field("max", self.max());
        for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            obj.f64_field(label, self.quantile(q));
        }
        let out = obj.key("buckets");
        out.push('[');
        for (n, (i, c)) in self.buckets().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{i},{c}]");
        }
        out.push(']');
        obj.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let hist = LogHistogram::new(0.01);
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.quantile(0.5), 0.0);
        assert_eq!(hist.min(), 0.0);
        assert_eq!(hist.max(), 0.0);
        assert_eq!(hist.mean(), 0.0);
    }

    #[test]
    fn zero_and_negative_land_in_the_zero_bucket() {
        let mut hist = LogHistogram::new(0.01);
        hist.observe(0.0);
        hist.observe(-3.0);
        hist.observe(5.0);
        assert_eq!(hist.zero_count(), 2);
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.quantile(0.0), 0.0);
        assert!((hist.quantile(1.0) - 5.0).abs() <= 0.01 * 5.0);
    }

    #[test]
    fn non_finite_samples_are_dropped_not_recorded() {
        let mut hist = LogHistogram::new(0.01);
        hist.observe(f64::NAN);
        hist.observe(f64::INFINITY);
        hist.observe(2.0);
        assert_eq!(hist.dropped(), 2);
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn merge_of_shards_equals_single_histogram() {
        let values: Vec<f64> = (1..200).map(|i| (i as f64) * 0.37).collect();
        let mut whole = LogHistogram::new(0.01);
        let mut left = LogHistogram::new(0.01);
        let mut right = LogHistogram::new(0.01);
        for (i, &v) in values.iter().enumerate() {
            whole.observe(v);
            if i % 2 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
        }
        assert!(left.merge(&right));
        assert_eq!(left, whole);
    }

    #[test]
    fn merge_rejects_mismatched_resolution() {
        let mut a = LogHistogram::new(0.01);
        let b = LogHistogram::new(0.05);
        assert!(!a.merge(&b));
    }

    #[test]
    fn json_line_is_wellformed_and_deterministic() {
        let mut hist = LogHistogram::new(0.02);
        for v in [0.0, 1.0, 10.0, 100.0] {
            hist.observe(v);
        }
        let (mut a, mut b) = (String::new(), String::new());
        hist.write_json("queue_wait_ms", &mut a);
        hist.write_json("queue_wait_ms", &mut b);
        assert_eq!(a, b);
        assert!(a.starts_with(r#"{"type":"histogram","name":"queue_wait_ms""#));
        assert!(a.contains(r#""count":4"#));
        assert!(a.contains(r#""zero":1"#));
    }
}
