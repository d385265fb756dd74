//! The metric registry: monotonic counters, last/min/max gauges and
//! log-bucketed histograms, keyed by static names.
//!
//! The registry is a plain deterministic data structure — no atomics,
//! no interior mutability, no wall clock. The cluster driver owns one
//! per replay and updates it single-threadedly at slice boundaries, so
//! the exported state is a pure function of the replay. Names are
//! `&'static str` because every metric in the stack is declared at a
//! call site; `BTreeMap` keys make export order (and therefore the
//! JSONL byte stream) independent of insertion order.

use std::collections::BTreeMap;

use crate::hist::LogHistogram;
use crate::json::ObjectWriter;

/// A last-value gauge that also tracks its range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauge {
    /// Most recently set value.
    pub last: f64,
    /// Smallest value ever set.
    pub min: f64,
    /// Largest value ever set.
    pub max: f64,
    /// Number of sets.
    pub sets: u64,
}

impl Gauge {
    fn new(value: f64) -> Self {
        Gauge {
            last: value,
            min: value,
            max: value,
            sets: 1,
        }
    }

    fn set(&mut self, value: f64) {
        self.set_n(value, 1);
    }

    fn set_n(&mut self, value: f64, n: u64) {
        self.last = value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sets += n;
    }

    /// Appends the gauge's JSONL line (no trailing newline) to `out`.
    fn write_json(&self, name: &str, out: &mut String) {
        let mut obj = ObjectWriter::open(out);
        obj.str_field("type", "gauge").str_field("name", name);
        obj.f64_field("last", self.last)
            .f64_field("min", self.min)
            .f64_field("max", self.max);
        obj.u64_field("sets", self.sets);
        obj.close();
    }
}

/// Deterministic metric store for one replay.
///
/// # Examples
///
/// ```
/// use litmus_telemetry::Registry;
///
/// let mut registry = Registry::new(0.01);
/// registry.inc("arrivals", 3);
/// registry.gauge_set("fleet.machines", 8.0);
/// registry.observe("queue_wait_ms", 12.5);
/// assert_eq!(registry.counter("arrivals"), 3);
/// assert_eq!(registry.histogram("queue_wait_ms").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    histogram_relative_error: f64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

impl Registry {
    /// An empty registry whose histograms guarantee
    /// `histogram_relative_error` quantile accuracy.
    pub fn new(histogram_relative_error: f64) -> Self {
        Registry {
            histogram_relative_error,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Adds `by` to the monotonic counter `name` (creating it at 0).
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges
            .entry(name)
            .and_modify(|gauge| gauge.set(value))
            .or_insert_with(|| Gauge::new(value));
    }

    /// Applies `n` consecutive identical sets to gauge `name` in one
    /// update — exactly equivalent to calling [`Registry::gauge_set`]
    /// `n` times (last/min/max fold to the same state; the set count
    /// adds `n`). A no-op when `n` is zero. The bulk form exists so
    /// the cluster driver can account a skipped idle stretch without
    /// touching the gauge once per slice.
    pub fn gauge_set_n(&mut self, name: &'static str, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.gauges
            .entry(name)
            .and_modify(|gauge| gauge.set_n(value, n))
            .or_insert_with(|| {
                let mut gauge = Gauge::new(value);
                gauge.sets = n;
                gauge
            });
    }

    /// Gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// Records `value` into histogram `name` (creating it with the
    /// registry's relative-error bound).
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| LogHistogram::new(self.histogram_relative_error))
            .observe(value);
    }

    /// Records `n` identical samples into histogram `name` in one
    /// update (see [`LogHistogram::observe_n`] for the exactness
    /// contract). A no-op when `n` is zero — no histogram is created.
    pub fn observe_n(&mut self, name: &'static str, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.histograms
            .entry(name)
            .or_insert_with(|| LogHistogram::new(self.histogram_relative_error))
            .observe_n(value, n);
    }

    /// Histogram `name`, if anything was ever observed into it.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &value)| (name, value))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, &Gauge)> + '_ {
        self.gauges.iter().map(|(&name, gauge)| (name, gauge))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.histograms.iter().map(|(&name, hist)| (name, hist))
    }

    /// Appends the whole registry as JSONL lines (counters, then
    /// gauges, then histograms, each name-sorted) to `out`.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        for (name, value) in self.counters() {
            let mut obj = ObjectWriter::open(out);
            obj.str_field("type", "counter").str_field("name", name);
            obj.u64_field("value", value);
            obj.close();
            out.push('\n');
        }
        for (name, gauge) in self.gauges() {
            gauge.write_json(name, out);
            out.push('\n');
        }
        for (name, hist) in self.histograms() {
            hist.write_json(name, out);
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_default_to_zero() {
        let mut registry = Registry::new(0.01);
        assert_eq!(registry.counter("missing"), 0);
        registry.inc("x", 2);
        registry.inc("x", 3);
        assert_eq!(registry.counter("x"), 5);
    }

    #[test]
    fn gauges_track_last_min_max() {
        let mut registry = Registry::new(0.01);
        for v in [4.0, 2.0, 9.0] {
            registry.gauge_set("fleet", v);
        }
        let gauge = registry.gauge("fleet").unwrap();
        assert_eq!(
            (gauge.last, gauge.min, gauge.max, gauge.sets),
            (9.0, 2.0, 9.0, 3)
        );
    }

    #[test]
    fn bulk_gauge_set_equals_repeated_sets() {
        let mut bulk = Registry::new(0.01);
        let mut repeated = Registry::new(0.01);
        repeated.gauge_set("fleet", 4.0);
        bulk.gauge_set("fleet", 4.0);
        for _ in 0..999 {
            repeated.gauge_set("fleet", 6.0);
        }
        bulk.gauge_set_n("fleet", 6.0, 999);
        assert_eq!(bulk, repeated);
        // n = 0 neither updates nor creates.
        bulk.gauge_set_n("fleet", 100.0, 0);
        bulk.gauge_set_n("ghost", 1.0, 0);
        assert_eq!(bulk, repeated);
        assert!(bulk.gauge("ghost").is_none());
    }

    #[test]
    fn bulk_observe_of_zero_equals_repeated_observes() {
        let mut bulk = Registry::new(0.01);
        let mut repeated = Registry::new(0.01);
        repeated.observe("slice.admitted", 3.0);
        bulk.observe("slice.admitted", 3.0);
        for _ in 0..1_000 {
            repeated.observe("slice.admitted", 0.0);
        }
        bulk.observe_n("slice.admitted", 0.0, 1_000);
        // Bit-equality, including the float sum: adding 0.0 a thousand
        // times is the identity, same as one fused 0.0 × 1000 add.
        assert_eq!(bulk, repeated);
        // n = 0 creates no histogram.
        bulk.observe_n("ghost", 1.0, 0);
        assert!(bulk.histogram("ghost").is_none());
        assert_eq!(bulk, repeated);
    }

    #[test]
    fn export_order_is_name_sorted_not_insertion_sorted() {
        let mut a = Registry::new(0.01);
        a.inc("zebra", 1);
        a.inc("alpha", 1);
        let mut b = Registry::new(0.01);
        b.inc("alpha", 1);
        b.inc("zebra", 1);
        let (mut ja, mut jb) = (String::new(), String::new());
        a.write_jsonl(&mut ja);
        b.write_jsonl(&mut jb);
        assert_eq!(ja, jb);
        assert!(ja.find("alpha").unwrap() < ja.find("zebra").unwrap());
    }
}
