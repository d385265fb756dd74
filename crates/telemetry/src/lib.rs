//! # litmus-telemetry
//!
//! Deterministic observability for the Litmus cluster stack: a metric
//! registry (counters, gauges, log-bucketed histograms with a proven
//! relative quantile error bound), a sim-time-keyed structured event
//! timeline with spans, and a bounded flight recorder — plus an
//! opt-in wall-clock stage profiler kept strictly outside the
//! deterministic surface.
//!
//! ## Determinism contract
//!
//! Everything exported by [`Telemetry::to_jsonl`] is a pure function
//! of the replay: sim-time timestamps (ms since replay start, never
//! wall clock), name-sorted registry export, append-ordered timeline.
//! The same trace, configuration and seed produce byte-identical
//! JSONL regardless of worker-pool thread count, host, or whether the
//! trace was streamed or materialized. The one wall-clock component —
//! [`StageProfile`] — is excluded from both the export and
//! [`Telemetry`] equality, so enabling profiling cannot perturb a
//! determinism check.
//!
//! ## Example
//!
//! ```
//! use litmus_telemetry::{Telemetry, TelemetryConfig};
//!
//! let mut telemetry = Telemetry::new(TelemetryConfig::default());
//! telemetry.set_meta("policy", "litmus-aware");
//! telemetry.inc("arrivals.admitted", 42);
//! telemetry.observe("queue_wait_ms", 12.5);
//! telemetry.event(1_000, "steal", vec![("from", 0u32.into()), ("to", 3u32.into())]);
//! let span = telemetry.open_span(0, "replay", vec![]);
//! telemetry.close_span(span, 5_000);
//!
//! let jsonl = telemetry.to_jsonl();
//! assert!(jsonl.lines().next().unwrap().starts_with(r#"{"type":"meta""#));
//! assert!(telemetry.summary().contains("arrivals.admitted"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod json;

mod event;
mod hist;
mod metrics;
mod profile;
mod recorder;
mod sink;
mod trace;

pub use diff::{assert_jsonl_eq, diff_report, first_divergence, JsonlDivergence};
pub use event::{EventKind, FieldValue, Fields, SpanId, Timeline, TimelineEvent};
pub use hist::{LogHistogram, DEFAULT_RELATIVE_ERROR};
pub use metrics::{Gauge, Registry};
pub use profile::{StageProfile, StageStat};
pub use recorder::FlightRecorder;
pub use trace::{TraceId, TraceSampler};

use json::ObjectWriter;
use sink::StreamingJsonlSink;

/// Configuration for a [`Telemetry`] instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Flight-recorder ring capacity (most recent events kept).
    pub flight_capacity: usize,
    /// Record wall-clock stage timings. Off by default; timings are
    /// excluded from the deterministic export either way.
    pub profiling: bool,
    /// Relative quantile error bound for registry histograms.
    pub histogram_relative_error: f64,
    /// Fraction of admitted invocations whose `trace.*` span chain is
    /// emitted onto the timeline, decided per-invocation by the seeded
    /// deterministic [`TraceSampler`]. 0 (the default) disables
    /// per-invocation tracing entirely; tests pin 1.0.
    pub trace_sample_rate: f64,
    /// Seed of the deterministic trace sampler.
    pub trace_seed: u64,
    /// Retention window for the in-memory timeline. `None` (the
    /// default) materializes every record; `Some(keep)` serializes
    /// records into a streaming JSONL buffer whenever more than `keep`
    /// are resident, so peak structured timeline memory is O(`keep`)
    /// instead of O(replay length). The streamed export
    /// ([`Telemetry::take_streamed`]) stays byte-identical to the
    /// materialized [`Telemetry::to_jsonl`]. Retention does not affect
    /// the registry, the flight recorder, or replay behavior.
    pub timeline_retention: Option<usize>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            flight_capacity: 1024,
            profiling: false,
            histogram_relative_error: DEFAULT_RELATIVE_ERROR,
            trace_sample_rate: 0.0,
            trace_seed: 0x7ACE,
            timeline_retention: None,
        }
    }
}

impl TelemetryConfig {
    /// Sets the flight-recorder capacity.
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity;
        self
    }

    /// Enables or disables wall-clock stage profiling.
    pub fn profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Sets the histogram relative-error bound.
    pub fn histogram_relative_error(mut self, alpha: f64) -> Self {
        self.histogram_relative_error = alpha;
        self
    }

    /// Enables per-invocation span-chain tracing: keep `rate` of
    /// traces (clamped to `[0, 1]`), sampled deterministically with
    /// `seed`.
    pub fn trace_sampling(mut self, seed: u64, rate: f64) -> Self {
        self.trace_seed = seed;
        self.trace_sample_rate = rate;
        self
    }

    /// The deterministic trace sampler this configuration describes.
    pub fn trace_sampler(&self) -> TraceSampler {
        TraceSampler::new(self.trace_seed, self.trace_sample_rate)
    }

    /// Caps the in-memory timeline at `keep` resident records,
    /// streaming the rest into the JSONL export as they leave (see
    /// [`TelemetryConfig::timeline_retention`]).
    pub fn timeline_retention(mut self, keep: usize) -> Self {
        self.timeline_retention = Some(keep);
        self
    }
}

/// The combined telemetry state of one replay: registry + timeline +
/// flight recorder + (non-deterministic, excluded from equality and
/// export) stage profile.
///
/// Point events recorded through [`Telemetry::event`] land on both the
/// full timeline and the flight recorder; spans live on the timeline
/// only (the recorder is a crash log of recent moments, and a span is
/// not a moment until it closes).
#[derive(Debug, Clone)]
pub struct Telemetry {
    config: TelemetryConfig,
    registry: Registry,
    timeline: Timeline,
    recorder: FlightRecorder,
    profile: StageProfile,
    meta: Vec<(&'static str, String)>,
    /// Flushed records' JSONL (present iff a retention window is set).
    sink: Option<StreamingJsonlSink>,
}

impl Telemetry {
    /// Fresh telemetry for one replay.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            registry: Registry::new(config.histogram_relative_error),
            timeline: Timeline::new(),
            recorder: FlightRecorder::new(config.flight_capacity),
            profile: StageProfile::new(config.profiling),
            meta: Vec::new(),
            sink: config
                .timeline_retention
                .map(|_| StreamingJsonlSink::default()),
        }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Records a replay-level annotation (policy name, trace id, …)
    /// emitted on the JSONL meta line. Re-setting a key overwrites it.
    /// Do **not** put anything host- or thread-count-dependent here:
    /// the meta line is part of the deterministic byte stream.
    pub fn set_meta(&mut self, key: &'static str, value: impl Into<String>) {
        let value = value.into();
        match self.meta.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.meta.push((key, value)),
        }
    }

    /// Adds `by` to counter `name`.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        self.registry.inc(name, by);
    }

    /// Sets gauge `name`.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.registry.gauge_set(name, value);
    }

    /// Applies `n` consecutive identical sets to gauge `name` in one
    /// update (see [`Registry::gauge_set_n`]).
    pub fn gauge_set_n(&mut self, name: &'static str, value: f64, n: u64) {
        self.registry.gauge_set_n(name, value, n);
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.registry.observe(name, value);
    }

    /// Records `n` identical samples into histogram `name` in one
    /// update (see [`Registry::observe_n`]).
    pub fn observe_n(&mut self, name: &'static str, value: f64, n: u64) {
        self.registry.observe_n(name, value, n);
    }

    /// Appends a point event (timeline + flight recorder). `at_ms` is
    /// sim time, ms since replay start.
    pub fn event(&mut self, at_ms: u64, name: &'static str, fields: Fields) {
        self.recorder.record_point(at_ms, name, &fields);
        self.timeline.record(at_ms, name, fields);
        self.maybe_flush();
    }

    /// Opens a span on the timeline at sim time `at_ms`.
    pub fn open_span(&mut self, at_ms: u64, name: &'static str, fields: Fields) -> SpanId {
        let id = self.timeline.open_span(at_ms, name, fields);
        self.maybe_flush();
        id
    }

    /// Closes a span opened with [`Telemetry::open_span`].
    pub fn close_span(&mut self, id: SpanId, end_ms: u64) {
        self.timeline.close_span(id, end_ms);
        self.maybe_flush();
    }

    /// Appends an already-closed span to the timeline.
    pub fn span(&mut self, name: &'static str, start_ms: u64, end_ms: u64, fields: Fields) {
        self.timeline.span(name, start_ms, end_ms, fields);
        self.maybe_flush();
    }

    /// Flushes records past the retention window (and any late span
    /// closes) into the streaming sink.
    fn maybe_flush(&mut self) {
        if let (Some(keep), Some(sink)) = (self.config.timeline_retention, self.sink.as_mut()) {
            sink.drain(&mut self.timeline, keep);
        }
    }

    /// Detaches the streaming sink and returns the complete streamed
    /// export: every remaining record is flushed, late closes are
    /// patched, and the meta line, timeline and registry snapshot are
    /// composed. Byte-identical to what [`Telemetry::to_jsonl`] of an
    /// un-retained replay would have produced. `None` without a
    /// retention window.
    pub fn take_streamed(&mut self) -> Option<String> {
        let mut sink = self.sink.take()?;
        sink.drain(&mut self.timeline, 0);
        let mut out = String::with_capacity(sink.len());
        self.write_meta_line(&mut out);
        sink.write_lines(&mut out);
        self.registry.write_jsonl(&mut out);
        Some(out)
    }

    /// Appends the JSONL meta line (first line of every export).
    fn write_meta_line(&self, out: &mut String) {
        let mut meta = ObjectWriter::open(out);
        meta.str_field("type", "meta");
        for (key, value) in &self.meta {
            meta.str_field(key, value);
        }
        meta.u64_field("timeline_events", self.timeline.len() as u64);
        meta.close();
        out.push('\n');
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The full event timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The flight recorder (most recent point events).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The wall-clock stage profile (read side).
    pub fn profile(&self) -> &StageProfile {
        &self.profile
    }

    /// The wall-clock stage profile (write side, for the driver).
    pub fn profile_mut(&mut self) -> &mut StageProfile {
        &mut self.profile
    }

    /// Serializes the deterministic telemetry state as JSONL: one
    /// `meta` line, then the timeline in append order, then the
    /// registry in name order. Sim-time-only — byte-identical across
    /// thread counts, hosts, and streaming vs materialized replay.
    /// Under a retention window the timeline holds only its retained
    /// suffix; the complete export is [`Telemetry::take_streamed`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_meta_line(&mut out);
        for event in self.timeline.events() {
            event.write_json(&mut out);
            out.push('\n');
        }
        self.registry.write_jsonl(&mut out);
        out
    }

    /// A compact human summary: meta, counters, gauges, histogram
    /// quantiles, timeline/recorder depth, and — only when profiling
    /// was enabled — wall-clock stage timings.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if !self.meta.is_empty() {
            let line = self
                .meta
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "meta: {line}");
        }
        let _ = writeln!(
            out,
            "timeline: {} events ({} in flight recorder, {} evicted)",
            self.timeline.len(),
            self.recorder.len(),
            self.recorder.dropped()
        );
        let counters: Vec<_> = self.registry.counters().collect();
        if !counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in counters {
                let _ = writeln!(out, "  {name:<28} {value}");
            }
        }
        let gauges: Vec<_> = self.registry.gauges().collect();
        if !gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, gauge) in gauges {
                let _ = writeln!(
                    out,
                    "  {name:<28} last {:.3}  min {:.3}  max {:.3}",
                    gauge.last, gauge.min, gauge.max
                );
            }
        }
        let histograms: Vec<_> = self.registry.histograms().collect();
        if !histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (name, hist) in histograms {
                let _ = writeln!(
                    out,
                    "  {name:<28} n={} mean {:.3}  p50 {:.3}  p90 {:.3}  p99 {:.3}  max {:.3}",
                    hist.count(),
                    hist.mean(),
                    hist.quantile(0.5),
                    hist.quantile(0.9),
                    hist.quantile(0.99),
                    hist.max()
                );
            }
        }
        if self.profile.is_enabled() {
            let stages = self.profile.summary();
            if !stages.is_empty() {
                let _ = writeln!(out, "wall-clock stages (non-deterministic):");
                out.push_str(&stages);
            }
        }
        out
    }
}

/// Equality over the *deterministic* state only: config, meta,
/// registry, timeline and recorder. The wall-clock stage profile is
/// deliberately ignored so report comparisons (streaming vs
/// materialized, thread-count sweeps) hold with profiling on. The
/// streaming sink is also excluded: its contents are a pure function
/// of the compared timeline/registry state.
impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.meta == other.meta
            && self.registry == other.registry
            && self.timeline == other.timeline
            && self.recorder == other.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Telemetry {
        let mut telemetry = Telemetry::new(TelemetryConfig::default().flight_capacity(2));
        telemetry.set_meta("policy", "litmus-aware");
        telemetry.inc("arrivals.admitted", 7);
        telemetry.gauge_set("fleet.machines", 4.0);
        telemetry.observe("slice.admitted", 3.0);
        let span = telemetry.open_span(0, "replay", vec![]);
        for at in [10, 20, 30] {
            telemetry.event(at, "tick", vec![("n", at.into())]);
        }
        telemetry.close_span(span, 40);
        telemetry
    }

    #[test]
    fn jsonl_starts_with_meta_then_timeline_then_registry() {
        let telemetry = sample();
        let jsonl = telemetry.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"type":"meta","policy":"litmus-aware","timeline_events":4}"#
        );
        assert!(lines[1].starts_with(r#"{"type":"span","at_ms":0,"end_ms":40,"name":"replay""#));
        assert!(lines.last().unwrap().starts_with(r#"{"type":"histogram""#));
        // Registry lines follow all timeline lines.
        let first_counter = lines
            .iter()
            .position(|l| l.contains(r#""type":"counter""#))
            .unwrap();
        let last_event = lines
            .iter()
            .rposition(|l| l.contains(r#""type":"event""#))
            .unwrap();
        assert!(first_counter > last_event);
    }

    #[test]
    fn point_events_reach_the_flight_recorder_but_spans_do_not() {
        let telemetry = sample();
        assert_eq!(telemetry.recorder().seen(), 3);
        assert_eq!(telemetry.recorder().len(), 2); // capacity 2
        assert_eq!(telemetry.timeline().len(), 4); // span + 3 ticks
    }

    #[test]
    fn equality_ignores_the_wall_clock_profile() {
        let mut a = sample();
        let b = sample();
        a.profile_mut().time("step", || std::hint::black_box(0));
        assert_eq!(a, b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn set_meta_overwrites_in_place() {
        let mut telemetry = Telemetry::new(TelemetryConfig::default());
        telemetry.set_meta("policy", "a");
        telemetry.set_meta("trace", "t");
        telemetry.set_meta("policy", "b");
        let jsonl = telemetry.to_jsonl();
        assert!(jsonl.starts_with(r#"{"type":"meta","policy":"b","trace":"t""#));
    }

    /// Drives one recording schedule through `telemetry`. Each step is
    /// `(op, value, pick)`: a point event, a span opened (and left
    /// open), an already-closed span, or a close of any span opened so
    /// far — often one whose record already left the retention window,
    /// and sometimes one closed before (a re-close updates its end).
    fn record_schedule(telemetry: &mut Telemetry, steps: &[(u32, u64, usize)]) {
        telemetry.set_meta("policy", "litmus-aware");
        let replay = telemetry.open_span(0, "replay", vec![("policy", "litmus-aware".into())]);
        let mut open = vec![replay];
        for (at, &(op, value, pick)) in (0u64..).step_by(10).zip(steps) {
            match op {
                0 => {
                    telemetry.event(at, "tick", vec![("n", value.into())]);
                    telemetry.observe("slice.admitted", (value % 3) as f64);
                }
                1 => open.push(telemetry.open_span(at, "machine", vec![("id", value.into())])),
                2 => telemetry.span(
                    "drain",
                    at,
                    at + value % 100,
                    vec![("pending", value.into())],
                ),
                _ => telemetry.close_span(open[pick % open.len()], at + value % 1_000),
            }
        }
        telemetry.inc("arrivals.admitted", steps.len() as u64);
    }

    proptest! {
        #[test]
        fn streamed_export_is_byte_identical_to_materialized(
            keep in 0usize..80,
            steps in prop::collection::vec((0u32..4, 0u64..10_000, 0usize..64), 0..240),
        ) {
            let mut materialized = Telemetry::new(TelemetryConfig::default());
            record_schedule(&mut materialized, &steps);
            let mut streamed = Telemetry::new(TelemetryConfig::default().timeline_retention(keep));
            record_schedule(&mut streamed, &steps);
            let out = streamed.take_streamed().expect("retention streams");
            assert_jsonl_eq("materialized", &materialized.to_jsonl(), "streamed", &out);
            prop_assert!(streamed.timeline().peak_retained() <= keep + 1);
            prop_assert_eq!(streamed.timeline().len(), materialized.timeline().len());
        }
    }

    #[test]
    fn retention_without_take_streamed_keeps_counts_and_recorder() {
        let mut telemetry = Telemetry::new(TelemetryConfig::default().timeline_retention(2));
        for at in 0..50u64 {
            telemetry.event(at, "tick", vec![("n", at.into())]);
        }
        assert_eq!(telemetry.timeline().len(), 50);
        assert_eq!(telemetry.timeline().events().len(), 2);
        assert_eq!(telemetry.timeline().offset(), 48);
        // The flight recorder is independent of timeline retention.
        assert_eq!(telemetry.recorder().seen(), 50);
    }

    #[test]
    fn take_streamed_is_none_without_a_sink() {
        let mut telemetry = Telemetry::new(TelemetryConfig::default());
        assert!(telemetry.take_streamed().is_none());
    }

    #[test]
    fn profiling_is_off_by_default_and_configurable() {
        assert!(!Telemetry::new(TelemetryConfig::default())
            .profile()
            .is_enabled());
        let telemetry = Telemetry::new(TelemetryConfig::default().profiling(true));
        assert!(telemetry.profile().is_enabled());
    }
}
