//! # litmus-observe
//!
//! SLO evaluation, fairness rollups and export tooling over the
//! deterministic telemetry the Litmus cluster stack emits.
//!
//! The cluster driver (with trace sampling on, see
//! `TelemetryConfig::trace_sampling`) gives every admitted invocation
//! a causal span chain on the replay timeline: admission → placement →
//! queue → execution → billing attribution. This crate evaluates those
//! completions two equivalent ways: *online*, fed sample by sample at
//! slice boundaries while the replay runs, and *post-hoc* over a
//! finished timeline — the post-hoc path is implemented on top of the
//! online engine, so the two provably agree event-for-event:
//!
//! * [`OnlineSloEngine`] — the incremental evaluator: feed it
//!   completions as they happen, advance it at slice boundaries, get
//!   [`SloAlert`] fired/cleared transitions back as a deterministic
//!   live control signal;
//! * [`SloEngine`] — declarative [`SloSpec`]s (per-tenant predicted-
//!   slowdown, queue-wait and billing-rate objectives) evaluated slice
//!   boundary by slice boundary with Google-SRE multi-window
//!   burn-rate rules; alerts are deterministic `slo.alert` open/close
//!   spans in the engine's own [`Telemetry`] export;
//! * [`fairness`] — per-tenant rollups (mean slowdown, queue wait,
//!   steal-victim counts, spend) and Gini coefficients;
//! * [`jsonl`] — a dependency-free parser for the flat JSONL export
//!   format, the substrate of the `litmus-obs` query tool;
//! * [`svg`] — a dependency-free SVG line-chart renderer for frontier
//!   curves and burn-rate timelines.
//!
//! ## Example
//!
//! ```
//! use litmus_observe::{BurnRateRule, SloEngine, SloSpec};
//! use litmus_telemetry::Timeline;
//!
//! let engine = SloEngine::new().spec(
//!     SloSpec::queue_wait("interactive-wait", 50)
//!         .tenant(1)
//!         .objective(0.99)
//!         .rules(vec![BurnRateRule::new("page", 200, 800, 4.0)]),
//! );
//! let report = engine.evaluate(&Timeline::new(), 20);
//! assert!(report.alerts.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fairness;
pub mod jsonl;
pub mod svg;

mod slo;
mod spans;

pub use fairness::{gini, rollups, TenantRollup};
pub use slo::{
    Alert, BurnRateRule, OnlineSloEngine, SloAlert, SloEngine, SloKind, SloReport, SloSeries,
    SloSpec, SloTransition,
};
pub use spans::{completions, horizon_ms, CompletionSample, TimelineRecord};

// The telemetry vocabulary reports are written in, re-exported so
// `litmus_observe` users don't need a direct `litmus-telemetry` dep.
pub use litmus_telemetry::{Telemetry, TelemetryConfig, Timeline};
