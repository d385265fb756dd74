//! Trace-driven multi-machine serving for the Litmus reproduction —
//! the provider-side layer between one congested machine
//! ([`litmus_platform::CoRunHarness`]) and the paper-figure harness.
//!
//! Paper §5.1 observes that the congestion readings Litmus collects for
//! *pricing* "assist providers in estimating remaining resources and
//! making informed decisions regarding job scheduling". This crate
//! operationalises that at cluster scale:
//!
//! * [`Cluster`] — N independently-simulated machines (each a
//!   [`litmus_platform::CoRunHarness`] with its own background load)
//!   sharing one calibration;
//! * [`PlacementPolicy`] — pluggable routing: [`RoundRobin`],
//!   [`LeastLoaded`] (queue depth) and [`LitmusAware`] (route to the
//!   machine whose latest startup probe predicts the smallest
//!   slowdown);
//! * [`ClusterDriver`] — replays a multi-tenant
//!   [`litmus_platform::InvocationTrace`] slice boundary by slice
//!   boundary (the event engine jumps over quiet slices when elastic
//!   control is off), through one stepping funnel: idle machines
//!   fast-forward and a lone busy machine steps on the driver thread,
//!   and only two or more busy machines are handed off: cut into
//!   shards by their active instances, one stepped on the driver and
//!   the rest on a persistent worker pool (threads spawned once per
//!   cluster, waited for at a barrier);
//! * [`StealingConfig`] — slice-boundary work stealing: machines whose
//!   queued-but-not-launched backlog exceeds a threshold re-dispatch
//!   the excess to the machine with the best forward-adjusted probe
//!   prediction;
//! * [`AutoscalerConfig`] — elasticity: reactively (the fleet grows
//!   when the fleetwide predicted slowdown crosses a high-water mark)
//!   or predictively ([`ScalingPolicy::Predictive`] feeds per-slice
//!   admitted-arrival counts into a `litmus-forecast` model and boots
//!   machines before the forecast burst lands, probe marks kept as
//!   backstop), draining/retiring idle machines at a low-water mark,
//!   with scale events, [`ForecastSample`]s and [`MachineLifetime`]s
//!   surfaced in the [`ClusterReport`];
//! * [`BillingShard`] / [`BillingAggregator`] — streaming per-tenant
//!   billing: each machine folds its invoices into constant-space
//!   [`litmus_core::BillingSummary`]s, merged cluster-wide at collection
//!   — no invoice list ever materialises (retired machines' shards are
//!   retained, so scaling never loses revenue);
//! * [`Telemetry`] — every replay carries a deterministic metric
//!   registry, sim-time event timeline and flight recorder
//!   ([`ClusterReport::telemetry`] / [`ClusterReport::timeline_jsonl`]);
//!   the JSONL export is byte-identical across thread counts, stepping
//!   modes and streaming vs materialized replay. Opt-in wall-clock
//!   stage profiling ([`ClusterDriver::profiling`]) sits outside the
//!   deterministic surface.
//!
//! Replays are fully deterministic: the same trace, cluster
//! configuration and policy produce identical placement sequences and
//! invoices, regardless of the stepping thread count or mode.
//!
//! # Examples
//!
//! Serve a skewed cluster (half the machines pre-loaded) and compare
//! routing policies:
//!
//! ```no_run
//! use litmus_cluster::{
//!     Cluster, ClusterConfig, ClusterDriver, LitmusAware, MachineConfig,
//!     RoundRobin,
//! };
//! use litmus_core::{DiscountModel, TableBuilder};
//! use litmus_platform::InvocationTrace;
//! use litmus_sim::MachineSpec;
//! use litmus_workloads::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = MachineSpec::cascade_lake();
//! let tables = TableBuilder::new(spec.clone()).build()?;
//! let model = DiscountModel::fit(&tables)?;
//!
//! // Machines 0–3 carry heavy background load, 4–7 are idle.
//! let machines: Vec<_> = (0..8)
//!     .map(|i| {
//!         let background = if i < 4 { 24 } else { 0 };
//!         MachineConfig::new(8).background(background).seed(100 + i)
//!     })
//!     .collect();
//! let config = ClusterConfig::homogeneous(spec, 8, 8).machines(machines);
//!
//! let trace = InvocationTrace::poisson(suite::benchmarks(), 300.0, 20_000, 1)
//!     .expect("non-empty pool");
//! let mut cluster = Cluster::build(config, tables, model)?;
//! let outcome =
//!     ClusterDriver::new(LitmusAware::new()).replay(&mut cluster, &trace)?;
//! for (tenant, summary) in outcome.billing.tenants() {
//!     println!(
//!         "{tenant}: {} invocations, {:.1}% discount",
//!         summary.len(),
//!         summary.average_discount() * 100.0
//!     );
//! }
//! # let _ = RoundRobin::new();
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod billing;
mod context;
mod driver;
mod error;
mod machine;
mod policy;
mod pool;
mod scale;
mod steal;

pub use billing::{BillingAggregator, BillingShard};
pub use context::ServingContext;
pub use driver::{Cluster, ClusterConfig, ClusterDriver, ClusterReport};
pub use error::ClusterError;
pub use machine::{Machine, MachineConfig, MachineId};
pub use policy::{
    LeastLoaded, LitmusAware, MachineSnapshot, PlacementPolicy, ProbeFreshness, RoundRobin,
};
pub use pool::{ShardLoad, SteppingMode};
pub use scale::{
    AutoscalerConfig, ForecastSample, MachineLifetime, PredictiveConfig, ScaleEvent, ScaleKind,
    ScaleReason, ScalingPolicy,
};
pub use steal::{StealEvent, StealingConfig};

// The forecast vocabulary predictive configs are written in, re-exported
// so `litmus_cluster` users don't need a direct `litmus-forecast` dep.
pub use litmus_forecast::{ForecasterSpec, HorizonForecast};

// The telemetry vocabulary reports are written in, re-exported so
// `litmus_cluster` users don't need a direct `litmus-telemetry` dep.
pub use litmus_telemetry::{
    EventKind, FieldValue, FlightRecorder, Gauge, LogHistogram, Registry, StageProfile, StageStat,
    Telemetry, TelemetryConfig, Timeline, TimelineEvent, TraceId, TraceSampler,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ClusterError>;
