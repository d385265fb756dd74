//! Serverless platform orchestration for the Litmus reproduction.
//!
//! This crate drives the paper's experimental protocols end to end:
//!
//! * [`CoRunHarness`] — a steady-state congested machine: N random
//!   functions kept alive by launch-on-completion backfill, either one
//!   per core (§7.1) or time-sharing a core pool (§7.2), with a
//!   measurement slot for the function under test;
//! * [`PricingExperiment`] — the full evaluation loop behind Figs.
//!   11–13 and 15–21: run each tenant function repeatedly in the
//!   congested environment, probe it with Litmus tests, and produce an
//!   [`Invoice`](litmus_core::Invoice) comparing commercial, Litmus and
//!   ideal prices;
//! * [`ExperimentResults`] — per-function invoices plus the aggregate
//!   discount/error summaries the paper quotes.
//!
//! # Examples
//!
//! A miniature §7.1 experiment (tiny scales for speed):
//!
//! ```no_run
//! use litmus_core::{DiscountModel, LitmusPricing, TableBuilder};
//! use litmus_platform::{CoRunEnv, HarnessConfig, PricingExperiment};
//! use litmus_sim::MachineSpec;
//! use litmus_workloads::suite;
//!
//! # fn main() -> Result<(), litmus_platform::PlatformError> {
//! let spec = MachineSpec::cascade_lake();
//! let tables = TableBuilder::new(spec.clone()).build()?;
//! let pricing = LitmusPricing::new(DiscountModel::fit(&tables)?);
//!
//! let config = HarnessConfig::new(spec).env(CoRunEnv::OnePerCore { co_runners: 26 });
//! let experiment = PricingExperiment::new(config).reps(30);
//! let results = experiment.run(&pricing, &tables, &suite::test_benchmarks())?;
//! println!("avg Litmus discount: {:.1}%", results.mean_litmus_discount() * 100.0);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod error;
mod experiment;
mod harness;
mod monitor;
mod trace;

pub use admission::{AdmissionController, AdmissionDecision};
pub use error::PlatformError;
pub use experiment::{ExperimentResults, PricingExperiment};
pub use harness::{CoRunEnv, CoRunHarness, HarnessConfig};
pub use monitor::{CongestionMonitor, CongestionSample};
pub use trace::{
    ArrivalPattern, ChunkedSource, ConcatSource, CountingSource, InvocationTrace,
    MaterializedSource, SkippedRun, SyntheticSource, TenantId, TenantTraffic, TraceDriver,
    TraceEvent, TraceOutcome, TraceSource,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PlatformError>;
