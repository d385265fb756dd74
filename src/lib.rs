//! **Litmus** — a full reproduction of *Litmus: Fair Pricing for
//! Serverless Computing* (Pei, Wang, Shin — ASPLOS '24) in Rust.
//!
//! Serverless tenants pay for execution time, so when a provider packs a
//! machine and everyone slows down, tenants pay *more* for *worse*
//! service. Litmus pricing fixes the incentive: every function's
//! language-runtime startup doubles as a **Litmus test** that reads the
//! machine's congestion at zero extra cost, and the bill is discounted
//! in proportion to the slowdown that congestion is presumed to cause.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`stats`] | `litmus-stats` | regressions, interpolation, summaries |
//! | [`sim`] | `litmus-sim` | multicore contention simulator + PMU |
//! | [`workloads`] | `litmus-workloads` | Table-1 benchmarks, startups, CT-Gen/MB-Gen |
//! | [`core`] | `litmus-core` | Litmus tests, tables, discount model, pricing engines |
//! | [`platform`] | `litmus-platform` | co-run harness and evaluation experiments |
//! | [`cluster`] | `litmus-cluster` | multi-machine serving, Litmus-aware placement, sharded billing |
//! | [`trace`] | `litmus-trace` | Azure Functions trace ingestion, characterization, streaming replay |
//! | [`forecast`] | `litmus-forecast` | online arrival-rate forecasting, bands, backtesting |
//! | [`telemetry`] | `litmus-telemetry` | deterministic metrics, event timeline, flight recorder |
//! | [`observe`] | `litmus-observe` | SLO burn-rate alerting, fairness rollups, export tooling |
//!
//! The paper's hardware testbed (Cascade Lake Xeon, Linux perf, CPython/
//! Node.js/Go) is replaced by a deterministic analytic simulator, whose
//! model the [`sim`] crate documents. The `litmus-repro` binary prints
//! the measured rows of every table and figure (README, *Reproducing
//! paper figures*).
//!
//! # Quickstart
//!
//! ```no_run
//! use litmus::core::{DiscountModel, LitmusPricing, TableBuilder};
//! use litmus::platform::{CoRunEnv, HarnessConfig, PricingExperiment};
//! use litmus::sim::MachineSpec;
//! use litmus::workloads::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Provider builds tables offline by stressing the machine.
//! let spec = MachineSpec::cascade_lake();
//! let tables = TableBuilder::new(spec.clone()).build()?;
//! let pricing = LitmusPricing::new(DiscountModel::fit(&tables)?);
//!
//! // 2. Evaluate pricing in a 26-co-runner environment (paper §7.1).
//! let config = HarnessConfig::new(spec).env(CoRunEnv::OnePerCore { co_runners: 26 });
//! let results = PricingExperiment::new(config)
//!     .run(&pricing, &tables, &suite::test_benchmarks())?;
//! println!(
//!     "Litmus discount {:.1}% vs ideal {:.1}%",
//!     results.mean_litmus_discount() * 100.0,
//!     results.mean_ideal_discount() * 100.0,
//! );
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use litmus_cluster as cluster;
pub use litmus_core as core;
pub use litmus_forecast as forecast;
pub use litmus_observe as observe;
pub use litmus_platform as platform;
pub use litmus_sim as sim;
pub use litmus_stats as stats;
pub use litmus_telemetry as telemetry;
pub use litmus_trace as trace;
pub use litmus_workloads as workloads;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use litmus_cluster::{
        AutoscalerConfig, BillingAggregator, Cluster, ClusterConfig, ClusterDriver, ClusterReport,
        ForecastSample, LeastLoaded, LitmusAware, MachineConfig, MachineId, PlacementPolicy,
        PredictiveConfig, ProbeFreshness, RoundRobin, ScaleEvent, ScaleKind, ScaleReason,
        ScalingPolicy, StealEvent, StealingConfig, SteppingMode,
    };
    pub use litmus_core::{
        BillingLedger, BillingSummary, CommercialPricing, CongestionIndex, DiscountModel,
        IdealPricing, Invoice, LitmusPricing, LitmusReading, Method, PoppaSampler, Price,
        PricingTables, StartupBaseline, TableBuilder,
    };
    pub use litmus_forecast::{
        backtest_series, backtest_source, BacktestConfig, BacktestReport, BandedForecaster, Ewma,
        Forecaster, ForecasterSpec, HoltLinear, HorizonForecast, SeasonalHoltWinters,
    };
    pub use litmus_observe::{
        Alert, BurnRateRule, CompletionSample, SloEngine, SloKind, SloReport, SloSpec, TenantRollup,
    };
    pub use litmus_platform::{
        AdmissionController, AdmissionDecision, CoRunEnv, CoRunHarness, CongestionMonitor,
        CountingSource, ExperimentResults, HarnessConfig, InvocationTrace, PricingExperiment,
        TenantId, TenantTraffic, TraceSource,
    };
    pub use litmus_sim::{
        ExecPhase, ExecutionProfile, FrequencyGovernor, MachineSpec, Placement, PmuCounters,
        Simulator,
    };
    pub use litmus_telemetry::{
        FlightRecorder, LogHistogram, Registry, StageProfile, Telemetry, TelemetryConfig, Timeline,
        TimelineEvent, TraceId, TraceSampler,
    };
    pub use litmus_trace::{AzureDataset, ExpandConfig, IntraMinute, TraceStats, TraceTransform};
    pub use litmus_workloads::{
        suite, BackfillPool, Benchmark, Language, TrafficGenerator, WorkloadMix,
    };
}
