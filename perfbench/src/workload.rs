//! The three replay workloads: fleet, driver and trace of each, plus the
//! calibration every replay shares. Everything here is built from
//! public constructors only.

use std::time::Instant;

use litmus::cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, ForecasterSpec, LitmusAware,
    MachineConfig, PredictiveConfig, StealingConfig, SteppingMode, TelemetryConfig,
};
use litmus::core::{DiscountModel, PricingTables, TableBuilder};
use litmus::observe::{BurnRateRule, SloEngine, SloSpec};
use litmus::platform::ConcatSource;
use litmus::sim::MachineSpec;
use litmus::trace::{
    fixture, multi_day_source, AzureDataset, AzureReplaySource, ExpandConfig, IntraMinute,
    TraceTransform, TransformedSource,
};

/// Cores in every machine's serving pool.
pub const CORES: usize = 8;
/// Scheduling slice of every fleet, ms.
pub const SLICE_MS: u64 = 20;
/// Worker-pool threads of the measured configuration.
pub const THREADS: usize = 2;

/// Days chained by `sparse-multiday`.
const SPARSE_DAYS: usize = 24;
/// Days chained by `traced-multiday`.
const TRACED_DAYS: usize = 4;

/// How much of the workload's trace a replay covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    Full,
    /// Half the days, or the first half of a single day.
    Half,
}

/// Every workload replays the same source type: one or more chained
/// fixture days, optionally rewritten by transforms.
pub type Source = TransformedSource<ConcatSource<AzureReplaySource>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One fixture day on a 6-machine fleet with fillers, stealing and
    /// predictive autoscaling: every boundary is a decision round.
    DenseDay,
    /// Many days stretched to real time and thinned to 4% on 4 idle
    /// machines: almost all sim time is bulk-skipped idle gaps.
    SparseMultiday,
    /// Several days on 6 filler-free machines with full span tracing,
    /// two online SLOs and a JSONL export.
    TracedMultiday,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DenseDay,
        Workload::SparseMultiday,
        Workload::TracedMultiday,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseDay => "dense-day",
            Workload::SparseMultiday => "sparse-multiday",
            Workload::TracedMultiday => "traced-multiday",
        }
    }

    /// Fixture days chained at full length.
    pub fn days(self) -> usize {
        match self {
            Workload::DenseDay => 1,
            Workload::SparseMultiday => SPARSE_DAYS,
            Workload::TracedMultiday => TRACED_DAYS,
        }
    }

    /// Sim ms one trace minute is stretched or compressed to.
    fn minute_ms(self) -> u64 {
        match self {
            Workload::DenseDay | Workload::TracedMultiday => 600,
            Workload::SparseMultiday => 120_000,
        }
    }

    /// Whether the replay's JSONL export is part of the timed replay.
    pub fn exports(self) -> bool {
        self == Workload::TracedMultiday
    }

    /// The fleet, stepped by `threads` workers under `stepping`.
    pub fn cluster_config(self, threads: usize, stepping: SteppingMode) -> ClusterConfig {
        let (count, fillers) = match self {
            Workload::DenseDay => (6, 20),
            Workload::SparseMultiday => (4, 0),
            Workload::TracedMultiday => (6, 0),
        };
        let machines = (0..count)
            .map(|i| {
                // Fillers only on the first half of the fleet, so
                // placement has congested and calm machines to choose
                // between.
                let background = if i < count / 2 { fillers } else { 0 };
                machine_config(0xA27E + i as u64).background(background)
            })
            .collect();
        ClusterConfig::homogeneous(MachineSpec::cascade_lake(), count, CORES)
            .machines(machines)
            .serving_scale(0.05)
            .slice_ms(SLICE_MS)
            .threads(threads)
            .stepping(stepping)
    }

    /// The replay driver; `profiling` turns on the wall-clock
    /// `StageProfile`, which only the traced run reads.
    pub fn driver(self, profiling: bool) -> ClusterDriver<LitmusAware> {
        let driver = ClusterDriver::new(LitmusAware::new());
        let driver = match self {
            Workload::DenseDay => driver
                .stealing(StealingConfig::default().backlog_threshold(3))
                .autoscale(
                    AutoscalerConfig::new(machine_config(0xB007))
                        .high_water(1.8)
                        .low_water(1.05)
                        .machine_bounds(6, 12)
                        .cooldown_ms(200)
                        .predictive(PredictiveConfig::new(
                            ForecasterSpec::Ewma { alpha: 0.35 },
                            120.0,
                        )),
                ),
            Workload::SparseMultiday => driver,
            Workload::TracedMultiday => driver
                .telemetry(TelemetryConfig::default().trace_sampling(0x7ACE, 1.0))
                .slos(slo_specs()),
        };
        driver.profiling(profiling)
    }

    /// The workload's arrival stream at `length`: expanded with `seed`,
    /// then thinned (sparse) with a seed derived from it.
    pub fn source(self, days: &[AzureDataset], seed: u64, length: Length) -> Source {
        let mut transforms = Vec::new();
        let days = match length {
            Length::Full => days,
            Length::Half if days.len() >= 2 => &days[..days.len() / 2],
            // A single day is halved in time instead.
            Length::Half => {
                let span_ms = days[0].minutes() as u64 * self.minute_ms();
                transforms.push(TraceTransform::Window {
                    start_ms: 0,
                    end_ms: span_ms / 2,
                });
                days
            }
        };
        if self == Workload::SparseMultiday {
            transforms.push(TraceTransform::ScaleRate {
                keep_fraction: 0.04,
                seed: seed.wrapping_add(1),
            });
        }
        TransformedSource::new(self.raw_source(days, seed), transforms)
            .expect("window and thinning fraction are valid")
    }

    /// The expanded stream before any transform: what the `trace`
    /// layer generates, kept or not.
    pub fn raw_source(self, days: &[AzureDataset], seed: u64) -> ConcatSource<AzureReplaySource> {
        let config = ExpandConfig::new(seed)
            .minute_ms(self.minute_ms())
            .placement(IntraMinute::Poisson);
        multi_day_source(days, config).expect("fixture days chain")
    }
}

fn machine_config(seed: u64) -> MachineConfig {
    MachineConfig::new(CORES)
        .background_scale(0.05)
        .warmup_ms(80)
        .max_inflight(4)
        .seed(seed)
}

/// The two SLOs `traced-multiday` co-runs online (and the traced run
/// evaluates post hoc on every workload): a p99 slowdown objective and
/// a queue-wait burn-rate objective.
fn slo_specs() -> Vec<SloSpec> {
    vec![
        SloSpec::slowdown("slowdown-p99", 1.05)
            .objective(0.99)
            .rules(vec![BurnRateRule::new("page", 1_000, 5_000, 4.0)]),
        SloSpec::queue_wait("queue-wait", 100)
            .objective(0.95)
            .rules(vec![BurnRateRule::new("ticket", 2_000, 10_000, 2.0)]),
    ]
}

pub fn slo_engine() -> SloEngine {
    slo_specs()
        .into_iter()
        .fold(SloEngine::new(), SloEngine::spec)
}

/// The calibration tables and discount model every machine prices with.
fn calibrate() -> (PricingTables, DiscountModel) {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 22])
        .reference_scale(0.05)
        .build()
        .expect("calibration tables build");
    let model = DiscountModel::fit(&tables).expect("discount model fits");
    (tables, model)
}

/// Everything a replay needs before it starts.
pub struct Setup {
    pub days: Vec<AzureDataset>,
    pub tables: PricingTables,
    pub model: DiscountModel,
}

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub parse_s: f64,
    pub calibrate_s: f64,
    pub boot_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.parse_s + self.calibrate_s + self.boot_s
    }
}

impl Setup {
    /// Parses the fixture, calibrates, and boots one fleet (dropped:
    /// every replay boots its own), timing each stage.
    pub fn timed(workload: Workload) -> (Setup, SetupTimes) {
        let started = Instant::now();
        let day = fixture::dataset();
        let parse_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let (tables, model) = calibrate();
        let calibrate_s = started.elapsed().as_secs_f64();

        let setup = Setup {
            days: vec![day; workload.days()],
            tables,
            model,
        };
        let started = Instant::now();
        std::hint::black_box(setup.boot(workload, THREADS, SteppingMode::EventDriven));
        let boot_s = started.elapsed().as_secs_f64();
        (
            setup,
            SetupTimes {
                parse_s,
                calibrate_s,
                boot_s,
            },
        )
    }

    pub fn boot(&self, workload: Workload, threads: usize, stepping: SteppingMode) -> Cluster {
        Cluster::build(
            workload.cluster_config(threads, stepping),
            self.tables.clone(),
            self.model.clone(),
        )
        .expect("fleet boots")
    }
}
