//! Cluster serving throughput: invocations/sec replayed end to end
//! (dispatch → simulate → probe → price → shard) as machine count,
//! placement policy, stepping mode and elasticity features vary.
//!
//! The persistent worker pool amortises thread spawns across
//! hand-offs, so `stepping_modes` is the headline comparison: `pooled`
//! must never lose to `scoped`, and should win clearly at higher
//! machine counts (a 2 s replay crosses ~100 slice boundaries; scoped
//! stepping pays a spawn/join per machine-chunk at every one that
//! hands off two or more busy machines).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use litmus_cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, LeastLoaded, LitmusAware,
    MachineConfig, PlacementPolicy, RoundRobin, StealingConfig, SteppingMode,
};
use litmus_core::{DiscountModel, PricingTables, TableBuilder};
use litmus_platform::InvocationTrace;
use litmus_sim::MachineSpec;
use litmus_workloads::suite;

fn calibration() -> (PricingTables, DiscountModel) {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 24])
        .reference_scale(0.03)
        .build()
        .expect("tables build");
    let model = DiscountModel::fit(&tables).expect("model fit");
    (tables, model)
}

fn config(machines: usize) -> ClusterConfig {
    let configs: Vec<_> = (0..machines)
        .map(|i| {
            let background = if i % 2 == 0 { 12 } else { 0 };
            MachineConfig::new(8)
                .background(background)
                .background_scale(0.05)
                .warmup_ms(50)
                .seed(0xB0B + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), machines, 8)
        .machines(configs)
        .serving_scale(0.04)
}

fn replay_once<P: PlacementPolicy>(
    policy: P,
    machines: usize,
    tables: &PricingTables,
    model: &DiscountModel,
    trace: &InvocationTrace,
) -> usize {
    replay_driver(
        ClusterDriver::new(policy),
        config(machines),
        tables,
        model,
        trace,
    )
}

fn replay_driver<P: PlacementPolicy>(
    driver: ClusterDriver<P>,
    config: ClusterConfig,
    tables: &PricingTables,
    model: &DiscountModel,
    trace: &InvocationTrace,
) -> usize {
    let mut cluster = Cluster::build(config, tables.clone(), model.clone()).expect("cluster boots");
    let mut driver = driver;
    let report = driver.replay(&mut cluster, trace).expect("replay succeeds");
    report.completed
}

/// Pooled vs scoped stepping at small and large machine counts — the
/// driver refactor's headline number. The persistent pool must match
/// scoped stepping at 2 machines and beat it at 8+.
fn bench_stepping_modes(c: &mut Criterion) {
    let (tables, model) = calibration();
    let mut group = c.benchmark_group("cluster_stepping_modes");
    group.sample_size(10);
    for machines in [2usize, 8, 16] {
        let trace =
            InvocationTrace::poisson(suite::benchmarks(), 40.0 * machines as f64, 2_000, 31)
                .expect("non-empty pool");
        for (label, mode) in [
            ("pooled", SteppingMode::Pooled),
            ("scoped", SteppingMode::Scoped),
        ] {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{label}_{machines}machines")),
                &machines,
                |b, &machines| {
                    b.iter(|| {
                        black_box(replay_driver(
                            ClusterDriver::new(LitmusAware::new()),
                            // Pin the thread count: the mode comparison
                            // must exercise thread management even on
                            // hosts whose available_parallelism is 1.
                            config(machines).threads(4.min(machines)).stepping(mode),
                            &tables,
                            &model,
                            &trace,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

/// Overhead (and benefit) of the elasticity features at a fixed size:
/// plain replay vs work stealing vs stealing + autoscaling.
fn bench_elasticity_variants(c: &mut Criterion) {
    let (tables, model) = calibration();
    let trace =
        InvocationTrace::poisson(suite::benchmarks(), 320.0, 2_000, 47).expect("non-empty pool");
    let mut group = c.benchmark_group("cluster_elasticity");
    group.sample_size(10);
    group.bench_function("baseline_8machines", |b| {
        b.iter(|| {
            black_box(replay_driver(
                ClusterDriver::new(LitmusAware::new()),
                config(8),
                &tables,
                &model,
                &trace,
            ))
        })
    });
    group.bench_function("stealing_8machines", |b| {
        b.iter(|| {
            black_box(replay_driver(
                ClusterDriver::new(LitmusAware::new())
                    .stealing(StealingConfig::default().backlog_threshold(2)),
                config(8),
                &tables,
                &model,
                &trace,
            ))
        })
    });
    group.bench_function("stealing_autoscale_8machines", |b| {
        b.iter(|| {
            black_box(replay_driver(
                ClusterDriver::new(LitmusAware::new())
                    .stealing(StealingConfig::default().backlog_threshold(2))
                    .autoscale(
                        AutoscalerConfig::new(MachineConfig::new(8).warmup_ms(50))
                            .machine_bounds(8, 16),
                    ),
                config(8),
                &tables,
                &model,
                &trace,
            ))
        })
    });
    group.finish();
}

/// Invocations/sec vs machine count (fixed per-machine arrival rate, so
/// total work scales with the cluster) under litmus-aware placement.
fn bench_machine_scaling(c: &mut Criterion) {
    let (tables, model) = calibration();
    let mut group = c.benchmark_group("cluster_replay_scaling");
    group.sample_size(10);
    for machines in [1usize, 2, 4, 8] {
        // ~40 invocations/s per machine over 2 s.
        let trace =
            InvocationTrace::poisson(suite::benchmarks(), 40.0 * machines as f64, 2_000, 17)
                .expect("non-empty pool");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{machines}machines_{}invocations", trace.len())),
            &machines,
            |b, &machines| {
                b.iter(|| {
                    black_box(replay_once(
                        LitmusAware::new(),
                        machines,
                        &tables,
                        &model,
                        &trace,
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Replay of the real-shape Azure fixture trace (compressed minutes)
/// under litmus-aware placement: the end-to-end cost of serving a
/// real-world arrival process, streamed vs materialized — the streams
/// are bit-identical, so any gap is pure expansion overhead.
fn bench_azure_replay(c: &mut Criterion) {
    let (tables, model) = calibration();
    let dataset = litmus_trace::fixture::dataset();
    let expand = litmus_trace::ExpandConfig::new(77).minute_ms(150);
    let trace = dataset.expand(expand).expect("fixture expands");
    let mut group = c.benchmark_group("cluster_azure_replay");
    group.sample_size(10);
    group.bench_function("materialized_4machines", |b| {
        b.iter(|| {
            black_box(replay_driver(
                ClusterDriver::new(LitmusAware::new()),
                config(4),
                &tables,
                &model,
                &trace,
            ))
        })
    });
    group.bench_function("streaming_4machines", |b| {
        b.iter(|| {
            let mut cluster =
                Cluster::build(config(4), tables.clone(), model.clone()).expect("cluster boots");
            let source = dataset.source(expand).expect("fixture streams");
            let report = ClusterDriver::new(LitmusAware::new())
                .replay_source(&mut cluster, source)
                .expect("replay succeeds");
            black_box(report.completed)
        })
    });
    group.finish();
}

/// Policy overhead comparison at a fixed cluster size.
fn bench_policies(c: &mut Criterion) {
    let (tables, model) = calibration();
    let trace =
        InvocationTrace::poisson(suite::benchmarks(), 160.0, 2_000, 23).expect("non-empty pool");
    let mut group = c.benchmark_group("cluster_replay_policies");
    group.sample_size(10);
    group.bench_function("round_robin_4machines", |b| {
        b.iter(|| black_box(replay_once(RoundRobin::new(), 4, &tables, &model, &trace)))
    });
    group.bench_function("least_loaded_4machines", |b| {
        b.iter(|| black_box(replay_once(LeastLoaded::new(), 4, &tables, &model, &trace)))
    });
    group.bench_function("litmus_aware_4machines", |b| {
        b.iter(|| black_box(replay_once(LitmusAware::new(), 4, &tables, &model, &trace)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stepping_modes,
    bench_machine_scaling,
    bench_policies,
    bench_elasticity_variants,
    bench_azure_replay,
);
criterion_main!(benches);
