//! Determinism contract of the replay telemetry: the JSONL timeline
//! export — including the per-invocation `trace.*` span chains, which
//! every driver here samples at rate 1.0 — must be byte-identical
//! across worker-pool thread counts and stepping modes, and between
//! streaming and materialized replay — even with wall-clock profiling
//! enabled, which lives outside the deterministic surface.

use litmus_cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, ClusterReport, ForecasterSpec,
    MachineConfig, PlacementPolicy, PredictiveConfig, RoundRobin, StealingConfig, SteppingMode,
    TelemetryConfig,
};
use litmus_core::{DiscountModel, PricingTables, TableBuilder};
use litmus_platform::{ArrivalPattern, InvocationTrace, TenantId, TenantTraffic};
use litmus_sim::MachineSpec;
use litmus_workloads::suite::{self, TenantClass};
use proptest::prelude::*;

fn calibration() -> (PricingTables, DiscountModel) {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 24])
        .reference_scale(0.03)
        .build()
        .unwrap();
    let model = DiscountModel::fit(&tables).unwrap();
    (tables, model)
}

fn skewed_config(machines: usize, threads: usize) -> ClusterConfig {
    let configs: Vec<_> = (0..machines)
        .map(|i| {
            let background = if i < machines / 2 { 16 } else { 0 };
            MachineConfig::new(8)
                .background(background)
                .background_scale(0.05)
                .warmup_ms(60)
                .max_inflight(3)
                .seed(0xE1A5 + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), machines, 8)
        .machines(configs)
        .serving_scale(0.04)
        .threads(threads)
        .slice_ms(20)
}

fn bursty_trace(duration_ms: u64, seed: u64) -> InvocationTrace {
    InvocationTrace::multi_tenant(
        vec![
            TenantTraffic {
                tenant: TenantId(0),
                pool: suite::tenant_pool(TenantClass::Interactive),
                pattern: ArrivalPattern::Steady { rate_per_s: 30.0 },
            },
            TenantTraffic {
                tenant: TenantId(1),
                pool: suite::tenant_pool(TenantClass::Analytics),
                pattern: ArrivalPattern::Bursty {
                    base_rate_per_s: 5.0,
                    burst_rate_per_s: 200.0,
                    period_ms: 1_000,
                    burst_ms: 250,
                },
            },
        ],
        duration_ms,
        seed,
    )
    .unwrap()
}

/// A driver exercising every timeline producer at once: stealing,
/// predictive autoscaling (scale + forecast events), per-invocation
/// span-tree tracing at rate 1.0, and wall-clock profiling (which
/// must NOT perturb the export).
fn full_driver() -> ClusterDriver<RoundRobin> {
    ClusterDriver::new(RoundRobin::new())
        .telemetry(TelemetryConfig::default().trace_sampling(0x5EED, 1.0))
        .stealing(StealingConfig::default().backlog_threshold(2))
        .autoscale(
            AutoscalerConfig::new(
                MachineConfig::new(8)
                    .background_scale(0.05)
                    .warmup_ms(60)
                    .max_inflight(3)
                    .seed(0xBEEF),
            )
            .high_water(1.6)
            .low_water(1.05)
            .machine_bounds(2, 8)
            .cooldown_ms(100)
            .predictive(PredictiveConfig::new(
                ForecasterSpec::Ewma { alpha: 0.4 },
                80.0,
            )),
        )
        .profiling(true)
}

fn run<P: PlacementPolicy>(
    driver: ClusterDriver<P>,
    config: ClusterConfig,
    trace: &InvocationTrace,
) -> ClusterReport {
    let (tables, model) = calibration();
    let mut cluster = Cluster::build(config, tables, model).unwrap();
    let mut driver = driver;
    driver.replay(&mut cluster, trace).unwrap()
}

#[test]
fn timeline_jsonl_is_byte_identical_across_thread_counts_and_modes() {
    let trace = bursty_trace(2_000, 17);
    let one = run(full_driver(), skewed_config(4, 1), &trace);
    let four = run(full_driver(), skewed_config(4, 4), &trace);
    let event = run(
        full_driver(),
        skewed_config(4, 4).stepping(SteppingMode::EventDriven),
        &trace,
    );
    let a = one.timeline_jsonl();
    assert!(!one.timeline().is_empty());
    assert_eq!(a, four.timeline_jsonl());
    assert_eq!(a, event.timeline_jsonl());
    // Telemetry equality (which skips the wall-clock profile) and full
    // report equality must both hold.
    assert_eq!(one.telemetry(), four.telemetry());
    assert_eq!(one, four);
    assert_eq!(one, event);
}

#[test]
fn streaming_and_materialized_replay_produce_equal_timelines() {
    let trace = bursty_trace(1_600, 23);
    let (tables, model) = calibration();

    let mut materialized_cluster =
        Cluster::build(skewed_config(4, 4), tables.clone(), model.clone()).unwrap();
    let materialized = full_driver()
        .replay(&mut materialized_cluster, &trace)
        .unwrap();

    let mut streamed_cluster = Cluster::build(skewed_config(4, 4), tables, model).unwrap();
    let streamed = full_driver()
        .replay_source(&mut streamed_cluster, trace.source())
        .unwrap();

    assert_eq!(materialized.timeline(), streamed.timeline());
    assert_eq!(materialized.timeline_jsonl(), streamed.timeline_jsonl());
    assert_eq!(materialized, streamed);
}

#[test]
fn timeline_mirrors_the_typed_event_vectors_exactly() {
    let trace = bursty_trace(2_000, 17);
    let report = run(full_driver(), skewed_config(4, 4), &trace);

    let events = report.timeline().events();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("steal"), report.steal_events().len());
    assert_eq!(count("scale"), report.scale_events().len());
    assert_eq!(count("forecast"), report.forecast_samples().len());
    assert_eq!(count("machine"), report.machine_lifetimes().len());
    assert_eq!(count("replay"), 1);
    assert!(
        !report.forecast_samples().is_empty(),
        "predictive replay must record forecast samples"
    );

    // Span-tree tracing at rate 1.0: every admitted invocation gets an
    // admission span and a placement decision event; every completed
    // one also gets queue/exec spans and a billing attribution event.
    assert_eq!(count("trace.admission"), trace.len());
    assert_eq!(count("trace.placement"), trace.len());
    assert_eq!(count("trace.queue"), report.completed);
    assert_eq!(count("trace.exec"), report.completed);
    assert_eq!(count("trace.billed"), report.completed);

    // Registry counters agree with the typed report fields.
    let registry = report.telemetry().registry();
    assert_eq!(
        registry.counter("steal.redispatched") as usize,
        report.redispatched
    );
    assert_eq!(
        registry.counter("replay.completed") as usize,
        report.completed
    );
    assert_eq!(registry.counter("arrivals.admitted") as usize, trace.len());
    assert_eq!(registry.counter("trace.sampled") as usize, trace.len());
    assert_eq!(
        registry.counter("trace.completed") as usize,
        report.completed
    );
    assert_eq!(
        registry
            .histogram("dispatch.predicted_slowdown")
            .unwrap()
            .count() as usize,
        report.predicted_slowdowns().len()
    );

    // Profiling was on: the wall-clock stages exist but are absent
    // from the deterministic export.
    let profile = report.telemetry().profile();
    assert!(profile.is_enabled());
    assert!(profile.stage("step").is_some());
    assert!(!report.timeline_jsonl().contains("barrier"));
}

#[test]
fn flight_recorder_keeps_the_tail_of_the_timeline() {
    let trace = bursty_trace(2_000, 17);
    let driver = full_driver().telemetry(
        TelemetryConfig::default()
            .flight_capacity(8)
            .profiling(false),
    );
    let report = run(driver, skewed_config(4, 4), &trace);
    let recorder = report.telemetry().recorder();
    assert_eq!(recorder.capacity(), 8);
    assert!(recorder.seen() > 8, "the replay must overflow the ring");
    assert_eq!(recorder.len(), 8);
    // The ring holds exactly the last 8 *point* events of the timeline.
    let points: Vec<_> = report
        .timeline()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, litmus_cluster::EventKind::Point))
        .collect();
    let tail: Vec<_> = points[points.len() - 8..].to_vec();
    let held: Vec<_> = recorder.dump().collect();
    assert_eq!(held, tail);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seed, any thread count: the export is one byte stream.
    #[test]
    fn timeline_determinism_holds_for_any_seed_and_thread_count(
        seed in 1u64..500,
        threads in 2usize..5,
    ) {
        let trace = bursty_trace(900, seed);
        let base = run(full_driver(), skewed_config(4, 1), &trace);
        let parallel = run(full_driver(), skewed_config(4, threads), &trace);
        prop_assert_eq!(base.timeline_jsonl(), parallel.timeline_jsonl());
        prop_assert_eq!(base, parallel);
    }
}
