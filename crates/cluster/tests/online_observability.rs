//! The online-observability contract of the replay driver:
//!
//! * with a `timeline_retention` window the telemetry streams through
//!   its sink as the replay runs, peak in-memory timeline stays
//!   O(window), and the streamed export is **byte-identical** to the
//!   materialized export — across stepping modes, thread counts, and
//!   streaming vs materialized trace sources;
//! * with SLOs declared on the driver, the online engine's alert
//!   stream (fed at every slice boundary in both engines, bulk-skip
//!   path included) equals a post-hoc evaluation of the finished
//!   timeline event-for-event, and `slo.alert.*` events land on the
//!   timeline byte-identically across engines;
//! * the flight recorder keeps the timeline's point-event tail even
//!   when retention has dropped those events from the timeline itself.

use litmus_cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, ClusterReport, ForecasterSpec,
    MachineConfig, PlacementPolicy, PredictiveConfig, RoundRobin, StealingConfig, SteppingMode,
    TelemetryConfig,
};
use litmus_core::{DiscountModel, PricingTables, TableBuilder};
use litmus_observe::{BurnRateRule, SloEngine, SloSpec};
use litmus_platform::{ArrivalPattern, InvocationTrace, TenantId, TenantTraffic, TraceEvent};
use litmus_sim::MachineSpec;
use litmus_telemetry::{assert_jsonl_eq, EventKind, TimelineEvent};
use litmus_workloads::suite::{self, TenantClass};

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

/// Idle machines only, so quiet stretches are genuinely bulk-skippable
/// by the event engine.
fn quiet_config(machines: usize, threads: usize) -> ClusterConfig {
    let configs: Vec<_> = (0..machines)
        .map(|i| {
            MachineConfig::new(8)
                .warmup_ms(60)
                .max_inflight(3)
                .seed(0xD0E5 + i as u64)
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

/// A burst, an all-idle gap of `gap_ms`, then one trailing arrival —
/// the multi-day-replay shape the event engine collapses.
fn gapped_trace(gap_ms: u64) -> InvocationTrace {
    let pool = suite::tenant_pool(TenantClass::Interactive);
    let mut events: Vec<TraceEvent> = (0..24)
        .map(|i| TraceEvent {
            at_ms: 5 + i * 7,
            function: pool[i as usize % pool.len()].clone(),
            tenant: TenantId((i % 2) as u32),
        })
        .collect();
    events.push(TraceEvent {
        at_ms: 50 + gap_ms,
        function: pool[0].clone(),
        tenant: TenantId(1),
    });
    InvocationTrace::from_events(events)
}

/// SLOs aggressive enough to fire on the bursty fixture's queue spikes.
fn slos() -> Vec<SloSpec> {
    vec![
        SloSpec::queue_wait("interactive-wait", 5)
            .objective(0.9)
            .rules(vec![
                BurnRateRule::new("page", 200, 400, 1.0),
                BurnRateRule::new("ticket", 400, 1_200, 0.5),
            ]),
        SloSpec::slowdown("t0-slowdown", 1.2)
            .tenant(0)
            .objective(0.8),
        SloSpec::billing_rate("t1-spend", 5.0)
            .tenant(1)
            .objective(0.9)
            .rules(vec![BurnRateRule::new("page", 200, 400, 0.8)]),
    ]
}

/// Every timeline producer at once — stealing, predictive autoscaling,
/// rate-1.0 tracing, SLOs, profiling — optionally retention-capped.
fn full_driver(retention: Option<usize>) -> ClusterDriver<RoundRobin> {
    let mut telemetry = TelemetryConfig::default().trace_sampling(0x5EED, 1.0);
    if let Some(keep) = retention {
        telemetry = telemetry.timeline_retention(keep);
    }
    ClusterDriver::new(RoundRobin::new())
        .telemetry(telemetry)
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
        .slos(slos())
}

fn replay<P: PlacementPolicy>(
    mut driver: ClusterDriver<P>,
    config: ClusterConfig,
    trace: &InvocationTrace,
) -> (ClusterReport, ClusterDriver<P>) {
    let (tables, model) = calibration();
    let mut cluster = Cluster::build(config, tables, model).unwrap();
    let report = driver.replay(&mut cluster, trace).unwrap();
    (report, driver)
}

#[test]
fn streamed_export_is_byte_identical_across_engines_threads_and_sources() {
    let trace = bursty_trace(1_600, 23);
    let (materialized, _) = replay(full_driver(None), skewed_config(4, 4), &trace);
    let oracle = materialized.timeline_jsonl();
    assert!(materialized.streamed_jsonl().is_none());
    assert!(
        oracle.contains("\"slo.spec\""),
        "SLO config on the timeline"
    );
    // Online SLO finalization and the end-of-replay trace emission are
    // profiled stages of their own, and profiling leaves the export
    // untouched.
    let profile = materialized.telemetry().profile();
    for stage in ["slo", "trace-emit"] {
        assert!(profile.stage(stage).is_some(), "no {stage} stage");
    }
    let (unprofiled, _) = replay(
        full_driver(None).profiling(false),
        skewed_config(4, 4),
        &trace,
    );
    assert!(unprofiled.telemetry().profile().stage("slo").is_none());
    assert_jsonl_eq(
        "profiled",
        &oracle,
        "unprofiled",
        &unprofiled.timeline_jsonl(),
    );

    const KEEP: usize = 96;
    for stepping in [SteppingMode::Pooled, SteppingMode::EventDriven] {
        for threads in [1, 4] {
            let config = skewed_config(4, threads).stepping(stepping);
            let (streamed, _) = replay(full_driver(Some(KEEP)), config, &trace);
            let label = format!("streamed[{stepping:?}/{threads}]");
            assert_jsonl_eq(
                "materialized",
                &oracle,
                &label,
                streamed
                    .streamed_jsonl()
                    .expect("retention attaches a sink"),
            );
            // `timeline_jsonl` is the complete export in both modes.
            assert_jsonl_eq("materialized", &oracle, &label, &streamed.timeline_jsonl());
            assert!(
                streamed.timeline_peak_retained() <= KEEP + 1,
                "peak {} exceeds window {}",
                streamed.timeline_peak_retained(),
                KEEP
            );
            // The events now live in the streamed export, not in memory.
            assert!(streamed.timeline().events().is_empty());
            assert_eq!(streamed.slo_alerts(), materialized.slo_alerts());
        }

        // Same contract when the trace arrives as a stream rather than
        // a materialized vector.
        let (tables, model) = calibration();
        let mut cluster =
            Cluster::build(skewed_config(4, 4).stepping(stepping), tables, model).unwrap();
        let from_source = full_driver(Some(KEEP))
            .replay_source(&mut cluster, trace.source())
            .unwrap();
        assert_jsonl_eq(
            "materialized",
            &oracle,
            "streamed-source",
            from_source
                .streamed_jsonl()
                .expect("retention attaches a sink"),
        );
    }
    assert!(
        materialized.timeline().events().len() > 4 * KEEP,
        "fixture too small to prove the memory bound"
    );
}

#[test]
fn online_alerts_equal_post_hoc_report_event_for_event() {
    let trace = bursty_trace(2_000, 17);
    let mut histories = Vec::new();
    for stepping in [SteppingMode::Pooled, SteppingMode::EventDriven] {
        let (report, driver) = replay(
            full_driver(None),
            skewed_config(4, 4).stepping(stepping),
            &trace,
        );
        let post_hoc = slos()
            .into_iter()
            .fold(SloEngine::new(), |engine, spec| engine.spec(spec))
            .evaluate(report.timeline(), 20);
        assert!(
            !report.slo_alerts().is_empty(),
            "fixture must actually fire alerts"
        );
        assert_eq!(report.slo_alerts(), post_hoc.alerts.as_slice());
        let open: Vec<_> = post_hoc
            .alerts
            .iter()
            .filter(|alert| alert.cleared_ms.is_none())
            .cloned()
            .collect();
        assert_eq!(driver.active_alerts(), open.as_slice());
        // Registry counters agree with the typed history.
        let registry = report.telemetry().registry();
        assert_eq!(
            registry.counter("slo.alert.fired"),
            report.slo_alerts().len() as u64
        );
        assert_eq!(
            registry.counter("slo.alert.cleared"),
            (report.slo_alerts().len() - open.len()) as u64
        );
        // The autoscaled replay publishes each live machine's observed
        // completion rate at every probe boundary: the gauge exists,
        // was set once per (machine, horizon), and its min/max bracket
        // a sane completions-per-second range.
        let service = registry
            .gauge("machine.service_rate")
            .expect("autoscaled replays publish machine.service_rate");
        assert!(service.sets >= 2, "at least one probe horizon per machine");
        assert!(service.min >= 0.0 && service.max >= service.min);
        assert!(service.max.is_finite());
        histories.push(report.slo_alerts().to_vec());
    }
    assert_eq!(histories[0], histories[1], "alert history is engine-free");
}

#[test]
fn bulk_skipped_boundaries_finalize_the_same_alerts_and_bytes() {
    // No elastic control, so the event engine really bulk-skips the
    // gap — the online engine then finalizes ~1500 boundaries in one
    // catch-up call where the slice oracle stepped them one by one.
    let trace = gapped_trace(30_000);
    let driver = || {
        ClusterDriver::new(RoundRobin::new())
            .telemetry(TelemetryConfig::default().trace_sampling(0x5EED, 1.0))
            .slos(slos())
    };
    let (slice, _) = replay(driver(), quiet_config(3, 4), &trace);
    let (event, _) = replay(
        driver(),
        quiet_config(3, 4).stepping(SteppingMode::EventDriven),
        &trace,
    );
    assert_jsonl_eq(
        "slice",
        &slice.timeline_jsonl(),
        "event",
        &event.timeline_jsonl(),
    );
    assert_eq!(slice, event);
    assert_eq!(slice.slo_alerts(), event.slo_alerts());

    // And the bulk-skipping engine can stream while it skips.
    let (streamed, _) = replay(
        driver().telemetry(
            TelemetryConfig::default()
                .trace_sampling(0x5EED, 1.0)
                .timeline_retention(32),
        ),
        quiet_config(3, 4).stepping(SteppingMode::EventDriven),
        &trace,
    );
    assert_jsonl_eq(
        "materialized",
        &slice.timeline_jsonl(),
        "streamed",
        streamed
            .streamed_jsonl()
            .expect("retention attaches a sink"),
    );
    assert!(streamed.timeline_peak_retained() <= 33);
}

#[test]
fn two_day_gap_replay_bounds_peak_timeline_memory_to_the_window() {
    // Two days of idle between the burst and the trailing arrival: the
    // event engine collapses the gap, and with a 64-record window the
    // peak resident timeline stays O(window) no matter the horizon.
    const TWO_DAYS_MS: u64 = 2 * 24 * 3_600 * 1_000;
    const KEEP: usize = 64;
    let trace = gapped_trace(TWO_DAYS_MS);
    let telemetry = TelemetryConfig::default()
        .trace_sampling(0x5EED, 1.0)
        .flight_capacity(8);
    let driver = || ClusterDriver::new(RoundRobin::new()).telemetry(telemetry);

    let (materialized, _) = replay(
        driver(),
        quiet_config(3, 4).stepping(SteppingMode::EventDriven),
        &trace,
    );
    let (streamed, _) = replay(
        driver().telemetry(telemetry.timeline_retention(KEEP)),
        quiet_config(3, 4).stepping(SteppingMode::EventDriven),
        &trace,
    );

    assert!(materialized.sim_ms > TWO_DAYS_MS);
    assert_jsonl_eq(
        "materialized",
        &materialized.timeline_jsonl(),
        "streamed",
        streamed
            .streamed_jsonl()
            .expect("retention attaches a sink"),
    );
    assert!(
        materialized.timeline().events().len() > 2 * KEEP,
        "fixture too small: {} events",
        materialized.timeline().events().len()
    );
    assert!(
        streamed.timeline_peak_retained() <= KEEP + 1,
        "peak {} exceeds window {}",
        streamed.timeline_peak_retained(),
        KEEP
    );
    assert_eq!(
        materialized.timeline_peak_retained(),
        materialized.timeline().events().len(),
        "without retention the peak is the whole timeline"
    );

    // The flight recorder is retention-independent: both replays hold
    // the same tail, and it is exactly the materialized timeline's
    // last `flight_capacity` point events — even though the streamed
    // replay's in-memory timeline no longer holds them at all.
    let tail: Vec<TimelineEvent> = materialized
        .timeline()
        .events()
        .iter()
        .filter(|event| event.kind == EventKind::Point)
        .cloned()
        .collect();
    let tail = tail[tail.len().saturating_sub(8)..].to_vec();
    assert_eq!(tail.len(), 8);
    let streamed_tail: Vec<TimelineEvent> =
        streamed.telemetry().recorder().dump().cloned().collect();
    let materialized_tail: Vec<TimelineEvent> = materialized
        .telemetry()
        .recorder()
        .dump()
        .cloned()
        .collect();
    assert_eq!(streamed_tail, materialized_tail);
    assert_eq!(streamed_tail, tail);
}
