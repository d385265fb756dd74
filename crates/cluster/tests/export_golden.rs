//! Golden digests of whole JSONL exports, pinned byte for byte.
//!
//! Every other export test compares the serializer with itself —
//! across thread counts, engines, or streaming vs materialized — so a
//! serializer change that moved bytes everywhere at once would pass
//! them all. These pin the FNV-1a digest and byte length of three
//! replays' exports to values produced by the straightforward
//! `JsonObject`-per-record serializer that preceded the direct writer:
//!
//! * a traced replay that declares SLOs (trace span chains, SLO config
//!   and alert events, SLO names that need escaping);
//! * an autoscaled, stealing, predictive-forecast replay (scale
//!   reasons, forecast floats, machine spans still open at the end);
//! * a retention replay's streamed export (late-closed spans patched
//!   into flushed records).
//!
//! Built on the public API only.

use litmus_cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, ClusterReport, ForecasterSpec,
    LitmusAware, MachineConfig, PlacementPolicy, PredictiveConfig, RoundRobin, StealingConfig,
    TelemetryConfig,
};
use litmus_core::{DiscountModel, PricingTables, TableBuilder};
use litmus_observe::{BurnRateRule, SloSpec};
use litmus_platform::{ArrivalPattern, InvocationTrace, TenantId, TenantTraffic};
use litmus_sim::MachineSpec;
use litmus_workloads::suite::{self, TenantClass};

/// FNV-1a over the export's bytes.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn assert_golden(label: &str, export: &str, bytes: usize, digest: u64) {
    assert_eq!(
        (export.len(), fnv1a(export)),
        (bytes, digest),
        "{label}: (bytes, digest) moved to ({}, {:#018x})",
        export.len(),
        fnv1a(export)
    );
}

fn calibration() -> (PricingTables, DiscountModel) {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 24])
        .reference_scale(0.03)
        .build()
        .unwrap();
    let model = DiscountModel::fit(&tables).unwrap();
    (tables, model)
}

fn skewed_config(machines: usize) -> ClusterConfig {
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
        .threads(2)
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

/// SLOs that fire on the bursty fixture; the names carry a quote, a
/// backslash, a tab and non-ASCII text through the export's escaping.
fn slos() -> Vec<SloSpec> {
    vec![
        SloSpec::queue_wait("wait \"p90\"\t— 待ち", 5)
            .objective(0.9)
            .rules(vec![
                BurnRateRule::new("page", 200, 400, 1.0),
                BurnRateRule::new("ticket", 400, 1_200, 0.5),
            ]),
        SloSpec::slowdown("t0\\slowdown", 1.2)
            .tenant(0)
            .objective(0.8),
        SloSpec::billing_rate("t1-spend", 5.0)
            .tenant(1)
            .objective(0.9)
            .rules(vec![BurnRateRule::new("page", 200, 400, 0.8)]),
    ]
}

fn elastic<P: PlacementPolicy>(driver: ClusterDriver<P>) -> ClusterDriver<P> {
    driver
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
}

fn replay<P: PlacementPolicy>(
    mut driver: ClusterDriver<P>,
    trace: &InvocationTrace,
) -> ClusterReport {
    let (tables, model) = calibration();
    let mut cluster = Cluster::build(skewed_config(4), tables, model).unwrap();
    driver.replay(&mut cluster, trace).unwrap()
}

#[test]
fn traced_replay_with_slos() {
    let driver = ClusterDriver::new(LitmusAware::new())
        .telemetry(TelemetryConfig::default().trace_sampling(0x5EED, 1.0))
        .slos(slos());
    let report = replay(driver, &bursty_trace(1_600, 23));
    assert!(!report.slo_alerts().is_empty(), "fixture must fire alerts");
    assert_golden(
        "traced",
        &report.timeline_jsonl(),
        86_847,
        0xA4F0_619C_9D0D_48AF,
    );
}

#[test]
fn autoscaled_stealing_forecast_replay() {
    let report = replay(
        elastic(ClusterDriver::new(LitmusAware::new())),
        &bursty_trace(2_000, 17),
    );
    assert!(!report.scale_events().is_empty());
    assert!(!report.forecast_samples().is_empty());
    assert!(report.steal_events().iter().any(|steal| steal.moved > 0));
    assert!(
        report
            .machine_lifetimes()
            .iter()
            .any(|machine| machine.retired_ms.is_none()),
        "some machine span stays open"
    );
    assert_golden(
        "elastic",
        &report.timeline_jsonl(),
        20_336,
        0x848C_B940_D638_BE39,
    );
}

#[test]
fn retention_replay_streamed_export() {
    let driver = elastic(ClusterDriver::new(RoundRobin::new()))
        .telemetry(
            TelemetryConfig::default()
                .trace_sampling(0x5EED, 1.0)
                .timeline_retention(64),
        )
        .slos(slos());
    let report = replay(driver, &bursty_trace(1_600, 23));
    assert!(report.timeline_peak_retained() <= 65);
    assert_golden(
        "streamed",
        report
            .streamed_jsonl()
            .expect("retention streams the export"),
        102_339,
        0xF25C_D503_BC24_9172,
    );
}
