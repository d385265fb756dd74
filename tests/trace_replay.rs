//! End-to-end Azure-trace replay tests: the streaming `TraceSource`
//! path must be bit-identical to fully-materialized replay — same
//! `ClusterReport` (billing totals, latency stats, placements) at the
//! same seed — under every placement policy, at both the platform and
//! the cluster layer.

use litmus::prelude::*;
use litmus::trace::{fixture, multi_day_source, TransformedSource};

/// One compressed trace minute, ms (15-minute fixture → 3 s replay).
const MINUTE_MS: u64 = 200;
const SEED: u64 = 77;

fn expand_config() -> ExpandConfig {
    ExpandConfig::new(SEED).minute_ms(MINUTE_MS)
}

/// Thin and compress the fixture to a debug-friendly size; the
/// transform chain is part of what must stream identically — the
/// compression deliberately creates cross-tenant arrival ties, the
/// case where naive streaming would diverge from the materialized
/// canonical order.
fn transforms() -> Vec<TraceTransform> {
    vec![
        TraceTransform::ScaleRate {
            keep_fraction: 0.15,
            seed: 5,
        },
        TraceTransform::Compress { divisor: 2 },
    ]
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

fn cluster_config() -> ClusterConfig {
    let machines: Vec<_> = (0..3)
        .map(|i| {
            let background = if i == 0 { 12 } else { 0 };
            MachineConfig::new(8)
                .background(background)
                .background_scale(0.05)
                .warmup_ms(60)
                .seed(0xACE + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), 3, 8)
        .machines(machines)
        .serving_scale(0.04)
        .threads(2)
        .slice_ms(20)
}

/// The thinned fixture, materialized.
fn materialized_trace() -> InvocationTrace {
    let trace = fixture::dataset().expand(expand_config()).unwrap();
    litmus::trace::apply(&trace, &transforms()).unwrap()
}

/// The same workload as a pure stream: expander → transform chain →
/// driver, nothing materialized.
fn streaming_source() -> impl TraceSource {
    let source = fixture::dataset().source(expand_config()).unwrap();
    TransformedSource::new(source, transforms()).unwrap()
}

fn replay_materialized<P: PlacementPolicy>(policy: P, trace: &InvocationTrace) -> ClusterReport {
    let (tables, model) = calibration();
    let mut cluster = Cluster::build(cluster_config(), tables, model).unwrap();
    ClusterDriver::new(policy)
        .replay(&mut cluster, trace)
        .unwrap()
}

fn replay_streaming<P: PlacementPolicy>(policy: P) -> ClusterReport {
    let (tables, model) = calibration();
    let mut cluster = Cluster::build(cluster_config(), tables, model).unwrap();
    ClusterDriver::new(policy)
        .replay_source(&mut cluster, streaming_source())
        .unwrap()
}

#[test]
fn streaming_cluster_replay_is_bit_identical_for_every_policy() {
    let trace = materialized_trace();
    assert!(
        trace.len() > 200,
        "thinned fixture too small: {}",
        trace.len()
    );

    let round_robin = replay_materialized(RoundRobin::new(), &trace);
    assert_eq!(round_robin, replay_streaming(RoundRobin::new()));

    let least_loaded = replay_materialized(LeastLoaded::new(), &trace);
    assert_eq!(least_loaded, replay_streaming(LeastLoaded::new()));

    let litmus_aware = replay_materialized(LitmusAware::new(), &trace);
    assert_eq!(litmus_aware, replay_streaming(LitmusAware::new()));

    // The reports are real replays, not vacuous equalities: everything
    // completed and every fixture tenant was billed.
    for report in [&round_robin, &least_loaded, &litmus_aware] {
        assert_eq!(report.completed, trace.len());
        assert_eq!(report.unfinished, 0);
        assert!(report.mean_latency_ms > 0.0);
        assert!(report.billing.total().litmus_revenue() > 0.0);
        assert!(
            report.billing.total().litmus_revenue()
                <= report.billing.total().commercial_revenue() * (1.0 + 1e-9)
        );
    }
    let billed_tenants = litmus_aware.billing.tenants().count();
    assert_eq!(billed_tenants, trace.tenants().len());
}

#[test]
fn event_driven_two_day_replay_is_bit_identical_to_slice_stepping() {
    // The event engine's acceptance fixture: a two-day chain of the
    // Azure fixture (shared tenant map, second day offset onto the
    // first's end), thinned and compressed like the other tests.
    // Slice stepping is the oracle; the event-driven replay must match
    // it bit-for-bit — full report AND telemetry JSONL, including the
    // per-invocation span chains (tracing at rate 1.0). The JSONL is
    // compared line-by-line so a divergence points at the first
    // differing event instead of dumping two multi-megabyte strings.
    let days = [fixture::dataset(), fixture::dataset()];
    let two_day = || {
        let source = multi_day_source(&days, expand_config()).unwrap();
        TransformedSource::new(source, transforms()).unwrap()
    };
    let traced = || TelemetryConfig::default().trace_sampling(0x7ACE, 1.0);
    let (tables, model) = calibration();
    let mut slice_cluster =
        Cluster::build(cluster_config(), tables.clone(), model.clone()).unwrap();
    let slice = ClusterDriver::new(LitmusAware::new())
        .telemetry(traced())
        .replay_source(&mut slice_cluster, two_day())
        .unwrap();
    let mut event_cluster = Cluster::build(
        cluster_config().stepping(SteppingMode::EventDriven),
        tables,
        model,
    )
    .unwrap();
    let event = ClusterDriver::new(LitmusAware::new())
        .telemetry(traced())
        .replay_source(&mut event_cluster, two_day())
        .unwrap();
    litmus::telemetry::assert_jsonl_eq(
        "slice",
        &slice.timeline_jsonl(),
        "event",
        &event.timeline_jsonl(),
    );
    assert_eq!(slice, event);
    // The replay is real: both fixture days completed in full and the
    // chain spanned both days' compressed spans (the transform chain's
    // Compress{divisor: 2} halves the 2 × 15-minute extent).
    assert!(slice.completed > 400, "completed {}", slice.completed);
    assert_eq!(slice.unfinished, 0);
    assert!(slice.sim_ms >= 2 * 15 * MINUTE_MS / 2);
}

#[test]
fn streaming_platform_replay_matches_materialized() {
    // Single-machine metering pipeline: webshop's traffic only,
    // streamed vs materialized.
    let keep = vec![TraceTransform::Subsample {
        tenants: vec![TenantId(3)], // c0ffee01/webshop in sorted app order
    }];
    let full = fixture::dataset().expand(expand_config()).unwrap();
    let trace = litmus::trace::apply(&full, &keep).unwrap();
    assert!(!trace.is_empty());

    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 24])
        .reference_scale(0.03)
        .build()
        .unwrap();
    let pricing = LitmusPricing::new(DiscountModel::fit(&tables).unwrap());
    let driver = litmus::platform::TraceDriver::new(MachineSpec::cascade_lake(), 8)
        .scale(0.04)
        .drain_ms(30_000);

    let materialized = driver.replay(&trace, &pricing, &tables).unwrap();
    let source =
        TransformedSource::new(fixture::dataset().source(expand_config()).unwrap(), keep).unwrap();
    let streamed = driver.replay_source(source, &pricing, &tables).unwrap();
    assert_eq!(materialized, streamed);
    assert_eq!(materialized.ledger.len(), trace.len());
}

/// FNV-1a over the little-endian bytes of every folded word, as in
/// `crates/sim/tests/golden.rs`.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn counters(&mut self, c: &PmuCounters) {
        self.f64(c.cycles);
        self.f64(c.instructions);
        self.f64(c.stall_l2_cycles);
        self.f64(c.l2_misses);
        self.f64(c.l3_misses);
        self.f64(c.context_switches);
    }

    fn price(&mut self, p: &Price) {
        self.f64(p.private);
        self.f64(p.shared);
    }
}

#[test]
fn platform_replay_outcome_is_pinned() {
    // The thinned, compressed fixture streamed through the
    // single-machine metering pipeline: every invoice (function,
    // counters and all three prices, in completion order), the
    // unfinished count and the mean latency, folded bit for bit. Any
    // change to what a launch runs or how it is priced moves it.
    let (tables, model) = calibration();
    let pricing = LitmusPricing::new(model);
    let outcome = litmus::platform::TraceDriver::new(MachineSpec::cascade_lake(), 8)
        .scale(0.04)
        .drain_ms(30_000)
        .replay_source(streaming_source(), &pricing, &tables)
        .unwrap();
    let mut digest = Digest::new();
    for invoice in outcome.ledger.invoices() {
        for byte in invoice.function.bytes() {
            digest.u64(u64::from(byte));
        }
        digest.counters(&invoice.counters);
        digest.price(&invoice.commercial);
        digest.price(&invoice.litmus);
        digest.price(&invoice.ideal);
    }
    digest.u64(outcome.ledger.len() as u64);
    digest.u64(outcome.unfinished as u64);
    digest.f64(outcome.mean_latency_ms);
    assert_eq!(outcome.ledger.len(), 533);
    assert_eq!(outcome.unfinished, 0);
    assert_eq!(
        digest.0, 0xF0E8_7295_FCC0_0D1E,
        "platform replay digest moved: {:#018x}",
        digest.0
    );
}
