//! The traced run: per-layer metrics, and the attribution of replay wall
//! time to the layers. It turns on the driver's `StageProfile` and times
//! each trace pull, so it is slower than the end-to-end run; no
//! end-to-end number comes from it.

use std::time::Instant;

use crate::metrics::{metric, price_gaps, Metric, Outcome};
use crate::replay::{self, median, Replay, Shape};
use crate::workload::{slo_engine, Length, Setup, SetupTimes, Workload, SLICE_MS};
use crate::{gate, measured_shape, probes};

/// Set-ups per traced run; each stage's time is their median.
const SETUP_REPS: usize = 25;

/// Fewest untraced/traced replay pairs, however long each takes.
const MIN_PAIRS: usize = 3;
/// Replays behind each ratio (thread speed-up, length scaling).
const RATIO_REPS: usize = 3;

/// Where one traced replay's wall time went, seconds.
struct Attribution {
    wall_s: f64,
    source_s: f64,
    export_s: f64,
    /// `StageProfile` totals by stage name; `fan-out` nests in `step`.
    stages: Vec<(&'static str, f64)>,
    boundaries: u64,
}

impl Attribution {
    fn of(run: &Replay) -> Self {
        let profile = run.report.telemetry().profile();
        let stages = profile
            .stages()
            .map(|(name, stat)| (name, stat.total_ns as f64 / 1e9))
            .collect();
        Attribution {
            wall_s: run.wall_s,
            source_s: run.source_s,
            export_s: run.export_s,
            stages,
            boundaries: profile.stage("step").map_or(0, |stat| stat.calls),
        }
    }

    fn stage_s(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .find(|(stage, _)| *stage == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Self-time shares of the replay wall, each counted once, plus the
    /// unattributed remainder.
    fn shares(&self) -> Vec<Metric> {
        let fanout = self.stage_s("fan-out");
        let parts = [
            ("cluster.driver.dispatch_share", self.stage_s("dispatch")),
            ("cluster.driver.scale_share", self.stage_s("scale")),
            ("cluster.driver.steal_share", self.stage_s("steal")),
            ("cluster.driver.step_share", self.stage_s("step") - fanout),
            ("cluster.driver.fanout_share", fanout),
            ("cluster.driver.queue_share", self.stage_s("queue")),
            (
                "cluster.driver.bulk_account_share",
                self.stage_s("bulk-account"),
            ),
            ("trace.pull_share", self.source_s),
            ("telemetry.export_share", self.export_s),
        ];
        let mut shares: Vec<Metric> = parts
            .iter()
            .map(|&(name, s)| metric(name, "ratio", s / self.wall_s))
            .collect();
        let attributed: f64 = shares.iter().map(|m| m.value).sum();
        shares.push(metric(
            "cluster.driver.unattributed_share",
            "ratio",
            1.0 - attributed,
        ));
        shares
    }
}

/// Median wall of `RATIO_REPS` replays, seconds, and the invocations
/// each admitted.
fn median_wall(
    setup: &Setup,
    workload: Workload,
    length: Length,
    seed: u64,
    shape: Shape,
) -> (f64, usize) {
    let mut admitted = 0;
    let walls: Vec<f64> = (0..RATIO_REPS)
        .map(|_| {
            let run = replay::run(setup, workload, length, seed, shape);
            admitted = run.admitted;
            run.wall_s
        })
        .collect();
    (median(&walls), admitted)
}

/// Sets up `SETUP_REPS` times; returns the last set-up and every
/// set-up's stage timings.
fn timed_setups(workload: Workload) -> (Setup, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let (built, stages) = Setup::timed(workload);
        times.push(stages);
        setup = Some(built);
    }
    (setup.expect("SETUP_REPS is positive"), times)
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut metrics = Vec::new();

    // The first replay warms caches, the allocator and the CPU; it is
    // checked but not timed, and set-up is timed after it.
    let (setup, _) = Setup::timed(workload);
    let first = replay::run(&setup, workload, Length::Full, seed, measured_shape(false));
    let report = &first.report;
    let (setup, times) = timed_setups(workload);
    let stage = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>()) * 1e3;
    metrics.push(metric("trace.parse_ms", "ms", stage(|t| t.parse_s)));
    metrics.push(metric("core.calibrate_ms", "ms", stage(|t| t.calibrate_s)));
    metrics.push(metric("cluster.boot_ms", "ms", stage(|t| t.boot_s)));

    // Untraced and traced replays alternate, so host drift hits both.
    let started = Instant::now();
    let mut plain_walls = Vec::new();
    let mut traced: Vec<Attribution> = Vec::new();
    while plain_walls.len() < MIN_PAIRS || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let plain = replay::run(&setup, workload, Length::Full, seed, measured_shape(false));
        plain_walls.push(plain.wall_s);
        let run = replay::run(&setup, workload, Length::Full, seed, measured_shape(true));
        traced.push(Attribution::of(&run));
    }
    let full_wall = median(&plain_walls);
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let attribution = &traced[traced.len() / 2];

    metrics.push(metric("replay.wall_ms", "ms", full_wall * 1e3));
    metrics.push(metric(
        "bench.tracing_overhead",
        "ratio",
        attribution.wall_s / full_wall,
    ));
    metrics.extend(attribution.shares());
    metrics.push(metric(
        "cluster.driver.boundaries",
        "count",
        attribution.boundaries as f64,
    ));
    metrics.push(metric(
        "cluster.redispatched",
        "count",
        report.redispatched as f64,
    ));
    metrics.push(metric(
        "cluster.scale_events",
        "count",
        report.scale_events().len() as f64,
    ));
    metrics.push(metric(
        "cluster.peak_machines",
        "count",
        report.peak_machines as f64,
    ));

    let one_thread = Shape {
        threads: 1,
        ..measured_shape(false)
    };
    let (one_thread_wall, _) = median_wall(&setup, workload, Length::Full, seed, one_thread);
    metrics.push(metric(
        "cluster.pool.speedup_2t",
        "ratio",
        one_thread_wall / full_wall,
    ));

    let (half_wall, half_admitted) =
        median_wall(&setup, workload, Length::Half, seed, measured_shape(false));
    metrics.push(metric(
        "replay.length_scaling",
        "ratio",
        (full_wall / first.admitted as f64) / (half_wall / half_admitted as f64),
    ));

    metrics.push(metric("sim.quanta", "count", first.quanta as f64));
    metrics.push(metric(
        "sim.quantum_ns.busy",
        "ns",
        probes::quantum_busy_ns(),
    ));
    metrics.push(metric(
        "sim.history_contexts",
        "count",
        first.max_launched as f64,
    ));
    metrics.push(metric(
        "sim.quantum_ns.history",
        "ns",
        probes::quantum_history_ns(first.max_launched),
    ));

    let (step_to_us, step_to_calls) = probes::machine_step_to(&setup, workload, seed, report);
    metrics.push(metric("cluster.machine.step_to_us", "us", step_to_us));
    metrics.push(metric(
        "cluster.machine.step_to_calls",
        "count",
        step_to_calls as f64,
    ));

    metrics.push(metric(
        "core.price_ns",
        "ns",
        probes::price_ns(&setup, workload, seed),
    ));
    metrics.extend(price_gaps(report));

    let (expand_ns, kept_frac, per_slice) = probes::trace_drain(&setup, workload, seed);
    metrics.push(metric("trace.expand_ns_per_event", "ns", expand_ns));
    metrics.push(metric("trace.kept_frac", "ratio", kept_frac));

    metrics.push(metric(
        "forecast.observe_ns",
        "ns",
        probes::forecast_observe_ns(&per_slice),
    ));
    metrics.push(metric(
        "forecast.samples",
        "count",
        report.forecast_samples().len() as f64,
    ));

    let jsonl = report.timeline_jsonl();
    metrics.push(metric(
        "telemetry.export_ms",
        "ms",
        probes::time_median(|| report.timeline_jsonl()) * 1e3,
    ));
    metrics.push(metric("telemetry.bytes", "bytes", jsonl.len() as f64));
    metrics.push(metric(
        "telemetry.events",
        "count",
        report.timeline().len() as f64,
    ));
    let engine = slo_engine();
    metrics.push(metric(
        "observe.slo_eval_ms",
        "ms",
        probes::time_median(|| engine.evaluate(report.timeline(), SLICE_MS)) * 1e3,
    ));
    metrics.push(metric(
        "observe.alerts",
        "count",
        engine.evaluate(report.timeline(), SLICE_MS).alerts.len() as f64,
    ));

    let failures = gate::check(&setup, workload, seed, report);
    Outcome {
        attempted: first.admitted as u64,
        failed: (report.unfinished + failures.len()) as u64,
        metrics,
        failures,
    }
}
