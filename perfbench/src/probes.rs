//! Layer probes: each times one public function of one layer, at the
//! operating point a workload puts it at, from outside the program.

use std::hint::black_box;
use std::time::Instant;

use litmus::cluster::{ClusterReport, Machine, MachineId, ServingContext, SteppingMode};
use litmus::forecast::{Forecaster, ForecasterSpec};
use litmus::platform::{CountingSource, TraceEvent, TraceSource};
use litmus::sim::{ExecutionProfile, ExecutionReport, MachineSpec, Placement, Simulator};
use litmus::workloads::{suite, Benchmark};

use crate::replay::median;
use crate::workload::{Length, Setup, Workload, CORES, SLICE_MS, THREADS};

/// Repetitions of each probe; the probe reports their median.
const PROBE_REPS: usize = 5;

/// Median wall time of `f` over `PROBE_REPS` calls, seconds.
pub fn time_median<T>(mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

fn count(mut source: impl TraceSource) -> usize {
    let mut n = 0;
    while source.next_event().is_some() {
        n += 1;
    }
    n
}

fn drain(mut source: impl TraceSource) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    while let Some(event) = source.next_event() {
        events.push(event);
    }
    events
}

/// A Table-1 body long enough to stay active through every timed
/// quantum of the simulator probes.
fn long_body() -> ExecutionProfile {
    suite::benchmarks()[0]
        .profile()
        .scaled(1_000.0)
        .expect("positive scale")
}

/// Mean ns of `Simulator::step` over `quanta` quanta.
fn time_steps(sim: &mut Simulator, quanta: u32) -> f64 {
    for _ in 0..quanta / 10 {
        black_box(sim.step());
    }
    let started = Instant::now();
    for _ in 0..quanta {
        black_box(sim.step());
    }
    started.elapsed().as_secs_f64() * 1e9 / f64::from(quanta)
}

/// `Simulator::step` with 24 active contexts on the 8 serving cores.
pub fn quantum_busy_ns() -> f64 {
    let mut sim = Simulator::new(MachineSpec::cascade_lake());
    for _ in 0..24 {
        sim.launch(long_body(), Placement::pool_range(0, CORES))
            .expect("serving cores exist");
    }
    median(
        &(0..PROBE_REPS)
            .map(|_| time_steps(&mut sim, 2_000))
            .collect::<Vec<_>>(),
    )
}

/// `Simulator::step` with one active context after `history` contexts
/// have completed on the same simulator.
pub fn quantum_history_ns(history: usize) -> f64 {
    let mut sim = Simulator::new(MachineSpec::cascade_lake());
    let short = suite::benchmarks()[0]
        .profile()
        .scaled(0.001)
        .expect("positive scale");
    let mut launched = 0;
    while launched < history {
        let batch = (history - launched).min(64);
        for _ in 0..batch {
            sim.launch(short.clone(), Placement::pool_range(0, CORES))
                .expect("serving cores exist");
        }
        sim.run_until_idle().expect("short bodies finish");
        launched += batch;
    }
    sim.launch(long_body(), Placement::pinned(0))
        .expect("core 0 exists");
    median(
        &(0..PROBE_REPS)
            .map(|_| time_steps(&mut sim, 2_000))
            .collect::<Vec<_>>(),
    )
}

/// The share of the trace a replay routed to machine 0, replayed on a
/// standalone machine through `Machine::boot`, `dispatch` and
/// `step_to`, stepping to each admitting boundary as the driver does.
/// Returns (mean µs per `step_to`, calls).
pub fn machine_step_to(
    setup: &Setup,
    workload: Workload,
    seed: u64,
    report: &ClusterReport,
) -> (f64, usize) {
    let spec = MachineSpec::cascade_lake();
    let config = workload.cluster_config(THREADS, SteppingMode::EventDriven);
    let mut ctx = ServingContext::new(
        setup.tables.clone(),
        setup.model.clone(),
        config.serving_scale,
    );
    let language = setup.tables.baselines()[0].language;
    let events: Vec<TraceEvent> = drain(workload.source(&setup.days, seed, Length::Full))
        .into_iter()
        .zip(&report.placements)
        .filter(|(_, machine)| **machine == MachineId(0))
        .map(|(event, _)| event)
        .collect();
    for event in &events {
        ctx.warm_function(&spec, &event.function).expect("solo run");
    }
    let mut machine = Machine::boot(MachineId(0), 0, spec, &config.machines[0], language, &ctx)
        .expect("machine boots");

    let mut stepped = 0.0;
    let mut calls = 0;
    let mut step_to = |machine: &mut Machine, at_ms: u64| {
        let started = Instant::now();
        machine.step_to(at_ms, &ctx).expect("machine steps");
        stepped += started.elapsed().as_secs_f64();
        calls += 1;
    };
    let mut now = 0;
    let mut pending = events.into_iter().peekable();
    while let Some(first) = pending.peek() {
        now = (first.at_ms / SLICE_MS + 1) * SLICE_MS;
        while let Some(event) = pending.next_if(|e| e.at_ms < now) {
            machine.dispatch(event.at_ms, event.function, event.tenant, None);
        }
        step_to(&mut machine, now);
    }
    while machine.outstanding() > 0 {
        now += SLICE_MS;
        step_to(&mut machine, now);
    }
    (stepped * 1e6 / calls.max(1) as f64, calls)
}

/// `ServingContext::price` over completed executions of the first
/// distinct functions the workload serves.
pub fn price_ns(setup: &Setup, workload: Workload, seed: u64) -> f64 {
    let spec = MachineSpec::cascade_lake();
    let mut functions: Vec<Benchmark> = Vec::new();
    let mut source = workload.source(&setup.days, seed, Length::Full);
    while let Some(event) = source.next_event() {
        if functions.len() == 8 {
            break;
        }
        if !functions.iter().any(|f| f.name() == event.function.name()) {
            functions.push(event.function);
        }
    }
    let mut ctx = ServingContext::new(setup.tables.clone(), setup.model.clone(), 0.05);
    let mut sim = Simulator::new(spec.clone());
    let executions: Vec<(Benchmark, ExecutionReport)> = functions
        .into_iter()
        .map(|function| {
            ctx.warm_function(&spec, &function).expect("solo run");
            let profile = function.profile().scaled(0.05).expect("positive scale");
            let id = sim
                .launch(profile, Placement::pool_range(0, CORES))
                .expect("serving cores exist");
            let report = sim.run_to_completion(id).expect("function completes");
            (function, report)
        })
        .collect();
    const CALLS: usize = 20_000;
    let wall = time_median(|| {
        for i in 0..CALLS {
            let (function, report) = &executions[i % executions.len()];
            black_box(ctx.price(function, report).expect("warmed function prices"));
        }
    });
    wall * 1e9 / CALLS as f64
}

/// Drains the workload's source alone. Returns (ns per expanded event,
/// events kept ÷ events expanded, per-slice arrival counts).
pub fn trace_drain(setup: &Setup, workload: Workload, seed: u64) -> (f64, f64, Vec<u64>) {
    let expanded = count(workload.raw_source(&setup.days, seed));
    let wall = time_median(|| count(workload.source(&setup.days, seed, Length::Full)));
    let mut counting =
        CountingSource::new(workload.source(&setup.days, seed, Length::Full), SLICE_MS);
    let kept = count(&mut counting);
    let (_, per_slice) = counting.into_parts();
    (
        wall * 1e9 / expanded as f64,
        kept as f64 / expanded as f64,
        per_slice,
    )
}

/// `Forecaster::observe` of the predictive autoscaler's model, fed the
/// workload's per-slice arrival counts.
pub fn forecast_observe_ns(per_slice: &[u64]) -> f64 {
    const OBSERVATIONS: usize = 1_000_000;
    let series: Vec<f64> = per_slice.iter().map(|&n| n as f64).collect();
    let wall = time_median(|| {
        let mut model = ForecasterSpec::Ewma { alpha: 0.35 }
            .build()
            .expect("valid alpha");
        for value in series.iter().cycle().take(OBSERVATIONS) {
            model.observe(black_box(*value));
        }
        model.predict(1)
    });
    wall * 1e9 / OBSERVATIONS as f64
}
