//! One timed replay of a workload on a freshly booted fleet.

use std::time::Instant;

use litmus::cluster::{ClusterReport, SteppingMode};
use litmus::platform::{TraceEvent, TraceSource};

use crate::workload::{Length, Setup, Workload};

/// How a replay is stepped and observed.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub threads: usize,
    pub stepping: SteppingMode,
    /// Turns on the driver's wall-clock `StageProfile` and times every
    /// pull from the trace source (traced run only).
    pub profiling: bool,
}

pub struct Replay {
    pub report: ClusterReport,
    /// Invocations the replay admitted.
    pub admitted: usize,
    /// Wall time of `replay_source`, plus the JSONL export for
    /// workloads whose replay includes it, seconds.
    pub wall_s: f64,
    /// Wall time of the JSONL export inside `wall_s` (0 when the
    /// workload does not export), seconds.
    pub export_s: f64,
    /// Wall time spent inside the trace source's `next_event`, seconds
    /// (0 unless `Shape::profiling`).
    pub source_s: f64,
    /// Simulator quanta stepped by the machines still live at the end.
    pub quanta: u64,
    /// Most invocations any live machine launched: the serving
    /// contexts its simulator holds at the end of the run.
    pub max_launched: usize,
}

/// A trace source wrapper that accumulates the wall time of each pull.
struct TimedSource<'a, S> {
    inner: S,
    spent_s: &'a mut f64,
}

impl<S: TraceSource> TraceSource for TimedSource<'_, S> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        let started = Instant::now();
        let event = self.inner.next_event();
        *self.spent_s += started.elapsed().as_secs_f64();
        event
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

pub fn run(setup: &Setup, workload: Workload, length: Length, seed: u64, shape: Shape) -> Replay {
    let mut cluster = setup.boot(workload, shape.threads, shape.stepping);
    let mut driver = workload.driver(shape.profiling);
    let source = workload.source(&setup.days, seed, length);
    let mut source_s = 0.0;

    let started = Instant::now();
    let report = if shape.profiling {
        let timed = TimedSource {
            inner: source,
            spent_s: &mut source_s,
        };
        driver.replay_source(&mut cluster, timed)
    } else {
        driver.replay_source(&mut cluster, source)
    }
    .expect("replay succeeds");
    let export_started = Instant::now();
    if workload.exports() {
        std::hint::black_box(report.timeline_jsonl());
    }
    let export_s = export_started.elapsed().as_secs_f64();
    let wall_s = started.elapsed().as_secs_f64();

    let max_launched = (0..cluster.len())
        .filter_map(|i| cluster.machine(i))
        .map(|machine| machine.launched())
        .max()
        .unwrap_or(0);
    Replay {
        admitted: report.placements.len(),
        wall_s,
        export_s: if workload.exports() { export_s } else { 0.0 },
        source_s,
        quanta: cluster.quanta_stepped(),
        max_launched,
        report,
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
