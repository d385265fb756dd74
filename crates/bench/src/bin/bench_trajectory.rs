//! Perf-trajectory runner: replay the bundled Azure fixture end to end
//! and write `BENCH_cluster.json` — the committed baseline CI's
//! bench-gate checks regressions against.
//!
//! Two arms, each run under BOTH replay engines (slice stepping — the
//! oracle — and the discrete-event engine), at 1 and 4 stepping threads
//! (the driver and 0 or 3 pool workers):
//!
//! * **dense** — one fixture day with stealing + predictive
//!   autoscaling on: every slice boundary is a decision round, so this
//!   measures the full dispatch → simulate → probe → price → shard
//!   path and the per-stage breakdown: dispatch / scale / steal /
//!   step under both engines, `fan-out` around each hand-off of two
//!   or more busy machines to the worker pool, with the driver's own
//!   shard as its self time and `barrier` as the wait for the workers
//!   after it, and the event engine's bulk-account;
//! * **sparse** — a two-day fixture chain stretched to real-time
//!   minutes and thinned hard, so almost every slice is empty: the
//!   workload the event engine collapses. The file records the
//!   slice-vs-event speedup per thread count.
//!
//! The binary is also the CI perf-regression gate: it exits non-zero
//! if the event-driven replay is not bit-identical to the slice oracle
//! (full `ClusterReport` AND telemetry JSONL), or if event-driven
//! throughput on the sparse arm falls below slice-mode. The sparse
//! gate compares best-of-3 walls in both modes: a single smoke replay
//! takes under 10 ms, and one host stall would decide it.
//!
//! Every run also records `sim_quanta` (simulator quanta its machines
//! stepped), `sim_solves` (how many of them ran the congestion fixed
//! point rather than reusing the previous quantum's solve or finding it
//! in the lone-domain memo) and `sim_bulk_quanta` (how many of them a
//! stable plan advanced in bulk rather than one step each). All three
//! are sim-clock counts, identical on every host. The binary exits
//! non-zero if the sparse event-driven arm solves more than
//! `MAX_SPARSE_SOLVE_SHARE` of its quanta, or advances less than
//! `MIN_SPARSE_BULK_SHARE` of them in bulk: a broken reuse rule, a memo
//! that stopped hitting, or a bulk advance that stopped firing moves
//! its share without changing any output.
//!
//! Every run also records `shard_bound`: over all of the replay's
//! hand-offs, the busy machines' active simulator instances summed,
//! divided by the largest shard's summed ([`Cluster::shard_load`]) —
//! the speedup the shard layouts allow if a machine's step cost is its
//! active instances, 1 where nothing was handed off. It is a sim-clock
//! ratio, so unlike the wall-clock 4-vs-1 thread ratio (printed, not
//! gated: on a small shared host it spreads wider than any change to the
//! hand-off) it reads the same on every host, and the binary exits
//! non-zero if the dense arm's 4-thread runs read below
//! `MIN_DENSE_SHARD_BOUND`.
//!
//! Usage: `bench-trajectory [--smoke] [--out PATH]`
//! `--smoke` shrinks both arms for CI (and is NOT a number to commit:
//! the checked-in baseline is a full-mode run). `--out` defaults to
//! `BENCH_cluster.json` in the current directory — run from the repo
//! root, or let `scripts/bench_trajectory` do it for you. Any other
//! argument is an error, so a mistyped `--smoke` cannot run full mode
//! and overwrite the baseline.

use std::time::Instant;

use litmus_cluster::{
    AutoscalerConfig, Cluster, ClusterConfig, ClusterDriver, ClusterReport, LitmusAware,
    MachineConfig, PredictiveConfig, ShardLoad, StealingConfig, SteppingMode,
};
use litmus_core::{DiscountModel, PricingTables, TableBuilder};
use litmus_forecast::ForecasterSpec;
use litmus_platform::TraceSource;
use litmus_sim::MachineSpec;
use litmus_telemetry::json::{array, JsonObject};
use litmus_trace::{
    fixture, multi_day_source, ExpandConfig, IntraMinute, TraceTransform, TransformedSource,
};

const MACHINES: usize = 6;
const SPARSE_MACHINES: usize = 4;
const CORES_PER_MACHINE: usize = 8;
const SEED: u64 = 2024;
/// Replays behind each sparse-arm wall, in both modes (see the gate).
const SPARSE_REPS: usize = 3;
/// Most of its quanta the sparse event-driven arm may solve (see the
/// module docs). When the bound was set, the arm solved 0.033 of them in
/// full mode and 0.035 in smoke mode, and 0.38 in both without the
/// lone-domain memo.
const MAX_SPARSE_SOLVE_SHARE: f64 = 0.1;
/// Least share of its quanta the sparse event-driven arm must advance
/// in bulk (see the module docs). When the floor was set, the arm
/// advanced 0.504 of them in bulk in full mode and in smoke mode alike,
/// and none without the bulk advance.
const MIN_SPARSE_BULK_SHARE: f64 = 0.25;
/// Least `shard_bound` the dense arm's 4-thread runs may read (see the
/// module docs). When the floor was set, greedy LPT on active instances
/// read 3.20 in full mode and 3.79 in smoke mode, and contiguous chunks
/// of the busy list, which put two of the three filler machines in one
/// shard, read 1.63 and 1.42.
const MIN_DENSE_SHARD_BOUND: f64 = 2.4;

const USAGE: &str = "usage: bench-trajectory [--smoke] [--out PATH]";

/// The command line.
#[derive(Debug, PartialEq)]
struct Args {
    smoke: bool,
    out_path: String,
}

/// Parses the arguments after the program name: `--smoke` and
/// `--out PATH`, nothing else.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        out_path: "BENCH_cluster.json".to_string(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out_path = args.next().ok_or("--out needs a path")?,
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    Ok(parsed)
}

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Slice,
    Event,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Slice => "slice",
            Engine::Event => "event-driven",
        }
    }

    fn stepping(self) -> SteppingMode {
        match self {
            Engine::Slice => SteppingMode::Pooled,
            Engine::Event => SteppingMode::EventDriven,
        }
    }
}

fn calibration() -> (PricingTables, DiscountModel) {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([6, 14, 22])
        .reference_scale(0.05)
        .build()
        .expect("tables build");
    let model = DiscountModel::fit(&tables).expect("model fit");
    (tables, model)
}

fn cluster_config(threads: usize) -> ClusterConfig {
    let machines: Vec<_> = (0..MACHINES)
        .map(|i| {
            let background = if i < MACHINES / 2 { 20 } else { 0 };
            MachineConfig::new(CORES_PER_MACHINE)
                .background(background)
                .background_scale(0.05)
                .warmup_ms(80)
                .max_inflight(4)
                .seed(0xA27E + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(MachineSpec::cascade_lake(), MACHINES, CORES_PER_MACHINE)
        .machines(machines)
        .serving_scale(0.05)
        .slice_ms(20)
        .threads(threads)
}

/// The sparse arm's fleet: idle machines only (background fillers are
/// never idle and would defeat the skip), no elasticity — the
/// multi-day-replay shape from the ROADMAP.
fn sparse_config(threads: usize) -> ClusterConfig {
    let machines: Vec<_> = (0..SPARSE_MACHINES)
        .map(|i| {
            MachineConfig::new(CORES_PER_MACHINE)
                .warmup_ms(80)
                .max_inflight(4)
                .seed(0xA27E + i as u64)
        })
        .collect();
    ClusterConfig::homogeneous(
        MachineSpec::cascade_lake(),
        SPARSE_MACHINES,
        CORES_PER_MACHINE,
    )
    .machines(machines)
    .serving_scale(0.05)
    .slice_ms(20)
    .threads(threads)
}

/// The same every-feature-on driver as `replay_inspect`: stealing +
/// predictive autoscaling + profiling, so the stage breakdown covers
/// every stage the replay loop has.
fn driver() -> ClusterDriver<LitmusAware> {
    ClusterDriver::new(LitmusAware::new())
        .stealing(StealingConfig::default().backlog_threshold(3))
        .autoscale(
            AutoscalerConfig::new(
                MachineConfig::new(CORES_PER_MACHINE)
                    .background_scale(0.05)
                    .warmup_ms(80)
                    .max_inflight(4)
                    .seed(0xB007),
            )
            .high_water(1.8)
            .low_water(1.05)
            .machine_bounds(MACHINES, 12)
            .cooldown_ms(200)
            .predictive(PredictiveConfig::new(
                ForecasterSpec::Ewma { alpha: 0.35 },
                120.0,
            )),
        )
        .profiling(true)
}

/// Plain Litmus-aware routing for the sparse arm: with elastic control
/// off, the event engine may bulk-skip quiet boundaries instead of
/// visiting every one.
fn sparse_driver() -> ClusterDriver<LitmusAware> {
    ClusterDriver::new(LitmusAware::new()).profiling(true)
}

struct RunResult {
    engine: Engine,
    threads: usize,
    reps: usize,
    wall_ms: Vec<f64>,
    best: ClusterReport,
    /// Simulator quanta stepped, how many solved the congestion fixed
    /// point and how many a stable plan advanced in bulk; the same in
    /// every rep.
    quanta: u64,
    solves: u64,
    bulk_quanta: u64,
    /// The hand-offs' sim-clock balance; the same in every rep.
    shard_load: ShardLoad,
}

impl RunResult {
    fn best_ms(&self) -> f64 {
        self.wall_ms.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

fn run<S: TraceSource>(
    config: &ClusterConfig,
    driver: &ClusterDriver<LitmusAware>,
    source: impl Fn() -> S,
    engine: Engine,
    reps: usize,
) -> RunResult {
    let (tables, model) = calibration();
    let config = config.clone().stepping(engine.stepping());
    let mut wall_ms = Vec::with_capacity(reps);
    let mut best: Option<(f64, ClusterReport)> = None;
    let mut counts = (0, 0, 0);
    let mut shard_load = ShardLoad::default();
    for _ in 0..reps {
        let mut cluster =
            Cluster::build(config.clone(), tables.clone(), model.clone()).expect("cluster boots");
        let mut driver = driver.clone();
        let source = source();
        let started = Instant::now();
        let report = driver
            .replay_source(&mut cluster, source)
            .expect("replay succeeds");
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        wall_ms.push(elapsed);
        counts = (
            cluster.quanta_stepped(),
            cluster.congestion_solves(),
            cluster.bulk_quanta(),
        );
        shard_load = cluster.shard_load();
        if best.as_ref().is_none_or(|(t, _)| elapsed < *t) {
            best = Some((elapsed, report));
        }
    }
    let (_, best) = best.expect("at least one rep");
    RunResult {
        engine,
        threads: config.threads,
        reps,
        wall_ms,
        best,
        quanta: counts.0,
        solves: counts.1,
        bulk_quanta: counts.2,
        shard_load,
    }
}

/// The oracle gate: event-driven must be bit-identical to slice
/// stepping — report AND telemetry JSONL. Divergence fails the bench
/// (and therefore CI's bench-gate job).
fn assert_oracle_equal(slice: &RunResult, event: &RunResult, arm: &str) {
    if slice.best != event.best || slice.best.timeline_jsonl() != event.best.timeline_jsonl() {
        eprintln!(
            "BENCH GATE FAIL ({arm}, threads={}): event-driven replay diverged from the \
             slice oracle",
            slice.threads
        );
        std::process::exit(1);
    }
    println!(
        "  threads={}: event-driven bit-identical to slice oracle",
        slice.threads
    );
}

fn run_json(result: &RunResult, invocations: usize) -> String {
    let best_ms = result.best_ms();
    let mean_ms = result.wall_ms.iter().sum::<f64>() / result.wall_ms.len() as f64;
    let mut obj = JsonObject::new();
    obj.str_field("engine", result.engine.name());
    obj.u64_field("threads", result.threads as u64);
    obj.u64_field("reps", result.reps as u64);
    obj.u64_field("invocations", invocations as u64);
    obj.u64_field("completed", result.best.completed as u64);
    obj.f64_field("best_wall_ms", best_ms);
    obj.f64_field("mean_wall_ms", mean_ms);
    obj.f64_field("throughput_inv_per_s", invocations as f64 / (best_ms / 1e3));
    obj.u64_field("peak_machines", result.best.peak_machines as u64);
    obj.u64_field("sim_quanta", result.quanta);
    obj.u64_field("sim_solves", result.solves);
    obj.u64_field("sim_bulk_quanta", result.bulk_quanta);
    obj.f64_field("shard_bound", result.shard_load.bound());
    // Wall-clock stage breakdown from the fastest rep — slice-vs-event
    // lives here ("fan-out"/"barrier" and "bulk-account" especially).
    obj.raw_field("stages", &result.best.telemetry().profile().to_json());
    obj.finish()
}

fn print_run(result: &RunResult, invocations: usize) {
    let best_ms = result.best_ms();
    println!(
        "  threads={} engine={}: best {best_ms:.1} ms, {:.0} inv/s",
        result.threads,
        result.engine.name(),
        invocations as f64 / (best_ms / 1e3),
    );
    println!(
        "    sim quanta {}, congestion solves {}, bulk quanta {}, shard bound {:.2}",
        result.quanta,
        result.solves,
        result.bulk_quanta,
        result.shard_load.bound()
    );
    print!("{}", result.best.telemetry().profile().summary());
}

fn main() {
    let Args { smoke, out_path } = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("error: {err}\n{USAGE}");
        std::process::exit(2);
    });

    // One trace minute compressed to this many sim ms; smoke shrinks
    // the day so CI finishes in seconds.
    let minute_ms: u64 = if smoke { 150 } else { 600 };
    // The sparse arm stretches minutes instead, so the two-day chain is
    // dominated by empty slices.
    let sparse_minute_ms: u64 = if smoke { 8_000 } else { 120_000 };
    let reps: usize = if smoke { 1 } else { 3 };

    let dataset = fixture::dataset();
    let trace = dataset
        .expand(
            ExpandConfig::new(SEED)
                .minute_ms(minute_ms)
                .placement(IntraMinute::Poisson),
        )
        .expect("fixture expands");
    println!(
        "bench-trajectory ({}): dense arm {} invocations over {} fixture minutes, \
         {} reps per engine/thread combination",
        if smoke { "smoke" } else { "full" },
        trace.len(),
        dataset.minutes(),
        reps,
    );

    let mut runs = Vec::new();
    let mut dense_best_ms = Vec::new();
    for threads in [1usize, 4] {
        let config = cluster_config(threads);
        let bench_driver = driver();
        let slice = run(
            &config,
            &bench_driver,
            || trace.source(),
            Engine::Slice,
            reps,
        );
        let event = run(
            &config,
            &bench_driver,
            || trace.source(),
            Engine::Event,
            reps,
        );
        assert_oracle_equal(&slice, &event, "dense");
        print_run(&slice, trace.len());
        print_run(&event, trace.len());
        // The balance gate: a host-independent ratio, so no reps needed.
        for result in [&slice, &event] {
            let bound = result.shard_load.bound();
            if threads == 4 && bound < MIN_DENSE_SHARD_BOUND {
                eprintln!(
                    "BENCH GATE FAIL (dense, threads={threads}, {}): the hand-offs' shards \
                     bound the parallel speedup at {bound:.2} (floor \
                     {MIN_DENSE_SHARD_BOUND}) — shard balance regressed",
                    result.engine.name()
                );
                std::process::exit(1);
            }
        }
        runs.push(run_json(&slice, trace.len()));
        runs.push(run_json(&event, trace.len()));
        dense_best_ms.push((slice.best_ms(), event.best_ms()));
    }
    if let [(slice_1, event_1), (slice_4, event_4)] = dense_best_ms[..] {
        println!(
            "  4 vs 1 threads, wall clock (not gated): slice x{:.2}, event-driven x{:.2}",
            slice_1 / slice_4,
            event_1 / event_4
        );
    }

    // Sparse arm: two fixture days chained on a shared tenant map,
    // stretched to `sparse_minute_ms` per trace minute and thinned to
    // a trickle — the replay is almost entirely idle gaps.
    let days = [fixture::dataset(), fixture::dataset()];
    let sparse_expand = ExpandConfig::new(SEED)
        .minute_ms(sparse_minute_ms)
        .placement(IntraMinute::Poisson);
    let sparse_source = || {
        let source = multi_day_source(&days, sparse_expand).expect("two-day chain builds");
        TransformedSource::new(
            source,
            vec![TraceTransform::ScaleRate {
                keep_fraction: 0.04,
                seed: 9,
            }],
        )
        .expect("thinning transform builds")
    };
    let sparse_invocations = {
        let mut source = sparse_source();
        let mut n = 0usize;
        while source.next_event().is_some() {
            n += 1;
        }
        n
    };
    println!(
        "sparse arm: {} invocations over 2 fixture days at {} ms/minute, \
         {} reps per engine/thread combination",
        sparse_invocations, sparse_minute_ms, SPARSE_REPS,
    );

    let mut sparse_runs = Vec::new();
    let mut speedups = Vec::new();
    for threads in [1usize, 4] {
        let config = sparse_config(threads);
        let bench_driver = sparse_driver();
        let slice = run(
            &config,
            &bench_driver,
            sparse_source,
            Engine::Slice,
            SPARSE_REPS,
        );
        let event = run(
            &config,
            &bench_driver,
            sparse_source,
            Engine::Event,
            SPARSE_REPS,
        );
        assert_oracle_equal(&slice, &event, "sparse");
        print_run(&slice, sparse_invocations);
        print_run(&event, sparse_invocations);
        let speedup = slice.best_ms() / event.best_ms();
        println!("  threads={threads}: event-driven speedup {speedup:.1}x");
        // The reuse gate: a host-independent count, so no reps needed.
        let solve_share = event.solves as f64 / event.quanta.max(1) as f64;
        if solve_share > MAX_SPARSE_SOLVE_SHARE {
            eprintln!(
                "BENCH GATE FAIL (sparse, threads={threads}): event-driven replay solved the \
                 congestion fixed point in {solve_share:.2} of its quanta (bound \
                 {MAX_SPARSE_SOLVE_SHARE}) — quantum reuse regressed"
            );
            std::process::exit(1);
        }
        // The bulk-advance gate: a host-independent count as well.
        let bulk_share = event.bulk_quanta as f64 / event.quanta.max(1) as f64;
        if bulk_share < MIN_SPARSE_BULK_SHARE {
            eprintln!(
                "BENCH GATE FAIL (sparse, threads={threads}): event-driven replay advanced \
                 {bulk_share:.2} of its quanta in bulk (floor {MIN_SPARSE_BULK_SHARE}) — \
                 the stable-plan advance regressed"
            );
            std::process::exit(1);
        }
        sparse_runs.push(run_json(&slice, sparse_invocations));
        sparse_runs.push(run_json(&event, sparse_invocations));
        speedups.push((threads, speedup));
    }

    // The perf-regression gate: the event engine must not be slower
    // than the oracle on its home-turf workload, at any thread count.
    for &(threads, speedup) in &speedups {
        if speedup < 1.0 {
            eprintln!(
                "BENCH GATE FAIL (sparse, threads={threads}): event-driven replay is \
                 {speedup:.2}x slice-mode — throughput regressed below the oracle"
            );
            std::process::exit(1);
        }
    }

    let mut sparse_doc = JsonObject::new();
    sparse_doc.u64_field("minute_ms", sparse_minute_ms);
    sparse_doc.u64_field("days", days.len() as u64);
    sparse_doc.u64_field("machines", SPARSE_MACHINES as u64);
    sparse_doc.u64_field("invocations", sparse_invocations as u64);
    for &(threads, speedup) in &speedups {
        match threads {
            1 => sparse_doc.f64_field("speedup_threads_1", speedup),
            _ => sparse_doc.f64_field("speedup_threads_4", speedup),
        }
    }
    sparse_doc.raw_field("runs", &array(sparse_runs));

    let mut doc = JsonObject::new();
    doc.str_field("bench", "cluster_trajectory");
    doc.str_field("mode", if smoke { "smoke" } else { "full" });
    doc.u64_field("minute_ms", minute_ms);
    doc.u64_field("machines", MACHINES as u64);
    doc.u64_field("cores_per_machine", CORES_PER_MACHINE as u64);
    doc.u64_field("fixture_minutes", dataset.minutes() as u64);
    doc.u64_field("invocations", trace.len() as u64);
    doc.raw_field("runs", &array(runs));
    doc.raw_field("sparse", &sparse_doc.finish());
    let json = format!("{}\n", doc.finish());
    std::fs::write(&out_path, &json).expect("write bench trajectory file");
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn parses_smoke_and_out() {
        let full = Args {
            smoke: false,
            out_path: "BENCH_cluster.json".to_string(),
        };
        assert_eq!(parse(&[]), Ok(full));
        let smoke = parse(&["--out", "target/b.json", "--smoke"]).unwrap();
        assert!(smoke.smoke);
        assert_eq!(smoke.out_path, "target/b.json");
    }

    #[test]
    fn rejects_anything_else() {
        for args in [
            &["--smoek"][..],
            &["smoke"],
            &["--force"],
            &["--smoke", "--offline"],
            &["--out"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
