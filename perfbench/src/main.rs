//! Replay benchmark for the Litmus reproduction.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `--trace 0` measures the end-to-end metrics: set-up time and replay
//! throughput on the host clock (rescaled to an uncontended core, see
//! `host.rs`), peak memory, and the tenant-facing
//! bill, slowdown, latency and fleet capacity on the sim clock.
//! `--trace 1` is the separate traced run that attributes replay wall
//! time to the layers. Both end with the correctness gate and print one
//! JSON result as the last line of standard output. See `README.md`.

mod gate;
mod host;
mod metrics;
mod probes;
mod replay;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use litmus::cluster::SteppingMode;

use metrics::{metric, print_result, sim_metrics, Outcome};
use replay::{median, Shape};
use workload::{Length, Setup, Workload, THREADS};

/// The default workload seed (`README.md` also names a held-out one).
const DEFAULT_SEED: u64 = 2024;

/// Set-ups timed before each measured replay; `setup_s` is the median
/// over the run, rescaled like the replays.
const SETUPS_PER_REP: usize = 3;

/// Fewest measured replays per run, however long each takes.
const MIN_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The measured configuration: event-driven engine, 2 worker threads.
pub fn measured_shape(profiling: bool) -> Shape {
    Shape {
        threads: THREADS,
        stepping: SteppingMode::EventDriven,
        profiling,
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn end_to_end(args: &Args) -> Outcome {
    let workload = args.workload;
    // The first replay warms caches, the allocator and the CPU; it is
    // checked but not timed.
    let (setup, _) = Setup::timed(workload);
    let report = replay::run(
        &setup,
        workload,
        Length::Full,
        args.seed,
        measured_shape(false),
    )
    .report;
    let expected = sim_metrics(&report);
    let mut failures = Vec::new();
    let mut attempted = report.placements.len() as u64;
    let mut failed = report.unfinished as u64;

    // Every set-up and replay is timed between two runs of the host-speed
    // reference and rescaled to an uncontended core (see `host.rs`); set-ups
    // are timed between the replays, so both sample the whole run.
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut slowdowns = Vec::new();
    let mut speed = host::measure();
    while rates.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let before = speed;
        let walls: Vec<f64> = (0..SETUPS_PER_REP)
            .map(|_| Setup::timed(workload).1.total_s())
            .collect();
        speed = host::measure();
        let slowdown = host::slowdown(before, speed);
        setup_s.extend(walls.iter().map(|wall| wall / slowdown));

        let before = speed;
        let run = replay::run(
            &setup,
            workload,
            Length::Full,
            args.seed,
            measured_shape(false),
        );
        speed = host::measure();
        let slowdown = host::slowdown(before, speed);
        rates.push(run.admitted as f64 / (run.wall_s / slowdown));
        slowdowns.push(slowdown);
        attempted += run.admitted as u64;
        failed += run.report.unfinished as u64;
        if sim_metrics(&run.report) != expected {
            failures.push("sim-clock metrics differ between repeated replays".into());
        }
    }
    let peak_rss = peak_rss_mb();

    failures.extend(gate::check(&setup, workload, args.seed, &report));
    failed += failures.len() as u64;

    let mut metrics = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric("replay_inv_per_s", "inv/s", median(&rates)),
        metric("peak_rss_mb", "MiB", peak_rss),
    ];
    metrics.extend(sim_metrics(&report));
    let [gap, _] = metrics::price_gaps(&report);
    println!(
        "  fleet price gap {}% (the paper reports a 0.2% average gap)",
        gap.value
    );
    eprintln!(
        "{}: {} measured replays of {} invocations in {:.1} s; \
         median host slowdown {:.3}",
        workload.name(),
        rates.len(),
        report.placements.len(),
        started.elapsed().as_secs_f64(),
        median(&slowdowns)
    );
    Outcome {
        metrics,
        attempted,
        failed,
        failures,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} ({} run, {} s)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        args.seconds
    );
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args)
    };
    for failure in &outcome.failures {
        eprintln!("CORRECTNESS FAIL ({}): {failure}", args.workload.name());
    }
    let correct = outcome.failures.is_empty();
    print_result(correct, outcome.attempted, outcome.failed, &outcome.metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
