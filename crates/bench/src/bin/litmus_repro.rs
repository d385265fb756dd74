//! `litmus-repro` — regenerate every table and figure of the Litmus
//! paper from the simulator-based reproduction.
//!
//! ```text
//! litmus-repro [--fast] all            # every experiment, paper order
//! litmus-repro [--fast] fig11 fig12    # selected experiments
//! litmus-repro list                    # available experiment ids
//! ```
//!
//! `--fast` shrinks workloads and repetition counts for smoke runs;
//! the default (full) fidelity is the one to set against the paper.

use std::process::ExitCode;

use litmus_bench::{run_experiment, ReproConfig, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut targets: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--fast" => fast = true,
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            "list" => {
                for id in EXPERIMENTS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }
    if targets.iter().any(|t| t == "all") {
        targets = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    let config = if fast {
        ReproConfig::fast()
    } else {
        ReproConfig::full()
    };
    for target in &targets {
        let started = std::time::Instant::now();
        match run_experiment(target, &config) {
            Ok(report) => {
                println!("{report}");
                eprintln!("[{target} done in {:.1?}]", started.elapsed());
            }
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    eprintln!(
        "usage: litmus-repro [--fast] <experiment>…\n\
         experiments: all, list, {}",
        EXPERIMENTS.join(", ")
    );
}
