//! Reproduction harness for every table and figure in the Litmus paper
//! (Pei, Wang, Shin — ASPLOS '24).
//!
//! The `litmus-repro` binary exposes one subcommand per experiment
//! (`table1`, `fig1` … `fig21`, `all`); each prints the same rows or
//! series the paper reports. The README's *Reproducing paper figures*
//! section shows how to run it.
//!
//! Absolute values differ from the paper (our substrate is an analytic
//! simulator, not a Cascade Lake testbed); the *shapes* — who wins, by
//! what rough factor, where the crossovers sit — are the reproduction
//! target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod characterization;
mod context;
mod pricing_figs;
mod probes;
mod render;
mod studies;
mod topology;

pub use context::ReproConfig;

use std::fmt::Write as _;

/// All experiment identifiers: the paper's tables/figures in order,
/// plus the extension studies (`ablation`, `topology`, `warmstart`,
/// `ladder`).
pub const EXPERIMENTS: [&str; 26] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "ablation",
    "topology",
    "warmstart",
    "ladder",
];

/// Runs one experiment by id and returns its report text.
///
/// # Errors
///
/// Returns a human-readable error string for unknown ids or failed
/// underlying experiments.
pub fn run_experiment(id: &str, config: &ReproConfig) -> Result<String, String> {
    let run = || -> Result<String, Box<dyn std::error::Error>> {
        Ok(match id {
            "table1" => characterization::table1(),
            "fig1" => characterization::fig1(config)?,
            "fig2" => characterization::fig2(config)?,
            "fig3" => characterization::fig3(config)?,
            "fig4" => characterization::fig4(config)?,
            "fig5" => probes::fig5(config)?,
            "fig6" => characterization::fig6(config)?,
            "fig7" => probes::fig7(config)?,
            "fig8" => probes::fig8(config)?,
            "fig9" => probes::fig9(config)?,
            "fig10" => probes::fig10(config)?,
            "fig11" => pricing_figs::fig11(config)?,
            "fig12" => pricing_figs::fig12(config)?,
            "fig13" => pricing_figs::fig13(config)?,
            "fig14" => probes::fig14(config)?,
            "fig15" => pricing_figs::fig15(config)?,
            "fig16" => pricing_figs::fig16(config)?,
            "fig17" => pricing_figs::fig17(config)?,
            "fig18" => pricing_figs::fig18(config)?,
            "fig19" => pricing_figs::fig19(config)?,
            "fig20" => pricing_figs::fig20(config)?,
            "fig21" => pricing_figs::fig21(config)?,
            "ablation" => ablations::ablation(config)?,
            "topology" => topology::topology(config)?,
            "warmstart" => studies::warmstart(config)?,
            "ladder" => studies::ladder(config)?,
            other => return Err(format!("unknown experiment id {other:?}").into()),
        })
    };
    run().map_err(|e| format!("{id}: {e}"))
}

/// Runs every experiment, concatenating the reports.
///
/// # Errors
///
/// Returns the first failing experiment's error.
pub fn run_all(config: &ReproConfig) -> Result<String, String> {
    let mut out = String::new();
    for id in EXPERIMENTS {
        let report = run_experiment(id, config)?;
        let _ = writeln!(out, "{report}");
    }
    Ok(out)
}
