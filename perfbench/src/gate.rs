//! The correctness gate: run once per invocation of the benchmark,
//! outside every timed region.

use litmus::cluster::{ClusterReport, SteppingMode};

use crate::replay::{self, Shape};
use crate::workload::{Length, Setup, Workload};

/// Checks `measured` (an event-driven replay at the benchmark's thread
/// count) against the slice-stepping oracle and a 1-thread replay, and
/// checks conservation. Returns one line per failed check.
pub fn check(
    setup: &Setup,
    workload: Workload,
    seed: u64,
    measured: &ClusterReport,
) -> Vec<String> {
    let mut failures = conservation(measured);
    let measured_jsonl = measured.timeline_jsonl();
    let single_thread = |stepping| Shape {
        threads: 1,
        stepping,
        profiling: false,
    };
    for (label, shape) in [
        ("slice-stepping oracle", single_thread(SteppingMode::Pooled)),
        (
            "1-thread event-driven replay",
            single_thread(SteppingMode::EventDriven),
        ),
    ] {
        let other = replay::run(setup, workload, Length::Full, seed, shape).report;
        if &other != measured {
            failures.push(format!("ClusterReport differs from the {label}"));
        }
        if other.timeline_jsonl() != measured_jsonl {
            failures.push(format!("timeline JSONL differs from the {label}"));
        }
    }
    failures
}

/// Every admitted invocation is completed or unfinished, and the
/// per-tenant bills add up to the fleet bill.
fn conservation(report: &ClusterReport) -> Vec<String> {
    let mut failures = Vec::new();
    let admitted = report.placements.len();
    if report.completed + report.unfinished != admitted {
        failures.push(format!(
            "completed {} + unfinished {} != admitted {admitted}",
            report.completed, report.unfinished
        ));
    }
    let total = report.billing.total();
    let (mut invoices, mut litmus, mut commercial, mut ideal) = (0, 0.0, 0.0, 0.0);
    for (_, summary) in report.billing.tenants() {
        invoices += summary.len();
        litmus += summary.litmus_revenue();
        commercial += summary.commercial_revenue();
        ideal += summary.ideal_revenue();
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    if invoices != total.len()
        || invoices != report.completed
        || !close(litmus, total.litmus_revenue())
        || !close(commercial, total.commercial_revenue())
        || !close(ideal, total.ideal_revenue())
    {
        failures.push(format!(
            "per-tenant billing ({invoices} invoices) does not sum to the fleet total \
             ({} invoices, {} completed)",
            total.len(),
            report.completed
        ));
    }
    failures
}
