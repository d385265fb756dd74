//! Metric values and the result line.

use litmus::cluster::ClusterReport;
use litmus::core::BillingSummary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run measured and how many operations it checked.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// |Σ Litmus − Σ ideal| ÷ Σ ideal, percent.
fn price_gap_pct(summary: &BillingSummary) -> f64 {
    let ideal = summary.ideal_revenue();
    (summary.litmus_revenue() - ideal).abs() / ideal * 100.0
}

/// The sim-clock end-to-end metrics: functions of the report alone, so
/// they repeat exactly for a given seed, thread count and engine.
pub fn sim_metrics(report: &ClusterReport) -> Vec<Metric> {
    let admitted = report.placements.len() as f64;
    let billed = report.billing.total();
    vec![
        metric(
            "completed_frac",
            "ratio",
            report.completed as f64 / admitted,
        ),
        metric(
            "bill_per_inv_mcycles",
            "Mcycles",
            billed.litmus_revenue() / billed.len() as f64 / 1e6,
        ),
        metric(
            "slowdown_p99",
            "x",
            report.predicted_slowdown_quantile(0.99),
        ),
        metric("latency_mean_ms", "sim-ms", report.mean_latency_ms),
        metric(
            "machine_hours",
            "machine-h",
            report.machine_ms() as f64 / 3.6e6,
        ),
    ]
}

/// The fleet's and the worst tenant's price gap. Each moves by about a
/// third of its value from seed to seed, more than any regression bound
/// allows, so the traced run reports them rather than the end-to-end
/// run.
pub fn price_gaps(report: &ClusterReport) -> [Metric; 2] {
    let tenant_max = report
        .billing
        .tenants()
        .map(|(_, summary)| price_gap_pct(summary))
        .fold(0.0, f64::max);
    [
        metric(
            "core.price_gap_pct",
            "%",
            price_gap_pct(report.billing.total()),
        ),
        metric("core.tenant_price_gap_max_pct", "%", tenant_max),
    ]
}

/// Prints each metric on its own line for a reader, then the one-line
/// JSON result as the last line of standard output.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    );
}

/// Shortest round-trip decimal form; JSON has no NaN or infinity.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}
