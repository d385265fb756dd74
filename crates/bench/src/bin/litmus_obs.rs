//! `litmus-obs` — query and diff telemetry JSONL exports.
//!
//! Replays (and the SLO engine) export their deterministic state as
//! JSONL (`ClusterReport::timeline_jsonl`, `SloReport::to_jsonl`).
//! This tool works on those files after the fact:
//!
//! ```text
//! litmus-obs summary <export.jsonl>
//!     Record counts by type and event name, counters, tenants seen.
//!
//! litmus-obs spans <export.jsonl> [--name PREFIX] [--tenant N]
//!                  [--machine N] [--slowest K]
//!     Filter timeline records, aggregate span durations per name,
//!     and print the K slowest matching spans as exemplars.
//!
//! litmus-obs diff <left.jsonl> <right.jsonl> [--context N]
//!     Byte-compare two exports line by line; on divergence print the
//!     first differing line with N lines of context and exit 1.
//!     Identical exports exit 0 — the determinism contract, checkable
//!     from the shell.
//!
//! litmus-obs tail <export.jsonl> [--follow-free]
//!     Replay a replay export's SLO signal incrementally: reconstruct
//!     the declared SLOs from the embedded `slo.spec`/`slo.rule`
//!     events, feed the `trace.*` completions through an
//!     `OnlineSloEngine` boundary by boundary, print fired/cleared
//!     alert lines and a burn-rate sparkline per SLO, and self-check
//!     the recomputed alert stream against the `slo.alert.*` events
//!     the replay embedded. `--follow-free` acknowledges the tail
//!     replays to end-of-file and exits (exports are finished sim
//!     artifacts — there is nothing to watch). Exit 0 when no page
//!     alert is still firing, 1 when one is, 2 on error or on a
//!     self-check mismatch.
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use litmus_observe::jsonl::{parse_export, FlatRecord};
use litmus_observe::{
    completions, horizon_ms, BurnRateRule, OnlineSloEngine, SloAlert, SloSpec, SloTransition,
};
use litmus_telemetry::diff_report;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("summary") => summary(&args[1..]),
        Some("spans") => spans(&args[1..]),
        Some("diff") => return diff(&args[1..]),
        Some("tail") => match tail(&args[1..]) {
            Ok(code) => return code,
            Err(message) => Err(message),
        },
        Some("--help" | "-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::from(if args.is_empty() { 2 } else { 0 });
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("litmus-obs: {message}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: litmus-obs summary <export.jsonl>
       litmus-obs spans <export.jsonl> [--name PREFIX] [--tenant N] [--machine N] [--slowest K]
       litmus-obs diff <left.jsonl> <right.jsonl> [--context N]
       litmus-obs tail <export.jsonl> [--follow-free]
";

fn load(path: &str) -> Result<Vec<FlatRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    parse_export(&text).map_err(|(line, e)| format!("{path}:{line}: {e}"))
}

fn summary(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("summary takes exactly one export file".into());
    };
    let records = load(path)?;
    if let Some(meta) = records.iter().find(|r| r.record_type() == "meta") {
        let line = meta
            .fields
            .iter()
            .filter(|(k, _)| k != "type")
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("meta: {line}");
    }

    let mut by_type: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_name: BTreeMap<String, usize> = BTreeMap::new();
    let mut tenants: BTreeMap<i64, usize> = BTreeMap::new();
    for record in &records {
        *by_type.entry(record.record_type()).or_default() += 1;
        if matches!(record.record_type(), "event" | "span") {
            *by_name.entry(record.name().to_owned()).or_default() += 1;
            if let Some(tenant) = record.num("tenant") {
                *tenants.entry(tenant as i64).or_default() += 1;
            }
        }
    }
    println!("records: {}", records.len());
    for (kind, count) in &by_type {
        println!("  {kind:<10} {count}");
    }
    if !by_name.is_empty() {
        println!("timeline by name:");
        for (name, count) in &by_name {
            println!("  {name:<26} {count}");
        }
    }
    if !tenants.is_empty() {
        println!("tenants:");
        for (tenant, count) in &tenants {
            println!("  tenant {tenant:<4} {count} records");
        }
    }
    let counters: Vec<_> = records
        .iter()
        .filter(|r| r.record_type() == "counter")
        .collect();
    if !counters.is_empty() {
        println!("counters:");
        for counter in counters {
            println!(
                "  {:<26} {}",
                counter.name(),
                counter.num("value").unwrap_or(0.0) as u64
            );
        }
    }
    Ok(())
}

struct SpanFilter {
    name: Option<String>,
    tenant: Option<f64>,
    machine: Option<f64>,
}

impl SpanFilter {
    fn matches(&self, record: &FlatRecord) -> bool {
        if !matches!(record.record_type(), "event" | "span") {
            return false;
        }
        if let Some(prefix) = &self.name {
            if !record.name().starts_with(prefix.as_str()) {
                return false;
            }
        }
        if let Some(tenant) = self.tenant {
            if record.num("tenant") != Some(tenant) {
                return false;
            }
        }
        if let Some(machine) = self.machine {
            if record.num("machine") != Some(machine) {
                return false;
            }
        }
        true
    }
}

fn spans(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("spans needs an export file".into());
    };
    let mut filter = SpanFilter {
        name: None,
        tenant: None,
        machine: None,
    };
    let mut slowest = 10usize;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--name" => filter.name = Some(value()?.clone()),
            "--tenant" => filter.tenant = Some(parse_num(value()?)?),
            "--machine" => filter.machine = Some(parse_num(value()?)?),
            "--slowest" => slowest = parse_num(value()?)? as usize,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    let records = load(path)?;
    let matching: Vec<&FlatRecord> = records.iter().filter(|r| filter.matches(r)).collect();
    println!("matched {} of {} records", matching.len(), records.len());

    // Per-name duration aggregates over closed spans.
    struct Agg {
        count: usize,
        spans: usize,
        total_ms: f64,
        max_ms: f64,
    }
    let mut by_name: BTreeMap<String, Agg> = BTreeMap::new();
    for record in &matching {
        let agg = by_name.entry(record.name().to_owned()).or_insert(Agg {
            count: 0,
            spans: 0,
            total_ms: 0.0,
            max_ms: 0.0,
        });
        agg.count += 1;
        if let Some(duration) = duration_ms(record) {
            agg.spans += 1;
            agg.total_ms += duration;
            agg.max_ms = agg.max_ms.max(duration);
        }
    }
    for (name, agg) in &by_name {
        if agg.spans > 0 {
            println!(
                "  {name:<20} n={:<6} spans={:<6} mean {:>8.1} ms  max {:>8.1} ms",
                agg.count,
                agg.spans,
                agg.total_ms / agg.spans as f64,
                agg.max_ms
            );
        } else {
            println!("  {name:<20} n={:<6} (point events)", agg.count);
        }
    }

    // Slowest exemplars: closed spans by descending duration, with an
    // explicit total-order tie-break (name, then trace id) — equal
    // durations are common (quantized sim time), and relying on input
    // line order would make the exemplar list depend on which export
    // variant produced the file.
    let mut closed: Vec<(&FlatRecord, f64)> = matching
        .iter()
        .filter_map(|r| duration_ms(r).map(|d| (*r, d)))
        .collect();
    closed.sort_by(slowest_order);
    if !closed.is_empty() && slowest > 0 {
        println!("slowest {}:", slowest.min(closed.len()));
        for (record, duration) in closed.iter().take(slowest) {
            let label = |key: &str| {
                record
                    .num(key)
                    .map(|v| format!("{}", v as i64))
                    .unwrap_or_else(|| "-".into())
            };
            println!(
                "  {:<16} {:>9.1} ms  at {:>8} ms  trace {:<6} tenant {:<4} machine {}",
                record.name(),
                duration,
                record.num("at_ms").unwrap_or(0.0) as u64,
                label("trace"),
                label("tenant"),
                label("machine"),
            );
        }
    }
    Ok(())
}

/// Total order for `--slowest`: descending duration, then span name,
/// then trace id (spans without one sort first). Every closed span in
/// an export carries a distinct (name, trace) pair per duration class,
/// so the exemplar list is independent of input line order — i.e. of
/// which export variant (streamed, materialized, re-merged) produced
/// the file.
fn slowest_order(a: &(&FlatRecord, f64), b: &(&FlatRecord, f64)) -> std::cmp::Ordering {
    let trace = |r: &FlatRecord| r.num("trace").unwrap_or(-1.0);
    b.1.total_cmp(&a.1)
        .then_with(|| a.0.name().cmp(b.0.name()))
        .then_with(|| trace(a.0).total_cmp(&trace(b.0)))
}

/// Replays a replay export's SLO signal incrementally (see module
/// docs). Returns the process exit code on success: 0 with no open
/// page alert, 1 with one still firing.
fn tail(args: &[String]) -> Result<ExitCode, String> {
    let mut path = None;
    for arg in args {
        match arg.as_str() {
            // Exports are finished sim artifacts: the tail always
            // replays to EOF and exits, it never watches the file. The
            // flag exists so scripts state that expectation explicitly.
            "--follow-free" => {}
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_owned()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let path = path.ok_or("tail needs an export file")?;
    let records = load(&path)?;

    let meta = records
        .iter()
        .find(|r| r.record_type() == "meta")
        .ok_or("export has no meta line")?;
    let slice_ms = meta
        .str_field("slice_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .or_else(|| meta.num("slice_ms").map(|v| v as u64))
        .ok_or("meta line has no slice_ms (not a replay export)")?
        .max(1);

    let specs = reconstruct_specs(&records)?;
    if specs.is_empty() {
        println!("no SLOs declared in '{path}' — nothing to tail");
        return Ok(ExitCode::SUCCESS);
    }

    // The online engine consumes completions in (completion, trace)
    // order.
    let mut samples = completions(&records);
    samples.sort_by_key(|sample| (sample.completed_ms, sample.trace));
    let horizon = horizon_ms(&records);
    println!(
        "tailing {path}: {} records, {} SLOs, {} completions, horizon {horizon} ms (slice {slice_ms} ms)",
        records.len(),
        specs.len(),
        samples.len()
    );

    // Drive the online engine exactly as the replay driver did: feed
    // completions as their boundary passes, advance slice by slice.
    let mut engine = OnlineSloEngine::new(specs, slice_ms);
    let mut recomputed: Vec<SloAlert> = Vec::new();
    let mut fed = 0;
    let mut now = 0;
    while now < horizon {
        now = (now + slice_ms).min(horizon);
        while fed < samples.len() && samples[fed].completed_ms <= now {
            engine.record(&samples[fed]);
            fed += 1;
        }
        recomputed.extend(engine.observe_boundary(now));
    }
    while fed < samples.len() {
        engine.record(&samples[fed]);
        fed += 1;
    }
    recomputed.extend(engine.finish(horizon));

    for alert in &recomputed {
        match alert.transition {
            SloTransition::Fired => println!(
                "  @ {:>8} ms FIRED   [{}] {} (burn {:.1}x fast / {:.1}x slow)",
                alert.at_ms, alert.severity, alert.slo, alert.burn_fast, alert.burn_slow
            ),
            SloTransition::Cleared => println!(
                "  @ {:>8} ms cleared [{}] {} (peak burn {:.1}x)",
                alert.at_ms, alert.severity, alert.slo, alert.peak_burn
            ),
        }
    }
    if recomputed.is_empty() {
        println!("  no alert transitions over the horizon");
    }

    println!("burn rate (fast window, first rule; full height = peak):");
    for series in engine.series() {
        let tenant = match series.tenant {
            Some(t) => format!("tenant {t}"),
            None => "all".to_owned(),
        };
        let peak = series
            .points
            .iter()
            .map(|(_, burn)| *burn)
            .fold(0.0f64, f64::max);
        println!(
            "  {:<20} {:<9} peak {peak:>6.1}x  |{}|",
            series.slo,
            tenant,
            sparkline(&series.points, 60)
        );
    }

    // Self-check: the recomputed transition stream must match the
    // `slo.alert.*` events the replay itself embedded, event for event.
    let embedded: Vec<(u64, String, String, bool)> = records
        .iter()
        .filter(|r| r.record_type() == "event")
        .filter(|r| matches!(r.name(), "slo.alert.fired" | "slo.alert.cleared"))
        .map(|r| {
            (
                r.num("at_ms").unwrap_or(0.0) as u64,
                r.str_field("slo").unwrap_or("").to_owned(),
                r.str_field("severity").unwrap_or("").to_owned(),
                r.name() == "slo.alert.fired",
            )
        })
        .collect();
    let ours: Vec<(u64, String, String, bool)> = recomputed
        .iter()
        .map(|alert| {
            (
                alert.at_ms,
                alert.slo.clone(),
                alert.severity.to_owned(),
                alert.transition == SloTransition::Fired,
            )
        })
        .collect();
    if ours != embedded {
        eprintln!(
            "litmus-obs: self-check FAILED: recomputed {} transitions, export embeds {} — \
             the export was not produced by this SLO configuration",
            ours.len(),
            embedded.len()
        );
        for (i, (mine, theirs)) in ours.iter().zip(&embedded).enumerate() {
            if mine != theirs {
                eprintln!("  first divergence at transition {i}: {mine:?} != {theirs:?}");
                break;
            }
        }
        return Ok(ExitCode::from(2));
    }
    println!(
        "self-check: recomputed alert stream matches the embedded events ({} transitions)",
        ours.len()
    );

    let open_pages = engine
        .active_alerts()
        .iter()
        .filter(|alert| alert.severity == "page")
        .count();
    if open_pages > 0 {
        println!("{open_pages} page alert(s) still firing at horizon");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Rebuilds the replay's `SloSpec` list from the `slo.spec` /
/// `slo.rule` config events the driver mirrors onto the timeline head.
fn reconstruct_specs(records: &[FlatRecord]) -> Result<Vec<SloSpec>, String> {
    let mut specs: Vec<SloSpec> = Vec::new();
    for record in records.iter().filter(|r| r.name() == "slo.spec") {
        let name = record
            .str_field("slo")
            .ok_or("slo.spec event without a name")?;
        let threshold = record.num("threshold").unwrap_or(0.0);
        let mut spec = match record.str_field("kind") {
            Some("slowdown") => SloSpec::slowdown(name, threshold),
            Some("queue-wait") => SloSpec::queue_wait(name, threshold as u64),
            Some("billing-rate") => SloSpec::billing_rate(name, threshold),
            other => return Err(format!("unknown SLO kind {other:?}")),
        }
        .objective(record.num("objective").unwrap_or(0.0))
        .rules(Vec::new());
        if let Some(tenant) = record.num("tenant") {
            spec = spec.tenant(tenant as u32);
        }
        specs.push(spec);
    }
    for record in records.iter().filter(|r| r.name() == "slo.rule") {
        let spec_idx = record.num("spec").unwrap_or(-1.0);
        let spec = (spec_idx >= 0.0)
            .then(|| specs.get_mut(spec_idx as usize))
            .flatten()
            .ok_or_else(|| format!("slo.rule event for unknown spec {spec_idx}"))?;
        // Rule severities are static strings in the engine; a CLI
        // reconstructing finitely many rules leaks one tiny allocation
        // per rule for the life of the process.
        let severity: &'static str = Box::leak(
            record
                .str_field("severity")
                .unwrap_or("alert")
                .to_owned()
                .into_boxed_str(),
        );
        spec.rules.push(BurnRateRule::new(
            severity,
            record.num("fast_ms").unwrap_or(0.0) as u64,
            record.num("slow_ms").unwrap_or(0.0) as u64,
            record.num("factor").unwrap_or(0.0),
        ));
    }
    Ok(specs)
}

/// Compresses a burn-rate series into `width` columns (max within each
/// column), glyph height relative to the series peak.
fn sparkline(points: &[(u64, f64)], width: usize) -> String {
    const GLYPHS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if points.is_empty() || width == 0 {
        return String::new();
    }
    let peak = points
        .iter()
        .map(|(_, burn)| *burn)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let columns = width.min(points.len());
    let mut out = String::with_capacity(columns * 3);
    for column in 0..columns {
        let lo = column * points.len() / columns;
        let hi = ((column + 1) * points.len() / columns).max(lo + 1);
        let burn = points[lo..hi]
            .iter()
            .map(|(_, b)| *b)
            .fold(0.0f64, f64::max);
        let level = ((burn / peak) * 8.0).ceil().clamp(0.0, 8.0) as usize;
        out.push(GLYPHS[level]);
    }
    out
}

fn duration_ms(record: &FlatRecord) -> Option<f64> {
    if record.record_type() != "span" {
        return None;
    }
    Some(record.num("end_ms")? - record.num("at_ms")?)
}

fn parse_num(text: &str) -> Result<f64, String> {
    text.parse::<f64>()
        .map_err(|_| format!("'{text}' is not a number"))
}

fn diff(args: &[String]) -> ExitCode {
    let (paths, mut context) = (
        args.iter()
            .filter(|a| !a.starts_with("--"))
            .collect::<Vec<_>>(),
        3usize,
    );
    if let Some(i) = args.iter().position(|a| a == "--context") {
        match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) => context = n,
            None => {
                eprintln!("litmus-obs: --context needs a number");
                return ExitCode::from(2);
            }
        }
    }
    let [left_path, right_path] = paths[..] else {
        eprintln!("litmus-obs: diff takes exactly two export files");
        return ExitCode::from(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))
    };
    let (left, right) = match (read(left_path), read(right_path)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("litmus-obs: {e}");
            return ExitCode::from(2);
        }
    };
    match diff_report(left_path, &left, right_path, &right, context) {
        None => {
            println!("identical ({} lines)", left.lines().count());
            ExitCode::SUCCESS
        }
        Some(report) => {
            println!("{report}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: `--slowest` ordering must be a total order that is
    /// independent of input line order. Equal durations tie-break on
    /// span name, equal names on trace id — so sorting a reversed
    /// input yields the identical exemplar sequence.
    #[test]
    fn slowest_order_breaks_duration_ties_deterministically() {
        let export = "\
{\"type\":\"span\",\"at_ms\":0,\"end_ms\":30,\"name\":\"trace.run\",\"trace\":7}\n\
{\"type\":\"span\",\"at_ms\":0,\"end_ms\":30,\"name\":\"trace.queue\",\"trace\":9}\n\
{\"type\":\"span\",\"at_ms\":0,\"end_ms\":30,\"name\":\"trace.queue\",\"trace\":2}\n\
{\"type\":\"span\",\"at_ms\":10,\"end_ms\":50,\"name\":\"trace.queue\",\"trace\":5}\n\
{\"type\":\"span\",\"at_ms\":0,\"end_ms\":30,\"name\":\"replay\"}\n";
        let records = parse_export(export).expect("fixture parses");
        let mut rows: Vec<(&FlatRecord, f64)> = records
            .iter()
            .map(|r| {
                let d = r.num("end_ms").unwrap() - r.num("at_ms").unwrap();
                (r, d)
            })
            .collect();

        let key = |rows: &[(&FlatRecord, f64)]| -> Vec<(String, i64)> {
            rows.iter()
                .map(|(r, _)| (r.name().to_owned(), r.num("trace").unwrap_or(-1.0) as i64))
                .collect()
        };
        rows.sort_by(slowest_order);
        let sorted = key(&rows);
        assert_eq!(
            sorted,
            vec![
                ("trace.queue".to_owned(), 5), // 40 ms beats every 30 ms tie
                ("replay".to_owned(), -1),     // 30 ms ties: name asc, no trace first
                ("trace.queue".to_owned(), 2), // same name: trace id asc
                ("trace.queue".to_owned(), 9),
                ("trace.run".to_owned(), 7),
            ]
        );

        // Line order cannot matter: reversing the input re-sorts to
        // the same sequence.
        let mut reversed: Vec<(&FlatRecord, f64)> = rows.iter().rev().cloned().collect();
        reversed.sort_by(slowest_order);
        assert_eq!(key(&reversed), sorted);
    }
}
