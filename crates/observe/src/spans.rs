//! Extraction of per-invocation completion samples from a replay's
//! `trace.*` span chains.
//!
//! The cluster driver (with trace sampling on) emits, per sampled
//! invocation: a `trace.queue` span (arrival → launch, with the number
//! of steal `moves`), a `trace.exec` span (launch → completion) and a
//! `trace.billed` attribution event (cost and predicted slowdown).
//! This module joins those records by trace id back into one
//! [`CompletionSample`] per completed invocation — the unit everything
//! downstream (SLO evaluation, fairness rollups, exemplar queries)
//! aggregates over. The join reads records through [`TimelineRecord`], so
//! a timeline in memory and its JSONL export parsed back
//! ([`FlatRecord`]) give the same samples.

use std::collections::BTreeMap;

use litmus_telemetry::{EventKind, FieldValue, TimelineEvent};

use crate::jsonl::FlatRecord;

/// One completed, sampled invocation, re-joined from its span chain.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionSample {
    /// Trace id (admission index in trace order).
    pub trace: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Machine the invocation executed on.
    pub machine: u64,
    /// Sim time the invocation arrived, ms.
    pub arrived_ms: u64,
    /// Sim time it launched (left the queue), ms.
    pub launched_ms: u64,
    /// Sim time it completed, ms.
    pub completed_ms: u64,
    /// Queue wait (launch − arrival), ms.
    pub wait_ms: u64,
    /// Times the invocation was moved by work stealing before launch.
    pub moves: u64,
    /// Litmus-priced cost of the invocation.
    pub cost: f64,
    /// Predicted slowdown used for billing attribution.
    pub predicted: f64,
}

/// The view of one timeline record that [`completions`] and
/// [`horizon_ms`] read: a [`TimelineEvent`] in memory, or a
/// [`FlatRecord`] parsed from the JSONL export.
pub trait TimelineRecord {
    /// The record's name (`trace.queue`, `trace.billed`, …).
    fn name(&self) -> &str;
    /// Sim time the record is stamped at (a span's start), ms.
    fn at_ms(&self) -> u64;
    /// A closed span's end, ms; `None` for point events and open spans.
    fn end_ms(&self) -> Option<u64>;
    /// A field as an unsigned integer (ids and timestamps).
    fn u64_field(&self, key: &str) -> Option<u64>;
    /// A field as a float (integer encodings included).
    fn f64_field(&self, key: &str) -> Option<f64>;
}

/// Looks up a field by key on a timeline event.
fn field<'a>(event: &'a TimelineEvent, key: &str) -> Option<&'a FieldValue> {
    event.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

impl TimelineRecord for TimelineEvent {
    fn name(&self) -> &str {
        self.name
    }

    fn at_ms(&self) -> u64 {
        self.at_ms
    }

    fn end_ms(&self) -> Option<u64> {
        match self.kind {
            EventKind::Span { end_ms } => end_ms,
            EventKind::Point => None,
        }
    }

    fn u64_field(&self, key: &str) -> Option<u64> {
        match field(self, key)? {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    fn f64_field(&self, key: &str) -> Option<f64> {
        match field(self, key)? {
            FieldValue::F64(v) => Some(*v),
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            _ => None,
        }
    }
}

impl TimelineRecord for FlatRecord {
    fn name(&self) -> &str {
        FlatRecord::name(self)
    }

    fn at_ms(&self) -> u64 {
        self.u64_field("at_ms").unwrap_or(0)
    }

    fn end_ms(&self) -> Option<u64> {
        self.u64_field("end_ms")
    }

    fn u64_field(&self, key: &str) -> Option<u64> {
        self.num(key)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    fn f64_field(&self, key: &str) -> Option<f64> {
        self.num(key)
    }
}

/// Joins the `trace.queue` / `trace.billed` records of a timeline (or
/// of its parsed export) into one [`CompletionSample`] per completed
/// invocation, ascending by trace id. Invocations still queued or in
/// flight at replay end have no `trace.billed` record and are omitted,
/// as are records missing their trace, machine or tenant.
pub fn completions<'a, R: TimelineRecord + 'a>(
    records: impl IntoIterator<Item = &'a R>,
) -> Vec<CompletionSample> {
    #[derive(Default)]
    struct Partial {
        queue: Option<(u64, u64, u64, u64)>, // arrived, launched, machine, moves
        billed: Option<(u64, u64, f64, f64)>, // completed, tenant, cost, predicted
    }
    let mut by_trace: BTreeMap<u64, Partial> = BTreeMap::new();
    for record in records {
        match record.name() {
            "trace.queue" => {
                let (Some(trace), Some(machine), Some(launched)) = (
                    record.u64_field("trace"),
                    record.u64_field("machine"),
                    record.end_ms(),
                ) else {
                    continue;
                };
                let moves = record.u64_field("moves").unwrap_or(0);
                by_trace.entry(trace).or_default().queue =
                    Some((record.at_ms(), launched, machine, moves));
            }
            "trace.billed" => {
                let (Some(trace), Some(tenant)) =
                    (record.u64_field("trace"), record.u64_field("tenant"))
                else {
                    continue;
                };
                let cost = record.f64_field("cost").unwrap_or(0.0);
                let predicted = record.f64_field("predicted").unwrap_or(0.0);
                by_trace.entry(trace).or_default().billed =
                    Some((record.at_ms(), tenant, cost, predicted));
            }
            _ => {}
        }
    }
    by_trace
        .into_iter()
        .filter_map(|(trace, partial)| {
            let (arrived_ms, launched_ms, machine, moves) = partial.queue?;
            let (completed_ms, tenant, cost, predicted) = partial.billed?;
            Some(CompletionSample {
                trace,
                tenant: tenant as u32,
                machine,
                arrived_ms,
                launched_ms,
                completed_ms,
                wait_ms: launched_ms.saturating_sub(arrived_ms),
                moves,
                cost,
                predicted,
            })
        })
        .collect()
}

/// The largest sim timestamp among `records` (span ends included) —
/// the horizon SLO evaluation runs to. Zero when there are none.
pub fn horizon_ms<'a, R: TimelineRecord + 'a>(records: impl IntoIterator<Item = &'a R>) -> u64 {
    records
        .into_iter()
        .map(|record| record.at_ms().max(record.end_ms().unwrap_or(0)))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::parse_line;
    use litmus_telemetry::Timeline;

    fn chain(
        timeline: &mut Timeline,
        trace: u64,
        tenant: u32,
        arrive: u64,
        launch: u64,
        done: u64,
    ) {
        timeline.span(
            "trace.queue",
            arrive,
            launch,
            vec![
                ("trace", trace.into()),
                ("tenant", tenant.into()),
                ("machine", 1u64.into()),
                ("moves", 1u64.into()),
            ],
        );
        timeline.span(
            "trace.exec",
            launch,
            done,
            vec![("trace", trace.into()), ("tenant", tenant.into())],
        );
        timeline.record(
            done,
            "trace.billed",
            vec![
                ("trace", trace.into()),
                ("tenant", tenant.into()),
                ("machine", 1u64.into()),
                ("cost", 0.5.into()),
                ("predicted", 1.4.into()),
            ],
        );
    }

    #[test]
    fn joins_queue_and_billed_records_by_trace_id() {
        let mut timeline = Timeline::new();
        chain(&mut timeline, 3, 7, 100, 140, 200);
        chain(&mut timeline, 1, 2, 50, 50, 90);
        let samples = completions(&timeline);
        assert_eq!(samples.len(), 2);
        // Ascending by trace id, not emission order.
        assert_eq!(samples[0].trace, 1);
        assert_eq!(samples[0].wait_ms, 0);
        assert_eq!(samples[1].trace, 3);
        assert_eq!(samples[1].tenant, 7);
        assert_eq!(samples[1].wait_ms, 40);
        assert_eq!(samples[1].moves, 1);
        assert_eq!(samples[1].completed_ms, 200);
        assert_eq!(samples[1].cost, 0.5);
        assert_eq!(samples[1].predicted, 1.4);
    }

    #[test]
    fn unbilled_traces_are_omitted() {
        let mut timeline = Timeline::new();
        chain(&mut timeline, 0, 0, 0, 10, 30);
        // Trace 9 arrived but never completed: queue span only.
        timeline.span(
            "trace.queue",
            40,
            60,
            vec![("trace", 9u64.into()), ("machine", 0u64.into())],
        );
        assert_eq!(completions(&timeline).len(), 1);
    }

    #[test]
    fn parsed_export_joins_like_the_timeline() {
        let mut timeline = Timeline::new();
        chain(&mut timeline, 3, 7, 100, 140, 200);
        chain(&mut timeline, 1, 2, 50, 50, 90);
        // Trace 9 arrived but never completed: queue span only.
        timeline.span(
            "trace.queue",
            40,
            60,
            vec![("trace", 9u64.into()), ("machine", 0u64.into())],
        );
        let parsed: Vec<FlatRecord> = timeline
            .events()
            .iter()
            .map(|event| parse_line(&event.to_json()).unwrap())
            .collect();
        let joined = completions(&timeline);
        assert_eq!(joined.len(), 2);
        assert_eq!(completions(&parsed), joined);
        assert_eq!(horizon_ms(&parsed), horizon_ms(&timeline));
    }

    #[test]
    fn horizon_covers_span_ends() {
        let mut timeline = Timeline::new();
        timeline.record(10, "tick", vec![]);
        timeline.span("trace.exec", 20, 500, vec![]);
        assert_eq!(horizon_ms(&timeline), 500);
        assert_eq!(horizon_ms(&Timeline::new()), 0);
    }
}
