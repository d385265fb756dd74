//! The streaming JSONL sink behind a retention window.
//!
//! With [`TelemetryConfig::timeline_retention`](crate::TelemetryConfig::timeline_retention)
//! set, [`Telemetry`](crate::Telemetry) flushes records out of the
//! front of its in-memory [`Timeline`] into this sink as the replay
//! runs, and [`Telemetry::take_streamed`](crate::Telemetry::take_streamed)
//! composes the final export from it. The contract is that a streamed
//! export is **byte-identical** to the materialized
//! [`Telemetry::to_jsonl`](crate::Telemetry::to_jsonl) of the same
//! replay — streaming changes *when* bytes are produced, never *which*
//! bytes.
//!
//! Every flushed record is serialized at once, by the same writer as
//! the materialized export, into one buffer. The wrinkle is spans: a
//! span is recorded at its *open* position, but its `end_ms` may
//! change after its record left the retention window (the `replay`
//! span opens at t=0 and closes at replay end; closing a closed span
//! updates its end). So each flushed span is parked at the byte
//! offsets of its `end_ms` value, a late close — addressed by the
//! record's absolute timeline index — is noted against it, and the
//! final export patches those values in as it copies the buffer out.

use std::ops::Range;

use crate::event::{Timeline, TimelineEvent};
use crate::json::write_u64;

/// A flushed span: where its `end_ms` value sits in the sink's buffer.
#[derive(Debug, Clone)]
struct ParkedSpan {
    /// Absolute timeline index of the span's record.
    index: usize,
    /// Byte range of the `end_ms` value as it was written.
    end_value: Range<usize>,
    /// The latest close that arrived after the record was written.
    late_end_ms: Option<u64>,
}

/// Accumulates the JSONL lines of flushed timeline records.
///
/// The sink holds the serialized output (which is inherently
/// proportional to the replay); what streaming bounds is the
/// *structured* in-memory timeline the driver and analysis code
/// consult — see `TelemetryConfig::timeline_retention`.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamingJsonlSink {
    /// Every flushed record, one line each, in timeline order.
    lines: String,
    /// Every flushed span, ascending by index.
    spans: Vec<ParkedSpan>,
}

impl StreamingJsonlSink {
    /// Applies `timeline`'s pending late closes, then flushes records
    /// out of its front until at most `keep` remain.
    pub(crate) fn drain(&mut self, timeline: &mut Timeline, keep: usize) {
        for (index, end_ms) in timeline.take_late_closes() {
            self.close_flushed_span(index, end_ms);
        }
        while timeline.events().len() > keep {
            let Some((index, event)) = timeline.pop_front() else {
                break;
            };
            self.flush_event(index, &event);
        }
    }

    /// Serializes the record at absolute timeline `index` (records
    /// arrive in append order).
    fn flush_event(&mut self, index: usize, event: &TimelineEvent) {
        if let Some(end_value) = event.write_record(&mut self.lines) {
            self.spans.push(ParkedSpan {
                index,
                end_value,
                late_end_ms: None,
            });
        }
        self.lines.push('\n');
    }

    /// Notes a close of the span flushed at `index`; anything else
    /// (a point event, an index never flushed) is ignored, mirroring
    /// [`Timeline::close_span`].
    fn close_flushed_span(&mut self, index: usize, end_ms: u64) {
        if let Ok(at) = self.spans.binary_search_by_key(&index, |span| span.index) {
            self.spans[at].late_end_ms = Some(end_ms);
        }
    }

    /// Appends every flushed line to `out`, with late closes patched
    /// into their spans' `end_ms` values.
    pub(crate) fn write_lines(&self, out: &mut String) {
        let mut copied = 0;
        for span in &self.spans {
            if let Some(end_ms) = span.late_end_ms {
                out.push_str(&self.lines[copied..span.end_value.start]);
                write_u64(end_ms, out);
                copied = span.end_value.end;
            }
        }
        out.push_str(&self.lines[copied..]);
    }

    /// Bytes of flushed lines held.
    pub(crate) fn len(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn streamed(sink: &StreamingJsonlSink) -> String {
        let mut out = String::new();
        sink.write_lines(&mut out);
        out
    }

    #[test]
    fn streams_points_and_patches_late_span_closes() {
        let mut timeline = Timeline::new();
        let span = timeline.open_span(0, "replay", vec![("policy", "rr".into())]);
        timeline.record(10, "tick", vec![("n", 1u64.into())]);
        timeline.record(20, "tick", vec![("n", 2u64.into())]);

        let mut sink = StreamingJsonlSink::default();
        // Flush everything while the span is still open.
        sink.drain(&mut timeline, 0);
        timeline.close_span(span, 500);
        sink.drain(&mut timeline, 0);
        let out = streamed(&sink);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"type":"span","at_ms":0,"end_ms":500,"name":"replay","policy":"rr"}"#
        );
        assert_eq!(
            lines[1],
            r#"{"type":"event","at_ms":10,"name":"tick","n":1}"#
        );
    }

    #[test]
    fn never_closed_spans_finish_with_a_null_end() {
        let mut sink = StreamingJsonlSink::default();
        sink.flush_event(
            0,
            &TimelineEvent {
                at_ms: 5,
                name: "machine",
                kind: EventKind::Span { end_ms: None },
                fields: vec![],
            },
        );
        assert!(streamed(&sink).contains(r#""end_ms":null"#));
    }

    #[test]
    fn reclosing_a_flushed_span_updates_its_end() {
        let mut sink = StreamingJsonlSink::default();
        sink.flush_event(
            0,
            &TimelineEvent {
                at_ms: 0,
                name: "s",
                kind: EventKind::Span { end_ms: Some(10) },
                fields: vec![],
            },
        );
        sink.close_flushed_span(0, 99);
        assert!(streamed(&sink).contains(r#""end_ms":99"#));
    }
}
