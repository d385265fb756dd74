//! Sim-time-keyed structured events and spans.
//!
//! Every record is stamped with *simulated* cluster time — never wall
//! clock — so a timeline is a pure function of the replay: the same
//! trace, configuration and seed produce the same byte sequence on
//! export regardless of worker-pool thread count, stepping mode or
//! host. Events are append-ordered; the driver records them at slice
//! boundaries on one thread, so append order is itself deterministic.

use std::borrow::Cow;
use std::ops::Range;

use crate::json::{write_escaped, write_f64, write_i64, write_u64, ObjectWriter};

/// A typed field value attached to a [`TimelineEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (exported as `null` when non-finite).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String: borrowed when static (function names, kinds, labels),
    /// so recording one allocates nothing.
    Str(Cow<'static, str>),
}

impl FieldValue {
    /// Appends the value as JSON to `out`.
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => write_u64(*v, out),
            FieldValue::I64(v) => write_i64(*v, out),
            FieldValue::F64(v) => write_f64(*v, out),
            FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            FieldValue::Str(v) => write_escaped(v, out),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}

/// Named fields of one event, in record order.
pub type Fields = Vec<(&'static str, FieldValue)>;

/// Whether a timeline record is a point event or a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An instantaneous record at its `at_ms`.
    Point,
    /// An interval: opened at `at_ms`, closed at `end_ms` (`None`
    /// while still open — e.g. a machine alive at replay end).
    Span {
        /// Sim time the span closed, ms (`None` while open).
        end_ms: Option<u64>,
    },
}

/// One structured record on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Sim time of the event (span start for spans), ms since replay
    /// start.
    pub at_ms: u64,
    /// Event name (`"scale"`, `"steal"`, `"forecast"`, …).
    pub name: &'static str,
    /// Point event or span.
    pub kind: EventKind,
    /// Structured payload, flattened into the JSONL line.
    pub fields: Fields,
}

impl TimelineEvent {
    /// Appends the event as one JSONL line (no trailing newline) to
    /// `out`. Field keys are flattened into the object after the
    /// reserved `type` / `at_ms` (/ `end_ms`) / `name` keys.
    pub fn write_json(&self, out: &mut String) {
        self.write_record(out);
    }

    /// The event as one owned JSONL line (no trailing newline); see
    /// [`TimelineEvent::write_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// [`TimelineEvent::write_json`], returning where a span's
    /// `end_ms` value landed in `out` so a streaming sink can patch a
    /// later close into it (`None` for point events).
    pub(crate) fn write_record(&self, out: &mut String) -> Option<Range<usize>> {
        let mut obj = ObjectWriter::open(out);
        let end = match self.kind {
            EventKind::Point => {
                obj.str_field("type", "event")
                    .u64_field("at_ms", self.at_ms);
                None
            }
            EventKind::Span { end_ms } => {
                obj.str_field("type", "span").u64_field("at_ms", self.at_ms);
                let out = obj.key("end_ms");
                let start = out.len();
                match end_ms {
                    Some(end) => write_u64(end, out),
                    None => out.push_str("null"),
                }
                Some(start..out.len())
            }
        };
        obj.str_field("name", self.name);
        for (key, value) in &self.fields {
            value.write_json(obj.key(key));
        }
        obj.close();
        end
    }
}

/// Handle to a span opened on a [`Timeline`], used to close it later.
///
/// The id is the span's *absolute* timeline index (its position in the
/// full append order), so it stays valid even after the retention
/// window drops the span's record from the in-memory suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// The append-ordered event log of one replay.
///
/// Spans appear at their *open* position (the record order is the
/// order things started, which is the deterministic order the driver
/// observed them); closing a span fills in its `end_ms` in place.
///
/// ## Retention
///
/// A streaming export can flush records out of the front of the log
/// ([`Timeline::pop_front`]) so only a bounded suffix stays resident.
/// The timeline keeps counting flushed records in [`Timeline::len`]
/// (`offset` + retained), and a span closed *after* its record was
/// flushed is remembered as a late close for the sink to patch
/// ([`Timeline::take_late_closes`]). [`Timeline::peak_retained`]
/// reports the high-water mark of resident records, which is what a
/// retention cap bounds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// Backing store; the retained suffix is `events[head..]` and the
    /// absolute index of `events[head + i]` is `offset + i`. Flushed
    /// slots before `head` are tombstones awaiting amortized
    /// compaction.
    events: Vec<TimelineEvent>,
    /// First retained slot in `events`.
    head: usize,
    /// Number of records flushed out of the front.
    offset: usize,
    /// `(absolute index, end_ms)` closes that arrived after the span's
    /// record was flushed, in close order.
    late_closes: Vec<(usize, u64)>,
    /// High-water mark of retained records.
    peak_retained: usize,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    fn push(&mut self, event: TimelineEvent) {
        self.events.push(event);
        self.peak_retained = self.peak_retained.max(self.events.len() - self.head);
    }

    /// Appends a point event.
    pub fn record(&mut self, at_ms: u64, name: &'static str, fields: Fields) {
        self.push(TimelineEvent {
            at_ms,
            name,
            kind: EventKind::Point,
            fields,
        });
    }

    /// Opens a span at `at_ms`; close it with [`Timeline::close_span`].
    pub fn open_span(&mut self, at_ms: u64, name: &'static str, fields: Fields) -> SpanId {
        self.push(TimelineEvent {
            at_ms,
            name,
            kind: EventKind::Span { end_ms: None },
            fields,
        });
        SpanId(self.offset + (self.events.len() - self.head) - 1)
    }

    /// Closes an open span at `end_ms`. Closing an already-closed span
    /// updates its end; a stale id past the log is ignored. Closing a
    /// span whose record was already flushed records a late close for
    /// the streaming sink to patch.
    pub fn close_span(&mut self, id: SpanId, end_ms: u64) {
        if id.0 < self.offset {
            self.late_closes.push((id.0, end_ms));
            return;
        }
        if let Some(event) = self.events.get_mut(self.head + (id.0 - self.offset)) {
            if matches!(event.kind, EventKind::Span { .. }) {
                event.kind = EventKind::Span {
                    end_ms: Some(end_ms),
                };
            }
        }
    }

    /// Appends an already-closed span.
    pub fn span(&mut self, name: &'static str, start_ms: u64, end_ms: u64, fields: Fields) {
        self.push(TimelineEvent {
            at_ms: start_ms,
            name,
            kind: EventKind::Span {
                end_ms: Some(end_ms),
            },
            fields,
        });
    }

    /// The retained records, in append order. With no retention window
    /// this is the full log; under streaming it is the un-flushed
    /// suffix (absolute index of element `i` is `offset() + i`).
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events[self.head..]
    }

    /// Total number of records ever appended (flushed + retained).
    pub fn len(&self) -> usize {
        self.offset + (self.events.len() - self.head)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records flushed out of the front of the log.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// High-water mark of resident (retained) records — the quantity a
    /// retention window bounds.
    pub fn peak_retained(&self) -> usize {
        self.peak_retained
    }

    /// Removes and returns the oldest retained record together with
    /// its absolute index, or `None` when nothing is retained. This is
    /// the flush primitive a streaming sink drains from.
    pub fn pop_front(&mut self) -> Option<(usize, TimelineEvent)> {
        if self.head >= self.events.len() {
            return None;
        }
        let tombstone = TimelineEvent {
            at_ms: 0,
            name: "",
            kind: EventKind::Point,
            fields: Vec::new(),
        };
        let event = std::mem::replace(&mut self.events[self.head], tombstone);
        let index = self.offset;
        self.head += 1;
        self.offset += 1;
        // Amortized compaction: once tombstones dominate the backing
        // store, drop them in one O(retained) move.
        if self.head > 64 && self.head * 2 >= self.events.len() {
            self.events.drain(..self.head);
            self.head = 0;
        }
        Some((index, event))
    }

    /// Drains the closes that targeted already-flushed spans, in the
    /// order they happened: `(absolute index, end_ms)` pairs the sink
    /// must patch into its flushed output.
    pub fn take_late_closes(&mut self) -> Vec<(usize, u64)> {
        std::mem::take(&mut self.late_closes)
    }
}

/// Iterates the retained records, as [`Timeline::events`] lists them.
impl<'a> IntoIterator for &'a Timeline {
    type Item = &'a TimelineEvent;
    type IntoIter = std::slice::Iter<'a, TimelineEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `TimelineEvent::to_json` as it stood before the direct writer:
    /// a `JsonObject`, and a fresh `String` per field.
    fn reference_to_json(event: &TimelineEvent) -> String {
        use crate::json::reference::{write_escaped, write_f64, JsonObject};
        use std::fmt::Write;
        let mut obj = JsonObject::new();
        match event.kind {
            EventKind::Point => {
                obj.str_field("type", "event");
                obj.u64_field("at_ms", event.at_ms);
            }
            EventKind::Span { end_ms } => {
                obj.str_field("type", "span");
                obj.u64_field("at_ms", event.at_ms);
                match end_ms {
                    Some(end) => obj.u64_field("end_ms", end),
                    None => obj.raw_field("end_ms", "null"),
                }
            }
        }
        obj.str_field("name", event.name);
        for (key, value) in &event.fields {
            let mut raw = String::new();
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(raw, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(raw, "{v}");
                }
                FieldValue::F64(v) => write_f64(*v, &mut raw),
                FieldValue::Bool(v) => raw.push_str(if *v { "true" } else { "false" }),
                FieldValue::Str(v) => write_escaped(v, &mut raw),
            }
            obj.raw_field(key, &raw);
        }
        obj.finish()
    }

    /// Text pieces that exercise every escape branch, multi-byte UTF-8
    /// and the fast path; strings are random concatenations of them.
    const PIECES: [&str; 14] = [
        "a", "Zq", " ", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "価格",
        "🙂",
    ];

    /// Random text from `PIECES`, the empty string included.
    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(0..PIECES.len(), 0..7)
            .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
    }

    const FLOATS: [f64; 12] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        2.2250738585072e-309,
        f64::MIN_POSITIVE,
        1e300,
        -1e300,
        f64::MAX,
        0.1,
    ];

    /// A special float half the time, random bits (any class) else.
    fn float() -> impl Strategy<Value = f64> {
        (0..2 * FLOATS.len(), 0..u64::MAX)
            .prop_map(|(pick, bits)| FLOATS.get(pick).copied().unwrap_or(f64::from_bits(bits)))
    }

    fn value() -> impl Strategy<Value = FieldValue> {
        (0u32..8, 0..u64::MAX, 0..u64::MAX, float(), text()).prop_map(|(variant, u, i, f, s)| {
            match variant {
                0 => FieldValue::U64(u),
                1 => FieldValue::U64(u64::MAX),
                2 => FieldValue::I64(i as i64),
                3 => FieldValue::I64(i64::MIN),
                4 => FieldValue::F64(f),
                5 => FieldValue::Bool(u % 2 == 0),
                6 => FieldValue::Str(Cow::Owned(s)),
                _ => FieldValue::Str(Cow::Borrowed("static")),
            }
        })
    }

    const KEYS: [&str; 4] = ["k", "tenant", "odd\"key", "ключ"];

    fn event() -> impl Strategy<Value = TimelineEvent> {
        (
            0..u64::MAX,
            0u32..3,
            0..u64::MAX,
            0..KEYS.len(),
            prop::collection::vec((0..KEYS.len(), value()), 0..6),
        )
            .prop_map(|(at_ms, kind, end, name, fields)| TimelineEvent {
                at_ms,
                name: KEYS[name],
                kind: match kind {
                    0 => EventKind::Point,
                    1 => EventKind::Span { end_ms: None },
                    _ => EventKind::Span { end_ms: Some(end) },
                },
                fields: fields.into_iter().map(|(k, v)| (KEYS[k], v)).collect(),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn writer_matches_the_reference_serializer(event in event()) {
            let mut out = String::from("prefix");
            let end = event.write_record(&mut out);
            prop_assert_eq!(&out["prefix".len()..], reference_to_json(&event));
            // The reported span end range holds exactly the end value.
            if let EventKind::Span { end_ms } = event.kind {
                let expected = end_ms.map_or("null".to_owned(), |end| end.to_string());
                prop_assert_eq!(end.map(|range| &out[range]), Some(expected.as_str()));
            } else {
                prop_assert!(end.is_none());
            }
        }
    }

    #[test]
    fn point_events_serialize_with_flattened_fields() {
        let mut timeline = Timeline::new();
        timeline.record(
            120,
            "steal",
            vec![
                ("from", 0u32.into()),
                ("to", 3u32.into()),
                ("moved", 2u64.into()),
            ],
        );
        assert_eq!(
            timeline.events()[0].to_json(),
            r#"{"type":"event","at_ms":120,"name":"steal","from":0,"to":3,"moved":2}"#
        );
    }

    #[test]
    fn spans_open_in_place_and_close_later() {
        let mut timeline = Timeline::new();
        let span = timeline.open_span(0, "replay", vec![("policy", "litmus-aware".into())]);
        timeline.record(20, "scale", vec![("kind", "up".into())]);
        timeline.close_span(span, 400);
        assert_eq!(timeline.len(), 2);
        assert_eq!(
            timeline.events()[0].to_json(),
            r#"{"type":"span","at_ms":0,"end_ms":400,"name":"replay","policy":"litmus-aware"}"#
        );
        // The span keeps its open position: record order is start order.
        assert_eq!(timeline.events()[1].name, "scale");
    }

    #[test]
    fn unclosed_spans_export_a_null_end() {
        let mut timeline = Timeline::new();
        timeline.open_span(5, "machine", vec![]);
        assert_eq!(
            timeline.events()[0].to_json(),
            r#"{"type":"span","at_ms":5,"end_ms":null,"name":"machine"}"#
        );
    }

    #[test]
    fn pop_front_yields_absolute_indexes_and_len_counts_flushed() {
        let mut timeline = Timeline::new();
        for at in 0..5u64 {
            timeline.record(at, "tick", vec![]);
        }
        assert_eq!(
            timeline.pop_front().map(|(i, e)| (i, e.at_ms)),
            Some((0, 0))
        );
        assert_eq!(
            timeline.pop_front().map(|(i, e)| (i, e.at_ms)),
            Some((1, 1))
        );
        assert_eq!(timeline.len(), 5);
        assert_eq!(timeline.offset(), 2);
        assert_eq!(timeline.events().len(), 3);
        assert_eq!(timeline.events()[0].at_ms, 2);
        assert_eq!(timeline.peak_retained(), 5);
    }

    #[test]
    fn closing_a_flushed_span_records_a_late_close() {
        let mut timeline = Timeline::new();
        let span = timeline.open_span(0, "replay", vec![]);
        timeline.record(1, "tick", vec![]);
        timeline.pop_front();
        timeline.close_span(span, 40);
        assert_eq!(timeline.take_late_closes(), vec![(0, 40)]);
        assert!(timeline.take_late_closes().is_empty());
    }

    #[test]
    fn span_ids_survive_compaction() {
        // Push enough and pop enough that the amortized drain runs,
        // then close a retained span by its (absolute) id.
        let mut timeline = Timeline::new();
        let mut ids = Vec::new();
        for at in 0..300u64 {
            ids.push(timeline.open_span(at, "s", vec![]));
        }
        for _ in 0..200 {
            timeline.pop_front();
        }
        timeline.close_span(ids[250], 999);
        let event = &timeline.events()[250 - 200];
        assert_eq!(event.at_ms, 250);
        assert_eq!(event.kind, EventKind::Span { end_ms: Some(999) });
        // Pops after a drain keep yielding the right records.
        assert_eq!(
            timeline.pop_front().map(|(i, e)| (i, e.at_ms)),
            Some((200, 200))
        );
    }
}
