//! A minimal parser for the flat JSONL lines `litmus-telemetry`
//! exports.
//!
//! The export format is deliberately narrow — every line is one flat
//! JSON object whose values are strings, numbers, booleans, `null`,
//! or (for histogram buckets only) a nested array — so a dependency-
//! free parser covers it completely. Arrays are preserved as raw text:
//! the query tooling treats them as opaque.

use std::fmt;

/// A parsed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// A nested array, kept as its raw source text.
    Raw(String),
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            JsonValue::Str(s) => write!(f, "{s}"),
            JsonValue::Raw(s) => write!(f, "{s}"),
        }
    }
}

/// One parsed export line: the object's fields in source order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatRecord {
    /// `(key, value)` pairs in the order they appear on the line.
    pub fields: Vec<(String, JsonValue)>,
}

impl FlatRecord {
    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `key` as a number.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// `key` as a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The record's `type` tag (`"meta"`, `"span"`, `"event"`,
    /// `"counter"`, …), empty if missing.
    pub fn record_type(&self) -> &str {
        self.str_field("type").unwrap_or("")
    }

    /// The record's `name`, empty if missing.
    pub fn name(&self) -> &str {
        self.str_field("name").unwrap_or("")
    }
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the line.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let Some(ch) = text.chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn raw_array(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated array")),
                Some(b'[') => depth += 1,
                Some(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        let raw = &self.bytes[start..self.pos];
                        return Ok(String::from_utf8_lossy(raw).into_owned());
                    }
                }
                Some(b'"') => {
                    self.string()?;
                    continue;
                }
                Some(_) => {}
            }
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => Ok(JsonValue::Raw(self.raw_array()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| self.err(format!("bad number '{text}'")))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }
}

/// Parses one export line (a flat JSON object).
pub fn parse_line(line: &str) -> Result<FlatRecord, ParseError> {
    let mut cursor = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    cursor.skip_ws();
    cursor.expect_byte(b'{')?;
    let mut record = FlatRecord::default();
    cursor.skip_ws();
    if cursor.peek() == Some(b'}') {
        return Ok(record);
    }
    loop {
        cursor.skip_ws();
        let key = cursor.string()?;
        cursor.skip_ws();
        cursor.expect_byte(b':')?;
        let value = cursor.value()?;
        record.fields.push((key, value));
        cursor.skip_ws();
        match cursor.peek() {
            Some(b',') => cursor.pos += 1,
            Some(b'}') => return Ok(record),
            _ => return Err(cursor.err("expected ',' or '}'")),
        }
    }
}

/// Parses a whole export, one record per non-empty line. The error,
/// if any, carries the 1-based line number.
pub fn parse_export(text: &str) -> Result<Vec<FlatRecord>, (usize, ParseError)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_line(line).map_err(|e| (i + 1, e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use litmus_telemetry::{EventKind, TimelineEvent};
    use proptest::prelude::*;

    /// Text pieces covering every escape the writer emits and
    /// multi-byte UTF-8; strings are random concatenations of them.
    const PIECES: [&str; 12] = [
        "a", " ", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "é", "価格", "🙂",
    ];

    const FLOATS: [f64; 8] = [
        -0.0,
        0.0,
        5e-324,
        2.2250738585072e-309,
        1e300,
        -1e300,
        f64::MAX,
        f64::NAN,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn writer_output_round_trips_strings_and_float_bits(
            picks in prop::collection::vec(0..PIECES.len(), 0..8),
            (pick, bits) in (0..2 * FLOATS.len(), 0..u64::MAX),
        ) {
            let text: String = picks.into_iter().map(|i| PIECES[i]).collect();
            let value = FLOATS.get(pick).copied().unwrap_or(f64::from_bits(bits));
            let event = TimelineEvent {
                at_ms: 0,
                name: "probe",
                kind: EventKind::Point,
                fields: vec![("text", text.clone().into()), ("value", value.into())],
            };
            let record = parse_line(&event.to_json())
                .map_err(|err| TestCaseError::fail(err.to_string()))?;
            prop_assert_eq!(record.str_field("text"), Some(text.as_str()));
            if value.is_finite() {
                prop_assert_eq!(record.num("value").map(f64::to_bits), Some(value.to_bits()));
            } else {
                prop_assert_eq!(record.get("value"), Some(&JsonValue::Null));
            }
        }
    }

    #[test]
    fn parses_every_export_line_shape() {
        let meta =
            parse_line(r#"{"type":"meta","policy":"litmus-aware","timeline_events":4}"#).unwrap();
        assert_eq!(meta.record_type(), "meta");
        assert_eq!(meta.num("timeline_events"), Some(4.0));

        let span =
            parse_line(r#"{"type":"span","at_ms":0,"end_ms":null,"name":"machine","cost":-1.5e2}"#)
                .unwrap();
        assert_eq!(span.get("end_ms"), Some(&JsonValue::Null));
        assert_eq!(span.num("cost"), Some(-150.0));

        let hist =
            parse_line(r#"{"type":"histogram","name":"wait","count":3,"buckets":[[0,1],[5,2]]}"#)
                .unwrap();
        assert_eq!(
            hist.get("buckets"),
            Some(&JsonValue::Raw("[[0,1],[5,2]]".to_owned()))
        );
    }

    #[test]
    fn unescapes_strings() {
        let record = parse_line(r#"{"name":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(record.str_field("name"), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn reports_errors_with_position() {
        let err = parse_line(r#"{"name":}"#).unwrap_err();
        assert_eq!(err.at, 8);
        assert!(parse_line("not json").is_err());
        let (line, _) = parse_export("{\"a\":1}\nbroken\n").unwrap_err();
        assert_eq!(line, 2);
    }

    #[test]
    fn round_trips_a_real_export() {
        use litmus_telemetry::{Telemetry, TelemetryConfig};
        let mut telemetry = Telemetry::new(TelemetryConfig::default());
        telemetry.set_meta("policy", "round-robin");
        telemetry.inc("arrivals", 2);
        telemetry.observe("wait_ms", 12.5);
        telemetry.event(
            10,
            "steal",
            vec![("from", 0u32.into()), ("ok", true.into())],
        );
        let span = telemetry.open_span(0, "replay", vec![]);
        telemetry.close_span(span, 100);
        let records = parse_export(&telemetry.to_jsonl()).unwrap();
        assert_eq!(records.len(), telemetry.timeline().len() + 3); // meta + counter + histogram
        assert_eq!(records[0].record_type(), "meta");
        assert!(records.iter().any(|r| r.record_type() == "histogram"));
        let steal = records.iter().find(|r| r.name() == "steal").unwrap();
        assert_eq!(steal.get("ok"), Some(&JsonValue::Bool(true)));
    }
}
