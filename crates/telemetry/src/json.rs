//! Minimal deterministic JSON writing.
//!
//! The telemetry exporter (and the study/bench tooling built on it)
//! needs machine-readable output without an external serializer, and —
//! more importantly — needs the bytes to be *reproducible*: the same
//! recorded data must serialize to the same string on every run, so
//! timelines can be compared byte-for-byte across worker-pool thread
//! counts and replay modes.
//!
//! There is one writer: [`ObjectWriter`] appends a flat JSON object
//! straight into a caller-owned buffer, so every export path — the
//! materialized [`Telemetry::to_jsonl`](crate::Telemetry::to_jsonl),
//! the streaming sink behind a retention window, and the registry
//! lines — serializes each record in place, with no per-record or
//! per-field `String`. [`JsonObject`] is the same writer over a buffer
//! it owns, for callers that need an owned value (the bench-trajectory
//! file, study output, [`StageProfile::to_json`](crate::StageProfile::to_json)).
//!
//! Keys are written in the order the caller emits them, integers in
//! decimal, floats through Rust's shortest-round-trip
//! [`std::fmt::Display`] (which is deterministic), and non-finite
//! floats as `null` (JSON has no NaN/∞).

use std::fmt::Write;

/// Appends `s` as a JSON string literal (quotes included) to `out`,
/// escaping quotes, backslashes and control characters. A string that
/// needs no escape (every name the stack emits) is copied in one piece.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// Appends `v` in decimal to `out`. Hand-rolled: going through the
/// `fmt` machinery cost about a fifth of a traced replay's export.
pub fn write_u64(mut v: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).unwrap_or_default());
}

/// Appends `v` in decimal to `out`.
pub fn write_i64(v: i64, out: &mut String) {
    if v < 0 {
        out.push('-');
    }
    write_u64(v.unsigned_abs(), out);
}

/// Appends `v` as a JSON number to `out` — `null` when non-finite.
/// Rust's `f64` `Display` is shortest-round-trip and deterministic, and
/// never produces exponent notation, so the output is valid JSON.
pub fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Writes one flat JSON object straight into a caller's buffer: fields
/// are emitted in call order, so serialization is exactly as
/// deterministic as the call sequence. Nothing is allocated beyond the
/// buffer's own growth.
///
/// # Examples
///
/// ```
/// use litmus_telemetry::json::ObjectWriter;
///
/// let mut out = String::from("prefix ");
/// let mut obj = ObjectWriter::open(&mut out);
/// obj.str_field("name", "steal").u64_field("moved", 3);
/// obj.f64_field("signal", f64::NAN);
/// obj.close();
/// assert_eq!(out, r#"prefix {"name":"steal","moved":3,"signal":null}"#);
/// ```
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    /// Length of `out` just past the opening brace: a field written
    /// after it needs a separating comma.
    start: usize,
}

impl<'a> ObjectWriter<'a> {
    /// Appends the opening brace to `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        let start = out.len();
        ObjectWriter { out, start }
    }

    /// Appends `key` (and the separating comma, if a field came
    /// before) and returns the buffer for the caller to append the
    /// value to.
    pub fn key(&mut self, key: &str) -> &mut String {
        if self.out.len() > self.start {
            self.out.push(',');
        }
        write_escaped(key, self.out);
        self.out.push(':');
        self.out
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        write_escaped(value, self.key(key));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        write_u64(value, self.key(key));
        self
    }

    /// Adds a signed integer field.
    pub fn i64_field(&mut self, key: &str, value: i64) -> &mut Self {
        write_i64(value, self.key(key));
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64_field(&mut self, key: &str, value: f64) -> &mut Self {
        write_f64(value, self.key(key));
        self
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw_field(key, if value { "true" } else { "false" })
    }

    /// Adds a pre-serialized JSON value verbatim — for `null` and for
    /// nesting objects and arrays built elsewhere.
    pub fn raw_field(&mut self, key: &str, raw: &str) -> &mut Self {
        self.key(key).push_str(raw);
        self
    }

    /// Appends the closing brace.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// An owned JSON object built with the [`ObjectWriter`] field
/// functions, for callers that need the object as a value rather than
/// appended to a buffer.
///
/// # Examples
///
/// ```
/// use litmus_telemetry::json::JsonObject;
///
/// let mut obj = JsonObject::new();
/// obj.str_field("name", "steal");
/// obj.u64_field("moved", 3);
/// obj.f64_field("signal", 1.25);
/// assert_eq!(obj.finish(), r#"{"name":"steal","moved":3,"signal":1.25}"#);
/// ```
#[derive(Debug)]
pub struct JsonObject {
    /// The object so far, opening brace included.
    buf: String,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
        }
    }

    fn writer(&mut self) -> ObjectWriter<'_> {
        ObjectWriter {
            out: &mut self.buf,
            start: 1,
        }
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.writer().str_field(key, value);
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.writer().u64_field(key, value);
    }

    /// Adds a signed integer field.
    pub fn i64_field(&mut self, key: &str, value: i64) {
        self.writer().i64_field(key, value);
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64_field(&mut self, key: &str, value: f64) {
        self.writer().f64_field(key, value);
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) {
        self.writer().bool_field(key, value);
    }

    /// Adds a pre-serialized JSON value verbatim — for nesting objects
    /// and arrays built elsewhere.
    pub fn raw_field(&mut self, key: &str, raw: &str) {
        self.writer().raw_field(key, raw);
    }

    /// Closes the object and returns it as a string.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Joins pre-serialized JSON values into an array literal.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// The serializer as it stood before [`ObjectWriter`]: a `String` per
/// object and per field, a char-by-char escape and `format!`-based
/// numbers. Kept verbatim as the oracle the writer is tested against.
#[cfg(test)]
pub(crate) mod reference {
    use std::fmt::Write;

    pub fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    pub fn write_f64(v: f64, out: &mut String) {
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }

    #[derive(Debug, Default)]
    pub struct JsonObject {
        buf: String,
    }

    impl JsonObject {
        pub fn new() -> Self {
            JsonObject { buf: String::new() }
        }

        fn key(&mut self, key: &str) {
            if !self.buf.is_empty() {
                self.buf.push(',');
            }
            write_escaped(key, &mut self.buf);
            self.buf.push(':');
        }

        pub fn str_field(&mut self, key: &str, value: &str) {
            self.key(key);
            write_escaped(value, &mut self.buf);
        }

        pub fn u64_field(&mut self, key: &str, value: u64) {
            self.key(key);
            let _ = write!(self.buf, "{value}");
        }

        pub fn raw_field(&mut self, key: &str, raw: &str) {
            self.key(key);
            self.buf.push_str(raw);
        }

        pub fn finish(self) -> String {
            format!("{{{}}}", self.buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        write_escaped("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut obj = JsonObject::new();
        obj.f64_field("nan", f64::NAN);
        obj.f64_field("inf", f64::INFINITY);
        obj.f64_field("ok", 0.5);
        assert_eq!(obj.finish(), r#"{"nan":null,"inf":null,"ok":0.5}"#);
    }

    #[test]
    fn arrays_and_nested_raw_fields_compose() {
        let inner = {
            let mut obj = JsonObject::new();
            obj.u64_field("x", 1);
            obj.finish()
        };
        let mut outer = JsonObject::new();
        outer.raw_field("items", &array([inner]));
        outer.bool_field("done", true);
        assert_eq!(outer.finish(), r#"{"items":[{"x":1}],"done":true}"#);
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(array(Vec::new()), "[]");
    }
}
