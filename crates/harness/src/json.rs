//! A minimal JSON value model with lossless number round-tripping.
//!
//! The harness persists cache entries and ledger records as JSON. The
//! workspace's serde is a marker-trait stub (vendor/README.md), so the
//! codec is hand-written in the same spirit as the trace codec in
//! `dtm-power::serialize` — small, dependency-free, and exactly as
//! general as the data it carries.
//!
//! Numbers are stored as their source text: floats are emitted with
//! Rust's shortest-round-trip `{:?}` formatting, so a parsed value is
//! **bit-identical** to the one written (the property the result cache
//! tests pin down). Non-finite floats, which JSON proper cannot
//! express, are emitted as the tokens `inf`, `-inf`, and `nan`; the
//! parser accepts them back.

use std::fmt::Write as _;

/// A parsed or to-be-emitted JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text for lossless round-trips.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Errors from [`Json::parse`] or typed accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so without a cap a few kilobytes of
/// `[` would overflow a thread's stack and abort the process; the
/// deepest document this workspace writes nests 4 levels.
const MAX_DEPTH: usize = 128;

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Builds a number from an `f64` (shortest round-trip formatting).
    pub fn f64(v: f64) -> Json {
        if v.is_nan() {
            Json::Num("nan".into())
        } else if v == f64::INFINITY {
            Json::Num("inf".into())
        } else if v == f64::NEG_INFINITY {
            Json::Num("-inf".into())
        } else {
            Json::Num(format!("{v:?}"))
        }
    }

    /// Builds a number from a `u64`.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a number from a `usize`.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Reads this value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(s) => match s.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => s
                    .parse()
                    .map_err(|e| JsonError(format!("bad f64 {s}: {e}"))),
            },
            other => err(format!("expected number, found {other:?}")),
        }
    }

    /// Reads this value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(s) => s
                .parse()
                .map_err(|e| JsonError(format!("bad u64 {s}: {e}"))),
            other => err(format!("expected number, found {other:?}")),
        }
    }

    /// Reads this value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// Reads this value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, found {other:?}")),
        }
    }

    /// Reads this value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => err(format!("expected array, found {other:?}")),
        }
    }

    /// Looks up a required object field.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError(format!("missing field `{name}`"))),
            other => err(format!("expected object, found {other:?}")),
        }
    }

    /// Serializes to compact JSON text (single line).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text` (trailing whitespace allowed),
    /// in time linear in its length.
    ///
    /// # Errors
    ///
    /// Fails on malformed or truncated input, and on arrays and objects
    /// nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn emit_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => err("unexpected end of input"),
            Some(open @ (b'{' | b'[')) => self.nested(open),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b'n') if self.literal("nan") => Ok(Json::Num("nan".into())),
            Some(b'i') if self.literal("inf") => Ok(Json::Num("inf".into())),
            Some(_) => self.number(),
        }
    }

    /// Parses the array or object opened by `open`, one level deeper.
    fn nested(&mut self, open: u8) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = if open == b'{' {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    /// Parses a string literal in time linear in its length: each run
    /// of bytes up to the next `"` or `\` is validated and copied
    /// whole. Both delimiters are ASCII, so a run never splits a
    /// multi-byte code point.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(end) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return err("unterminated string");
            };
            s.push_str(
                std::str::from_utf8(&rest[..end])
                    .map_err(|_| JsonError("invalid UTF-8 in string".into()))?,
            );
            self.pos += end + 1;
            if rest[end] == b'"' {
                return Ok(s);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return err("unterminated escape");
            };
            self.pos += 1;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'n' => s.push('\n'),
                b'r' => s.push('\r'),
                b't' => s.push('\t'),
                b'b' => s.push('\u{8}'),
                b'f' => s.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                    let hex =
                        std::str::from_utf8(hex).map_err(|_| JsonError("bad \\u escape".into()))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| JsonError("bad \\u escape".into()))?;
                    self.pos += 4;
                    s.push(
                        char::from_u32(code)
                            .ok_or_else(|| JsonError("bad \\u code point".into()))?,
                    );
                }
                other => return err(format!("bad escape \\{}", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.literal("inf") {
                return Ok(Json::Num("-inf".into()));
            }
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return err(format!("expected number at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Validate the literal now so accessors can't fail later.
        text.parse::<f64>()
            .map_err(|e| JsonError(format!("bad number `{text}`: {e}")))?;
        Ok(Json::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Json::Obj(vec![
            ("name".into(), Json::str("dist. DVFS + \"best\"")),
            ("bips".into(), Json::f64(11.3625)),
            ("cells".into(), Json::u64(144)),
            (
                "threads".into(),
                Json::Arr(vec![Json::f64(0.25), Json::Null, Json::Bool(true)]),
            ),
        ]);
        let text = v.emit();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn f64_round_trip_is_bit_identical() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            84.2,
            6.02214076e23,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let text = Json::f64(v).emit();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} → {text} → {back}");
        }
        let nan = Json::parse(&Json::f64(f64::NAN).emit()).unwrap();
        assert!(nan.as_f64().unwrap().is_nan());
    }

    #[test]
    fn u64_round_trip_is_exact_beyond_f64() {
        let v = u64::MAX - 1;
        let text = Json::u64(v).emit();
        assert_eq!(Json::parse(&text).unwrap().as_u64().unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let max_frame = "a".repeat(4 << 20);
        for s in [
            "line1\nline2\ttab \"quoted\" back\\slash \u{1}control ünïcode",
            "",
            "\"\\\n\r\t\u{1f}",
            "ünï\"日本語\\cödé\n😀",
            "😀",
            max_frame.as_str(),
        ] {
            let text = Json::str(s).emit();
            assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
        }
        for (text, want) in [
            (r#""\u00fc\u65E5 x\u0041""#, "ü日 xA"),
            (r#""\/\b\f\"\\""#, "/\u{8}\u{c}\"\\"),
            (r#""ü\u00e9日""#, "üé日"),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_str().unwrap(), want);
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\":}",
            "12 34",
            "{\"a\":1}extra",
            "nul",
            "\"ünïcode",
            "\"ü\\n日",
            "\"日\\",
            "\"\\u00e",
            "\"\\ud800\"",
            "\"\\x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&nest("[{\"a\":", "}]", MAX_DEPTH / 2 + 1)).is_err());
        // 16 KiB of `[`, far under a serve frame's 4 MiB cap, overflows
        // a 2 MiB thread stack without the cap.
        let err = Json::parse(&"[".repeat(16 << 10)).unwrap_err();
        assert!(err.0.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn field_access_and_type_errors() {
        let v = Json::parse("{\"a\":3,\"b\":\"x\"}").unwrap();
        assert_eq!(v.field("a").unwrap().as_u64().unwrap(), 3);
        assert!(v.field("missing").is_err());
        assert!(v.field("b").unwrap().as_u64().is_err());
    }
}
