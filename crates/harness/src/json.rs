//! A minimal JSON value model with lossless number round-tripping, and
//! the one tokenizer that reads it.
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
//!
//! [`Reader`] is a pull reader over the text: it yields keys, strings
//! and numbers as slices of the input. [`Json::parse`] builds a tree
//! over it, and a record's [`JsonCodec::read`](crate::codec::JsonCodec::read)
//! decodes straight from it with no tree, which is how a warm cache hit
//! is read. One tokenizer serves both, so they accept one grammar.

use std::borrow::Cow;
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

/// Deepest nesting of arrays and objects a [`Reader`] accepts. The tree
/// builder and the decoders recurse once per level, so without a cap a
/// few kilobytes of `[` would overflow a thread's stack and abort the
/// process; the deepest document this workspace writes nests 4 levels.
const MAX_DEPTH: usize = 128;

/// Most fields an object read through [`Fields`] may have: one bit of
/// its read mask each. The widest record this workspace writes has 15.
const MAX_FIELDS: usize = 64;

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
            Json::Num(s) => number_value(s),
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

    /// Reads this value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected boolean, found {other:?}")),
        }
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

    /// Starts reading this object field by field (see [`Fields`]).
    ///
    /// # Errors
    ///
    /// Fails on anything but an object of at most 64 fields.
    pub fn fields(&self) -> Result<Fields<'_>, JsonError> {
        match self {
            Json::Obj(pairs) if pairs.len() <= MAX_FIELDS => Ok(Fields { pairs, read: 0 }),
            Json::Obj(pairs) => err(format!(
                "object of {} fields exceeds {MAX_FIELDS}",
                pairs.len()
            )),
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
        let mut r = Reader::new(text);
        let v = Json::read(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Reads the next value of `r` as a tree.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Json, JsonError> {
        Ok(match r.value()? {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Num(text) => Json::Num(text.into()),
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::Arr => {
                let mut items = Vec::new();
                while r.elem()? {
                    items.push(Json::read(r)?);
                }
                Json::Arr(items)
            }
            Token::Obj => {
                let mut pairs = Vec::new();
                while let Some(key) = r.key()? {
                    pairs.push((key.into_owned(), Json::read(r)?));
                }
                Json::Obj(pairs)
            }
        })
    }
}

/// An object read one field at a time. [`Fields::end`] rejects every
/// field that was not read, so a decoder that reads each field of a
/// struct accepts exactly the layout its encoder writes: no unknown,
/// repeated or missing field gets through.
#[derive(Debug)]
pub struct Fields<'a> {
    pairs: &'a [(String, Json)],
    /// Bit `i` is set once `pairs[i]` has been read.
    read: u64,
}

impl<'a> Fields<'a> {
    /// An optional field (`None` when absent); the first spelling of a
    /// repeated field.
    pub fn opt(&mut self, name: &str) -> Option<&'a Json> {
        let i = self.pairs.iter().position(|(k, _)| k == name)?;
        self.read |= 1 << i;
        Some(&self.pairs[i].1)
    }

    /// A required field.
    pub fn req(&mut self, name: &str) -> Result<&'a Json, JsonError> {
        self.opt(name)
            .ok_or_else(|| JsonError(format!("missing field `{name}`")))
    }

    /// Fails on the first field that was not read.
    pub fn end(self) -> Result<(), JsonError> {
        if self.read.count_ones() as usize == self.pairs.len() {
            return Ok(());
        }
        let i = (!self.read).trailing_zeros() as usize;
        err(format!("unknown or repeated field `{}`", self.pairs[i].0))
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

/// A pull reader over JSON text: the one tokenizer under
/// [`Json::parse`] and every [`JsonCodec::read`](crate::codec::JsonCodec::read).
///
/// Each typed read ([`Reader::f64`], [`Reader::u64`], [`Reader::bool`],
/// [`Reader::str`], [`Reader::array`] and [`Reader::object`]) reads
/// the next value and fails on one of another type; the members of an
/// array or object it opens are stepped through with [`Reader::elem`]
/// and [`Reader::key`], and [`Reader::skip`] checks a value of any type
/// and drops it. Keys, strings and numbers come back as slices of the
/// input; a string is copied only when it holds an escape. The input is
/// a `&str`, so its UTF-8 is checked before the first token.
///
/// The grammar, a superset of what [`Json::emit`] writes: `null`,
/// `true`, `false`; strings with the escapes `\" \\ \/ \n \r \t \b \f` and
/// `\uXXXX` naming a scalar value (a surrogate is an error); numbers,
/// each a run of `[0-9.eE+-]` that Rust's `f64` parser accepts or one of
/// the tokens `nan`, `inf` and `-inf`; arrays and objects nested at most
/// 128 deep; space, tab, CR and LF as whitespace.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the position.
    depth: usize,
    /// Set by an opening bracket: the first member of the array or
    /// object just opened follows without a comma.
    first: bool,
}

/// The first token of a value: a whole scalar, or the bracket that
/// opens an array or an object.
#[derive(Debug)]
enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's text, already checked as an `f64` literal.
    Num(&'a str),
    /// A string, borrowed unless it holds an escape.
    Str(Cow<'a, str>),
    /// `[`: step through its elements with [`Reader::elem`].
    Arr,
    /// `{`: step through its members with [`Reader::key`].
    Obj,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Reads the first token of the next value; fails on malformed or
    /// truncated input, and on an array or object 129 levels deep.
    fn value(&mut self) -> Result<Token<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'{') => self.open().map(|()| Token::Obj),
            Some(b'[') => self.open().map(|()| Token::Arr),
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') if self.literal("true") => Ok(Token::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Token::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Token::Null),
            Some(_) => {
                let text = self.number()?;
                number_value(text)?;
                Ok(Token::Num(text))
            }
        }
    }

    /// Reads a number as an `f64`, the tokens `nan`, `inf` and `-inf`
    /// as those values.
    ///
    /// # Errors
    ///
    /// Fails on anything but a number.
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        self.skip_ws();
        let text = self.number()?;
        number_value(text)
    }

    /// Reads a number as a `u64`.
    ///
    /// # Errors
    ///
    /// Fails on anything but a number that is a `u64`. Every text
    /// `u64` parses is also an `f64` literal, so this accepts the
    /// numbers [`Reader::skip`] accepts that are `u64`s.
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        self.skip_ws();
        let text = self.number()?;
        text.parse()
            .map_err(|e| JsonError(format!("bad u64 {text}: {e}")))
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// Fails on anything but `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.value()? {
            Token::Bool(b) => Ok(b),
            other => err(format!("expected boolean, found {other:?}")),
        }
    }

    /// Reads a string, borrowed unless it holds an escape.
    ///
    /// # Errors
    ///
    /// Fails on anything but a well-formed string.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        match self.value()? {
            Token::Str(s) => Ok(s),
            other => err(format!("expected string, found {other:?}")),
        }
    }

    /// Opens an array, whose elements [`Reader::elem`] steps through.
    ///
    /// # Errors
    ///
    /// Fails on anything but `[`, and 129 levels deep.
    pub fn array(&mut self) -> Result<(), JsonError> {
        match self.value()? {
            Token::Arr => Ok(()),
            other => err(format!("expected array, found {other:?}")),
        }
    }

    /// Opens an object, whose members [`Reader::key`] steps through.
    ///
    /// # Errors
    ///
    /// Fails on anything but `{`, and 129 levels deep.
    pub fn object(&mut self) -> Result<(), JsonError> {
        match self.value()? {
            Token::Obj => Ok(()),
            other => err(format!("expected object, found {other:?}")),
        }
    }

    /// Whether the array opened last has another element, which the
    /// caller reads next; `false` once its `]` is read.
    ///
    /// # Errors
    ///
    /// Fails on anything but `,` or `]` after an element.
    pub fn elem(&mut self) -> Result<bool, JsonError> {
        self.more(b']')
    }

    /// The next key of the object opened last, its `:` read, so the
    /// caller reads its value next; `None` once the object's `}` is
    /// read.
    ///
    /// # Errors
    ///
    /// Fails on a malformed key, or on anything but `,` or `}` after a
    /// value.
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads the next value whole and drops it.
    ///
    /// # Errors
    ///
    /// Fails where [`Json::parse`] would fail on the value.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.value()? {
            Token::Arr => {
                while self.elem()? {
                    self.skip()?;
                }
            }
            Token::Obj => {
                while self.key()?.is_some() {
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Ends the text.
    ///
    /// # Errors
    ///
    /// Fails unless every array and object read is closed and only
    /// whitespace follows.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.depth != 0 {
            return err(format!("{} unclosed arrays or objects", self.depth));
        }
        if self.pos != self.text.len() {
            return err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Steps into the array or object whose bracket is at the position.
    fn open(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.first = true;
        Ok(())
    }

    /// Whether the container opened last has another member: reads the
    /// `,` before one, or the `close` bracket after the last, which
    /// steps out of the container.
    fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => err(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// Reads a string literal in time linear in its length: each run of
    /// bytes up to the next `"` or `\` is taken whole, and borrowed when
    /// the literal holds no escape. Both delimiters are ASCII, so a run
    /// never splits a code point.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut copy: Option<String> = None;
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let Some(end) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return err("unterminated string");
            };
            let run = &self.text[self.pos..self.pos + end];
            self.pos += end + 1;
            if rest[end] == b'"' {
                return Ok(match copy {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = copy.get_or_insert_with(String::new);
            s.push_str(run);
            let Some(&esc) = self.text.as_bytes().get(self.pos) else {
                return err("unterminated escape");
            };
            self.pos += 1;
            s.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    // Four bytes that are not a whole code point's run,
                    // or past the end, are no `\u` escape.
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| JsonError("truncated or bad \\u escape".into()))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| JsonError("bad \\u escape".into()))?;
                    self.pos += 4;
                    char::from_u32(code).ok_or_else(|| JsonError("bad \\u code point".into()))?
                }
                other => return err(format!("bad escape \\{}", other as char)),
            });
        }
    }

    /// The text of the number at the position, not yet checked: the
    /// token `nan`, `inf` or `-inf`, or the run of `[0-9.eE+-]` there.
    fn number(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        if !["nan", "inf", "-inf"].iter().any(|w| self.literal(w)) {
            let run = self.text.as_bytes()[start..]
                .iter()
                .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .count();
            if run == 0 {
                return err(format!("expected number at byte {start}"));
            }
            self.pos += run;
        }
        Ok(&self.text[start..self.pos])
    }
}

/// The value of a number's text as [`Reader`] reads it.
fn number_value(text: &str) -> Result<f64, JsonError> {
    match text {
        "nan" => Ok(f64::NAN),
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        _ => text
            .parse()
            .map_err(|e| JsonError(format!("bad number `{text}`: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads one value of `text` with `read` and ends the text.
    fn read_all<'a, T>(
        text: &'a str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut r = Reader::new(text);
        let v = read(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Whether `text` is one value, both to the tree builder and to a
    /// `Reader` skipping it; the two must agree.
    fn accepted(text: &str) -> Result<(), JsonError> {
        let tree = Json::parse(text).map(drop);
        let skipped = read_all(text, Reader::skip);
        assert_eq!(
            tree.is_ok(),
            skipped.is_ok(),
            "{text:?}: {tree:?} {skipped:?}"
        );
        tree
    }

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
            for back in [
                Json::parse(&text).unwrap().as_f64().unwrap(),
                read_all(&text, Reader::f64).unwrap(),
            ] {
                assert_eq!(v.to_bits(), back.to_bits(), "{v} → {text} → {back}");
            }
        }
        let nan = Json::f64(f64::NAN).emit();
        assert!(Json::parse(&nan).unwrap().as_f64().unwrap().is_nan());
        assert!(read_all(&nan, Reader::f64).unwrap().is_nan());
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
            assert_eq!(read_all(&text, Reader::str).unwrap(), s);
        }
        for (text, want) in [
            (r#""\u00fc\u65E5 x\u0041""#, "ü日 xA"),
            (r#""\/\b\f\"\\""#, "/\u{8}\u{c}\"\\"),
            (r#""ü\u00e9日""#, "üé日"),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_str().unwrap(), want);
            assert_eq!(read_all(text, Reader::str).unwrap(), want);
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
            assert!(accepted(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(accepted(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(accepted(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        assert!(accepted(&nest("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(accepted(&nest("[{\"a\":", "}]", MAX_DEPTH / 2 + 1)).is_err());
        // 16 KiB of `[`, far under a serve frame's 4 MiB cap, overflows
        // a 2 MiB thread stack without the cap.
        let deep = "[".repeat(16 << 10);
        for err in [
            Json::parse(&deep).unwrap_err(),
            read_all(&deep, Reader::skip).unwrap_err(),
        ] {
            assert!(err.0.contains("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn field_access_and_type_errors() {
        let v = Json::parse("{\"a\":3,\"b\":\"x\"}").unwrap();
        assert_eq!(v.field("a").unwrap().as_u64().unwrap(), 3);
        assert!(v.field("missing").is_err());
        assert!(v.field("b").unwrap().as_u64().is_err());

        // `Fields` finds fields in any order and fails on any left
        // unread, a second spelling of one it read included.
        let num = |n: &str| Json::Num(n.into());
        let v = Json::parse(r#"{"a":1,"b":2,"c":3}"#).unwrap();
        let mut o = v.fields().unwrap();
        assert_eq!(o.req("c").unwrap(), &num("3"));
        assert_eq!(o.req("a").unwrap(), &num("1"));
        assert!(o.opt("z").is_none() && o.req("z").is_err());
        assert_eq!(o.req("b").unwrap(), &num("2"));
        assert!(o.end().is_ok());
        for order in [["b", "a"], ["a", "b"]] {
            let v = Json::parse(r#"{"a":1,"b":2,"a":3}"#).unwrap();
            let mut o = v.fields().unwrap();
            for name in order {
                o.req(name).unwrap();
            }
            assert!(o.end().unwrap_err().0.contains("repeated field `a`"));
        }
    }
}
