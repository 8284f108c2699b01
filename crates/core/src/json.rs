//! The workspace's one JSON writer and one JSON parser.
//!
//! The repo deliberately carries no serialization dependency (the build
//! is offline; see `shims/`), and every JSON artifact that crosses a tool
//! boundary is small and schema-stable: protocol traces and op spans, the
//! metrics and Chrome-trace snapshots, the `obs` report, flight-recorder
//! postmortems, the analyzer's `--json` archive and the model checker's
//! schedule files. All of them are written through [`JsonWriter`] (the
//! schedule file keeps its own one-step-per-line layout, built from
//! [`escape`]) and read back through [`Json::parse`].
//!
//! The writer streams into a `String`: keys come out in the order they are
//! written, integers exactly (a 64-bit digest survives), strings through
//! [`escape`], and `None` as `null`. Parsed numbers are kept as `f64`
//! (every reader consumes booleans, strings and integers below 2^53).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How deeply arrays and objects may nest in a parsed document. The
/// deepest document the workspace writes nests 6 levels; a deeper one is
/// rejected rather than recursed into.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see module docs on `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    List(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering deterministic.
    Map(BTreeMap<String, Json>),
}

impl Json {
    /// The string behind a `Str`, if that is what this is.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements behind a `List`, if that is what this is.
    pub fn as_list(&self) -> Option<&[Json]> {
        match self {
            Json::List(v) => Some(v),
            _ => None,
        }
    }

    /// The map behind a `Map`, if that is what this is.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The number behind a `Num`, if that is what this is.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number behind a `Num` as a `u64`, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean behind a `Bool`, if that is what this is.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member lookup on a `Map` (None for absent keys and non-maps).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_map()?.get(key)
    }

    /// Parses one JSON document (trailing whitespace allowed, anything
    /// else after the value is an error).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description with a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

/// Renders a string as a quoted JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
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

/// A value [`JsonWriter`] writes in one call.
pub trait Scalar {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

// Integers and booleans: their `Display` form is their JSON form.
macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalar!(u8, u32, u64, usize, i64, bool);

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        escape_into(out, self);
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        escape_into(out, self);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// A streaming JSON writer over a `String`.
///
/// Members and elements come out in call order, separated by commas the
/// writer inserts. [`JsonWriter::key`] starts an object member, whose value
/// is the next thing written; [`JsonWriter::object`] and
/// [`JsonWriter::array`] nest. The caller keeps the calls well formed (a
/// key only inside an object, each followed by one value).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    comma: bool,
}

/// Writes one object whose members `body` writes, and returns its text.
pub fn object(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::default();
    w.object(body);
    w.out
}

impl JsonWriter {
    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Writes a scalar: an array element, or the value of the last key.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        self.separate();
        v.write_json(&mut self.out);
        self.comma = true;
        self
    }

    /// Starts an object member; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes an object member with a scalar value.
    pub fn field(&mut self, k: &str, v: impl Scalar) -> &mut Self {
        self.key(k).value(v)
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', '}', body)
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', ']', body)
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            let mut items = Vec::new();
            parse_items(b, pos, depth, b']', |b, pos| {
                items.push(parse_value(b, pos, depth + 1)?);
                Ok(())
            })?;
            Ok(Json::List(items))
        }
        Some(b'{') => {
            let mut map = BTreeMap::new();
            parse_items(b, pos, depth, b'}', |b, pos| {
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                map.insert(key, parse_value(b, pos, depth + 1)?);
                Ok(())
            })?;
            Ok(Json::Map(map))
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

/// Parses the comma-separated items of the array or object opening at
/// `pos`, nested `depth` levels deep, through its `close` byte.
fn parse_items(
    b: &[u8],
    pos: &mut usize,
    depth: usize,
    close: u8,
    mut item: impl FnMut(&[u8], &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    if depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    *pos += 1;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        item(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => {
                let close = close as char;
                return Err(format!(
                    "expected `,` or `{close}` at byte {pos}",
                    pos = *pos
                ));
            }
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_owned())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by our writers;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the run up to the next quote or escape: both are
                // ASCII, so the run ends on a character boundary.
                let start = *pos;
                while b.get(*pos).is_some_and(|c| !matches!(c, b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    if *pos == start {
        return Err(format!("expected a value at byte {start}"));
    }
    std::str::from_utf8(&b[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map_err(|e| format!("bad number at byte {start}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_structures() {
        let src = r#"{"a": [1, 2.5, -3], "b": {"x": null, "y": true}, "s": "q\"\\\n"}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_list().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("y").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"\\\n"));
    }

    #[test]
    fn writer_keeps_call_order_and_exact_integers() {
        let text = object(|w| {
            w.field("z", u64::MAX)
                .field("a", -3i64)
                .field("s", "q\"\\\n")
                .field("none", None::<u64>)
                .field("some", Some(7u32));
            w.key("list").array(|w| {
                w.value(true).value(false);
                w.object(|_| {});
                w.array(|_| {});
            });
            w.key("empty").object(|_| {});
        });
        assert_eq!(
            text,
            r#"{"z":18446744073709551615,"a":-3,"s":"q\"\\\n","none":null,"some":7,"list":[true,false,{},[]],"empty":{}}"#
        );
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"\\\n"));
        assert_eq!(v.get("some").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn deep_nesting_fails_closed() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let err = Json::parse(&("[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1)));
        assert_eq!(
            err.unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.starts_with("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn integers_parse_exactly_below_2_pow_53() {
        assert_eq!(Json::Num(12.0).as_u64(), Some(12));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = Json::parse(r#""café ☕""#).unwrap();
        assert_eq!(v.as_str(), Some("café ☕"));
        assert_eq!(escape("a\tb\u{1}"), "\"a\\tb\\u0001\"");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap(), Json::List(vec![]));
        assert_eq!(Json::parse(" { } ").unwrap(), Json::Map(BTreeMap::new()));
    }
}
