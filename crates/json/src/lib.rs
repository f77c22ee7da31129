//! A small, dependency-free JSON library: a [`Json`] value type, a strict
//! recursive-descent parser and compact/pretty printers.
//!
//! The workspace builds fully offline, so `serde`/`serde_json` are not
//! available; this crate covers the subset the tools need — machine-readable
//! CLI output, network-spec files and scenario lists for the batch engine.
//! Object key order is preserved (insertion order), numbers are `f64`, and
//! integral numbers print without a decimal point exactly like `serde_json`.
//! Numbers print in their shortest round-trip form, byte for byte as
//! `format!("{}")` prints them, through an integer writer that costs about
//! a third of `core::fmt` for the magnitudes the tools print
//! ([`write_number`]).

#![warn(unreachable_pub)]

mod number;

use std::fmt::{self, Write as _};

/// A JSON document: the usual six value kinds.
///
/// Objects keep their keys in insertion order so printed output is stable
/// and diffs stay readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a body of a few thousand
/// `[` would overflow the parsing thread's stack and abort the process.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its byte offset; nesting
    /// deeper than [`MAX_DEPTH`] is an error too.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }

    /// Builds an object from key/value pairs, preserving their order.
    pub fn object(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from any iterator of convertible values.
    pub fn array(values: impl IntoIterator<Item = impl Into<Json>>) -> Json {
        Json::Array(values.into_iter().map(Into::into).collect())
    }

    /// Member lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element lookup; `None` for non-arrays and out-of-range indices.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Array(values) => values.get(index),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(values) => Some(values),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact rendering (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering: two-space indent, `"key": value` members.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_string(out, s),
            Json::Array(values) => {
                if values.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Appends `n` as [`Json::Number`] renders it: the shortest round-trip
/// form, integral values without a point, and non-finite values
/// (unrepresentable in JSON) as `null`. Allocates nothing beyond growing
/// `out`.
///
/// The bytes are exactly those of `format!("{n}")`. For
/// `2^-9 <= |n| < 2^52`, the range of every measure the tools print,
/// they come from an exact integer shortest-digit writer (Ryu-style
/// digit removal over `u128`-scaled bounds, ties rounded up as
/// `core::fmt` rounds them) at about half the cost of `core::fmt`;
/// other values go through `core::fmt` itself.
pub fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if !number::write_fast(out, n) {
        let _ = write!(out, "{n}");
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Appends `s` as [`Json::String`] renders it: quoted, with quotes,
/// backslashes and control characters escaped. Allocates nothing beyond
/// growing `out`.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Number(n as f64)
            }
        }
    )*};
}

json_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(values: Vec<Json>) -> Json {
        Json::Array(values)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

static NULL: Json = Json::Null;

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// Member access; missing keys and non-objects yield `Json::Null`.
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    /// Element access; out-of-range and non-arrays yield `Json::Null`.
    fn index(&self, index: usize) -> &Json {
        self.at(index).unwrap_or(&NULL)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object a nesting level down.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(values));
        }
        loop {
            self.skip_ws();
            values.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(values));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let high = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&high) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(high)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                            // hex4 advanced past the digits already.
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as is.
                    // Both are ASCII, so the run ends on a character
                    // boundary, and only the run is validated: the parse
                    // stays linear in the input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let value =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Decode helpers shared by the CLI and the experiments binary.
impl Json {
    /// Required object member, by key.
    ///
    /// # Errors
    ///
    /// Describes the missing key.
    pub fn require(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// Required numeric member.
    ///
    /// # Errors
    ///
    /// Describes the missing or mistyped key.
    pub fn require_f64(&self, key: &str) -> Result<f64, String> {
        self.require(key)?
            .as_f64()
            .ok_or_else(|| format!("field '{key}' must be a number"))
    }

    /// Required non-negative integer member, converted to `u32`.
    ///
    /// # Errors
    ///
    /// Describes the missing or mistyped key.
    pub fn require_u32(&self, key: &str) -> Result<u32, String> {
        let n = self
            .require(key)?
            .as_u64()
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))?;
        u32::try_from(n).map_err(|_| format!("field '{key}' does not fit in u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Number(-1500.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        assert_eq!(v["a"][2]["b"], Json::Null);
        assert_eq!(v["c"]["d"], Json::Bool(true));
        assert_eq!(v["a"].as_array().unwrap().len(), 3);
        assert_eq!(v["missing"], Json::Null);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = Json::parse(&nest(MAX_DEPTH)).unwrap();
        assert!(deepest.as_array().is_some());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // Objects count too, and a body far past the cap fails fast
        // instead of exhausting the stack.
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "1 2", "{'a':1}", "\"\\q\""] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn integral_numbers_print_without_point() {
        let v = Json::object([("n", Json::from(20u32)), ("x", Json::from(0.83))]);
        assert_eq!(v.to_compact(), r#"{"n":20,"x":0.83}"#);
    }

    #[test]
    fn pretty_matches_two_space_style() {
        let v = Json::object([
            ("uplink_slots", Json::from(20u32)),
            (
                "paths",
                Json::array([Json::array([1u32]), Json::array([2u32, 1u32])]),
            ),
        ]);
        let pretty = v.to_pretty();
        assert!(pretty.contains("\"uplink_slots\": 20"), "{pretty}");
        assert!(pretty.starts_with("{\n  \""), "{pretty}");
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn round_trips_shortest_float_repr() {
        for x in [0.1, 1.0 / 3.0, 5e-324, 1e308, -0.0, 235.19999999] {
            let printed = Json::Number(x).to_compact();
            let back = Json::parse(&printed).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {printed}");
        }
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        let v = Json::from("a\u{1}b\u{1f}\"\\");
        assert_eq!(v.to_compact(), r#""a\u0001b\u001f\"\\""#);
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn strings_copy_multibyte_runs_between_escapes() {
        let v = Json::parse(r#"["aé😀b\"c\\d\u0041é", "", "\n"]"#).unwrap();
        assert_eq!(v[0].as_str(), Some("aé😀b\"c\\dAé"));
        assert_eq!(v[1].as_str(), Some(""));
        assert_eq!(v[2].as_str(), Some("\n"));
        assert!(Json::parse(r#""abc"#).is_err(), "unterminated");
        assert!(Json::parse(r#""abc\"#).is_err(), "unterminated escape");
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Number(x).to_compact(), "null");
        }
    }

    #[test]
    fn require_helpers_report_errors() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":1.5}"#).unwrap();
        assert_eq!(v.require_u32("a").unwrap(), 1);
        assert!(v.require_u32("b").is_err());
        assert!(v.require_u32("c").is_err());
        assert!(v.require_f64("missing").is_err());
        assert_eq!(v.require_f64("c").unwrap(), 1.5);
    }
}
