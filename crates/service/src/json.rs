//! Hand-rolled JSON: a value model, an RFC 8259 emitter, and a small
//! recursive-descent parser.
//!
//! The workspace links no serialization framework (see
//! `vendor/README.md`), so campaign artifacts and manifests are emitted
//! and re-read by this module. The subset is
//! complete JSON — objects, arrays, strings (with escapes), numbers,
//! booleans, null — which is all a manifest round-trip needs. Object keys
//! keep insertion order so emitted documents are deterministic and
//! hash-stable.

use mhca_telemetry::push_json_str;
use std::fmt::Write as _;

/// A JSON value. Objects preserve key order (deterministic emission).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers within `2^53` render
    /// without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key–value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from an ordered pair list.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Pretty rendering with two-space indentation (manifests are meant
    /// to be human-inspected after an interrupted campaign).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => push_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    push_json_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Emits a number per RFC 8259. Non-finite values have no JSON encoding
/// and are emitted as `null`.
fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's shortest-roundtrip float formatting is valid JSON.
        let _ = write!(out, "{x}");
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What was expected.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (surrounding whitespace allowed,
/// trailing garbage rejected).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "end of document"));
    }
    Ok(value)
}

fn err(offset: usize, expected: &str) -> ParseError {
    ParseError {
        offset,
        message: format!("expected {expected}"),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, lit: &str) -> bool {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    match bytes.get(*pos) {
        None => Err(err(*pos, "a value")),
        Some(b'n') if eat(bytes, pos, "null") => Ok(Json::Null),
        Some(b't') if eat(bytes, pos, "true") => Ok(Json::Bool(true)),
        Some(b'f') if eat(bytes, pos, "false") => Ok(Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "':'"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "'\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "closing '\"'")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: require a \uXXXX low half.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(err(*pos + 1, "low surrogate"));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            *pos += 6;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(err(*pos, "low surrogate"));
                            }
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined).ok_or_else(|| err(*pos, "scalar value"))?
                        } else {
                            char::from_u32(code).ok_or_else(|| err(*pos, "scalar value"))?
                        };
                        out.push(ch);
                    }
                    _ => return Err(err(*pos, "an escape character")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(err(*pos, "no raw control characters")),
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so this is safe
                // to do by char boundary search).
                let rest = &bytes[*pos..];
                let len = (1..=4)
                    .find(|&l| std::str::from_utf8(&rest[..l.min(rest.len())]).is_ok())
                    .unwrap_or(1);
                out.push_str(std::str::from_utf8(&rest[..len]).unwrap());
                *pos += len;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, ParseError> {
    if at + 4 > bytes.len() {
        return Err(err(at, "four hex digits"));
    }
    let s = std::str::from_utf8(&bytes[at..at + 4]).map_err(|_| err(at, "four hex digits"))?;
    u32::from_str_radix(s, 16).map_err(|_| err(at, "four hex digits"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    if *pos == start {
        return Err(err(start, "a number"));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .ok_or_else(|| err(start, "a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Num(42.0), "42"),
            (Json::Num(-1.5), "-1.5"),
            (Json::str("hi"), "\"hi\""),
        ] {
            assert_eq!(v.to_string_compact(), s);
            assert_eq!(parse(s).unwrap(), v);
        }
    }

    #[test]
    fn structures_round_trip() {
        let v = Json::obj(vec![
            ("name", Json::str("fig6")),
            ("seeds", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            ("nested", Json::obj(vec![("ok", Json::Bool(false))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "failed on {text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "quote \" backslash \\ newline \n tab \t unicode é 中 control \u{1}";
        let v = Json::str(nasty);
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
        // And standard escapes from foreign emitters parse too.
        assert_eq!(
            parse("\"a\\u0041\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::str("aAé😀")
        );
    }

    #[test]
    fn numbers_parse_and_render() {
        assert_eq!(parse("3.25e2").unwrap().as_f64(), Some(325.0));
        assert_eq!(parse("-0").unwrap().as_f64(), Some(0.0));
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(1e9).to_string_compact(), "1000000000");
        let v = Json::Num(0.1 + 0.2);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = parse("{\"a\": 3, \"b\": [\"x\"], \"c\": \"y\"}").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("c").and_then(Json::as_str), Some("y"));
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "[1,]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
