//! A minimal JSON value type: parser plus canonical writer.
//!
//! This module is the only code in the workspace that turns a value into
//! JSON text (there is no serde). Every document walshcheck writes — run
//! reports and `walshcheck-report/5` artifacts, checkpoints, job specs and
//! records, daemon event lines and HTTP bodies — is built as a [`Json`]
//! value and serialized by [`Json::to_canonical`]; the recursive-descent
//! [`parse`] reads any of them (and any conforming hand-edited file) back.
//! The parser accepts standard JSON; numbers are split into exact integers
//! (`i64`) and floats so 64-bit enumeration indices survive without going
//! through `f64`. Unsigned values enter through [`Json::uint`], which
//! saturates at `i64::MAX` instead of wrapping.
//!
//! The **canonical writer** is also the serialization the artifact store
//! and `walshcheck-report/5` hash over: object keys sorted bytewise
//! (objects are [`BTreeMap`]s, so this holds by construction), no
//! insignificant whitespace, fixed float formatting ([`canonical_f64`]),
//! and one string escaper. Identical values always serialize to identical
//! bytes, so content hashes ([`crate::hash::sha256_hex`]) of canonical
//! documents are stable across runs, platforms and thread counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, within `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (keys sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, or `None` for other values.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers convert losslessly up to 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs (later duplicates win).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned count, index or budget as an integer, saturating at
    /// `i64::MAX` (the largest [`Json::Int`] holds) instead of wrapping.
    pub fn uint(n: impl TryInto<i64>) -> Json {
        Json::Int(n.try_into().unwrap_or(i64::MAX))
    }

    /// Serializes the value canonically: object keys sorted bytewise, no
    /// whitespace, floats through [`canonical_f64`]. Equal values produce
    /// byte-identical output — the property content hashing relies on.
    pub fn to_canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => out.push_str(&canonical_f64(*f)),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                // BTreeMap iterates keys in sorted order by construction.
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_canonical(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string literal, quotes included.
fn write_string(out: &mut String, s: &str) {
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

/// Fixed-format float rendering for canonical documents: nine fractional
/// digits, trailing zeros trimmed down to at least one, so the same value
/// always prints the same bytes (no shortest-round-trip ambiguity, no
/// exponent notation for the magnitudes our artifacts carry). Non-finite
/// values render as `null` — JSON has no representation for them.
pub fn canonical_f64(f: f64) -> String {
    if !f.is_finite() {
        return "null".into();
    }
    let mut s = format!("{f:.9}");
    while s.ends_with('0') && !s.ends_with(".0") {
        s.pop();
    }
    // `-0.0` and `0.0` are numerically equal; canonicalize the sign away.
    if s == "-0.0" {
        s = "0.0".into();
    }
    s
}

/// Parses `text` as a single JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writers;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Copy the longest run of plain bytes in one step (keeps
                    // UTF-8 multibyte sequences intact).
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(
            r#"{"a": [1, -2, 3.5], "s": "x\n\"y\"", "t": true, "n": null, "big": 9007199254740993}"#,
        )
        .expect("valid");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], Json::Int(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Float(3.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
        // Exact past 2^53: would be lossy through f64.
        assert_eq!(v.get("big").unwrap().as_u64(), Some(9007199254740993));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn escapes_strings() {
        let text = |s: &str| Json::str(s).to_canonical();
        assert_eq!(text("plain"), r#""plain""#);
        assert_eq!(text("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(text("\u{1}"), r#""\u0001""#);
        assert_eq!(text("1/2^3 — ü"), r#""1/2^3 — ü""#);
    }

    #[test]
    fn uint_saturates_instead_of_wrapping() {
        assert_eq!(Json::uint(7u32), Json::Int(7));
        assert_eq!(Json::uint(u64::MAX), Json::Int(i64::MAX));
        assert_eq!(Json::uint(usize::MAX), Json::Int(i64::MAX));
        assert_eq!(Json::uint(u128::MAX), Json::Int(i64::MAX));
    }

    #[test]
    fn round_trips_report_style_escapes() {
        let v = parse(r#""A\t""#).expect("valid");
        assert_eq!(v.as_str(), Some("A\t"));
    }

    #[test]
    fn canonical_sorts_keys_and_omits_whitespace() {
        let v =
            parse(r#"{ "zeta": [1, true, null], "alpha": {"b": 2, "a": "x\"y"} }"#).expect("valid");
        assert_eq!(
            v.to_canonical(),
            r#"{"alpha":{"a":"x\"y","b":2},"zeta":[1,true,null]}"#
        );
        // Canonicalization is idempotent: parse(canonical) → same bytes.
        let again = parse(&v.to_canonical()).expect("valid");
        assert_eq!(again.to_canonical(), v.to_canonical());
    }

    #[test]
    fn canonical_float_formatting_is_fixed() {
        assert_eq!(canonical_f64(3.5), "3.5");
        assert_eq!(canonical_f64(1.0), "1.0");
        assert_eq!(canonical_f64(-0.0), "0.0");
        assert_eq!(canonical_f64(0.000000125), "0.000000125");
        assert_eq!(canonical_f64(f64::NAN), "null");
        assert_eq!(Json::Float(2.25).to_canonical(), "2.25");
    }

    #[test]
    fn obj_builder_sorts() {
        let v = Json::obj([("b", Json::Int(1)), ("a", Json::str("s"))]);
        assert_eq!(v.to_canonical(), r#"{"a":"s","b":1}"#);
    }
}
