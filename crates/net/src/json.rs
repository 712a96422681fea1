//! A minimal JSON value type, parser and writer.
//!
//! The Steam Web API speaks JSON; we hand-roll the codec rather than pull in
//! a serde backend (see DESIGN.md's dependency policy). The implementation
//! covers the full JSON grammar — objects, arrays, strings with escapes and
//! `\uXXXX` (including surrogate pairs), numbers, literals — with a depth
//! limit to bound recursion on hostile input.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::error::NetError;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with sorted keys (BTreeMap keeps output deterministic).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64 if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64 if it is a non-negative integer-valued number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(63) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Parses JSON text (must be a single value with only trailing
    /// whitespace after it).
    pub fn parse(text: &str) -> Result<Json, NetError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(f64::from(v))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(a) => {
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(m) => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

// Numbers and `\u` escapes are formatted straight into `out`: writing to a
// `String` cannot fail, so the `fmt::Result`s are dropped.

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; emit null like most encoders.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(63) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
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
    text: &'a str,
    /// `text` as bytes: every token boundary the parser stops at is ASCII,
    /// so byte positions are always char boundaries of `text`.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> NetError {
        NetError::Json { offset: self.pos, message: msg.to_string() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), NetError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, NetError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, v: Json) -> Result<Json, NetError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {text}")))
        }
    }

    fn number(&mut self) -> Result<Json, NetError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, NetError> {
        self.expect(b'"')?;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low surrogate.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // quote, backslash or control byte at once. Those stop
                    // bytes are ASCII, so the run ends on a char boundary;
                    // `get` still fails instead of panicking if it did not.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let run =
                        self.text.get(self.pos..end).ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, NetError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad hex"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad hex"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, NetError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, NetError> {
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
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
        assert_eq!(Json::parse("  7  ").unwrap(), Json::Num(7.0));
    }

    #[test]
    fn parse_nested() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn escapes_round_trip() {
        let original = Json::Str("line\nquote\"back\\slash\ttab\u{1}".into());
        let text = original.to_text();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("😀".into())
        );
        // Raw UTF-8 passes through.
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn multibyte_text_and_surrogate_pairs_round_trip() {
        // Plain runs of multibyte UTF-8 interleaved with escapes.
        let text = r#""héllo \"wörld\" — 日本\u00e9\ud83d\ude00😀\n\t\\end""#;
        let expected = "héllo \"wörld\" — 日本é😀😀\n\t\\end";
        assert_eq!(Json::parse(text).unwrap(), Json::Str(expected.into()));
        let value = Json::obj([("ключ", Json::from(expected)), ("😀", Json::from("\u{1}x"))]);
        assert_eq!(Json::parse(&value.to_text()).unwrap(), value);
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        let long = "é".repeat(5000); // 10,000 bytes of two-byte chars
        let body = 1 + long.len(); // the first byte after the run
        let cases = [
            (format!("\"{long}\u{1}\""), body, "control character in string"),
            (format!("\"{long}\\x\""), body + 1, "invalid escape"),
            (format!("\"{long}"), body, "unterminated string"),
        ];
        for (text, offset, message) in cases {
            match Json::parse(&text) {
                Err(NetError::Json { offset: o, message: m }) => {
                    assert_eq!((o, m.as_str()), (offset, message));
                }
                other => panic!("expected {message:?} at {offset}, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_time_is_linear_in_string_bytes() {
        // An app-list-shaped document of 50k objects, a few MB of mostly
        // string bytes. Rescanning the rest of the input per character
        // (the old scanner took 0.58 s on a 218 KB list) would take minutes.
        let apps: Vec<Json> = (0..50_000u32)
            .map(|i| {
                let name = format!("Steam Application № {i} — The Long Subtitle Of Game {i}");
                Json::obj([("appid", Json::from(i)), ("name", Json::from(name))])
            })
            .collect();
        let doc = Json::obj([("applist", Json::obj([("apps", Json::Arr(apps))]))]);
        let text = doc.to_text();
        assert!(text.len() > 3_000_000, "{} bytes", text.len());
        let start = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(parsed, doc);
        assert!(took < std::time::Duration::from_secs(5), "parsing took {took:?}");
    }

    #[test]
    fn invalid_inputs_rejected() {
        for bad in [
            "", "{", "[1,", "\"unterminated", "{\"a\"}", "nul", "tru", "01x",
            "[1 2]", "{\"a\":1,}", r#""\ud83d""#, r#""\udc00""#, "1 2",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn truncated_input_never_panics() {
        // Every prefix of a document exercising the whole grammar — objects,
        // arrays, escapes, surrogate pairs, numbers, literals — must return
        // an error (or, for a degenerate prefix like a bare number, parse),
        // never panic. This is what the fault injector's truncate mode feeds
        // the client.
        let doc = r#"{"a":[1,-2.5e3,true,false,null],"s":"q\"\\\n\u0041\ud83d\ude00é","n":{"deep":[{}]}}"#;
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let _ = Json::parse(&doc[..cut]);
        }
    }

    #[test]
    fn corrupted_input_never_panics() {
        // Single-byte garbles at every position (the corrupt fault garbles
        // bytes): any outcome is fine as long as the parser returns.
        let doc = r#"{"friends":[{"steamid":"765","since":1234}],"ok":true}"#;
        for i in 0..doc.len() {
            let mut garbled = doc.as_bytes().to_vec();
            for replacement in [b'#', b'"', b'\\', b'{', 0x00, 0xff] {
                garbled[i] = replacement;
                let _ = Json::parse(&String::from_utf8_lossy(&garbled));
            }
        }
    }

    #[test]
    fn unterminated_escapes_error_not_panic() {
        for bad in [
            "\"\\", "\"\\u", "\"\\u00", "\"\\ud83d", "\"\\ud83d\\", "\"\\ud83d\\u",
            "\"\\ud83d\\u00", "\"abc\\", "\"\\x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_round_trip() {
        for n in [0.0, 1.0, -1.0, 1e15, 0.125, -2.5e-3, 76561197960265728.0] {
            let text = Json::Num(n).to_text();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, n, "text = {text}");
        }
    }

    #[test]
    fn numbers_and_control_characters_write_exact_text() {
        let two_53 = 2f64.powi(53);
        let two_63 = 2f64.powi(63);
        for (n, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (-1.0, "-1"),
            (1e15, "1000000000000000"),
            (two_53, "9007199254740992"),
            (two_63, "9223372036854776000"),
            (0.125, "0.125"),
            (-2.5e-3, "-0.0025"),
            (f64::NAN, "null"),
        ] {
            assert_eq!(Json::Num(n).to_text(), text, "{n:e}");
        }
        assert_eq!(Json::from("\u{1}").to_text(), r#""\u0001""#);
        assert_eq!(Json::from("a\u{1f}b").to_text(), r#""a\u001fb""#);
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_text(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_text(), "null");
    }

    #[test]
    fn object_builder_and_accessors() {
        let v = Json::obj([
            ("steamid", Json::from("76561197960265728")),
            ("count", Json::from(3u32)),
            ("ok", Json::from(true)),
        ]);
        assert_eq!(v.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }

    #[test]
    fn deterministic_output() {
        let a = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        let b = Json::parse(r#"{"a":2,"z":1}"#).unwrap();
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn as_u64_edge_cases() {
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }
}
