//! A minimal JSON value type, a pull reader, and writers.
//!
//! The Steam Web API speaks JSON; we hand-roll the codec rather than pull in
//! a serde backend (see DESIGN.md's dependency policy). The implementation
//! covers the full JSON grammar — objects, arrays, strings with escapes and
//! `\uXXXX` (including surrogate pairs), numbers, literals — with a depth
//! limit to bound recursion on hostile input.
//!
//! The grammar exists once, in [`Reader`]: a pull reader that walks the text
//! once and hands each value to its caller, borrowing strings that need no
//! unescaping. [`Json::parse`] is the reader building a tree; the API's
//! typed wire parsers read their records straight off it with [`read`].
//! [`write_number`] and [`write_string`] are the one place numbers and
//! strings become text, for the tree's [`Json::to_text`] and for the API's
//! body writers alike.

use std::borrow::Cow;
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

    /// The value as u64 if it is a non-negative integer-valued number (see
    /// [`as_u64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => as_u64(*n),
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
        let mut r = Reader::new(text);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }
}

/// A number as u64 if it is a non-negative integer no larger than 2^63.
pub fn as_u64(n: f64) -> Option<u64> {
    if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(63) {
        Some(n as u64)
    } else {
        None
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

/// Appends a number: an integer-valued number below 2^63 in magnitude as an
/// integer, any other finite number in Rust's shortest round-trip form, and
/// `null` for NaN and the infinities (JSON has neither).
pub fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(63) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends a quoted string. `"`, `\`, newline, carriage return and tab get
/// their short escapes, every other control character `\u00XX`; all else,
/// non-ASCII included, is copied as it is, one run at a time.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    // Every byte that needs an escape is ASCII, so each cut lands on a char
    // boundary.
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// What the next value is, from its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "a bool",
            Kind::Num => "a number",
            Kind::Str => "a string",
            Kind::Arr => "an array",
            Kind::Obj => "an object",
        }
    }
}

/// Reads one JSON document with `f` and requires that only whitespace
/// follows it.
///
/// Two kinds of error come out. Text that breaks the grammar is
/// [`NetError::Json`], with the offset and message [`Json::parse`] gives for
/// the same text. Well-formed text of the wrong shape — a value of another
/// [`Kind`] than `f` asked for, or any error `f` returns itself — is that
/// error, normally [`NetError::Http`]. `f` stops at the first shape error,
/// before the rest of the text has been read; the whole text is then checked,
/// and a grammar error anywhere in it wins, as it did when every body was
/// parsed to a tree before a field was looked at.
pub fn read<'a, T>(
    text: &'a str,
    f: impl FnOnce(&mut Reader<'a>) -> Result<T, NetError>,
) -> Result<T, NetError> {
    let mut r = Reader::new(text);
    match f(&mut r).and_then(|v| r.finish().map(|()| v)) {
        Err(shape) if !matches!(shape, NetError::Json { .. }) => {
            let mut whole = Reader::new(text);
            whole.skip()?;
            whole.finish()?;
            Err(shape)
        }
        done => done,
    }
}

/// A pull reader over JSON text, driven through [`read`].
///
/// Each value method first skips whitespace and looks at the next value:
/// [`obj`](Self::obj), [`arr`](Self::arr), [`str`](Self::str),
/// [`num`](Self::num), [`bool`](Self::bool) and [`null`](Self::null) consume
/// it if it is of their [`Kind`] and return a shape error
/// ([`NetError::Http`]) without consuming anything if not;
/// [`skip`](Self::skip) consumes any value. Grammar errors are
/// [`NetError::Json`]. After any error the reader's position is
/// unspecified; use [`read`] to get grammar errors ahead of shape errors.
pub struct Reader<'a> {
    text: &'a str,
    /// `text` as bytes: every token boundary the reader stops at is ASCII,
    /// so byte positions are always char boundaries of `text`.
    bytes: &'a [u8],
    pos: usize,
    /// Nesting depth of the next value (the document itself is depth 0).
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> NetError {
        NetError::Json {
            offset: self.pos,
            message: msg.to_string(),
        }
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

    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), NetError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    /// The kind of the next value, after any whitespace; a grammar error if
    /// no value starts there or it would nest deeper than the limit.
    pub fn peek(&mut self) -> Result<Kind, NetError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.byte() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn want(&mut self, kind: Kind) -> Result<(), NetError> {
        match self.peek()? {
            found if found == kind => Ok(()),
            found => Err(NetError::Http(format!(
                "expected {}, found {}",
                kind.name(),
                found.name()
            ))),
        }
    }

    /// Requires that only whitespace is left.
    fn finish(&mut self) -> Result<(), NetError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }

    /// Reads an object: `f` gets each key in text order, with the reader
    /// positioned at its value, and must consume that value.
    pub fn obj(
        &mut self,
        mut f: impl FnMut(&str, &mut Self) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        self.want(Kind::Obj)?;
        self.pos += 1;
        self.skip_ws();
        if self.byte() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            f(&key, self)?;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Reads an array: `f` is called at each element and must consume it.
    pub fn arr(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        self.want(Kind::Arr)?;
        self.pos += 1;
        self.skip_ws();
        if self.byte() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            f(self)?;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Reads a string, borrowed from the text unless it holds an escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, NetError> {
        self.want(Kind::Str)?;
        self.string()
    }

    /// Reads a number as the `f64` that `str::parse` gives for its text.
    pub fn num(&mut self) -> Result<f64, NetError> {
        self.want(Kind::Num)?;
        self.number()
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, NetError> {
        self.want(Kind::Bool)?;
        if self.byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Reads `null`.
    pub fn null(&mut self) -> Result<(), NetError> {
        self.want(Kind::Null)?;
        self.literal("null")
    }

    /// Consumes the next value, whatever it is, checking its grammar.
    pub fn skip(&mut self) -> Result<(), NetError> {
        match self.peek()? {
            Kind::Obj => self.obj(|_, r| r.skip()),
            Kind::Arr => self.arr(Self::skip),
            Kind::Str => self.string().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Bool => self.bool().map(drop),
            Kind::Null => self.null(),
        }
    }

    /// Reads the next value as a tree.
    fn value(&mut self) -> Result<Json, NetError> {
        Ok(match self.peek()? {
            Kind::Obj => {
                let mut map = BTreeMap::new();
                self.obj(|key, r| {
                    map.insert(key.to_string(), r.value()?);
                    Ok(())
                })?;
                Json::Obj(map)
            }
            Kind::Arr => {
                let mut items = Vec::new();
                self.arr(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Kind::Str => Json::Str(self.string()?.into_owned()),
            Kind::Num => Json::Num(self.number()?),
            Kind::Bool => Json::Bool(self.bool()?),
            Kind::Null => {
                self.null()?;
                Json::Null
            }
        })
    }

    fn literal(&mut self, text: &str) -> Result<(), NetError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {text}")))
        }
    }

    fn digits(&mut self) {
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<f64, NetError> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        if self.byte() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>().map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, NetError> {
        self.expect(b'"')?;
        let start = self.pos;
        // The common case: a run of plain bytes up to the closing quote.
        let end = self.plain_run();
        if self.bytes.get(end) == Some(&b'"') {
            if let Some(run) = self.text.get(start..end) {
                self.pos = end + 1;
                return Ok(Cow::Borrowed(run));
            }
        }
        let mut out = String::new();
        loop {
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.byte() {
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
                            out.push(self.unicode_escape()?);
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
                    let end = self.plain_run();
                    let run = self
                        .text
                        .get(self.pos..end)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    /// The end of the run of bytes from the current position that are not a
    /// quote, a backslash or a control byte.
    fn plain_run(&self) -> usize {
        self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .map_or(self.bytes.len(), |n| self.pos + n)
    }

    /// The character of a `\u` escape whose `\u` has been consumed,
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, NetError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low surrogate.
            if self.byte() != Some(b'\\') {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 1;
            if self.byte() != Some(b'u') {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 1;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(self.err("lone low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("bad codepoint"))
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
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
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
            (
                format!("\"{long}\u{1}\""),
                body,
                "control character in string",
            ),
            (format!("\"{long}\\x\""), body + 1, "invalid escape"),
            (format!("\"{long}"), body, "unterminated string"),
        ];
        for (text, offset, message) in cases {
            match Json::parse(&text) {
                Err(NetError::Json {
                    offset: o,
                    message: m,
                }) => {
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
        assert!(
            took < std::time::Duration::from_secs(5),
            "parsing took {took:?}"
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\"}",
            "nul",
            "tru",
            "01x",
            "[1 2]",
            "{\"a\":1,}",
            r#""\ud83d""#,
            r#""\udc00""#,
            "1 2",
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
            "\"\\",
            "\"\\u",
            "\"\\u00",
            "\"\\ud83d",
            "\"\\ud83d\\",
            "\"\\ud83d\\u",
            "\"\\ud83d\\u00",
            "\"abc\\",
            "\"\\x\"",
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
    fn reader_borrows_plain_strings_and_skips_what_it_is_not_asked_for() {
        let text = r#" {"a" : "plain", "b\u0021":"esc\"aped", "c":[1,{"d":null}], "e":true} "#;
        let mut seen = Vec::new();
        read(text, |r| {
            r.obj(|key, r| {
                match key {
                    "a" | "b!" => {
                        let s = r.str()?;
                        seen.push((
                            key.to_string(),
                            s.to_string(),
                            matches!(s, Cow::Borrowed(_)),
                        ));
                    }
                    _ => r.skip()?,
                }
                Ok(())
            })
        })
        .unwrap();
        assert_eq!(
            seen,
            [
                ("a".to_string(), "plain".to_string(), true),
                ("b!".to_string(), "esc\"aped".to_string(), false),
            ]
        );
    }

    #[test]
    fn grammar_errors_keep_their_offsets_and_messages() {
        // Each (text, offset, message) is what the tree parser this reader
        // replaced returned for the text.
        let deep = "[".repeat(200);
        let cases = [
            (deep.as_str(), 129, "nesting too deep"),
            ("{} x", 3, "trailing characters"),
            ("[1, 2] 3", 7, "trailing characters"),
            (r#"{"a":1 "b":2}"#, 7, "expected ',' or '}'"),
            (r#"{"a":1,}"#, 7, "expected '\"'"),
            ("[1 2]", 3, "expected ',' or ']'"),
            ("[1,", 3, "unexpected end of input"),
            ("-", 1, "invalid number"),
            ("[-x]", 2, "invalid number"),
            ("1e", 2, "invalid number"),
            (r#"{"a":"abc"#, 9, "unterminated string"),
            (r#"{"a" 1}"#, 5, "expected ':'"),
            ("tru", 0, "expected true"),
            ("[nul]", 1, "expected null"),
            (r#""\q""#, 2, "invalid escape"),
            (r#""\ud800""#, 7, "lone high surrogate"),
            (r#""\u12""#, 3, "truncated \\u escape"),
            ("", 0, "unexpected end of input"),
            ("@", 0, "unexpected character"),
        ];
        for (text, offset, message) in cases {
            match Json::parse(text) {
                Err(NetError::Json {
                    offset: o,
                    message: m,
                }) => assert_eq!((o, m.as_str()), (offset, message), "{text:?}"),
                other => panic!("{text:?}: expected {message:?} at {offset}, got {other:?}"),
            }
        }
    }

    #[test]
    fn shape_errors_yield_to_grammar_errors_anywhere_in_the_text() {
        let shape = read("[1, 2]", |r| r.obj(|_, r| r.skip())).unwrap_err();
        assert!(matches!(shape, NetError::Http(_)), "{shape}");
        let grammar = read("[1, 2", |r| r.obj(|_, r| r.skip())).unwrap_err();
        assert_eq!(
            grammar.to_string(),
            Json::parse("[1, 2").unwrap_err().to_string()
        );
        let trailing = read("{} x", |r| r.obj(|_, r| r.skip())).unwrap_err();
        assert_eq!(
            trailing.to_string(),
            "json error at byte 3: trailing characters"
        );
        // An error the caller raises itself counts as a shape error too.
        let own = read(r#"{"a":1} ]"#, |_| {
            Err::<(), _>(NetError::Http("no".into()))
        })
        .unwrap_err();
        assert!(matches!(own, NetError::Json { offset: 8, .. }), "{own}");
    }

    #[test]
    fn write_string_copies_runs_and_escapes_the_rest() {
        let mut out = String::new();
        write_string("a\"b\\c\nd\re\tf\u{0}g\u{1f}h\u{7f}é😀", &mut out);
        // DEL (0x7f) is not a control character to JSON: it passes as is.
        let expected = concat!(r#""a\"b\\c\nd\re\tf\u0000g\u001fh"#, "\u{7f}é😀\"");
        assert_eq!(out, expected);
    }

    #[test]
    fn as_u64_edge_cases() {
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }
}
