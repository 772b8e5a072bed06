//! The wire codec: a JSON value type, a parser and a serialiser.
//!
//! **Why not `serde`.** The build is offline and the workspace carries no
//! registry crates, so the server owns this codec. It distinguishes
//! integers from floats (result sets carry `i64` sums that would lose
//! precision beyond 2^53) and covers the JSON grammar the protocol needs:
//! objects, arrays, strings with escapes, numbers, booleans, null.
//!
//! **The contract is linear time, both ways.** The codec runs on a
//! serving thread for every request and in the client for every reply, so
//! its cost per byte is part of every statement's latency and a frame of
//! [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES) must not stall the
//! thread that reads it:
//!
//! - [`parse`] touches each input byte a bounded number of times. Strings
//!   are copied *run by run* — everything between two escapes is one
//!   `push_str` of a slice of the input — and the only UTF-8 validation is
//!   the one the `&str` argument already passed. Nesting deeper than
//!   [`MAX_DEPTH`] is an error, not recursion: a frame of `[[[[…` costs a
//!   counter, not the thread's stack. The tree a frame parses into is at
//!   most a constant multiple of the frame (≈ 48 bytes per input byte, the
//!   worst case being an array of one-digit numbers).
//! - [`Json::write_to`] appends straight to a byte buffer: strings escape by
//!   runs, integers and whole floats (every `SUM` over an integer measure)
//!   are formatted by a digit loop. Only a float with a fraction goes
//!   through `core::fmt` — its shortest round-trip digits are the standard
//!   library's algorithm, which is not worth a second copy here.
//!   [`Json::frame`] is the wire form (serialisation + `\n`);
//!   `Display`/`to_string` produce the same bytes.
//!
//! The bytes are pinned: `integration-tests/tests/codec_fuzz.rs` holds a
//! golden set recorded from the previous serialiser (the 13 SSB replies and
//! an escape/number torture frame) next to seeded round-trip and mutation
//! fuzzers. One wart is pinned with them: a whole float of magnitude ≥ 1e15
//! prints without a fraction marker and so re-parses as an integer.

use std::collections::BTreeMap;
use std::io::Write as _;

/// Deepest nesting of arrays and objects [`parse`] accepts. Protocol frames
/// nest four or five levels; the limit bounds the parser's recursion on
/// input it did not write.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (serialized without exponent or fraction).
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. `BTreeMap` keeps serialization deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content (floats with zero fraction coerce).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// The float content (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean content.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array content.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Appends the compact single-line serialisation to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(v) => {
                if *v < 0 {
                    out.push(b'-');
                }
                write_digits(out, v.unsigned_abs());
            }
            Json::Float(v) => write_float(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write_to(out);
                }
                out.push(b']');
            }
            Json::Object(map) => {
                out.push(b'{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(out, k);
                    out.push(b':');
                    v.write_to(out);
                }
                out.push(b'}');
            }
        }
    }

    /// The wire form of a frame: the serialisation plus the terminating
    /// newline, in one buffer that can go to the socket as it is.
    pub fn frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        self.write_to(&mut out);
        out.push(b'\n');
        out
    }
}

/// Serializes to a compact single-line string (via `to_string`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = Vec::new();
        self.write_to(&mut out);
        f.write_str(std::str::from_utf8(&out).expect("the serialiser emits UTF-8"))
    }
}

fn write_digits(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

fn write_float(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null"); // JSON has no NaN/Inf.
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        // A whole float keeps a fraction marker so it re-parses as a float;
        // below 1e15 its magnitude is exact in a `u64`.
        if v.is_sign_negative() {
            out.push(b'-');
        }
        write_digits(out, v.abs() as u64);
        out.extend_from_slice(b".0");
    } else {
        let _ = write!(out, "{v}"); // writing to a `Vec` cannot fail
    }
}

fn write_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &c) in bytes.iter().enumerate() {
        if c >= 0x20 && c != b'"' && c != b'\\' {
            continue; // includes every byte of a multi-byte character
        }
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match c {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            c => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(c >> 4)],
                HEX[usize::from(c & 15)],
            ]),
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Description.
    pub message: String,
    /// Byte offset of the error.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = P { s: input, b: input.as_bytes(), pos: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(p.fail("trailing characters"));
    }
    Ok(v)
}

struct P<'a> {
    /// The input, and the same bytes for single-byte looks.
    s: &'a str,
    b: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl P<'_> {
    fn fail(&self, message: &str) -> JsonError {
        JsonError { message: message.to_owned(), offset: self.pos }
    }

    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.fail(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.fail(&format!("unexpected {:?}", c as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    /// Runs a container parser one level down, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            if self.eat(b']') {
                return Ok(Json::Array(items));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.eat(b'}') {
            return Ok(Json::Object(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            map.insert(key, self.value()?);
            self.ws();
            if self.eat(b'}') {
                return Ok(Json::Object(map));
            }
            self.expect(b',')?;
        }
    }

    /// A string token. Everything between two escapes is copied as one
    /// run: a quote or backslash byte is never part of a multi-byte
    /// character, so both ends of a run are character boundaries of the
    /// (already valid) input.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            let Some(len) = self.b[run..].iter().position(|&c| c == b'"' || c == b'\\') else {
                self.pos = self.b.len();
                return Err(self.fail("unterminated string"));
            };
            self.pos = run + len;
            out.push_str(&self.s[run..self.pos]);
            if self.b[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1; // the backslash
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let cp = self.hex4(self.pos + 1)?;
                    if (0xD800..=0xDBFF).contains(&cp) && self.b[self.pos + 5..].starts_with(b"\\u")
                    {
                        // High surrogate: a conforming client encodes a
                        // non-BMP character as a \uXXXX\uYYYY pair.
                        let lo = self.hex4(self.pos + 7)?;
                        if (0xDC00..=0xDFFF).contains(&lo) {
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                            self.pos += 11;
                            continue;
                        }
                    }
                    // A lone surrogate half is replaced, not fatal.
                    out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(self.fail("bad escape")),
            }
            self.pos += 1;
        }
    }

    /// Reads 4 hex digits starting at byte offset `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self.b.get(at..at + 4).ok_or_else(|| self.fail("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.fail("bad \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.fail("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.s[start..self.pos];
        if float {
            text.parse::<f64>().map(Json::Float).map_err(|_| self.fail("bad number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Float))
                .map_err(|_| self.fail("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let src = r#"{"sql":"SELECT 1","n":42,"f":1.5,"b":true,"x":null,"a":[1,2,"three"]}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("sql").unwrap().as_str(), Some("SELECT 1"));
        assert_eq!(v.get("n").unwrap().as_i64(), Some(42));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        let re = parse(&v.to_string()).unwrap();
        assert_eq!(re, v);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let s = v.to_string();
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn big_integers_survive() {
        let v = parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v, Json::Int(9007199254740993));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn negative_and_exponent_numbers() {
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("2.5e3").unwrap(), Json::Float(2500.0));
        assert_eq!(parse("-0.25").unwrap(), Json::Float(-0.25));
    }

    #[test]
    fn whole_floats_keep_a_fraction_marker() {
        // So clients can't confuse Float(2.0) with Int(2) after a roundtrip.
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // Python's json.dumps escapes non-BMP characters this way.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("\u{1f600}".into()));
        assert_eq!(parse(r#""a\ud83d\ude00b""#).unwrap(), Json::Str("a\u{1f600}b".into()));
        // Lone halves are replaced, not fatal.
        assert_eq!(parse(r#""\ud83dx""#).unwrap(), Json::Str("\u{fffd}x".into()));
        assert_eq!(parse(r#""\ude00""#).unwrap(), Json::Str("\u{fffd}".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1}extra"#).is_err());
        assert!(parse("'single'").is_err());
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn string_parsing_is_linear_in_the_frame() {
        // A scan that re-validates the rest of the input per character
        // takes seconds for the first size and minutes for the last (14 s
        // for the megabyte in release, far longer here); a linear one takes
        // milliseconds even unoptimised. The bound sits two orders of
        // magnitude from both.
        for kib in [64, 256, 1024] {
            let frame = format!(r#"{{"sql":"{}"}}"#, "a".repeat(kib * 1024));
            let t = std::time::Instant::now();
            let v = parse(&frame).unwrap();
            let took = t.elapsed();
            assert_eq!(v.get("sql").unwrap().as_str().unwrap().len(), kib * 1024);
            assert!(took < std::time::Duration::from_secs(1), "{kib} KiB string took {took:?}");
        }
        // The same holds when every character is an escape or multi-byte.
        for body in ["\\n", "\\ud83d\\ude00", "\u{4e2d}"] {
            let frame = format!("\"{}\"", body.repeat((1 << 20) / body.len()));
            let t = std::time::Instant::now();
            parse(&frame).unwrap();
            let took = t.elapsed();
            assert!(took < std::time::Duration::from_secs(1), "{body:?} frame took {took:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.message, "nesting too deep");
        assert_eq!(e.offset, MAX_DEPTH);
        // Siblings do not add up: depth is what is open, not what was seen.
        let wide = format!("[{}[]]", "[[]],".repeat(1000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn numbers_format_like_display() {
        for v in [0, 7, -7, 10, 1_000_000, i64::MAX, i64::MIN] {
            assert_eq!(Json::Int(v).to_string(), v.to_string());
        }
        for v in [0.0, -0.0, 1.0, -3.0, 27185475.0, 999_999_999_999_999.0, -1e14] {
            assert_eq!(Json::Float(v).to_string(), format!("{v:.1}"));
        }
        for v in [1e15, 1e16, 0.5, -0.1, 1.0 / 3.0, 5e-324, f64::MAX] {
            assert_eq!(Json::Float(v).to_string(), format!("{v}"));
        }
    }

    #[test]
    fn frame_is_the_serialisation_plus_newline() {
        let v = parse(r#"{"ok":true,"rows":[[1992,"a\"b",2.0]]}"#).unwrap();
        assert_eq!(v.frame(), format!("{v}\n").into_bytes());
    }

    #[test]
    fn nested_structures() {
        let src = r#"{"rows":[[1,"a"],[2,"b"]],"meta":{"depth":{"x":[{}]}}}"#;
        let v = parse(src).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }
}
