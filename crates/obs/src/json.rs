//! Hand-rolled JSON serialization and validation.
//!
//! The workspace builds fully offline with zero external dependencies,
//! so there is no serde here: [`JsonBuf`] writes objects/arrays by hand
//! with correct string escaping and number formatting, and
//! [`is_valid`] is a small recursive-descent checker used by the tests
//! and the `bench` binary to prove emitted lines actually parse.

use std::fmt::Write as _;

/// An append-only JSON buffer with explicit structure helpers.
///
/// The caller drives the structure (`begin_object`, `key`, `value_*`,
/// `end_object`, …); the buffer inserts commas automatically. Misuse
/// (e.g. a value with no key inside an object) is a caller bug, not a
/// runtime-checked condition — the output of every producer in this
/// workspace is covered by [`is_valid`]-based tests.
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
    /// Whether a comma is needed before the next element at the current
    /// nesting level (one flag per open container).
    need_comma: Vec<bool>,
}

impl JsonBuf {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        JsonBuf::default()
    }

    /// The serialized JSON so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the buffer, returning the serialized JSON.
    pub fn finish(self) -> String {
        self.out
    }

    fn elem(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) -> &mut Self {
        self.elem();
        self.out.push('{');
        self.need_comma.push(false);
        self
    }

    /// Closes an object (`}`).
    pub fn end_object(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.out.push('}');
        self
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) -> &mut Self {
        self.elem();
        self.out.push('[');
        self.need_comma.push(false);
        self
    }

    /// Closes an array (`]`).
    pub fn end_array(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.out.push(']');
        self
    }

    /// Writes an object key (including the `:`).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.elem();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        // The upcoming value must not get a comma.
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
        self
    }

    /// Writes a string value.
    pub fn value_str(&mut self, v: &str) -> &mut Self {
        self.elem();
        write_escaped(&mut self.out, v);
        self
    }

    /// Writes an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) -> &mut Self {
        self.elem();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a signed integer value.
    pub fn value_i64(&mut self, v: i64) -> &mut Self {
        self.elem();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float value (`null` for non-finite values, which JSON
    /// cannot represent).
    pub fn value_f64(&mut self, v: f64) -> &mut Self {
        self.elem();
        if v.is_finite() {
            // Rust's shortest-roundtrip float formatting is valid JSON
            // (digits, optional `-`/`.`/`e`).
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes a boolean value.
    pub fn value_bool(&mut self, v: bool) -> &mut Self {
        self.elem();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn value_null(&mut self) -> &mut Self {
        self.elem();
        self.out.push_str("null");
        self
    }

    /// Splices a pre-serialized JSON fragment in as one value. The
    /// fragment must itself be valid JSON (producers assert this in
    /// debug builds).
    pub fn value_raw(&mut self, json: &str) -> &mut Self {
        debug_assert!(is_valid(json), "raw fragment is not valid JSON: {json}");
        self.elem();
        self.out.push_str(json);
        self
    }
}

/// Escapes and quotes `s` per RFC 8259.
fn write_escaped(out: &mut String, s: &str) {
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

/// Escapes and quotes a string as a standalone JSON value.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

// ---- parsing and validation -----------------------------------------

/// A parsed JSON value. Integers that fit `u64`/`i64` keep full
/// precision (cycle counts exceed f64's 2^53 integer range in theory);
/// everything else becomes `F64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent.
    U64(u64),
    /// A negative integer without fraction or exponent.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (duplicate keys kept as-is).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (integers widen lossily past 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value's object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The `record` kind of a [`crate::record::Record`] line, if it has
    /// one.
    pub fn kind(&self) -> Option<&str> {
        self.get("record").and_then(Json::as_str)
    }

    /// Member `key` as an unsigned integer, or an error prefixed by
    /// `ctx` (`"line 3 (frontier)"`, `"space file: monte entry"`, …).
    /// The `req_*` family is the one required-field reader of every
    /// record validator and loader.
    pub fn req_u64(&self, ctx: &str, key: &str) -> Result<u64, String> {
        self.req(ctx, key, "an integer", Json::as_u64)
    }

    /// Member `key` as a number (see [`Json::req_u64`]).
    pub fn req_f64(&self, ctx: &str, key: &str) -> Result<f64, String> {
        self.req(ctx, key, "a number", Json::as_f64)
    }

    /// Member `key` as a string (see [`Json::req_u64`]).
    pub fn req_str(&self, ctx: &str, key: &str) -> Result<&str, String> {
        self.req(ctx, key, "a string", Json::as_str)
    }

    /// Member `key` as a boolean (see [`Json::req_u64`]).
    pub fn req_bool(&self, ctx: &str, key: &str) -> Result<bool, String> {
        self.req(ctx, key, "a boolean", Json::as_bool)
    }

    fn req<'a, T>(
        &'a self,
        ctx: &str,
        key: &str,
        what: &str,
        as_t: fn(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        match self.get(key) {
            Some(v) => as_t(v).ok_or_else(|| format!("{ctx}: {key:?} must be {what}")),
            None => Err(format!("{ctx}: missing {key:?}")),
        }
    }
}

/// The one JSONL walker: every non-blank line of `text` with its
/// 1-based line number, the raw line, and the parsed document or a
/// located `line {n}: not valid JSON` error. Every record reader and
/// validator reads JSONL through it and keeps its own policy on bad
/// lines (journal resume skips them; validators and `repro diff` fail).
pub fn records(text: &str) -> impl Iterator<Item = (usize, &str, Result<Json, String>)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let n = i + 1;
            let doc = parse(line).ok_or_else(|| format!("line {n}: not valid JSON"));
            (n, line, doc)
        })
}

/// Parses one complete JSON value (with optional surrounding
/// whitespace). `None` on any syntax error.
pub fn parse(s: &str) -> Option<Json> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    (p.i == p.b.len()).then_some(v)
}

/// Returns true iff `s` is one complete, valid JSON value (with
/// optional surrounding whitespace). Used by tests and the CI smoke
/// path to prove every emitted JSONL line parses.
pub fn is_valid(s: &str) -> bool {
    parse(s).is_some()
}

/// Maximum container nesting depth [`parse`] accepts. The recursive-
/// descent parser uses the call stack, so unbounded nesting in a
/// hostile document (e.g. `[[[[…`) would overflow it; every document
/// this workspace produces is a handful of levels deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn lit(&mut self, s: &str) -> bool {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true").then_some(Json::Bool(true)),
            Some(b'f') => self.lit("false").then_some(Json::Bool(false)),
            Some(b'n') => self.lit("null").then_some(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Json> {
        if !self.eat(b'{') {
            return None;
        }
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return None;
        }
        self.ws();
        let mut members = Vec::new();
        if self.eat(b'}') {
            self.depth -= 1;
            return Some(Json::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return None;
            }
            let val = self.value()?;
            members.push((key, val));
            self.ws();
            if self.eat(b',') {
                continue;
            }
            return self.eat(b'}').then(|| {
                self.depth -= 1;
                Json::Obj(members)
            });
        }
    }

    fn array(&mut self) -> Option<Json> {
        if !self.eat(b'[') {
            return None;
        }
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return None;
        }
        self.ws();
        let mut items = Vec::new();
        if self.eat(b']') {
            self.depth -= 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if self.eat(b',') {
                continue;
            }
            return self.eat(b']').then(|| {
                self.depth -= 1;
                Json::Arr(items)
            });
        }
    }

    fn hex4(&mut self) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let h = self.peek()?;
            let d = (h as char).to_digit(16)?;
            v = (v << 4) | d;
            self.i += 1;
        }
        Some(v)
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        self.string_body()
    }

    /// The string content after the opening quote: raw byte runs are
    /// borrowed whole; escapes are decoded as they appear.
    fn string_body(&mut self) -> Option<String> {
        let mut out = String::new();
        let mut start = self.i;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).ok()?);
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).ok()?);
                    self.i += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            self.i += 1;
                            let u = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&u) {
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return None;
                                }
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return None;
                                }
                                0x10000 + ((u - 0xd800) << 10) + (lo - 0xdc00)
                            } else if (0xdc00..0xe000).contains(&u) {
                                return None;
                            } else {
                                u
                            };
                            out.push(char::from_u32(cp)?);
                            self.i -= 1;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                    start = self.i;
                }
                0x00..=0x1f => return None,
                _ => self.i += 1,
            }
        }
        None
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.i;
        let negative = self.eat(b'-');
        let digits_start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == digits_start {
            return None;
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            let frac_start = self.i;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
            if self.i == frac_start {
                return None;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            let exp_start = self.i;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
            if self.i == exp_start {
                return None;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).ok()?;
        if integral {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Some(Json::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Some(Json::U64(v));
            }
        }
        text.parse::<f64>().ok().map(Json::F64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_field_readers_name_the_key() {
        let doc = parse(r#"{"n":3,"x":1.5,"s":"a","b":true}"#).unwrap();
        assert_eq!(doc.req_u64("ctx", "n"), Ok(3));
        assert_eq!(doc.req_f64("ctx", "x"), Ok(1.5));
        assert_eq!(doc.req_f64("ctx", "n"), Ok(3.0));
        assert_eq!(doc.req_str("ctx", "s"), Ok("a"));
        assert_eq!(doc.req_bool("ctx", "b"), Ok(true));
        assert_eq!(doc.req_u64("ctx", "q"), Err("ctx: missing \"q\"".into()));
        assert_eq!(
            doc.req_u64("ctx", "s"),
            Err("ctx: \"s\" must be an integer".into())
        );
    }

    #[test]
    fn records_skip_blank_lines_and_locate_bad_ones() {
        let text = "{\"record\":\"a\"}\n\n  \n{\"x\":1\n[]\n";
        let lines: Vec<_> = records(text).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].0, 1);
        assert_eq!(lines[0].2.as_ref().unwrap().kind(), Some("a"));
        assert_eq!(lines[1].0, 4);
        assert_eq!(lines[1].1, "{\"x\":1");
        assert_eq!(lines[1].2, Err("line 4: not valid JSON".into()));
        assert_eq!(lines[2].0, 5);
        assert_eq!(lines[2].2.as_ref().unwrap().kind(), None);
    }

    #[test]
    fn objects_arrays_and_escapes() {
        let mut b = JsonBuf::new();
        b.begin_object()
            .key("s")
            .value_str("a\"b\\c\nd\u{1}")
            .key("n")
            .value_u64(42)
            .key("f")
            .value_f64(1.5)
            .key("inf")
            .value_f64(f64::INFINITY)
            .key("t")
            .value_bool(true)
            .key("arr");
        b.begin_array().value_i64(-3).value_null().end_array();
        b.end_object();
        let s = b.finish();
        assert_eq!(
            s,
            r#"{"s":"a\"b\\c\nd\u0001","n":42,"f":1.5,"inf":null,"t":true,"arr":[-3,null]}"#
        );
        assert!(is_valid(&s));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a":[1,2,{"b":"cÿ"}]}"#,
            " {\"x\": false}\n",
        ] {
            assert!(is_valid(good), "{good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01x",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
        ] {
            assert!(!is_valid(bad), "{bad}");
        }
    }

    #[test]
    fn parser_builds_values() {
        let v = parse(r#"{"a":[1,-2,2.5],"s":"x\nÿy","t":true,"n":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0], Json::U64(1));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1], Json::I64(-2));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2], Json::F64(2.5));
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "x\nÿy");
        assert_eq!(v.get("t").unwrap(), &Json::Bool(true));
        assert_eq!(v.get("n").unwrap(), &Json::Null);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parser_keeps_u64_precision() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        // Too big for u64: falls back to f64.
        assert!(matches!(parse("18446744073709551616"), Some(Json::F64(_))));
    }

    #[test]
    fn parser_decodes_surrogate_pairs() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
        assert_eq!(parse(r#""😀""#).unwrap().as_str().unwrap(), "😀");
        assert!(parse(r#""\ud83d""#).is_none(), "lone high surrogate");
        assert!(parse(r#""\ude00""#).is_none(), "lone low surrogate");
    }

    #[test]
    fn writer_output_round_trips_through_parser() {
        let mut b = JsonBuf::new();
        b.begin_object()
            .key("s")
            .value_str("a\"b\\c\nd\u{1}")
            .key("n")
            .value_u64(u64::MAX)
            .key("f")
            .value_f64(-0.125);
        b.end_object();
        let v = parse(b.as_str()).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\nd\u{1}");
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(-0.125));
    }

    #[test]
    fn float_formatting_round_trips() {
        let mut b = JsonBuf::new();
        b.value_f64(0.1);
        assert_eq!(b.as_str(), "0.1");
        let mut b = JsonBuf::new();
        b.value_f64(3.0);
        assert!(is_valid(b.as_str()));
    }
}
