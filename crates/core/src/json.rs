//! A minimal hand-rolled JSON value, writer, and reader.
//!
//! The experiment harness writes machine-readable results
//! (`results/<id>.json`, `results/summary.json`) so downstream tooling
//! can ingest perf trajectories without scraping text tables, and tests
//! read such output back ([`Json::parse`]). The
//! workspace builds offline with no external crates, so this module
//! provides the small subset of JSON we need: construction, escaping,
//! deterministic rendering (object keys keep insertion order, so a
//! fixed run produces byte-identical files), and a strict recursive-
//! descent parser whose job is round-tripping our own output — numbers
//! we rendered must re-render byte-identically after a parse.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer rendered exactly (cycle counts exceed f64's 2^53
    /// mantissa in long simulations).
    Int(i64),
    /// An unsigned integer rendered exactly.
    UInt(u64),
    /// A finite double; non-finite values render as `null` (JSON has no
    /// NaN/Infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys keep insertion order for reproducible output.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Self::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Self::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Self::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Self::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Self::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    #[must_use]
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Self {
        Self::Arr(items.into_iter().collect())
    }

    /// Append a key to an object (panics on non-objects).
    pub fn push_field(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Self::Obj(pairs) => pairs.push((key.into(), value)),
            _ => panic!("push_field on a non-object Json value"),
        }
    }

    /// Parse a JSON document. Strict: exactly one value, nothing but
    /// whitespace after it, no extensions. Errors carry the byte offset.
    ///
    /// Number mapping preserves this module's rendering exactly:
    /// integers without `.`/`e` become [`Json::UInt`]/[`Json::Int`]
    /// (full 64-bit range, exact), everything else — including `-0`,
    /// which `{}`-formats differently as an integer — becomes
    /// [`Json::Num`]. Rust's shortest-round-trip float formatting then
    /// guarantees `parse(v.render()).render() == v.render()`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after the JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (any of `Int`/`UInt`/`Num`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Int(i) => Some(*i as f64),
            Self::UInt(u) => Some(*u as f64),
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Unsigned integer payload, if exactly representable.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::UInt(u) => Some(*u),
            Self::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Boolean payload.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object pairs in document order, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact rendering (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing newline.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Self::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Self::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Self::Str(s) => write_escaped(out, s),
            Self::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Self::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

/// Escape and quote a string per RFC 8259: `"`, `\`, and all control
/// characters below 0x20 (the common ones with short escapes, the rest as
/// `\u00XX`).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Guard against stack exhaustion on pathological nesting; our own
/// artifacts are at most a handful of levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.expect_lit("null", Json::Null),
            Some(b't') => self.expect_lit("true", Json::Bool(true)),
            Some(b'f') => self.expect_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free, control-free run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: must pair with a following \uXXXX
                    // low surrogate.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("unpaired surrogate"))?
                }
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let _ = self.eat(b'-');
        // Integer part: one zero, or a nonzero digit run (RFC 8259).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        let mut fractional = false;
        if self.eat(b'.') {
            fractional = true;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number tokens are ASCII");
        if !fractional {
            // `-0` must stay a float: as Int(0) it would re-render "0",
            // losing the sign `{}`-formatting preserves for -0.0.
            if text.starts_with('-') && text != "-0" {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if !text.starts_with('-') {
                if let Ok(u) = text.parse::<u64>() {
                    return Ok(Json::UInt(u));
                }
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(false).render(), "false");
        assert_eq!(Json::from(42u64).render(), "42");
        assert_eq!(Json::from(-7i64).render(), "-7");
        assert_eq!(Json::from(1.5).render(), "1.5");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn exact_large_integers() {
        // 2^53 + 1 is not representable as f64; UInt must render exactly.
        let v = (1u64 << 53) + 1;
        assert_eq!(Json::from(v).render(), v.to_string());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn string_escaping() {
        let s = "quote\" back\\ nl\n cr\r tab\t bell\u{07} fe\u{0C} bs\u{08} unicode é";
        let r = Json::from(s).render();
        assert_eq!(
            r,
            "\"quote\\\" back\\\\ nl\\n cr\\r tab\\t bell\\u0007 fe\\f bs\\b unicode é\""
        );
    }

    #[test]
    fn nested_compact() {
        let v = Json::obj([
            ("id", Json::from("FIG4")),
            (
                "rows",
                Json::arr([Json::obj([("procs", Json::from(32usize))])]),
            ),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        assert_eq!(
            v.render(),
            r#"{"id":"FIG4","rows":[{"procs":32}],"empty_arr":[],"empty_obj":{}}"#
        );
    }

    #[test]
    fn nested_pretty_round_trips_structure() {
        let v = Json::obj([
            ("a", Json::arr([Json::from(1u64), Json::from(2u64)])),
            ("b", Json::obj([("c", Json::Null)])),
        ]);
        let pretty = v.render_pretty();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": null\n  }\n}\n"
        );
    }

    #[test]
    fn push_field_extends_objects() {
        let mut v = Json::obj(Vec::<(String, Json)>::new());
        v.push_field("k", Json::from(1u64));
        assert_eq!(v.render(), r#"{"k":1}"#);
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn push_field_rejects_arrays() {
        Json::arr([]).push_field("k", Json::Null);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Num(2000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::from("hi"));
    }

    #[test]
    fn parse_nested_structures() {
        let v = Json::parse(r#"{"id":"FIG4","rows":[{"procs":32}],"empty":[],"o":{}}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("FIG4"));
        let rows = v.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("procs").and_then(Json::as_u64), Some(32));
        assert_eq!(v.get("empty").and_then(Json::as_arr), Some(&[][..]));
        assert!(v.get("o").and_then(Json::as_obj).unwrap().is_empty());
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_string_escapes() {
        let v = Json::parse(r#""quote\" back\\ nl\n tab\t sol\/ uA bmpé""#).unwrap();
        assert_eq!(v.as_str(), Some("quote\" back\\ nl\n tab\t sol/ uA bmpé"));
        // Surrogate pairs combine into one astral code point.
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn parse_number_taxonomy() {
        // Integers keep exactness across the full 64-bit range.
        let big = u64::MAX.to_string();
        assert_eq!(Json::parse(&big).unwrap(), Json::UInt(u64::MAX));
        let small = i64::MIN.to_string();
        assert_eq!(Json::parse(&small).unwrap(), Json::Int(i64::MIN));
        // Out-of-range integers degrade to floats rather than erroring.
        assert!(matches!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(_)
        ));
        // -0 stays a float so the sign survives re-rendering.
        assert_eq!(Json::parse("-0").unwrap(), Json::Num(-0.0));
        assert_eq!(Json::parse("-0").unwrap().render(), "-0");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "  ",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "01",
            "1.",
            ".5",
            "+1",
            "nul",
            "tru",
            "\"open",
            "1e",
            "--1",
            "1 2",
            "[1]]",
            "{}{}",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
        assert!(
            Json::parse(&format!("{}1{}", "[".repeat(200), "]".repeat(200))).is_err(),
            "depth limit"
        );
    }

    #[test]
    fn parse_round_trips_our_own_rendering() {
        let v = Json::obj([
            ("metric", Json::from("ep_run_seconds")),
            (
                "params",
                Json::obj([("procs", Json::from(32usize)), ("series", Json::from("cg"))]),
            ),
            ("value", Json::from(0.017_325_5)),
            ("neg", Json::from(-3i64)),
            ("exact", Json::from((1u64 << 53) + 1)),
            ("flag", Json::from(true)),
            ("none", Json::Null),
            ("whole", Json::Num(2.0)),
            ("text", Json::from("nl\n é \"q\"")),
        ]);
        for rendered in [v.render(), v.render_pretty()] {
            let reparsed = Json::parse(&rendered).unwrap();
            // Byte-identical re-rendering is the parser's contract. (The
            // value itself may shift representation: Num(2.0) renders
            // "2" and reparses as UInt(2) — both render "2".)
            assert_eq!(reparsed.render(), v.render());
            assert_eq!(reparsed.render_pretty(), v.render_pretty());
        }
    }

    #[test]
    fn accessors_read_each_variant() {
        assert_eq!(Json::from(1.5).as_f64(), Some(1.5));
        assert_eq!(Json::from(3u64).as_f64(), Some(3.0));
        assert_eq!(Json::from(-3i64).as_f64(), Some(-3.0));
        assert_eq!(Json::from(3u64).as_u64(), Some(3));
        assert_eq!(Json::Int(3).as_u64(), Some(3));
        assert_eq!(Json::Int(-3).as_u64(), None);
        assert_eq!(Json::from(true).as_bool(), Some(true));
        assert_eq!(Json::Null.as_f64(), None);
        assert_eq!(Json::Null.as_str(), None);
    }
}
