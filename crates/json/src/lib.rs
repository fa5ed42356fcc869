//! Minimal self-contained JSON support for the pospec workspace.
//!
//! The workspace serialises three things: experiment-report rows
//! (`paper_report.json`), JSON-lines trace files, and round-trip tests
//! over both.  That needs a value model with *insertion-ordered*
//! objects (so written field order matches struct declaration order, as
//! derived serde serialisers produce), a compact writer, a pretty
//! writer, and a strict parser — nothing else, and no derive machinery.

use std::collections::BTreeMap;
use std::fmt;

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers; integers up to 2^53 round-trip exactly.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Field lookup on an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Compact one-line rendering (no spaces), `serde_json::to_string` style.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0).expect("String never fails to write");
        out
    }

    /// Pretty rendering with two-space indentation,
    /// `serde_json::to_string_pretty` style.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0).expect("String never fails to write");
        out
    }

    fn write<W: fmt::Write>(
        &self,
        out: &mut W,
        indent: Option<usize>,
        level: usize,
    ) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, level + 1)
            }),
            Value::Obj(fields) => {
                write_seq(out, indent, level, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_string(out, k)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    v.write(out, indent, level + 1)
                })
            }
        }
    }
}

fn write_seq<W: fmt::Write>(
    out: &mut W,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut W, usize) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    if len == 0 {
        return out.write_char(close);
    }
    for i in 0..len {
        if i > 0 {
            out.write_char(',')?;
        }
        if let Some(w) = indent {
            out.write_char('\n')?;
            for _ in 0..w * (level + 1) {
                out.write_char(' ')?;
            }
        }
        item(out, i)?;
    }
    if let Some(w) = indent {
        out.write_char('\n')?;
        for _ in 0..w * level {
            out.write_char(' ')?;
        }
    }
    out.write_char(close)
}

/// Write `n` so that writing, parsing, and writing again is
/// byte-identical (needed for same-request byte-identical responses):
///
/// * non-finite values have no JSON form and render as `null`;
/// * `-0.0` is normalised to `0` (it compares equal to `0.0`, but the
///   `i64` cast used by the integer path would print plain `0` while a
///   sign-preserving shortest form would print `-0` — pick one);
/// * whole numbers of magnitude below 2^53 print as integers;
/// * everything else uses Rust's shortest round-trip `Display`, whose
///   output `str::parse::<f64>` maps back to the identical bits.
fn write_number<W: fmt::Write>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if n == 0.0 {
        // Covers +0.0 and -0.0 uniformly.
        out.write_char('0')
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.write_fmt(format_args!("{}", n as i64))
    } else {
        out.write_fmt(format_args!("{n}"))
    }
}

/// Write `s` quoted, copying each run of characters that need no escape
/// in one `write_str`.  Every escaped character is ASCII, so scanning
/// bytes keeps each run on character boundaries.
fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0C => Some("\\f"),
            b if b < 0x20 => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match escape {
            Some(e) => out.write_str(e)?,
            None => out.write_fmt(format_args!("\\u{b:04x}"))?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts.  Far above anything
/// the workspace writes, and shallow enough that the recursive descent
/// stays well inside a 2 MiB thread stack whatever the input.
const MAX_DEPTH: usize = 256;

/// Parse a complete JSON document (trailing whitespace allowed, nesting
/// at most 256 levels deep).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { pos: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// One pass per string: each run up to the next `"` or `\` is copied
    /// in a single `push_str`.  Both delimiters are ASCII, so every run
    /// starts and ends on a character boundary of the `&str` input.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            s.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => s.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is consumed.  A
    /// high surrogate directly followed by an escaped low surrogate
    /// decodes as the pair; any other surrogate is U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).expect("a surrogate pair is a scalar value"));
            }
            // Not a pair: the next escape stands on its own.
            self.pos = after_high;
        }
        Ok(char::from_u32(unit).unwrap_or('\u{FFFD}'))
    }

    /// Four hex digits (and nothing else: no sign, no short form).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits =
            self.bytes.get(self.pos..self.pos + 4).ok_or_else(|| self.err("bad \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d).to_digit(16).ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Convenience constructors used by hand-written serialisers.
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Self {
        Value::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

impl From<BTreeMap<String, Value>> for Value {
    fn from(map: BTreeMap<String, Value>) -> Self {
        Value::Obj(map.into_iter().collect())
    }
}

/// Builder for insertion-ordered objects.
#[derive(Debug, Default, Clone)]
pub struct ObjBuilder {
    fields: Vec<(String, Value)>,
}

impl ObjBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Add the field only when `value` is `Some`, mirroring
    /// `#[serde(skip_serializing_if = "Option::is_none")]`.
    pub fn field_opt(self, key: &str, value: Option<impl Into<Value>>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    pub fn build(self) -> Value {
        Value::Obj(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_matches_serde_json_shape() {
        let v = ObjBuilder::new()
            .field("caller", "c")
            .field("n", 3u64)
            .field("ok", true)
            .field("xs", Value::Arr(vec![Value::Num(1.0), Value::Null]))
            .build();
        assert_eq!(v.to_compact(), r#"{"caller":"c","n":3,"ok":true,"xs":[1,null]}"#);
    }

    #[test]
    fn pretty_is_two_space_indented() {
        let v = ObjBuilder::new().field("a", 1u64).field("b", Value::Arr(vec![])).build();
        assert_eq!(v.to_pretty(), "{\n  \"a\": 1,\n  \"b\": []\n}");
    }

    #[test]
    fn roundtrip_through_parser() {
        let v = ObjBuilder::new()
            .field("name", "Γ‖∆ \"quoted\"\nline")
            .field("pi", 3.25)
            .field("neg", Value::Num(-17.0))
            .field("list", Value::Arr(vec![Value::Bool(false), Value::Str("x".into())]))
            .build();
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn numbers_roundtrip() {
        for s in ["0", "-5", "3.5", "1e3", "123456789012"] {
            let v = parse(s).unwrap();
            assert_eq!(parse(&v.to_compact()).unwrap(), v);
        }
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""A\t""#).unwrap(), Value::Str("A\t".into()));
        assert_eq!(parse(r#""\u0041\u00e9\u2016""#).unwrap(), Value::Str("Aé‖".into()));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(parse(r#""\ud83e\udd80""#).unwrap(), Value::Str("🦀".into()));
        assert_eq!(parse(r#""a\ud83e\udd80b""#).unwrap(), Value::Str("a🦀b".into()));
    }

    #[test]
    fn lone_surrogates_become_replacement_characters() {
        let fffd = |s: &str| Value::Str(s.replace('?', "\u{FFFD}"));
        assert_eq!(parse(r#""\ud83e""#).unwrap(), fffd("?"));
        assert_eq!(parse(r#""\udd80\ud83e""#).unwrap(), fffd("??"));
        assert_eq!(parse(r#""\ud83ex""#).unwrap(), fffd("?x"));
        // A high surrogate before a non-low escape: both stand alone,
        // and the second still pairs with what follows it.
        assert_eq!(parse(r#""\ud83e\u0041""#).unwrap(), fffd("?A"));
        assert_eq!(parse(r#""\ud83e\ud83e\udd80""#).unwrap(), fffd("?🦀"));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04g1""#, r#""\u041""#] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
        assert!(parse(r#""\ud83e\u+d80""#).is_err());
    }

    #[test]
    fn control_characters_escape_byte_identically() {
        let s: String = (0u8..0x20).map(char::from).chain("\"\\/é\u{7f}".chars()).collect();
        let expected = concat!(
            r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r"#,
            r#"\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018"#,
            r#"\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\/é"#,
            "\u{7f}\"",
        );
        assert_eq!(Value::Str(s.clone()).to_compact(), expected);
        assert_eq!(parse(expected).unwrap(), Value::Str(s));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let verdicts = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep = |open: &str| open.repeat(1_000_000);
                let err = parse(&deep("[")).unwrap_err();
                assert!(err.message.contains("nesting"), "{err}");
                assert_eq!(err.pos, MAX_DEPTH);
                assert!(parse(&deep("{\"a\":")).is_err());
                let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
                assert!(parse(&at_cap).is_ok());
                let past = format!("[{at_cap}]");
                assert!(parse(&past).is_err());
            })
            .unwrap()
            .join();
        assert!(verdicts.is_ok());
    }

    /// write ∘ parse must be the identity on written output: the service
    /// relies on repeated identical requests producing byte-identical
    /// response lines.
    #[test]
    fn number_formatting_is_byte_stable() {
        let tricky = [
            0.0,
            -0.0,
            1.0,
            -5.0,
            0.1,
            0.1 + 0.2, // 0.30000000000000004
            1.0 / 3.0,
            std::f64::consts::PI,
            1e-7,
            5e-324,       // smallest subnormal
            f64::MAX,     // ~1.8e308
            9.0e15 - 1.0, // top of the i64 fast path
            9.0e15,       // first value past it
            1e20,
            123456789012345.7,
            -2.2250738585072014e-308,
        ];
        for n in tricky {
            let first = Value::Num(n).to_compact();
            let reparsed = parse(&first).unwrap();
            let second = reparsed.to_compact();
            assert_eq!(first, second, "unstable rendering for {n:?}");
            // And the parsed value is bit-identical (modulo -0 normalising).
            match reparsed {
                Value::Num(m) => assert!(m == n, "value drift for {n:?}: got {m:?}"),
                other => panic!("number reparsed as {other:?}"),
            }
        }
        // Non-finite numbers degrade to null (no JSON form).
        assert_eq!(Value::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_compact(), "null");
        // Negative zero normalises to plain 0.
        assert_eq!(Value::Num(-0.0).to_compact(), "0");
    }
}
