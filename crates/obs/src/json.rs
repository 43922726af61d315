//! Minimal JSON emit + parse, enough for snapshot round-trips.
//!
//! The workspace has no serde, so snapshots hand-serialize themselves
//! (see [`Snapshot::to_json`](crate::Snapshot::to_json)) and this module
//! supplies the reverse direction plus string escaping. The parser
//! accepts the standard grammar (objects, arrays, strings with the
//! common escapes, integers/floats, booleans, null) — sufficient to read
//! back anything the crate emits and to let tests assert structure.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; u64 counters up to 2^53 survive exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (key-sorted).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as u64, if a non-negative integer.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the value is a non-negative integer; f64 to u64 saturates above 2^64 by the language semantics"
    )]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Escape `s` into `out` as a JSON string literal (with quotes).
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write for String never fails"
)]
pub fn escape_into(out: &mut String, s: &str) {
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap bounds its stack use: a hostile line of
/// `[[[[…` gets an error instead of overflowing the thread's stack.
pub const MAX_DEPTH: usize = 64;

/// Parse a JSON document. Returns `Err(position, message)` on malformed
/// input, trailing garbage, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, (usize, String)> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err((p.pos, "trailing characters".into()));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, (usize, String)> {
        Err((self.pos, msg.to_owned()))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), (usize, String)> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<JsonValue, (usize, String)> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, (usize, String)>,
    ) -> Result<JsonValue, (usize, String)> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, (usize, String)> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, (usize, String)> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, (usize, String)> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, (usize, String)> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| (self.pos, "invalid UTF-8 in string".to_owned()))?;
                    let Some(c) = s.chars().next() else {
                        return self.err("unterminated string");
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, (usize, String)> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| (start, "invalid UTF-8 in number".to_owned()))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| (start, format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_basics() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\n\"y"], "c": -2.5e1}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-25.0));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_str(), Some("x\n\"y"));
    }

    #[test]
    fn escape_and_reparse() {
        let nasty = "quote\" slash\\ tab\t nl\n ctrl\u{1} unicode→";
        let mut out = String::new();
        escape_into(&mut out, nasty);
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Each level is one recursive call, so a hostile line of half a
        // million `[` must stop at the cap, not at the end of the stack.
        let hostile = "[".repeat(500_000);
        let (pos, msg) = parse(&hostile).unwrap_err();
        assert_eq!(pos, MAX_DEPTH);
        assert!(msg.contains("nesting"), "{msg}");
        let (_, msg) = parse(&"{\"a\":".repeat(500_000)).unwrap_err();
        assert!(msg.contains("nesting"), "{msg}");
        // Exactly MAX_DEPTH levels still parse; one more does not.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(parse(&past_cap).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(Default::default()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
    }
}
