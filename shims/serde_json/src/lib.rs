//! Minimal `serde_json` stand-in: renders and parses the serde shim's
//! [`Value`] tree. Only needs to round-trip with itself — nothing outside
//! this repository consumes the JSON it produces.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

// ---- serialization ------------------------------------------------------

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&value.serialize_value(), &mut out)?;
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.serialize_value(), &mut out, 0)?;
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    Ok(to_string(value)?.into_bytes())
}

fn write_number(f: f64, out: &mut String) -> Result<(), Error> {
    if !f.is_finite() {
        return Err(Error::new(format!("cannot serialize non-finite float {f}")));
    }
    // `{}` on f64 is shortest-roundtrip in Rust, which is valid JSON for
    // finite values.
    out.push_str(&format!("{f}"));
    Ok(())
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => write_number(*f, out)?,
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out)?;
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_pretty(v: &Value, out: &mut String, indent: usize) -> Result<(), Error> {
    const STEP: usize = 2;
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_pretty(item, out, indent + STEP)?;
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, out, indent + STEP)?;
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
        other => write_compact(other, out)?,
    }
    Ok(())
}

// ---- deserialization ----------------------------------------------------

pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value_complete(s)?;
    Ok(T::deserialize_value(&value)?)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

/// Deepest nesting of arrays and objects a document may have (the real
/// crate's recursion limit). The parser recurses once per level, so a
/// deeper document — a request body of a million `[` — is an error, not a
/// stack overflow that aborts the process.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document into the shim's `Value` tree.
pub fn parse_value_complete(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}, found `{:?}`",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ))),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected character {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// `parse` one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid keyword at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs: accept and combine; lone
                            // surrogates become the replacement character.
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    if self.peek() == Some(b'u') {
                                        self.pos += 1;
                                        let lo = self.parse_hex4()?;
                                        let c = 0x10000
                                            + ((cp - 0xD800) << 10)
                                            + (lo.wrapping_sub(0xDC00));
                                        out.push(
                                            char::from_u32(c).unwrap_or('\u{FFFD}'),
                                        );
                                        continue;
                                    }
                                }
                                out.push('\u{FFFD}');
                            } else {
                                out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            }
                        }
                        other => {
                            return Err(Error::new(format!(
                                "invalid escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the leading byte gives the width,
                    // and only that one character is checked.
                    let start = self.pos - 1;
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let c = self
                        .bytes
                        .get(start..start + width)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| {
                            Error::new(format!("invalid utf-8 in string at byte {start}"))
                        })?;
                    out.push_str(c);
                    self.pos = start + width;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let cp =
            u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::I64(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]`, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}`, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(3)),
            ("b".into(), Value::Array(vec![Value::F64(1.5), Value::Null])),
            ("c".into(), Value::Str("hi \"there\"\n".into())),
            ("d".into(), Value::Bool(true)),
            ("e".into(), Value::I64(-7)),
        ]);
        let compact = {
            let mut s = String::new();
            write_compact(&v, &mut s).unwrap();
            s
        };
        assert_eq!(parse_value_complete(&compact).unwrap(), v);
        let pretty = {
            let mut s = String::new();
            write_pretty(&v, &mut s, 0).unwrap();
            s
        };
        assert_eq!(parse_value_complete(&pretty).unwrap(), v);
    }

    #[test]
    fn float_precision_survives() {
        // Deliberately more digits than f64 can hold: the parse must land
        // on the nearest representable value, i.e. the original constant.
        #[allow(clippy::excessive_precision)]
        const PI_ISH: f64 = 0.123456789012345678;
        let v = Value::F64(PI_ISH);
        let mut s = String::new();
        write_compact(&v, &mut s).unwrap();
        match parse_value_complete(&s).unwrap() {
            Value::F64(f) => assert_eq!(f, PI_ISH),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value_complete("{").is_err());
        assert!(parse_value_complete("[1,]").is_err());
        assert!(parse_value_complete("1 2").is_err());
        assert!(parse_value_complete("\"unterminated").is_err());
    }

    fn nested(levels: usize) -> String {
        "[".repeat(levels) + &"]".repeat(levels)
    }

    #[test]
    fn nesting_is_capped_at_the_limit() {
        let mut deepest = parse_value_complete(&nested(MAX_DEPTH)).unwrap();
        for _ in 1..MAX_DEPTH {
            let Value::Array(mut inner) = deepest else {
                panic!("expected an array");
            };
            deepest = inner.pop().unwrap();
        }
        assert_eq!(deepest, Value::Array(Vec::new()));
        assert!(parse_value_complete(&nested(MAX_DEPTH + 1)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(parse_value_complete(&objects).is_ok());
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
        assert!(parse_value_complete(&objects).is_err());
    }

    #[test]
    fn a_body_of_brackets_is_an_error_not_an_abort() {
        // 4 MiB, the service's largest request body: before the cap this
        // overflowed the stack and took the process with it
        let body = "[".repeat(4 << 20);
        assert!(parse_value_complete(&body).is_err());
        assert!(from_str::<Vec<u8>>(&body).is_err());
    }

    #[test]
    fn non_ascii_strings_parse_in_linear_time() {
        // 2^20 two-, three- and four-byte characters: a quadratic scan of
        // the rest of the input per character does not finish
        let text: String = ['é', '€', '𝄞', 'a'].iter().cycle().take(1 << 20).collect();
        let mut json = String::new();
        write_escaped(&text, &mut json);
        assert_eq!(parse_value_complete(&json).unwrap(), Value::Str(text));
    }

    #[test]
    fn negative_and_large_ints() {
        assert_eq!(parse_value_complete("-42").unwrap(), Value::I64(-42));
        assert_eq!(
            parse_value_complete("18446744073709551615").unwrap(),
            Value::U64(u64::MAX)
        );
    }
}
