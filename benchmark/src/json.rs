//! A small JSON value with a writer and a parser — the workspace has
//! no external crates, and the benchmark both prints JSON (the result
//! line, run sets, traces) and reads it back (`--compare`).

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
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

    /// Compact single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented encoding; arrays of scalars stay on one line.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Arr(_) | Value::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                let flat = items.iter().all(Value::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() && flat { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Numbers print with every digit they were measured with (Rust's
/// shortest round-trip form); non-finite values have no JSON spelling
/// and read `null`.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        // Writing to a String cannot fail.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Nesting bound: input is a file named on the command line, so a
/// hostile one must not overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.err("unexpected end of input"),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.err("expected ',' or ']'");
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return self.err("expected a member name");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return self.err("expected ':'");
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(fields));
                    }
                    if !self.eat(",") {
                        return self.err("expected ',' or '}'");
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = hex else {
                                return self.err("bad \\u escape");
                            };
                            self.pos += 4;
                            out.extend(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| format!("invalid UTF-8 before offset {}", self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::obj(vec![
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1000.0)),
            (
                "name",
                Value::str("a \"quoted\" \\ line\nbreak\ttab \u{1} µs"),
            ),
            (
                "values",
                Value::Arr(vec![
                    Value::Num(1.2034),
                    Value::Num(-3.5e-7),
                    Value::Num(29873.456789012345),
                ]),
            ),
            (
                "nested",
                Value::Arr(vec![
                    Value::obj(vec![("k", Value::Null)]),
                    Value::Arr(vec![]),
                ]),
            ),
            ("empty", Value::obj::<String>(vec![])),
        ])
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let v = sample();
        assert_eq!(parse(&v.encode()).unwrap(), v);
        assert_eq!(parse(&v.encode_pretty()).unwrap(), v);
        assert!(!v.encode().contains('\n'), "compact form is one line");
    }

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_integers() {
        assert_eq!(Value::Num(1000.0).encode(), "1000");
        assert_eq!(Value::Num(0.1 + 0.2).encode(), "0.30000000000000004");
        assert_eq!(Value::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn accessors_and_errors() {
        let v = parse(r#"{"a": {"b": [1, "x"]}}"#).unwrap();
        let b = v.get("a").and_then(|a| a.get("b")).and_then(Value::as_arr);
        let b = b.unwrap();
        assert_eq!(b[0].as_f64(), Some(1.0));
        assert_eq!(b[1].as_str(), Some("x"));
        assert!(v.get("missing").is_none());
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "1 2", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }
}
