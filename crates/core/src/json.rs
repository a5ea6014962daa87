//! A minimal JSON value tree and writer.
//!
//! The offline build environment ships no `serde`/`serde_json`, so every
//! machine-readable output in this workspace — the trace journal, the
//! metrics registry and its live snapshots, the `fastjoin-cli chaos`
//! failure report — serializes through this module instead. It is
//! deliberately tiny: construct a [`Json`] tree, `Display` it. Object keys keep insertion order so report
//! schemas are stable and diffable.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Non-finite floats serialize as `null` (JSON has no
    /// NaN/Infinity), mirroring what `serde_json` does with
    /// `arbitrary_precision` off and `null` fallback on.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn obj<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    #[must_use]
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value. `u64` counters above 2^53 would lose precision in
    /// an `f64`; report counters never get near that, but the conversion
    /// saturates the mantissa rather than wrapping if one ever does.
    #[must_use]
    pub fn uint(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Serializes to a compact JSON string.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        self.to_string()
    }

    /// Parses a JSON document (recursive descent). The inverse of the
    /// writer, used by the `fastjoin-cli trace` journal reader and the
    /// telemetry re-parse tests; it accepts exactly standard JSON (RFC
    /// 8259) plus nothing else — no comments, no trailing commas.
    ///
    /// # Errors
    /// Returns a message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object; `None` for non-objects/missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation (human-diffable report files).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, depth + 1);
                    push_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
            other => {
                // Scalars and empty containers render compactly.
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }
}

/// Recursive-descent parser state over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos + 1..].first() == Some(&b'\\')
                                    && self.bytes.get(self.pos + 2) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined =
                                        0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(format!(
                                        "invalid \\u escape ending at byte {}",
                                        self.pos
                                    ))
                                }
                            }
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("unescaped control byte at {}", self.pos));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is
                    // always a valid boundary).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads the `XXXX` of a `\uXXXX` escape; `pos` is on the `u` on entry
    /// and on the final hex digit on exit (the caller advances past it).
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[start..end]).map_err(|e| e.to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape at {start}"))?;
        self.pos = end - 1;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number at byte {start}"))
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_num(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
    if !v.is_finite() {
        return write!(f, "null");
    }
    // Integers within f64's exact range print without a fraction so
    // counters stay counters in the output.
    if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        write!(f, "{}", v as i64)
    } else {
        write!(f, "{v}")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => write_num(f, *v),
            Json::Str(s) => {
                let mut buf = String::new();
                push_escaped(&mut buf, s);
                write!(f, "{buf}")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    let mut key = String::new();
                    push_escaped(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::uint(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::uint(v as u64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::uint(42).to_string(), "42");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn integers_have_no_fraction() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn containers_nest() {
        let v = Json::obj([
            ("xs", Json::arr([Json::uint(1), Json::uint(2)])),
            ("name", Json::str("run")),
        ]);
        assert_eq!(v.to_string(), "{\"xs\":[1,2],\"name\":\"run\"}");
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let v = Json::obj([("z", Json::uint(1)), ("a", Json::uint(2))]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj([
            ("name", Json::str("run \"x\"\n")),
            ("n", Json::uint(42)),
            ("frac", Json::Num(-1.5)),
            ("flags", Json::arr([Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("empty", Json::Arr(Vec::new()))])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_scalars_numbers_and_escapes() {
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("-0.25").unwrap(), Json::Num(-0.25));
        assert_eq!(Json::parse("\"\\u0041\\t\"").unwrap(), Json::str("A\t"));
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::str("\u{1F600}"));
        assert_eq!(Json::parse("\"é\"").unwrap(), Json::str("é"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_keeps_object_key_order() {
        let v = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn accessors_narrow_types() {
        let v = Json::obj([("s", Json::str("x")), ("xs", Json::arr([Json::uint(7)]))]);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        let xs = v.get("xs").and_then(Json::as_arr).unwrap();
        assert_eq!(xs[0].as_num(), Some(7.0));
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn pretty_output_is_indented_and_parsable_shape() {
        let v = Json::obj([("a", Json::arr([Json::uint(1)])), ("b", Json::Obj(Vec::new()))]);
        let s = v.to_string_pretty();
        assert!(s.contains("\n  \"a\": [\n    1\n  ]"), "{s}");
        assert!(s.contains("\"b\": {}"), "{s}");
    }
}
