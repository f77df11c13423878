//! A small, self-contained JSON value type with a parser and a
//! serializer — the wire format of the serving tier.
//!
//! The workspace vendors no serde (the build environment has no
//! crates.io access), and the protocol needs nothing beyond RFC 8259
//! values: this module is the whole dependency. Numbers are carried as
//! `f64`, which represents every integer the protocol exchanges exactly
//! (ids, costs, counters — all far below 2^53); [`Json::as_u64`]
//! rejects anything non-integral rather than rounding silently.

use std::fmt;

/// Any JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see the module docs for integer fidelity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on serialization.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the defect.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an integer number.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// The value under `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer; `None` for non-numbers,
    /// negatives, and non-integral values (never rounds).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // Exclusive 2^53 bound: at exactly 2^53, f64 can no longer
        // distinguish neighboring integers (2^53 + 1 parses to the same
        // float), so accepting the boundary would silently alter values
        // — the one thing this accessor promises not to do.
        if n.fract() != 0.0 || !(0.0..9_007_199_254_740_992.0).contains(&n) {
            return None;
        }
        Some(n as u64)
    }

    /// The number as a `usize` (via [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses one JSON value from `input`, requiring it to span the
    /// whole string (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first defect.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(value)
    }
}

/// Objects and arrays deeper than this are rejected: the protocol never
/// nests past ~4 levels, and a recursion bound turns stack exhaustion
/// from hostile input into a clean parse error.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece: those bytes are ASCII, so the run ends
            // on a character boundary.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u', "expected '\\u' low surrogate")?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => return Err(self.err("control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("unterminated \\u escape"))?;
            let digit = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
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
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal, copying the runs between the
/// bytes that need escaping (quote, backslash, controls) in one piece.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1F => None,
            _ => continue,
        };
        // `b` is ASCII, so `i` is a character boundary.
        f.write_str(&s[run..i])?;
        match short {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars_parse_and_print() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
        assert_eq!(Json::num(42).to_string(), "42");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
    }

    #[test]
    fn structures_round_trip() {
        let text = r#"{"type":"map","ids":[1,2,3],"opts":{"deep":null,"on":true}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("map"));
        assert_eq!(
            v.get("ids").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.to_string(), text);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\ndAé😀");
        let printed = Json::str("tab\there\n\"quoted\"").to_string();
        assert_eq!(
            Json::parse(&printed).unwrap(),
            Json::str("tab\there\n\"quoted\"")
        );
        // Unicode passes through unescaped.
        assert_eq!(Json::str("é😀").to_string(), "\"é😀\"");
    }

    #[test]
    fn defects_are_located() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "\"\\ud800\"",
            "nan",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        let e = Json::parse("[1, oops]").unwrap_err();
        assert!(e.offset >= 4, "{e}");
    }

    #[test]
    fn string_defects_keep_their_messages_and_offsets() {
        for (bad, message, offset) in [
            ("\"unterminated", "unterminated string", 13),
            ("\"run\\n", "unterminated string", 6),
            ("\"é\\", "unterminated escape", 4),
            ("\"ab\u{1}cd\"", "control character in string", 3),
            ("\"ab\ncd\"", "control character in string", 3),
            ("\"\\q\"", "invalid escape", 3),
            ("\"\\ud800\"", "unpaired surrogate", 7),
            ("\"x\\udc00\"", "unpaired surrogate", 8),
            ("\"\\ud83d\\u0041\"", "invalid low surrogate", 13),
            ("\"\\u12g4\"", "invalid hex digit", 5),
            ("\"\\u12", "unterminated \\u escape", 5),
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert_eq!((e.message, e.offset), (message, offset), "{bad:?}");
        }
    }

    /// The per-character escaper the run-copying one replaced, kept as
    /// the oracle for its output.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from("\"");
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
        out
    }

    /// Characters a string draw picks from: everything that escapes,
    /// DEL, multi-byte UTF-8 of every width, and plain ASCII.
    const PALETTE: &[char] = &[
        '"', '\\', '/', '\u{7f}', 'a', 'Z', ' ', 'é', 'ß', '€', '中', '😀', '𝄞',
    ];

    /// One character: a control, a palette entry, or any scalar value.
    fn draw_char(pick: u32) -> char {
        match pick % 4 {
            0 => char::from_u32(pick / 4 % 0x20).expect("controls are scalars"),
            1 => PALETTE[(pick / 4) as usize % PALETTE.len()],
            2 => char::from_u32(0x20 + pick / 4 % 0x60).expect("ASCII"),
            _ => char::from_u32(pick / 4 % 0x11_0000).unwrap_or('\u{fffd}'),
        }
    }

    fn draw_string(picks: &[u32]) -> String {
        picks.iter().map(|&p| draw_char(p)).collect()
    }

    /// `c` as a `\uXXXX` escape, a surrogate pair outside the BMP, in
    /// upper- or lower-case hex.
    fn unicode_escape(c: char, upper: bool) -> String {
        let mut units = [0u16; 2];
        c.encode_utf16(&mut units)
            .iter()
            .map(|u| {
                if upper {
                    format!("\\u{u:04X}")
                } else {
                    format!("\\u{u:04x}")
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn strings_round_trip_and_escape_like_the_per_char_oracle(
            picks in prop::collection::vec(any::<u32>(), 0..48),
        ) {
            let s = draw_string(&picks);
            let printed = Json::str(s.as_str()).to_string();
            prop_assert_eq!(&printed, &escape_per_char(&s));
            prop_assert_eq!(Json::parse(&printed).unwrap(), Json::str(s));
        }

        #[test]
        fn escaped_spellings_of_a_string_parse_back_to_it(
            picks in prop::collection::vec(any::<u32>(), 0..48),
            spellings in prop::collection::vec(any::<u8>(), 48),
        ) {
            // Each character spelled raw where JSON allows it, as a
            // short escape where one exists, or as `\u` escapes
            // (surrogate pairs past the BMP).
            let s = draw_string(&picks);
            let mut text = String::from("\"");
            for (c, &how) in s.chars().zip(&spellings) {
                let short = match c {
                    '"' => Some("\\\""),
                    '\\' => Some("\\\\"),
                    '/' => Some("\\/"),
                    '\u{8}' => Some("\\b"),
                    '\u{c}' => Some("\\f"),
                    '\n' => Some("\\n"),
                    '\r' => Some("\\r"),
                    '\t' => Some("\\t"),
                    _ => None,
                };
                let raw_ok = !matches!(c, '"' | '\\') && c as u32 >= 0x20;
                match (how % 3, short) {
                    (0, _) if raw_ok => text.push(c),
                    (1, Some(escape)) => text.push_str(escape),
                    _ => text.push_str(&unicode_escape(c, how & 4 != 0)),
                }
            }
            text.push('"');
            prop_assert_eq!(Json::parse(&text).unwrap(), Json::str(s), "{}", text);
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_scalar() {
        for text in ["\"\\uD83D\\uDE00\"", "\"\\ud83d\\ude00\""] {
            assert_eq!(Json::parse(text).unwrap(), Json::str("😀"));
        }
        assert_eq!(Json::str("😀\u{7f}").to_string(), "\"😀\u{7f}\"");
    }

    #[test]
    fn deep_nesting_is_rejected_cleanly() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn u64_accessor_never_rounds() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::str("7").as_u64(), None);
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
    }
}
