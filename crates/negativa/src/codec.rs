//! A minimal, dependency-free JSON codec behind the registry's on-disk
//! formats ([`crate::manifest`]) and the benchmark declaration that
//! perfbench reads (`BENCHMARK.json`).
//!
//! The workspace is offline by design, so this is a strict
//! recursive-descent reader and a deterministic writer for the JSON
//! subset the repository's artifacts actually use: objects (with
//! insertion-ordered keys), arrays, strings, numbers, booleans, and
//! `null`. An artifact either round-trips exactly or fails loudly.
//!
//! Decoding is one pass, linear in the document's size. Inside a
//! string the reader jumps to the next quote, backslash or control
//! byte and copies the run before it whole, so every byte is looked at
//! once (the input is a `&str`, already valid UTF-8, and all three
//! stops are ASCII). [`JsonValue::parse`] rejects:
//! - duplicate object keys, at every nesting level;
//! - escapes other than `\"`, `\\` and `\uXXXX` (lone surrogates too);
//! - raw control bytes (below `0x20`) inside strings, which RFC 8259
//!   forbids and the renderer always escapes;
//! - numbers outside the JSON grammar (`01`, `-01`, `1.`, `1.e5`, `+1`,
//!   `.5`) and numbers that overflow to infinity (`1e400`), which could
//!   not round-trip;
//! - containers nested deeper than 64 levels;
//! - trailing garbage after the document.
//!
//! 64-bit identity values (content hashes, checksums, fingerprints,
//! nanosecond counters) do **not** fit a JSON `f64` losslessly, so they
//! are carried as fixed-width hex strings via [`JsonValue::u64`] and
//! decoded back inside the crate.

use std::fmt::Write as _;

/// One JSON value: the document tree of a manifest or report.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number. Only used for values that fit an `f64` exactly
    /// (counts, small sizes, ratios); 64-bit identities go through
    /// [`JsonValue::u64`] instead.
    Number(f64),
    /// A string.
    Text(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved by render and parse, so
    /// encode → decode → encode is byte-stable.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Encode a `u64` losslessly as a fixed-width hex string
    /// (`"0x00000000000000ab"`), the workspace's display convention for
    /// checksums and hashes.
    pub fn u64(value: u64) -> JsonValue {
        JsonValue::Text(format!("{value:#018x}"))
    }

    /// Shorthand for an exact small integer (counts, indices).
    pub(crate) fn int(value: u64) -> JsonValue {
        JsonValue::Number(value as f64)
    }

    /// Decode a value written by [`JsonValue::u64`] — or a plain
    /// non-negative integral number — back to a `u64`.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Text(s) => {
                let hex = s.strip_prefix("0x")?;
                u64::from_str_radix(hex, 16).ok()
            }
            JsonValue::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number, if this is a [`JsonValue::Number`].
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a [`JsonValue::Text`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`JsonValue::Array`].
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render the value as pretty-printed JSON (two-space indent,
    /// key order preserved, no trailing newline). Integral numbers
    /// print without a decimal point; other numbers print in Rust's
    /// shortest round-trip form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            JsonValue::Number(n) if !n.is_finite() => {
                // JSON has no NaN/Infinity. Rendering the Rust debug
                // form would produce a file *no* parser — including this
                // module's — accepts; `null` keeps the document valid
                // and surfaces as a typed mistyped-field error at decode
                // time instead of unreadable garbage.
                out.push_str("null");
            }
            JsonValue::Number(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Text(s) => render_string(out, s),
            JsonValue::Array(items) if items.is_empty() => out.push_str("[]"),
            JsonValue::Array(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.render_into(out, depth + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) if pairs.is_empty() => out.push_str("{}"),
            JsonValue::Object(pairs) => {
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    indent(out, depth + 1);
                    render_string(out, key);
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                    out.push_str(if i + 1 == pairs.len() { "\n" } else { ",\n" });
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse one JSON document in a single pass, linear in its size.
    /// Rejects duplicate object keys (at every nesting level),
    /// unsupported escapes, raw control bytes in strings, numbers
    /// outside the JSON grammar or beyond a finite `f64`, trailing
    /// garbage, and containers nested deeper than 64 levels
    /// (the recursive-descent parser uses the call stack, so unbounded
    /// nesting in a hostile document would otherwise overflow it).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax violation.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut cursor = Cursor { text: input, at: 0, depth: 0 };
        cursor.skip_ws();
        let value = cursor.parse_value()?;
        cursor.skip_ws();
        if cursor.at != cursor.text.len() {
            return Err(format!("trailing garbage after the document at byte {}", cursor.at));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            // RFC 8259 forbids raw control characters in strings.
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest container nesting [`JsonValue::parse`] accepts. Every
/// format this crate reads (manifests, plans, `BENCHMARK.json`) stays in
/// single digits; the bound exists so a hostile or corrupt document
/// fails with a typed error instead of exhausting the parser's call
/// stack.
pub(crate) const MAX_PARSE_DEPTH: usize = 64;

struct Cursor<'a> {
    text: &'a str,
    at: usize,
    /// Containers currently open ([`MAX_PARSE_DEPTH`]-bounded).
    depth: usize,
}

impl Cursor<'_> {
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(format!(
                "containers nested deeper than {MAX_PARSE_DEPTH} levels at byte {}",
                self.at
            ));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, wanted: u8) -> Result<(), String> {
        if self.peek() == Some(wanted) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                wanted as char,
                self.at,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.text.as_bytes()[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Text(self.parse_string()?)),
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'n') if self.eat_keyword("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_keyword("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(JsonValue::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                Ok(JsonValue::Number(self.parse_number()?))
            }
            other => Err(format!("expected a JSON value at byte {}, found {other:?}", self.at)),
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut pairs: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(pairs));
                }
                other => return Err(format!("expected ',' or '}}' after a pair, found {other:?}")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(format!("expected ',' or ']' after an element, found {other:?}"))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote, backslash or control
            // byte in one piece. All three stops are ASCII, so a run
            // never ends inside a multibyte scalar and slicing the
            // (already valid UTF-8) input at its ends cannot fail.
            let run = self.at;
            self.at += self.text.as_bytes()[run..]
                .iter()
                .position(|b| matches!(b, b'"' | b'\\' | 0..=0x1f))
                .unwrap_or(self.text.len() - run);
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => {
                            out.push('"');
                            self.at += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.at += 1;
                        }
                        Some(b'u') => {
                            self.at += 1;
                            out.push(self.parse_unicode_escape()?);
                        }
                        other => return Err(format!("unsupported escape {other:?} in string")),
                    }
                }
                // RFC 8259 forbids raw control characters in strings;
                // the renderer always escapes them.
                Some(b) => {
                    return Err(format!("raw control byte {b:#04x} in string at byte {}", self.at))
                }
                None => return Err(format!("unterminated string starting at byte {start}")),
            }
        }
    }

    /// The four hex digits after `\u` (only emitted by the renderer for
    /// control characters, but any non-surrogate BMP scalar is
    /// accepted).
    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let start = self.at;
        let Some(hex) = self.text.as_bytes().get(self.at..self.at + 4) else {
            return Err(format!("truncated \\u escape at byte {start}"));
        };
        self.at += 4;
        let hex =
            std::str::from_utf8(hex).map_err(|_| format!("bad \\u escape at byte {start}"))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape {hex:?} at byte {start}"))?;
        char::from_u32(code)
            .ok_or_else(|| format!("\\u{hex} is not a Unicode scalar (byte {start})"))
    }

    /// One number in the RFC 8259 grammar,
    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, whose value
    /// is a finite `f64` (an overflow to infinity would render back as
    /// `null`, so it is rejected rather than silently changed).
    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.at;
        let bad = |what: &str| format!("bad number at byte {start}: {what}");
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        match self.skip_digits() {
            0 => return Err(bad("no integer digits")),
            n if n > 1 && leading_zero => return Err(bad("leading zero")),
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if self.skip_digits() == 0 {
                return Err(bad("no digits after the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if self.skip_digits() == 0 {
                return Err(bad("no exponent digits"));
            }
        }
        let text = &self.text[start..self.at];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(bad(&format!("{text} is not a finite f64"))),
        }
    }

    /// Advance past a run of ASCII digits; returns how many there were.
    fn skip_digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }
}

/// XXH64 (seed 0) over raw bytes — the content hash behind the
/// artifact registry's addressing. Independent of
/// [`simml::namegen::stable_hash`] (which folds *strings* with
/// separators); this one hashes exact byte streams, so any single-bit
/// change in a stored file changes the digest. The body consumes
/// 32-byte stripes in four independent lanes, so it runs at memory
/// speed rather than one multiply per byte.
pub fn content_hash(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    }
    fn le64(lane: &[u8]) -> u64 {
        u64::from_le_bytes(lane.try_into().expect("an 8-byte lane"))
    }

    let stripes = bytes.chunks_exact(32);
    let lanes = stripes.remainder().chunks_exact(8);
    let mut tail = lanes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = round(*acc, le64(lane));
            }
        }
        let mut hash = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for acc in v {
            hash = (hash ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4);
        }
        hash
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    for lane in lanes {
        hash ^= round(0, le64(lane));
        hash = hash.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    if tail.len() >= 4 {
        let (word, rest) = tail.split_at(4);
        let word = u32::from_le_bytes(word.try_into().expect("a 4-byte word"));
        hash ^= (word as u64).wrapping_mul(P1);
        hash = hash.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        hash ^= (b as u64).wrapping_mul(P5);
        hash = hash.rotate_left(11).wrapping_mul(P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonValue {
        JsonValue::Object(vec![
            ("name".into(), JsonValue::Text("lib \"x\".so".into())),
            ("count".into(), JsonValue::int(42)),
            ("ratio".into(), JsonValue::Number(2.5)),
            ("hash".into(), JsonValue::u64(u64::MAX - 1)),
            ("flag".into(), JsonValue::Bool(true)),
            ("hole".into(), JsonValue::Null),
            ("empty".into(), JsonValue::Array(Vec::new())),
            (
                "ranges".into(),
                JsonValue::Array(vec![JsonValue::Object(vec![
                    ("start".into(), JsonValue::u64(0)),
                    ("end".into(), JsonValue::u64(4096)),
                ])]),
            ),
        ])
    }

    #[test]
    fn render_parse_round_trips_byte_stable() {
        let doc = sample();
        let text = doc.render();
        let parsed = JsonValue::parse(&text).expect("rendered output parses");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.render(), text, "encode -> decode -> encode is byte-stable");
    }

    #[test]
    fn u64_values_survive_beyond_f64_precision() {
        for v in [0u64, 1, (1 << 53) + 1, u64::MAX] {
            let text = JsonValue::u64(v).render();
            let back = JsonValue::parse(&text).unwrap().as_u64().expect("hex u64 decodes");
            assert_eq!(back, v, "u64 {v:#x} must round-trip exactly");
        }
        // Plain small integers decode too.
        assert_eq!(JsonValue::int(7).as_u64(), Some(7));
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Text("not hex".into()).as_u64(), None);
    }

    #[test]
    fn object_accessors_navigate_the_tree() {
        let doc = sample();
        assert_eq!(doc.get("count").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(doc.get("ratio").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some("lib \"x\".so"));
        assert!(doc.get("missing").is_none());
        let ranges = doc.get("ranges").and_then(JsonValue::as_array).unwrap();
        assert_eq!(ranges[0].get("end").and_then(JsonValue::as_u64), Some(4096));
    }

    #[test]
    fn malformed_documents_are_rejected_not_misread() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{\"a\": 1").is_err(), "unterminated object");
        assert!(JsonValue::parse("{\"a\": 1} tail").is_err(), "trailing garbage");
        assert!(JsonValue::parse("{\"a\": 1, \"a\": 2}").is_err(), "duplicate keys");
        assert!(JsonValue::parse("{\"a\": 12notanumber}").is_err());
        assert!(JsonValue::parse("[1, 2,]").is_err(), "trailing comma");
        assert!(JsonValue::parse("{\"a\": \"\\n\"}").is_err(), "unsupported escape");
        assert!(JsonValue::parse("nul").is_err(), "truncated keyword");
        for number in ["01", "-01", "1.", "1.e5", "1e400", "-1e400", "-", "1e", "1e+"] {
            let err = JsonValue::parse(number).unwrap_err();
            assert!(err.contains("bad number at byte 0"), "{number:?} must be rejected: {err}");
            let err = JsonValue::parse(&format!("{{\"a\": {number}}}")).unwrap_err();
            assert!(err.contains("at byte 6"), "{number:?} inside an object: {err}");
        }
        assert!(JsonValue::parse("+1").is_err() && JsonValue::parse(".5").is_err());
        for raw in ["\"a\u{1}b\"", "\"tab\there\"", "\"\n\"", "\"\u{1f}\""] {
            let err = JsonValue::parse(raw).unwrap_err();
            assert!(err.contains("raw control byte"), "{raw:?} must be rejected: {err}");
        }
        let err = JsonValue::parse("{\"key\": \"ab\u{7}\"}").unwrap_err();
        assert_eq!(err, "raw control byte 0x07 in string at byte 11", "names the offset");
    }

    #[test]
    fn valid_json_numbers_parse_to_their_value() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("0.5", 0.5),
            ("-10.25", -10.25),
            ("1e3", 1000.0),
            ("1E+3", 1000.0),
            ("25e-1", 2.5),
            ("0.5e1", 5.0),
            ("1e-400", 0.0),
        ] {
            assert_eq!(JsonValue::parse(text), Ok(JsonValue::Number(value)), "{text}");
        }
    }

    #[test]
    fn rendered_numbers_are_always_accepted_and_round_trip() {
        let mut state = 0x5eed_0f64_u64 | 1;
        let mut cases = vec![0.1, -0.1, 1e-300, -1e300, f64::MAX, f64::MIN_POSITIVE, 1e15, 2.5e-8];
        while cases.len() < 4000 {
            let n = f64::from_bits(crate::net::xorshift(&mut state));
            if n.is_finite() {
                cases.push(n);
            }
        }
        for n in cases {
            let text = JsonValue::Number(n).render();
            let back = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{n:e} -> {text}: {e}"));
            assert_eq!(back, JsonValue::Number(n), "{n:e} -> {text}");
        }
    }

    /// A string drawn from every class the run scan treats differently:
    /// ASCII, 2-, 3- and 4-byte scalars, the two escaped delimiters and
    /// all 32 control characters, in runs of random length so that runs
    /// end right before and right after escapes and multibyte scalars.
    fn generated_string(state: &mut u64) -> String {
        const CLASSES: [&[char]; 6] = [
            &['a', 'Z', '0', ' ', '/', '~', '{', ']', ':', ','],
            &['é', 'ß', 'ü', '\u{80}', '\u{7ff}'],
            &['€', '中', '\u{800}', '\u{fffd}', '\u{ffff}'],
            &['😀', '𝄞', '\u{10000}', '\u{10ffff}'],
            &['"', '\\'],
            &[], // stands for all 32 control characters
        ];
        let mut s = String::new();
        for _ in 0..crate::net::xorshift(state) % 24 {
            let class = (crate::net::xorshift(state) % 6) as usize;
            for _ in 0..1 + crate::net::xorshift(state) % 3 {
                let pick = crate::net::xorshift(state);
                s.push(match CLASSES[class] {
                    [] => char::from_u32((pick % 0x20) as u32).expect("control chars are scalars"),
                    chars => chars[pick as usize % chars.len()],
                });
            }
        }
        s
    }

    #[test]
    fn generated_strings_round_trip_through_the_run_scan() {
        // Fixed cases first: every run ends right before or right after
        // an escape or a multibyte scalar.
        let fixed = ["", "\"", "\\", "\\\"", "€\"", "\"😀", "a\\é", "😀\\😀", "\u{1}€", "中\u{1f}"];
        let mut state = 0x0c0d_ec5a_u64 | 1;
        let mut seen_controls = [false; 0x20];
        for case in 0..3000 {
            let s = match fixed.get(case) {
                Some(s) => s.to_string(),
                None => generated_string(&mut state),
            };
            s.chars().filter(|&c| (c as u32) < 0x20).for_each(|c| seen_controls[c as usize] = true);
            let doc = JsonValue::Object(vec![
                (s.clone(), JsonValue::Text(s.clone())),
                ("list".into(), JsonValue::Array(vec![JsonValue::Text(s.clone()); 2])),
            ]);
            let text = doc.render();
            assert_eq!(JsonValue::parse(&text), Ok(doc), "case {case}: {s:?}");

            // Cut off the closing quote (and everything after it): the
            // error still names the byte just past the opening quote.
            let value = JsonValue::Text(s.clone()).render();
            let open = "[0, ".len() + 1;
            let err = JsonValue::parse(&format!("[0, {}", &value[..value.len() - 1])).unwrap_err();
            assert_eq!(err, format!("unterminated string starting at byte {open}"), "case {case}");
        }
        assert!(seen_controls.iter().all(|&seen| seen), "every control character was generated");
    }

    #[test]
    fn decoding_is_linear_in_document_size() {
        // ~200k short strings, a few MB. The per-character scan this
        // replaced re-validated the rest of the document for every
        // character: 35 s for a tenth of this input in a debug build on a
        // 2-vCPU virtual machine, and over an hour for all of it. A return
        // of it shows up as a hang, not as a flaky timing assertion.
        let strings: Vec<JsonValue> =
            (0..200_000u64).map(|i| JsonValue::Text(format!("lib{i}.so·\"ü\""))).collect();
        let doc = JsonValue::Array(strings);
        let text = doc.render();
        assert!(text.len() > 4_000_000, "{} bytes", text.len());
        assert_eq!(JsonValue::parse(&text), Ok(doc));
    }

    #[test]
    fn duplicate_keys_are_rejected_inside_nested_objects() {
        let err = JsonValue::parse("{\"outer\": {\"dup\": 1, \"dup\": 2}}").unwrap_err();
        assert!(err.contains("dup"), "error names the offending key: {err}");
        let err = JsonValue::parse("[{\"a\": 0}, {\"k\": {\"k2\": 1, \"k2\": 2}}]").unwrap_err();
        assert!(err.contains("k2"), "rejection applies at every nesting level: {err}");
        // Same key at *different* levels is legal.
        JsonValue::parse("{\"k\": {\"k\": 1}}").expect("shadowing across levels is fine");
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        JsonValue::parse(&deep(MAX_PARSE_DEPTH)).expect("nesting at the bound parses");
        let err = JsonValue::parse(&deep(MAX_PARSE_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        // Mixed object/array nesting counts against the same budget.
        let mixed =
            format!("{}0{}", "{\"k\": [".repeat(MAX_PARSE_DEPTH), "]}".repeat(MAX_PARSE_DEPTH));
        assert!(JsonValue::parse(&mixed).is_err(), "2x the bound via mixed containers");
        // Siblings do not accumulate: depth is current nesting, not totals.
        let wide = format!("[{}]", vec!["[0]"; MAX_PARSE_DEPTH * 2].join(", "));
        JsonValue::parse(&wide).expect("many shallow siblings parse");
    }

    #[test]
    fn nested_and_unicode_content_round_trips() {
        let text = "{\"label\": \"PyTorch/Träin/MobileNetV2\", \"nest\": [[1, 2], {\"x\": null}]}";
        let doc = JsonValue::parse(text).unwrap();
        assert_eq!(doc.get("label").and_then(JsonValue::as_str), Some("PyTorch/Träin/MobileNetV2"));
        let rendered = doc.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), doc);
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        let doc = JsonValue::Text("line1\nline2\ttab\u{1}".into());
        let text = doc.render();
        assert!(!text.bytes().any(|b| b < 0x20), "no raw control bytes in rendered JSON: {text:?}");
        assert!(text.contains("\\u000a") && text.contains("\\u0009"), "{text}");
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        // Arbitrary \u escapes decode too; invalid ones are rejected.
        assert_eq!(JsonValue::parse("\"\\u0041\"").unwrap(), JsonValue::Text("A".into()));
        assert!(JsonValue::parse("\"\\u12\"").is_err(), "truncated escape");
        assert!(JsonValue::parse("\"\\ud800\"").is_err(), "lone surrogate");
    }

    #[test]
    fn non_finite_numbers_render_as_null_never_invalid_json() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = JsonValue::Number(bad).render();
            assert_eq!(text, "null", "JSON cannot carry {bad}");
            JsonValue::parse(&text).expect("the fallback stays parseable");
        }
    }

    #[test]
    fn content_hash_is_bit_sensitive() {
        let a = content_hash(b"negativa");
        assert_eq!(a, content_hash(b"negativa"), "deterministic");
        assert_ne!(a, content_hash(b"negativb"));
        assert_ne!(content_hash(&[0x00]), content_hash(&[0x01]));
        assert_ne!(content_hash(b""), content_hash(&[0x00]), "length is part of the digest");

        // Every single-bit flip of a random buffer, at every length
        // 0..=100: crosses the 32-byte stripe loop and every 8/4/1-byte
        // tail combination after it.
        let mut state = 0x5eed_cafe_f00d_d00d;
        let buffer: Vec<u8> = (0..100).map(|_| crate::net::xorshift(&mut state) as u8).collect();
        for len in 0..=buffer.len() {
            let mut bytes = buffer[..len].to_vec();
            let digest = content_hash(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(content_hash(&bytes), digest, "flipping bit {bit} of {len} bytes");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn content_hash_matches_the_published_xxh64_vectors() {
        assert_eq!(content_hash(b""), 0xef46_db37_51d8_e999);
        assert_eq!(content_hash(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(content_hash(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(content_hash(b"Nobody inspects the spammish repetition"), 0xfbce_a83c_8a37_8bf1);
    }
}
