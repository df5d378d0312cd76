//! Minimal dependency-free JSON: an emitter plus a small recursive-descent
//! parser. Shared by the trace reports (and their golden fixture) and the
//! serving layer's `/metrics` endpoint and request bodies — all of which
//! need stable, diffable output without pulling in an external crate.
//!
//! This is deliberately not a general JSON library: it supports exactly
//! the subset those files use (objects, arrays, strings without exotic
//! escapes, finite numbers, booleans, null) and keeps object keys in
//! insertion order so emitted files are stable and diffable.

use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser. The parser is
/// recursive-descent, and `/metrics`-adjacent callers feed it untrusted
/// HTTP bodies — without a cap, a few hundred KiB of `[` overflows the
/// handler thread's stack and aborts the process.
const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (the emitter rejects NaN/infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: a finite number. Panics on NaN/infinite input — a
    /// perf baseline with unrepresentable numbers is a bug upstream.
    pub fn num(v: f64) -> Json {
        assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
        Json::Num(v)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a `.`-separated path of object keys.
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                // Integers print without a fractional part; everything else
                // with enough digits to round-trip comparisons in tests.
                let _ = if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(out, "{}", *v as i64)
                } else {
                    write!(out, "{v}")
                };
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses JSON text. Errors carry a byte offset and message.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Two spaces per nesting level.
fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// A quoted, escaped string: object keys and string values alike.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {}, found {:?}",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
            *pos
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&c| c as char),
            *pos
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::Num(v)),
        Ok(_) => Err(format!("number `{text}` at byte {start} overflows f64")),
        Err(e) => Err(format!("bad number `{text}` at byte {start}: {e}")),
    }
}

/// Reads the four hex digits of a `\u` escape starting at `at`: exactly
/// four ASCII hex digits, no sign.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    match bytes.get(at..at + 4) {
        Some(hex) if hex.iter().all(u8::is_ascii_hexdigit) => {
            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
            u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
        }
        _ => Err(format!("\\u escape at byte {at} needs four hex digits")),
    }
}

/// Decodes the `\u` escape whose `u` is at `*pos`, leaving `*pos` on its
/// last hex digit. A UTF-16 high surrogate must be followed by an escaped
/// low surrogate, and the pair decodes to one non-BMP character; a lone
/// surrogate of either half is an error.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos;
    let code = hex4(bytes, at + 1)?;
    *pos += 4;
    let code = match code {
        0xd800..=0xdbff => {
            if bytes.get(*pos + 1..*pos + 3) != Some(&b"\\u"[..]) {
                return Err(format!("unpaired high surrogate at byte {at}"));
            }
            let low = hex4(bytes, *pos + 3)?;
            if !(0xdc00..=0xdfff).contains(&low) {
                return Err(format!("unpaired high surrogate at byte {at}"));
            }
            *pos += 6;
            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
        }
        0xdc00..=0xdfff => return Err(format!("unpaired low surrogate at byte {at}")),
        code => code,
    };
    char::from_u32(code).ok_or_else(|| format!("invalid \\u escape at byte {at}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => out.push(parse_unicode_escape(bytes, pos)?),
                    other => {
                        return Err(format!("bad escape {:?} at byte {}", other, *pos));
                    }
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 passes through unchanged.
                let s = &bytes[*pos..];
                let ch_len = match s[0] {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = std::str::from_utf8(&s[..ch_len.min(s.len())])
                    .map_err(|e| format!("bad UTF-8 at byte {}: {e}", *pos))?;
                out.push_str(chunk);
                *pos += chunk.len();
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected `,` or `]` at byte {}, found {:?}",
                    *pos,
                    other.map(|&c| c as char)
                ));
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            other => {
                return Err(format!(
                    "expected `,` or `}}` at byte {}, found {:?}",
                    *pos,
                    other.map(|&c| c as char)
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_shape() {
        let doc = Json::obj(vec![
            ("schema", Json::str("example/v1")),
            ("created_unix_s", Json::num(1_722_000_000.0)),
            ("quick", Json::Bool(true)),
            (
                "kernels",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("mm_256x256x256")),
                    ("serial_ms", Json::num(12.5)),
                    ("speedup_parallel", Json::num(3.02)),
                ])]),
            ),
        ]);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("parse");
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed
                .get_path("kernels")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            parsed.get_path("schema").and_then(Json::as_str),
            Some("example/v1")
        );
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num(4.0).render(), "4\n");
        assert_eq!(Json::num(0.25).render(), "0.25\n");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // 100k nested arrays fits well under the 1 MiB serve body cap but
        // would blow the stack without the depth limit.
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).expect_err("must be rejected");
        assert!(err.contains("nesting deeper"), "got {err}");

        // Object nesting is bounded by the same cap.
        let nested_obj = "{\"k\":".repeat(1_000) + "1" + &"}".repeat(1_000);
        let err = Json::parse(&nested_obj).expect_err("must be rejected");
        assert!(err.contains("nesting deeper"), "got {err}");

        // Depth at or below the cap still parses.
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let doc = Json::str("line\nquote\" back\\slash\ttab");
        let parsed = Json::parse(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        // The serving layer relies on f32 → JSON → f32 round-trips being
        // exact: Rust's shortest-repr float printing plus an f64 parse
        // recovers the original f32 bit pattern.
        for bits in [0x3f80_0001u32, 0xbf7f_fffe, 0x0000_0001, 0x7f7f_ffff] {
            let v = f32::from_bits(bits);
            let doc = Json::num(v as f64);
            let parsed = Json::parse(&doc.render()).expect("parse");
            let back = parsed.as_num().expect("num") as f32;
            assert_eq!(back.to_bits(), bits, "f32 {v} must survive the trip");
        }
    }

    #[test]
    fn render_is_pinned_for_a_fixed_document() {
        let doc = Json::obj(vec![
            ("schema", Json::str("timekd-serve-metrics/v1")),
            ("count", Json::num(42.0)),
            ("neg", Json::num(-7.0)),
            ("mean", Json::num(0.125)),
            ("tiny", Json::num(1.5e-7)),
            ("big", Json::num(1e15)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![Json::num(1.0), Json::num(-2.5)]),
                    Json::obj(vec![("a\"b\tc", Json::str("q\"\u{1}é"))]),
                ]),
            ),
        ]);
        let want = r#"{
  "schema": "timekd-serve-metrics/v1",
  "count": 42,
  "neg": -7,
  "mean": 0.125,
  "tiny": 0.00000015,
  "big": 1000000000000000,
  "ok": true,
  "none": null,
  "empty_arr": [],
  "empty_obj": {},
  "rows": [
    [
      1,
      -2.5
    ],
    {
      "a\"b\tc": "q\"\u0001é"
    }
  ]
}
"#;
        assert_eq!(doc.render(), want);
    }

    /// splitmix64: a tiny seeded generator (this crate has no dependencies).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            const CHARS: [char; 14] = [
                'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', '😀',
            ];
            (0..self.below(6))
                .map(|_| CHARS[self.below(CHARS.len() as u64) as usize])
                .collect()
        }

        fn num(&mut self) -> f64 {
            let int = self.below(2_000_000) as f64 - 1e6;
            match self.below(3) {
                0 => int,
                1 => int / 1024.0,
                _ => int * 1e-3 + (self.below(1000) as f64) * 1e-9,
            }
        }

        fn tree(&mut self, depth: usize) -> Json {
            let leaf_only = depth >= 4;
            match self.below(if leaf_only { 4 } else { 6 }) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 0),
                2 => Json::num(self.num()),
                3 => Json::Str(self.string()),
                4 => Json::Arr((0..self.below(4)).map(|_| self.tree(depth + 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(4))
                        .map(|_| (self.string(), self.tree(depth + 1)))
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn parse_inverts_render_on_random_trees() {
        let mut rng = Rng(0x7153_6b64);
        for case in 0..2_000 {
            let doc = rng.tree(0);
            let text = doc.render();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, doc, "case {case}:\n{text}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        // Two distinct non-BMP characters must stay distinct (tenant IDs
        // are JSON strings).
        let grin = Json::parse(r#""\ud83d\ude00""#).expect("pair parses");
        let beam = Json::parse(r#""\ud83d\ude01""#).expect("pair parses");
        assert_eq!(grin, Json::str("\u{1f600}"));
        assert_eq!(beam, Json::str("\u{1f601}"));
        assert_eq!(
            Json::parse(r#""a\uD83D\uDE00b""#).expect("upper-case hex"),
            Json::str("a\u{1f600}b")
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(Json::parse(lone).is_err(), "{lone} must be rejected");
        }
    }

    #[test]
    fn overflowing_numbers_are_rejected() {
        for text in ["1e999", "-1e999", "[1e400]", "{\"a\": 2e308}"] {
            assert!(Json::parse(text).is_err(), "{text} must be rejected");
        }
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
        // Underflow is representable (it rounds to zero), not an error.
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        for text in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004g""#,
            r#""\u04""#,
            r#""\u""#,
        ] {
            assert!(Json::parse(text).is_err(), "{text} must be rejected");
        }
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::str("A"));
        assert_eq!(Json::parse(r#""\u00e9x""#).unwrap(), Json::str("éx"));
    }

    /// Nesting depth of the deepest value, counted like the parser's
    /// depth guard: the top-level value sits at depth 0.
    fn value_depth(v: &Json) -> usize {
        match v {
            Json::Arr(items) if !items.is_empty() => {
                1 + items.iter().map(value_depth).max().unwrap_or(0)
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                1 + pairs.iter().map(|(_, v)| value_depth(v)).max().unwrap_or(0)
            }
            _ => 0,
        }
    }

    fn all_finite(v: &Json) -> bool {
        match v {
            Json::Num(n) => n.is_finite(),
            Json::Arr(items) => items.iter().all(all_finite),
            Json::Obj(pairs) => pairs.iter().all(|(_, v)| all_finite(v)),
            _ => true,
        }
    }

    impl Rng {
        /// Applies 1–4 seeded byte flips, inserts (single bytes or
        /// JSON-significant snippets), deletes and truncations.
        fn mutate(&mut self, text: &str) -> String {
            const SNIPPETS: [&str; 12] = [
                "\\ud83d", "\\ude00", "\\u+041", "\\u00", "1e999", "-", "[", "]", "{", "\"", ",",
                ":",
            ];
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..1 + self.below(4) {
                let at = self.below(bytes.len() as u64 + 1) as usize;
                match self.below(5) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << self.below(8),
                    1 => bytes.insert(at, self.below(128) as u8),
                    2 => {
                        let snippet = SNIPPETS[self.below(SNIPPETS.len() as u64) as usize];
                        bytes.splice(at..at, snippet.bytes());
                    }
                    3 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }

    #[test]
    fn parse_survives_mutated_documents() {
        // Seeded mutation fuzz over rendered random trees: the parser
        // never panics, accepts only finite numbers, every accepted value
        // round-trips through `render`, and nothing nested deeper than
        // the cap is accepted.
        let mut rng = Rng(0x5eed_f022);
        let mut accepted = 0;
        for case in 0..20_000 {
            let doc = rng.tree(0);
            let text = rng.mutate(&doc.render());
            let Ok(v) = Json::parse(&text) else { continue };
            accepted += 1;
            assert!(
                all_finite(&v),
                "case {case}: non-finite number from {text:?}"
            );
            assert!(value_depth(&v) <= MAX_PARSE_DEPTH, "case {case}: too deep");
            let back =
                Json::parse(&v.render()).unwrap_or_else(|e| panic!("case {case}: {e}\n{text:?}"));
            assert_eq!(back, v, "case {case}: {text:?}");
        }
        assert!(accepted > 1_000, "only {accepted} mutants parsed");

        // Wrapping an accepted document in `k` arrays is accepted exactly
        // while its deepest value stays within the cap.
        for case in 0..200 {
            let doc = rng.tree(0);
            let k = MAX_PARSE_DEPTH - 4 + rng.below(10) as usize;
            let text = "[".repeat(k) + &doc.render() + &"]".repeat(k);
            let within = value_depth(&doc) + k <= MAX_PARSE_DEPTH;
            assert_eq!(Json::parse(&text).is_ok(), within, "case {case}: k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_is_rejected_at_build_time() {
        let _ = Json::num(f64::NAN);
    }
}
