//! Minimal dependency-free JSON: an emitter plus a small recursive-descent
//! parser. Shared by the trace reports (and their golden fixture) and the
//! serving layer's `/metrics` endpoint and request bodies — all of which
//! need stable, diffable output without pulling in an external crate.
//!
//! This is deliberately not a general JSON library: it supports exactly
//! the subset those files use (objects, arrays, strings without exotic
//! escapes, finite numbers, booleans, null) and keeps object keys in
//! insertion order so emitted files are stable and diffable.
//!
//! There is one parser with two readers on top. [`Json::parse`] builds a
//! tree. [`decode_body`] is the typed read of a request body: it puts one
//! number matrix straight into a flat `Vec<f32>` and keeps one string,
//! with no `Json` node per row or cell. Both walk objects and arrays with
//! the same primitives, enter every value through the same depth check,
//! and read numbers with the same reader. So a body gets the same
//! acceptance, error text and values from both. The number reader takes
//! an exact fast path (Clinger's) for a plain decimal whose digits form an
//! integer of at most 2^53, at most 22 of them after the point, and hands
//! every other token to `str::parse::<f64>`; see `parse_num`.

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
        parse_document(text.as_bytes(), |bytes, pos| parse_value(bytes, pos, 0))
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

/// Reads one document with `read`, then allows only trailing whitespace.
fn parse_document<T>(
    bytes: &[u8],
    read: impl FnOnce(&[u8], &mut usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut pos = 0;
    let value = read(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Starts a value at nesting `depth`: enforces the depth cap, skips
/// whitespace and peeks the value's first byte. Typed and tree reads
/// both enter every value here, so they fail on the same byte with the
/// same text.
fn enter(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Option<u8>, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
            *pos
        ));
    }
    skip_ws(bytes, pos);
    Ok(bytes.get(*pos).copied())
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    match enter(bytes, pos, depth)? {
        Some(b'{') => {
            let mut pairs = Vec::new();
            parse_obj(bytes, pos, depth, |key, bytes, pos, depth| {
                pairs.push((key, parse_value(bytes, pos, depth)?));
                Ok(())
            })?;
            Ok(Json::Obj(pairs))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            parse_arr(bytes, pos, depth, |bytes, pos, depth| {
                items.push(parse_value(bytes, pos, depth)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || c == b'-' => Ok(Json::Num(parse_num(bytes, pos)?)),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(char::from),
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

/// Largest mantissa the number reader's fast path takes: every integer
/// up to 2^53 is an exact f64.
const FAST_MANTISSA_MAX: u64 = 1 << 53;

/// 10^0 ..= 10^22, the powers of ten that are exact f64s (5^22 < 2^53).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The number reader, for tree and typed reads alike. The token is the
/// run of `[0-9+\-.eE]` at `*pos`. A token shaped exactly
/// `-?[0-9]+(\.[0-9]+)?` whose digits form a mantissa `w ≤ 2^53` with at
/// most 22 of them after the point is `±w / 10^frac`: both operands are
/// exact f64s, and one correctly rounded division of exact operands is
/// the correctly rounded value of the decimal, which is what
/// `str::parse::<f64>` returns (Clinger's fast path). Every other token
/// goes to `str::parse::<f64>` itself, so the accepted tokens and every
/// decoded bit are those of `str::parse`; a non-finite result is an
/// error.
fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    let fast = read_decimal(bytes, pos);
    let shaped_end = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if let (Some(v), true) = (fast, *pos == shaped_end) {
        return Ok(v);
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(format!("number `{text}` at byte {start} overflows f64")),
        Err(e) => Err(format!("bad number `{text}` at byte {start}: {e}")),
    }
}

/// Scans the longest `-?[0-9]+(\.[0-9]+)?` prefix at `*pos` (possibly
/// only part of it, when it breaks off early) and returns its exact value
/// when the fast path of [`parse_num`] applies to it.
fn read_decimal(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    let neg = bytes.get(*pos) == Some(&b'-');
    if neg {
        *pos += 1;
    }
    let mut w = 0;
    if read_digits(bytes, pos, &mut w) == 0 {
        return None;
    }
    let mut frac = 0;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        frac = read_digits(bytes, pos, &mut w);
        if frac == 0 {
            return None;
        }
    }
    if w > FAST_MANTISSA_MAX || frac >= POW10.len() {
        return None;
    }
    let v = w as f64 / POW10[frac];
    Some(if neg { -v } else { v })
}

/// Consumes a run of ASCII digits and returns its length, folding the
/// digits into the mantissa `w`. Once `w` passes [`FAST_MANTISSA_MAX`] it
/// stops changing, so it only records that the fast path is out of reach
/// (and cannot overflow).
fn read_digits(bytes: &[u8], pos: &mut usize, w: &mut u64) -> usize {
    let start = *pos;
    while let Some(&c) = bytes.get(*pos) {
        if !c.is_ascii_digit() {
            break;
        }
        if *w <= FAST_MANTISSA_MAX {
            *w = *w * 10 + u64::from(c - b'0');
        }
        *pos += 1;
    }
    *pos - start
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

/// Walks an array, calling `elem` with the cursor before each element
/// and the element's depth; `elem` must consume exactly one value.
fn parse_arr(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    mut elem: impl FnMut(&[u8], &mut usize, usize) -> Result<(), String>,
) -> Result<(), String> {
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        elem(bytes, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
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

/// Walks an object, calling `member` with each key, the cursor before its
/// value and the value's depth; `member` must consume exactly one value.
fn parse_obj(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    mut member: impl FnMut(String, &[u8], &mut usize, usize) -> Result<(), String>,
) -> Result<(), String> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        member(key, bytes, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
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

/// How [`decode_body`] checks the width of each matrix row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowWidth {
    /// Every row must hold exactly this many values.
    Fixed(usize),
    /// Row 0 sets the width and must not be empty.
    FirstRow,
}

/// The first row, in row order, that breaks a matrix's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowFault {
    /// Row `row` is not an array.
    NotArray {
        /// Row index.
        row: usize,
    },
    /// Row `row` holds `len` values, which the width rule refuses.
    Width {
        /// Row index.
        row: usize,
        /// Values the row holds.
        len: usize,
    },
    /// Cell `col` of row `row` is not a number, or its value overflows
    /// f32. Within one row a width fault outranks a cell fault.
    Cell {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
    },
}

/// A number matrix read straight into row-major f32s by [`decode_body`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct F32Rows {
    /// Every finite cell, row-major; the whole matrix when `fault` is
    /// `None`.
    pub values: Vec<f32>,
    /// Number of rows.
    pub rows: usize,
    /// The width rows are checked against: the fixed width, or row 0's
    /// length (0 when row 0 is not an array).
    pub width: usize,
    /// The first shape fault, if any.
    pub fault: Option<RowFault>,
}

/// What [`decode_body`] read from a document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Body {
    /// The first `rows_key` member of the top-level object, when it is an
    /// array.
    pub rows: Option<F32Rows>,
    /// The first `str_key` member of the top-level object, when it is a
    /// string.
    pub text: Option<String>,
}

/// The typed read of a request body: the first `rows_key` member of the
/// top-level object goes straight into one flat f32 buffer (no `Json`
/// node per row or cell), the first `str_key` member is kept when it is
/// a string, and every other value is read and dropped by the tree
/// parser. It accepts exactly the texts [`Json::parse`] accepts and
/// fails with the same error, and its fields are
/// `doc.get(rows_key).and_then(Json::as_arr)` read into f32s and
/// `doc.get(str_key).and_then(Json::as_str)`.
pub fn decode_body(
    text: &str,
    rows_key: &str,
    width: RowWidth,
    str_key: &str,
) -> Result<Body, String> {
    parse_document(text.as_bytes(), |bytes, pos| {
        let mut body = Body::default();
        if enter(bytes, pos, 0)? != Some(b'{') {
            parse_value(bytes, pos, 0)?;
            return Ok(body);
        }
        let (mut rows_seen, mut text_seen) = (false, false);
        parse_obj(bytes, pos, 0, |key, bytes, pos, depth| {
            if key == rows_key && !rows_seen {
                rows_seen = true;
                if enter(bytes, pos, depth)? == Some(b'[') {
                    body.rows = Some(read_rows(bytes, pos, depth, width)?);
                    return Ok(());
                }
            } else if key == str_key && !text_seen {
                text_seen = true;
                if enter(bytes, pos, depth)? == Some(b'"') {
                    body.text = Some(parse_string(bytes, pos)?);
                    return Ok(());
                }
            }
            parse_value(bytes, pos, depth).map(drop)
        })?;
        Ok(body)
    })
}

/// Reads the array of rows at `*pos` into an [`F32Rows`], recording the
/// first shape fault and reading on, so a later syntax error still wins.
fn read_rows(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    width: RowWidth,
) -> Result<F32Rows, String> {
    let mut m = F32Rows {
        width: match width {
            RowWidth::Fixed(n) => n,
            RowWidth::FirstRow => 0,
        },
        ..F32Rows::default()
    };
    parse_arr(bytes, pos, depth, |bytes, pos, depth| {
        let row = m.rows;
        m.rows += 1;
        if enter(bytes, pos, depth)? != Some(b'[') {
            parse_value(bytes, pos, depth)?;
            m.fault.get_or_insert(RowFault::NotArray { row });
            return Ok(());
        }
        let (mut len, mut bad_col) = (0, None);
        let values = &mut m.values;
        parse_arr(bytes, pos, depth, |bytes, pos, depth| {
            let v = match enter(bytes, pos, depth)? {
                Some(c) if c.is_ascii_digit() || c == b'-' => parse_num(bytes, pos)? as f32,
                _ => {
                    parse_value(bytes, pos, depth)?;
                    f32::NAN
                }
            };
            if v.is_finite() {
                values.push(v);
            } else {
                bad_col.get_or_insert(len);
            }
            len += 1;
            Ok(())
        })?;
        let width_ok = match width {
            RowWidth::Fixed(n) => len == n,
            RowWidth::FirstRow if row == 0 => {
                m.width = len;
                len > 0
            }
            RowWidth::FirstRow => len == m.width,
        };
        if m.fault.is_none() {
            m.fault = if !width_ok {
                Some(RowFault::Width { row, len })
            } else {
                bad_col.map(|col| RowFault::Cell { row, col })
            };
        }
        Ok(())
    })?;
    Ok(m)
}

/// Seeded mutation fuzzing, shared by this module's parser tests and the
/// serving layer's request-decode tests.
#[doc(hidden)]
pub mod fuzz {
    /// splitmix64: a tiny seeded generator (this crate has no dependencies).
    #[derive(Debug)]
    pub struct Rng(pub u64);

    impl Rng {
        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A value in `0..n`.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Applies 1–4 seeded byte flips, inserts (single bytes or
        /// JSON-significant snippets), deletes and truncations.
        pub fn mutate(&mut self, text: &str) -> String {
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
}

#[cfg(test)]
mod tests {
    use super::fuzz::Rng;
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

    impl Rng {
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

    /// Reads `token` with the number reader and with `str::parse::<f64>`:
    /// both give the same bits or both reject it (a non-finite parse
    /// counts as a rejection, since JSON numbers are finite). Returns
    /// whether the reader's fast path decided the token.
    fn reader_agrees_with_std(token: &str) -> bool {
        let bytes = token.as_bytes();
        let mut pos = 0;
        let got = parse_num(bytes, &mut pos)
            .ok()
            .filter(|_| pos == bytes.len());
        let want = token.parse::<f64>().ok().filter(|v| v.is_finite());
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "token {token:?}: reader {got:?}, str::parse {want:?}"
        );
        let mut pos = 0;
        read_decimal(bytes, &mut pos).is_some() && pos == bytes.len()
    }

    fn digits(rng: &mut Rng, n: u64) -> String {
        (0..n)
            .map(|_| char::from(b'0' + rng.below(10) as u8))
            .collect()
    }

    #[test]
    fn number_reader_matches_str_parse_bit_for_bit() {
        let mut rng = Rng(0x6e75_6d62);
        let (mut fast, mut slow) = (0, 0);
        let mut tally = |hit: bool| if hit { fast += 1 } else { slow += 1 };

        // Every f32 `Display` render (what the serving clients send),
        // and the f64 render of the widened value (what replies carry).
        for _ in 0..20_000 {
            let v = f32::from_bits(rng.next_u64() as u32);
            tally(reader_agrees_with_std(&v.to_string()));
            tally(reader_agrees_with_std(&(v as f64).to_string()));
        }

        // Digit strings across each fast-path limit: 19 and 20 digits,
        // mantissas around 2^53, and 21 to 24 fraction digits, with the
        // point anywhere and leading zeros that keep the mantissa small.
        for _ in 0..20_000 {
            let sign = if rng.below(2) == 0 { "" } else { "-" };
            let (zeros, len) = (rng.below(4) as usize, rng.below(24));
            let mantissa = match rng.below(4) {
                0 => digits(&mut rng, 19 + len % 2),
                1 => (FAST_MANTISSA_MAX - 2 + len % 5).to_string(),
                2 => "0".repeat(zeros) + &digits(&mut rng, 1 + len % 16),
                _ => digits(&mut rng, 1 + len),
            };
            let token = match rng.below(3) {
                0 => format!("{sign}{mantissa}"),
                1 => {
                    let at = 1 + rng.below(mantissa.len() as u64) as usize;
                    let (int, frac) = mantissa.split_at(at.min(mantissa.len() - 1).max(1));
                    format!("{sign}{int}.{frac}")
                }
                _ => {
                    let frac_len = 21 + rng.below(4) as usize;
                    let tail = &mantissa[..mantissa.len().min(frac_len)];
                    format!("{sign}0.{}{tail}", "0".repeat(frac_len - tail.len()))
                }
            };
            tally(reader_agrees_with_std(&token));
        }
        assert!(
            fast > 20_000 && slow > 10_000,
            "fast {fast}, fallback {slow}"
        );

        // Hand-picked tokens, and the exact limits: 2^53 and 22 fraction
        // digits take the fast path, one past either does not.
        for token in [
            "-0", "-0.0", "00.5", "1.", "-", "1e5", "1E+5", "1e400", "0", "-1e-999", ".5", "1.5.2",
            "--1", "1-", "+1", "",
        ] {
            reader_agrees_with_std(token);
        }
        for (token, takes_fast_path) in [
            ("9007199254740992", true),
            ("9007199254740993", false),
            ("-900719925474099.2", true),
            ("900719925474099.3", false),
            ("0.0000000000000000000001", true),
            ("0.00000000000000000000001", false),
            ("1234567890123456789", false),
            ("0000000000000000000001", true),
        ] {
            assert_eq!(reader_agrees_with_std(token), takes_fast_path, "{token}");
        }
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
