//! The workspace's one JSON reader.
//!
//! The workspace carries no serialization dependency, so its exporters
//! hand-roll JSON *writing*; this module is the matching *reader*, used
//! by the plan-profile loader, the perf-report round-trip validation and
//! tests. It parses the full JSON grammar into an owned tree. Unsigned
//! integer literals that fit a `u64` are kept exactly ([`JsonValue::Int`],
//! so full-width profile fingerprints round-trip); every other number is
//! an `f64`. Object keys keep insertion order, and nesting is bounded so
//! a hostile document cannot overflow the stack.

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer literal that fits a `u64`, kept exactly.
    Int(u64),
    /// Any other number, as `f64`.
    Num(f64),
    /// String with escapes decoded.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Number as `u64` if it is a non-negative integer in range: exact
    /// for integer literals, and for an `f64` only below `2^64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// Borrowed string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrowed element vector, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Borrowed members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Maximum nesting depth of arrays and objects.
const MAX_DEPTH: usize = 32;

/// Parses one JSON document; trailing non-whitespace is an error.
/// Errors name the byte offset they were detected at.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if let Ok(v) = text.parse::<u64>() {
        return Ok(JsonValue::Int(v));
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    // The input is a `&str`, so copying its bytes verbatim and appending
    // decoded escapes as UTF-8 keeps `out` valid UTF-8.
    let mut out = Vec::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        let c = match b {
            b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
            b'\\' => match bytes.get(*pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = bytes
                        .get(*pos + 1..*pos + 5)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                    *pos += 4;
                    char::from_u32(hex).unwrap_or('\u{fffd}')
                }
                _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
            },
            _ => {
                out.push(b);
                continue;
            }
        };
        *pos += 1;
        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

/// Escapes a string for embedding in emitted JSON.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` so it round-trips exactly through [`parse`] and is
/// valid JSON (no `NaN`/`inf`; those become `0`).
pub fn format_f64(v: f64) -> String {
    // Rust prints integral floats without a dot; both forms are JSON.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let doc = parse(r#"{"a": 1, "b": [true, false, null, -2.5e3], "c": {"nested": "x\nyA"}}"#)
            .unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(1));
        let arr = doc.get("b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[2], JsonValue::Null);
        assert_eq!(arr[3].as_f64(), Some(-2500.0));
        assert_eq!(
            doc.get("c")
                .and_then(|c| c.get("nested"))
                .and_then(JsonValue::as_str),
            Some("x\nyA")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "12 34",
            "\"abc",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn float_formatting_round_trips() {
        for v in [0.0, 1.0, -3.75, 0.1, 123456789.123, 1e-12, f64::MAX] {
            let text = format_f64(v);
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, v, "via {text}");
        }
        assert_eq!(format_f64(f64::NAN), "0");
        assert_eq!(format_f64(f64::INFINITY), "0");
    }

    #[test]
    fn escape_round_trips() {
        let original = "a\"b\\c\nd\te\u{1}";
        let doc = parse(&format!("\"{}\"", escape(original))).unwrap();
        assert_eq!(doc.as_str(), Some(original));
    }

    #[test]
    fn object_key_order_is_preserved() {
        let doc = parse(r#"{"z":1,"a":2}"#).unwrap();
        let members = doc.as_obj().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
    }

    #[test]
    fn parses_profile_shaped_document() {
        let v = parse(r#"{"version":1,"entries":[{"op":"N","fp":18446744073709551615}]}"#).unwrap();
        assert_eq!(v.get("version").and_then(JsonValue::as_u64), Some(1));
        let entries = v.get("entries").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(entries[0].get("op").and_then(JsonValue::as_str), Some("N"));
        // Full-width u64 survives (an f64 would round it to 2^64).
        assert_eq!(entries[0].get("fp"), Some(&JsonValue::Int(u64::MAX)));
        assert_eq!(
            entries[0].get("fp").and_then(JsonValue::as_u64),
            Some(u64::MAX)
        );
    }

    #[test]
    fn whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"s\" : \"x\\\"y\\\\z\" } ").unwrap();
        assert_eq!(
            v.get("a")
                .and_then(JsonValue::as_arr)
                .map(<[JsonValue]>::len),
            Some(2)
        );
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\"y\\z"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "[1,",
            "{\"a\":}",
            "{\"a\":1}extra",
            "{\"a\" 1}",
            "\"unterminated",
            "{\"e\":\"\\q\"}",
            "tru",
            "-",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_bounded() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn out_of_range_extraction_is_none() {
        for text in [
            "340282366920938463463374607431768211455",
            "18446744073709551616",
            "-1",
            "1.5",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text}");
        }
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }
}
