//! CSV and JSONL codecs plus a minimal JSON document model.
//!
//! The synthetic datasets (MACCROBAT-like annotation files, tweet tables,
//! product catalogues) are materialized as text in these formats, and the
//! workflow engine's "GUI" is rendered as JSON documents. Both engines pay
//! decode costs proportional to the text they consume, so the codecs also
//! report byte counts.

use std::fmt::Write as _;

use crate::batch::{Batch, BatchBuilder};
use crate::error::{DataError, DataResult};
use crate::schema::SchemaRef;
use crate::value::{DataType, Value};

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

/// Encode a batch as CSV with a header row.
///
/// Fields containing commas, quotes, or newlines are quoted; quotes are
/// doubled (RFC 4180 style). `Null` encodes as the empty field.
pub fn to_csv(batch: &Batch) -> String {
    let mut out = String::new();
    let names: Vec<&str> = batch.schema().fields().iter().map(|f| f.name()).collect();
    push_csv_row(&mut out, names.iter().copied());
    for t in batch.tuples() {
        let cells: Vec<String> = t.values().iter().map(csv_cell).collect();
        push_csv_row(&mut out, cells.iter().map(String::as_str));
    }
    out
}

fn csv_cell(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        other => other.to_string(),
    }
}

fn push_csv_row<'a>(out: &mut String, cells: impl Iterator<Item = &'a str>) {
    for (i, cell) in cells.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains([',', '"', '\n']) {
            out.push('"');
            for ch in cell.chars() {
                if ch == '"' {
                    out.push('"');
                }
                out.push(ch);
            }
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

/// Decode CSV text (with header) into a batch typed by `schema`.
///
/// The header must list exactly the schema's columns, in order. Empty
/// fields decode as `Null`; other fields parse according to the declared
/// column type.
pub fn from_csv(schema: SchemaRef, text: &str) -> DataResult<Batch> {
    let mut lines = split_csv_records(text);
    let header = match lines.next() {
        Some((_, h)) => h,
        None => return Ok(Batch::empty(schema)),
    };
    let expected: Vec<&str> = schema.fields().iter().map(|f| f.name()).collect();
    let got = parse_csv_record(&header, 1)?;
    if got != expected {
        return Err(DataError::Decode {
            line: 1,
            message: format!("header mismatch: expected {expected:?}, got {got:?}"),
        });
    }
    let mut bb = BatchBuilder::new(schema.clone());
    for (lineno, record) in lines {
        if record.trim().is_empty() {
            continue;
        }
        let cells = parse_csv_record(&record, lineno)?;
        if cells.len() != schema.arity() {
            return Err(DataError::Decode {
                line: lineno,
                message: format!("expected {} fields, found {}", schema.arity(), cells.len()),
            });
        }
        let mut row = Vec::with_capacity(cells.len());
        for (field, cell) in schema.fields().iter().zip(cells) {
            row.push(parse_typed(&cell, field.dtype(), lineno)?);
        }
        bb.push_row(row)?;
    }
    Ok(bb.build())
}

/// Split CSV text into records, honouring quoted newlines. Yields
/// `(1-based line number of record start, record text)`.
fn split_csv_records(text: &str) -> impl Iterator<Item = (usize, String)> + '_ {
    let mut records = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut start_line = 1usize;
    for ch in text.chars() {
        match ch {
            '"' => {
                in_quotes = !in_quotes;
                current.push(ch);
            }
            '\n' if !in_quotes => {
                records.push((start_line, std::mem::take(&mut current)));
                line += 1;
                start_line = line;
            }
            '\n' => {
                line += 1;
                current.push(ch);
            }
            _ => current.push(ch),
        }
    }
    if !current.is_empty() {
        records.push((start_line, current));
    }
    records.into_iter()
}

fn parse_csv_record(record: &str, lineno: usize) -> DataResult<Vec<String>> {
    let mut cells = Vec::new();
    let mut cell = String::new();
    let mut chars = record.chars().peekable();
    let mut in_quotes = false;
    while let Some(ch) = chars.next() {
        match ch {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cell.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cell.is_empty() => in_quotes = true,
            '"' => {
                return Err(DataError::Decode {
                    line: lineno,
                    message: "quote in unquoted field".into(),
                })
            }
            ',' if !in_quotes => cells.push(std::mem::take(&mut cell)),
            _ => cell.push(ch),
        }
    }
    if in_quotes {
        return Err(DataError::Decode {
            line: lineno,
            message: "unterminated quoted field".into(),
        });
    }
    cells.push(cell);
    Ok(cells)
}

fn parse_typed(cell: &str, dtype: DataType, lineno: usize) -> DataResult<Value> {
    if cell.is_empty() && dtype != DataType::Str {
        return Ok(Value::Null);
    }
    let err = |msg: String| DataError::Decode {
        line: lineno,
        message: msg,
    };
    Ok(match dtype {
        DataType::Null => Value::Null,
        DataType::Bool => match cell {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            other => return Err(err(format!("invalid bool `{other}`"))),
        },
        DataType::Int => Value::Int(
            cell.parse::<i64>()
                .map_err(|e| err(format!("invalid int `{cell}`: {e}")))?,
        ),
        DataType::Float => Value::Float(
            cell.parse::<f64>()
                .map_err(|e| err(format!("invalid float `{cell}`: {e}")))?,
        ),
        DataType::Str => Value::Str(cell.to_owned()),
        DataType::Bytes | DataType::List => {
            return Err(err(format!("{dtype} columns cannot be decoded from CSV")))
        }
    })
}

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

/// Encode a batch as JSON Lines: one object per tuple keyed by column name.
pub fn to_jsonl(batch: &Batch) -> String {
    let mut out = String::new();
    for t in batch.tuples() {
        let mut obj = Vec::with_capacity(t.values().len());
        for (field, v) in batch.schema().fields().iter().zip(t.values()) {
            obj.push((field.name().to_owned(), Json::from_value(v)));
        }
        Json::Object(obj).write(&mut out);
        out.push('\n');
    }
    out
}

/// Decode JSON Lines into a batch typed by `schema`. Missing keys decode
/// as `Null`; extra keys are an error (both engines treat unexpected
/// columns as a user bug worth surfacing).
pub fn from_jsonl(schema: SchemaRef, text: &str) -> DataResult<Batch> {
    let mut bb = BatchBuilder::new(schema.clone());
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|message| DataError::Decode {
            line: lineno,
            message,
        })?;
        let obj = match json {
            Json::Object(kv) => kv,
            other => {
                return Err(DataError::Decode {
                    line: lineno,
                    message: format!("expected object, got {}", other.type_name()),
                })
            }
        };
        let mut row = vec![Value::Null; schema.arity()];
        for (k, v) in obj {
            let col = schema.index_of(&k).map_err(|_| DataError::Decode {
                line: lineno,
                message: format!("unexpected key `{k}`"),
            })?;
            row[col] = v.into_value();
        }
        bb.push_row(row)?;
    }
    Ok(bb.build())
}

// ---------------------------------------------------------------------------
// Minimal JSON document model
// ---------------------------------------------------------------------------

/// A minimal JSON document, used for JSONL payloads and for rendering the
/// workflow "GUI" state as machine-readable documents.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number.
    Int(i64),
    /// Floating number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convert a data [`Value`] into JSON. Byte blobs encode as their
    /// length (payloads never travel through JSON in this system).
    pub fn from_value(v: &Value) -> Json {
        match v {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::Int(i) => Json::Int(*i),
            Value::Float(x) => Json::Float(*x),
            Value::Str(s) => Json::Str(s.clone()),
            Value::Bytes(b) => Json::Object(vec![("$bytes".into(), Json::Int(b.len() as i64))]),
            Value::List(vs) => Json::Array(vs.iter().map(Json::from_value).collect()),
        }
    }

    /// Convert JSON back into a data [`Value`].
    pub fn into_value(self) -> Value {
        match self {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(b),
            Json::Int(i) => Value::Int(i),
            Json::Float(x) => Value::Float(x),
            Json::Str(s) => Value::Str(s),
            Json::Array(vs) => Value::List(vs.into_iter().map(Json::into_value).collect()),
            Json::Object(_) => Value::Null,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Serialize into `out` (compact form).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // Ensure a decimal point so ints and floats roundtrip
                    // distinguishably.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Array(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Object(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a compact string.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Arrays and objects nested deeper than this are refused: the parser
    /// recurses once per level, so an unbounded document could overflow
    /// the stack. Far above anything this workspace writes (a trace
    /// document nests 5 deep).
    pub const MAX_DEPTH: usize = 256;

    /// Parse a JSON document from text. Fails on malformed input and on
    /// nesting deeper than [`Json::MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_json(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value inside `depth` enclosing arrays and objects.
fn parse_json(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let ch = *b.get(*pos).ok_or("unexpected end of input")?;
    if matches!(ch, b'[' | b'{') && depth == Json::MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {} at byte {pos}",
            Json::MAX_DEPTH
        ));
    }
    match ch {
        b'n' => expect_lit(b, pos, "null").map(|_| Json::Null),
        b't' => expect_lit(b, pos, "true").map(|_| Json::Bool(true)),
        b'f' => expect_lit(b, pos, "false").map(|_| Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_json(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut kv = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(kv));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let val = parse_json(b, pos, depth + 1)?;
                kv.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(kv));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        other => Err(format!("unexpected byte `{}` at {pos}", other as char)),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    // Find the closing quote on bytes (a `"` byte is never part of a
    // multi-byte character, and an escape's second byte is skipped), then
    // validate and decode only the string's own bytes: validating the rest
    // of the document per string made parsing quadratic.
    let mut end = *pos;
    while let Some(&c) = b.get(end) {
        match c {
            b'"' => break,
            b'\\' => end += 2,
            _ => end += 1,
        }
    }
    if b.get(end) != Some(&b'"') {
        return Err("unterminated string".into());
    }
    let body = std::str::from_utf8(&b[*pos..end]).map_err(|e| e.to_string())?;
    *pos = end + 1;
    decode_string_body(body)
}

/// Decode the escapes of a string literal's body (the text between its
/// quotes).
fn decode_string_body(body: &str) -> Result<String, String> {
    let mut s = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(ch) = chars.next() {
        match ch {
            '\\' => {
                let esc = chars.next().ok_or("unterminated escape")?;
                match esc {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'b' => s.push('\u{8}'),
                    'f' => s.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let h = chars.next().ok_or("truncated \\u escape")?;
                            code = code * 16 + h.to_digit(16).ok_or("invalid \\u escape")?;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("invalid escape `\\{other}`")),
                }
            }
            c => s.push(c),
        }
    }
    Ok(s)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|e| format!("invalid number `{text}`: {e}"))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|e| format!("invalid number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("id", DataType::Int),
            ("text", DataType::Str),
            ("score", DataType::Float),
            ("flag", DataType::Bool),
        ])
    }

    fn batch() -> Batch {
        Batch::from_rows(
            schema(),
            vec![
                vec![
                    Value::Int(1),
                    Value::Str("hello, \"world\"\nbye".into()),
                    Value::Float(0.25),
                    Value::Bool(true),
                ],
                vec![
                    Value::Int(2),
                    Value::Str("plain".into()),
                    Value::Null,
                    Value::Null,
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn csv_roundtrip() {
        let b = batch();
        let text = to_csv(&b);
        let back = from_csv(schema(), &text).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn csv_header_mismatch() {
        let text = "wrong,header\n1,2\n";
        assert!(from_csv(schema(), text).is_err());
    }

    #[test]
    fn csv_bad_int_reports_line() {
        let text = "id,text,score,flag\nnotanint,x,0.5,true\n";
        let err = from_csv(schema(), text).unwrap_err();
        assert!(matches!(err, DataError::Decode { line: 2, .. }), "{err}");
    }

    #[test]
    fn csv_empty_text_gives_empty_batch() {
        assert!(from_csv(schema(), "").unwrap().is_empty());
    }

    #[test]
    fn jsonl_roundtrip() {
        let b = batch();
        let text = to_jsonl(&b);
        let back = from_jsonl(schema(), &text).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn jsonl_missing_key_is_null_extra_is_error() {
        let ok = r#"{"id":5}"#;
        let b = from_jsonl(schema(), ok).unwrap();
        assert!(b.tuples()[0].get("text").unwrap().is_null());
        let bad = r#"{"id":5,"bogus":1}"#;
        assert!(from_jsonl(schema(), bad).is_err());
    }

    #[test]
    fn json_parse_nested() {
        let v = Json::parse(r#" {"a": [1, 2.5, "x\n", null, true], "b": {}} "#).unwrap();
        match &v {
            Json::Object(kv) => {
                assert_eq!(kv[0].0, "a");
                match &kv[0].1 {
                    Json::Array(items) => {
                        assert_eq!(items[0], Json::Int(1));
                        assert_eq!(items[1], Json::Float(2.5));
                        assert_eq!(items[2], Json::Str("x\n".into()));
                        assert_eq!(items[3], Json::Null);
                        assert_eq!(items[4], Json::Bool(true));
                    }
                    other => panic!("expected array, got {other:?}"),
                }
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn json_string_escapes_roundtrip() {
        let original = "tab\t quote\" back\\ nl\n unicode✓";
        let doc = Json::Str(original.into());
        let text = doc.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn json_unicode_escape() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
    }

    #[test]
    fn json_strings_end_at_their_own_quote() {
        // An escaped quote or backslash does not end the string; the
        // quote after an escaped backslash does.
        let doc = Json::parse(r#"["a\"b", "c\\", "日本\"語", ""]"#).unwrap();
        let expect = ["a\"b", "c\\", "日本\"語", ""].map(|s| Json::Str(s.into()));
        assert_eq!(doc, Json::Array(expect.to_vec()));
        for bad in [r#""a\"#, r#""a\""#, r#""\u12"34""#, r#""\é""#, "\"\\"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    /// `parse_string` used to re-validate the whole rest of the document
    /// for every string: 16 000 rows took 840 ms and this document, at
    /// that rate, minutes.
    #[test]
    fn json_parse_is_linear_in_the_document() {
        let rows: Vec<Json> = (0..200_000)
            .map(|i| {
                Json::Object(vec![
                    ("id".into(), Json::Int(i)),
                    (
                        "tag".into(),
                        Json::Str(format!("t{:03}-é\"{}", i % 1000, i)),
                    ),
                    ("v".into(), Json::Float(i as f64 * 0.25)),
                ])
            })
            .collect();
        let doc = Json::Array(rows);
        let text = doc.to_string_compact();
        assert!(text.len() > 9_000_000, "{} bytes", text.len());
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    /// A million `[` (1 MB) overflowed the stack before nesting was
    /// bounded; now it is an `Err` on a default-sized test thread, and a
    /// document exactly at the bound, arrays and objects mixed, parses.
    #[test]
    fn json_nesting_is_bounded() {
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 256"), "{err}");
        let at_bound = |depth: usize| {
            let open: String = (0..depth)
                .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
                .collect();
            let close: String = (0..depth)
                .rev()
                .map(|i| if i % 2 == 0 { "]" } else { "}" })
                .collect();
            format!("{open}1{close}")
        };
        let doc = Json::parse(&at_bound(Json::MAX_DEPTH)).unwrap();
        assert_eq!(Json::parse(&doc.to_string_compact()).unwrap(), doc);
        assert!(Json::parse(&at_bound(Json::MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn float_formatting_keeps_point() {
        let text = Json::Float(3.0).to_string_compact();
        assert_eq!(text, "3.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(3.0));
    }
}
