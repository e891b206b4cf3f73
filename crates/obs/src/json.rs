//! A minimal JSON reader/writer without external dependencies — enough
//! for the Chrome-trace validator to re-parse its own output, and public
//! so downstream tools can read the documents this workspace writes and
//! compare two of them ([`diff`], the `dmc snapshot --check` gate).

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
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
            Json::Str(v) => Some(v),
            _ => None,
        }
    }
}

/// Compact JSON text: no whitespace, numbers in their shortest
/// round-trip form (`2358`, `0.034626`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(v) => f.write_str(&quote(v)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i > 0 { "," } else { "" })?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    write!(f, "{}{}:{v}", if i > 0 { "," } else { "" }, quote(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Every place two documents disagree, as `path: old -> new` lines in
/// document order (`workloads[0].work_units: 2358 -> 2359`). A finding is
/// a leaf that differs, a value whose type changed, or a key or array
/// element present on one side only (`(none)` on the other). Object keys
/// are matched by name, so key order is not compared. Empty means equal.
pub fn diff(old: &Json, new: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_at(String::new(), Some(old), Some(new), &mut out);
    out
}

fn diff_at(path: String, old: Option<&Json>, new: Option<&Json>, out: &mut Vec<String>) {
    let child = |key: &str| match path.as_str() {
        "" => key.to_owned(),
        p => format!("{p}.{key}"),
    };
    match (old, new) {
        (Some(o @ Json::Obj(old_fields)), Some(n @ Json::Obj(new_fields))) => {
            for (k, v) in old_fields {
                diff_at(child(k), Some(v), n.get(k), out);
            }
            for (k, v) in new_fields.iter().filter(|(k, _)| o.get(k).is_none()) {
                diff_at(child(k), None, Some(v), out);
            }
        }
        (Some(Json::Arr(o)), Some(Json::Arr(n))) => {
            for i in 0..o.len().max(n.len()) {
                diff_at(format!("{path}[{i}]"), o.get(i), n.get(i), out);
            }
        }
        (o, n) if o != n => {
            let show = |v: Option<&Json>| v.map_or_else(|| "(none)".to_owned(), Json::to_string);
            let at = if path.is_empty() { "(root)" } else { &path };
            out.push(format!("{at}: {} -> {}", show(o), show(n)));
        }
        _ => {}
    }
}

/// Quotes and escapes a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// The 1-based `line N column M` rendering of a byte offset, counting
/// `\n` line breaks and columns in bytes from the last break. Every
/// parse error names its position through this helper, so a failure in a
/// multi-line document (a snapshot file, a JSONL record) points at the
/// offending line directly.
fn pos_at(b: &[u8], pos: usize) -> String {
    let pos = pos.min(b.len());
    let line = 1 + b[..pos].iter().filter(|&&c| c == b'\n').count();
    let col = 1 + pos
        - b[..pos]
            .iter()
            .rposition(|&c| c == b'\n')
            .map_or(0, |i| i + 1);
    format!("line {line} column {col}")
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
///
/// Object fields keep insertion order; on duplicate keys every field is
/// retained in [`Json::Obj`] and [`Json::get`] returns the **first**
/// occurrence.
///
/// # Errors
///
/// Returns a description of the first syntax error, positioned as
/// 1-based `line N column M`.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at {}", pos_at(bytes, pos)));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at {}", c as char, pos_at(b, *pos)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at {}", pos_at(b, *pos)))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at {}", pos_at(b, start)))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at {}", pos_at(b, *pos)))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at {}", pos_at(b, *pos))),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through unchanged.
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let end = (*pos + len).min(b.len());
                out.push_str(std::str::from_utf8(&b[*pos..end]).map_err(|_| "bad utf-8")?);
                *pos = end;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at {}", pos_at(b, *pos))),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        out.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at {}", pos_at(b, *pos))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    /// Every escape the writer emits parses back, plus the ones it never
    /// writes (`\/`, `\b`, `\f`, `\u` including lone surrogates), and the
    /// quote → parse round trip holds for control characters and
    /// multi-byte UTF-8.
    #[test]
    fn escape_sequences() {
        let v = parse(r#""a\"b\\c\/d\ne\rf\tg\bh\fiAjé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\ne\rf\tg\u{8}h\u{c}iAj\u{e9}"));
        // A lone surrogate cannot be a char; it parses to U+FFFD rather
        // than failing (our writer never emits surrogates).
        assert_eq!(parse(r#""\ud800""#).unwrap().as_str(), Some("\u{fffd}"));
        // quote() round-trips everything it escapes, including raw
        // control characters and multi-byte UTF-8.
        for s in ["\u{1}\u{1f}", "π ≠ \u{10348}", "tab\there\n\"q\"\\"] {
            assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s), "{s:?}");
        }
        // Truncated and malformed escapes are errors, not silent data.
        assert!(parse(r#""\u00""#).is_err());
        assert!(parse(r#""\x""#).is_err());
        assert!(parse("\"unterminated").is_err());
    }

    /// Deep nesting parses without recursion trouble at the depths our
    /// documents reach, and unbalanced variants fail.
    #[test]
    fn deeply_nested_arrays() {
        let depth = 200;
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let mut v = parse(&doc).unwrap();
        for _ in 0..depth {
            let Json::Arr(items) = v else {
                panic!("an array at every level")
            };
            v = items[0].clone();
        }
        assert_eq!(v, Json::Num(1.0));
        // One bracket short / one too many both fail.
        assert!(parse(&doc[..doc.len() - 1]).is_err());
        assert!(parse(&format!("{doc}]")).is_err());
    }

    /// Duplicate keys: all fields are retained in insertion order, and
    /// `get` resolves to the first occurrence.
    #[test]
    fn duplicate_keys_keep_first_for_get() {
        let v = parse(r#"{"k": 1, "other": 2, "k": 3}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_num), Some(1.0));
        let Json::Obj(fields) = v else {
            panic!("an object")
        };
        assert_eq!(fields.len(), 3, "duplicates are not silently dropped");
        assert_eq!(fields[0], ("k".to_owned(), Json::Num(1.0)));
        assert_eq!(fields[2], ("k".to_owned(), Json::Num(3.0)));
    }

    /// Error positions are 1-based line/column pairs that point at the
    /// offending byte of multi-line documents.
    #[test]
    fn errors_carry_line_and_column() {
        // Line 3, column 8: the `}` where a value was expected.
        let err = parse("{\n  \"a\": 1,\n  \"b\": }\n").unwrap_err();
        assert!(err.contains("line 3 column 8"), "{err}");
        // Same document on one line: column moves, line is 1.
        let err = parse("{\"a\": 1, \"b\": }").unwrap_err();
        assert!(err.contains("line 1 column 15"), "{err}");
        // Trailing content after the document names the line it starts on.
        let err = parse("{}\n\ntrailing").unwrap_err();
        assert!(err.contains("trailing content at line 3 column 1"), "{err}");
        // A bad literal mid-array on a later line.
        let err = parse("[\n  true,\n  nul\n]").unwrap_err();
        assert!(err.contains("line 3 column 3"), "{err}");
        // Missing comma between fields.
        let err = parse("{\"a\": 1\n \"b\": 2}").unwrap_err();
        assert!(err.contains("line 2 column 2"), "{err}");
    }

    const DOC: &str = r#"{"reps": 3, "workloads": [{"name": "lu", "work_units": 2358,
        "critpath": {"blame": {"alpha": 5}, "top_whatif": null}}], "ok": true}"#;

    #[test]
    fn diff_of_a_document_with_itself_is_empty() {
        let v = parse(DOC).unwrap();
        assert!(diff(&v, &v).is_empty());
        // Key order is not compared.
        let reordered = parse(
            r#"{"ok": true, "workloads": [{"critpath":
            {"top_whatif": null, "blame": {"alpha": 5}}, "work_units": 2358, "name": "lu"}],
            "reps": 3}"#,
        )
        .unwrap();
        assert!(diff(&v, &reordered).is_empty());
    }

    #[test]
    fn diff_names_a_changed_leaf_by_path_with_both_values() {
        let old = parse(DOC).unwrap();
        for (from, to, finding) in [
            ("2358", "2359", "workloads[0].work_units: 2358 -> 2359"),
            (
                "\"alpha\": 5",
                "\"alpha\": 5.5",
                "workloads[0].critpath.blame.alpha: 5 -> 5.5",
            ),
            ("\"lu\"", "\"xy\"", "workloads[0].name: \"lu\" -> \"xy\""),
            ("true", "false", "ok: true -> false"),
            // A type change is a leaf change.
            (
                "null",
                "{\"msg\": 1}",
                "workloads[0].critpath.top_whatif: null -> {\"msg\":1}",
            ),
        ] {
            let new = parse(&DOC.replace(from, to)).unwrap();
            assert_eq!(diff(&old, &new), vec![finding]);
        }
    }

    #[test]
    fn diff_reports_a_missing_and_an_extra_key() {
        let old = parse(DOC).unwrap();
        let new = parse(&DOC.replace("\"reps\": 3, ", "")).unwrap();
        assert_eq!(diff(&old, &new), vec!["reps: 3 -> (none)"]);
        assert_eq!(diff(&new, &old), vec!["reps: (none) -> 3"]);
        let grown =
            parse(&DOC.replace("\"ok\"", "\"counters\": {\"fm_steps\": 1}, \"ok\"")).unwrap();
        assert_eq!(
            diff(&old, &grown),
            vec!["counters: (none) -> {\"fm_steps\":1}"]
        );
        // Array elements on one side only are findings too.
        let (a, b) = (parse("[1, 2]").unwrap(), parse("[1]").unwrap());
        assert_eq!(diff(&a, &b), vec!["[1]: 2 -> (none)"]);
        assert_eq!(
            diff(&Json::Num(1.0), &Json::Null),
            vec!["(root): 1 -> null"]
        );
    }
}
