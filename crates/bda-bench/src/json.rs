//! Minimal JSON parsing and BENCH-file shape validation.
//!
//! `vendor/serde_json` is an empty facade in this workspace, so the perf
//! tooling (`perf_gate`, `bench_trajectory`) carries its own
//! recursive-descent parser. It covers the full JSON grammar; it does not
//! try to be fast — BENCH files are a few hundred bytes.
//!
//! Every `BENCH_*.json` at the repo root must satisfy [`validate_bench`]:
//! a top-level object with a `"bench"` string, a `"host_cores"` number and
//! a non-empty `"results"` array of flat objects whose values are numbers
//! or strings. The optional `"kernels"` array follows the same row rules;
//! it is history-only — the per-kernel breakdown of the retired
//! `cycle_scaling` bench, still read so `BENCH_9.json` keeps rendering.
//! CI's bench-trajectory step runs this check over every committed BENCH
//! file, and a unit test below does the same.

use std::collections::BTreeMap;

/// A parsed JSON value. Object keys keep insertion order via the side
/// vector in [`Value::Obj`]; lookup is by linear scan (objects are tiny).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            ch as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        // BENCH files are ASCII; lone surrogates map to the
                        // replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape \\{}", *other as char)),
                }
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the full scalar.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().ok_or("empty continuation")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Check one row of a `results`/`kernels` array: a non-empty flat object
/// whose values are finite numbers or strings.
fn validate_row(row: &Value, what: &str, i: usize) -> Result<(), String> {
    let fields = row
        .as_object()
        .ok_or_else(|| format!("{what}[{i}] is not an object"))?;
    if fields.is_empty() {
        return Err(format!("{what}[{i}] is empty"));
    }
    for (k, v) in fields {
        match v {
            Value::Num(x) if x.is_finite() => {}
            Value::Num(_) => return Err(format!("{what}[{i}].{k} is not finite")),
            Value::Str(_) => {}
            _ => return Err(format!("{what}[{i}].{k} must be a number or string")),
        }
    }
    Ok(())
}

/// Validate the committed BENCH-file shape (see module docs).
pub fn validate_bench(doc: &Value) -> Result<(), String> {
    doc.as_object().ok_or("top level is not an object")?;
    doc.get("bench")
        .and_then(Value::as_str)
        .ok_or("missing string field \"bench\"")?;
    doc.get("host_cores")
        .and_then(Value::as_f64)
        .ok_or("missing numeric field \"host_cores\"")?;
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or("missing array field \"results\"")?;
    if results.is_empty() {
        return Err("\"results\" is empty".to_string());
    }
    for (i, row) in results.iter().enumerate() {
        validate_row(row, "results", i)?;
    }
    if let Some(kernels) = doc.get("kernels") {
        let kernels = kernels.as_array().ok_or("\"kernels\" is not an array")?;
        for (i, row) in kernels.iter().enumerate() {
            validate_row(row, "kernels", i)?;
            row.get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("kernels[{i}] missing string \"name\""))?;
        }
    }
    Ok(())
}

/// Flatten a validated BENCH document into `metric name -> value` pairs for
/// the trajectory table. A results row that carries a string `name` (the
/// `kernels` bench: `mean_us`, and since BENCH_13 the roofline columns
/// `flops` and `gflops_computed`) is identified by that name alone and
/// every numeric field is a metric `key[name]`. Any other results row is
/// identified by its string fields plus its first numeric field (e.g.
/// `threads=1`, or `transport=file,strip_len=256`); the remaining numeric
/// fields become metrics `key[id]`. Rows of the `kernels` section use their
/// `name` as the identifier.
pub fn flatten_metrics(doc: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(results) = doc.get("results").and_then(Value::as_array) {
        for row in results {
            let Some(fields) = row.as_object() else {
                continue;
            };
            let mut id_parts: Vec<String> = Vec::new();
            let mut metrics: Vec<(&str, f64)> = Vec::new();
            let named = row.get("name").and_then(Value::as_str);
            let mut first_num_taken = named.is_some();
            for (k, v) in fields {
                match v {
                    Value::Str(s) if named.is_none() => id_parts.push(format!("{k}={s}")),
                    Value::Num(x) if !first_num_taken => {
                        first_num_taken = true;
                        // Integral identifiers read as `threads=4`, not 4.0.
                        if x.fract() == 0.0 {
                            id_parts.push(format!("{k}={}", *x as i64));
                        } else {
                            id_parts.push(format!("{k}={x}"));
                        }
                    }
                    Value::Num(x) => metrics.push((k, *x)),
                    _ => {}
                }
            }
            let id = named.map_or_else(|| id_parts.join(","), str::to_string);
            for (k, x) in metrics {
                out.insert(format!("{k}[{id}]"), x);
            }
        }
    }
    if let Some(kernels) = doc.get("kernels").and_then(Value::as_array) {
        for row in kernels {
            let Some(name) = row.get("name").and_then(Value::as_str) else {
                continue;
            };
            for (k, v) in row.as_object().into_iter().flatten() {
                if let Value::Num(x) = v {
                    out.insert(format!("{k}[{name}]"), *x);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_committed_bench_shape() {
        let text = r#"{
  "bench": "cycle_scaling",
  "config": "OsseConfig::reduced(24, 12, 16, 3, 4)",
  "host_cores": 1,
  "cycles_per_point": 4,
  "results": [
    { "threads": 1, "mean_cycle_s": 2.017157, "speedup": 1.0 },
    { "threads": 4, "mean_cycle_s": 2.906491, "speedup": 0.694 }
  ],
  "kernels": [
    { "name": "eigensolve", "mean_s_per_cycle": 0.12, "calls_per_cycle": 3456.0 }
  ]
}"#;
        let doc = parse(text).expect("parse");
        validate_bench(&doc).expect("valid");
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("cycle_scaling"));
        assert_eq!(
            doc.get("results").unwrap().as_array().unwrap()[1]
                .get("mean_cycle_s")
                .unwrap()
                .as_f64(),
            Some(2.906491)
        );
        let flat = flatten_metrics(&doc);
        assert_eq!(flat.get("mean_cycle_s[threads=1]"), Some(&2.017157));
        assert_eq!(flat.get("speedup[threads=4]"), Some(&0.694));
        assert_eq!(flat.get("mean_s_per_cycle[eigensolve]"), Some(&0.12));
    }

    #[test]
    fn flattens_string_identified_rows() {
        let text = r#"{
  "bench": "halo_rtt",
  "host_cores": 1,
  "results": [
    { "transport": "socket", "strip_len": 256, "mean_ms": 0.132 }
  ]
}"#;
        let doc = parse(text).expect("parse");
        validate_bench(&doc).expect("valid");
        let flat = flatten_metrics(&doc);
        assert_eq!(
            flat.get("mean_ms[transport=socket,strip_len=256]"),
            Some(&0.132)
        );
    }

    #[test]
    fn named_rows_keep_every_numeric_field_as_a_metric() {
        // BENCH_9_kernels has `mean_us` only; BENCH_13_kernels adds the
        // roofline columns. Both must land on the same `[name]` row.
        let text = r#"{
  "bench": "kernels",
  "host_cores": 2,
  "results": [
    { "name": "gemm_k64", "mean_us": 885.8 },
    { "name": "gemm_k128", "mean_us": 234.1, "flops": 4194304, "gflops_computed": 17.9165 }
  ]
}"#;
        let doc = parse(text).expect("parse");
        validate_bench(&doc).expect("valid");
        let flat = flatten_metrics(&doc);
        assert_eq!(flat.get("mean_us[gemm_k64]"), Some(&885.8));
        assert_eq!(flat.get("mean_us[gemm_k128]"), Some(&234.1));
        assert_eq!(flat.get("flops[gemm_k128]"), Some(&4194304.0));
        assert_eq!(flat.get("gflops_computed[gemm_k128]"), Some(&17.9165));
        assert_eq!(flat.len(), 4);
    }

    #[test]
    fn every_committed_bench_file_validates_and_flattens() {
        // Only `kernels` files are gated. This is what keeps the rest —
        // above all the `cycle_scaling` points, which no harness can
        // regenerate — renderable by `bench_trajectory`.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = Vec::new();
        for entry in std::fs::read_dir(&root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read");
            let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            validate_bench(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            let flat = flatten_metrics(&doc);
            assert!(!flat.is_empty(), "{name} flattens to no metric");
            if doc.get("bench").and_then(Value::as_str) == Some("cycle_scaling") {
                assert!(flat.contains_key("mean_cycle_s[threads=1]"), "{name}");
                assert!(flat.contains_key("speedup[threads=8]"), "{name}");
            }
            if name == "BENCH_9.json" {
                assert_eq!(flat.get("calls_per_cycle[microphysics]"), Some(&293760.0));
            }
            seen.push(name.to_string());
        }
        seen.sort();
        assert_eq!(
            seen,
            [
                "BENCH_13_kernels.json",
                "BENCH_4.json",
                "BENCH_6.json",
                "BENCH_8.json",
                "BENCH_9.json",
                "BENCH_9_kernels.json"
            ]
        );
    }

    #[test]
    fn rejects_malformed_shapes() {
        let missing_results = r#"{ "bench": "x", "host_cores": 1 }"#;
        assert!(validate_bench(&parse(missing_results).unwrap()).is_err());

        let empty_results = r#"{ "bench": "x", "host_cores": 1, "results": [] }"#;
        assert!(validate_bench(&parse(empty_results).unwrap()).is_err());

        let bad_row = r#"{ "bench": "x", "host_cores": 1, "results": [ { "a": [] } ] }"#;
        assert!(validate_bench(&parse(bad_row).unwrap()).is_err());

        let unnamed_kernel = r#"{ "bench": "x", "host_cores": 1, "results": [ { "a": 1 } ], "kernels": [ { "mean_s_per_cycle": 0.1 } ] }"#;
        assert!(validate_bench(&parse(unnamed_kernel).unwrap()).is_err());
    }

    #[test]
    fn parser_handles_escapes_nesting_and_rejects_garbage() {
        let doc = parse(r#"{ "a\n\"b\"": [1, -2.5e3, true, false, null, "A"] }"#).unwrap();
        let arr = doc.get("a\n\"b\"").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[5].as_str(), Some("A"));

        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nope").is_err());
    }
}
