//! Hand-rolled JSON output (the build is offline, with no JSON crate).

/// Escapes `s` as the body of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
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

/// A quoted JSON string.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// JSON has no NaN or infinity; those become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One measured quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads the raw text of a top-level scalar field from a line this module
/// wrote (enough to fold child processes' result lines together).
pub fn scalar_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The `metrics` object of a line [`result_line`] wrote.
pub fn metrics_object(line: &str) -> Option<&str> {
    let start = line.find("\"metrics\": ")? + "\"metrics\": ".len();
    line.get(start..line.len().checked_sub(1)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("héllo/ü"), "héllo/ü");
        assert_eq!(string("q\""), "\"q\\\"\"");
    }

    #[test]
    fn numbers_keep_every_digit_and_reject_non_finite() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn result_line_round_trips_scalars() {
        let line = result_line(
            true,
            12,
            0,
            &[Metric::new("latency_ms", 1.5, "ms"), Metric::new("setup_s", 0.25, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(scalar_field(&line, "correct"), Some("true"));
        assert_eq!(scalar_field(&line, "attempted"), Some("12"));
        assert_eq!(scalar_field(&line, "failed"), Some("0"));
        assert_eq!(scalar_field(&line, "missing"), None);
        assert_eq!(
            metrics_object(&line),
            Some(
                "{\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
                 \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}"
            )
        );
    }
}
