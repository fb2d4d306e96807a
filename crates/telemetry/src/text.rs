//! Prometheus text exposition: escaping and sample-line writing used by
//! [`Registry::render_text`](crate::Registry::render_text), and a
//! line-oriented parser ([`parse_text`]) used by the golden/property tests
//! and the CI format gate.

use std::fmt::Write as _;

/// Escapes a `# HELP` string: backslashes and newlines.
#[must_use]
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslashes, double quotes, and newlines.
#[must_use]
pub fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// True when `name` is a valid metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// True when `name` is a valid label name: `[a-zA-Z_][a-zA-Z0-9_]*`.
#[must_use]
pub fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Writes one sample line: `name{label="value",...} value`.
pub(crate) fn write_sample(out: &mut String, name: &str, labels: &[(String, String)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// One parsed sample line from an exposition document.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (for histograms this includes the `_bucket`/`_sum`/
    /// `_count` suffix, exactly as exposed).
    pub name: String,
    /// Label pairs in the order they appeared.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// A violation of the text exposition format, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for TextParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextParseError {}

fn err(line: usize, message: impl Into<String>) -> TextParseError {
    TextParseError {
        line,
        message: message.into(),
    }
}

/// Parses a Prometheus text-exposition document into its sample lines,
/// validating comment lines (`# HELP` / `# TYPE`) along the way.
///
/// Returns every non-comment sample in order. Errors identify the first
/// malformed line.
pub fn parse_text(input: &str) -> Result<Vec<Sample>, TextParseError> {
    let mut samples = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            parse_comment(lineno, comment)?;
            continue;
        }
        samples.push(parse_sample(lineno, line)?);
    }
    Ok(samples)
}

fn parse_comment(lineno: usize, comment: &str) -> Result<(), TextParseError> {
    let comment = comment.trim_start();
    if let Some(rest) = comment.strip_prefix("HELP ") {
        let name = rest.split_whitespace().next().unwrap_or("");
        if !valid_metric_name(name) {
            return Err(err(
                lineno,
                format!("invalid metric name in HELP: {name:?}"),
            ));
        }
    } else if let Some(rest) = comment.strip_prefix("TYPE ") {
        let mut parts = rest.split_whitespace();
        let name = parts.next().unwrap_or("");
        let kind = parts.next().unwrap_or("");
        if !valid_metric_name(name) {
            return Err(err(
                lineno,
                format!("invalid metric name in TYPE: {name:?}"),
            ));
        }
        if !matches!(
            kind,
            "counter" | "gauge" | "histogram" | "summary" | "untyped"
        ) {
            return Err(err(lineno, format!("invalid metric type: {kind:?}")));
        }
    }
    // Other comments are free-form and ignored per the spec.
    Ok(())
}

fn parse_sample(lineno: usize, line: &str) -> Result<Sample, TextParseError> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(|| err(lineno, "sample line has no value"))?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(err(lineno, format!("invalid metric name: {name:?}")));
    }
    let rest = &line[name_end..];
    let (labels, rest) = if let Some(body) = rest.strip_prefix('{') {
        parse_labels(lineno, body)?
    } else {
        (Vec::new(), rest)
    };
    let value_str = rest.trim();
    if value_str.is_empty() {
        return Err(err(lineno, "sample line has no value"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse::<f64>()
            .map_err(|_| err(lineno, format!("invalid sample value: {other:?}")))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parsed label pairs plus the remainder of the line they were read from.
type ParsedLabels<'a> = (Vec<(String, String)>, &'a str);

/// Parses `key="value",...}` (the leading `{` already stripped), returning
/// the label pairs and the remainder of the line after the closing brace.
fn parse_labels(lineno: usize, mut body: &str) -> Result<ParsedLabels<'_>, TextParseError> {
    let mut labels = Vec::new();
    loop {
        body = body.trim_start_matches([',', ' ']);
        if let Some(rest) = body.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let eq = body
            .find('=')
            .ok_or_else(|| err(lineno, "label without '='"))?;
        let key = &body[..eq];
        if !valid_label_name(key) {
            return Err(err(lineno, format!("invalid label name: {key:?}")));
        }
        let after_eq = &body[eq + 1..];
        let quoted = after_eq
            .strip_prefix('"')
            .ok_or_else(|| err(lineno, "label value is not quoted"))?;
        let (value, rest) = parse_quoted(lineno, quoted)?;
        labels.push((key.to_string(), value));
        body = rest;
    }
}

/// Parses an escaped label value up to its closing quote; returns the
/// unescaped value and the remainder after the quote.
fn parse_quoted(lineno: usize, s: &str) -> Result<(String, &str), TextParseError> {
    let mut value = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((value, &s[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '\\')) => value.push('\\'),
                Some((_, '"')) => value.push('"'),
                Some((_, 'n')) => value.push('\n'),
                other => {
                    return Err(err(
                        lineno,
                        format!("invalid escape sequence: \\{:?}", other.map(|(_, c)| c)),
                    ))
                }
            },
            other => value.push(other),
        }
    }
    Err(err(lineno, "unterminated label value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_labelled_samples() {
        let doc = "\
# HELP rvaas_queries_total Queries answered.
# TYPE rvaas_queries_total counter
rvaas_queries_total 17
rvaas_stage_latency_us_bucket{stage=\"pool.eval\",le=\"+Inf\"} 3
";
        let samples = parse_text(doc).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "rvaas_queries_total");
        assert!(samples[0].labels.is_empty());
        assert_eq!(samples[0].value, 17.0);
        assert_eq!(samples[1].name, "rvaas_stage_latency_us_bucket");
        assert_eq!(
            samples[1].labels,
            vec![
                ("stage".to_string(), "pool.eval".to_string()),
                ("le".to_string(), "+Inf".to_string()),
            ]
        );
        assert_eq!(samples[1].value, 3.0);
    }

    #[test]
    fn round_trips_escaped_label_values() {
        let tricky = "a\\b\"c\nd";
        let mut line = String::new();
        write_sample(
            &mut line,
            "m",
            &[("k".to_string(), tricky.to_string())],
            "1",
        );
        let samples = parse_text(&line).unwrap();
        assert_eq!(samples[0].labels[0].1, tricky);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_text("1bad_name 3").is_err());
        assert!(parse_text("name_only").is_err());
        assert!(parse_text("m{k=\"unterminated} 1").is_err());
        assert!(parse_text("m{k=unquoted} 1").is_err());
        assert!(parse_text("m{1bad=\"v\"} 1").is_err());
        assert!(parse_text("m notanumber").is_err());
        assert!(parse_text("# TYPE m flavor").is_err());
        let e = parse_text("ok 1\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
