//! What a run prints: one `metric` line per value for people and for the
//! `run`/`check` parent process, and the closing JSON line for the driver.

use std::fmt::Write as _;

use crate::run::{Metric, Metrics};

/// `metric <name> <value> <unit> n=<samples>`
pub fn metric_line(name: &str, metric: &Metric) -> String {
    format!(
        "metric {name} {} {} n={}",
        metric.value, metric.unit, metric.samples
    )
}

/// Reads a line written by [`metric_line`] back: `(name, value)`.
pub fn parse_metric_line(line: &str) -> Option<(String, f64)> {
    let mut parts = line.split_whitespace();
    if parts.next()? != "metric" {
        return None;
    }
    let name = parts.next()?.to_string();
    let value = parts.next()?.parse().ok()?;
    Some((name, value))
}

/// The closing line: exactly `correct`, `attempted`, `failed` and `metrics`,
/// the latter holding exactly `names`, in that order.
///
/// # Errors
///
/// Names a metric the run did not produce.
pub fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: impl Iterator<Item = &'a str>,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{"
    );
    for (i, name) in names.enumerate() {
        let metric = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !metric.value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.value, metric.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Metrics {
        let mut m = Metrics::new();
        m.insert(
            "query_p50_us",
            Metric {
                value: 43987.25,
                unit: "us",
                samples: 512,
            },
        );
        m.insert(
            "setup_s",
            Metric {
                value: 0.5,
                unit: "s",
                samples: 5,
            },
        );
        m
    }

    #[test]
    fn metric_lines_round_trip() {
        let m = metrics();
        let line = metric_line("query_p50_us", &m["query_p50_us"]);
        assert_eq!(line, "metric query_p50_us 43987.25 us n=512");
        assert_eq!(
            parse_metric_line(&line),
            Some(("query_p50_us".to_string(), 43987.25))
        );
        assert_eq!(parse_metric_line("# a comment"), None);
    }

    #[test]
    fn the_closing_line_holds_exactly_the_named_metrics() {
        let json = result_json(true, 10, 0, &metrics(), ["setup_s"].into_iter()).unwrap();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, 1, 0, &metrics(), ["missing"].into_iter()).is_err());
    }
}
