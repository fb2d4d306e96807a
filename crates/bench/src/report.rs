//! The one report writer behind experiments `s1`–`s4`.
//!
//! An experiment declares its fields once — the workload's shape, one
//! record per measured point, then the derived numbers CI gates — and a
//! [`Report`] renders both the printed table and the `BENCH_*.json`
//! trajectory from that one list. The writer owns what every trajectory
//! shares: the `experiment` / `smoke` / `host_cores` header, the two
//! environment switches that size a run, and the one robust statistic,
//! [`MedianMad`].

/// True when the experiments run in reduced "smoke" mode
/// (`RVAAS_BENCH_SMOKE`, per-push CI).
pub fn smoke_mode() -> bool {
    std::env::var_os("RVAAS_BENCH_SMOKE").is_some()
}

/// True when `s3` adds its long "soak" point (`RVAAS_BENCH_SOAK`, nightly
/// CI).
pub fn soak_mode() -> bool {
    std::env::var_os("RVAAS_BENCH_SOAK").is_some()
}

/// A median and the median absolute deviation around it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MedianMad {
    /// The median sample (the mean of the middle two for an even count).
    pub median: f64,
    /// The median distance of a sample from it.
    pub mad: f64,
}

impl MedianMad {
    /// The median and MAD of `samples`; both 0 when there are none.
    pub fn of(samples: &[f64]) -> Self {
        fn median(mut values: Vec<f64>) -> f64 {
            values.sort_by(f64::total_cmp);
            match values.len() {
                0 => 0.0,
                n if n % 2 == 1 => values[n / 2],
                n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
            }
        }
        let centre = median(samples.to_vec());
        MedianMad {
            median: centre,
            mad: median(samples.iter().map(|v| (v - centre).abs()).collect()),
        }
    }
}

/// One reported value.
pub enum Value {
    /// A count.
    Count(u64),
    /// A measured or derived number.
    Number(f64),
    /// A switch.
    Flag(bool),
    /// A label.
    Text(String),
    /// A median over repeats, with its MAD.
    Spread(MedianMad),
    /// A short series.
    Numbers(Vec<f64>),
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Count(n as u64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Count(n)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Number(x)
    }
}

/// A duration reports in microseconds.
impl From<std::time::Duration> for Value {
    fn from(d: std::time::Duration) -> Self {
        Value::Number(d.as_secs_f64() * 1e6)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Flag(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<MedianMad> for Value {
    fn from(m: MedianMad) -> Self {
        Value::Spread(m)
    }
}

impl From<Vec<f64>> for Value {
    fn from(xs: Vec<f64>) -> Self {
        Value::Numbers(xs)
    }
}

/// Three decimals; JSON has no infinities, so a degenerate ratio is `null`.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            Value::Number(x) => number(*x),
            Value::Flag(b) => b.to_string(),
            Value::Text(s) => rvaas_types::json::quote(s),
            Value::Spread(m) => format!(
                "{{\"median\":{},\"mad\":{}}}",
                number(m.median),
                number(m.mad)
            ),
            Value::Numbers(xs) => {
                format!(
                    "[{}]",
                    xs.iter().map(|x| number(*x)).collect::<Vec<_>>().join(",")
                )
            }
        }
    }

    fn text(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Spread(m) => format!("{} ± {}", number(m.median), number(m.mad)),
            Value::Numbers(xs) => xs
                .iter()
                .map(|x| number(*x))
                .collect::<Vec<_>>()
                .join(" / "),
            other => other.json(),
        }
    }
}

/// Named values, in declaration order.
type Fields = Vec<(&'static str, Value)>;

/// One experiment's report: rendered as a table and as its `BENCH_*.json`.
pub struct Report {
    experiment: &'static str,
    title: &'static str,
    fields: Fields,
    points: Vec<Fields>,
    summary: Fields,
}

impl Report {
    /// A report for `experiment` (its JSON name), headed by `title`.
    pub fn new(experiment: &'static str, title: &'static str) -> Self {
        let host_cores =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Report {
            experiment,
            title,
            fields: vec![
                ("smoke", smoke_mode().into()),
                ("host_cores", host_cores.into()),
            ],
            points: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Declares a field of the workload's shape.
    pub fn field(&mut self, name: &'static str, value: impl Into<Value>) -> &mut Self {
        self.fields.push((name, value.into()));
        self
    }

    /// Adds one measured point; the first point's names head the table.
    pub fn point(&mut self, values: Fields) -> &mut Self {
        self.points.push(values);
        self
    }

    /// Declares a number derived from the points (what CI gates).
    pub fn summary(&mut self, name: &'static str, value: impl Into<Value>) -> &mut Self {
        self.summary.push((name, value.into()));
        self
    }

    /// The machine-readable trajectory.
    pub fn json(&self) -> String {
        let object = |fields: &Fields, separator: &str| {
            fields
                .iter()
                .map(|(name, value)| format!("\"{name}\":{separator}{}", value.json()))
                .collect::<Vec<_>>()
        };
        let points: Vec<String> = self
            .points
            .iter()
            .map(|point| format!("{{{}}}", object(point, "").join(",")))
            .collect();
        let mut lines = vec![format!("\"experiment\": \"{}\"", self.experiment)];
        lines.extend(object(&self.fields, " "));
        lines.push(format!("\"points\": [{}]", points.join(",")));
        lines.extend(object(&self.summary, " "));
        format!("{{\n  {}\n}}\n", lines.join(",\n  "))
    }

    /// The human-readable table.
    pub fn rows(&self) -> Vec<String> {
        let line = |fields: &Fields, text: fn(&'static str, &Value) -> String| {
            fields
                .iter()
                .map(|(name, value)| text(name, value))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let mut rows = vec![
            format!("# {}", self.title),
            line(&self.fields, |name, value| {
                format!("{name}={}", value.text())
            }),
        ];
        if let Some(first) = self.points.first() {
            rows.push(line(first, |name, _| name.to_string()));
        }
        rows.extend(
            self.points
                .iter()
                .map(|point| line(point, |_, value| value.text())),
        );
        rows.extend(
            self.summary
                .iter()
                .map(|(name, value)| format!("{name} = {}", value.text())),
        );
        rows
    }

    /// Writes the trajectory to `path` and returns the table.
    pub fn write(&self, path: &str) -> Vec<String> {
        match std::fs::write(path, self.json()) {
            Ok(()) => println!("(wrote {path})"),
            Err(err) => eprintln!("(could not write {path}: {err})"),
        }
        self.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mad_of_an_odd_count_is_the_middle_sample() {
        let m = MedianMad::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            m,
            MedianMad {
                median: 2.0,
                mad: 1.0
            }
        );
    }

    #[test]
    fn median_mad_of_an_even_count_averages_the_middle_two() {
        // Deviations from 2.5 are 1.5, 0.5, 0.5, 1.5.
        let m = MedianMad::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            m,
            MedianMad {
                median: 2.5,
                mad: 1.0
            }
        );
    }

    #[test]
    fn median_mad_ignores_one_outlier() {
        let m = MedianMad::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(
            m,
            MedianMad {
                median: 3.0,
                mad: 1.0
            }
        );
    }

    #[test]
    fn median_mad_of_nothing_is_zero() {
        assert_eq!(MedianMad::of(&[]), MedianMad::default());
    }

    #[test]
    fn text_renders_as_a_json_string_literal() {
        // Rust's Debug escaping would write `\u{1}`, which no JSON parser reads.
        assert_eq!(Value::from("a\u{1}b\"\\").json(), "\"a\\u0001b\\\"\\\\\"");
    }

    #[test]
    fn table_and_json_render_the_same_declared_fields() {
        let mut report = Report::new("demo", "demo report");
        report
            .field("topology", "line(4)")
            .point(vec![("k", 8usize.into()), ("ratio", 0.5.into())])
            .point(vec![("k", 12usize.into()), ("ratio", f64::INFINITY.into())])
            .summary(
                "spread",
                MedianMad {
                    median: 2.0,
                    mad: 0.25,
                },
            )
            .summary("steps", vec![1.0, 2.0]);
        let json = report.json();
        assert!(json.starts_with("{\n  \"experiment\": \"demo\",\n  \"smoke\": "));
        assert!(json.contains("\"topology\": \"line(4)\""));
        assert!(json.contains("\"points\": [{\"k\":8,\"ratio\":0.500},{\"k\":12,\"ratio\":null}]"));
        assert!(json.contains("\"spread\": {\"median\":2.000,\"mad\":0.250}"));
        assert!(json.ends_with("\"steps\": [1.000,2.000]\n}\n"));
        let rows = report.rows();
        assert_eq!(rows[0], "# demo report");
        assert!(rows[1].ends_with(" | topology=line(4)"));
        assert_eq!(rows[2..5], ["k | ratio", "8 | 0.500", "12 | null"]);
        assert_eq!(rows[5], "spread = 2.000 ± 0.250");
        assert_eq!(rows[6], "steps = 1.000 / 2.000");
    }
}
