//! The metric [`Registry`]: named families of counters, gauges, and
//! histograms with label support, plus Prometheus text rendering.

use crate::histogram::{bucket_bound, bucket_index, Histogram, HistogramSnapshot};
use crate::metric::{Counter, Gauge};
use crate::text;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Histogram family every [`Registry::stage_histogram`] belongs to.
pub const STAGE_LATENCY_METRIC: &str = "rvaas_stage_latency_us";

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous signed value.
    Gauge,
    /// Log-bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: String,
    kind: MetricKind,
    /// Instances keyed by their sorted label pairs.
    instances: BTreeMap<Vec<(String, String)>, Instrument>,
}

/// A registry of named metric families.
///
/// Registration (`counter`/`gauge`/`histogram` and their `_with` labelled
/// variants) takes an internal mutex and returns an `Arc` handle; recording
/// through the handle never touches the registry again, so the hot path is
/// pure atomics. Registering the same (name, labels) twice returns the same
/// underlying instrument; registering a name under two different kinds
/// panics — that is a programming error, not a runtime condition.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().unwrap();
        f.debug_struct("Registry")
            .field("families", &families.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry already wrapped in an [`Arc`], ready to share
    /// across threads.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Registry::new())
    }

    /// The counter `name` with no labels, registering it on first use.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// The counter `name` with the given label pairs.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.instrument(name, help, labels, MetricKind::Counter) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked in instrument()"),
        }
    }

    /// The gauge `name` with no labels, registering it on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// The gauge `name` with the given label pairs.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.instrument(name, help, labels, MetricKind::Gauge) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked in instrument()"),
        }
    }

    /// The histogram `name` with no labels, registering it on first use.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// The histogram `name` with the given label pairs.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.instrument(name, help, labels, MetricKind::Histogram) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked in instrument()"),
        }
    }

    /// The `rvaas_stage_latency_us{stage="<stage>"}` histogram. Hot paths
    /// should fetch this once and time through the handle ([`Histogram::span`])
    /// rather than paying the registry lookup per measurement.
    pub fn stage_histogram(&self, stage: &str) -> Arc<Histogram> {
        self.histogram_with(
            STAGE_LATENCY_METRIC,
            "Per-stage latency of the query/epoch lifecycle, in microseconds.",
            &[("stage", stage)],
        )
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
    ) -> Instrument {
        assert!(
            text::valid_metric_name(name),
            "invalid metric name: {name:?}"
        );
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(text::valid_label_name(k), "invalid label name: {k:?}");
                assert!(
                    !(kind == MetricKind::Histogram && *k == "le"),
                    "label name \"le\" is reserved for histogram buckets"
                );
                ((*k).to_string(), (*v).to_string())
            })
            .collect();
        key.sort();
        key.dedup_by(|a, b| a.0 == b.0);

        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            instances: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} registered as {} but requested as {}",
            family.kind.as_str(),
            kind.as_str()
        );
        let instrument = family.instances.entry(key).or_insert_with(|| match kind {
            MetricKind::Counter => Instrument::Counter(Arc::new(Counter::new())),
            MetricKind::Gauge => Instrument::Gauge(Arc::new(Gauge::new())),
            MetricKind::Histogram => Instrument::Histogram(Arc::new(Histogram::new())),
        });
        match instrument {
            Instrument::Counter(c) => Instrument::Counter(Arc::clone(c)),
            Instrument::Gauge(g) => Instrument::Gauge(Arc::clone(g)),
            Instrument::Histogram(h) => Instrument::Histogram(Arc::clone(h)),
        }
    }

    /// Renders every registered family in the Prometheus text exposition
    /// format: a `# HELP`/`# TYPE` header per family followed by its sample
    /// lines (histograms expand to cumulative `_bucket`/`_sum`/`_count`).
    #[must_use]
    pub fn render_text(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", text::escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, instrument) in &family.instances {
                match instrument {
                    Instrument::Counter(c) => {
                        text::write_sample(&mut out, name, labels, &c.get().to_string());
                    }
                    Instrument::Gauge(g) => {
                        text::write_sample(&mut out, name, labels, &g.get().to_string());
                    }
                    Instrument::Histogram(h) => {
                        render_histogram(&mut out, name, labels, &h.snapshot());
                        // Exemplar comment: the parser skips unknown comment
                        // kinds, so scrapers that don't understand exemplars
                        // see a plain histogram while the trace link still
                        // rides the exposition.
                        if let Some((value, trace)) = h.exemplar() {
                            out.push_str("# EXEMPLAR ");
                            text::write_sample(
                                &mut out,
                                name,
                                labels,
                                &format!("{value} trace={}", trace.0),
                            );
                        }
                    }
                }
            }
        }
        out
    }
}

/// Writes the `_bucket`/`_sum`/`_count` expansion of one histogram
/// instance. Buckets are cumulative; only buckets up to the one holding the
/// observed max are materialised (plus the mandatory `+Inf`), which keeps an
/// idle scrape compact without changing its meaning.
fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
) {
    let bucket_name = format!("{name}_bucket");
    let top = if snap.count == 0 {
        0
    } else {
        bucket_index(snap.max)
    };
    let mut cumulative: u64 = 0;
    for (i, &n) in snap.buckets.iter().enumerate().take(top + 1) {
        cumulative = cumulative.saturating_add(n);
        let mut with_le = labels.to_vec();
        with_le.push(("le".to_string(), bucket_bound(i).to_string()));
        text::write_sample(out, &bucket_name, &with_le, &cumulative.to_string());
    }
    let mut with_inf = labels.to_vec();
    with_inf.push(("le".to_string(), "+Inf".to_string()));
    text::write_sample(out, &bucket_name, &with_inf, &snap.count.to_string());
    text::write_sample(out, &format!("{name}_sum"), labels, &snap.sum.to_string());
    text::write_sample(
        out,
        &format!("{name}_count"),
        labels,
        &snap.count.to_string(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceId;

    #[test]
    fn same_name_and_labels_share_one_instrument() {
        let registry = Registry::new();
        let a = registry.counter("rvaas_queries_total", "Queries.");
        let b = registry.counter("rvaas_queries_total", "Queries.");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn label_sets_are_distinct_instances() {
        let registry = Registry::new();
        let hits = registry.counter_with("rvaas_ops_total", "Ops.", &[("op", "hit")]);
        let misses = registry.counter_with("rvaas_ops_total", "Ops.", &[("op", "miss")]);
        hits.add(3);
        misses.add(4);
        assert_eq!(hits.get(), 3);
        assert_eq!(misses.get(), 4);
    }

    #[test]
    fn label_order_does_not_matter() {
        let registry = Registry::new();
        let a = registry.counter_with("m_total", "M.", &[("a", "1"), ("b", "2")]);
        let b = registry.counter_with("m_total", "M.", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        let _ = registry.counter("m_total", "M.");
        let _ = registry.gauge("m_total", "M.");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        let registry = Registry::new();
        let _ = registry.counter("9starts_with_digit", "M.");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn le_label_on_histogram_panics() {
        let registry = Registry::new();
        let _ = registry.histogram_with("h_us", "H.", &[("le", "5")]);
    }

    #[test]
    fn span_records_into_stage_histogram() {
        let registry = Registry::new();
        // Two fetches of one stage are one instrument.
        drop(registry.stage_histogram("pool.eval").span());
        drop(registry.stage_histogram("pool.eval").span());
        assert_eq!(registry.stage_histogram("pool.eval").snapshot().count, 2);
        assert_eq!(
            registry.stage_histogram("epoch.publish").snapshot().count,
            0
        );
    }

    #[test]
    fn exemplars_render_as_comments_without_breaking_the_exposition() {
        let registry = Registry::new();
        registry
            .histogram_with(
                STAGE_LATENCY_METRIC,
                "Stage latency.",
                &[("stage", "pool.eval")],
            )
            .record_traced(500, TraceId(42));
        let rendered = registry.render_text();
        assert!(rendered
            .contains("# EXEMPLAR rvaas_stage_latency_us{stage=\"pool.eval\"} 500 trace=42"));
        // The exemplar rides as a comment, so the document still parses and
        // the comment contributes no sample.
        let samples = crate::text::parse_text(&rendered).unwrap();
        assert!(samples.iter().all(|s| s.name != "# EXEMPLAR"));
        assert!(samples
            .iter()
            .any(|s| s.name == "rvaas_stage_latency_us_count" && s.value == 1.0));
        // A traced span leaves one too; an untraced one never displaces it.
        let publish = registry.stage_histogram("epoch.publish");
        drop(publish.span_traced(TraceId(43)));
        drop(publish.span());
        assert!(registry.render_text().contains(" trace=43\n"));
        // Untraced histograms render no exemplar comment.
        let plain = Registry::new();
        plain.histogram("h_us", "H.").record(9);
        assert!(!plain.render_text().contains("EXEMPLAR"));
    }

    #[test]
    fn render_text_is_parseable_and_complete() {
        let registry = Registry::new();
        registry
            .counter("rvaas_queries_total", "Queries answered.")
            .add(5);
        registry
            .gauge("rvaas_queue_depth", "Jobs in flight.")
            .set(-2);
        registry
            .histogram("rvaas_query_latency_us", "Query latency (µs).")
            .record(300);
        let rendered = registry.render_text();
        assert!(rendered.contains("# TYPE rvaas_queries_total counter"));
        assert!(rendered.contains("# TYPE rvaas_queue_depth gauge"));
        assert!(rendered.contains("# TYPE rvaas_query_latency_us histogram"));
        let samples = crate::text::parse_text(&rendered).unwrap();
        assert!(samples
            .iter()
            .any(|s| s.name == "rvaas_queries_total" && s.value == 5.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "rvaas_queue_depth" && s.value == -2.0));
        // The +Inf bucket must equal _count.
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "rvaas_query_latency_us_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .expect("+Inf bucket present");
        let count = samples
            .iter()
            .find(|s| s.name == "rvaas_query_latency_us_count")
            .expect("_count present");
        assert_eq!(inf.value, count.value);
        assert_eq!(count.value, 1.0);
    }
}
