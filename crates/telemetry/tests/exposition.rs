//! Golden test for the Prometheus text-exposition format, plus property
//! tests that `render_text` output survives a line-by-line parse round-trip.

use proptest::prelude::*;
use rvaas_telemetry::{parse_text, Registry, Sample};

/// The exact exposition document for a small, fully deterministic registry.
/// Any change to the renderer's format shows up here as a diff.
#[test]
fn golden_exposition_document() {
    let registry = Registry::new();
    registry
        .counter("rvaas_queries_total", "Queries answered.")
        .add(17);
    registry
        .counter_with(
            "rvaas_cache_ops_total",
            "Cache operations by outcome.",
            &[("outcome", "hit")],
        )
        .add(9);
    registry
        .counter_with(
            "rvaas_cache_ops_total",
            "Cache operations by outcome.",
            &[("outcome", "miss")],
        )
        .add(4);
    registry
        .gauge("rvaas_queue_depth", "Jobs queued or in flight.")
        .set(3);
    let latency = registry.histogram("rvaas_query_latency_us", "Query latency (µs).");
    latency.record(0);
    latency.record(1);
    latency.record(3);
    latency.record(6);

    let expected = "\
# HELP rvaas_cache_ops_total Cache operations by outcome.
# TYPE rvaas_cache_ops_total counter
rvaas_cache_ops_total{outcome=\"hit\"} 9
rvaas_cache_ops_total{outcome=\"miss\"} 4
# HELP rvaas_queries_total Queries answered.
# TYPE rvaas_queries_total counter
rvaas_queries_total 17
# HELP rvaas_query_latency_us Query latency (µs).
# TYPE rvaas_query_latency_us histogram
rvaas_query_latency_us_bucket{le=\"0\"} 1
rvaas_query_latency_us_bucket{le=\"1\"} 2
rvaas_query_latency_us_bucket{le=\"3\"} 3
rvaas_query_latency_us_bucket{le=\"7\"} 4
rvaas_query_latency_us_bucket{le=\"+Inf\"} 4
rvaas_query_latency_us_sum 10
rvaas_query_latency_us_count 4
# HELP rvaas_queue_depth Jobs queued or in flight.
# TYPE rvaas_queue_depth gauge
rvaas_queue_depth 3
";
    assert_eq!(registry.render_text(), expected);
}

/// Histogram bucket lines must be cumulative and end with `+Inf == _count`.
#[test]
fn histogram_exposition_invariants() {
    let registry = Registry::new();
    let h = registry.histogram("h_us", "H.");
    for v in [1u64, 2, 4, 8, 16, 1024, 65_536] {
        h.record(v);
    }
    let samples = parse_text(&registry.render_text()).unwrap();
    let buckets: Vec<&Sample> = samples.iter().filter(|s| s.name == "h_us_bucket").collect();
    assert!(buckets.len() >= 2);
    let mut prev = 0.0;
    for b in &buckets {
        assert!(b.value >= prev, "bucket counts must be cumulative");
        prev = b.value;
    }
    let count = samples.iter().find(|s| s.name == "h_us_count").unwrap();
    assert_eq!(buckets.last().unwrap().value, count.value);
    assert_eq!(
        buckets.last().unwrap().labels.last().unwrap(),
        &("le".to_string(), "+Inf".to_string())
    );
}

/// Builds a registry from generated primitives and checks that every metric
/// written is recoverable from the parsed exposition output.
fn label_value(seed: u64) -> String {
    // Exercise the escaping path: backslashes, quotes, newlines.
    let specials = [
        "plain",
        "with\\backslash",
        "with\"quote",
        "with\nnewline",
        "",
    ];
    specials[(seed % specials.len() as u64) as usize].to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn render_parse_round_trip(
        counts in collection::vec(0u64..1_000_000, 1..6),
        gauge_vals in collection::vec(any::<u32>(), 1..4),
        hist_vals in collection::vec(any::<u64>(), 0..32),
        label_seed in any::<u64>(),
    ) {
        let registry = Registry::new();
        for (i, &c) in counts.iter().enumerate() {
            let value = label_value(label_seed.wrapping_add(i as u64));
            registry
                .counter_with("pt_events_total", "Events.", &[("kind", &value)])
                .add(c);
        }
        for (i, &g) in gauge_vals.iter().enumerate() {
            let name = format!("pt_gauge_{i}");
            registry.gauge(&name, "A gauge.").set(i64::from(g));
        }
        let h = registry.histogram("pt_lat_us", "Latency.");
        for &v in &hist_vals {
            h.record(v);
        }

        let rendered = registry.render_text();
        let samples = parse_text(&rendered).expect("render_text must be parseable");

        // Every counter instance round-trips by (name, labels, value).
        let mut expected_total = 0u64;
        for &c in &counts {
            expected_total += c;
        }
        let parsed_total: f64 = samples
            .iter()
            .filter(|s| s.name == "pt_events_total")
            .map(|s| s.value)
            .sum();
        prop_assert_eq!(parsed_total as u64, expected_total);

        for (i, &g) in gauge_vals.iter().enumerate() {
            let name = format!("pt_gauge_{i}");
            let sample = samples.iter().find(|s| s.name == name).unwrap();
            prop_assert_eq!(sample.value as u32, g);
        }

        let count = samples.iter().find(|s| s.name == "pt_lat_us_count").unwrap();
        prop_assert_eq!(count.value as usize, hist_vals.len());
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "pt_lat_us_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .unwrap();
        prop_assert_eq!(inf.value as usize, hist_vals.len());
    }
}
