//! The benchmark's fixed definitions: the four workloads and the end-to-end
//! metrics with their regression bounds. `BENCHMARK.json` at the repository
//! root states the same tables for the driver; a test keeps the two equal.

/// How a workload publishes epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Publish {
    /// `try_publish_changes` of the churn step's rule delta.
    Delta,
    /// `try_publish` of the full snapshot, with the sync client
    /// desynchronised before every exchange so each one is a `Reset`.
    Full,
}

/// One workload: daemon configuration plus offered load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub topology: &'static str,
    pub cache: bool,
    /// Closed-loop keep-alive HTTP connections during the query window.
    pub http_clients: usize,
    pub publish: Publish,
    /// Open-loop publish rate, epochs per second. Ten everywhere: an epoch
    /// and its sync exchange take 2 to 20 ms, so the publisher idles most of
    /// each period, yet a window holds the few hundred epochs a steady
    /// median needs. (Faster than ~20/s and the kernel starts delaying the
    /// sync client's ACKs, which turns the exchange into a 44 ms stall.)
    pub epochs_per_s: u32,
    /// Whether epochs are published *during* the query window (the churn
    /// workloads) or only in a short probe after it has closed (the
    /// query-only workloads, whose window must see no publish).
    pub churn_during_queries: bool,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hot_query",
        topology: "fat_tree(6,20)",
        cache: true,
        http_clients: 2,
        publish: Publish::Delta,
        epochs_per_s: 10,
        churn_during_queries: false,
        why: "every verdict is a cache hit: sockets, http, json, pool dispatch and cache get do \
              all the work; hsa/core evaluation does none",
    },
    Workload {
        name: "cold_query",
        topology: "leaf_spine(4,16,8,7)",
        cache: false,
        http_clients: 2,
        publish: Publish::Delta,
        epochs_per_s: 10,
        churn_during_queries: false,
        why: "cache off, so every verdict is evaluated: core QueryEvaluator and hsa reachability \
              dominate; a cache or http gain must not show here",
    },
    Workload {
        name: "churn_sync",
        topology: "fat_tree(8,32)",
        cache: true,
        http_clients: 1,
        publish: Publish::Delta,
        epochs_per_s: 10,
        churn_during_queries: true,
        why: "10 delta epochs/s with a sync exchange each while one client queries: epoch \
              publish, incremental model, interest index, cache carry, sync reverify, codec",
    },
    Workload {
        name: "full_resync",
        topology: "fat_tree(8,32)",
        cache: true,
        http_clients: 1,
        publish: Publish::Full,
        epochs_per_s: 10,
        churn_during_queries: true,
        why: "10 full-snapshot epochs/s, each answered by a Reset: the re-digest and full-resend \
              fallback paths, so a delta-path gain that costs them shows",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Rules installed (and the previous tenant's removed) per churn epoch.
pub const CHURN_RULES_PER_TENANT: usize = 4;

/// An end-to-end metric: what a user of the daemon would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

/// The bounds are what this host can hold, not what one would wish: timings
/// of CPU-bound work differ by 3 to 13 % between runs of the same binary on
/// the 2-vCPU VM (quartile distance over ten seeds), and a bound has to sit
/// well above that or it rejects unchanged code. Counts and memory get 0.10.
pub const END_TO_END: [EndToEnd; 8] = [
    lower("setup_s", "s", 0.25),
    lower("query_mid_us", "us", 0.15),
    lower("query_tail_us", "us", 0.25),
    EndToEnd {
        name: "query_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.15,
    },
    lower("freshness_p50_ms", "ms", 0.25),
    lower("publish_p50_us", "us", 0.25),
    lower("sync_bytes_per_epoch", "B", 0.10),
    lower("peak_rss_mb", "MB", 0.10),
];

/// Default length of the measured window, seconds (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 28;

/// A per-layer metric: `(name, unit, higher_is_better)`. No bound: these say
/// where the time went, the end-to-end metrics say whether it mattered.
pub type PerLayer = (&'static str, &'static str, bool);

pub const PER_LAYER: [PerLayer; 58] = [
    // Order statistics of the wire run. They are end-to-end by nature but
    // sit here because they cannot hold a 10 % bound on today's daemon: its
    // per-response stall ends on a 4 ms timer tick, so a median or a
    // percentile moves by a whole tick (8 % of 48 ms) when the mix of ticks
    // shifts, and the p90 of ~100 epochs rests on ten samples.
    ("query_p50_us", "us", false),
    ("query_p99_us", "us", false),
    ("freshness_p90_ms", "ms", false),
    // hsa (ladder, inputs from cold_query and churn_sync)
    ("hsa.cube_intersect_ns", "ns", false),
    ("hsa.cube_subtract_ns", "ns", false),
    ("hsa.transfer_insert_rule_ns", "ns", false),
    ("hsa.transfer_remove_rule_ns", "ns", false),
    ("hsa.reachable_from_us", "us", false),
    // core
    ("core.evaluator_build_us", "us", false),
    ("core.evaluator_answer_us", "us", false),
    ("core.incremental_apply_us_per_rule", "us", false),
    ("core.incremental_rebuild_us", "us", false),
    ("core.interest_affected_us", "us", false),
    ("core.interest_affected_100k_us", "us", false),
    ("core.interest_register_ns", "ns", false),
    // service::epoch
    ("service.epoch_publish_changes_us", "us", false),
    ("service.epoch_publish_full_us", "us", false),
    ("service.epoch_delta_between_us", "us", false),
    ("service.stage_epoch_publish_mean_us", "us", false),
    // service::cache
    ("service.cache_get_hit_ns", "ns", false),
    ("service.cache_put_ns", "ns", false),
    ("service.cache_advance_us", "us", false),
    ("service.cache_advance_100k_us", "us", false),
    ("service.cache_hit_ratio", "ratio", true),
    ("service.cache_carry_ratio", "ratio", true),
    // service::pool
    ("service.pool_roundtrip_hit_us", "us", false),
    ("service.pool_roundtrip_miss_us", "us", false),
    ("service.pool_batch_mean", "count", true),
    ("service.model_incremental_ratio", "ratio", true),
    ("service.stage_pool_eval_mean_us", "us", false),
    ("service.stage_model_sync_mean_us", "us", false),
    // service::sync
    ("service.sync_handle_frame_delta_us", "us", false),
    ("service.sync_handle_frame_reset_us", "us", false),
    ("service.sync_reverify_ratio", "ratio", false),
    // client
    ("client.frame_roundtrip_delta_ns", "ns", false),
    ("client.frame_roundtrip_reset_ns", "ns", false),
    ("client.sync_decode_delta_us", "us", false),
    ("client.sync_decode_reset_us", "us", false),
    ("client.session_apply_delta_us", "us", false),
    ("client.session_apply_reset_us", "us", false),
    // daemon::http / daemon::json
    ("daemon.http_read_request_ns", "ns", false),
    ("daemon.json_parse_query_ns", "ns", false),
    ("daemon.json_render_response_ns", "ns", false),
    ("daemon.http_write_response_ns", "ns", false),
    ("daemon.http_route_us", "us", false),
    ("daemon.http_route_residual_ns", "ns", false),
    ("daemon.metrics_render_us", "us", false),
    // daemon::daemon (sockets), from the generator's side
    ("daemon.wire_unattributed_us", "us", false),
    ("daemon.wire_unattributed_share", "ratio", false),
    ("daemon.sync_wire_unattributed_us", "us", false),
    ("daemon.connect_first_query_us", "us", false),
    ("daemon.server_cpu_us_per_query", "us", false),
    // telemetry
    ("telemetry.trace_event_ns", "ns", false),
    ("telemetry.histogram_record_ns", "ns", false),
    ("telemetry.recorder_on_off_ratio", "ratio", false),
    // the generator itself: whether the run can be believed
    ("loadgen.publish_late_p90_ms", "ms", false),
    ("loadgen.segment_mean_spread", "ratio", false),
    ("loadgen.trace_overhead_ratio", "ratio", false),
];

/// The command `BENCHMARK.json` names; the driver appends `--workload
/// <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json` as these tables define it (`describe` prints it).
pub fn benchmark_json() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|word| format!("\"{word}\"")).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, higher)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*higher)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_committed_benchmark_json_is_what_the_tables_say() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate it with `rvaas-benchmark describe > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_tables_respect_the_contract_limits() {
        let valid_name = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let valid_unit = |unit: &str| {
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (name, unit, _) in &PER_LAYER {
            assert!(valid_name(name) && names.insert(name), "{name}");
            assert!(valid_unit(unit), "{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
