//! One workload, one process: set up the daemon, run the measured window
//! over loopback, read the daemon's own counters, check every verdict
//! against the oracle, and turn the logs into named metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rvaas_service::{ReverifyStats, ServiceStats};
use rvaas_telemetry::parse_text;

use crate::fixture::{Connections, Fixture, Publisher};
use crate::gen::{churn_order, input_hash, request_stream};
use crate::load::{run_epochs, run_queries, EpochLog, QueryLog, VerdictCheck, Window, SEGMENTS};
use crate::oracle::{self, OracleReport};
use crate::procfs;
use crate::spec::Workload;
use crate::stats::{midmean, percentile, relative_range, sorted, supported_percentile, OpenLoop};
use crate::wire::HttpClient;

/// `setup_s` is the midmean over repeated set-ups: at least `MIN_SETUPS`, and
/// more while they have taken less than `SETUP_BUDGET` in all. The small
/// topologies set up in ~40 ms or ~50 ms depending on where the connects
/// land in the daemon's 10 ms accept poll; a median would jump between the
/// two levels, and only repetition steadies either statistic. The last
/// set-up is the daemon the window runs against.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// On the churn workloads one HTTP verdict in this many is kept and checked
/// against a rebuild of the epoch it names.
const CHURN_VERDICT_SAMPLE: u64 = 16;

/// A named value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

pub fn put(
    metrics: &mut Metrics,
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
) {
    metrics.insert(
        name,
        Metric {
            value,
            unit,
            samples,
        },
    );
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    /// HTTP query connections; the workload's own count unless a test turns
    /// the query side off.
    pub http_clients: usize,
    pub corrupt_oracle: bool,
}

/// The daemon's own counters (S), as differences over the query window.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ServerCounters {
    pub queries: u64,
    pub batches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_carried: u64,
    pub cache_invalidated: u64,
    pub incremental_applies: u64,
    pub model_rebuilds: u64,
    pub reverified: u64,
    pub skipped: u64,
    /// Mean of `rvaas_stage_latency_us{stage=...}` over the window, µs.
    pub stage_mean_us: BTreeMap<String, f64>,
}

/// A reading of every counter the (S) metrics are made of.
struct CounterReading {
    stats: ServiceStats,
    reverify: ReverifyStats,
    /// stage → (sum, count) of `rvaas_stage_latency_us`.
    stages: BTreeMap<String, (f64, f64)>,
}

fn stage_sums(exposition: &str) -> BTreeMap<String, (f64, f64)> {
    let mut stages: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for sample in parse_text(exposition).unwrap_or_default() {
        let field = match sample.name.as_str() {
            "rvaas_stage_latency_us_sum" => 0,
            "rvaas_stage_latency_us_count" => 1,
            _ => continue,
        };
        if let Some((_, stage)) = sample.labels.iter().find(|(k, _)| k == "stage") {
            let entry = stages.entry(stage.clone()).or_default();
            if field == 0 {
                entry.0 = sample.value;
            } else {
                entry.1 = sample.value;
            }
        }
    }
    stages
}

fn read_counters(fixture: &Fixture, exposition: &str) -> CounterReading {
    CounterReading {
        stats: fixture.daemon.service().stats(),
        reverify: fixture.daemon.sync_server().reverify_stats(),
        stages: stage_sums(exposition),
    }
}

fn counters_between(before: &CounterReading, after: &CounterReading) -> ServerCounters {
    let (b, a) = (&before.stats, &after.stats);
    let stage_mean_us = after
        .stages
        .iter()
        .filter_map(|(stage, (sum, count))| {
            let (sum0, count0) = before.stages.get(stage).copied().unwrap_or_default();
            (count - count0 > 0.0).then(|| (stage.clone(), (sum - sum0) / (count - count0)))
        })
        .collect();
    ServerCounters {
        queries: a.queries - b.queries,
        batches: a.batches - b.batches,
        cache_hits: a.cache_hits - b.cache_hits,
        cache_misses: a.cache_misses - b.cache_misses,
        cache_carried: a.cache_carried - b.cache_carried,
        cache_invalidated: a.cache_invalidated - b.cache_invalidated,
        incremental_applies: a.incremental_applies - b.incremental_applies,
        model_rebuilds: a.model_rebuilds - b.model_rebuilds,
        reverified: after.reverify.reverified - before.reverify.reverified,
        skipped: after.reverify.skipped - before.reverify.skipped,
        stage_mean_us,
    }
}

/// One `GET /metrics` over a fresh connection, as an operator would scrape.
fn scrape_metrics(fixture: &Fixture) -> Result<String, String> {
    let addr = fixture.daemon.http_addr().ok_or("no http listener")?;
    let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;
    match client.round_trip(b"GET /metrics HTTP/1.1\r\nHost: rvaas\r\n\r\n") {
        Ok(200) => Ok(String::from_utf8_lossy(client.body()).into_owned()),
        Ok(status) => Err(format!("/metrics answered {status}")),
        Err(e) => Err(format!("/metrics: {e}")),
    }
}

/// Everything one wire run produced.
#[derive(Debug)]
pub struct Measured {
    pub queries: Vec<QueryLog>,
    pub epochs: EpochLog,
    pub counters: ServerCounters,
    pub oracle: OracleReport,
    /// Length of the query window, seconds.
    pub query_window_s: f64,
    /// Process CPU spent during the query window outside the generator's own
    /// threads, µs (10 ms resolution).
    pub server_cpu_us: u64,
    pub input_hash: u64,
    pub errors: Vec<String>,
}

impl Measured {
    /// Operations attempted: requests, publishes, sync exchanges and oracle
    /// comparisons (`oracle` already counts the ones made on arrival).
    pub fn attempted(&self) -> u64 {
        self.queries.iter().map(|q| q.attempted).sum::<u64>()
            + self.epochs.attempted
            + self.oracle.checked
    }

    pub fn failed(&self) -> u64 {
        self.queries.iter().map(|q| q.failed).sum::<u64>()
            + self.epochs.failed
            + self.oracle.mismatches
            + self.errors.len() as u64
    }

    pub fn completed_queries(&self) -> usize {
        self.queries.iter().map(QueryLog::completed).sum::<u64>() as usize
    }
}

/// Runs the workload's load against a started fixture and checks it.
///
/// Churn workloads publish during the whole window next to the query
/// client. Query-only workloads must see no publish while they measure, so
/// their epochs come as a short probe after the query window has closed and
/// the daemon's counters have been read: `seconds` is split 3:2 between
/// the two, and the epoch-path metrics are defined on every workload.
pub fn measure(
    fixture: &Fixture,
    connections: Connections,
    publisher: &mut Publisher,
    options: &RunOptions,
) -> Measured {
    let workload = options.workload;
    let Connections { mut http, mut sync } = connections;
    http.truncate(options.http_clients);
    let window = Duration::from_secs(options.seconds);
    let schedule = OpenLoop {
        period: Duration::from_secs(1) / workload.epochs_per_s,
    };
    let (query_window, epochs) = if workload.churn_during_queries {
        (
            window,
            (options.seconds * u64::from(workload.epochs_per_s)) as usize,
        )
    } else {
        let probe = window * 2 / 5;
        (
            window - probe,
            (probe.as_secs_f64() * f64::from(workload.epochs_per_s)).round() as usize,
        )
    };
    let churn_tenants = churn_order(options.seed, fixture.tenants.len(), epochs);
    let input_hash = input_hash(
        options.seed,
        http.len(),
        fixture.requests.len(),
        &churn_tenants,
    );

    let registry = fixture.daemon.service().registry();
    let before = read_counters(fixture, &registry.render_text());
    let http_addr = fixture.daemon.http_addr().expect("fixture listens");
    let mut query_logs: Vec<QueryLog> = http.iter().map(|_| QueryLog::new()).collect();
    // No epoch moves under the query-only workloads' connections, so their
    // verdicts are checked as they arrive, every one, against answers worked
    // out beforehand; the churn workloads keep a sample for after the window.
    let mut benign = (!workload.churn_during_queries)
        .then(|| oracle::expected_at_benign(&fixture.topology, &fixture.keys));
    if let (Some(expected), true) = (&mut benign, options.corrupt_oracle) {
        // The first key connection 0 will ask for, so the wrong answer is
        // certain to be met.
        let first = request_stream(options.seed, 0).below(expected.len());
        expected[first] = !expected[first];
    }
    let check = match &benign {
        Some(expected) => VerdictCheck::Fixed {
            serial: 1,
            expected,
        },
        None => VerdictCheck::Sampled {
            every: CHURN_VERDICT_SAMPLE,
        },
    };
    let mut epoch_log = EpochLog::default();
    let mut errors = Vec::new();

    let cpu_before = procfs::process_cpu_ticks();
    let start = Instant::now();
    let window = Window {
        start,
        length: query_window,
    };
    std::thread::scope(|scope| {
        for (connection, (client, log)) in http.iter_mut().zip(&mut query_logs).enumerate() {
            let order = request_stream(options.seed, connection);
            let requests = &fixture.requests;
            scope.spawn(move || {
                run_queries(client, http_addr, requests, order, check, window, log);
            });
        }
        if workload.churn_during_queries {
            run_epochs(
                fixture,
                publisher,
                &mut sync,
                schedule,
                epochs,
                start,
                &mut epoch_log,
            );
        }
    });
    let query_window_s = start.elapsed().as_secs_f64();
    let generator_ticks = query_logs.iter().map(|q| q.cpu_ticks).sum::<u64>() + epoch_log.cpu_ticks;
    let server_cpu_us = (procfs::process_cpu_ticks() - cpu_before).saturating_sub(generator_ticks)
        * procfs::TICK_US;
    drop(http);

    // The window is closed: read what the daemon counted, through the same
    // endpoint an operator would use.
    let exposition = scrape_metrics(fixture).unwrap_or_else(|e| {
        errors.push(e);
        String::new()
    });
    let counters = counters_between(&before, &read_counters(fixture, &exposition));

    if !workload.churn_during_queries {
        run_epochs(
            fixture,
            publisher,
            &mut sync,
            schedule,
            epochs,
            Instant::now(),
            &mut epoch_log,
        );
    }

    let verdicts: Vec<_> = query_logs
        .iter()
        .flat_map(|q| q.verdicts.iter().copied())
        .collect();
    let mut oracle = oracle::check(&oracle::Evidence {
        topology: &fixture.topology,
        keys: &fixture.keys,
        steps: &publisher.steps,
        http: &verdicts,
        sync: &epoch_log.verdicts,
        final_digests: sync.session.digests(),
        corrupt_one: options.corrupt_oracle && benign.is_none(),
    });
    for log in &query_logs {
        oracle.checked += log.checked;
        oracle.mismatches += log.mismatches;
    }

    Measured {
        queries: query_logs,
        epochs: epoch_log,
        counters,
        oracle,
        query_window_s,
        server_cpu_us,
        input_hash,
        errors,
    }
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// Wire latency of every completed query in the run, ascending, ns.
fn sorted_query_latencies(measured: &Measured) -> Vec<u64> {
    let all: Vec<u64> = measured
        .queries
        .iter()
        .flat_map(|q| q.latency_ns.iter().copied())
        .collect();
    sorted(&all)
}

/// The end-to-end metrics of a wire run (without `setup_s` and
/// `peak_rss_mb`, which the caller owns).
pub fn end_to_end_metrics(measured: &Measured, metrics: &mut Metrics) {
    let latencies = sorted_query_latencies(measured);
    let n = latencies.len();
    let mean_us = |part: &[u64]| part.iter().sum::<u64>() as f64 / part.len().max(1) as f64 / 1e3;
    // Location and tail as means over a quantile range, not as single order
    // statistics: the daemon's stall ends on a 4 ms timer tick, and a lone
    // order statistic jumps a whole tick when the mix of ticks shifts. The
    // tail stops at p99 because that is about as far as a window's few
    // hundred samples reach; beyond it a single hiccup of the host decides.
    let (p25, p75) = (n / 4, n - n / 4);
    let p90 = (n * 9 / 10).min(n.saturating_sub(1));
    let p99 = (n * 99).div_ceil(100).max(p90 + 1).min(n);
    put(
        metrics,
        "query_mid_us",
        mean_us(&latencies[p25..p75]),
        "us",
        n,
    );
    put(
        metrics,
        "query_tail_us",
        mean_us(&latencies[p90..p99]),
        "us",
        n,
    );
    let completed = measured.completed_queries();
    put(
        metrics,
        "query_qps",
        completed as f64 / measured.query_window_s,
        "1/s",
        completed,
    );
    put(
        metrics,
        "query_p50_us",
        percentile(&latencies, 0.5) as f64 / 1e3,
        "us",
        n,
    );
    put(
        metrics,
        "query_p99_us",
        percentile(&latencies, 0.99) as f64 / 1e3,
        "us",
        n,
    );

    let freshness = sorted(&measured.epochs.freshness_ns);
    for (name, q) in [("freshness_p50_ms", 0.5), ("freshness_p90_ms", 0.9)] {
        let value = percentile(&freshness, q) as f64 / 1e6;
        put(metrics, name, value, "ms", freshness.len());
    }
    let publish = sorted(&measured.epochs.publish_ns);
    put(
        metrics,
        "publish_p50_us",
        percentile(&publish, 0.5) as f64 / 1e3,
        "us",
        publish.len(),
    );
    put(
        metrics,
        "sync_bytes_per_epoch",
        measured.epochs.frame_bytes as f64 / measured.epochs.epochs.max(1) as f64,
        "B",
        measured.epochs.epochs as usize,
    );
}

/// The per-layer metrics a wire run yields: the daemon's counters (S) and
/// the generator's own diagnostics (G) that need no replay.
pub fn wire_layer_metrics(measured: &Measured, metrics: &mut Metrics) {
    let c = &measured.counters;
    let queries = c.queries as usize;
    put(
        metrics,
        "service.cache_hit_ratio",
        ratio(c.cache_hits, c.cache_misses),
        "ratio",
        (c.cache_hits + c.cache_misses) as usize,
    );
    put(
        metrics,
        "service.cache_carry_ratio",
        ratio(c.cache_carried, c.cache_invalidated),
        "ratio",
        (c.cache_carried + c.cache_invalidated) as usize,
    );
    put(
        metrics,
        "service.pool_batch_mean",
        c.queries as f64 / c.batches.max(1) as f64,
        "count",
        c.batches as usize,
    );
    put(
        metrics,
        "service.model_incremental_ratio",
        ratio(c.incremental_applies, c.model_rebuilds),
        "ratio",
        (c.incremental_applies + c.model_rebuilds) as usize,
    );
    put(
        metrics,
        "service.sync_reverify_ratio",
        ratio(c.reverified, c.skipped),
        "ratio",
        (c.reverified + c.skipped) as usize,
    );
    for (name, stage) in [
        ("service.stage_epoch_publish_mean_us", "epoch.publish"),
        ("service.stage_pool_eval_mean_us", "pool.eval"),
        ("service.stage_model_sync_mean_us", "pool.model_sync"),
    ] {
        let mean = c.stage_mean_us.get(stage).copied().unwrap_or(0.0);
        put(metrics, name, mean, "us", queries);
    }

    let completed = measured.completed_queries();
    put(
        metrics,
        "daemon.server_cpu_us_per_query",
        measured.server_cpu_us as f64 / completed.max(1) as f64,
        "us",
        completed,
    );
    let late = sorted(&measured.epochs.late_ns);
    put(
        metrics,
        "loadgen.publish_late_p90_ms",
        percentile(&late, 0.9) as f64 / 1e6,
        "ms",
        late.len(),
    );
    let segment_mean: Vec<f64> = (0..SEGMENTS)
        .filter_map(|segment| {
            let total = |field: fn(&QueryLog) -> &[u64; SEGMENTS]| {
                measured
                    .queries
                    .iter()
                    .map(|q| field(q)[segment])
                    .sum::<u64>()
            };
            let count = total(|q| &q.segment_count);
            (count > 0).then(|| total(|q| &q.segment_sum_ns) as f64 / count as f64)
        })
        .collect();
    put(
        metrics,
        "loadgen.segment_mean_spread",
        relative_range(&segment_mean),
        "ratio",
        segment_mean.len(),
    );
}

/// A finished untraced run.
#[derive(Debug)]
pub struct Outcome {
    pub measured: Measured,
    pub metrics: Metrics,
    pub setups_s: Vec<f64>,
}

/// The untraced run: repeated timed set-ups (all but the last torn down
/// again), the measured window on the last, then `VmHWM`.
pub fn run_untraced(options: &RunOptions) -> Result<Outcome, String> {
    let mut setups_s = Vec::with_capacity(MAX_SETUPS);
    let (fixture, connections) = loop {
        let (fixture, connections) = Fixture::start(options.workload)?;
        setups_s.push(fixture.setup.as_secs_f64());
        let enough = setups_s.len() >= MIN_SETUPS
            && setups_s.iter().sum::<f64>() >= SETUP_BUDGET.as_secs_f64();
        if enough || setups_s.len() == MAX_SETUPS {
            break (fixture, connections);
        }
        drop(connections);
        fixture.stop();
    };
    let mut publisher = Publisher::new(&fixture, options.workload.publish, options.seed);
    let measured = measure(&fixture, connections, &mut publisher, options);
    fixture.stop();

    let mut metrics = Metrics::new();
    put(
        &mut metrics,
        "setup_s",
        midmean(&setups_s),
        "s",
        setups_s.len(),
    );
    end_to_end_metrics(&measured, &mut metrics);
    put(
        &mut metrics,
        "peak_rss_mb",
        procfs::vm_hwm_kb() as f64 / 1024.0,
        "MB",
        1,
    );
    Ok(Outcome {
        measured,
        metrics,
        setups_s,
    })
}

/// The note printed under the latency rows: which percentile the sample
/// count actually supports.
pub fn percentile_note(samples: usize) -> String {
    match supported_percentile(samples) {
        Some(q) => format!(
            "{samples} query samples: the highest percentile with >=10 samples beyond it is p{}",
            q * 100.0
        ),
        None => format!("{samples} query samples: too few for any percentile"),
    }
}
