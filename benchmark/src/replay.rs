//! The traced run: the same wire window as the untraced run (for the
//! daemon's counters and the wire medians), then the workload's request
//! sequence replayed **in-process**, the harness composing the layers from
//! their public functions with a span around each call. Comparing the two
//! gives the part of the wire latency no in-process layer accounts for.

use std::io::Cursor;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rvaas_client::{decode_inband, InbandMessage, SyncSession};
use rvaas_daemon::{http, json, HttpResponse};
use rvaas_telemetry::{TraceContext, TraceStage};

use crate::fixture::{Fixture, Publisher};
use crate::gen::{request_stream, SplitMix64};
use crate::run::{
    end_to_end_metrics, measure, put, wire_layer_metrics, Measured, Metrics, RunOptions,
};
use crate::spans::{render_json, self_time_by_name, SpanLog};
use crate::spec::Publish;
use crate::stats::{median, percentile, sorted};
use crate::wire::HttpClient;

/// On the churn workloads one epoch is replayed per this many queries, so
/// replayed queries meet freshly invalidated cache entries as the wire
/// client's do.
const QUERIES_PER_EPOCH: usize = 64;
/// Requests the traced replay records at most; bounds the span file.
const MAX_TRACED_REQUESTS: usize = 20_000;
/// Fresh connections timed for `daemon.connect_first_query_us`.
const CONNECT_PROBES: usize = 5;

/// Span names: the root of a replayed request or epoch, then one per call
/// into a layer, named `<layer>.<function>`.
const REQUEST: &str = "request";
const EPOCH: &str = "epoch";
const EPOCH_CALLS: [&str; 4] = [
    "service::epoch.publish",
    "service::sync.handle_frame",
    "client.decode_inband",
    "client.session_apply",
];

/// What the replay measured, in ns.
#[derive(Debug, Default)]
struct Replayed {
    query_ns: Vec<u64>,
    epoch_ns: Vec<u64>,
}

/// The in-process replay of one workload's inputs.
struct Replay<'a> {
    fixture: &'a Fixture,
    publisher: &'a mut Publisher,
    session: SyncSession,
    order: SplitMix64,
    /// `None` on the untraced pass.
    spans: Option<SpanLog>,
    next_id: u32,
    sink: Vec<u8>,
}

impl Replay<'_> {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.next_id;
        if let Some(log) = &mut self.spans {
            log.enter(name, id);
        }
        let out = f(self);
        if let Some(log) = &mut self.spans {
            log.exit();
        }
        out
    }

    /// One `POST /v1/query`, layer by layer, exactly as `http::route` and the
    /// connection loop compose them.
    fn query(&mut self) -> Result<u64, String> {
        let key = self.order.below(self.fixture.requests.len());
        self.next_id += 1;
        let started = Instant::now();
        self.span(REQUEST, |r| {
            let bytes = &r.fixture.requests[key];
            let request = r
                .span("daemon::http.read_request", |_| {
                    http::read_request(&mut Cursor::new(bytes))
                })?
                .ok_or("empty request")?;
            let (client, spec) = r
                .span("daemon::json.parse_query_request", |_| {
                    json::parse_query_request(&request.body)
                })
                .map_err(|e| e.to_string())?;
            let response = r
                .span("service::pool.try_query_traced", |r| {
                    let trace = TraceContext::mint();
                    trace.event(
                        TraceStage::IngressHttp,
                        u64::from(client.0),
                        request.body.len() as u64,
                    );
                    r.fixture
                        .daemon
                        .service()
                        .try_query_traced(client, spec, trace)
                })
                .map_err(|e| e.to_string())?;
            let body = r.span("daemon::json.render_response", |_| {
                json::render_response(&response)
            });
            r.span("daemon::http.write_response", |r| {
                r.sink.clear();
                HttpResponse::json(200, body).write_to(&mut r.sink, true)
            })
            .map_err(|e| e.to_string())
        })?;
        Ok(started.elapsed().as_nanos() as u64)
    }

    /// One epoch: churn step, publish, then the sync exchange without the
    /// socket — request frame into `handle_frame`, response decoded and
    /// applied.
    fn epoch(&mut self) -> Result<u64, String> {
        self.next_id += 1;
        let tenant = self.publisher.step();
        let client = self.fixture.tenants[tenant];
        let started = Instant::now();
        self.span(EPOCH, |r| {
            r.span(EPOCH_CALLS[0], |r| r.publisher.publish(r.fixture))?;
            if r.publisher.mode() == Publish::Full {
                r.session.desynchronise();
            }
            let request = r.session.request(client).encode();
            let frame = r
                .span(EPOCH_CALLS[1], |r| {
                    r.fixture
                        .daemon
                        .sync_server()
                        .handle_frame(r.fixture.daemon.service(), &request)
                })
                .map_err(|e| e.to_string())?;
            let response = match r
                .span(EPOCH_CALLS[2], |_| decode_inband(&frame))
                .map_err(|e| e.to_string())?
            {
                InbandMessage::SyncResponse(response) => response,
                other => return Err(format!("expected a SyncResponse, got {other:?}")),
            };
            r.span(EPOCH_CALLS[3], |r| r.session.apply(&response))
                .map_err(|e| e.to_string())
        })?;
        Ok(started.elapsed().as_nanos() as u64)
    }

    /// Replays queries until `budget` has passed or `MAX_TRACED_REQUESTS`
    /// were made — with an epoch every `QUERIES_PER_EPOCH` of them on the
    /// churn workloads, with `probe_epochs` epochs afterwards on the others.
    fn run(
        &mut self,
        budget: Duration,
        churn_during_queries: bool,
        probe_epochs: usize,
    ) -> Result<Replayed, String> {
        let mut out = Replayed::default();
        let started = Instant::now();
        while started.elapsed() < budget && out.query_ns.len() < MAX_TRACED_REQUESTS {
            if churn_during_queries && out.query_ns.len() % QUERIES_PER_EPOCH == 0 {
                out.epoch_ns.push(self.epoch()?);
            }
            out.query_ns.push(self.query()?);
        }
        if !churn_during_queries {
            for _ in 0..probe_epochs {
                out.epoch_ns.push(self.epoch()?);
            }
        }
        Ok(out)
    }
}

fn p50_us(samples: &[u64]) -> f64 {
    percentile(&sorted(samples), 0.5) as f64 / 1e3
}

/// A fresh connection plus one query, as a new client would pay it.
fn connect_first_query_us(fixture: &Fixture) -> Result<(f64, usize), String> {
    let addr = fixture.daemon.http_addr().ok_or("no http listener")?;
    let mut samples = Vec::with_capacity(CONNECT_PROBES);
    for probe in 0..CONNECT_PROBES {
        let request = &fixture.requests[probe % fixture.requests.len()];
        let started = Instant::now();
        let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;
        match client.round_trip(request) {
            Ok(200) => samples.push(started.elapsed().as_nanos() as f64 / 1e3),
            Ok(status) => return Err(format!("first query answered {status}")),
            Err(e) => return Err(format!("first query: {e}")),
        }
    }
    Ok((median(&samples), samples.len()))
}

/// Where the span files go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A finished traced run: the wire evidence plus every per-layer metric the
/// wire window and the replay yield (the ladder adds the rest).
#[derive(Debug)]
pub struct Traced {
    pub measured: Measured,
    pub metrics: Metrics,
}

pub fn run_traced(options: &RunOptions) -> Result<Traced, String> {
    let workload = options.workload;
    let (fixture, connections) = Fixture::start(workload)?;
    let mut publisher = Publisher::new(&fixture, workload.publish, options.seed);
    // Half the time for the wire window: the other half pays for the replay
    // and the ladder, so a traced run lasts about as long as an untraced one.
    let wire_options = RunOptions {
        seconds: options.seconds.div_ceil(2),
        ..*options
    };
    let measured = measure(&fixture, connections, &mut publisher, &wire_options);
    let mut wire = Metrics::new();
    end_to_end_metrics(&measured, &mut wire);
    let mut metrics = Metrics::new();
    wire_layer_metrics(&measured, &mut metrics);
    for name in ["query_p50_us", "query_p99_us", "freshness_p90_ms"] {
        metrics.insert(name, wire[name].clone());
    }
    let (first_query_us, probes) = connect_first_query_us(&fixture)?;
    put(
        &mut metrics,
        "daemon.connect_first_query_us",
        first_query_us,
        "us",
        probes,
    );

    // The replay carries on from the state the wire window left: same
    // daemon, same caches, the next epochs of the same churn order.
    let budget = Duration::from_secs(options.seconds).mul_f64(0.125);
    let probe_epochs = measured.epochs.freshness_ns.len().clamp(1, 32);
    let mut replay = Replay {
        fixture: &fixture,
        publisher: &mut publisher,
        session: SyncSession::new(),
        order: request_stream(options.seed, 0),
        spans: None,
        next_id: 0,
        sink: Vec::with_capacity(1024),
    };
    // The fresh session's first exchange is its baseline Reset, as the
    // wire client's was during set-up.
    replay.epoch()?;
    let plain = replay.run(budget, workload.churn_during_queries, probe_epochs)?;
    replay.order = request_stream(options.seed, 0);
    replay.spans = Some(SpanLog::with_capacity(MAX_TRACED_REQUESTS * 7));
    let traced = replay.run(budget, workload.churn_during_queries, probe_epochs)?;
    let log = replay.spans.take().expect("traced pass has a log");
    fixture.stop();

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", workload.name));
    std::fs::write(&path, render_json(log.spans())).map_err(|e| e.to_string())?;

    let wire_query_us = wire["query_p50_us"].value;
    let wire_fresh_us = wire["freshness_p50_ms"].value * 1e3;
    let (queries, epochs) = (traced.query_ns.len(), traced.epoch_ns.len());
    let replay_query_us = p50_us(&traced.query_ns);
    let replay_epoch_us = p50_us(&traced.epoch_ns);
    let plain_query_us = p50_us(&plain.query_ns);
    put(
        &mut metrics,
        "daemon.wire_unattributed_us",
        wire_query_us - replay_query_us,
        "us",
        queries,
    );
    put(
        &mut metrics,
        "daemon.wire_unattributed_share",
        (wire_query_us - replay_query_us) / wire_query_us,
        "ratio",
        queries,
    );
    put(
        &mut metrics,
        "daemon.sync_wire_unattributed_us",
        wire_fresh_us - replay_epoch_us,
        "us",
        epochs,
    );
    put(
        &mut metrics,
        "loadgen.trace_overhead_ratio",
        replay_query_us / plain_query_us,
        "ratio",
        queries,
    );

    println!(
        "# trace: {} spans of {queries} replayed queries and {epochs} epochs -> {}",
        log.len(),
        path.display()
    );
    println!("# self time per layer (in-process replay, spans recorded by the harness):");
    println!(
        "#   {:<36} {:>9} {:>14} {:>8}",
        "span", "count", "mean self us", "share"
    );
    let by_name = self_time_by_name(log.spans());
    for root in [REQUEST, EPOCH] {
        let in_family =
            |name: &str| (name == EPOCH || EPOCH_CALLS.contains(&name)) == (root == EPOCH);
        let total: u64 = by_name
            .iter()
            .filter(|(name, _)| in_family(name))
            .map(|(_, (_, ns))| ns)
            .sum();
        for (name, (count, ns)) in by_name.iter().filter(|(name, _)| in_family(name)) {
            let label = if *name == root {
                format!("{name} (glue between the calls)")
            } else {
                (*name).to_string()
            };
            println!(
                "#   {label:<36} {count:>9} {:>14.3} {:>7.1}%",
                *ns as f64 / *count as f64 / 1e3,
                *ns as f64 * 100.0 / total.max(1) as f64
            );
        }
    }
    println!("# reconciliation (medians; in-process + unattributed = wire, by construction):");
    println!(
        "#   POST /v1/query : in-process {replay_query_us:.3} us + unattributed {:.3} us = wire \
         query_p50_us {wire_query_us:.3} us",
        wire_query_us - replay_query_us
    );
    println!(
        "#   epoch -> client: in-process {replay_epoch_us:.3} us + unattributed {:.3} us = wire \
         freshness_p50_ms {:.3} ms",
        wire_fresh_us - replay_epoch_us,
        wire_fresh_us / 1e3
    );
    println!("#   replay p50 with spans {replay_query_us:.3} us vs without {plain_query_us:.3} us");
    for name in [
        "query_p50_us",
        "query_qps",
        "freshness_p50_ms",
        "publish_p50_us",
    ] {
        println!(
            "# wire (this traced run; quote the untraced run instead): {}",
            crate::report::metric_line(name, &wire[name])
        );
    }
    Ok(Traced { measured, metrics })
}
