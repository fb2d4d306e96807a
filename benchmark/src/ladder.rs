//! The cost ladder (L): each rung is one public function of one layer,
//! timed in isolation on one thread, on inputs taken from the workload that
//! exercises it. Nothing here touches a socket.
//!
//! A rung is the median over `REPS` repetitions of the mean time per call.
//! Calls per repetition are sized so a repetition lasts about `REP_BUDGET`:
//! thousands for nanosecond rungs, a handful for millisecond ones — the
//! whole ladder has to fit inside one traced run next to the wire window.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use rvaas::{ChangedRegion, IncrementalModel, InterestIndex, LocationMap, LogicalVerifier};
use rvaas::{NetworkSnapshot, VerifierConfig};
use rvaas_client::{
    decode_inband, read_frame, write_frame, InbandMessage, QueryResult, QuerySpec, SyncSession,
};
use rvaas_daemon::{http, json, HttpRequest, HttpResponse};
use rvaas_hsa::{Cube, HeaderSpace, ReachabilityEngine};
use rvaas_service::{EpochStore, QueryResponse, ResultCache};
use rvaas_telemetry::trace::recorder;
use rvaas_telemetry::{Histogram, TraceContext, TraceStage};
use rvaas_types::{ClientId, Field, SimTime};
use rvaas_workloads::{benign_snapshot, synthetic_queries};

use crate::fixture::{Fixture, Publisher};
use crate::run::{put, Metrics};
use crate::spec::{workload, Publish};
use crate::stats::median;

const REPS: usize = 5;
const REP_BUDGET: Duration = Duration::from_millis(12);
/// Floor on calls per repetition for rungs cheap enough to afford it.
const MIN_CALLS: usize = 1000;
/// Iterations of the two sync-exchange loops (each feeds four rungs).
const EXCHANGES: usize = 40;
/// Standing queries of the large interest-index and cache populations.
const LARGE_POPULATION: usize = 100_000;

fn record(metrics: &mut Metrics, name: &'static str, ns: f64, unit: &'static str, calls: usize) {
    let value = match unit {
        "ns" => ns,
        "us" => ns / 1e3,
        other => unreachable!("ladder rungs are ns or us, not {other}"),
    };
    put(metrics, name, value, unit, calls);
}

/// Times `batch(calls)` — which makes `calls` calls and returns the time
/// spent in the measured part of them — and returns the median over the
/// repetitions of ns per call, plus the calls made in all. The inputs repeat
/// every `cycle` calls; a repetition is a whole number of cycles.
fn rung(cycle: usize, mut batch: impl FnMut(usize) -> Duration) -> (f64, usize) {
    let warm = batch(cycle);
    let estimate = if warm > Duration::from_millis(4) {
        warm / cycle as u32
    } else {
        batch(8 * cycle) / (8 * cycle) as u32
    };
    let fit = (REP_BUDGET.as_nanos() / estimate.as_nanos().max(1)) as usize;
    let calls = if estimate < Duration::from_micros(12) {
        fit.max(MIN_CALLS)
    } else {
        fit.max(1)
    };
    // Whole cycles only, so every repetition sees the same input mix.
    let calls = calls.div_ceil(cycle) * cycle;
    let per_call: Vec<f64> = (0..REPS)
        .map(|_| batch(calls).as_nanos() as f64 / calls as f64)
        .collect();
    (median(&per_call), calls * REPS)
}

/// A rung whose every call is measured (no per-call set-up to exclude).
fn whole(cycle: usize, mut call: impl FnMut()) -> (f64, usize) {
    rung(cycle, |calls| {
        let started = Instant::now();
        for _ in 0..calls {
            call();
        }
        started.elapsed()
    })
}

/// A rung whose calls each time their own measured part, so set-up and
/// restore around it stay out of the figure.
fn each(cycle: usize, mut call: impl FnMut() -> Duration) -> (f64, usize) {
    rung(cycle, |calls| (0..calls).map(|_| call()).sum())
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed())
}

fn verifier_for(fixture: &Fixture) -> LogicalVerifier {
    LogicalVerifier::new(
        fixture.topology.clone(),
        VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&fixture.topology),
        },
    )
}

fn answers(fixture: &Fixture) -> Result<Vec<QueryResponse>, String> {
    fixture
        .daemon
        .service()
        .try_query_all(&fixture.keys)
        .map_err(|e| e.to_string())
}

/// Runs every rung and records it under its `spec::PER_LAYER` name.
pub fn run(metrics: &mut Metrics) -> Result<(), String> {
    let start = |name: &str| Fixture::start_offline(workload(name).expect("known workload"));
    let hot = start("hot_query")?;
    hsa_and_core_on_cold_query(metrics, &start("cold_query")?)?;
    daemon_and_pool_on_hot_query(metrics, &hot)?;
    telemetry(metrics, &hot)?;
    hot.stop();
    let churn = start("churn_sync")?;
    core_and_epoch_on_churn(metrics, &churn);
    cache_on_churn(metrics, &churn)?;
    sync_and_client_on_churn(metrics, &churn)?;
    churn.stop();
    Ok(())
}

/// `hsa` and the evaluator: inputs from `cold_query`, the workload on which
/// every verdict is evaluated.
fn hsa_and_core_on_cold_query(metrics: &mut Metrics, cold: &Fixture) -> Result<(), String> {
    let snapshot = benign_snapshot(&cold.topology);
    let model = IncrementalModel::from_snapshot(cold.topology.clone(), &snapshot);
    let nf = model.network_function();
    let cubes: Vec<Cube> = nf
        .switches()
        .filter_map(|switch| nf.transfer(switch))
        .flat_map(|transfer| transfer.rules().iter().map(|rule| rule.match_cube))
        .take(512)
        .collect();
    let mut i = 0;
    let mut next_pair = || {
        i = (i + 1) % (cubes.len() - 1);
        (&cubes[i], &cubes[i + 1])
    };
    let pairs = cubes.len() - 1;
    let (ns, calls) = whole(pairs, || {
        let (a, b) = next_pair();
        black_box(a.intersect(black_box(b)));
    });
    record(metrics, "hsa.cube_intersect_ns", ns, "ns", calls);
    let (ns, calls) = whole(pairs, || {
        let (a, b) = next_pair();
        black_box(a.subtract(black_box(b)));
    });
    record(metrics, "hsa.cube_subtract_ns", ns, "ns", calls);

    // One tenant's hosts and its six-query mix stand for the workload.
    let hosts = cold.topology.hosts_of_client(cold.tenants[0]);
    let mix = &cold.keys[..6];
    let engine = ReachabilityEngine::new(nf);
    let mut i = 0;
    let (ns, calls) = whole(hosts.len(), || {
        i = (i + 1) % hosts.len();
        let host = hosts[i];
        let emitted =
            HeaderSpace::from(Cube::wildcard().with_field(Field::IpSrc, u64::from(host.ip)));
        black_box(engine.reachable_from(host.attachment, emitted));
    });
    record(metrics, "hsa.reachable_from_us", ns, "us", calls);

    let verifier = verifier_for(cold);
    let (ns, calls) = whole(1, || {
        black_box(verifier.evaluator(black_box(&snapshot)));
    });
    record(metrics, "core.evaluator_build_us", ns, "us", calls);
    // A fresh evaluator per call, as each lone wire request gets its own
    // batch: nothing is memoised from the query before.
    let mut i = 0;
    let (ns, calls) = each(mix.len(), || {
        i = (i + 1) % mix.len();
        let (client, spec) = &mix[i];
        let mut evaluator = verifier.evaluator_with(&snapshot, nf);
        timed(|| evaluator.answer_with_footprint(*client, spec)).1
    });
    record(metrics, "core.evaluator_answer_us", ns, "us", calls);

    let mut i = 0;
    let (ns, calls) = whole(mix.len(), || {
        i = (i + 1) % mix.len();
        let (client, spec) = &mix[i];
        black_box(cold.daemon.service().try_query(*client, spec.clone())).ok();
    });
    record(metrics, "service.pool_roundtrip_miss_us", ns, "us", calls);
    Ok(())
}

/// `daemon::http`, `daemon::json` and the pool's hit path: inputs from
/// `hot_query`, where they are all the work there is.
fn daemon_and_pool_on_hot_query(metrics: &mut Metrics, hot: &Fixture) -> Result<(), String> {
    let service = hot.daemon.service();
    let responses = answers(hot)?;
    let requests: Vec<HttpRequest> = hot
        .requests
        .iter()
        .map(|bytes| http::read_request(&mut Cursor::new(bytes)))
        .collect::<Result<Option<Vec<_>>, _>>()?
        .ok_or("request bytes did not parse")?;
    let n = hot.keys.len();

    let mut i = 0;
    let (ns, calls) = whole(n, || {
        i = (i + 1) % n;
        black_box(http::read_request(&mut Cursor::new(&hot.requests[i]))).ok();
    });
    record(metrics, "daemon.http_read_request_ns", ns, "ns", calls);
    let (ns, calls) = whole(n, || {
        i = (i + 1) % n;
        black_box(json::parse_query_request(&requests[i].body)).ok();
    });
    record(metrics, "daemon.json_parse_query_ns", ns, "ns", calls);
    let (ns, calls) = whole(n, || {
        i = (i + 1) % n;
        black_box(json::render_response(&responses[i]));
    });
    record(metrics, "daemon.json_render_response_ns", ns, "ns", calls);
    let rendered: Vec<HttpResponse> = responses
        .iter()
        .map(|r| HttpResponse::json(200, json::render_response(r)))
        .collect();
    let mut sink = Vec::with_capacity(1024);
    let (ns, calls) = whole(n, || {
        i = (i + 1) % n;
        sink.clear();
        rendered[i].write_to(&mut sink, true).ok();
        black_box(&sink);
    });
    record(metrics, "daemon.http_write_response_ns", ns, "ns", calls);
    let (ns, calls) = whole(n, || {
        i = (i + 1) % n;
        black_box(http::route(
            service,
            hot.daemon.sync_server(),
            &requests[i],
            0,
        ));
    });
    record(metrics, "daemon.http_route_us", ns, "us", calls);
    let registry = service.registry();
    let (ns, calls) = whole(1, || {
        black_box(registry.render_text());
    });
    record(metrics, "daemon.metrics_render_us", ns, "us", calls);

    let (ns, calls) = whole(n, || {
        i = (i + 1) % n;
        let (client, spec) = &hot.keys[i];
        black_box(service.try_query(*client, spec.clone())).ok();
    });
    record(metrics, "service.pool_roundtrip_hit_us", ns, "us", calls);
    Ok(())
}

fn telemetry(metrics: &mut Metrics, hot: &Fixture) -> Result<(), String> {
    let trace = TraceContext::mint();
    let (ns, calls) = whole(1, || {
        trace.event(TraceStage::CacheHit, black_box(1), black_box(2))
    });
    record(metrics, "telemetry.trace_event_ns", ns, "ns", calls);
    let histogram = Histogram::new();
    let mut v = 0u64;
    let (ns, calls) = whole(1, || {
        v = v.wrapping_add(37) % 100_000;
        histogram.record(black_box(v));
    });
    record(metrics, "telemetry.histogram_record_ns", ns, "ns", calls);

    // The same pool round trip with the flight recorder on and off,
    // interleaved so drift hits both sides alike.
    let service = hot.daemon.service();
    let batch = |calls: usize| {
        let started = Instant::now();
        for i in 0..calls {
            let (client, spec) = &hot.keys[i % hot.keys.len()];
            black_box(service.try_query(*client, spec.clone())).ok();
        }
        started.elapsed().as_nanos() as f64 / calls as f64
    };
    let calls = 2000;
    batch(calls);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        recorder().set_enabled(true);
        on.push(batch(calls));
        recorder().set_enabled(false);
        off.push(batch(calls));
    }
    recorder().set_enabled(true);
    put(
        metrics,
        "telemetry.recorder_on_off_ratio",
        median(&on) / median(&off),
        "ratio",
        2 * REPS * calls,
    );
    Ok(())
}

/// The incremental model, the interest index and the epoch store, at
/// `churn_sync`'s 10 752 rules and with its churn steps as the deltas.
fn core_and_epoch_on_churn(metrics: &mut Metrics, churn: &Fixture) {
    let base = benign_snapshot(&churn.topology);
    let mut steps = Publisher::new(churn, Publish::Delta, 1);

    // hsa: one switch's rule list taking a churn rule in and out again.
    let mut model = IncrementalModel::from_snapshot(churn.topology.clone(), &base);
    let rule_change = {
        steps.step();
        model.apply(steps.last_changes());
        steps.last_changes()[0].clone()
    };
    let mut table = model
        .network_function()
        .transfer(rule_change.switch)
        .expect("churned switch has a table")
        .clone();
    let rule = rule_change.entry.to_rule_transfer();
    table.remove_rule(&rule);
    let (ns, calls) = each(1, || {
        let (_, took) = timed(|| {
            let at = table.insert_rule(rule.clone());
            table.exposed_region(at)
        });
        table.remove_rule(&rule);
        took
    });
    record(metrics, "hsa.transfer_insert_rule_ns", ns, "ns", calls);
    let (ns, calls) = each(1, || {
        let at = table.insert_rule(rule.clone());
        timed(|| {
            let region = table.exposed_region(at);
            (table.remove_rule(&rule), region)
        })
        .1
    });
    record(metrics, "hsa.transfer_remove_rule_ns", ns, "ns", calls);

    let mut regions: Vec<ChangedRegion> = Vec::new();
    let (ns, calls) = each(1, || {
        steps.step();
        let changes = steps.last_changes();
        let (region, took) = timed(|| model.apply(changes));
        if regions.len() < 16 {
            regions.push(region);
        }
        took / changes.len() as u32
    });
    record(
        metrics,
        "core.incremental_apply_us_per_rule",
        ns,
        "us",
        calls,
    );
    let (ns, calls) = whole(1, || model.rebuild_from(black_box(&base)));
    record(metrics, "core.incremental_rebuild_us", ns, "us", calls);

    let mut index = InterestIndex::new(churn.topology.clone());
    for (client, spec) in &churn.keys {
        index.register(*client, spec);
    }
    let mut i = 0;
    let mut affected = |index: &InterestIndex| {
        whole(regions.len(), || {
            i = (i + 1) % regions.len();
            black_box(index.affected(&regions[i]));
        })
    };
    let (ns, calls) = affected(&index);
    record(metrics, "core.interest_affected_us", ns, "us", calls);
    let synthetic = synthetic_queries(&churn.tenants, LARGE_POPULATION);
    let mut i = 0;
    let (ns, calls) = each(1, || {
        i = (i + 1) % synthetic.len();
        let (client, spec) = &synthetic[i];
        let (_, took) = timed(|| index.register(*client, spec));
        index.deregister(*client, spec);
        took
    });
    record(metrics, "core.interest_register_ns", ns, "ns", calls);
    for (client, spec) in &synthetic {
        index.register(*client, spec);
    }
    let (ns, calls) = affected(&index);
    record(metrics, "core.interest_affected_100k_us", ns, "us", calls);

    let store = EpochStore::new(64);
    store.attach_interest_topology(churn.topology.clone());
    for (client, spec) in &churn.keys {
        store.register_interest(*client, spec);
    }
    let mut steps = Publisher::new(churn, Publish::Delta, 1);
    store.publish(steps.snapshot.clone(), SimTime::from_millis(1));
    let (ns, calls) = each(1, || {
        steps.step();
        let at = SimTime::from_millis(steps.serial());
        timed(|| store.try_publish_changes(steps.last_changes(), at)).1
    });
    record(metrics, "service.epoch_publish_changes_us", ns, "us", calls);
    let (ns, calls) = each(1, || {
        steps.step();
        let snapshot: NetworkSnapshot = steps.snapshot.clone();
        let at = SimTime::from_millis(steps.serial());
        timed(|| store.try_publish(snapshot, at)).1
    });
    record(metrics, "service.epoch_publish_full_us", ns, "us", calls);
    let current = store.current().serial;
    let (ns, calls) = whole(1, || {
        black_box(store.delta_between(black_box(current - 1), current));
    });
    record(metrics, "service.epoch_delta_between_us", ns, "us", calls);
}

/// The result cache holding `churn_sync`'s 192 verdicts, then 100 192.
fn cache_on_churn(metrics: &mut Metrics, churn: &Fixture) -> Result<(), String> {
    let entries: Vec<(ClientId, QuerySpec, QueryResult)> = answers(churn)?
        .into_iter()
        .map(|r| (r.client, r.spec, r.result))
        .collect();
    let cache = ResultCache::new(true);
    let mut serial = 1u64;
    let fill = |serial: u64, entries: &[(ClientId, QuerySpec, QueryResult)]| {
        for (client, spec, result) in entries {
            cache.put(serial, *client, spec.clone(), result.clone());
        }
    };
    fill(serial, &entries);
    let mut i = 0;
    let (ns, calls) = whole(entries.len(), || {
        i = (i + 1) % entries.len();
        let (client, spec, _) = &entries[i];
        black_box(cache.get(serial, *client, spec));
    });
    record(metrics, "service.cache_get_hit_ns", ns, "ns", calls);
    let (ns, calls) = whole(entries.len(), || {
        i = (i + 1) % entries.len();
        let (client, spec, result) = &entries[i];
        cache.put(serial, *client, spec.clone(), result.clone());
    });
    record(metrics, "service.cache_put_ns", ns, "ns", calls);

    // An epoch advance that invalidates one tenant's verdicts and carries
    // the rest, as a churn step does; the tenant's entries are put back
    // outside the timed part.
    let mut tenant = 0;
    let mut advance = |serial: &mut u64| {
        each(1, || {
            tenant = (tenant + 1) % churn.tenants.len();
            let churned = churn.tenants[tenant];
            *serial += 1;
            let (_, took) = timed(|| cache.advance(*serial, |client, _| client == churned));
            for (client, spec, result) in entries.iter().filter(|e| e.0 == churned) {
                cache.put(*serial, *client, spec.clone(), result.clone());
            }
            took
        })
    };
    let (ns, calls) = advance(&mut serial);
    record(metrics, "service.cache_advance_us", ns, "us", calls);
    let filler = entries[0].2.clone();
    let synthetic: Vec<_> = synthetic_queries(&churn.tenants, LARGE_POPULATION)
        .into_iter()
        // Parked on a client id no tenant has, so no advance invalidates them.
        .map(|(_, spec)| (ClientId(u32::MAX), spec, filler.clone()))
        .collect();
    fill(serial, &synthetic);
    let (ns, calls) = advance(&mut serial);
    record(metrics, "service.cache_advance_100k_us", ns, "us", calls);
    Ok(())
}

/// `service::sync` and the `client` codec: the four steps of a sync
/// exchange minus the socket, for a delta and for a reset.
fn sync_and_client_on_churn(metrics: &mut Metrics, churn: &Fixture) -> Result<(), String> {
    let service = churn.daemon.service();
    let server = churn.daemon.sync_server();
    let mut publisher = Publisher::new(churn, Publish::Delta, 1);
    let mut session = SyncSession::new();
    let mut wire = Vec::with_capacity(128 * 1024);
    for (reset, names) in [
        (
            true,
            [
                "service.sync_handle_frame_reset_us",
                "client.sync_decode_reset_us",
                "client.session_apply_reset_us",
                "client.frame_roundtrip_reset_ns",
            ],
        ),
        (
            false,
            [
                "service.sync_handle_frame_delta_us",
                "client.sync_decode_delta_us",
                "client.session_apply_delta_us",
                "client.frame_roundtrip_delta_ns",
            ],
        ),
    ] {
        let mut samples: [Vec<f64>; 4] = Default::default();
        for _ in 0..EXCHANGES {
            let tenant = publisher.step();
            publisher.publish(churn)?;
            if reset {
                session.desynchronise();
            }
            let request = session.request(churn.tenants[tenant]).encode();
            let (frame, handle) = timed(|| server.handle_frame(service, &request));
            let frame = frame.map_err(|e| e.to_string())?;
            let (decoded, decode) = timed(|| decode_inband(&frame));
            let response = match decoded.map_err(|e| e.to_string())? {
                InbandMessage::SyncResponse(response) => response,
                other => return Err(format!("expected a SyncResponse, got {other:?}")),
            };
            let (applied, apply) = timed(|| session.apply(&response));
            applied.map_err(|e| e.to_string())?;
            let (_, framing) = timed(|| {
                wire.clear();
                write_frame(&mut wire, &frame).ok();
                read_frame(&mut Cursor::new(&wire))
            });
            for (bucket, took) in samples.iter_mut().zip([handle, decode, apply, framing]) {
                bucket.push(took.as_nanos() as f64);
            }
        }
        for (name, bucket) in names.into_iter().zip(&samples) {
            let unit = if name.ends_with("_ns") { "ns" } else { "us" };
            record(metrics, name, median(bucket), unit, bucket.len());
        }
    }
    Ok(())
}

/// Rungs computed from other rungs.
pub fn derive(metrics: &mut Metrics) {
    let ns = |metrics: &Metrics, name: &str| {
        let m = &metrics[name];
        if m.unit == "us" {
            m.value * 1e3
        } else {
            m.value
        }
    };
    // What `http::route` spends outside the three calls it is made of.
    let residual = ns(metrics, "daemon.http_route_us")
        - ns(metrics, "daemon.json_parse_query_ns")
        - ns(metrics, "service.pool_roundtrip_hit_us")
        - ns(metrics, "daemon.json_render_response_ns");
    let calls = metrics["daemon.http_route_us"].samples;
    record(
        metrics,
        "daemon.http_route_residual_ns",
        residual,
        "ns",
        calls,
    );
}
