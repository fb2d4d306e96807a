//! The measured window: closed-loop HTTP query clients and the open-loop
//! epoch publisher with its sync exchange. Everything here runs on the
//! generator's threads and talks to the daemon over loopback TCP, except the
//! publish itself, which only an in-process caller can do.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rvaas_client::{ReverifiedQuery, SyncPayload};
use rvaas_types::ClientId;

use crate::fixture::{Fixture, Publisher};
use crate::gen::SplitMix64;
use crate::procfs;
use crate::spec::Publish;
use crate::stats::OpenLoop;
use crate::wire::{HttpClient, SyncClient, OP_TIMEOUT};

/// The window is cut into this many equal segments; the spread of their
/// mean latencies says whether the run was steady.
pub const SEGMENTS: usize = 4;
/// Error messages kept per log (the count is always complete).
pub const ERRORS_KEPT: usize = 4;
/// Latency samples kept per connection. A window on today's daemon holds a
/// few hundred; a daemon a hundred times faster would overflow this, and
/// from there on the buffer is a uniform random sample of the window
/// (reservoir). The buffers are written once before the window, so the
/// process's peak RSS does not depend on how many requests completed.
const LATENCIES_KEPT: usize = 1 << 18;
/// Verdicts kept per connection for the oracle's rebuild-per-epoch check.
const VERDICTS_KEPT: usize = 1 << 15;

/// One HTTP verdict as the oracle needs it: which key, which epoch the
/// daemon says it answered at, and a hash of the `"result"` it sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub key: u32,
    pub serial: u64,
    pub result_hash: u64,
}

/// The query window: when it started and how long it lasts.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub length: Duration,
}

/// How a query connection has its verdicts checked.
#[derive(Debug, Clone, Copy)]
pub enum VerdictCheck<'a> {
    /// No epoch is published while the connection runs: every verdict must
    /// name `serial` and carry the result hash the oracle computed for its
    /// key beforehand. Checked as the verdicts arrive, all of them.
    Fixed { serial: u64, expected: &'a [u64] },
    /// Epochs move under the queries: every `every`-th verdict is kept and
    /// checked after the window against a rebuild of the epoch it names.
    Sampled { every: u64 },
}

/// Everything one query connection measured.
#[derive(Debug)]
pub struct QueryLog {
    /// Wire latency in ns, request write to last response byte: every
    /// completed request, or a uniform sample once there are more than
    /// `LATENCIES_KEPT`.
    pub latency_ns: Vec<u64>,
    /// Completed requests and their summed latency, by the segment of the
    /// window they completed in.
    pub segment_count: [u64; SEGMENTS],
    pub segment_sum_ns: [u64; SEGMENTS],
    /// Verdicts kept for the post-window check (`VerdictCheck::Sampled`).
    pub verdicts: Vec<Verdict>,
    /// Verdicts checked on arrival (`VerdictCheck::Fixed`) and how many of
    /// them disagreed with the oracle.
    pub checked: u64,
    pub mismatches: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// CPU the generator thread itself used, in clock ticks.
    pub cpu_ticks: u64,
    /// Picks the reservoir slots; kept apart from the request order, which
    /// must depend on the seed alone and not on how many requests completed.
    reservoir: SplitMix64,
}

impl QueryLog {
    pub fn new() -> Self {
        // Filled with non-zero values so the pages are really written.
        let mut latency_ns = vec![1u64; LATENCIES_KEPT];
        latency_ns.clear();
        let mut verdicts = vec![
            Verdict {
                key: 1,
                serial: 1,
                result_hash: 1
            };
            VERDICTS_KEPT
        ];
        verdicts.clear();
        QueryLog {
            latency_ns,
            segment_count: [0; SEGMENTS],
            segment_sum_ns: [0; SEGMENTS],
            verdicts,
            checked: 0,
            mismatches: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            cpu_ticks: 0,
            reservoir: SplitMix64::new(0),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(why);
        }
    }

    /// Requests that completed with a readable verdict.
    pub fn completed(&self) -> u64 {
        self.segment_count.iter().sum()
    }

    fn record(&mut self, latency_ns: u64, segment: usize) {
        self.segment_count[segment] += 1;
        self.segment_sum_ns[segment] += latency_ns;
        if self.latency_ns.len() < LATENCIES_KEPT {
            self.latency_ns.push(latency_ns);
        } else {
            // Reservoir sampling: the n-th sample replaces a kept one with
            // probability LATENCIES_KEPT / n.
            let slot = self.reservoir.next_u64() % self.completed();
            if let Some(kept) = self.latency_ns.get_mut(slot as usize) {
                *kept = latency_ns;
            }
        }
    }
}

/// Pulls `epoch_serial` and a hash of the `"result"` value out of a verdict
/// body as `json::render_response` lays it out (`...,"result":{...}}`).
pub fn parse_verdict(body: &[u8]) -> Option<(u64, u64)> {
    const SERIAL: &[u8] = b"\"epoch_serial\":";
    const RESULT: &[u8] = b",\"result\":";
    let find = |needle: &[u8]| {
        body.windows(needle.len())
            .position(|w| w == needle)
            .map(|at| at + needle.len())
    };
    let digits = &body[find(SERIAL)?..];
    let end = digits.iter().position(|b| !b.is_ascii_digit())?;
    let serial = std::str::from_utf8(&digits[..end]).ok()?.parse().ok()?;
    // The result object runs to the verdict's own closing brace.
    let result = body.get(find(RESULT)?..body.len().checked_sub(1)?)?;
    Some((serial, crate::gen::fnv1a(crate::gen::FNV_OFFSET, result)))
}

/// Closed loop on one keep-alive connection: the next request goes out when
/// the previous verdict is in, until the window has passed.
pub fn run_queries(
    client: &mut HttpClient,
    addr: SocketAddr,
    requests: &[Vec<u8>],
    mut order: SplitMix64,
    check: VerdictCheck<'_>,
    window: Window,
    log: &mut QueryLog,
) {
    let cpu_before = procfs::thread_cpu_ticks();
    let Window { start, length } = window;
    loop {
        let now = start.elapsed();
        if now >= length {
            break;
        }
        let key = order.below(requests.len());
        log.attempted += 1;
        let sent = Instant::now();
        match client.round_trip(&requests[key]) {
            Ok(200) => {
                let latency = sent.elapsed();
                let Some((serial, result_hash)) = parse_verdict(client.body()) else {
                    log.fail(format!(
                        "unreadable verdict: {}",
                        String::from_utf8_lossy(client.body())
                    ));
                    continue;
                };
                let done = (now + latency).min(length - Duration::from_nanos(1));
                let segment = (done.as_nanos() * SEGMENTS as u128 / length.as_nanos()) as usize;
                log.record(latency.as_nanos() as u64, segment);
                match check {
                    VerdictCheck::Fixed {
                        serial: fixed,
                        expected,
                    } => {
                        log.checked += 1;
                        if serial != fixed || expected[key] != result_hash {
                            log.mismatches += 1;
                            if log.errors.len() < ERRORS_KEPT {
                                log.errors.push(format!(
                                    "verdict for key {key} at epoch {serial} differs from the \
                                     oracle's at epoch {fixed}"
                                ));
                            }
                        }
                    }
                    VerdictCheck::Sampled { every } => {
                        if log.completed().is_multiple_of(every)
                            && log.verdicts.len() < VERDICTS_KEPT
                        {
                            log.verdicts.push(Verdict {
                                key: key as u32,
                                serial,
                                result_hash,
                            });
                        }
                    }
                }
            }
            Ok(status) => log.fail(format!(
                "status {status}: {}",
                String::from_utf8_lossy(client.body())
            )),
            Err(e) => {
                log.fail(format!("query: {e}"));
                // The connection's state is unknown: start a fresh one.
                match HttpClient::connect(addr) {
                    Ok(fresh) => *client = fresh,
                    Err(e) => {
                        log.fail(format!("reconnect: {e}"));
                        break;
                    }
                }
            }
        }
    }
    log.cpu_ticks = procfs::thread_cpu_ticks().saturating_sub(cpu_before);
}

/// The verdicts one delta carried, for the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncVerdicts {
    pub serial: u64,
    pub client: ClientId,
    pub reverified: Vec<ReverifiedQuery>,
}

/// Everything the publisher thread measured.
#[derive(Debug, Default)]
pub struct EpochLog {
    /// Scheduled publish time → sync client has applied the response that
    /// carries the epoch, ns.
    pub freshness_ns: Vec<u64>,
    /// Time blocked inside `try_publish_changes` / `try_publish`, ns.
    pub publish_ns: Vec<u64>,
    /// How late each publish started against its schedule, ns.
    pub late_ns: Vec<u64>,
    /// Sync frame bytes received (length prefixes included).
    pub frame_bytes: u64,
    /// Epochs whose response was applied.
    pub epochs: u64,
    pub verdicts: Vec<SyncVerdicts>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub cpu_ticks: u64,
}

impl EpochLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(why);
        }
    }
}

/// Open loop: epoch `i` is due `i * period` after `start`. Each epoch is one
/// churn step published in-process, then one sync exchange over the wire as
/// the churned tenant; freshness runs from the *due* time, so a publisher
/// that falls behind is charged for it. Slots still unserved `OP_TIMEOUT`
/// after the last one was due are counted as failed.
pub fn run_epochs(
    fixture: &Fixture,
    publisher: &mut Publisher,
    sync: &mut SyncClient,
    schedule: OpenLoop,
    epochs: usize,
    start: Instant,
    log: &mut EpochLog,
) {
    let cpu_before = procfs::thread_cpu_ticks();
    let give_up = schedule.period * epochs as u32 + OP_TIMEOUT;
    for index in 0..epochs {
        if start.elapsed() > give_up {
            // A publish and an exchange for every slot never served.
            let unserved = 2 * (epochs - index) as u64;
            log.attempted += unserved;
            log.failed += unserved - 1;
            log.fail("publisher fell behind: epochs never published".to_string());
            break;
        }
        let slot = schedule.slot(index, start.elapsed());
        std::thread::sleep(slot.wait);
        let late = schedule.slot(index, start.elapsed()).late;
        log.late_ns.push(late.as_nanos() as u64);

        let tenant = publisher.step();
        log.attempted += 1;
        let blocked = Instant::now();
        let published = publisher.publish(fixture);
        log.publish_ns.push(blocked.elapsed().as_nanos() as u64);
        if let Err(e) = published {
            log.fail(e);
            continue;
        }

        log.attempted += 1;
        if publisher.mode() == Publish::Full {
            sync.session.desynchronise();
        }
        let client = fixture.tenants[tenant];
        match sync.exchange(client) {
            Ok((bytes, response)) => {
                let applied = start.elapsed();
                if response.serial != publisher.serial() {
                    log.fail(format!(
                        "sync answered serial {}, published {}",
                        response.serial,
                        publisher.serial()
                    ));
                    continue;
                }
                log.freshness_ns
                    .push(applied.saturating_sub(slot.due).as_nanos() as u64);
                log.frame_bytes += bytes as u64;
                log.epochs += 1;
                if let SyncPayload::Delta { reverified, .. } = response.payload {
                    log.verdicts.push(SyncVerdicts {
                        serial: response.serial,
                        client,
                        reverified,
                    });
                }
            }
            Err(e) => log.fail(e),
        }
    }
    log.cpu_ticks = procfs::thread_cpu_ticks().saturating_sub(cpu_before);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_client::{QueryResult, QuerySpec};
    use rvaas_daemon::json;
    use rvaas_service::QueryResponse;
    use rvaas_telemetry::TraceId;

    #[test]
    fn verdict_bodies_give_up_their_serial_and_result() {
        let response = QueryResponse {
            client: ClientId(4),
            spec: QuerySpec::Isolation,
            result: QueryResult::IsolationStatus {
                isolated: true,
                foreign_endpoints: Vec::new(),
            },
            epoch_serial: 37,
            latency: Duration::from_micros(12),
            trace: TraceId(99),
        };
        let body = json::render_response(&response);
        let (serial, hash) = parse_verdict(body.as_bytes()).unwrap();
        assert_eq!(serial, 37);
        let expected = json::render_result(&response.result);
        assert_eq!(
            hash,
            crate::gen::fnv1a(crate::gen::FNV_OFFSET, expected.as_bytes())
        );
        assert_eq!(parse_verdict(b"{\"error\":\"nope\"}"), None);
        assert_eq!(parse_verdict(b""), None);
    }
}
