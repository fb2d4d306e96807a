//! Experiment S1 — caller scaling.
//!
//! The service starts no thread of its own: a query is answered on the
//! thread that carries it, all of them sharing the epoch's traversal memo.
//! S1 measures how throughput scales with the callers — 1, 2 and 4 threads
//! standing for a daemon's connection threads — on one epoch with the result
//! cache off, so every answer is evaluated. Each repeat runs on a fresh
//! service and takes the caller counts in turn, so host drift lands on all
//! of them; the report is queries/sec as median and MAD over the repeats,
//! next to `host_cores` (scaling only shows on multi-core hosts).
//!
//! Everything else about a query — its per-layer cost, the cache, the sync
//! bytes, the flight recorder's overhead — is measured through the daemon's
//! sockets by the stand-alone `benchmark/` package. Writes
//! `BENCH_service.json`.

use std::time::Instant;

use rvaas_client::QuerySpec;
use rvaas_service::{ServiceSettings, VerificationService};
use rvaas_topology::{generators, Topology};
use rvaas_types::{ClientId, SimTime};
use rvaas_workloads::{benign_snapshot, clients_of, round_robin_workload};

use crate::report::{smoke_mode, MedianMad, Report};

/// The caller-thread counts compared.
const CALLERS: [usize; 3] = [1, 2, 4];

/// Queries/sec of `callers` threads answering `rounds` bursts of
/// `queries` on a fresh service, each caller its clients' share of a burst
/// as one `try_query_all`.
fn caller_qps(topology: &Topology, callers: usize, rounds: usize, queries: usize) -> f64 {
    let service = VerificationService::new(
        topology.clone(),
        ServiceSettings {
            cache: false,
            ..ServiceSettings::default()
        },
    );
    service
        .try_publish(&benign_snapshot(topology), SimTime::from_millis(1))
        .expect("epoch publish rejected");
    let mut shares: Vec<Vec<(ClientId, QuerySpec)>> = vec![Vec::new(); callers];
    for (client, spec) in round_robin_workload(topology, queries) {
        shares[client.0 as usize % callers].push((client, spec));
    }
    let started = Instant::now();
    let mut answered = 0;
    for _ in 0..rounds {
        answered += std::thread::scope(|scope| {
            let threads: Vec<_> = shares
                .iter()
                .map(|share| scope.spawn(|| service.try_query_all(share).expect("answered").len()))
                .collect();
            threads
                .into_iter()
                .map(|thread| thread.join().expect("caller thread panicked"))
                .sum::<usize>()
        });
    }
    answered as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// Measures S1 over `topology`: `repeats` interleaved runs of every caller
/// count, each `rounds` bursts of `queries`.
fn measure(
    topology: &Topology,
    label: &str,
    repeats: usize,
    rounds: usize,
    queries: usize,
) -> Report {
    let mut samples = vec![Vec::new(); CALLERS.len()];
    for _ in 0..repeats {
        for (callers, samples) in CALLERS.iter().zip(&mut samples) {
            samples.push(caller_qps(topology, *callers, rounds, queries));
        }
    }
    let qps: Vec<MedianMad> = samples.iter().map(|s| MedianMad::of(s)).collect();
    let mut report = Report::new(
        "service_throughput",
        "S1 — caller scaling: queries/sec by caller threads, cache off, one epoch",
    );
    report
        .field("topology", label)
        .field("clients", clients_of(topology).len())
        .field("queries_per_repeat", rounds * queries)
        .field("repeats", repeats);
    for (callers, qps) in CALLERS.iter().zip(&qps) {
        report.point(vec![("callers", (*callers).into()), ("qps", (*qps).into())]);
    }
    report.summary("speedup_4w_vs_1w", qps[2].median / qps[0].median.max(1e-9));
    report
}

/// Runs experiment S1 on the standard workload and writes
/// `BENCH_service.json` next to the working directory.
pub fn exp_s1_service_throughput() -> Vec<String> {
    let (rounds, queries) = if smoke_mode() { (2, 48) } else { (4, 192) };
    measure(
        &generators::fat_tree(4, 8),
        "fat_tree(4) x 8 clients",
        5,
        rounds,
        queries,
    )
    .write("BENCH_service.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_measurement_produces_consistent_report() {
        let report = measure(&generators::line(6, 3), "line(6) x 3 clients", 2, 1, 18);
        let json = report.json();
        assert!(json.contains("\"experiment\": \"service_throughput\""));
        assert!(json.contains("\"clients\": 3"));
        assert!(json.contains("\"speedup_4w_vs_1w\""));
        let rows = report.rows();
        assert_eq!(rows[2], "callers | qps");
        for (row, callers) in rows[3..6].iter().zip(CALLERS) {
            let (count, qps) = row.split_once(" | ").expect("two columns");
            assert_eq!(count, callers.to_string());
            let median: f64 = qps.split(' ').next().unwrap().parse().unwrap();
            assert!(median > 0.0, "{row}");
        }
    }
}
