//! A multi-client service-plane workload: many clients hammering the
//! [`VerificationService`] with standing queries while monitor churn keeps
//! publishing new epochs — the service-level analogue of the in-band
//! scenario harness, used by the `service_throughput` experiment and
//! reusable by future scaling work.

use std::time::{Duration, Instant};

use rvaas::{LocationMap, NetworkSnapshot, VerifierConfig};
use rvaas_client::QuerySpec;
use rvaas_controlplane::benign_rules;
use rvaas_service::{ServiceSettings, VerificationService};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime, SwitchId};

/// Shape of one service-load run.
#[derive(Debug, Clone)]
pub struct ServiceLoadConfig {
    /// Caller threads answering each round's burst (minimum 1): the service
    /// has no threads of its own, so concurrency is the callers'.
    pub workers: usize,
    /// Whether the result cache is consulted.
    pub cache_enabled: bool,
    /// Epoch rounds: each round optionally churns rules, publishes a new
    /// epoch, then issues a burst of queries.
    pub rounds: usize,
    /// Queries issued per round, spread round-robin over every client and
    /// query class.
    pub queries_per_round: usize,
    /// Flow rules added (and previous round's removed) per round; 0 keeps
    /// the epoch stable so repeated queries can hit the cache.
    pub churn_rules_per_round: usize,
}

impl Default for ServiceLoadConfig {
    fn default() -> Self {
        ServiceLoadConfig {
            workers: 4,
            cache_enabled: true,
            rounds: 4,
            queries_per_round: 64,
            churn_rules_per_round: 0,
        }
    }
}

/// What one service-load run measured.
#[derive(Debug, Clone)]
pub struct ServiceLoadReport {
    /// Queries answered.
    pub responses: usize,
    /// Wall-clock time spent issuing and answering all rounds.
    pub elapsed: Duration,
    /// Answered queries per wall-clock second.
    pub queries_per_sec: f64,
    /// Median per-query latency (from the service's shared latency
    /// histogram, `rvaas_query_latency_us`).
    pub p50_latency: Duration,
    /// 95th-percentile per-query latency.
    pub p95_latency: Duration,
    /// 99th-percentile per-query latency.
    pub p99_latency: Duration,
    /// Result-cache hit rate over the whole run.
    pub cache_hit_rate: f64,
    /// Epoch serial after the final round.
    pub final_serial: u64,
    /// Query batches answered (one evaluator session each).
    pub batches: u64,
}

/// The standing query mix every client cycles through.
#[must_use]
pub fn query_mix(topology: &Topology) -> Vec<QuerySpec> {
    let some_ip = topology.hosts().next().map_or(0, |h| h.ip);
    vec![
        QuerySpec::ReachableDestinations,
        QuerySpec::ReachingSources,
        QuerySpec::Isolation,
        QuerySpec::GeoLocation,
        QuerySpec::PathLength { to_ip: some_ip },
        QuerySpec::Neutrality,
    ]
}

/// Every distinct client owning a host in `topology`.
#[must_use]
pub fn clients_of(topology: &Topology) -> Vec<ClientId> {
    let mut clients: Vec<ClientId> = topology.hosts().map(|h| h.owner).collect();
    clients.sort();
    clients.dedup();
    clients
}

/// The canonical `queries`-long workload over `topology`: clients round-robin
/// through [`query_mix`], so every configuration compared by the benchmarks
/// answers literally the same `(client, spec)` sequence.
#[must_use]
pub fn round_robin_workload(topology: &Topology, queries: usize) -> Vec<(ClientId, QuerySpec)> {
    let clients = clients_of(topology);
    let mix = query_mix(topology);
    (0..queries)
        .map(|i| {
            (
                clients[i % clients.len()],
                mix[(i / clients.len()) % mix.len()].clone(),
            )
        })
        .collect()
}

/// Builds the benign snapshot for `topology`.
#[must_use]
pub fn benign_snapshot(topology: &Topology) -> NetworkSnapshot {
    let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
    for (switch, entry) in benign_rules(topology) {
        snapshot.record_installed(switch, entry, SimTime::from_millis(1));
    }
    snapshot
}

/// Applies one round of churn to `snapshot`: installs `count` fresh
/// low-priority rules tagged with `round` and removes the previous round's,
/// so every epoch differs from its predecessor by `2 * count` digests.
pub fn churn_round(snapshot: &mut NetworkSnapshot, round: u64, count: usize, at: SimTime) {
    use rvaas_openflow::{Action, FlowEntry, FlowMatch};
    for i in 0..count as u32 {
        let tag = |r: u64| 0x00c0_0000 + (r as u32 % 2) * 0x1000 + i;
        snapshot.record_installed(
            SwitchId(1),
            FlowEntry::new(1, FlowMatch::to_ip(tag(round)), vec![Action::Drop]),
            at,
        );
        if round > 0 {
            let old = FlowEntry::new(1, FlowMatch::to_ip(tag(round - 1)), vec![Action::Drop]);
            // Only record removals of rules a previous round actually
            // installed; a phantom removal would pollute the snapshot's
            // removed-rule history (visible to history-based verification).
            let installed = snapshot
                .table_of(SwitchId(1))
                .iter()
                .any(|e| e.priority == old.priority && e.flow_match == old.flow_match);
            if installed {
                snapshot.record_removed(SwitchId(1), &old, at);
            }
        }
    }
}

/// Runs one service-load configuration against a fresh service instance and
/// reports throughput, latency percentiles and cache behaviour.
#[must_use]
pub fn run_service_load(topology: &Topology, config: &ServiceLoadConfig) -> ServiceLoadReport {
    let service = VerificationService::new(
        topology.clone(),
        ServiceSettings {
            cache: config.cache_enabled,
            ..ServiceSettings::default()
        }
        .into_config(VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        }),
    );
    let mut snapshot = benign_snapshot(topology);
    service
        .try_publish(&snapshot, SimTime::from_millis(1))
        .expect("epoch publish rejected");

    // Each caller thread answers its clients' share of the round as one
    // batch — what `workers` connection threads of a daemon would do.
    let callers = config.workers.max(1);
    let mut shares = vec![Vec::new(); callers];
    for (client, spec) in round_robin_workload(topology, config.queries_per_round) {
        shares[client.0 as usize % callers].push((client, spec));
    }
    let mut responses = 0usize;
    let started = Instant::now();
    for round in 0..config.rounds {
        if config.churn_rules_per_round > 0 {
            let at = SimTime::from_millis(10 + round as u64);
            churn_round(
                &mut snapshot,
                round as u64,
                config.churn_rules_per_round,
                at,
            );
            service
                .try_publish(&snapshot, at)
                .expect("epoch publish rejected");
        }
        responses += std::thread::scope(|scope| {
            let callers: Vec<_> = shares
                .iter()
                .map(|share| scope.spawn(|| service.try_query_all(share).expect("answered").len()))
                .collect();
            callers
                .into_iter()
                .map(|caller| caller.join().expect("caller thread panicked"))
                .sum::<usize>()
        });
    }
    let elapsed = started.elapsed();
    // Percentiles come from the service's own latency histogram
    // (`rvaas_query_latency_us` in the shared registry) — the same numbers a
    // scrape of the metrics endpoint would report.
    let stats = service.stats();
    ServiceLoadReport {
        responses,
        elapsed,
        queries_per_sec: responses as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_latency: Duration::from_micros(stats.latency_p50_us),
        p95_latency: Duration::from_micros(stats.latency_p95_us),
        p99_latency: Duration::from_micros(stats.latency_p99_us),
        cache_hit_rate: stats.cache_hit_rate,
        final_serial: service.current_serial(),
        batches: stats.batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_topology::generators;

    #[test]
    fn load_run_answers_every_query_and_reports_sane_numbers() {
        let topology = generators::line(6, 3);
        let report = run_service_load(
            &topology,
            &ServiceLoadConfig {
                workers: 2,
                cache_enabled: true,
                rounds: 3,
                queries_per_round: 24,
                churn_rules_per_round: 0,
            },
        );
        assert_eq!(report.responses, 72);
        assert!(report.queries_per_sec > 0.0);
        assert!(report.p99_latency >= report.p50_latency);
        // Stable epoch + repeated mix ⇒ later rounds are pure cache hits.
        assert!(
            report.cache_hit_rate > 0.3,
            "expected cache reuse, got {}",
            report.cache_hit_rate
        );
        assert_eq!(report.final_serial, 1);
    }

    #[test]
    fn churn_advances_epochs_and_suppresses_cache_reuse() {
        let topology = generators::line(6, 3);
        let report = run_service_load(
            &topology,
            &ServiceLoadConfig {
                workers: 2,
                cache_enabled: true,
                rounds: 4,
                queries_per_round: 12,
                churn_rules_per_round: 2,
            },
        );
        assert_eq!(report.final_serial, 5, "initial publish + one per round");
        // Each round invalidates the previous round's cache generation, so
        // the hit rate stays well below the no-churn case.
        assert!(
            report.cache_hit_rate < 0.75,
            "churn should limit reuse, got {}",
            report.cache_hit_rate
        );
    }
}
