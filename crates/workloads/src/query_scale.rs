//! Standing-query population scaling: the workload behind the `s3`
//! (`query_scale`) experiment.
//!
//! The interest-space index exists so the epoch-advance cost is governed by
//! the *churn* (how many standing queries a rule change can actually affect),
//! not by the *population* (how many standing queries are registered). This
//! module measures exactly that claim: it registers a large synthetic
//! standing-query population on top of the standard per-client mix, drives a
//! fixed tenant-churn rate through publish + sync rounds, and reports the
//! epoch-advance latency plus how many standing queries were re-verified
//! versus skipped. Running it across population scale points (the `s3`
//! experiment uses 10k/30k/100k, a smoke run 200/1k) shows whether advancing
//! an epoch is `O(affected)` — flat across populations — or `O(standing
//! queries)` — growing with them.
//!
//! The synthetic population is made of [`QuerySpec::PathLength`] probes to
//! distinct unroutable destinations: every spec is unique (so the population
//! is real, not deduplicated), its interest cubes pin `(src, dst)` pairs the
//! tenant churn never touches (so a *sound* index must skip it), and its
//! verdict is trivially constant (so the rare conservative epoch stays
//! cheap).
//!
//! [`run_query_scale`] also micro-benchmarks the affected-query selection in
//! isolation: the same changed region is evaluated once through the linear
//! scan ([`query_affected`] per registered query — the pre-index publish
//! path) and once through [`InterestIndex::affected`], giving the
//! linear-versus-indexed selection latencies the CI gate compares.

use std::time::{Duration, Instant};

use rvaas::{
    query_affected, IncrementalModel, InterestIndex, LocationMap, RuleChange, VerifierConfig,
};
use rvaas_client::{QuerySpec, SyncSession};
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_service::{ServiceSettings, SyncServer, VerificationService};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, SimTime, SwitchId};

use crate::churn::{sync_sessions, tenant_churn_round};
use crate::service_load::{benign_snapshot, clients_of, query_mix};

/// Base of the unroutable destination block the synthetic standing queries
/// probe (class-A space no generator assigns hosts from).
const SYNTHETIC_DST_BASE: u32 = 0x0b00_0000;

/// The synthetic standing-query population: `population` distinct
/// [`QuerySpec::PathLength`] probes to unroutable destinations, spread
/// round-robin over `clients`.
#[must_use]
pub fn synthetic_queries(clients: &[ClientId], population: usize) -> Vec<(ClientId, QuerySpec)> {
    (0..population)
        .map(|i| {
            (
                clients[i % clients.len()],
                QuerySpec::PathLength {
                    to_ip: SYNTHETIC_DST_BASE + i as u32,
                },
            )
        })
        .collect()
}

/// Shape of one query-scale run.
#[derive(Debug, Clone)]
pub struct QueryScaleConfig {
    /// Synthetic standing queries registered on top of the per-client mix.
    pub synthetic_queries: usize,
    /// Churn/publish/sync rounds measured (plus one untimed warmup).
    pub rounds: usize,
    /// Clients reconfigured per round — the churn rate, held fixed across
    /// scale points so only the population varies.
    pub churn_clients_per_round: usize,
    /// Rules installed (and the previous round's removed) per churned client
    /// per round.
    pub rules_per_client: usize,
    /// Iterations of the linear-versus-indexed selection micro-benchmark.
    pub selection_probes: usize,
}

/// What one query-scale run measured.
#[derive(Debug, Clone)]
pub struct QueryScaleReport {
    /// Standing queries registered (per-client mix + synthetic population).
    pub standing_queries: usize,
    /// Rounds measured.
    pub rounds: usize,
    /// Rule changes applied across all measured rounds.
    pub rule_changes: usize,
    /// Total wall-clock epoch-advance cost across the measured rounds:
    /// churn + publish (index advance, cache invalidation) + every client's
    /// sync round trip (delta serve + affected-query reverification).
    pub epoch_advance_total: Duration,
    /// Mean epoch-advance cost per round.
    pub epoch_advance_avg: Duration,
    /// Standing queries re-verified inside deltas (should track the churn
    /// rate, not the population).
    pub reverified: u64,
    /// Standing queries skipped as provably unaffected.
    pub skipped: u64,
    /// Mean latency of one indexed affected-query selection
    /// ([`InterestIndex::affected`]) over the full registered population.
    pub indexed_selection_avg: Duration,
    /// Mean latency of one linear-scan selection ([`query_affected`] per
    /// registered query) over the same population and region.
    pub linear_selection_avg: Duration,
    /// Epoch serial after the final round.
    pub final_serial: u64,
}

/// One tenant-pinned rule change representative of the churn the measured
/// rounds apply: the first churn client's `(src, dst)` pair on a transit
/// switch, as a standalone batch for the selection micro-benchmark.
fn probe_changes(topology: &Topology) -> Vec<RuleChange> {
    let clients = clients_of(topology);
    let hosts = topology.hosts_of_client(clients[0]);
    let (src, dst) = (hosts[0], hosts[1 % hosts.len()]);
    let switch = topology
        .switches()
        .map(|s| s.id)
        .find(|id| !topology.hosts().any(|h| h.attachment.switch == *id))
        .unwrap_or(SwitchId(1));
    let entry = FlowEntry::new(
        400,
        FlowMatch::from_ip(src.ip).field(Field::IpDst, u64::from(dst.ip)),
        vec![Action::Drop],
    );
    vec![RuleChange::installed(switch, entry)]
}

/// Runs one query-scale configuration: registers the population, drives
/// `config.rounds` tenant-churn rounds through publish + sync, and
/// micro-benchmarks the selection paths.
///
/// # Panics
///
/// Panics when `topology` has no client-owned hosts — the population needs
/// clients to attach to.
#[must_use]
pub fn run_query_scale(topology: &Topology, config: &QueryScaleConfig) -> QueryScaleReport {
    let clients = clients_of(topology);
    assert!(
        !clients.is_empty(),
        "query-scale workload needs client-owned hosts"
    );
    let mix = query_mix(topology);
    let synthetic = synthetic_queries(&clients, config.synthetic_queries);
    let standing_queries = clients.len() * mix.len() + synthetic.len();

    let service = VerificationService::new(
        topology.clone(),
        ServiceSettings::default().into_config(VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        }),
    );
    let mut snapshot = benign_snapshot(topology);
    service
        .try_publish(&snapshot, SimTime::from_millis(1))
        .expect("epoch publish rejected");
    let server = SyncServer::new(service.store(), 9, &service.registry());

    for client in &clients {
        for spec in &mix {
            server.subscribe(*client, spec.clone());
        }
    }
    for (client, spec) in &synthetic {
        server.subscribe(*client, spec.clone());
    }
    let mut sessions: Vec<(ClientId, SyncSession)> = clients
        .iter()
        .map(|client| (*client, SyncSession::new()))
        .collect();
    sync_sessions(&server, &service, &mut sessions);

    let mut rule_changes = 0usize;
    let mut epoch_advance_total = Duration::ZERO;
    // Round 1 is an untimed warmup, as in the incremental-churn driver: it
    // pays the one-off cold costs that belong to service start-up.
    for round in 1..=(config.rounds + 1) as u64 {
        let at = SimTime::from_millis(10 + round);
        let started = Instant::now();
        let changes = tenant_churn_round(
            topology,
            &mut snapshot,
            round,
            config.churn_clients_per_round,
            config.rules_per_client,
            at,
        );
        service
            .try_publish(&snapshot, at)
            .expect("epoch publish rejected");
        sync_sessions(&server, &service, &mut sessions);
        if round > 1 {
            rule_changes += changes;
            epoch_advance_total += started.elapsed();
        }
    }
    let reverify = server.reverify_stats();

    // Selection micro-benchmark: same region, same registered population,
    // linear scan versus index lookup.
    let region = IncrementalModel::new(topology.clone()).apply(&probe_changes(topology));
    let mut index = InterestIndex::new(topology.clone());
    let mut population: Vec<(ClientId, QuerySpec)> = Vec::with_capacity(standing_queries);
    for client in &clients {
        for spec in &mix {
            population.push((*client, spec.clone()));
        }
    }
    population.extend(synthetic.iter().cloned());
    for (client, spec) in &population {
        index.register(*client, spec);
    }
    let probes = config.selection_probes.max(1);
    let started = Instant::now();
    for _ in 0..probes {
        std::hint::black_box(index.affected(&region));
    }
    let indexed_selection_avg = started.elapsed() / probes as u32;
    let started = Instant::now();
    for _ in 0..probes {
        for (client, spec) in &population {
            std::hint::black_box(query_affected(topology, *client, spec, &region));
        }
    }
    let linear_selection_avg = started.elapsed() / probes as u32;

    QueryScaleReport {
        standing_queries,
        rounds: config.rounds,
        rule_changes,
        epoch_advance_total,
        epoch_advance_avg: epoch_advance_total / config.rounds.max(1) as u32,
        reverified: reverify.reverified,
        skipped: reverify.skipped,
        indexed_selection_avg,
        linear_selection_avg,
        final_serial: service.current_serial(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_topology::generators;

    #[test]
    fn synthetic_population_is_distinct_and_spread() {
        let clients = vec![ClientId(1), ClientId(2)];
        let queries = synthetic_queries(&clients, 6);
        assert_eq!(queries.len(), 6);
        let distinct: std::collections::BTreeSet<_> = queries.iter().collect();
        assert_eq!(distinct.len(), 6, "every synthetic spec is unique");
        assert_eq!(queries.iter().filter(|(c, _)| *c == ClientId(1)).count(), 3);
    }

    #[test]
    fn reverification_tracks_churn_not_population() {
        let topology = generators::leaf_spine(2, 4, 4, 1);
        let config = QueryScaleConfig {
            synthetic_queries: 200,
            rounds: 3,
            churn_clients_per_round: 1,
            rules_per_client: 2,
            selection_probes: 1,
        };
        let report = run_query_scale(&topology, &config);
        assert_eq!(report.standing_queries, 4 * 6 + 200);
        assert!(report.rule_changes > 0);
        assert_eq!(report.final_serial, 5, "initial + warmup + measured rounds");
        // The synthetic population never re-verifies: its interests are
        // pinned to destinations the tenant churn cannot touch. Only the
        // churned clients' standard mix shows up in the deltas.
        assert!(
            report.reverified <= (report.rounds as u64 + 1) * 2 * 6,
            "reverification must track churn, not population: {report:?}"
        );
        assert!(
            report.skipped > report.reverified * 10,
            "the synthetic population must be skipped wholesale: {report:?}"
        );
        assert!(report.indexed_selection_avg > Duration::ZERO);
        assert!(report.linear_selection_avg > Duration::ZERO);
    }
}
