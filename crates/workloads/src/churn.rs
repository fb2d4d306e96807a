//! Tenant-pinned churn: the workload where most standing queries provably
//! keep their verdict across an epoch.
//!
//! Destination-only drop rules would intersect *every* client's emission
//! space — realistic for blanket filtering, but the worst case for
//! affected-query computation. This module models the common kind of
//! provider churn: **per-tenant reconfiguration**, where each changed rule is
//! pinned to one tenant's `(source, destination)` address pair (an
//! intra-tenant route update) and placed on transit switches. Under this
//! churn only the reconfigured tenants' standing queries can change, so the
//! service re-verifies a small affected subset where a from-scratch verifier
//! re-verifies everyone.
//!
//! [`run_incremental_churn`] is the one churn driver: it puts a
//! [`VerificationService`] plus [`SyncServer`] through rounds of tenant
//! churn with every client holding the full standing-query mix (and,
//! optionally, a synthetic population on top), measuring the
//! **epoch-advance cost**: snapshot publish (model update) plus
//! standing-query reverification through the sync protocol.
//! [`run_full_rebuild_churn`] puts the reference implementation —
//! [`LogicalVerifier`] from scratch, no service — through the same rounds.
//! Experiment `s2` reports the ratio of the two across churn rates; `s3`
//! runs the driver across synthetic populations.

use std::time::{Duration, Instant};

use rvaas::{LocationMap, LogicalVerifier, NetworkSnapshot, VerifierConfig};
use rvaas_client::{QuerySpec, SyncSession};
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_service::{SyncServer, VerificationService};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, SimTime, SwitchId};

use crate::query_scale::synthetic_queries;
use crate::service_load::{benign_snapshot, clients_of, query_mix};

/// Priority of the tenant churn rules: above the benign admission rules so
/// the changed header region is actually exposed.
const PRIO_TENANT: u16 = 400;

/// Switches to place tenant churn on: transit switches without attached
/// hosts when the topology has them (leaf-spine spines, fat-tree aggregation
/// and core), any switch otherwise.
fn churn_switches(topology: &Topology) -> Vec<SwitchId> {
    let hostless: Vec<SwitchId> = topology
        .switches()
        .map(|s| s.id)
        .filter(|id| !topology.hosts().any(|h| h.attachment.switch == *id))
        .collect();
    if hostless.is_empty() {
        topology.switches().map(|s| s.id).collect()
    } else {
        hostless
    }
}

/// Applies one round of tenant-pinned churn to `snapshot`: a rotating window
/// of `churn_clients` clients each get `rules_per_client` fresh rules pinned
/// to their own `(src, dst)` host addresses (and the previous round's rules
/// removed). Returns the number of rule changes applied.
pub fn tenant_churn_round(
    topology: &Topology,
    snapshot: &mut NetworkSnapshot,
    round: u64,
    churn_clients: usize,
    rules_per_client: usize,
    at: SimTime,
) -> usize {
    // Remove exactly what the previous round's window installed, then
    // install this round's window. The vlan bit alternates per round so a
    // client churned at rounds of the same parity still sees its rules
    // leave and return through the digest deltas.
    let mut changes = 0;
    if round > 0 {
        changes += churn_window(
            topology,
            snapshot,
            round - 1,
            churn_clients,
            rules_per_client,
            at,
            false,
        );
    }
    changes += churn_window(
        topology,
        snapshot,
        round,
        churn_clients,
        rules_per_client,
        at,
        true,
    );
    changes
}

/// Installs (or removes) the tenant rules of `round`'s churn window.
fn churn_window(
    topology: &Topology,
    snapshot: &mut NetworkSnapshot,
    round: u64,
    churn_clients: usize,
    rules_per_client: usize,
    at: SimTime,
    install: bool,
) -> usize {
    let clients = clients_of(topology);
    if clients.is_empty() {
        return 0;
    }
    let switches = churn_switches(topology);
    let start = (round as usize).saturating_mul(churn_clients) % clients.len();
    let mut changes = 0;
    for slot in 0..churn_clients.min(clients.len()) {
        let client = clients[(start + slot) % clients.len()];
        let hosts = topology.hosts_of_client(client);
        if hosts.is_empty() {
            continue;
        }
        for i in 0..rules_per_client {
            let src = hosts[i % hosts.len()];
            let dst = hosts[(i + 1) % hosts.len()];
            let switch = switches[(slot + i) % switches.len()];
            let action = if dst.attachment.switch == switch {
                Action::Output(dst.attachment.port)
            } else {
                topology
                    .port_towards(switch, dst.attachment.switch)
                    .map_or(Action::Drop, Action::Output)
            };
            let flow_match = FlowMatch::from_ip(src.ip)
                .field(Field::IpDst, u64::from(dst.ip))
                .field(Field::Vlan, round % 2)
                .field(Field::L4Dst, i as u64);
            let entry = FlowEntry::new(PRIO_TENANT, flow_match, vec![action]);
            let installed = snapshot
                .table_of(switch)
                .iter()
                .any(|e| e.priority == entry.priority && e.flow_match == entry.flow_match);
            if install && !installed {
                snapshot.record_installed(switch, entry, at);
                changes += 1;
            } else if !install && installed {
                snapshot.record_removed(switch, &entry, at);
                changes += 1;
            }
        }
    }
    changes
}

/// Shape of one churn run (service or full-rebuild baseline).
#[derive(Debug, Clone)]
pub struct IncrementalChurnConfig {
    /// Churn/publish/sync rounds measured (plus one untimed warm-up).
    pub rounds: usize,
    /// Clients reconfigured per round (the churn rate, in clients).
    pub churn_clients_per_round: usize,
    /// Rules installed (and the previous round's removed) per churned client
    /// per round.
    pub rules_per_client: usize,
    /// Synthetic standing queries ([`synthetic_queries`]) registered on top
    /// of the per-client mix; 0 for none.
    pub synthetic_queries: usize,
}

/// What one incremental-churn run measured.
#[derive(Debug, Clone)]
pub struct IncrementalChurnReport {
    /// Rounds measured.
    pub rounds: usize,
    /// Standing queries registered (clients × query mix + synthetic).
    pub standing_queries: usize,
    /// Rule changes applied across the measured rounds.
    pub rule_changes: usize,
    /// Median wall-clock epoch-advance cost of a measured round: churn +
    /// publish (model update, memo carry, cache carry) + every client's
    /// sync round trip (delta serve + affected-query reverification).
    pub epoch_advance_median: Duration,
    /// Standing queries re-verified inside deltas (warm-up included).
    pub reverified: u64,
    /// Standing queries skipped as provably unaffected.
    pub skipped: u64,
    /// Epochs whose delta the store's model applied in place.
    pub incremental_applies: u64,
    /// Epochs that bulk-rebuilt the model instead.
    pub model_rebuilds: u64,
    /// Epoch serial after the final round.
    pub final_serial: u64,
}

/// Every standing query a churn run registers: each client's full
/// [`query_mix`], then `synthetic` [`synthetic_queries`] round-robin over
/// the clients.
#[must_use]
pub fn standing_queries(topology: &Topology, synthetic: usize) -> Vec<(ClientId, QuerySpec)> {
    let clients = clients_of(topology);
    let mix = query_mix(topology);
    let mut standing: Vec<(ClientId, QuerySpec)> = clients
        .iter()
        .flat_map(|client| mix.iter().map(|spec| (*client, spec.clone())))
        .collect();
    standing.extend(synthetic_queries(&clients, synthetic));
    standing
}

/// The median of the measured rounds (the mean of the middle two for an
/// even count; zero for none): one slow round moves a mean, not this.
fn median(mut rounds: Vec<Duration>) -> Duration {
    rounds.sort_unstable();
    let mid = rounds.len() / 2;
    match rounds.len() {
        0 => Duration::ZERO,
        n if n % 2 == 0 => (rounds[mid - 1] + rounds[mid]) / 2,
        _ => rounds[mid],
    }
}

/// One sync exchange per session, each answer applied: how the driver
/// brings every client's mirror (and standing verdicts) to the current epoch.
fn sync_sessions(
    server: &SyncServer,
    service: &VerificationService,
    sessions: &mut [(ClientId, SyncSession)],
) {
    for (client, session) in sessions {
        let response = server
            .try_handle(service, &session.request(*client))
            .expect("sync request served");
        session.apply(&response).expect("sync response applies");
    }
}

/// Runs `config.rounds` rounds of tenant churn against a fresh service with
/// every [`standing_queries`] entry subscribed, and measures the
/// epoch-advance cost.
#[must_use]
pub fn run_incremental_churn(
    topology: &Topology,
    config: &IncrementalChurnConfig,
) -> IncrementalChurnReport {
    let service = VerificationService::new(topology.clone(), true);
    let mut snapshot = benign_snapshot(topology);
    service
        .try_publish(&snapshot, SimTime::from_millis(1))
        .expect("epoch publish rejected");
    let server = SyncServer::new(9, &service.registry());
    let standing = standing_queries(topology, config.synthetic_queries);
    for (client, spec) in &standing {
        server.subscribe(*client, spec.clone());
    }
    let mut sessions: Vec<(ClientId, SyncSession)> = clients_of(topology)
        .into_iter()
        .map(|client| (client, SyncSession::new()))
        .collect();
    sync_sessions(&server, &service, &mut sessions);

    let mut rule_changes = 0usize;
    let mut epoch_advances = Vec::with_capacity(config.rounds);
    // Round 1 is an untimed warmup: it pays the one-off cold costs (the
    // first walk of every standing query's traversals into the memo,
    // evaluator warm paths) that belong to service start-up, not to
    // steady-state epoch advancing.
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
            epoch_advances.push(started.elapsed());
        }
    }

    let stats = service.stats();
    let reverify = server.reverify_stats();
    IncrementalChurnReport {
        rounds: config.rounds,
        standing_queries: standing.len(),
        rule_changes,
        epoch_advance_median: median(epoch_advances),
        reverified: reverify.reverified,
        skipped: reverify.skipped,
        incremental_applies: stats.incremental_applies,
        model_rebuilds: stats.model_rebuilds,
        final_serial: service.current_serial(),
    }
}

/// What the full-rebuild baseline measured.
#[derive(Debug, Clone)]
pub struct FullRebuildChurnReport {
    /// Median wall-clock epoch-advance cost of a measured round: churn + one
    /// function rebuild per client + every standing query answered.
    pub epoch_advance_median: Duration,
    /// Standing queries re-verified — all of them, every round (warm-up
    /// included, as [`IncrementalChurnReport::reverified`] counts it).
    pub reverified: u64,
}

/// The baseline [`run_incremental_churn`] is measured against: the same
/// [`tenant_churn_round`] sequence (and discarded warm-up round) answered by
/// the reference implementation. Per round and per client, one
/// [`LogicalVerifier::evaluator`] — the network function rebuilt from the
/// snapshot — answers that client's standing queries: one rebuild per client
/// batch, the granularity per-session sync gives the service. No service, no
/// cache, nothing skipped.
#[must_use]
pub fn run_full_rebuild_churn(
    topology: &Topology,
    config: &IncrementalChurnConfig,
) -> FullRebuildChurnReport {
    // The configuration the service verifies with.
    let verifier = LogicalVerifier::new(
        topology.clone(),
        VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        },
    );
    let mut snapshot = benign_snapshot(topology);
    let standing = standing_queries(topology, config.synthetic_queries);
    let clients = clients_of(topology);
    let mut epoch_advances = Vec::with_capacity(config.rounds);
    for round in 1..=(config.rounds + 1) as u64 {
        let started = Instant::now();
        tenant_churn_round(
            topology,
            &mut snapshot,
            round,
            config.churn_clients_per_round,
            config.rules_per_client,
            SimTime::from_millis(10 + round),
        );
        for client in &clients {
            let mut evaluator = verifier.evaluator(&snapshot);
            for (_, spec) in standing.iter().filter(|(owner, _)| owner == client) {
                std::hint::black_box(evaluator.answer(*client, spec));
            }
        }
        if round > 1 {
            epoch_advances.push(started.elapsed());
        }
    }
    FullRebuildChurnReport {
        epoch_advance_median: median(epoch_advances),
        reverified: (standing.len() * (config.rounds + 1)) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_topology::generators;

    #[test]
    fn tenant_churn_installs_and_rotates_rules() {
        let topology = generators::leaf_spine(2, 4, 2, 1);
        let mut snapshot = benign_snapshot(&topology);
        let base = snapshot.rule_count();
        let added = tenant_churn_round(&topology, &mut snapshot, 0, 2, 3, SimTime::from_millis(2));
        assert_eq!(added, 6, "round 0 only installs");
        assert_eq!(snapshot.rule_count(), base + 6);
        // Round 1 installs 6 fresh rules and removes round 0's 6.
        let changed =
            tenant_churn_round(&topology, &mut snapshot, 1, 2, 3, SimTime::from_millis(3));
        assert_eq!(changed, 12);
        assert_eq!(snapshot.rule_count(), base + 6);
        // Churn lands on hostless (spine) switches only.
        let spines = churn_switches(&topology);
        assert!(!spines.is_empty());
        for spine in &spines {
            assert!(!topology.hosts().any(|h| h.attachment.switch == *spine));
        }
    }

    /// 4 clients (one per hosts-per-leaf slot), so churning one client per
    /// round leaves three quarters of the standing queries untouched.
    fn one_client_churn(synthetic_queries: usize) -> IncrementalChurnConfig {
        IncrementalChurnConfig {
            rounds: 3,
            churn_clients_per_round: 1,
            rules_per_client: 2,
            synthetic_queries,
        }
    }

    #[test]
    fn incremental_run_skips_unaffected_standing_queries() {
        let topology = generators::leaf_spine(2, 4, 4, 1);
        let config = one_client_churn(0);
        let report = run_incremental_churn(&topology, &config);
        assert_eq!(report.rounds, 3);
        assert!(report.rule_changes > 0);
        assert!(
            report.skipped > report.reverified,
            "tenant-pinned churn must leave most standing queries unaffected: {report:?}"
        );
        assert_eq!(
            report.final_serial, 5,
            "initial publish + warmup + one per measured round"
        );
        assert!(report.model_rebuilds <= 1, "delta path must carry the run");

        // The full-rebuild baseline re-verifies everything, every round.
        let full = run_full_rebuild_churn(&topology, &config);
        assert_eq!(full.reverified, report.reverified + report.skipped);
        assert!(full.epoch_advance_median > Duration::ZERO);
    }

    #[test]
    fn one_driver_reproduces_both_former_drivers_splits() {
        // The reverified/skipped split on this workload (leaf_spine(2,4,4),
        // three rounds of one client's two rules): the synthetic population
        // only ever adds to the skipped side, and the churned tenant's
        // ReachingSources, which traffic between its own hosts cannot move,
        // is skipped too.
        let topology = generators::leaf_spine(2, 4, 4, 1);
        for (synthetic, reverified, skipped) in [(0, 21, 75), (200, 21, 875)] {
            let config = one_client_churn(synthetic);
            let report = run_incremental_churn(&topology, &config);
            assert_eq!(
                (report.reverified, report.skipped),
                (reverified, skipped),
                "synthetic population {synthetic}"
            );
            assert_eq!(report.standing_queries, 4 * 6 + synthetic);
            assert_eq!(
                report.rule_changes, 12,
                "three measured rounds of 2 out, 2 in"
            );
            let full = run_full_rebuild_churn(&topology, &config);
            assert_eq!(full.reverified, reverified + skipped);
        }
    }
}
