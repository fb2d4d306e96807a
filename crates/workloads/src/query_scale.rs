//! Standing-query population scaling: the synthetic population and the
//! selection micro-benchmark behind the `s3` (`query_scale`) experiment.
//!
//! A publish's selection of the verdicts it may have changed must be
//! governed by the *churn* (how many standing queries a rule change can
//! actually affect), not by the *population* (how many standing queries are
//! subscribed). `s3` subscribes a large synthetic population on top of the
//! standard per-client mix and drives a fixed tenant-churn rate through
//! [`run_incremental_churn`](crate::run_incremental_churn); flat advance
//! latency across populations means advancing an epoch is `O(affected)`.
//!
//! The synthetic population is made of [`QuerySpec::PathLength`] probes to
//! distinct unroutable destinations: every spec is unique (so the population
//! is real, not deduplicated), its path probes pin `(src, dst)` pairs the
//! tenant churn never touches (so a *sound* selection must skip it), and
//! its verdict is trivially constant (so the rare conservative epoch stays
//! cheap).
//!
//! [`selection_latency`] micro-benchmarks the affected-query selection in
//! isolation: the same changed region is evaluated once through the linear
//! scan ([`query_affected`] per standing query — the publish path before any
//! index) and once the way the service selects — the traversal memo's
//! [carry](rvaas::TraversalMemo::carry) naming the verdict keys the change
//! may have altered, read back per client as the specs a sync session
//! re-verifies — giving the linear-versus-keyed selection latencies the CI
//! gate compares.

use std::time::{Duration, Instant};

use std::collections::{BTreeMap, BTreeSet};

use rvaas::{
    query_affected, IncrementalModel, LocationMap, LogicalVerifier, RuleChange, TraversalMemo,
    VerifierConfig,
};
use rvaas_client::QuerySpec;
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, SwitchId};

use crate::service_load::{benign_snapshot, clients_of};

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

/// One tenant-pinned rule change representative of the churn the measured
/// rounds apply: the first client's `(src, dst)` pair on a transit switch,
/// as a standalone batch for the selection micro-benchmark.
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

/// Mean latency of one affected-query selection over `population` for a
/// representative tenant-churn region on the benign routing, `probes` times
/// each way: `(keyed, linear)`.
///
/// The keyed selection is what a publish and its sync sessions run: the
/// carry of a memo holding every traversal the population's verdicts read
/// (walked afresh, untimed, before each probe, since a carry moves them
/// out), then each client's affected specs intersected with its
/// subscriptions. The linear one is [`query_affected`] per standing query.
///
/// # Panics
///
/// Panics when `topology` has no client-owned hosts.
#[must_use]
pub fn selection_latency(
    topology: &Topology,
    population: &[(ClientId, QuerySpec)],
    probes: usize,
) -> (Duration, Duration) {
    let snapshot = benign_snapshot(topology);
    let mut model = IncrementalModel::from_snapshot(topology.clone(), &snapshot);
    let function = model.network_function().clone();
    let region = model.apply(&probe_changes(topology));
    let verifier = LogicalVerifier::new(
        topology.clone(),
        VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        },
    );
    let mut subscriptions: BTreeMap<ClientId, BTreeSet<QuerySpec>> = BTreeMap::new();
    for (client, spec) in population {
        subscriptions
            .entry(*client)
            .or_default()
            .insert(spec.clone());
    }
    let probes = probes.max(1);
    let mut keyed = Duration::ZERO;
    for _ in 0..probes {
        let memo = TraversalMemo::new();
        let mut session = verifier.evaluator_sharing(&snapshot, &function, &memo);
        for (client, spec) in population {
            std::hint::black_box(session.answer(*client, spec));
        }
        let started = Instant::now();
        let carried = memo.carry(&region, topology);
        for (client, subscribed) in &subscriptions {
            let specs = carried.affected.specs_of(*client);
            std::hint::black_box(specs.iter().filter(|s| subscribed.contains(s)).count());
        }
        keyed += started.elapsed();
    }
    let started = Instant::now();
    for _ in 0..probes {
        for (client, spec) in population {
            std::hint::black_box(query_affected(topology, *client, spec, &region));
        }
    }
    (keyed / probes as u32, started.elapsed() / probes as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{run_incremental_churn, standing_queries, IncrementalChurnConfig};
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
        let config = IncrementalChurnConfig {
            rounds: 3,
            churn_clients_per_round: 1,
            rules_per_client: 2,
            synthetic_queries: 200,
        };
        let report = run_incremental_churn(&topology, &config);
        assert_eq!(report.standing_queries, 4 * 6 + 200);
        assert!(report.rule_changes > 0);
        assert_eq!(report.final_serial, 5, "initial + warmup + measured rounds");
        // The synthetic population never re-verifies: its path probes are
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
        let (keyed, linear) = selection_latency(&topology, &standing_queries(&topology, 200), 1);
        assert!(keyed > Duration::ZERO);
        assert!(linear > Duration::ZERO);
    }
}
