//! The service-plane workload's building blocks: the clients of a
//! topology, the standing query mix each of them holds, the benign snapshot
//! every service run publishes first, and a generic churn round. The
//! service-level analogue of the in-band scenario harness.

use rvaas::NetworkSnapshot;
use rvaas_client::QuerySpec;
use rvaas_controlplane::benign_rules;
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime, SwitchId};

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
