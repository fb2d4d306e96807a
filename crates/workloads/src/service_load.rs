//! The service-plane workload's building blocks: the clients of a
//! topology, the standing query mix each of them holds, the benign snapshot
//! every service run publishes first. The service-level analogue of the in-band scenario harness.

use rvaas::NetworkSnapshot;
use rvaas_client::QuerySpec;
use rvaas_controlplane::benign_rules;
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime};

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

/// Every distinct client owning a host in `topology`, ascending
/// ([`Topology::clients`]).
#[must_use]
pub fn clients_of(topology: &Topology) -> Vec<ClientId> {
    topology.clients()
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
    NetworkSnapshot::with_rules(
        SimTime::from_secs(1),
        benign_rules(topology),
        SimTime::from_millis(1),
    )
}
