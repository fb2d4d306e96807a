//! Logical verification: answering client queries from the snapshot.
//!
//! The [`LogicalVerifier`] combines the trusted deployment knowledge (the
//! topology / wiring plan, the host-to-client registry, switch locations)
//! with the monitor's [`NetworkSnapshot`] and answers the query types of the
//! paper's case studies: reachable destinations, reaching sources, isolation
//! checks, geo-location checks, path lengths and network-neutrality checks.
//!
//! Confidentiality: the verifier only ever reports *endpoints*, *regions* and
//! *hop counts* to clients — never switch identities or paths — preserving
//! the provider's topology confidentiality as required by the paper.

use std::borrow::Cow;
use std::collections::BTreeMap;

use rvaas_client::{EndpointReport, NeutralityViolation, QueryResult, QuerySpec};
use rvaas_hsa::{Cube, HeaderSpace, NetworkFunction, ReachabilityEngine, ReachabilityResult};
use rvaas_openflow::Action;
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, HostId, Region, SwitchId, SwitchPort};

use crate::interest::QueryFootprint;
use crate::snapshot::NetworkSnapshot;

/// The switch-location knowledge used for geo queries. Depending on how
/// locations were acquired (disclosed, crowd-sourced, inferred) the map may
/// be incomplete or wrong; experiments construct degraded maps to measure the
/// effect.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocationMap {
    regions: BTreeMap<SwitchId, Region>,
}

impl LocationMap {
    /// An empty map (no location knowledge).
    #[must_use]
    pub fn new() -> Self {
        LocationMap::default()
    }

    /// The ground-truth map taken directly from the (trusted) topology —
    /// corresponds to locations disclosed by the infrastructure provider.
    #[must_use]
    pub fn disclosed(topology: &Topology) -> Self {
        let regions = topology
            .switches()
            .map(|s| (s.id, s.location.region.clone()))
            .collect();
        LocationMap { regions }
    }

    /// Sets the region of one switch.
    pub fn set(&mut self, switch: SwitchId, region: Region) {
        self.regions.insert(switch, region);
    }

    /// The region of `switch`, or the unknown region if not known.
    #[must_use]
    pub fn region_of(&self, switch: SwitchId) -> Region {
        self.regions
            .get(&switch)
            .cloned()
            .unwrap_or_else(Region::unknown)
    }

    /// Number of switches with a known region.
    #[must_use]
    pub fn known_count(&self) -> usize {
        self.regions.len()
    }
}

/// Configuration of the verifier.
#[derive(Debug, Clone, Default)]
pub struct VerifierConfig {
    /// If true, verification also considers rules removed within the
    /// snapshot's history window (defeats flapping attacks).
    pub use_history: bool,
    /// Location knowledge for geo queries.
    pub locations: LocationMap,
}

/// The logical verification engine.
#[derive(Debug)]
pub struct LogicalVerifier {
    topology: Topology,
    config: VerifierConfig,
}

impl LogicalVerifier {
    /// Creates a verifier over the trusted `topology`.
    #[must_use]
    pub fn new(topology: Topology, config: VerifierConfig) -> Self {
        LogicalVerifier { topology, config }
    }

    /// The trusted topology the verifier reasons over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the verifier configuration (experiments switch the
    /// location map or history mode between queries).
    pub fn config_mut(&mut self) -> &mut VerifierConfig {
        &mut self.config
    }

    fn function_for(&self, snapshot: &NetworkSnapshot) -> NetworkFunction {
        if self.config.use_history {
            snapshot.to_network_function_with_history(&self.topology)
        } else {
            snapshot.to_network_function(&self.topology)
        }
    }

    /// Space of traffic a given host can emit (admission rules match on the
    /// source address, so the source is pinned to the host's own IP).
    fn emission_space(host_ip: u32) -> HeaderSpace {
        HeaderSpace::from(Cube::wildcard().with_field(Field::IpSrc, u64::from(host_ip)))
    }

    /// Starts a reusable evaluation session over one snapshot: the HSA
    /// network function is built once and per-host traversals are memoised,
    /// so a batch of queries sharing source hosts costs one traversal per
    /// host instead of one per query. This is the from-scratch reference
    /// every service-plane test and benchmark compares against; the worker
    /// pool itself uses it only under history-mode verification.
    #[must_use]
    pub fn evaluator<'a>(&'a self, snapshot: &'a NetworkSnapshot) -> QueryEvaluator<'a> {
        QueryEvaluator {
            verifier: self,
            snapshot,
            nf: Cow::Owned(self.function_for(snapshot)),
            emission: BTreeMap::new(),
            source_reach: BTreeMap::new(),
            path: BTreeMap::new(),
        }
    }

    /// Like [`LogicalVerifier::evaluator`], but borrows an externally
    /// maintained network function instead of rebuilding one from the
    /// snapshot — the service plane's worker pool answers every batch this
    /// way, over the function the epoch store's one
    /// [`crate::incremental::IncrementalModel`] was advanced to and froze
    /// into the epoch.
    ///
    /// The caller is responsible for `nf` actually modelling `snapshot`;
    /// divergence between the two silently skews answers. A model of the
    /// installed rules cannot stand in for a history-mode function (rules
    /// removed inside the snapshot's window leave it by time, not by a rule
    /// change), so under [`VerifierConfig::use_history`] callers use
    /// [`LogicalVerifier::evaluator`] instead.
    #[must_use]
    pub fn evaluator_with<'a>(
        &'a self,
        snapshot: &'a NetworkSnapshot,
        nf: &'a NetworkFunction,
    ) -> QueryEvaluator<'a> {
        QueryEvaluator {
            verifier: self,
            snapshot,
            nf: Cow::Borrowed(nf),
            emission: BTreeMap::new(),
            source_reach: BTreeMap::new(),
            path: BTreeMap::new(),
        }
    }

    /// Destinations reachable from any of `client`'s access points.
    #[must_use]
    pub fn reachable_destinations(
        &self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
    ) -> Vec<EndpointReport> {
        self.evaluator(snapshot).reachable_destinations(client)
    }

    /// Sources whose traffic can currently reach any of `client`'s access
    /// points.
    #[must_use]
    pub fn reaching_sources(
        &self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
    ) -> Vec<EndpointReport> {
        self.evaluator(snapshot).reaching_sources(client)
    }

    /// The isolation check of paper Section IV-B1: the client's sub-network
    /// is isolated iff no foreign endpoint can reach it and it can reach no
    /// foreign endpoint.
    #[must_use]
    pub fn isolation_check(
        &self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
    ) -> (bool, Vec<EndpointReport>) {
        self.evaluator(snapshot).isolation_check(client)
    }

    /// The geo-location check of paper Section IV-B2: the set of regions the
    /// client's traffic can traverse.
    #[must_use]
    pub fn geo_regions(&self, snapshot: &NetworkSnapshot, client: ClientId) -> Vec<String> {
        self.evaluator(snapshot).geo_regions(client)
    }

    /// Path-length bounds from `client`'s access points to the host owning
    /// `to_ip`. Returns `(min, max, reachable)`.
    #[must_use]
    pub fn path_length(
        &self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
        to_ip: u32,
    ) -> (u32, u32, bool) {
        self.evaluator(snapshot).path_length(client, to_ip)
    }

    /// Network-neutrality check: reports clients whose delivery rules carry a
    /// meter while at least one other client's delivery is unmetered.
    #[must_use]
    pub fn neutrality_check(
        &self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
    ) -> (bool, Vec<NeutralityViolation>) {
        self.evaluator(snapshot).neutrality_check(client)
    }

    /// Dispatches a query spec to the appropriate check, producing the result
    /// payload (endpoints are not yet authenticated at this stage).
    #[must_use]
    pub fn answer(
        &self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
        spec: &QuerySpec,
    ) -> QueryResult {
        self.evaluator(snapshot).answer(client, spec)
    }
}

/// Memoised per-`(source, client)` probe: the verdict plus the traversal
/// footprint behind it.
#[derive(Debug, Clone)]
struct SourceProbe {
    reaches: bool,
    visited: Vec<SwitchId>,
    truncated: bool,
}

/// Memoised per-`(client, destination ip)` path-length probe.
#[derive(Debug, Clone)]
struct PathProbe {
    min: u32,
    max: u32,
    reachable: bool,
    visited: Vec<SwitchId>,
    truncated: bool,
}

/// A single-snapshot evaluation session.
///
/// Owns the HSA network function built from one snapshot and memoises the
/// expensive traversals: the emission-space reachability of each source host
/// (shared by destination, isolation and geo queries), the per-source
/// "can this host reach that client" verdicts (shared by isolation and
/// reaching-source queries) and per-destination path probes. Answering `n`
/// queries that share hosts through one evaluator therefore performs each
/// traversal once.
///
/// Every memo keeps the traversal's [`visited`] switch set, so
/// [`footprint_of`](Self::footprint_of) can report which switches a verdict
/// depends on — the interest-space index uses this to skip the query on
/// changes elsewhere.
///
/// [`visited`]: ReachabilityResult::visited
#[derive(Debug)]
pub struct QueryEvaluator<'a> {
    verifier: &'a LogicalVerifier,
    snapshot: &'a NetworkSnapshot,
    nf: Cow<'a, NetworkFunction>,
    /// Memoised `reachable_from(host, emission_space(host))` per source host.
    emission: BTreeMap<HostId, ReachabilityResult>,
    /// Memoised "source host can reach some access point of client".
    source_reach: BTreeMap<(HostId, ClientId), SourceProbe>,
    /// Memoised path-length probes per `(client, destination ip)`.
    path: BTreeMap<(ClientId, u32), PathProbe>,
}

impl QueryEvaluator<'_> {
    fn topology(&self) -> &Topology {
        &self.verifier.topology
    }

    fn endpoint_for_port(&self, port: SwitchPort) -> Option<EndpointReport> {
        self.topology().host_at(port).map(|h| EndpointReport {
            ip: h.ip,
            client: h.owner,
            authenticated: false,
        })
    }

    /// The memoised emission-space traversal of one host.
    fn emission_result(
        &mut self,
        host: HostId,
        attachment: SwitchPort,
        ip: u32,
    ) -> &ReachabilityResult {
        if !self.emission.contains_key(&host) {
            let engine = ReachabilityEngine::new(&self.nf);
            let result = engine.reachable_from(attachment, LogicalVerifier::emission_space(ip));
            self.emission.insert(host, result);
        }
        &self.emission[&host]
    }

    /// Destinations reachable from any of `client`'s access points.
    #[must_use]
    pub fn reachable_destinations(&mut self, client: ClientId) -> Vec<EndpointReport> {
        let hosts: Vec<_> = self
            .topology()
            .hosts_of_client(client)
            .iter()
            .map(|h| (h.id, h.attachment, h.ip))
            .collect();
        let mut out: Vec<EndpointReport> = Vec::new();
        for (id, attachment, ip) in hosts {
            let ports = self.emission_result(id, attachment, ip).reached_ports();
            for port in ports {
                if let Some(report) = self.endpoint_for_port(port) {
                    if report.ip != ip && !out.iter().any(|e| e.ip == report.ip) {
                        out.push(report);
                    }
                }
            }
        }
        out.sort_by_key(|e| e.ip);
        out
    }

    /// Whether `source` can currently deliver traffic to any of the ports in
    /// `ports`, which must be `client`'s access points (memoised per
    /// `(source, client)`).
    fn source_reaches(
        &mut self,
        source: HostId,
        client: ClientId,
        ports: &[SwitchPort],
        target_ips: &[u32],
    ) -> bool {
        if let Some(probe) = self.source_reach.get(&(source, client)) {
            return probe.reaches;
        }
        let host = self
            .topology()
            .host(source)
            .expect("source host exists in the trusted topology");
        let (attachment, src_ip) = (host.attachment, host.ip);
        // Traffic the source can emit towards any of the client's hosts.
        let mut space = HeaderSpace::empty();
        for ip in target_ips {
            space = space.union(&HeaderSpace::from(
                Cube::wildcard()
                    .with_field(Field::IpSrc, u64::from(src_ip))
                    .with_field(Field::IpDst, u64::from(*ip)),
            ));
        }
        let engine = ReachabilityEngine::new(&self.nf);
        let result = engine.reachable_from(attachment, space);
        let reaches = result.reached_ports().iter().any(|p| ports.contains(p));
        self.source_reach.insert(
            (source, client),
            SourceProbe {
                reaches,
                visited: result.visited,
                truncated: result.truncated_branches > 0,
            },
        );
        reaches
    }

    /// Sources whose traffic can currently reach any of `client`'s access
    /// points.
    #[must_use]
    pub fn reaching_sources(&mut self, client: ClientId) -> Vec<EndpointReport> {
        let my_ports: Vec<SwitchPort> = self.topology().access_points_of(client);
        let my_ips: Vec<u32> = self
            .topology()
            .hosts_of_client(client)
            .iter()
            .map(|h| h.ip)
            .collect();
        let sources: Vec<_> = self
            .topology()
            .hosts()
            .filter(|h| h.owner != client)
            .map(|h| (h.id, h.ip, h.owner))
            .collect();
        let mut out: Vec<EndpointReport> = Vec::new();
        for (id, ip, owner) in sources {
            if self.source_reaches(id, client, &my_ports, &my_ips) {
                out.push(EndpointReport {
                    ip,
                    client: owner,
                    authenticated: false,
                });
            }
        }
        out.sort_by_key(|e| e.ip);
        out
    }

    /// The isolation check of paper Section IV-B1.
    #[must_use]
    pub fn isolation_check(&mut self, client: ClientId) -> (bool, Vec<EndpointReport>) {
        let mut foreign: Vec<EndpointReport> = self
            .reachable_destinations(client)
            .into_iter()
            .filter(|e| e.client != client)
            .collect();
        for source in self.reaching_sources(client) {
            if source.client != client && !foreign.iter().any(|e| e.ip == source.ip) {
                foreign.push(source);
            }
        }
        foreign.sort_by_key(|e| e.ip);
        (foreign.is_empty(), foreign)
    }

    /// The geo-location check of paper Section IV-B2.
    #[must_use]
    pub fn geo_regions(&mut self, client: ClientId) -> Vec<String> {
        let hosts: Vec<_> = self
            .topology()
            .hosts_of_client(client)
            .iter()
            .map(|h| (h.id, h.attachment, h.ip))
            .collect();
        let mut regions: Vec<String> = Vec::new();
        for (id, attachment, ip) in hosts {
            let switches = self
                .emission_result(id, attachment, ip)
                .traversed_switches();
            for switch in switches {
                let region = self.verifier.config.locations.region_of(switch);
                let label = region.label().to_string();
                if !regions.contains(&label) {
                    regions.push(label);
                }
            }
        }
        regions.sort();
        regions
    }

    /// The memoised path probe of `(client, to_ip)`.
    fn path_probe(&mut self, client: ClientId, to_ip: u32) -> &PathProbe {
        if !self.path.contains_key(&(client, to_ip)) {
            let probe = self.compute_path_probe(client, to_ip);
            self.path.insert((client, to_ip), probe);
        }
        &self.path[&(client, to_ip)]
    }

    fn compute_path_probe(&mut self, client: ClientId, to_ip: u32) -> PathProbe {
        let engine = ReachabilityEngine::new(&self.nf);
        let Some(destination) = self.topology().host_by_ip(to_ip) else {
            // The destination comes from the trusted, static topology: an
            // unknown ip stays unknown whatever the rules do, so the verdict
            // depends on no switch at all.
            return PathProbe {
                min: 0,
                max: 0,
                reachable: false,
                visited: Vec::new(),
                truncated: false,
            };
        };
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut visited: Vec<SwitchId> = Vec::new();
        let mut truncated = false;
        for host in self.topology().hosts_of_client(client) {
            let space = HeaderSpace::from(
                Cube::wildcard()
                    .with_field(Field::IpSrc, u64::from(host.ip))
                    .with_field(Field::IpDst, u64::from(to_ip)),
            );
            let result = engine.reachable_from(host.attachment, space);
            for endpoint in &result.endpoints {
                if endpoint.egress == destination.attachment {
                    min = min.min(endpoint.hop_count());
                    max = max.max(endpoint.hop_count());
                }
            }
            visited.extend(result.visited);
            truncated |= result.truncated_branches > 0;
        }
        visited.sort();
        visited.dedup();
        let (min, max, reachable) = if max == 0 {
            (0, 0, false)
        } else {
            (min as u32, max as u32, true)
        };
        PathProbe {
            min,
            max,
            reachable,
            visited,
            truncated,
        }
    }

    /// Path-length bounds from `client`'s access points to the host owning
    /// `to_ip`. Returns `(min, max, reachable)`.
    #[must_use]
    pub fn path_length(&mut self, client: ClientId, to_ip: u32) -> (u32, u32, bool) {
        let probe = self.path_probe(client, to_ip);
        (probe.min, probe.max, probe.reachable)
    }

    /// Network-neutrality check over the evaluator's snapshot.
    #[must_use]
    pub fn neutrality_check(&mut self, client: ClientId) -> (bool, Vec<NeutralityViolation>) {
        // For every client, determine whether any delivery rule toward one of
        // its hosts applies a meter.
        let mut metered: BTreeMap<ClientId, bool> = BTreeMap::new();
        for host in self.topology().hosts() {
            let table = self.snapshot.table_of(host.attachment.switch);
            let delivers_metered = table.iter().any(|entry| {
                let delivers = entry
                    .actions
                    .iter()
                    .any(|a| matches!(a, Action::Output(p) if *p == host.attachment.port));
                let meters = entry.actions.iter().any(|a| matches!(a, Action::Meter(_)));
                delivers && meters
            });
            let flag = metered.entry(host.owner).or_insert(false);
            *flag = *flag || delivers_metered;
        }
        let victim_metered = metered.get(&client).copied().unwrap_or(false);
        let mut violations = Vec::new();
        if victim_metered {
            for (other, is_metered) in &metered {
                if *other != client && !is_metered {
                    violations.push(NeutralityViolation {
                        victim: client,
                        favoured: *other,
                        victim_rate_kbps: 0,
                        favoured_rate_kbps: u64::MAX,
                    });
                }
            }
        }
        (violations.is_empty(), violations)
    }

    /// Dispatches a query spec to the appropriate check, producing the result
    /// payload (endpoints are not yet authenticated at this stage).
    #[must_use]
    pub fn answer(&mut self, client: ClientId, spec: &QuerySpec) -> QueryResult {
        match spec {
            QuerySpec::ReachableDestinations => QueryResult::Endpoints {
                endpoints: self.reachable_destinations(client),
            },
            QuerySpec::ReachingSources => QueryResult::Sources {
                sources: self.reaching_sources(client),
            },
            QuerySpec::Isolation => {
                let (isolated, foreign_endpoints) = self.isolation_check(client);
                QueryResult::IsolationStatus {
                    isolated,
                    foreign_endpoints,
                }
            }
            QuerySpec::GeoLocation => QueryResult::Regions {
                regions: self.geo_regions(client),
            },
            QuerySpec::PathLength { to_ip } => {
                let (min_hops, max_hops, reachable) = self.path_length(client, *to_ip);
                QueryResult::PathLength {
                    min_hops,
                    max_hops,
                    reachable,
                }
            }
            QuerySpec::Neutrality => {
                let (fair, violations) = self.neutrality_check(client);
                QueryResult::Neutrality { fair, violations }
            }
        }
    }

    /// Union of the emission-space traversal footprints of `client`'s hosts;
    /// unbounded as soon as any traversal was truncated.
    fn emission_footprint(&mut self, client: ClientId) -> QueryFootprint {
        let hosts: Vec<_> = self
            .topology()
            .hosts_of_client(client)
            .iter()
            .map(|h| (h.id, h.attachment, h.ip))
            .collect();
        let mut switches = std::collections::BTreeSet::new();
        for (id, attachment, ip) in hosts {
            let result = self.emission_result(id, attachment, ip);
            if result.truncated_branches > 0 {
                return QueryFootprint::unbounded();
            }
            switches.extend(result.visited.iter().copied());
        }
        QueryFootprint::bounded(switches)
    }

    /// Union of the foreign-source probe footprints toward `client`.
    fn inbound_footprint(&mut self, client: ClientId) -> QueryFootprint {
        let my_ports: Vec<SwitchPort> = self.topology().access_points_of(client);
        let my_ips: Vec<u32> = self
            .topology()
            .hosts_of_client(client)
            .iter()
            .map(|h| h.ip)
            .collect();
        let sources: Vec<HostId> = self
            .topology()
            .hosts()
            .filter(|h| h.owner != client)
            .map(|h| h.id)
            .collect();
        let mut switches = std::collections::BTreeSet::new();
        for source in sources {
            self.source_reaches(source, client, &my_ports, &my_ips);
            let probe = &self.source_reach[&(source, client)];
            if probe.truncated {
                return QueryFootprint::unbounded();
            }
            switches.extend(probe.visited.iter().copied());
        }
        QueryFootprint::bounded(switches)
    }

    /// The switch-level traversal footprint of `(client, spec)`: the set of
    /// switches whose rules the verdict depends on, or unbounded when a
    /// traversal hit the engine's bounds (the verdict may then depend on
    /// anything). Sound for the interest-space index: a rule change on a
    /// switch outside a bounded footprint cannot change the verdict, because
    /// absent rewrites the injected traffic never arrives there (and rewrites
    /// force conservative regions upstream).
    ///
    /// Cheap after [`answer`](Self::answer) for the same `(client, spec)` —
    /// the footprint is read from the memoised traversals.
    #[must_use]
    pub fn footprint_of(&mut self, client: ClientId, spec: &QuerySpec) -> QueryFootprint {
        match spec {
            QuerySpec::ReachableDestinations | QuerySpec::GeoLocation => {
                self.emission_footprint(client)
            }
            QuerySpec::ReachingSources => self.inbound_footprint(client),
            QuerySpec::Isolation => {
                let mut footprint = self.emission_footprint(client);
                footprint.merge(&self.inbound_footprint(client));
                footprint
            }
            QuerySpec::PathLength { to_ip } => {
                let probe = self.path_probe(client, *to_ip);
                if probe.truncated {
                    QueryFootprint::unbounded()
                } else {
                    QueryFootprint::bounded(probe.visited.iter().copied().collect())
                }
            }
            // Neutrality reads delivery rules on every access switch, not
            // header traversals.
            QuerySpec::Neutrality => QueryFootprint::bounded(
                self.topology()
                    .hosts()
                    .map(|h| h.attachment.switch)
                    .collect(),
            ),
        }
    }

    /// [`answer`](Self::answer) plus the traversal footprint behind the
    /// verdict — the worker-pool entry point feeding the interest-space
    /// index.
    #[must_use]
    pub fn answer_with_footprint(
        &mut self,
        client: ClientId,
        spec: &QuerySpec,
    ) -> (QueryResult, QueryFootprint) {
        let result = self.answer(client, spec);
        (result, self.footprint_of(client, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_controlplane::{benign_rules, Attack};
    use rvaas_openflow::{FlowModCommand, Message};
    use rvaas_topology::generators;
    use rvaas_types::{HostId, SimTime};

    /// Builds a snapshot containing the benign policy plus optional attacks.
    fn snapshot_with(topology: &Topology, attacks: &[Attack]) -> NetworkSnapshot {
        let mut snap = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(topology) {
            snap.record_installed(switch, entry, SimTime::from_millis(1));
        }
        for attack in attacks {
            for (switch, msg) in attack.compile(topology) {
                if let Message::FlowMod {
                    command: FlowModCommand::Add(entry),
                } = msg
                {
                    snap.record_installed(switch, entry, SimTime::from_millis(2));
                }
            }
        }
        snap
    }

    fn verifier(topology: &Topology) -> LogicalVerifier {
        LogicalVerifier::new(
            topology.clone(),
            VerifierConfig {
                use_history: false,
                locations: LocationMap::disclosed(topology),
            },
        )
    }

    #[test]
    fn benign_network_is_isolated_and_reaches_only_own_hosts() {
        let topo = generators::line(4, 2);
        let snap = snapshot_with(&topo, &[]);
        let v = verifier(&topo);
        // Client 1 owns hosts 1 and 3; each host reaches the other, so both
        // appear in the union over the client's access points.
        let dests = v.reachable_destinations(&snap, ClientId(1));
        assert_eq!(dests.len(), 2);
        assert!(dests.iter().all(|e| e.client == ClientId(1)));
        let (isolated, foreign) = v.isolation_check(&snap, ClientId(1));
        assert!(isolated);
        assert!(foreign.is_empty());
        let sources = v.reaching_sources(&snap, ClientId(1));
        assert!(sources.is_empty(), "no foreign host may reach client 1");
    }

    #[test]
    fn join_attack_breaks_isolation_and_is_reported() {
        let topo = generators::line(4, 2);
        let attack = Attack::Join {
            attacker_host: HostId(2), // client 2
            victim_client: ClientId(1),
        };
        let snap = snapshot_with(&topo, &[attack]);
        let v = verifier(&topo);
        let (isolated, foreign) = v.isolation_check(&snap, ClientId(1));
        assert!(!isolated);
        let h2_ip = topo.host(HostId(2)).unwrap().ip;
        assert!(foreign
            .iter()
            .any(|e| e.ip == h2_ip && e.client == ClientId(2)));
        // The attacker also sees the victim among its reachable destinations.
        let dests = v.reachable_destinations(&snap, ClientId(2));
        let h1_ip = topo.host(HostId(1)).unwrap().ip;
        assert!(dests.iter().any(|e| e.ip == h1_ip));
    }

    #[test]
    fn exfiltration_appears_in_reachable_destinations_of_victim() {
        let topo = generators::line(4, 2);
        let attack = Attack::Exfiltrate {
            victim_host: HostId(1),
            collector_host: HostId(4),
        };
        let snap = snapshot_with(&topo, &[attack]);
        let v = verifier(&topo);
        // The victim is client 1 (host 1). Traffic addressed to host 1 is
        // mirrored to host 4 (client 2): the reaching-sources / isolation
        // view of client 2's collector is the detection signal here — the
        // collector becomes reachable from client 1's emission space.
        let dests = v.reachable_destinations(&snap, ClientId(1));
        let collector_ip = topo.host(HostId(4)).unwrap().ip;
        assert!(
            dests.iter().any(|e| e.ip == collector_ip),
            "mirrored traffic reaches the collector: {dests:?}"
        );
    }

    #[test]
    fn geo_divert_adds_regions() {
        let topo = generators::line(6, 1);
        let v = verifier(&topo);
        let benign_snap = snapshot_with(&topo, &[]);
        let benign_regions = v.geo_regions(&benign_snap, ClientId(1));
        let attack = Attack::GeoDivert {
            from_host: HostId(1),
            to_host: HostId(2),
            via_region: Region::new("LATAM"),
        };
        let attacked_snap = snapshot_with(&topo, &[attack]);
        let attacked_regions = v.geo_regions(&attacked_snap, ClientId(1));
        assert!(attacked_regions.contains(&"LATAM".to_string()));
        assert!(attacked_regions.len() >= benign_regions.len());
    }

    #[test]
    fn geo_regions_with_unknown_locations() {
        let topo = generators::line(3, 1);
        let snap = snapshot_with(&topo, &[]);
        let mut v = verifier(&topo);
        v.config_mut().locations = LocationMap::new();
        let regions = v.geo_regions(&snap, ClientId(1));
        assert_eq!(regions, vec!["UNKNOWN".to_string()]);
        assert_eq!(v.config_mut().locations.known_count(), 0);
    }

    #[test]
    fn path_length_reports_hops_and_unreachable() {
        let topo = generators::line(5, 1);
        let snap = snapshot_with(&topo, &[]);
        let v = verifier(&topo);
        let h5_ip = topo.host(HostId(5)).unwrap().ip;
        // From client 1's hosts (all of them, single client) the farthest is
        // 5 hops (s1..s5), the nearest is 1 hop (h5 itself is client 1 too,
        // but we exclude self-traffic by source, so the minimum comes from
        // host 4 -> host 5 = 2 hops).
        let (min, max, reachable) = v.path_length(&snap, ClientId(1), h5_ip);
        assert!(reachable);
        assert!((1..=2).contains(&min), "min = {min}");
        assert_eq!(max, 5);
        // Unknown destination.
        assert_eq!(
            v.path_length(&snap, ClientId(1), 0xdead_beef),
            (0, 0, false)
        );
    }

    #[test]
    fn blackhole_removes_destination_from_reachability() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let h3_ip = topo.host(HostId(3)).unwrap().ip;
        let benign_snap = snapshot_with(&topo, &[]);
        assert!(v
            .reachable_destinations(&benign_snap, ClientId(1))
            .iter()
            .any(|e| e.ip == h3_ip));
        let snap = snapshot_with(
            &topo,
            &[Attack::Blackhole {
                victim_host: HostId(3),
            }],
        );
        assert!(!v
            .reachable_destinations(&snap, ClientId(1))
            .iter()
            .any(|e| e.ip == h3_ip));
    }

    #[test]
    fn neutrality_violation_is_detected() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let benign_snap = snapshot_with(&topo, &[]);
        let (fair, violations) = v.neutrality_check(&benign_snap, ClientId(1));
        assert!(fair);
        assert!(violations.is_empty());

        let snap = snapshot_with(
            &topo,
            &[Attack::Throttle {
                victim_client: ClientId(1),
                rate_kbps: 64,
            }],
        );
        let (fair, violations) = v.neutrality_check(&snap, ClientId(1));
        assert!(!fair);
        assert!(violations.iter().any(|viol| viol.favoured == ClientId(2)));
        // The favoured client sees no violation against itself.
        let (fair2, _) = v.neutrality_check(&snap, ClientId(2));
        assert!(fair2);
    }

    #[test]
    fn history_mode_detects_recently_removed_rules() {
        let topo = generators::line(4, 2);
        let attack = Attack::Join {
            attacker_host: HostId(2),
            victim_client: ClientId(1),
        };
        // Build a snapshot where the attack was installed and then removed
        // (flapping): the current view is clean, history still has it.
        let mut snap = snapshot_with(&topo, std::slice::from_ref(&attack));
        for (switch, msg) in attack.compile(&topo) {
            if let Message::FlowMod {
                command: FlowModCommand::Add(entry),
            } = msg
            {
                snap.record_removed(switch, &entry, SimTime::from_millis(3));
            }
        }
        let mut v = verifier(&topo);
        let (isolated_now, _) = v.isolation_check(&snap, ClientId(1));
        assert!(isolated_now, "current view looks clean");
        v.config_mut().use_history = true;
        let (isolated_hist, foreign) = v.isolation_check(&snap, ClientId(1));
        assert!(!isolated_hist, "history view reveals the flapped rule");
        assert!(!foreign.is_empty());
    }

    #[test]
    fn answer_dispatches_every_spec() {
        let topo = generators::line(4, 2);
        let snap = snapshot_with(&topo, &[]);
        let v = verifier(&topo);
        let h3_ip = topo.host(HostId(3)).unwrap().ip;
        let specs = vec![
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip: h3_ip },
            QuerySpec::Neutrality,
        ];
        for spec in specs {
            let result = v.answer(&snap, ClientId(1), &spec);
            match (&spec, &result) {
                (QuerySpec::ReachableDestinations, QueryResult::Endpoints { .. })
                | (QuerySpec::ReachingSources, QueryResult::Sources { .. })
                | (QuerySpec::Isolation, QueryResult::IsolationStatus { .. })
                | (QuerySpec::GeoLocation, QueryResult::Regions { .. })
                | (QuerySpec::PathLength { .. }, QueryResult::PathLength { .. })
                | (QuerySpec::Neutrality, QueryResult::Neutrality { .. }) => {}
                other => panic!("spec/result mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn footprints_are_bounded_and_cover_traversed_switches() {
        let topo = generators::line(4, 2);
        let snap = snapshot_with(&topo, &[]);
        let v = verifier(&topo);
        let mut eval = v.evaluator(&snap);
        let h3_ip = topo.host(HostId(3)).unwrap().ip;
        for spec in [
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip: h3_ip },
            QuerySpec::Neutrality,
        ] {
            let (result, footprint) = eval.answer_with_footprint(ClientId(1), &spec);
            assert_eq!(result, eval.answer(ClientId(1), &spec), "memo stable");
            let switches = footprint
                .switches
                .expect("benign line topology traversals stay within bounds");
            assert!(
                !switches.is_empty(),
                "{spec:?} depends on at least one switch"
            );
        }
        // An isolation verdict in a 4-switch line with hosts on every switch
        // depends on every switch; a path probe toward host 3 from client 1's
        // hosts (switches 1 and 3) never visits beyond the line between them.
        let isolation = eval.footprint_of(ClientId(1), &QuerySpec::Isolation);
        assert_eq!(isolation.switches.unwrap().len(), 4);
    }

    #[test]
    fn unknown_path_destination_has_an_empty_footprint() {
        let topo = generators::line(3, 1);
        let snap = snapshot_with(&topo, &[]);
        let v = verifier(&topo);
        let mut eval = v.evaluator(&snap);
        let spec = QuerySpec::PathLength { to_ip: 0xdead_beef };
        let (result, footprint) = eval.answer_with_footprint(ClientId(1), &spec);
        assert!(matches!(
            result,
            QueryResult::PathLength {
                reachable: false,
                ..
            }
        ));
        assert_eq!(
            footprint.switches,
            Some(std::collections::BTreeSet::new()),
            "a constant verdict depends on no switch"
        );
    }
}
