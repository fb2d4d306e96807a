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
use std::sync::{Arc, PoisonError, RwLock};

use rvaas_client::{EndpointReport, NeutralityViolation, QueryResult, QuerySpec};
use rvaas_hsa::{Cube, HeaderSpace, NetworkFunction, ReachabilityEngine};
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
    /// network function is built once and per-host traversals are memoised
    /// in a memo private to the session, so a batch of queries sharing
    /// source hosts costs one traversal per host instead of one per query.
    /// This is the from-scratch reference every service-plane test and
    /// benchmark compares against; the service plane itself never uses it.
    #[must_use]
    pub fn evaluator<'a>(&'a self, snapshot: &'a NetworkSnapshot) -> QueryEvaluator<'a> {
        let nf = Cow::Owned(self.function_for(snapshot));
        self.session(snapshot, nf, Memo::Private(TraversalMemo::new()))
    }

    /// Like [`LogicalVerifier::evaluator`], but borrows an externally
    /// maintained network function instead of rebuilding one from the
    /// snapshot; the traversal memo is still private to the session.
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
        let memo = Memo::Private(TraversalMemo::new());
        self.session(snapshot, Cow::Borrowed(nf), memo)
    }

    /// Like [`LogicalVerifier::evaluator_with`], but reads and writes its
    /// traversals through a [`TraversalMemo`] that outlives the session —
    /// the service plane's query path answers every batch this way, over
    /// the function the epoch store's one
    /// [`crate::incremental::IncrementalModel`] froze into the epoch and the
    /// memo that epoch carries, so a traversal is walked once per epoch, not
    /// once per batch.
    ///
    /// Beyond the contract of `evaluator_with`, the caller is responsible
    /// for every session sharing `memo` running over this very `nf` and this
    /// verifier's topology: the memo holds no notion of validity.
    #[must_use]
    pub fn evaluator_sharing<'a>(
        &'a self,
        snapshot: &'a NetworkSnapshot,
        nf: &'a NetworkFunction,
        memo: &'a TraversalMemo,
    ) -> QueryEvaluator<'a> {
        self.session(snapshot, Cow::Borrowed(nf), Memo::Shared(memo))
    }

    fn session<'a>(
        &'a self,
        snapshot: &'a NetworkSnapshot,
        nf: Cow<'a, NetworkFunction>,
        memo: Memo<'a>,
    ) -> QueryEvaluator<'a> {
        QueryEvaluator {
            verifier: self,
            snapshot,
            nf,
            memo,
            hits: 0,
            misses: 0,
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

/// What a memoised traversal is keyed by. All three kinds are pure functions
/// of the network function and the (static, trusted) topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TraversalKey {
    /// `reachable_from(host, emission_space(host))`: shared by destination,
    /// isolation and geo queries of the host's owner.
    Emission(HostId),
    /// "This source host can reach some access point of that client": shared
    /// by isolation and reaching-source queries.
    Source(HostId, ClientId),
    /// Path-length bounds from a client's hosts to a destination ip.
    Path(ClientId, u32),
}

/// What queries read from a traversal — not the [`ReachabilityResult`] with
/// its per-endpoint header spaces and paths.
///
/// [`ReachabilityResult`]: rvaas_hsa::ReachabilityResult
#[derive(Debug)]
enum Outcome {
    Emission {
        /// Distinct egress ports reached, ascending.
        ports: Vec<SwitchPort>,
        /// Switches on any path, ascending (what geo queries map to regions).
        traversed: Vec<SwitchId>,
    },
    Source {
        reaches: bool,
    },
    Path {
        min: u32,
        max: u32,
        reachable: bool,
    },
}

/// One memoised traversal: its outcome and the footprint behind it.
#[derive(Debug)]
struct Traversal {
    /// Every switch the traversal arrived at, ascending: the switches whose
    /// transfer functions it consulted.
    visited: Vec<SwitchId>,
    /// The engine's bounds cut a branch: the outcome may depend on anything.
    truncated: bool,
    outcome: Outcome,
}

/// The HSA traversals walked over **one** network function, shared by every
/// evaluation session that is handed the same memo.
///
/// An entry is a pure function of that network function and the static,
/// trusted topology, so the memo has no notion of validity and nothing in
/// it is ever invalidated: a different function gets a different memo (the
/// service plane keeps one inside each published epoch, where it lives and
/// dies with the function it describes).
///
/// There is one entry per key, and keys name hosts and clients of the
/// trusted topology only (a query about an unknown client or address walks
/// nothing and leaves nothing) — at most hosts + 2 × hosts × clients
/// entries, whatever the number of distinct queries.
#[derive(Debug, Default)]
pub struct TraversalMemo {
    entries: RwLock<BTreeMap<TraversalKey, Arc<Traversal>>>,
}

#[allow(clippy::len_without_is_empty)] // `len` exists for tests of the bound.
impl TraversalMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        TraversalMemo::default()
    }

    /// Number of traversals held (one per key).
    #[must_use]
    pub fn len(&self) -> usize {
        // Poisoning is recovered from, here and below: an insert is one map
        // operation, so an interrupted writer leaves the memo valid.
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        entries.len()
    }

    fn get(&self, key: TraversalKey) -> Option<Arc<Traversal>> {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        entries.get(&key).cloned()
    }

    /// Two sessions that raced on a key walked the same function: whichever
    /// insert lands last replaces an equal entry.
    fn put(&self, key: TraversalKey, traversal: Arc<Traversal>) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        entries.insert(key, traversal);
    }
}

/// The memo a session reads and writes its traversals through.
#[derive(Debug)]
enum Memo<'a> {
    /// The session's own: nothing is shared, nothing outlives it.
    Private(TraversalMemo),
    Shared(&'a TraversalMemo),
}

/// Union of the switches `traversals` visited — the switches a verdict read
/// from them depends on; unbounded as soon as one was truncated.
fn footprint_over<'t>(traversals: impl IntoIterator<Item = &'t Arc<Traversal>>) -> QueryFootprint {
    let mut switches = std::collections::BTreeSet::new();
    for traversal in traversals {
        if traversal.truncated {
            return QueryFootprint::unbounded();
        }
        switches.extend(traversal.visited.iter().copied());
    }
    QueryFootprint::bounded(switches)
}

/// A single-snapshot evaluation session.
///
/// Holds the HSA network function of one snapshot and memoises the expensive
/// traversals in a [`TraversalMemo`]: the emission-space reachability of each
/// source host (shared by destination, isolation and geo queries), the
/// per-source "can this host reach that client" verdicts (shared by isolation
/// and reaching-source queries) and per-destination path probes. A session
/// from [`LogicalVerifier::evaluator`] or [`LogicalVerifier::evaluator_with`]
/// owns a fresh memo — answering `n` queries that share hosts through it
/// performs each traversal once, and nothing is shared with any other
/// session; one from [`LogicalVerifier::evaluator_sharing`] goes through the
/// caller's memo, where a traversal may have been left by another session
/// over the same function. It is the same code either way.
///
/// Every entry keeps the traversal's [`visited`] switch set, so
/// [`answer_with_footprint`](Self::answer_with_footprint) can report which
/// switches a verdict depends on — the interest-space index uses this to
/// skip the query on changes elsewhere.
///
/// [`visited`]: rvaas_hsa::ReachabilityResult::visited
#[derive(Debug)]
pub struct QueryEvaluator<'a> {
    verifier: &'a LogicalVerifier,
    snapshot: &'a NetworkSnapshot,
    nf: Cow<'a, NetworkFunction>,
    memo: Memo<'a>,
    /// Traversal lookups the memo served.
    hits: u64,
    /// Traversals walked and left in the memo.
    misses: u64,
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

    /// Traversal lookups the memo served and traversals this session had to
    /// walk, as `(hits, misses)` since the session started.
    #[must_use]
    pub fn traversal_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The traversal of `key`: from the memo when it holds one, else walked
    /// now — under no lock — and left there.
    fn traversal(
        &mut self,
        key: TraversalKey,
        walk: impl FnOnce(&Self) -> Traversal,
    ) -> Arc<Traversal> {
        let memo = match &self.memo {
            Memo::Private(memo) => memo,
            Memo::Shared(memo) => *memo,
        };
        if let Some(held) = memo.get(key) {
            self.hits += 1;
            return held;
        }
        let walked = Arc::new(walk(self));
        // A walk that arrived at no switch injected nothing (an unknown
        // client, host or address): a constant of the trusted topology, free
        // to redo. Not keeping it keeps the memo's keys within the topology
        // whatever ids and addresses clients ask about.
        if !walked.visited.is_empty() {
            self.misses += 1;
            memo.put(key, Arc::clone(&walked));
        }
        walked
    }

    /// The memoised emission-space traversal of each of `client`'s hosts, as
    /// `(host ip, traversal)` in host order.
    fn emissions(&mut self, client: ClientId) -> Vec<(u32, Arc<Traversal>)> {
        let hosts: Vec<_> = self
            .topology()
            .hosts_of_client(client)
            .iter()
            .map(|h| (h.id, h.attachment, h.ip))
            .collect();
        let walk = |session: &Self, attachment: SwitchPort, ip: u32| {
            let engine = ReachabilityEngine::new(&session.nf);
            let result = engine.reachable_from(attachment, LogicalVerifier::emission_space(ip));
            Traversal {
                outcome: Outcome::Emission {
                    ports: result.reached_ports(),
                    traversed: result.traversed_switches(),
                },
                truncated: result.truncated_branches > 0,
                visited: result.visited,
            }
        };
        hosts
            .into_iter()
            .map(|(id, attachment, ip)| {
                let key = TraversalKey::Emission(id);
                (
                    ip,
                    self.traversal(key, |session| walk(session, attachment, ip)),
                )
            })
            .collect()
    }

    /// The endpoints the hosts behind `emissions` reach, themselves excluded.
    fn destinations(&self, emissions: &[(u32, Arc<Traversal>)]) -> Vec<EndpointReport> {
        let mut out: Vec<EndpointReport> = Vec::new();
        for (ip, emission) in emissions {
            let Outcome::Emission { ports, .. } = &emission.outcome else {
                unreachable!("keyed by kind");
            };
            for port in ports {
                if let Some(report) = self.endpoint_for_port(*port) {
                    if report.ip != *ip && !out.iter().any(|e| e.ip == report.ip) {
                        out.push(report);
                    }
                }
            }
        }
        out.sort_by_key(|e| e.ip);
        out
    }

    /// Destinations reachable from any of `client`'s access points.
    #[must_use]
    pub fn reachable_destinations(&mut self, client: ClientId) -> Vec<EndpointReport> {
        let emissions = self.emissions(client);
        self.destinations(&emissions)
    }

    /// The memoised probes of whether each foreign host can currently deliver
    /// traffic to any of `client`'s access points, as `(source, probe)` in
    /// host order.
    fn inbound_probes(&mut self, client: ClientId) -> Vec<(HostId, Arc<Traversal>)> {
        let ports: Vec<SwitchPort> = self.topology().access_points_of(client);
        let target_ips: Vec<u32> = self
            .topology()
            .hosts_of_client(client)
            .iter()
            .map(|h| h.ip)
            .collect();
        let sources: Vec<(HostId, u32, SwitchPort)> = self
            .topology()
            .hosts()
            .filter(|h| h.owner != client)
            .map(|h| (h.id, h.ip, h.attachment))
            .collect();
        let walk = |session: &Self, source_ip: u32, attachment: SwitchPort| {
            // Traffic the source can emit towards any of the client's hosts.
            let space = HeaderSpace::from_cubes(target_ips.iter().map(|ip| {
                Cube::wildcard()
                    .with_field(Field::IpSrc, u64::from(source_ip))
                    .with_field(Field::IpDst, u64::from(*ip))
            }));
            let engine = ReachabilityEngine::new(&session.nf);
            let result = engine.reachable_from(attachment, space);
            let reaches = result.reached_ports().iter().any(|p| ports.contains(p));
            Traversal {
                outcome: Outcome::Source { reaches },
                truncated: result.truncated_branches > 0,
                visited: result.visited,
            }
        };
        sources
            .into_iter()
            .map(|(source, ip, attachment)| {
                let key = TraversalKey::Source(source, client);
                let probe = self.traversal(key, |session| walk(session, ip, attachment));
                (source, probe)
            })
            .collect()
    }

    /// The sources among `probes` whose traffic reaches the probed client.
    fn sources(&self, probes: &[(HostId, Arc<Traversal>)]) -> Vec<EndpointReport> {
        let mut out: Vec<EndpointReport> = probes
            .iter()
            .filter(|(_, probe)| matches!(probe.outcome, Outcome::Source { reaches: true }))
            .filter_map(|(source, _)| self.topology().host(*source))
            .map(|source| EndpointReport {
                ip: source.ip,
                client: source.owner,
                authenticated: false,
            })
            .collect();
        out.sort_by_key(|e| e.ip);
        out
    }

    /// Sources whose traffic can currently reach any of `client`'s access
    /// points.
    #[must_use]
    pub fn reaching_sources(&mut self, client: ClientId) -> Vec<EndpointReport> {
        let probes = self.inbound_probes(client);
        self.sources(&probes)
    }

    /// The foreign endpoints among what `client` reaches and what reaches it.
    fn foreign_endpoints(
        client: ClientId,
        destinations: Vec<EndpointReport>,
        sources: Vec<EndpointReport>,
    ) -> (bool, Vec<EndpointReport>) {
        let mut foreign: Vec<EndpointReport> = destinations
            .into_iter()
            .filter(|e| e.client != client)
            .collect();
        for source in sources {
            if source.client != client && !foreign.iter().any(|e| e.ip == source.ip) {
                foreign.push(source);
            }
        }
        foreign.sort_by_key(|e| e.ip);
        (foreign.is_empty(), foreign)
    }

    /// The isolation check of paper Section IV-B1.
    #[must_use]
    pub fn isolation_check(&mut self, client: ClientId) -> (bool, Vec<EndpointReport>) {
        let destinations = self.reachable_destinations(client);
        let sources = self.reaching_sources(client);
        Self::foreign_endpoints(client, destinations, sources)
    }

    /// The regions of the switches the hosts behind `emissions` can traverse.
    fn regions(&self, emissions: &[(u32, Arc<Traversal>)]) -> Vec<String> {
        let mut regions: Vec<String> = Vec::new();
        for (_, emission) in emissions {
            let Outcome::Emission { traversed, .. } = &emission.outcome else {
                unreachable!("keyed by kind");
            };
            for switch in traversed {
                let region = self.verifier.config.locations.region_of(*switch);
                let label = region.label().to_string();
                if !regions.contains(&label) {
                    regions.push(label);
                }
            }
        }
        regions.sort();
        regions
    }

    /// The geo-location check of paper Section IV-B2.
    #[must_use]
    pub fn geo_regions(&mut self, client: ClientId) -> Vec<String> {
        let emissions = self.emissions(client);
        self.regions(&emissions)
    }

    /// The memoised path probe of `(client, to_ip)`.
    fn path_probe(&mut self, client: ClientId, to_ip: u32) -> Arc<Traversal> {
        self.traversal(TraversalKey::Path(client, to_ip), |session| {
            session.walk_path(client, to_ip)
        })
    }

    fn walk_path(&self, client: ClientId, to_ip: u32) -> Traversal {
        let engine = ReachabilityEngine::new(&self.nf);
        let Some(destination) = self.topology().host_by_ip(to_ip) else {
            // The destination comes from the trusted, static topology: an
            // unknown ip stays unknown whatever the rules do, so the verdict
            // depends on no switch at all.
            return Traversal {
                outcome: Outcome::Path {
                    min: 0,
                    max: 0,
                    reachable: false,
                },
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
        Traversal {
            outcome: Outcome::Path {
                min,
                max,
                reachable,
            },
            visited,
            truncated,
        }
    }

    /// Path-length bounds from `client`'s access points to the host owning
    /// `to_ip`. Returns `(min, max, reachable)`.
    #[must_use]
    pub fn path_length(&mut self, client: ClientId, to_ip: u32) -> (u32, u32, bool) {
        Self::path_bounds(&self.path_probe(client, to_ip))
    }

    fn path_bounds(probe: &Traversal) -> (u32, u32, bool) {
        let Outcome::Path {
            min,
            max,
            reachable,
        } = probe.outcome
        else {
            unreachable!("keyed by kind");
        };
        (min, max, reachable)
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
        self.answer_with_footprint(client, spec).0
    }

    /// The switch-level traversal footprint of `(client, spec)`: the set of
    /// switches whose rules the verdict depends on, or unbounded when a
    /// traversal hit the engine's bounds (the verdict may then depend on
    /// anything). Sound for the interest-space index: a rule change on a
    /// switch outside a bounded footprint cannot change the verdict, because
    /// absent rewrites the injected traffic never arrives there (and rewrites
    /// force conservative regions upstream).
    #[must_use]
    pub fn footprint_of(&mut self, client: ClientId, spec: &QuerySpec) -> QueryFootprint {
        self.answer_with_footprint(client, spec).1
    }

    /// The verdict of `(client, spec)` plus the traversal footprint behind
    /// it (see [`footprint_of`](Self::footprint_of)), both read from one
    /// lookup of each traversal — the service plane's entry point feeding the
    /// interest-space index.
    #[must_use]
    pub fn answer_with_footprint(
        &mut self,
        client: ClientId,
        spec: &QuerySpec,
    ) -> (QueryResult, QueryFootprint) {
        match spec {
            QuerySpec::ReachableDestinations => {
                let emissions = self.emissions(client);
                let endpoints = self.destinations(&emissions);
                let footprint = footprint_over(emissions.iter().map(|(_, t)| t));
                (QueryResult::Endpoints { endpoints }, footprint)
            }
            QuerySpec::ReachingSources => {
                let probes = self.inbound_probes(client);
                let sources = self.sources(&probes);
                let footprint = footprint_over(probes.iter().map(|(_, t)| t));
                (QueryResult::Sources { sources }, footprint)
            }
            QuerySpec::Isolation => {
                let emissions = self.emissions(client);
                let probes = self.inbound_probes(client);
                let (isolated, foreign_endpoints) = Self::foreign_endpoints(
                    client,
                    self.destinations(&emissions),
                    self.sources(&probes),
                );
                let read = emissions.iter().map(|(_, t)| t);
                let footprint = footprint_over(read.chain(probes.iter().map(|(_, t)| t)));
                let result = QueryResult::IsolationStatus {
                    isolated,
                    foreign_endpoints,
                };
                (result, footprint)
            }
            QuerySpec::GeoLocation => {
                let emissions = self.emissions(client);
                let regions = self.regions(&emissions);
                let footprint = footprint_over(emissions.iter().map(|(_, t)| t));
                (QueryResult::Regions { regions }, footprint)
            }
            QuerySpec::PathLength { to_ip } => {
                let probe = self.path_probe(client, *to_ip);
                let (min_hops, max_hops, reachable) = Self::path_bounds(&probe);
                let result = QueryResult::PathLength {
                    min_hops,
                    max_hops,
                    reachable,
                };
                (result, footprint_over([&probe]))
            }
            QuerySpec::Neutrality => {
                let (fair, violations) = self.neutrality_check(client);
                // Neutrality reads delivery rules on every access switch,
                // not header traversals.
                let footprint = QueryFootprint::bounded(
                    self.topology()
                        .hosts()
                        .map(|h| h.attachment.switch)
                        .collect(),
                );
                (QueryResult::Neutrality { fair, violations }, footprint)
            }
        }
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
    fn use_history_detects_recently_removed_rules() {
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

    // --- The traversal memo ------------------------------------------------
    //
    // `line(4, 2)`: client 1 owns hosts 1 and 3, client 2 hosts 2 and 4, one
    // host per switch.

    /// One epoch as the service plane holds it: the snapshot, the function
    /// frozen from it, and the memo of that function's traversals.
    struct Epoch {
        snapshot: NetworkSnapshot,
        function: NetworkFunction,
        memo: TraversalMemo,
    }

    impl Epoch {
        fn new(topology: &Topology, attacks: &[Attack]) -> Self {
            let snapshot = snapshot_with(topology, attacks);
            let function = snapshot.to_network_function(topology);
            Epoch {
                snapshot,
                function,
                memo: TraversalMemo::new(),
            }
        }

        fn session<'a>(&'a self, verifier: &'a LogicalVerifier) -> QueryEvaluator<'a> {
            verifier.evaluator_sharing(&self.snapshot, &self.function, &self.memo)
        }
    }

    #[test]
    fn sessions_sharing_a_memo_walk_each_traversal_once() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let epoch = Epoch::new(&topo, &[]);
        // A fresh session per call, as the service plane starts one per batch.
        let destinations = |client: u32| {
            let mut session = epoch.session(&v);
            let served = session.reachable_destinations(ClientId(client));
            let fresh = v.reachable_destinations(&epoch.snapshot, ClientId(client));
            assert_eq!(served, fresh, "client {client}");
            session.traversal_counts()
        };
        assert_eq!(destinations(1), (0, 2), "one walk per host of client 1");
        assert_eq!(destinations(2), (0, 2), "hosts are not shared by clients");
        assert_eq!(destinations(1), (2, 0), "the next session walks nothing");
        assert_eq!(epoch.memo.len(), 4);

        // Another query kind of the same client reads the same emissions and
        // adds its two source probes; asking again adds nothing.
        for counts in [(2, 2), (4, 0)] {
            let mut session = epoch.session(&v);
            let served = session.isolation_check(ClientId(1));
            assert_eq!(served, v.isolation_check(&epoch.snapshot, ClientId(1)));
            assert_eq!(session.traversal_counts(), counts);
        }
        assert_eq!(epoch.memo.len(), 6);
    }

    #[test]
    fn a_verdict_and_its_footprint_cost_one_lookup_per_traversal() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let epoch = Epoch::new(&topo, &[]);
        let h3_ip = topo.host(HostId(3)).unwrap().ip;
        let mut fresh = v.evaluator(&epoch.snapshot);
        let mut ask = |spec: QuerySpec| {
            let mut session = epoch.session(&v);
            let served = session.answer_with_footprint(ClientId(1), &spec);
            assert_eq!(served, fresh.answer_with_footprint(ClientId(1), &spec));
            session.traversal_counts()
        };
        // The emissions of client 1's two hosts and the probes from the two
        // foreign ones, each looked up once for verdict and footprint both.
        assert_eq!(ask(QuerySpec::Isolation), (0, 4));
        assert_eq!(ask(QuerySpec::Isolation), (4, 0));
        assert_eq!(ask(QuerySpec::ReachableDestinations), (2, 0));
        assert_eq!(ask(QuerySpec::ReachingSources), (2, 0));
        assert_eq!(ask(QuerySpec::GeoLocation), (2, 0));
        assert_eq!(ask(QuerySpec::PathLength { to_ip: h3_ip }), (0, 1));
        assert_eq!(ask(QuerySpec::Neutrality), (0, 0), "reads tables, no walk");
    }

    #[test]
    fn a_truncated_traversal_is_reused_and_keeps_its_unbounded_footprint() {
        // 66 switches in a line, one client: the walk from host 1 toward
        // host 66 runs into the engine's 64-hop bound, the walks toward host
        // 33 do not.
        let topo = generators::line(66, 1);
        let v = verifier(&topo);
        let epoch = Epoch::new(&topo, &[]);
        let probe = |host| {
            let mut session = epoch.session(&v);
            let to_ip = topo.host(host).unwrap().ip;
            let spec = QuerySpec::PathLength { to_ip };
            let (served, footprint) = session.answer_with_footprint(ClientId(1), &spec);
            assert_eq!(served, v.answer(&epoch.snapshot, ClientId(1), &spec));
            (footprint.switches.is_some(), session.traversal_counts())
        };
        assert_eq!(probe(HostId(66)), (false, (0, 1)), "truncated: unbounded");
        assert_eq!(probe(HostId(33)), (true, (0, 1)));
        assert_eq!(probe(HostId(66)), (false, (1, 0)), "reused as it is");
    }

    #[test]
    fn queries_about_unknown_clients_and_addresses_leave_nothing_in_the_memo() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let epoch = Epoch::new(&topo, &[]);
        let mut session = epoch.session(&v);
        let (stranger, nowhere) = (ClientId(99), 0xdead_beef);
        let known_ip = topo.host(HostId(3)).unwrap().ip;
        let asked = [
            (stranger, QuerySpec::ReachableDestinations),
            (stranger, QuerySpec::ReachingSources),
            (stranger, QuerySpec::Isolation),
            (stranger, QuerySpec::GeoLocation),
            (stranger, QuerySpec::PathLength { to_ip: known_ip }),
            (stranger, QuerySpec::Neutrality),
            (ClientId(1), QuerySpec::PathLength { to_ip: nowhere }),
        ];
        for (client, spec) in asked {
            let (served, footprint) = session.answer_with_footprint(client, &spec);
            assert_eq!(served, v.answer(&epoch.snapshot, client, &spec), "{spec:?}");
            assert!(footprint.switches.is_some(), "{spec:?}: bounded");
        }
        assert_eq!(session.traversal_counts(), (0, 0), "nothing to walk");
        assert_eq!(epoch.memo.len(), 0, "keys stay within the topology");
    }

    #[test]
    fn sessions_with_a_private_memo_share_nothing() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let snap = snapshot_with(&topo, &[]);
        let function = snap.to_network_function(&topo);
        for _ in 0..2 {
            let mut rebuilt = v.evaluator(&snap);
            let mut borrowed = v.evaluator_with(&snap, &function);
            for session in [&mut rebuilt, &mut borrowed] {
                let _ = session.isolation_check(ClientId(1));
                // 2 emission + 2 source walks, whoever asked before.
                assert_eq!(session.traversal_counts(), (0, 4));
                let _ = session.reaching_sources(ClientId(1));
                assert_eq!(session.traversal_counts(), (2, 4), "shared within");
            }
        }
    }
}
