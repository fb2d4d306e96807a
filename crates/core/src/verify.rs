//! Logical verification: answering client queries from the snapshot.
//!
//! The [`LogicalVerifier`] combines the trusted deployment knowledge (the
//! topology / wiring plan, the host-to-client registry, switch locations)
//! with the monitor's [`NetworkSnapshot`] and answers the query types of the
//! paper's case studies: reachable destinations, reaching sources, isolation
//! checks, geo-location checks, path lengths and network-neutrality checks.
//!
//! There is one way to ask for a verdict: a [`QuerySpec`] handed to
//! [`QueryEvaluator::answer`], the only dispatch, and
//! [`LogicalVerifier::answer`] the same over a fresh evaluator.
//! ([`QueryEvaluator::answer_with_footprint`] adds the switches the verdict
//! depends on, for the `benchmark/` ladder only.)
//!
//! Which verdicts a rule change may have moved is [`crate::memo`]'s
//! question, asked of the memo an evaluator walks through.
//!
//! Confidentiality: the verifier only ever reports *endpoints*, *regions* and
//! *hop counts* to clients — never switch identities or paths — preserving
//! the provider's topology confidentiality as required by the paper.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rvaas_client::{EndpointReport, NeutralityViolation, QueryResult, QuerySpec};
use rvaas_hsa::{Cube, HeaderSpace, NetworkFunction, ReachabilityEngine};
use rvaas_openflow::Action;
use rvaas_topology::{Host, Topology};
use rvaas_types::{ClientId, Field, HostId, PortId, Region, SwitchId, SwitchPort};

use crate::memo::{Outcome, Traversal, TraversalMemo, VerdictKey};
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

    /// Traffic from `src` to `dst`: one cube of a source or path probe.
    fn probe_cube(src: u32, dst: u32) -> Cube {
        Cube::wildcard()
            .with_field(Field::IpSrc, u64::from(src))
            .with_field(Field::IpDst, u64::from(dst))
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
    /// the service plane answers every batch this way, on the function and
    /// the memo of one epoch, so a traversal is walked once per epoch.
    ///
    /// Beyond the contract of `evaluator_with`, the caller is responsible
    /// for every session sharing `memo` running over this very `nf` and this
    /// verifier's topology: an entry is not checked against the function it
    /// is read on. Only `carry` moves entries to another function, and only
    /// those its changed region shows to be unaltered.
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
            metered: None,
            hits: 0,
            misses: 0,
            #[cfg(test)]
            read: BTreeSet::new(),
        }
    }

    /// The verdict of `(client, spec)` over a fresh
    /// [`evaluator`](Self::evaluator): [`QueryEvaluator::answer`] for a
    /// one-off question (endpoints are not yet authenticated at this stage).
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

/// Every client's host addresses and access points, by client: what an
/// `Inbound` walk probes.
type Targets = BTreeMap<ClientId, (Vec<u32>, Vec<SwitchPort>)>;

fn targets_of(topology: &Topology) -> Targets {
    let mut targets = Targets::new();
    for host in topology.hosts() {
        let (ips, ports) = targets.entry(host.owner).or_default();
        ips.push(host.ip);
        ports.push(host.attachment);
    }
    targets
}

/// The memo a session reads and writes its traversals through.
#[derive(Debug)]
enum Memo<'a> {
    /// The session's own: nothing is shared, nothing outlives it.
    Private(TraversalMemo),
    Shared(&'a TraversalMemo),
}

/// The switch-level traversal footprint of one evaluated query: the switches
/// whose rules the verdict depends on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryFootprint {
    /// `Some(switches)` when every traversal behind the verdict completed
    /// within the engine's bounds; `None` when a traversal was truncated (the
    /// verdict may depend on anything) or no footprint was captured.
    pub switches: Option<BTreeSet<SwitchId>>,
}

impl QueryFootprint {
    /// A footprint bounded to `switches`.
    #[must_use]
    pub fn bounded(switches: BTreeSet<SwitchId>) -> Self {
        QueryFootprint {
            switches: Some(switches),
        }
    }

    /// The unbounded footprint (depends on everything).
    #[must_use]
    pub fn unbounded() -> Self {
        QueryFootprint { switches: None }
    }
}

/// The traversals of `read`, without what they were read for.
fn walks<K>(read: Vec<(K, Arc<Traversal>)>) -> impl Iterator<Item = Arc<Traversal>> {
    read.into_iter().map(|(_, traversal)| traversal)
}

/// Union of the switches `traversals` visited — the switches a verdict read
/// from them depends on; unbounded as soon as one was truncated.
fn footprint_over<'t>(traversals: impl IntoIterator<Item = &'t Arc<Traversal>>) -> QueryFootprint {
    let mut switches = BTreeSet::new();
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
/// A verdict is asked for one way only: [`answer`](Self::answer)
/// dispatches a [`QuerySpec`].
///
/// The session holds the HSA network function of one snapshot and memoises
/// the expensive traversals in a [`TraversalMemo`], one entry per
/// [`VerdictKey`] its verdicts read (a host's inbound walk fills one per
/// client but its owner). Which clients' delivery rules carry a meter,
/// what neutrality verdicts read, is worked out once per session. A
/// session from [`LogicalVerifier::evaluator`] or
/// [`LogicalVerifier::evaluator_with`] owns a fresh memo — answering `n`
/// queries that share hosts through it performs each traversal once, and
/// nothing is shared with any other session; one from
/// [`LogicalVerifier::evaluator_sharing`] goes through the caller's memo,
/// where a traversal may have been left by another session over the same
/// function. It is the same code either way.
#[derive(Debug)]
pub struct QueryEvaluator<'a> {
    verifier: &'a LogicalVerifier,
    snapshot: &'a NetworkSnapshot,
    nf: Cow<'a, NetworkFunction>,
    memo: Memo<'a>,
    /// Whether any delivery rule towards each client's hosts applies a
    /// meter, by client: built by the session's first neutrality query.
    metered: Option<BTreeMap<ClientId, bool>>,
    /// Traversal lookups the memo served.
    hits: u64,
    /// Walks taken and left in the memo (one walk may fill several keys).
    misses: u64,
    /// Every key a verdict of this session read, for the tests that hold
    /// [`AffectedQueries::is_affected`](crate::AffectedQueries::is_affected)
    /// to what verdicts read.
    #[cfg(test)]
    read: BTreeSet<VerdictKey>,
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

    fn memo(&self) -> &TraversalMemo {
        match &self.memo {
            Memo::Private(memo) => memo,
            Memo::Shared(memo) => memo,
        }
    }

    /// The traversal of `key`: from the memo when it holds one, else walked
    /// now — under no lock — and left there with every other key the same
    /// walk filled, all under one lock. `walk` returns `key`'s traversal
    /// among the ones it filled.
    fn traversal(
        &mut self,
        key: VerdictKey,
        walk: impl FnOnce(&Self) -> Vec<(VerdictKey, Traversal)>,
    ) -> Arc<Traversal> {
        #[cfg(test)]
        self.read.insert(key);
        if let Some(held) = self.memo().get(key) {
            self.hits += 1;
            return held;
        }
        let walked: Vec<_> = walk(self)
            .into_iter()
            .map(|(filled, traversal)| (filled, Arc::new(traversal)))
            .collect();
        let asked = walked.iter().find(|(filled, _)| *filled == key);
        let asked = Arc::clone(&asked.expect("a walk fills the key it is asked for").1);
        // A traversal that arrived at no switch injected nothing (an unknown
        // client, host or address): a constant of the trusted topology, free
        // to redo. Not keeping it keeps the memo's keys within the topology
        // whatever ids and addresses clients ask about.
        let kept: Vec<_> = walked
            .into_iter()
            .filter(|(_, traversal)| !traversal.visited.is_empty())
            .collect();
        if !kept.is_empty() {
            self.misses += 1;
            self.memo().put(kept);
        }
        asked
    }

    /// The memoised emission-space traversal of each of `client`'s hosts, as
    /// `(host ip, traversal)` in host order.
    fn emissions(&mut self, client: ClientId) -> Vec<(u32, Arc<Traversal>)> {
        let hosts: Vec<_> = self
            .topology()
            .hosts_of_client(client)
            .iter()
            .map(|h| (VerdictKey::Emission(client, h.id), h.attachment, h.ip))
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
            .map(|(key, attachment, ip)| {
                let emission =
                    self.traversal(key, |session| vec![(key, walk(session, attachment, ip))]);
                (ip, emission)
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

    /// The memoised probes of whether each foreign host can currently deliver
    /// traffic to any of `client`'s access points, as `(source, probe)` in
    /// host order: each `client`'s share of the source's inbound walk. A
    /// client without hosts is reached by nobody, and nothing is walked for
    /// it.
    fn inbound_probes(&mut self, client: ClientId) -> Vec<(HostId, Arc<Traversal>)> {
        let topology = &self.verifier.topology;
        if !topology.hosts().any(|h| h.owner == client) {
            return Vec::new();
        }
        // Grouped once, by the first walk this query needs.
        let targets = OnceCell::new();
        topology
            .hosts()
            .filter(|h| h.owner != client)
            .map(|source| {
                let key = VerdictKey::Inbound(client, source.id);
                let probe = self.traversal(key, |session| {
                    let targets = targets.get_or_init(|| targets_of(topology));
                    session.walk_inbound(source, key, targets)
                });
                (source.id, probe)
            })
            .collect()
    }

    /// One walk from `source` with one label per client of `targets` but
    /// its owner whose share the memo does not hold, or which is `asked`
    /// (held or not: the walk must return it): the traffic `source` can emit
    /// towards that client's hosts. Each label's share is whether it leaves
    /// at one of that client's access points.
    fn walk_inbound(
        &self,
        source: &Host,
        asked: VerdictKey,
        targets: &Targets,
    ) -> Vec<(VerdictKey, Traversal)> {
        let labels = self.memo().to_walk(
            asked,
            targets
                .iter()
                .filter(|(client, _)| **client != source.owner)
                .map(|(client, target)| (VerdictKey::Inbound(*client, source.id), target)),
        );
        let spaces = labels.iter().map(|(_, (ips, _))| {
            ips.iter()
                .map(|ip| LogicalVerifier::probe_cube(source.ip, *ip))
                .collect::<HeaderSpace>()
        });
        let engine = ReachabilityEngine::new(&self.nf);
        let results = engine.reachable_from_each(source.attachment, spaces);
        labels
            .into_iter()
            .zip(results)
            .map(|((key, (_, ports)), result)| {
                let reaches = result.reached_ports().iter().any(|p| ports.contains(p));
                let share = Traversal {
                    outcome: Outcome::Source { reaches },
                    truncated: result.truncated_branches > 0,
                    visited: result.visited,
                };
                (key, share)
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

    /// The memoised path probe of `(client, to_ip)`.
    fn path_probe(&mut self, client: ClientId, to_ip: u32) -> Arc<Traversal> {
        let key = VerdictKey::Path(client, to_ip);
        self.traversal(key, |session| vec![(key, session.walk_path(client, to_ip))])
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
            let space = HeaderSpace::from(LogicalVerifier::probe_cube(host.ip, to_ip));
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

    /// Whether any delivery rule towards each client's hosts applies a
    /// meter, by client (every owner of a host is a key): one pass over
    /// each access switch's table, looking for metered entries that output
    /// on a host's attachment port.
    fn metering(topology: &Topology, snapshot: &NetworkSnapshot) -> BTreeMap<ClientId, bool> {
        let mut metered = BTreeMap::new();
        let mut attached: BTreeMap<SwitchId, Vec<(PortId, ClientId)>> = BTreeMap::new();
        for host in topology.hosts() {
            metered.insert(host.owner, false);
            let at = attached.entry(host.attachment.switch).or_default();
            at.push((host.attachment.port, host.owner));
        }
        for (switch, hosts) in attached {
            for entry in snapshot.table_of(switch) {
                if !entry.actions.iter().any(|a| matches!(a, Action::Meter(_))) {
                    continue;
                }
                for (port, owner) in &hosts {
                    let delivers = entry
                        .actions
                        .iter()
                        .any(|a| matches!(a, Action::Output(p) if p == port));
                    if delivers {
                        metered.insert(*owner, true);
                    }
                }
            }
        }
        metered
    }

    /// Network-neutrality check over the evaluator's snapshot: reports
    /// clients whose delivery rules carry a meter while at least one other
    /// client's delivery is unmetered.
    fn neutrality_check(&mut self, client: ClientId) -> (bool, Vec<NeutralityViolation>) {
        #[cfg(test)]
        self.read.insert(VerdictKey::Tables);
        let (topology, snapshot) = (&self.verifier.topology, self.snapshot);
        let metered = self
            .metered
            .get_or_insert_with(|| Self::metering(topology, snapshot));
        let victim_metered = metered.get(&client).copied().unwrap_or(false);
        let mut violations = Vec::new();
        if victim_metered {
            for (other, is_metered) in metered.iter() {
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

    /// The verdict of `(client, spec)` (endpoints are not yet authenticated
    /// at this stage): the one verdict dispatch.
    #[must_use]
    pub fn answer(&mut self, client: ClientId, spec: &QuerySpec) -> QueryResult {
        self.dispatch(client, spec).0
    }

    /// The verdict of [`answer`](Self::answer) plus the switches it depends
    /// on: the union of what the traversals behind it visited, unbounded
    /// when one was cut by the engine's cube budget, and the access
    /// switches for neutrality, which reads their tables. Absent rewrites
    /// the injected traffic never arrives outside it, so a rule change there
    /// cannot change the verdict.
    ///
    /// Nothing in the workspace reads a footprint any more (a publish reads
    /// the verdicts it changed off the memo carry's keys, see
    /// [`crate::AffectedQueries`]); this survives only because the stand-alone
    /// `benchmark/` ladder times it, and goes with its next re-baseline.
    #[must_use]
    pub fn answer_with_footprint(
        &mut self,
        client: ClientId,
        spec: &QuerySpec,
    ) -> (QueryResult, QueryFootprint) {
        let (result, read) = self.dispatch(client, spec);
        let footprint = match spec {
            QuerySpec::Neutrality => QueryFootprint::bounded(
                self.topology()
                    .hosts()
                    .map(|h| h.attachment.switch)
                    .collect(),
            ),
            _ => footprint_over(&read),
        };
        (result, footprint)
    }

    /// The verdict of `(client, spec)` and the traversals it was read from.
    fn dispatch(
        &mut self,
        client: ClientId,
        spec: &QuerySpec,
    ) -> (QueryResult, Vec<Arc<Traversal>>) {
        match spec {
            QuerySpec::ReachableDestinations => {
                let emissions = self.emissions(client);
                let endpoints = self.destinations(&emissions);
                let read = walks(emissions).collect();
                (QueryResult::Endpoints { endpoints }, read)
            }
            QuerySpec::ReachingSources => {
                let probes = self.inbound_probes(client);
                let sources = self.sources(&probes);
                (QueryResult::Sources { sources }, walks(probes).collect())
            }
            QuerySpec::Isolation => {
                let emissions = self.emissions(client);
                let probes = self.inbound_probes(client);
                let (isolated, foreign_endpoints) = Self::foreign_endpoints(
                    client,
                    self.destinations(&emissions),
                    self.sources(&probes),
                );
                let result = QueryResult::IsolationStatus {
                    isolated,
                    foreign_endpoints,
                };
                (result, walks(emissions).chain(walks(probes)).collect())
            }
            QuerySpec::GeoLocation => {
                let emissions = self.emissions(client);
                let regions = self.regions(&emissions);
                (QueryResult::Regions { regions }, walks(emissions).collect())
            }
            QuerySpec::PathLength { to_ip } => {
                let probe = self.path_probe(client, *to_ip);
                let (min_hops, max_hops, reachable) = Self::path_bounds(&probe);
                let result = QueryResult::PathLength {
                    min_hops,
                    max_hops,
                    reachable,
                };
                (result, vec![probe])
            }
            QuerySpec::Neutrality => {
                let (fair, violations) = self.neutrality_check(client);
                (QueryResult::Neutrality { fair, violations }, Vec::new())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::ChangedRegion;
    use crate::memo::AffectedQueries;
    use rvaas_controlplane::{benign_rules, Attack};
    use rvaas_openflow::{FlowModCommand, Message};
    use rvaas_topology::generators;
    use rvaas_types::{GeoPoint, HostId, PortId, SimTime};

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

    fn destinations(
        v: &LogicalVerifier,
        snap: &NetworkSnapshot,
        client: u32,
    ) -> Vec<EndpointReport> {
        let spec = QuerySpec::ReachableDestinations;
        let QueryResult::Endpoints { endpoints } = v.answer(snap, ClientId(client), &spec) else {
            unreachable!("keyed by kind");
        };
        endpoints
    }

    fn isolation(
        v: &LogicalVerifier,
        snap: &NetworkSnapshot,
        client: u32,
    ) -> (bool, Vec<EndpointReport>) {
        let QueryResult::IsolationStatus {
            isolated,
            foreign_endpoints,
        } = v.answer(snap, ClientId(client), &QuerySpec::Isolation)
        else {
            unreachable!("keyed by kind");
        };
        (isolated, foreign_endpoints)
    }

    fn regions(v: &LogicalVerifier, snap: &NetworkSnapshot, client: u32) -> Vec<String> {
        let spec = QuerySpec::GeoLocation;
        let QueryResult::Regions { regions } = v.answer(snap, ClientId(client), &spec) else {
            unreachable!("keyed by kind");
        };
        regions
    }

    fn neutrality(
        v: &LogicalVerifier,
        snap: &NetworkSnapshot,
        client: u32,
    ) -> (bool, Vec<NeutralityViolation>) {
        let spec = QuerySpec::Neutrality;
        let QueryResult::Neutrality { fair, violations } = v.answer(snap, ClientId(client), &spec)
        else {
            unreachable!("keyed by kind");
        };
        (fair, violations)
    }

    #[test]
    fn benign_network_is_isolated_and_reaches_only_own_hosts() {
        let topo = generators::line(4, 2);
        let snap = snapshot_with(&topo, &[]);
        let v = verifier(&topo);
        // Client 1 owns hosts 1 and 3; each host reaches the other, so both
        // appear in the union over the client's access points.
        let dests = destinations(&v, &snap, 1);
        assert_eq!(dests.len(), 2);
        assert!(dests.iter().all(|e| e.client == ClientId(1)));
        let (isolated, foreign) = isolation(&v, &snap, 1);
        assert!(isolated);
        assert!(foreign.is_empty());
        let sources = v.answer(&snap, ClientId(1), &QuerySpec::ReachingSources);
        assert_eq!(
            sources,
            QueryResult::Sources { sources: vec![] },
            "no foreign host may reach client 1"
        );
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
        let (isolated, foreign) = isolation(&v, &snap, 1);
        assert!(!isolated);
        let h2_ip = topo.host(HostId(2)).unwrap().ip;
        assert!(foreign
            .iter()
            .any(|e| e.ip == h2_ip && e.client == ClientId(2)));
        // The attacker also sees the victim among its reachable destinations.
        let dests = destinations(&v, &snap, 2);
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
        let dests = destinations(&v, &snap, 1);
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
        let benign_regions = regions(&v, &benign_snap, 1);
        let attack = Attack::GeoDivert {
            from_host: HostId(1),
            to_host: HostId(2),
            via_region: Region::new("LATAM"),
        };
        let attacked_snap = snapshot_with(&topo, &[attack]);
        let attacked_regions = regions(&v, &attacked_snap, 1);
        assert!(attacked_regions.contains(&"LATAM".to_string()));
        assert!(attacked_regions.len() >= benign_regions.len());
    }

    #[test]
    fn geo_regions_with_unknown_locations() {
        let topo = generators::line(3, 1);
        let snap = snapshot_with(&topo, &[]);
        let v = LogicalVerifier::new(
            topo.clone(),
            VerifierConfig {
                use_history: false,
                locations: LocationMap::new(),
            },
        );
        assert_eq!(regions(&v, &snap, 1), vec!["UNKNOWN".to_string()]);
        assert_eq!(v.config.locations.known_count(), 0);
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
        let spec = QuerySpec::PathLength { to_ip: h5_ip };
        let QueryResult::PathLength {
            min_hops: min,
            max_hops: max,
            reachable,
        } = v.answer(&snap, ClientId(1), &spec)
        else {
            unreachable!("keyed by kind");
        };
        assert!(reachable);
        assert!((1..=2).contains(&min), "min = {min}");
        assert_eq!(max, 5);
        // Unknown destination.
        let spec = QuerySpec::PathLength { to_ip: 0xdead_beef };
        assert_eq!(
            v.answer(&snap, ClientId(1), &spec),
            QueryResult::PathLength {
                min_hops: 0,
                max_hops: 0,
                reachable: false
            }
        );
    }

    #[test]
    fn blackhole_removes_destination_from_reachability() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let h3_ip = topo.host(HostId(3)).unwrap().ip;
        let benign_snap = snapshot_with(&topo, &[]);
        assert!(destinations(&v, &benign_snap, 1)
            .iter()
            .any(|e| e.ip == h3_ip));
        let snap = snapshot_with(
            &topo,
            &[Attack::Blackhole {
                victim_host: HostId(3),
            }],
        );
        assert!(!destinations(&v, &snap, 1).iter().any(|e| e.ip == h3_ip));
    }

    #[test]
    fn neutrality_violation_is_detected() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let benign_snap = snapshot_with(&topo, &[]);
        let (fair, violations) = neutrality(&v, &benign_snap, 1);
        assert!(fair);
        assert!(violations.is_empty());

        let snap = snapshot_with(
            &topo,
            &[Attack::Throttle {
                victim_client: ClientId(1),
                rate_kbps: 64,
            }],
        );
        let (fair, violations) = neutrality(&v, &snap, 1);
        assert!(!fair);
        assert!(violations.iter().any(|viol| viol.favoured == ClientId(2)));
        // The favoured client sees no violation against itself.
        let (fair2, _) = neutrality(&v, &snap, 2);
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
        let (isolated_now, _) = isolation(&verifier(&topo), &snap, 1);
        assert!(isolated_now, "current view looks clean");
        let historic = LogicalVerifier::new(
            topo.clone(),
            VerifierConfig {
                use_history: true,
                locations: LocationMap::disclosed(&topo),
            },
        );
        let (isolated_hist, foreign) = isolation(&historic, &snap, 1);
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
        let (_, isolation) = eval.answer_with_footprint(ClientId(1), &QuerySpec::Isolation);
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
    // host per switch. With two clients every inbound walk probes one
    // client and fills one key, so on it keys and walks count alike.

    /// One epoch as the service plane holds it: the snapshot, the function
    /// frozen from it, and the memo of that function's traversals.
    struct Epoch {
        snapshot: NetworkSnapshot,
        function: NetworkFunction,
        memo: TraversalMemo,
    }

    impl Epoch {
        fn new(topology: &Topology, attacks: &[Attack]) -> Self {
            Epoch::of(topology, snapshot_with(topology, attacks))
        }

        fn of(topology: &Topology, snapshot: NetworkSnapshot) -> Self {
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
            let spec = QuerySpec::ReachableDestinations;
            let served = session.answer(ClientId(client), &spec);
            let fresh = v.answer(&epoch.snapshot, ClientId(client), &spec);
            assert_eq!(served, fresh, "client {client}");
            session.traversal_counts()
        };
        assert_eq!(destinations(1), (0, 2), "one walk per host of client 1");
        assert_eq!(destinations(2), (0, 2), "hosts are not shared by clients");
        assert_eq!(destinations(1), (2, 0), "the next session walks nothing");
        // One emission key per host: 4.
        assert_eq!(epoch.memo.len(), 4);

        // Another query kind of the same client reads the same emissions and
        // adds the inbound walks of the two foreign hosts; asking again adds
        // nothing. Each of those walks probes the one client its host does
        // not belong to, so fills one key: 4 + 2.
        for counts in [(2, 2), (4, 0)] {
            let mut session = epoch.session(&v);
            let served = session.answer(ClientId(1), &QuerySpec::Isolation);
            let fresh = v.answer(&epoch.snapshot, ClientId(1), &QuerySpec::Isolation);
            assert_eq!(served, fresh);
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
        // One switch carrying 4 097 hosts of client 1 and one of client 2, no
        // rules installed. Client 1's sources are read off the client-2
        // host's inbound walk, whose one label (client 1's) holds one cube
        // per client-1 address, one over the engine's cube budget, so that
        // walk is cut at injection; client 2's one-cube emission walk is
        // not.
        let mut topo = Topology::new();
        let here = GeoPoint::new(0.0, 0.0, Region::new("here"));
        topo.add_switch(SwitchId(1), 4098, here.clone());
        for n in 1..=4098u32 {
            let owner = ClientId(if n == 4098 { 2 } else { 1 });
            let port = SwitchPort::new(SwitchId(1), PortId(n));
            topo.add_host(HostId(n), 0x0a00_0000 + n, port, owner, here.clone())
                .unwrap();
        }
        let v = verifier(&topo);
        let epoch = Epoch::of(&topo, NetworkSnapshot::new(SimTime::from_secs(1)));
        let ask = |client, spec: &QuerySpec| {
            let mut session = epoch.session(&v);
            let (_, footprint) = session.answer_with_footprint(ClientId(client), spec);
            (footprint.switches.is_some(), session.traversal_counts())
        };
        let (sources, destinations) =
            (QuerySpec::ReachingSources, QuerySpec::ReachableDestinations);
        assert_eq!(ask(1, &sources), (false, (0, 1)), "truncated: unbounded");
        assert_eq!(ask(2, &destinations), (true, (0, 1)));
        assert_eq!(ask(1, &sources), (false, (1, 0)), "reused as it is");
    }

    #[test]
    fn a_path_longer_than_64_switches_is_in_the_verdict() {
        // `line(128, 64)`: client 1 owns host 1 on switch 1 and host 65 on
        // switch 65, 65 switches apart.
        let topo = generators::line(128, 64);
        let snap = snapshot_with(&topo, &[]);
        let v = verifier(&topo);
        let (near, far) = (topo.host(HostId(1)).unwrap().ip, 167_772_225);
        assert_eq!(topo.host(HostId(65)).unwrap().ip, far);
        let ips: Vec<u32> = destinations(&v, &snap, 1).iter().map(|e| e.ip).collect();
        assert_eq!(ips, [near, far]);
        assert_eq!(
            v.answer(&snap, ClientId(1), &QuerySpec::PathLength { to_ip: far }),
            QueryResult::PathLength {
                min_hops: 65,
                max_hops: 65,
                reachable: true
            }
        );
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

    // --- Carrying a memo into the next epoch -------------------------------

    /// Epochs the way the epoch store publishes them: one model advanced by
    /// each change list and frozen into the epoch, whose memo is carried
    /// from its predecessor's.
    struct Chain {
        topology: Topology,
        model: crate::incremental::IncrementalModel,
        epoch: Epoch,
        /// The verdict keys the last advance's carry found altered.
        affected: AffectedQueries,
    }

    impl Chain {
        fn new(topology: &Topology, snapshot: NetworkSnapshot) -> Self {
            let model =
                crate::incremental::IncrementalModel::from_snapshot(topology.clone(), &snapshot);
            let epoch = Epoch {
                function: model.network_function().clone(),
                snapshot,
                memo: TraversalMemo::new(),
            };
            Chain {
                topology: topology.clone(),
                model,
                epoch,
                affected: AffectedQueries::default(),
            }
        }

        /// Publishes `changes`; returns the superseded epoch and how many of
        /// its traversals the carry dropped, and keeps the keys it found
        /// altered in `affected`.
        fn advance(&mut self, changes: &[crate::RuleChange]) -> (Epoch, usize) {
            let mut snapshot = self.epoch.snapshot.clone();
            let changes = snapshot.apply_changes(changes, SimTime::from_millis(3));
            let region = self.model.apply(&changes);
            let carried = self.epoch.memo.carry(&region, &self.topology);
            self.affected = carried.affected;
            let next = Epoch {
                snapshot,
                function: self.model.network_function().clone(),
                memo: carried.memo,
            };
            (std::mem::replace(&mut self.epoch, next), carried.dropped)
        }

        /// Asks every query of `clients` on the current epoch, checking each
        /// verdict against a fresh evaluator; returns the walks it took.
        fn ask(&self, v: &LogicalVerifier, clients: &[u32], specs: &[QuerySpec]) -> u64 {
            let mut session = self.epoch.session(v);
            let mut fresh = v.evaluator(&self.epoch.snapshot);
            for client in clients {
                for spec in specs {
                    let served = session.answer(ClientId(*client), spec);
                    assert_eq!(served, fresh.answer(ClientId(*client), spec), "{spec:?}");
                }
            }
            session.traversal_counts().1
        }
    }

    /// `client`'s share of `host`'s inbound walk.
    fn inbound(client: u32, host: u32) -> VerdictKey {
        VerdictKey::Inbound(ClientId(client), HostId(host))
    }

    /// The emission walk of `host`, owned by `client`.
    fn emission(client: u32, host: u32) -> VerdictKey {
        VerdictKey::Emission(ClientId(client), HostId(host))
    }

    /// `src` to `dst`, dropped at priority 400 on `switch`.
    fn pinned_drop(switch: u32, src: u32, dst: u32) -> crate::RuleChange {
        use rvaas_openflow::{FlowEntry, FlowMatch};
        let rule = FlowMatch::from_ip(src).field(Field::IpDst, u64::from(dst));
        let entry = FlowEntry::new(400, rule, vec![Action::Drop]);
        crate::RuleChange::installed(SwitchId(switch), entry)
    }

    #[test]
    fn tenant_churn_on_a_transit_switch_drops_only_the_churned_sources_emissions() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let ip = |h: u32| topo.host(HostId(h)).unwrap().ip;
        let mut chain = Chain::new(&topo, snapshot_with(&topo, &[]));
        // 4 emissions and 4 inbound walks: every host, both directions. Each
        // inbound walk probes the one other client: 8 keys.
        assert_eq!(chain.ask(&v, &[1, 2], &[QuerySpec::Isolation]), 8);
        assert_eq!(chain.epoch.memo.len(), 8);
        let before = chain.epoch.memo.keys();

        // Client 1's churn on switch 2, which its traffic crosses between
        // hosts 1 and 3 (and which client 2's traversals visit too).
        let churn = [pinned_drop(2, ip(1), ip(3)), pinned_drop(2, ip(3), ip(1))];
        let (superseded, dropped) = chain.advance(&churn);
        let churned = [emission(1, 1), emission(1, 3)];
        let kept: Vec<VerdictKey> = before
            .iter()
            .copied()
            .filter(|key| !churned.contains(key))
            .collect();
        assert_eq!(chain.epoch.memo.keys(), kept, "client 2's and every probe");
        assert_eq!(dropped, 2);
        assert_eq!(superseded.memo.len(), 0, "moved, not copied");
        // The churn flips client 1's verdicts; the carried memo serves the
        // rest and the next pass walks exactly the two dropped emissions.
        let specs = [QuerySpec::Isolation, QuerySpec::ReachableDestinations];
        assert_eq!(chain.ask(&v, &[1, 2], &specs), 2);
        assert_ne!(
            destinations(&v, &superseded.snapshot, 1),
            destinations(&v, &chain.epoch.snapshot, 1)
        );
    }

    #[test]
    fn a_join_rule_drops_the_foreign_sources_probe_and_the_verdict_flips() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let mut chain = Chain::new(&topo, snapshot_with(&topo, &[]));
        assert_eq!(chain.ask(&v, &[1, 2], &[QuerySpec::Isolation]), 8);
        assert_eq!(isolation(&v, &chain.epoch.snapshot, 1), (true, Vec::new()));

        // The join's first rule alone: host 2 (client 2) to host 1 (client
        // 1), admitted at host 2's edge switch, which its probes start on.
        let join = Attack::Join {
            attacker_host: HostId(2),
            victim_client: ClientId(1),
        };
        let (
            switch,
            Message::FlowMod {
                command: FlowModCommand::Add(rule),
            },
        ) = join.compile(&topo).swap_remove(0)
        else {
            unreachable!("a join compiles to rule adds");
        };
        assert_eq!(switch, SwitchId(2));
        let (_, dropped) = chain.advance(&[crate::RuleChange::installed(switch, rule)]);
        // What host 2 emits, and its inbound walk (probing client 1).
        let held = chain.epoch.memo.keys();
        assert!(!held.contains(&emission(2, 2)));
        assert!(!held.contains(&inbound(1, 2)));
        // 8 keys held, one per walk (two clients), less the 2 dropped.
        assert_eq!((held.len(), dropped), (6, 2));
        // The re-walked probe reaches client 1: isolation flips.
        assert_eq!(chain.ask(&v, &[1, 2], &[QuerySpec::Isolation]), 2);
        let (isolated, foreign) = isolation(&v, &chain.epoch.snapshot, 1);
        assert!(!isolated);
        assert_eq!(foreign.len(), 1);
    }

    #[test]
    fn a_rule_on_everything_a_host_sends_drops_its_probes_towards_every_client() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let ip = |h: u32| topo.host(HostId(h)).unwrap().ip;
        let mut chain = Chain::new(&topo, snapshot_with(&topo, &[]));
        let specs = [QuerySpec::Isolation, QuerySpec::PathLength { to_ip: ip(1) }];
        assert_eq!(chain.ask(&v, &[1, 2], &specs), 10);
        let before = chain.epoch.memo.keys();

        // Everything host 3 (client 1) sends, dropped on its edge switch:
        // no exact destination, so its inbound walk (every client it
        // probes) and every path probe of its owner is a candidate.
        let silenced = rvaas_openflow::FlowEntry::new(
            400,
            rvaas_openflow::FlowMatch::from_ip(ip(3)),
            vec![Action::Drop],
        );
        let (_, dropped) = chain.advance(&[crate::RuleChange::installed(SwitchId(3), silenced)]);
        let altered = [
            emission(1, 3),
            inbound(2, 3),
            VerdictKey::Path(ClientId(1), ip(1)),
        ];
        let kept: Vec<VerdictKey> = before
            .iter()
            .copied()
            .filter(|key| !altered.contains(key))
            .collect();
        assert_eq!(chain.epoch.memo.keys(), kept, "client 2's path probe too");
        assert_eq!(dropped, 3);
        assert_eq!(chain.ask(&v, &[1, 2], &specs), 3);
    }

    #[test]
    fn a_drop_without_an_exact_source_drops_only_the_walks_it_meets() {
        // Everything addressed to host 3 (client 1), dropped on switch 2: a
        // cube with no exact source admits every host as one. Every
        // emission walk arrives at switch 2 and is dropped. Of the inbound
        // walks, only those of client 2's hosts probe host 3, and only host
        // 2's, which starts on switch 2, arrives there: host 4's probe of
        // client 1 ends at its own edge, and hosts 1 and 3 probe no host of
        // their own tenant.
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let ip = |h: u32| topo.host(HostId(h)).unwrap().ip;
        let mut chain = Chain::new(&topo, snapshot_with(&topo, &[]));
        assert_eq!(chain.ask(&v, &[1, 2], &[QuerySpec::Isolation]), 8);
        let to_host_3 = rvaas_openflow::FlowEntry::new(
            400,
            rvaas_openflow::FlowMatch::to_ip(ip(3)),
            vec![Action::Drop],
        );
        let (superseded, dropped) =
            chain.advance(&[crate::RuleChange::installed(SwitchId(2), to_host_3)]);
        // Of the 8 keys (one per walk: two clients), the shares of hosts 1,
        // 3 and 4 ride on and the other 5 are dropped.
        let carried = [inbound(1, 4), inbound(2, 1), inbound(2, 3)];
        assert_eq!(chain.epoch.memo.keys(), carried);
        assert_eq!(dropped, 5);
        assert_eq!(superseded.memo.len(), 0, "moved, not copied");
        let (c1, c2) = (ClientId(1), ClientId(2));
        let expected: BTreeSet<VerdictKey> = [
            VerdictKey::Emission(c1, HostId(1)),
            VerdictKey::Emission(c1, HostId(3)),
            VerdictKey::Emission(c2, HostId(2)),
            VerdictKey::Emission(c2, HostId(4)),
            VerdictKey::Inbound(c1, HostId(2)),
            VerdictKey::Path(c1, ip(3)),
            VerdictKey::Path(c2, ip(3)),
            VerdictKey::Tables,
        ]
        .into_iter()
        .collect();
        assert_eq!(chain.affected.keys(), &expected);
        assert!(!chain.affected.is_affected(c2, &QuerySpec::ReachingSources));
        assert_eq!(chain.ask(&v, &[1, 2], &[QuerySpec::Isolation]), 5);
    }

    #[test]
    fn an_installed_rewrite_carries_nothing_until_it_is_gone() {
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let ip = |h: u32| topo.host(HostId(h)).unwrap().ip;
        let mut chain = Chain::new(&topo, snapshot_with(&topo, &[]));
        let rewrite = rvaas_openflow::FlowEntry::new(
            400,
            rvaas_openflow::FlowMatch::to_ip(0xdead_beef),
            vec![Action::SetField(Field::Vlan, 7), Action::Output(PortId(1))],
        );
        let install = crate::RuleChange::installed(SwitchId(4), rewrite.clone());
        let remove = crate::RuleChange::removed(SwitchId(4), rewrite);
        // The rewrite's own epoch, then a churn epoch while it is installed:
        // neither carries a traversal, and every verdict is affected.
        for change in [install, pinned_drop(2, ip(1), ip(3))] {
            assert_eq!(chain.ask(&v, &[1, 2], &[QuerySpec::Isolation]), 8);
            let (_, dropped) = chain.advance(&[change]);
            assert_eq!((chain.epoch.memo.len(), dropped), (0, 8));
            assert!(chain.affected.is_everything());
        }
        // The epoch that removes it is bounded again: its region, towards an
        // address no host has, reaches every emission walk and no inbound
        // walk, and of the emissions only client 2's arrive at switch 4
        // (hosts 2 and 4 reach each other through it). Once it is gone, the
        // same churn carries all but the churned source's emission.
        assert_eq!(chain.ask(&v, &[1, 2], &[QuerySpec::Isolation]), 8);
        let (_, dropped) = chain.advance(&[remove]);
        assert_eq!((chain.epoch.memo.len(), dropped), (6, 2));
        assert!(!chain
            .affected
            .is_affected(ClientId(1), &QuerySpec::Isolation));
        assert_eq!(chain.ask(&v, &[1, 2], &[QuerySpec::Isolation]), 2);
        let (_, dropped) = chain.advance(&[pinned_drop(2, ip(3), ip(1))]);
        assert_eq!((chain.epoch.memo.len(), dropped), (7, 1));
        // The flag is what counts, whatever space a conservative region names.
        let conservative = ChangedRegion {
            space: LogicalVerifier::probe_cube(ip(1), ip(3)).into(),
            switches: [SwitchId(2)].into(),
            conservative: true,
            ..ChangedRegion::default()
        };
        let carried = chain.epoch.memo.carry(&conservative, &topo);
        assert_eq!((carried.memo.len(), carried.dropped), (0, 7));
        assert!(carried.affected.is_everything());
    }

    #[test]
    fn a_truncated_traversal_is_affected_without_emptying_the_carry() {
        // The fabric of the truncation test above: the inbound walk of
        // client 2's host is cut at injection (client 1's label), client 2's
        // emission is not.
        let mut topo = Topology::new();
        let here = GeoPoint::new(0.0, 0.0, Region::new("here"));
        topo.add_switch(SwitchId(1), 4098, here.clone());
        for n in 1..=4098u32 {
            let owner = ClientId(if n == 4098 { 2 } else { 1 });
            let port = SwitchPort::new(SwitchId(1), PortId(n));
            topo.add_host(HostId(n), 0x0a00_0000 + n, port, owner, here.clone())
                .unwrap();
        }
        let v = verifier(&topo);
        let mut chain = Chain::new(&topo, NetworkSnapshot::new(SimTime::from_secs(1)));
        // A change no traversal can see: its source is nobody's address.
        let unseen = || pinned_drop(1, 0xdead_beef, 0x0a00_0001);
        assert_eq!(chain.ask(&v, &[2], &[QuerySpec::ReachableDestinations]), 1);
        let (_, dropped) = chain.advance(&[unseen()]);
        assert_eq!((chain.epoch.memo.len(), dropped), (1, 0), "carried");
        assert_eq!(chain.ask(&v, &[1], &[QuerySpec::ReachingSources]), 1);
        assert_eq!(chain.epoch.memo.len(), 2);
        // The next change reaches no key, yet the cut walk's footprint is
        // unbounded: it alone is dropped, and client 1's share of it is
        // affected. The emission walk rides on.
        let (_, dropped) =
            chain.advance(&[crate::RuleChange::removed(SwitchId(1), unseen().entry)]);
        assert_eq!((chain.epoch.memo.len(), dropped), (1, 1));
        assert_eq!(chain.epoch.memo.keys(), [emission(2, 4098)]);
        let cut = VerdictKey::Inbound(ClientId(1), HostId(4098));
        let expected: BTreeSet<VerdictKey> = [cut, VerdictKey::Tables].into_iter().collect();
        assert_eq!(chain.affected.keys(), &expected);
        assert!(chain
            .affected
            .is_affected(ClientId(1), &QuerySpec::ReachingSources));
        let destinations = QuerySpec::ReachableDestinations;
        assert!(!chain.affected.is_affected(ClientId(2), &destinations));
    }

    #[test]
    fn a_walk_the_carry_did_not_hold_is_affected_when_the_region_meets_it() {
        // Client 2's emissions are held; client 1's are not, as if a session
        // on the superseded epoch were still walking them. A churn of client
        // 1's traffic on switch 2 affects client 1's unheld emissions
        // (their injected space is all the carry has to go on), while the
        // held walks it cannot reach are carried and unaffected.
        let topo = generators::line(4, 2);
        let v = verifier(&topo);
        let ip = |h: u32| topo.host(HostId(h)).unwrap().ip;
        let mut chain = Chain::new(&topo, snapshot_with(&topo, &[]));
        assert_eq!(chain.ask(&v, &[2], &[QuerySpec::ReachableDestinations]), 2);
        let churn = [pinned_drop(2, ip(1), ip(3)), pinned_drop(2, ip(3), ip(1))];
        let (superseded, dropped) = chain.advance(&churn);
        assert_eq!((chain.epoch.memo.len(), dropped), (2, 0));
        let destinations = QuerySpec::ReachableDestinations;
        assert!(chain.affected.is_affected(ClientId(1), &destinations));
        assert!(!chain.affected.is_affected(ClientId(2), &destinations));
        // The walk lands in the superseded epoch's memo after the carry: its
        // verdict is that epoch's, which the churn moved.
        let mut late = superseded.session(&v);
        let stale = late.answer(ClientId(1), &destinations);
        assert_eq!(late.traversal_counts(), (0, 2));
        assert_eq!(
            stale,
            v.answer(&superseded.snapshot, ClientId(1), &destinations)
        );
        assert_ne!(
            stale,
            v.answer(&chain.epoch.snapshot, ClientId(1), &destinations)
        );
        assert_eq!(
            chain.epoch.memo.keys().len(),
            2,
            "the successor's is untouched"
        );
    }

    /// Every key a verdict over `topology` can read: each host's emission,
    /// each client's share of every other client's hosts' inbound walks,
    /// the tables, and a path probe of each of `clients` towards each host
    /// and towards `nowhere`.
    fn every_key(topology: &Topology, clients: &[ClientId], nowhere: u32) -> BTreeSet<VerdictKey> {
        let mut keys = BTreeSet::from([VerdictKey::Tables]);
        for host in topology.hosts() {
            keys.insert(VerdictKey::Emission(host.owner, host.id));
            for client in topology.clients() {
                if client != host.owner {
                    keys.insert(VerdictKey::Inbound(client, host.id));
                }
            }
        }
        let addresses = topology.hosts().map(|h| h.ip).chain([nowhere]);
        for ip in addresses {
            keys.extend(clients.iter().map(|c| VerdictKey::Path(*c, ip)));
        }
        keys
    }

    #[test]
    fn every_spec_is_affected_through_exactly_the_keys_its_verdict_reads() {
        // For every client (and one the topology does not know) and each of
        // the six specs, the keys whose being affected affects the verdict
        // are the keys the evaluator looked up to answer it.
        let nowhere = 0xdead_beef;
        for topo in [generators::line(4, 2), generators::leaf_spine(2, 3, 3, 7)] {
            let v = verifier(&topo);
            let snap = snapshot_with(&topo, &[]);
            let mut clients = topo.clients();
            clients.push(ClientId(99));
            let universe = every_key(&topo, &clients, nowhere);
            let to_ip = topo.hosts().last().unwrap().ip;
            for client in &clients {
                let specs = [
                    QuerySpec::ReachableDestinations,
                    QuerySpec::ReachingSources,
                    QuerySpec::Isolation,
                    QuerySpec::GeoLocation,
                    QuerySpec::PathLength { to_ip },
                    QuerySpec::PathLength { to_ip: nowhere },
                    QuerySpec::Neutrality,
                ];
                for spec in specs {
                    let mut session = v.evaluator(&snap);
                    let _ = session.answer(*client, &spec);
                    let affected_through: BTreeSet<VerdictKey> = universe
                        .iter()
                        .copied()
                        .filter(|key| {
                            let one: AffectedQueries = [*key].into_iter().collect();
                            one.is_affected(*client, &spec)
                        })
                        .collect();
                    assert_eq!(affected_through, session.read, "{client:?} {spec:?}");
                    // A sync session reads the same selection as specs.
                    let read: AffectedQueries = session.read.iter().copied().collect();
                    let named = read.specs_of(*client).contains(&spec);
                    assert_eq!(named, !read.is_empty(), "{client:?} {spec:?}");
                }
            }
        }
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
                let _ = session.answer(ClientId(1), &QuerySpec::Isolation);
                // 2 emission + 2 source walks, whoever asked before.
                assert_eq!(session.traversal_counts(), (0, 4));
                let _ = session.answer(ClientId(1), &QuerySpec::ReachingSources);
                assert_eq!(session.traversal_counts(), (2, 4), "shared within");
            }
        }
    }

    // --- One inbound walk per host ------------------------------------------

    /// Every query of every client of `topology` once, in client order.
    fn full_mix(topology: &Topology) -> Vec<(ClientId, QuerySpec)> {
        let to_ip = topology.hosts().next().map_or(0, |h| h.ip);
        let specs = [
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip },
            QuerySpec::Neutrality,
        ];
        let clients = topology.clients();
        let each = |client: ClientId| specs.clone().map(|spec| (client, spec));
        clients.into_iter().flat_map(each).collect()
    }

    #[test]
    fn a_fresh_memo_fills_in_one_walk_per_host_and_direction() {
        // `fat_tree(4, 8)`: 16 hosts, two per client. The full mix walks each
        // host's emission, each host's inbound probes of the seven other
        // clients in one labelled walk, and one path probe per client.
        let topo = generators::fat_tree(4, 8);
        let (hosts, clients) = (topo.host_count(), topo.clients().len());
        let v = verifier(&topo);
        let epoch = Epoch::new(&topo, &[]);
        let mut fresh = v.evaluator(&epoch.snapshot);
        let mut answer_all = || {
            let mut session = epoch.session(&v);
            for (client, spec) in full_mix(&topo) {
                let served = session.answer_with_footprint(client, &spec);
                assert_eq!(
                    served,
                    fresh.answer_with_footprint(client, &spec),
                    "{spec:?}"
                );
            }
            session.traversal_counts()
        };
        let (_, walked) = answer_all();
        assert_eq!(walked as usize, 2 * hosts + clients);
        // One key per host's emission (16), per host and client it does not
        // belong to (16 × 7 = 112) and per client's path probe (8): 136.
        assert_eq!(epoch.memo.len(), hosts * clients + clients);
        assert_eq!(epoch.memo.len(), 136);
        let (read, walked) = answer_all();
        assert_eq!(walked, 0, "a second session walks nothing");
        assert!(read > 0);
    }

    #[test]
    fn a_lone_inbound_query_walks_every_foreign_host_once_for_every_client() {
        // `line(6, 3)`: client c owns hosts c and c + 3. A first
        // ReachingSources walks the four foreign hosts, each carrying a
        // label per client other than its owner; every other client's
        // inbound query then walks only the hosts of the client that asked
        // first, which its walks never carried.
        let topo = generators::line(6, 3);
        let v = verifier(&topo);
        let epoch = Epoch::new(&topo, &[]);
        let ask = |client: u32| {
            let mut session = epoch.session(&v);
            let spec = QuerySpec::ReachingSources;
            let served = session.answer_with_footprint(ClientId(client), &spec);
            let fresh = v
                .evaluator(&epoch.snapshot)
                .answer_with_footprint(ClientId(client), &spec);
            assert_eq!(served, fresh, "client {client}");
            session.traversal_counts()
        };
        assert_eq!(ask(1), (0, 4));
        assert_eq!(ask(2), (2, 2), "hosts 3 and 6 held, hosts 1 and 4 walked");
        assert_eq!(ask(3), (4, 0));
        // Each host's share for each of the two clients it does not belong
        // to: 6 × 2 = 12 keys.
        let shares: Vec<VerdictKey> = (1..=3)
            .flat_map(|c| {
                (1..=6)
                    .filter(move |h| h % 3 != c % 3)
                    .map(move |h| inbound(c, h))
            })
            .collect();
        assert_eq!(epoch.memo.keys(), shares);
    }

    #[test]
    fn a_label_cut_by_the_cube_budget_leaves_the_other_labels_of_its_walk_bounded() {
        // One switch carrying 4 097 hosts of client 1 and one host each of
        // clients 2 and 3, no rules installed. Client 2's host's inbound
        // walk carries client 1's label, one cube per client-1 address and
        // so over the budget, and client 3's, one cube: client 1's sources
        // are unbounded, client 3's are not.
        let mut topo = Topology::new();
        let here = GeoPoint::new(0.0, 0.0, Region::new("here"));
        topo.add_switch(SwitchId(1), 4099, here.clone());
        for n in 1..=4099u32 {
            let owner = ClientId(n.saturating_sub(4096).max(1));
            let port = SwitchPort::new(SwitchId(1), PortId(n));
            topo.add_host(HostId(n), 0x0a00_0000 + n, port, owner, here.clone())
                .unwrap();
        }
        assert_eq!(topo.hosts_of_client(ClientId(1)).len(), 4097);
        let v = verifier(&topo);
        let epoch = Epoch::of(&topo, NetworkSnapshot::new(SimTime::from_secs(1)));
        let mut session = epoch.session(&v);
        let mut bounded = |client| {
            let spec = QuerySpec::ReachingSources;
            let (_, footprint) = session.answer_with_footprint(ClientId(client), &spec);
            footprint.switches.is_some()
        };
        assert!(bounded(3), "its label of host 4098's walk was not cut");
        assert!(!bounded(1), "its labels were cut at injection");
        assert!(bounded(2));
    }

    #[test]
    fn neutrality_verdicts_of_one_session_equal_fresh_evaluators() {
        // Metered deliveries towards clients 2 and 3 of `fat_tree(4, 8)`,
        // asked for every client and one unknown to the topology, in one
        // session and each through a fresh evaluator.
        let topo = generators::fat_tree(4, 8);
        let v = verifier(&topo);
        let throttles = [2, 3].map(|c| Attack::Throttle {
            victim_client: ClientId(c),
            rate_kbps: 64,
        });
        let snap = snapshot_with(&topo, &throttles);
        let mut session = v.evaluator(&snap);
        let mut unfair = 0;
        for client in topo.clients().into_iter().chain([ClientId(99)]) {
            let (served, footprint) = session.answer_with_footprint(client, &QuerySpec::Neutrality);
            let fresh = v
                .evaluator(&snap)
                .answer_with_footprint(client, &QuerySpec::Neutrality);
            assert_eq!(
                (&served, &footprint),
                (&fresh.0, &fresh.1),
                "client {client:?}"
            );
            unfair += usize::from(matches!(
                served,
                QueryResult::Neutrality { fair: false, .. }
            ));
        }
        assert_eq!(unfair, 2, "the two throttled clients");
        assert!(session.metered.is_some(), "built once, by the first query");
    }

    #[test]
    fn tenant_pinned_churn_carries_the_inbound_walks_and_a_foreign_destination_drops_one() {
        // `line(6, 3)`: client 1 owns hosts 1 and 4. A drop from host 1 to
        // host 4, inside its tenant, on host 1's edge switch: no other
        // client's host is its destination, so host 1's inbound shares are
        // carried and only its emission is dropped. The same drop towards
        // host 2 (client 2) is a destination client 2's share of host 1's
        // inbound walk probes: that share is dropped too, and client 3's
        // rides on.
        let topo = generators::line(6, 3);
        let v = verifier(&topo);
        let ip = |h: u32| topo.host(HostId(h)).unwrap().ip;
        let mut chain = Chain::new(&topo, snapshot_with(&topo, &[]));
        let specs = [QuerySpec::Isolation];
        // 6 emission and 6 inbound walks; the latter fill 6 × 2 shares: 18
        // keys.
        assert_eq!(chain.ask(&v, &[1, 2, 3], &specs), 12);
        assert_eq!(chain.epoch.memo.len(), 18);
        let (_, dropped) = chain.advance(&[pinned_drop(1, ip(1), ip(4))]);
        assert_eq!(dropped, 1);
        let held = chain.epoch.memo.keys();
        assert!(held.contains(&inbound(2, 1)) && held.contains(&inbound(3, 1)));
        assert!(!held.contains(&emission(1, 1)));
        assert_eq!(chain.ask(&v, &[1, 2, 3], &specs), 1);

        let (_, dropped) = chain.advance(&[pinned_drop(1, ip(1), ip(2))]);
        assert_eq!(dropped, 2);
        let held = chain.epoch.memo.keys();
        assert!(!held.contains(&inbound(2, 1)));
        assert!(held.contains(&inbound(3, 1)), "the other share rides on");
        assert!(!held.contains(&emission(1, 1)));
        // Host 1's emission, and its inbound walk for client 2's label only.
        assert_eq!(chain.ask(&v, &[1, 2, 3], &specs), 2);
        assert_eq!(chain.epoch.memo.len(), 18);
    }

    #[test]
    fn an_altered_share_of_an_inbound_walk_leaves_the_other_clients_shares_held() {
        // `line(6, 3)`: client c owns hosts c and c + 3. A drop from host 1
        // (client 1) to host 2 (client 2) on host 1's edge switch alters
        // client 2's share of host 1's inbound walk and no other client's:
        // client 3's share rides on, so client 3's inbound verdicts walk
        // nothing, and client 2's next query walks host 1 once, for its own
        // label only.
        let topo = generators::line(6, 3);
        let v = verifier(&topo);
        let ip = |h: u32| topo.host(HostId(h)).unwrap().ip;
        let mut chain = Chain::new(&topo, snapshot_with(&topo, &[]));
        let (sources, isolation) = (QuerySpec::ReachingSources, QuerySpec::Isolation);
        assert_eq!(
            chain.ask(&v, &[1, 2, 3], std::slice::from_ref(&isolation)),
            12
        );
        let (_, dropped) = chain.advance(&[pinned_drop(1, ip(1), ip(2))]);
        assert_eq!(dropped, 2, "host 1's emission and client 2's share");
        let ask = |client: u32, spec: &QuerySpec| {
            let mut session = chain.epoch.session(&v);
            let served = session.answer(ClientId(client), spec);
            let fresh = v.answer(&chain.epoch.snapshot, ClientId(client), spec);
            assert_eq!(served, fresh, "client {client} {spec:?}");
            session.traversal_counts()
        };
        // The shares of hosts 1, 2, 4 and 5, then client 3's two emissions.
        assert_eq!(ask(3, &sources), (4, 0));
        assert_eq!(ask(3, &isolation), (6, 0));
        let other = chain.epoch.memo.get(inbound(3, 1)).expect("carried");
        assert_eq!(ask(2, &sources), (3, 1), "host 1, walked again");
        // 18 keys less the 2 dropped, plus client 2's share walked again.
        assert_eq!(chain.epoch.memo.len(), 17);
        let still = chain.epoch.memo.get(inbound(3, 1)).expect("held");
        assert!(
            Arc::ptr_eq(&other, &still),
            "client 3's share is not walked"
        );
    }

    #[test]
    fn an_inbound_walk_carries_the_asked_label_even_when_its_share_is_held() {
        // A session that missed `Inbound(2, 1)` may find it filled by
        // another session by the time it walks host 1 (`line(6, 3)`, host 1
        // belongs to client 1): the walk still returns the asked label, and
        // skips the other held one.
        let topo = generators::line(6, 3);
        let v = verifier(&topo);
        let epoch = Epoch::new(&topo, &[]);
        let mut session = epoch.session(&v);
        let _ = session.answer(ClientId(2), &QuerySpec::ReachingSources);
        assert!(epoch.memo.keys().contains(&inbound(3, 1)));
        let source = topo.host(HostId(1)).unwrap();
        let walked = session.walk_inbound(source, inbound(2, 1), &targets_of(&topo));
        let filled: Vec<VerdictKey> = walked.iter().map(|(key, _)| *key).collect();
        assert_eq!(filled, [inbound(2, 1)]);
    }

    /// A rule on a switch of `topology` that rewrites the destination of
    /// what `from` sends to `to`'s address and forwards it out of one of
    /// that switch's ports.
    fn destination_rewrite(
        topology: &Topology,
        (at, from, to, port): (usize, usize, usize, usize),
    ) -> (SwitchId, rvaas_openflow::FlowEntry) {
        let switches: Vec<_> = topology.switches().collect();
        let hosts: Vec<_> = topology.hosts().collect();
        let switch = switches[at % switches.len()];
        let (from, to) = (hosts[from % hosts.len()], hosts[to % hosts.len()]);
        let out = switch.ports[port % switch.ports.len()];
        let entry = rvaas_openflow::FlowEntry::new(
            500,
            rvaas_openflow::FlowMatch::from_ip(from.ip),
            vec![
                Action::SetField(Field::IpDst, u64::from(to.ip)),
                Action::Output(out),
            ],
        );
        (switch.id, entry)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Every client's share of every host's inbound walk — verdict,
        /// visited switches and truncation — is what one walk of that
        /// client's probe alone finds, on snapshots with joins,
        /// exfiltration, blackholes, throttles and rules that rewrite
        /// `IpDst` before forwarding.
        #[test]
        fn every_client_of_an_inbound_walk_is_its_lone_probe(
            shape in 0u8..3,
            attacks in proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 0..4),
            rewrites in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64, 0usize..8), 0..4),
        ) {
            let topo = match shape {
                0 => generators::line(5, 3),
                1 => generators::ring(6, 3),
                _ => generators::fat_tree(4, 8),
            };
            let hosts: Vec<_> = topo.hosts().collect();
            let clients = topo.clients();
            let attacks: Vec<Attack> = attacks
                .iter()
                .map(|(kind, a, b)| {
                    let host = hosts[a % hosts.len()];
                    let other = |i: usize| {
                        let others: Vec<_> = hosts.iter().filter(|h| h.owner != host.owner).collect();
                        others[i % others.len()]
                    };
                    match kind {
                        0 => Attack::Join { attacker_host: host.id, victim_client: other(*b).owner },
                        1 => Attack::Exfiltrate { victim_host: host.id, collector_host: other(*b).id },
                        2 => Attack::Blackhole { victim_host: host.id },
                        _ => Attack::Throttle { victim_client: clients[b % clients.len()], rate_kbps: 64 },
                    }
                })
                .collect();
            let mut snap = snapshot_with(&topo, &attacks);
            for draw in &rewrites {
                let (switch, entry) = destination_rewrite(&topo, *draw);
                snap.record_installed(switch, entry, SimTime::from_millis(2));
            }
            let v = verifier(&topo);
            let epoch = Epoch::of(&topo, snap);
            let mut session = epoch.session(&v);
            for client in &clients {
                let _ = session.answer(*client, &QuerySpec::ReachingSources);
            }
            let engine = ReachabilityEngine::new(&epoch.function);
            let held = epoch.memo.keys();
            for host in &hosts {
                let shares: Vec<ClientId> = held
                    .iter()
                    .filter_map(|key| match key {
                        VerdictKey::Inbound(client, source) if *source == host.id => Some(*client),
                        _ => None,
                    })
                    .collect();
                let foreign: Vec<ClientId> = clients.iter().copied().filter(|c| *c != host.owner).collect();
                proptest::prop_assert_eq!(&shares, &foreign);
                for client in &foreign {
                    let probe = epoch.memo.get(VerdictKey::Inbound(*client, host.id)).expect("held");
                    let targets = topo.hosts_of_client(*client);
                    let space: HeaderSpace =
                        targets.iter().map(|d| LogicalVerifier::probe_cube(host.ip, d.ip)).collect();
                    let lone = engine.reachable_from(host.attachment, space);
                    let ports = topo.access_points_of(*client);
                    let reaches = lone.reached_ports().iter().any(|p| ports.contains(p));
                    let Outcome::Source { reaches: read } = probe.outcome else {
                        unreachable!("one client's share");
                    };
                    let what = format!("{:?} -> {client:?} under {attacks:?} and {rewrites:?}", host.id);
                    proptest::prop_assert_eq!(read, reaches, "{}", what);
                    proptest::prop_assert_eq!(&probe.visited, &lone.visited, "{}", what);
                    proptest::prop_assert_eq!(probe.truncated, lone.truncated_branches > 0, "{}", what);
                }
            }
        }
    }
}
