//! The traversal memo and the verdict keys it is held under: which verdicts
//! a rule change can move. A verdict reads a static set of [`VerdictKey`]s,
//! the [`TraversalMemo`] holds [`crate::verify`]'s walks under those very
//! keys, and its [carry](TraversalMemo::carry) into the next epoch names the
//! keys a change may have altered ([`AffectedQueries`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, PoisonError, RwLock};

use rvaas_client::QuerySpec;
use rvaas_hsa::{Cube, HeaderSpace};
use rvaas_topology::{Host, Topology};
use rvaas_types::{ClientId, Field, HostId, SwitchId, SwitchPort};

use crate::incremental::ChangedRegion;

/// What queries read from a traversal — not the [`ReachabilityResult`] with
/// its per-endpoint header spaces and paths.
///
/// [`ReachabilityResult`]: rvaas_hsa::ReachabilityResult
#[derive(Debug)]
pub(crate) enum Outcome {
    Emission {
        /// Distinct egress ports reached, ascending.
        ports: Vec<SwitchPort>,
        /// Switches on any path, ascending (what geo queries map to regions).
        traversed: Vec<SwitchId>,
    },
    /// One client's share of a source host's inbound walk.
    Source {
        reaches: bool,
    },
    Path {
        min: u32,
        max: u32,
        reachable: bool,
    },
}

/// One memoised traversal — for an inbound walk, one client's share of it —
/// and the footprint behind it.
#[derive(Debug)]
pub(crate) struct Traversal {
    /// Every switch the traversal arrived at, ascending: the switches whose
    /// transfer functions it consulted.
    pub(crate) visited: Vec<SwitchId>,
    /// The engine's cube budget cut a branch: the outcome may depend on
    /// anything.
    pub(crate) truncated: bool,
    pub(crate) outcome: Outcome,
}

/// One thing a verdict reads that a rule change can alter: a memoised
/// traversal (for an inbound walk, one client's share of it), or the access
/// switches' tables.
///
/// The keys a `(client, spec)` verdict reads are a static function of the
/// pair and the trusted topology, never of the rules:
///
/// * `ReachableDestinations` and `GeoLocation` read `Emission(client, h)` for
///   every host `h` of `client`;
/// * `ReachingSources` reads `Inbound(client, h)` for every host `h` of every
///   other client;
/// * `Isolation` reads both;
/// * `PathLength { to_ip }` reads `Path(client, to_ip)`;
/// * `Neutrality` reads `Tables`.
///
/// The [`TraversalMemo`] holds its entries under these keys, so a publish
/// need not know who asked what: [`TraversalMemo::carry`] names the keys
/// the change may have altered, and [`AffectedQueries::is_affected`] tests
/// a verdict's keys against them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VerdictKey {
    /// The emission walk of a host (`.1`) of the client (`.0`).
    Emission(ClientId, HostId),
    /// The client's (`.0`) share of the inbound walk from a host (`.1`) of
    /// another client: whether that host reaches it.
    Inbound(ClientId, HostId),
    /// The client's (`.0`) path probe towards an address (`.1`).
    Path(ClientId, u32),
    /// The delivery rules of every access switch, which neutrality verdicts
    /// read.
    Tables,
}

/// The verdicts one publish may have changed: the [`VerdictKey`]s the
/// memo's [carry](TraversalMemo::carry) found altered, or everything under a
/// region it cannot bound. The cache carries, and a sync session skips,
/// every verdict none of whose keys is here.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AffectedQueries {
    everything: bool,
    keys: BTreeSet<VerdictKey>,
}

impl AffectedQueries {
    /// Every verdict must be treated as affected.
    #[must_use]
    pub fn everything() -> Self {
        AffectedQueries {
            everything: true,
            keys: BTreeSet::new(),
        }
    }

    /// True when every verdict must be treated as affected.
    #[must_use]
    pub fn is_everything(&self) -> bool {
        self.everything
    }

    /// True when no verdict is affected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.everything && self.keys.is_empty()
    }

    /// Number of affected keys (0 under [`is_everything`](Self::is_everything)).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// The affected keys (empty under `is_everything`).
    #[must_use]
    pub fn keys(&self) -> &BTreeSet<VerdictKey> {
        &self.keys
    }

    /// Whether the verdict of `(client, spec)` may have changed: whether any
    /// key it reads (see [`VerdictKey`]) is affected.
    ///
    /// A verdict reading every `Emission` (or `Inbound`) key of `client`
    /// tests the range of them, with no topology at hand: the set holds
    /// `Emission(c, h)` only for a host `h` of `c`, and `Inbound(c, h)` only
    /// for a host of another client, so the range holds exactly the keys of
    /// that kind the verdict reads.
    #[must_use]
    pub fn is_affected(&self, client: ClientId, spec: &QuerySpec) -> bool {
        if self.everything {
            return true;
        }
        let any_of = |kind: fn(ClientId, HostId) -> VerdictKey| {
            let (first, last) = (kind(client, HostId(0)), kind(client, HostId(u32::MAX)));
            self.keys.range(first..=last).next().is_some()
        };
        match spec {
            QuerySpec::ReachableDestinations | QuerySpec::GeoLocation => {
                any_of(VerdictKey::Emission)
            }
            QuerySpec::ReachingSources => any_of(VerdictKey::Inbound),
            QuerySpec::Isolation => any_of(VerdictKey::Emission) || any_of(VerdictKey::Inbound),
            QuerySpec::PathLength { to_ip } => {
                self.keys.contains(&VerdictKey::Path(client, *to_ip))
            }
            QuerySpec::Neutrality => self.keys.contains(&VerdictKey::Tables),
        }
    }

    /// Every spec whose verdict for `client` [`is_affected`](Self::is_affected),
    /// ascending: those of the five specs naming no destination, and one
    /// path spec per affected path key of `client` — `O(log keys)` each,
    /// whatever the number of standing queries. Empty under
    /// [`is_everything`](Self::is_everything), where every spec is (a set
    /// with no end: path probes are named by their destination).
    #[must_use]
    pub fn specs_of(&self, client: ClientId) -> Vec<QuerySpec> {
        if self.everything {
            return Vec::new();
        }
        let paths = VerdictKey::Path(client, 0)..=VerdictKey::Path(client, u32::MAX);
        let mut specs: Vec<QuerySpec> = [
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::Neutrality,
        ]
        .into_iter()
        .filter(|spec| self.is_affected(client, spec))
        .chain(self.keys.range(paths).filter_map(|key| match key {
            VerdictKey::Path(_, to_ip) => Some(QuerySpec::PathLength { to_ip: *to_ip }),
            _ => None,
        }))
        .collect();
        specs.sort_unstable();
        specs
    }

    /// Folds another selection into this one: a session lagging several
    /// epochs re-verifies what any of them may have changed.
    pub fn merge(&mut self, other: &AffectedQueries) {
        self.everything |= other.everything;
        if self.everything {
            self.keys.clear();
        } else {
            self.keys.extend(other.keys.iter().copied());
        }
    }
}

/// What [`TraversalMemo::carry`] hands the successor epoch.
#[derive(Debug)]
pub struct Carried {
    /// The successor's memo: every held entry the change cannot have
    /// altered.
    pub memo: TraversalMemo,
    /// The verdict keys the change may have altered.
    pub affected: AffectedQueries,
    /// How many held entries the successor does not get.
    pub dropped: usize,
}

/// The HSA traversals walked over **one** network function, shared by every
/// evaluation session that is handed the same memo, each under the
/// [`VerdictKey`] whose verdicts read it.
///
/// An entry is a pure function of that network function and the static,
/// trusted topology, so nothing in a memo is ever invalidated in place. A
/// different function gets a different memo: the service plane keeps one
/// inside each published epoch, and [`carry`](Self::carry) moves into the
/// successor's the entries the change between the two functions cannot
/// have altered.
///
/// One walk may fill several keys: a host's inbound walk carries one label
/// per client it probes and leaves one `Inbound(client, host)` entry per
/// label. Keys name hosts and clients of the trusted topology only (a query
/// about an unknown client or address walks nothing and leaves nothing) —
/// at most hosts × clients entries (one emission per host, one share per
/// host and client it does not belong to) plus one path probe per
/// (client, destination) asked, whatever the number of distinct queries.
#[derive(Debug, Default)]
pub struct TraversalMemo {
    entries: RwLock<Entries>,
}

/// What a [`TraversalMemo`] holds behind its lock.
#[derive(Debug, Default)]
struct Entries {
    traversals: BTreeMap<VerdictKey, Arc<Traversal>>,
    /// The held entries the engine's cube budget cut: their footprints are
    /// unbounded, so any change may have altered them.
    truncated: BTreeSet<VerdictKey>,
}

#[allow(clippy::len_without_is_empty)] // `len` exists for tests and the carry count.
impl TraversalMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        TraversalMemo::default()
    }

    /// Number of entries held (one per key).
    #[must_use]
    pub fn len(&self) -> usize {
        self.read().traversals.len()
    }

    /// The keys held, ascending.
    #[must_use]
    pub fn keys(&self) -> Vec<VerdictKey> {
        self.read().traversals.keys().copied().collect()
    }

    // Poisoning is recovered from, here and below: every entry stands on
    // its own, so an interrupted writer leaves the memo valid.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Entries> {
        self.entries.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn get(&self, key: VerdictKey) -> Option<Arc<Traversal>> {
        self.read().traversals.get(&key).cloned()
    }

    /// The `labels` keyed `asked` or by a key the memo does not hold, read
    /// under one lock: what a walk that must fill `asked` still carries.
    pub(crate) fn to_walk<T>(
        &self,
        asked: VerdictKey,
        labels: impl IntoIterator<Item = (VerdictKey, T)>,
    ) -> Vec<(VerdictKey, T)> {
        let held = &self.read().traversals;
        let unheld = |(key, _): &(VerdictKey, T)| *key == asked || !held.contains_key(key);
        labels.into_iter().filter(unheld).collect()
    }

    /// Two sessions that raced on a key walked the same function: whichever
    /// insert lands last replaces an equal entry.
    pub(crate) fn put(&self, walked: Vec<(VerdictKey, Arc<Traversal>)>) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        for (key, traversal) in walked {
            // The cut mark goes in first: an interrupted writer can leave a
            // mark without its entry, which the carry treats as altered,
            // never a cut entry without its mark.
            if traversal.truncated {
                entries.truncated.insert(key);
            }
            entries.traversals.insert(key, traversal);
        }
    }

    /// The memo of the function that `region` made of this memo's function,
    /// and the verdict keys the change may have altered: the one test of
    /// which verdicts a publish moved.
    ///
    /// The candidates are the keys whose injected space `region`'s space
    /// overlaps, found through the hosts each region cube admits as source
    /// and destination, never by a scan of the memo. A candidate is altered
    /// when
    ///
    /// * it is held and its traversal visited a switch of `region` — without
    ///   rewrites (any installed rewrite makes every region conservative)
    ///   traffic never leaves the space it was injected in, so a change
    ///   outside that space, or on switches the walk never arrived at,
    ///   leaves the walk as it was; or
    /// * it is not held: a session still answering on this memo's function
    ///   may walk it after this carry, and its verdict must not be carried
    ///   past a change it overlaps.
    ///
    /// Every held entry the budget cut is altered too, whatever it
    /// injected, and `Tables` is when `region` touches an access switch.
    /// Every altered entry is dropped, and only it: the other clients'
    /// shares of an altered inbound walk move on. The rest move to the
    /// successor.
    ///
    /// A conservative region alters everything, and so does any change on
    /// a topology without hosts, which names no key: the successor starts
    /// empty and this memo is left as it is. An empty region alters
    /// nothing. Otherwise the entries are moved out, not copied: a session
    /// still answering on this memo's function finds it empty and walks
    /// afresh.
    pub fn carry(&self, region: &ChangedRegion, topology: &Topology) -> Carried {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        let held = entries.traversals.len();
        if region.conservative || (topology.host_count() == 0 && !region.is_empty()) {
            return Carried {
                memo: TraversalMemo::new(),
                affected: AffectedQueries::everything(),
                dropped: held,
            };
        }
        let mut carried = std::mem::take(&mut *entries);
        drop(entries);
        let mut affected = AffectedQueries::default();
        let mut dropped = 0;
        if !region.is_empty() {
            if region.switches.iter().any(|s| topology.has_hosts_at(*s)) {
                affected.keys.insert(VerdictKey::Tables);
            }
            let altered = |read: &Traversal| {
                read.truncated
                    || region
                        .switches
                        .iter()
                        .any(|s| read.visited.binary_search(s).is_ok())
            };
            let candidates = overlapped_keys(&region.space, topology);
            let cut = std::mem::take(&mut carried.truncated);
            for key in candidates.into_iter().chain(cut) {
                if carried.traversals.get(&key).is_none_or(|t| altered(t)) {
                    affected.keys.insert(key);
                    dropped += usize::from(carried.traversals.remove(&key).is_some());
                }
            }
        }
        Carried {
            memo: TraversalMemo {
                entries: RwLock::new(carried),
            },
            affected,
            dropped,
        }
    }
}

/// Every [`VerdictKey`] but `Tables` whose injected space `space` overlaps.
///
/// Every injected cube pins `IpSrc` to a host's address, and `IpDst`, where
/// it pins it, to a host's too (a path probe towards an address no host has
/// walks nothing: its verdict is a constant of the topology). A cube
/// constrains each header bit on its own, so one that admits a host's
/// address as source meets that host's emission space, and one that also
/// admits another host's address as destination meets every probe between
/// the two: that host's inbound walk as far as the destination's owner
/// reads it, and the path probe of the source's owner towards it. A cube
/// pinning both addresses, as tenant churn does, costs two address
/// lookups; one leaving an address free admits every host it matches.
fn overlapped_keys(space: &HeaderSpace, topology: &Topology) -> Vec<VerdictKey> {
    let mut keys = Vec::new();
    for cube in space.cubes() {
        let sources = admitted(topology, cube, Field::IpSrc);
        if sources.is_empty() {
            continue;
        }
        let destinations = admitted(topology, cube, Field::IpDst);
        let owners = distinct(destinations.iter().map(|d| d.owner));
        for source in &sources {
            keys.push(VerdictKey::Emission(source.owner, source.id));
            let others = owners.iter().filter(|owner| **owner != source.owner);
            keys.extend(others.map(|owner| VerdictKey::Inbound(*owner, source.id)));
        }
        let addresses = distinct(destinations.iter().map(|d| d.ip));
        for sender in distinct(sources.iter().map(|s| s.owner)) {
            keys.extend(addresses.iter().map(|ip| VerdictKey::Path(sender, *ip)));
        }
    }
    distinct(keys)
}

/// `items` ascending, each once.
fn distinct<T: Ord>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut items: Vec<T> = items.into_iter().collect();
    items.sort_unstable();
    items.dedup();
    items
}

/// The hosts whose address `cube` admits in the address field `field`.
fn admitted<'t>(topology: &'t Topology, cube: &Cube, field: Field) -> Vec<&'t Host> {
    match cube
        .field_exact(field)
        .and_then(|ip| u32::try_from(ip).ok())
    {
        Some(ip) => topology.hosts_with_ip(ip).collect(),
        None => topology
            .hosts()
            .filter(|h| cube.overlaps(&Cube::wildcard().with_field(field, u64::from(h.ip))))
            .collect(),
    }
}

/// A selection of exactly `keys`, as a carry would name them.
#[cfg(test)]
impl FromIterator<VerdictKey> for AffectedQueries {
    fn from_iter<I: IntoIterator<Item = VerdictKey>>(iter: I) -> Self {
        AffectedQueries {
            everything: false,
            keys: iter.into_iter().collect(),
        }
    }
}
