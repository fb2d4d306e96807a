//! The retired interest-space index, kept only because the stand-alone
//! `benchmark/` package's ladder measures it (`core.interest_*` rows); it is
//! deleted once a re-baseline of `benchmark/` drops those rows. Nothing in
//! the service plane registers, refines or advances it: which verdicts a
//! publish may have changed is read off the traversal memo's carry
//! ([`TraversalMemo::carry`](crate::TraversalMemo::carry) and
//! [`AffectedQueries`](crate::AffectedQueries)), because the keys a verdict
//! reads are a static function of `(client, spec, topology)`. Like this
//! index, the carry never selects beyond
//! [`query_affected`](crate::incremental::query_affected), the linear
//! reference both are held to, on a bounded region no walk was cut on
//! (`crates/integration/tests/cross_crate_properties.rs` checks it).
//!
//! What it did: an [`InterestIndex`] holds one [`QueryInterest`] per
//! registered standing query and an inverted index over the cube structure
//! of the interest spaces, so a changed region maps to its affected queries
//! in `O(region cubes · bucket probes + candidates)`.
//!
//! # How the index is keyed
//!
//! Every interest space is a union of [`Cube`]s. The verifier pins the fields
//! that identify a tenant — the source address for emission spaces, the
//! destination address for inbound spaces, both for path-length interests —
//! so each cube is bucketed under `(src, dst)` where each component is
//! `Some(value)` when the cube fixes every bit of that field and `None`
//! otherwise. A changed-region cube probes the compatible buckets: when the
//! region pins both fields that is four `BTreeMap` probes; a region cube
//! that leaves a field unpinned degrades to a contiguous range scan of the
//! buckets on the other field. Candidates then confirm with the exact test
//! (space overlap and footprint-switch intersection), so bucketing only
//! ever *over*-selects.
//!
//! # Footprints and the widen-then-refine race protocol
//!
//! A registered query carries its class-default interest with an
//! *unbounded* switch footprint, which [`refine`](InterestIndex::refine)
//! narrows to the switches an evaluation visited.
//! [`advance`](InterestIndex::advance) widens every affected query back to
//! unbounded and stamps it with the new serial; a refinement carrying an
//! older serial is ignored.
//!
//! [`Cube`]: rvaas_hsa::Cube

use std::collections::{BTreeMap, BTreeSet};

use rvaas_client::QuerySpec;
use rvaas_hsa::HeaderSpace;
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, SwitchId};

use crate::incremental::{emission_space_of, inbound_space_of, ChangedRegion};

/// The identity of one standing query in the index.
pub type QueryKey = (ClientId, QuerySpec);

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

    /// Folds another footprint into this one (union; unbounded absorbs).
    pub fn merge(&mut self, other: &QueryFootprint) {
        match (&mut self.switches, &other.switches) {
            (Some(mine), Some(theirs)) => mine.extend(theirs.iter().copied()),
            _ => self.switches = None,
        }
    }
}

/// The registered interest of one standing query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryInterest {
    /// Header-space interest (the class-default injected space). `None` for
    /// space-insensitive queries (neutrality) and for conservative interests
    /// registered without topology knowledge: any non-empty region matches.
    ///
    /// This never changes after registration — bucket keys stay stable and
    /// footprint refinement only narrows [`switches`](Self::switches).
    space: Option<HeaderSpace>,
    /// Switch footprint; `None` = unbounded (affected by a change on any
    /// switch the space test admits).
    switches: Option<BTreeSet<SwitchId>>,
    /// Footprint refinements carrying a serial below this are stale.
    min_serial: u64,
}

/// The class-default interest of `(client, spec)` over `topology`: precisely
/// the spaces [`query_affected`](crate::incremental::query_affected) tests,
/// with an unbounded switch footprint — so an index holding only default
/// interests selects exactly the linear scan's affected set.
///
/// A topology without hosts yields a conservative interest (`space = None`,
/// every change matches): without deployment knowledge no query can be
/// soundly skipped.
#[must_use]
pub fn default_interest(topology: &Topology, client: ClientId, spec: &QuerySpec) -> QueryInterest {
    if topology.host_count() == 0 {
        return QueryInterest {
            space: None,
            switches: None,
            min_serial: 0,
        };
    }
    let (space, switches) = match spec {
        QuerySpec::ReachableDestinations | QuerySpec::GeoLocation => {
            (Some(emission_space_of(topology, client)), None)
        }
        QuerySpec::ReachingSources => (Some(inbound_space_of(topology, client)), None),
        QuerySpec::Isolation => (
            Some(emission_space_of(topology, client).union(&inbound_space_of(topology, client))),
            None,
        ),
        QuerySpec::PathLength { to_ip } => {
            let interest: HeaderSpace = topology
                .hosts_of_client(client)
                .iter()
                .map(|h| {
                    rvaas_hsa::Cube::wildcard()
                        .with_field(Field::IpSrc, u64::from(h.ip))
                        .with_field(Field::IpDst, u64::from(*to_ip))
                })
                .collect();
            (Some(interest), None)
        }
        // Neutrality inspects delivery rules on access switches, not header
        // traversals: space-insensitive, pinned to the access switches.
        QuerySpec::Neutrality => {
            let access: BTreeSet<SwitchId> =
                topology.hosts().map(|h| h.attachment.switch).collect();
            (None, Some(access))
        }
    };
    QueryInterest {
        space,
        switches,
        min_serial: 0,
    }
}

/// The affected-query selection of one changed region: either an exact set of
/// registered query keys, or "everything" (conservative region — unregistered
/// queries included).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexSelection {
    all: bool,
    keys: BTreeSet<QueryKey>,
}

impl IndexSelection {
    /// Every query — registered or not — must be treated as affected.
    #[must_use]
    pub fn everything() -> Self {
        IndexSelection {
            all: true,
            keys: BTreeSet::new(),
        }
    }

    /// True when every query must re-verify (conservative selection).
    #[must_use]
    pub fn is_everything(&self) -> bool {
        self.all
    }

    /// True when no query is affected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.all && self.keys.is_empty()
    }

    /// Number of exactly selected keys (0 under [`is_everything`](Self::is_everything)).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether `(client, spec)` must re-verify.
    #[must_use]
    pub fn is_affected(&self, client: ClientId, spec: &QuerySpec) -> bool {
        self.all || self.keys.contains(&(client, spec.clone()))
    }

    /// The exactly selected keys (empty under `is_everything`).
    #[must_use]
    pub fn keys(&self) -> &BTreeSet<QueryKey> {
        &self.keys
    }

    /// Folds another selection into this one (used when a lagging client
    /// aggregates several epochs' deltas: the union of per-epoch selections
    /// is exactly the set of queries whose verdict may have moved anywhere in
    /// the window).
    pub fn merge(&mut self, other: &IndexSelection) {
        self.all |= other.all;
        if self.all {
            self.keys.clear();
        } else {
            self.keys.extend(other.keys.iter().cloned());
        }
    }
}

impl FromIterator<QueryKey> for IndexSelection {
    fn from_iter<I: IntoIterator<Item = QueryKey>>(iter: I) -> Self {
        IndexSelection {
            all: false,
            keys: iter.into_iter().collect(),
        }
    }
}

/// Bucket key of one interest cube: each component is `Some(v)` when the
/// cube fixes every bit of the field to `v`, `None` otherwise.
type BucketKey = (Option<u64>, Option<u64>);

/// What [`InterestIndex::refine`] did with a footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refinement {
    /// The interest now carries the footprint.
    Accepted,
    /// The footprint predates the interest's widen stamp and was dropped.
    Stale,
    /// The query is not registered; nothing to refine.
    Unregistered,
}

/// What one [`InterestIndex::advance`] selected and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advance {
    /// The affected queries (all of them confirmed by the exact test).
    pub affected: IndexSelection,
    /// Interests widened back to an unbounded footprint: the selected ones,
    /// or every registered one under a conservative region.
    pub widened: usize,
    /// Bucket candidates the exact test rejected.
    pub rejected: usize,
}

/// The interest-space index mapping header-space regions to the standing
/// queries they can affect. Not internally synchronised — the service plane
/// wraps it in a mutex inside the `EpochStore` and serialises
/// [`advance`](Self::advance) under the publish lock.
#[derive(Debug)]
pub struct InterestIndex {
    topology: Topology,
    interests: BTreeMap<QueryKey, QueryInterest>,
    /// Inverted index: interest-cube bucket -> queries holding such a cube.
    buckets: BTreeMap<BucketKey, BTreeSet<QueryKey>>,
    /// Serial of the last `advance`; fresh registrations are stamped with it
    /// (a footprint captured before registration proves nothing).
    serial: u64,
}

impl InterestIndex {
    /// An empty index over `topology`.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        InterestIndex {
            topology,
            interests: BTreeMap::new(),
            buckets: BTreeMap::new(),
            serial: 0,
        }
    }

    /// Replaces the deployment knowledge the default interests are derived
    /// from. Existing registrations keep their interests (they were sound
    /// when registered); callers attach the topology before registering.
    pub fn set_topology(&mut self, topology: Topology) {
        self.topology = topology;
    }

    /// The trusted topology the index derives default interests from.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Registered standing queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.interests.len()
    }

    /// True when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.interests.is_empty()
    }

    /// True when `(client, spec)` is registered.
    #[must_use]
    pub fn contains(&self, client: ClientId, spec: &QuerySpec) -> bool {
        self.interests.contains_key(&(client, spec.clone()))
    }

    /// Bucket keys of one interest: one per interest cube, or the wildcard
    /// bucket for space-insensitive / conservative interests.
    fn bucket_keys(interest: &QueryInterest) -> BTreeSet<BucketKey> {
        match &interest.space {
            None => [(None, None)].into_iter().collect(),
            Some(space) => space
                .cubes()
                .iter()
                .map(|cube| {
                    (
                        cube.field_exact(Field::IpSrc),
                        cube.field_exact(Field::IpDst),
                    )
                })
                .collect(),
        }
    }

    /// Registers `(client, spec)` with its class-default interest. Idempotent
    /// — re-registering an existing query keeps its (possibly refined)
    /// interest. Returns `true` when the query was newly registered.
    pub fn register(&mut self, client: ClientId, spec: &QuerySpec) -> bool {
        let key: QueryKey = (client, spec.clone());
        if self.interests.contains_key(&key) {
            return false;
        }
        let mut interest = default_interest(&self.topology, client, spec);
        // A footprint can only prove unaffectedness for epochs it has seen:
        // stamp fresh registrations with the current serial so refinements
        // captured against older epochs are rejected.
        interest.min_serial = self.serial;
        for bucket in Self::bucket_keys(&interest) {
            self.buckets.entry(bucket).or_default().insert(key.clone());
        }
        self.interests.insert(key, interest);
        true
    }

    /// Removes `(client, spec)` from the index. Returns `true` when it was
    /// registered.
    pub fn deregister(&mut self, client: ClientId, spec: &QuerySpec) -> bool {
        let key: QueryKey = (client, spec.clone());
        let Some(interest) = self.interests.remove(&key) else {
            return false;
        };
        for bucket in Self::bucket_keys(&interest) {
            if let Some(set) = self.buckets.get_mut(&bucket) {
                set.remove(&key);
                if set.is_empty() {
                    self.buckets.remove(&bucket);
                }
            }
        }
        true
    }

    /// Narrows the switch footprint of `(client, spec)` to what an evaluation
    /// against epoch `serial` actually traversed. Ignored when the query is
    /// unregistered or the footprint is stale (`serial` below the interest's
    /// widen stamp — see the module docs for the race protocol); the return
    /// value says which.
    pub fn refine(
        &mut self,
        client: ClientId,
        spec: &QuerySpec,
        serial: u64,
        footprint: &QueryFootprint,
    ) -> Refinement {
        let key: QueryKey = (client, spec.clone());
        let Some(interest) = self.interests.get_mut(&key) else {
            return Refinement::Unregistered;
        };
        if serial < interest.min_serial {
            return Refinement::Stale;
        }
        interest.switches = footprint.switches.clone();
        Refinement::Accepted
    }

    /// The exact affected test of one interest against a (non-conservative,
    /// non-empty) region.
    fn interest_affected(interest: &QueryInterest, region: &ChangedRegion) -> bool {
        let space_hit = match &interest.space {
            None => true,
            Some(space) => region.space.overlaps(space),
        };
        if !space_hit {
            return false;
        }
        match &interest.switches {
            None => true,
            Some(footprint) => region.switches.iter().any(|s| footprint.contains(s)),
        }
    }

    /// All bucketed candidates a region cube with the given exact fields can
    /// affect. A bucket is compatible when each of its components is a
    /// wildcard, the region's is, or the values agree.
    fn collect_candidates(&self, src: Option<u64>, dst: Option<u64>, out: &mut BTreeSet<QueryKey>) {
        if let (Some(s), Some(d)) = (src, dst) {
            // Both fields pinned — the tenant-churn common case. Exactly four
            // buckets are compatible, each a point probe, so the lookup cost
            // is independent of the registered-query population.
            for key in [
                (None, None),
                (None, Some(d)),
                (Some(s), None),
                (Some(s), Some(d)),
            ] {
                if let Some(set) = self.buckets.get(&key) {
                    out.extend(set.iter().cloned());
                }
            }
            return;
        }
        let dst_compatible = |bucket_dst: &Option<u64>| match (bucket_dst, dst) {
            (None, _) | (_, None) => true,
            (Some(b), Some(r)) => *b == r,
        };
        match src {
            Some(v) => {
                // Two contiguous key ranges: src-wildcard buckets and
                // src == v buckets ((None, _) sorts before every (Some, _)).
                let ranges = [
                    self.buckets.range((None, None)..(Some(0), None)),
                    self.buckets
                        .range((Some(v), None)..=(Some(v), Some(u64::MAX))),
                ];
                for range in ranges {
                    for (key, set) in range {
                        if dst_compatible(&key.1) {
                            out.extend(set.iter().cloned());
                        }
                    }
                }
            }
            None => {
                for (key, set) in &self.buckets {
                    if dst_compatible(&key.1) {
                        out.extend(set.iter().cloned());
                    }
                }
            }
        }
    }

    /// Selects the registered queries `region` can affect, without mutating
    /// the index. Conservative regions select everything.
    #[must_use]
    pub fn affected(&self, region: &ChangedRegion) -> IndexSelection {
        self.select(region).0
    }

    /// The selection of [`affected`](Self::affected), plus how many bucket
    /// candidates the exact test rejected.
    fn select(&self, region: &ChangedRegion) -> (IndexSelection, usize) {
        if region.conservative {
            return (IndexSelection::everything(), 0);
        }
        if region.is_empty() {
            return (IndexSelection::default(), 0);
        }
        let mut candidates: BTreeSet<QueryKey> = BTreeSet::new();
        // The wildcard bucket hosts the space-insensitive interests
        // (neutrality, conservative registrations); a region whose space is
        // empty but whose switch set is not (a fully shadowed rule change)
        // must still reach them.
        if let Some(set) = self.buckets.get(&(None, None)) {
            candidates.extend(set.iter().cloned());
        }
        let mut swept_all = false;
        for cube in region.space.cubes() {
            let src = cube.field_exact(Field::IpSrc);
            let dst = cube.field_exact(Field::IpDst);
            if src.is_none() && dst.is_none() {
                // A fully-wild region cube is compatible with every bucket;
                // one full sweep covers all such cubes.
                if swept_all {
                    continue;
                }
                swept_all = true;
            }
            self.collect_candidates(src, dst, &mut candidates);
        }
        let mut affected = IndexSelection::default();
        let mut rejected = 0;
        for key in candidates {
            let interest = &self.interests[&key];
            if Self::interest_affected(interest, region) {
                affected.keys.insert(key);
            } else {
                rejected += 1;
            }
        }
        (affected, rejected)
    }

    /// The publish-path entry point: selects the affected queries, widens
    /// each back to an unbounded footprint stamped with `serial`, records
    /// `serial` as the index's current epoch and says what it did. Must run
    /// before the new epoch becomes visible to evaluators (the service calls
    /// it under the publish lock) so no refinement captured against the new
    /// epoch can be invalidated by this widen.
    pub fn advance(&mut self, serial: u64, region: &ChangedRegion) -> Advance {
        let (affected, rejected) = self.select(region);
        let mut widened = 0;
        if affected.all {
            for interest in self.interests.values_mut() {
                interest.switches = None;
                interest.min_serial = serial;
                widened += 1;
            }
        } else {
            for key in &affected.keys {
                if let Some(interest) = self.interests.get_mut(key) {
                    interest.switches = None;
                    interest.min_serial = serial;
                    widened += 1;
                }
            }
        }
        self.serial = self.serial.max(serial);
        Advance {
            affected,
            widened,
            rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{query_affected, IncrementalModel, RuleChange};
    use proptest::prelude::*;
    use rvaas_openflow::{Action, FlowEntry, FlowMatch};
    use rvaas_topology::generators;
    use rvaas_types::{PortId, SwitchId};

    fn tenant_rule(src: u32, dst: u32, out: u32) -> FlowEntry {
        FlowEntry::new(
            400,
            FlowMatch::from_ip(src).field(Field::IpDst, u64::from(dst)),
            vec![Action::Output(PortId(out))],
        )
    }

    fn all_specs(topology: &Topology) -> Vec<QuerySpec> {
        let some_ip = topology.hosts().next().map_or(0, |h| h.ip);
        vec![
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip: some_ip },
            QuerySpec::PathLength { to_ip: 0xdead_beef },
            QuerySpec::Neutrality,
        ]
    }

    fn clients(topology: &Topology) -> Vec<ClientId> {
        let mut ids: Vec<ClientId> = topology.hosts().map(|h| h.owner).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    fn register_all(index: &mut InterestIndex, topology: &Topology) -> Vec<QueryKey> {
        let mut keys = Vec::new();
        for client in clients(topology) {
            for spec in all_specs(topology) {
                index.register(client, &spec);
                keys.push((client, spec));
            }
        }
        keys
    }

    #[test]
    fn register_refine_deregister_roundtrip() {
        let topology = generators::line(4, 2);
        let mut index = InterestIndex::new(topology.clone());
        let client = ClientId(1);
        let spec = QuerySpec::ReachableDestinations;
        assert!(index.register(client, &spec));
        assert!(!index.register(client, &spec), "idempotent");
        assert!(index.contains(client, &spec));
        assert_eq!(index.len(), 1);
        let footprint = QueryFootprint::bounded([SwitchId(1)].into_iter().collect());
        assert_eq!(
            index.refine(client, &spec, 0, &footprint),
            Refinement::Accepted
        );
        assert!(index.deregister(client, &spec));
        assert!(!index.deregister(client, &spec));
        assert_eq!(
            index.refine(client, &spec, 0, &footprint),
            Refinement::Unregistered
        );
        assert!(index.is_empty());
        assert!(index.buckets.is_empty(), "buckets fully cleaned");
    }

    #[test]
    fn default_interests_match_the_linear_scan() {
        let topology = generators::line(4, 2);
        let mut index = InterestIndex::new(topology.clone());
        let keys = register_all(&mut index, &topology);

        let c1_ip = topology.hosts_of_client(ClientId(1))[0].ip;
        let mut model = IncrementalModel::new(topology.clone());
        let region = model.apply(&[RuleChange::installed(
            SwitchId(2),
            tenant_rule(c1_ip, c1_ip ^ 1, 2),
        )]);

        let affected = index.affected(&region);
        assert!(!affected.is_everything());
        for (client, spec) in &keys {
            assert_eq!(
                affected.is_affected(*client, spec),
                query_affected(&topology, *client, spec, &region),
                "index/linear divergence for {client:?} {spec:?}"
            );
        }
        assert!(!affected.is_empty(), "client 1's queries are affected");
    }

    #[test]
    fn conservative_and_empty_regions() {
        let topology = generators::line(3, 1);
        let mut index = InterestIndex::new(topology.clone());
        register_all(&mut index, &topology);
        let everything = index.affected(&ChangedRegion::everything());
        assert!(everything.is_everything());
        assert!(everything.is_affected(ClientId(99), &QuerySpec::Isolation));
        let nothing = index.affected(&ChangedRegion::default());
        assert!(nothing.is_empty());
        assert!(!nothing.is_affected(ClientId(1), &QuerySpec::Isolation));
    }

    #[test]
    fn footprint_refinement_narrows_the_affected_set() {
        let topology = generators::line(4, 2);
        let mut index = InterestIndex::new(topology.clone());
        let client = ClientId(1);
        let spec = QuerySpec::ReachableDestinations;
        index.register(client, &spec);

        let c1_ip = topology.hosts_of_client(client)[0].ip;
        let mut model = IncrementalModel::new(topology.clone());
        let region = model.apply(&[RuleChange::installed(
            SwitchId(2),
            tenant_rule(c1_ip, c1_ip ^ 1, 2),
        )]);
        assert!(index.affected(&region).is_affected(client, &spec));

        // A footprint that never touches switch 2 rules the change out even
        // though the spaces overlap.
        index.refine(
            client,
            &spec,
            0,
            &QueryFootprint::bounded([SwitchId(1), SwitchId(4)].into_iter().collect()),
        );
        assert!(!index.affected(&region).is_affected(client, &spec));
        // ...and one that does touch it keeps the query selected.
        index.refine(
            client,
            &spec,
            0,
            &QueryFootprint::bounded([SwitchId(2)].into_iter().collect()),
        );
        assert!(index.affected(&region).is_affected(client, &spec));
    }

    #[test]
    fn advance_widens_and_rejects_stale_refinements() {
        let topology = generators::line(4, 2);
        let mut index = InterestIndex::new(topology.clone());
        let client = ClientId(1);
        let spec = QuerySpec::ReachableDestinations;
        index.register(client, &spec);

        let c1_ip = topology.hosts_of_client(client)[0].ip;
        let mut model = IncrementalModel::new(topology.clone());
        let region = model.apply(&[RuleChange::installed(
            SwitchId(2),
            tenant_rule(c1_ip, c1_ip ^ 1, 2),
        )]);

        // Publish of serial 5 widens the affected interest...
        let advance = index.advance(5, &region);
        assert!(advance.affected.is_affected(client, &spec));
        assert_eq!((advance.widened, advance.rejected), (1, 0));
        // ...so a footprint captured against serial 4 (before the change) is
        // stale and must not narrow it...
        let elsewhere = QueryFootprint::bounded([SwitchId(1)].into_iter().collect());
        assert_eq!(
            index.refine(client, &spec, 4, &elsewhere),
            Refinement::Stale
        );
        assert!(index.affected(&region).is_affected(client, &spec));
        // ...while one captured against the new epoch is accepted.
        assert_eq!(
            index.refine(client, &spec, 5, &elsewhere),
            Refinement::Accepted
        );
        assert!(!index.affected(&region).is_affected(client, &spec));
        // The narrowed query is still a candidate, now rejected.
        assert_eq!(index.advance(6, &region).rejected, 1);
    }

    #[test]
    fn fresh_registrations_reject_pre_registration_footprints() {
        let topology = generators::line(4, 2);
        let mut index = InterestIndex::new(topology.clone());
        index.advance(7, &ChangedRegion::default());
        let client = ClientId(1);
        let spec = QuerySpec::ReachableDestinations;
        index.register(client, &spec);
        // An evaluation that ran against epoch 3 proves nothing about the
        // epochs between 3 and 7 the query was not registered for.
        index.refine(client, &spec, 3, &QueryFootprint::bounded(BTreeSet::new()));
        let c1_ip = topology.hosts_of_client(client)[0].ip;
        let mut model = IncrementalModel::new(topology.clone());
        let region = model.apply(&[RuleChange::installed(
            SwitchId(2),
            tenant_rule(c1_ip, c1_ip ^ 1, 2),
        )]);
        assert!(
            index.affected(&region).is_affected(client, &spec),
            "stale footprint must not stick to a fresh registration"
        );
    }

    #[test]
    fn topology_free_registrations_are_conservative() {
        let mut index = InterestIndex::new(Topology::new());
        let client = ClientId(1);
        let spec = QuerySpec::ReachableDestinations;
        index.register(client, &spec);
        let topology = generators::line(3, 1);
        let c1_ip = topology.hosts_of_client(client)[0].ip;
        let mut model = IncrementalModel::new(topology);
        let region = model.apply(&[RuleChange::installed(
            SwitchId(2),
            tenant_rule(c1_ip ^ 7, c1_ip ^ 9, 2),
        )]);
        assert!(
            index.affected(&region).is_affected(client, &spec),
            "without deployment knowledge every change matches"
        );
    }

    #[test]
    fn affected_queries_merge_unions_and_saturates() {
        let mut a: IndexSelection = [(ClientId(1), QuerySpec::Isolation)].into_iter().collect();
        let b: IndexSelection = [(ClientId(2), QuerySpec::Neutrality)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!(a.is_affected(ClientId(2), &QuerySpec::Neutrality));
        a.merge(&IndexSelection::everything());
        assert!(a.is_everything());
        assert!(a.is_affected(ClientId(3), &QuerySpec::GeoLocation));
        assert_eq!(a.len(), 0, "everything drops the materialised keys");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The satellite equivalence property: across random rule churn and
        /// query populations, the index with default interests selects
        /// exactly the linear scan's affected set, and footprint-refined
        /// interests select a subset of it (soundness of the refinement is
        /// separately guaranteed by the evaluator's footprint capture, gated
        /// in the service crate's proptests).
        #[test]
        fn prop_indexed_affected_matches_linear_scan(
            ops in proptest::collection::vec((0u32..6, 0u32..6, 1u32..4, any::<bool>()), 1..12)
        ) {
            let topology = generators::line(3, 2);
            let ips: Vec<u32> = topology.hosts().map(|h| h.ip).collect();
            let mut index = InterestIndex::new(topology.clone());
            let keys = register_all(&mut index, &topology);
            let mut model = IncrementalModel::new(topology.clone());
            for (src, dst, sw, install) in ops {
                let entry = tenant_rule(
                    ips[src as usize % ips.len()],
                    ips[dst as usize % ips.len()],
                    2,
                );
                let change = if install {
                    RuleChange::installed(SwitchId(sw), entry)
                } else {
                    RuleChange::removed(SwitchId(sw), entry)
                };
                let region = model.apply(std::slice::from_ref(&change));
                let affected = index.affected(&region);
                for (client, spec) in &keys {
                    let linear = query_affected(&topology, *client, spec, &region);
                    prop_assert_eq!(
                        affected.is_affected(*client, spec),
                        linear,
                        "divergence for {:?} {:?} on region {:?}",
                        client, spec, region
                    );
                }
            }
        }
    }
}
