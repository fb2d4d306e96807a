//! The retired interest-space index, kept only because the stand-alone
//! `benchmark/` package's ladder measures it (`core.interest_*` rows) with
//! four calls — [`InterestIndex::new`], [`register`](InterestIndex::register),
//! [`deregister`](InterestIndex::deregister) and
//! [`affected`](InterestIndex::affected) — and deleted once a re-baseline of
//! `benchmark/` drops those rows. Nothing in the service plane registers
//! anything in it: which verdicts a publish may have changed is read off
//! the traversal memo's carry
//! ([`TraversalMemo::carry`](crate::TraversalMemo::carry) and
//! [`AffectedQueries`](crate::AffectedQueries)), because the keys a verdict
//! reads are a static function of `(client, spec, topology)`. Like this
//! index, the carry never selects beyond
//! [`query_affected`](crate::incremental::query_affected), the linear
//! reference both are held to, on a bounded region no walk was cut on
//! (`crates/integration/tests/cross_crate_properties.rs` checks it).
//!
//! What it does: an [`InterestIndex`] holds one class-default interest per
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
//! (space overlap, and for neutrality the access switches), so bucketing
//! only ever *over*-selects.
//!
//! [`Cube`]: rvaas_hsa::Cube

use std::collections::{BTreeMap, BTreeSet};

use rvaas_client::QuerySpec;
use rvaas_hsa::HeaderSpace;
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, SwitchId};

use crate::incremental::{emission_space_of, inbound_space_of, ChangedRegion};

/// The identity of one standing query in the index.
type QueryKey = (ClientId, QuerySpec);

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

/// The registered interest of one standing query.
#[derive(Debug, Clone, PartialEq)]
struct QueryInterest {
    /// Header-space interest (the class-default injected space). `None` for
    /// space-insensitive queries (neutrality) and for conservative interests
    /// registered without topology knowledge: any non-empty region matches.
    space: Option<HeaderSpace>,
    /// Switch footprint; `None` = unbounded (affected by a change on any
    /// switch the space test admits).
    switches: Option<BTreeSet<SwitchId>>,
}

/// The class-default interest of `(client, spec)` over `topology`: precisely
/// the spaces [`query_affected`](crate::incremental::query_affected) tests,
/// with an unbounded switch footprint — so the index selects exactly the
/// linear scan's affected set.
///
/// A topology without hosts yields a conservative interest (`space = None`,
/// every change matches): without deployment knowledge no query can be
/// soundly skipped.
fn default_interest(topology: &Topology, client: ClientId, spec: &QuerySpec) -> QueryInterest {
    if topology.host_count() == 0 {
        return QueryInterest {
            space: None,
            switches: None,
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
    QueryInterest { space, switches }
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

    /// Whether `(client, spec)` must re-verify.
    #[must_use]
    pub fn is_affected(&self, client: ClientId, spec: &QuerySpec) -> bool {
        self.all || self.keys.contains(&(client, spec.clone()))
    }
}

/// Bucket key of one interest cube: each component is `Some(v)` when the
/// cube fixes every bit of the field to `v`, `None` otherwise.
type BucketKey = (Option<u64>, Option<u64>);

/// The interest-space index mapping header-space regions to the standing
/// queries they can affect. Not internally synchronised.
#[derive(Debug)]
pub struct InterestIndex {
    topology: Topology,
    interests: BTreeMap<QueryKey, QueryInterest>,
    /// Inverted index: interest-cube bucket -> queries holding such a cube.
    buckets: BTreeMap<BucketKey, BTreeSet<QueryKey>>,
}

impl InterestIndex {
    /// An empty index over `topology`.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        InterestIndex {
            topology,
            interests: BTreeMap::new(),
            buckets: BTreeMap::new(),
        }
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

    /// Registers `(client, spec)` with its class-default interest. Idempotent.
    /// Returns `true` when the query was newly registered.
    pub fn register(&mut self, client: ClientId, spec: &QuerySpec) -> bool {
        let key: QueryKey = (client, spec.clone());
        if self.interests.contains_key(&key) {
            return false;
        }
        let interest = default_interest(&self.topology, client, spec);
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
        if region.conservative {
            return IndexSelection {
                all: true,
                keys: BTreeSet::new(),
            };
        }
        if region.is_empty() {
            return IndexSelection::default();
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
        let keys = candidates
            .into_iter()
            .filter(|key| Self::interest_affected(&self.interests[key], region))
            .collect();
        IndexSelection { all: false, keys }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{query_affected, IncrementalModel, RuleChange};
    use crate::snapshot::NetworkSnapshot;
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
    fn register_deregister_roundtrip() {
        let topology = generators::line(4, 2);
        let mut index = InterestIndex::new(topology.clone());
        let client = ClientId(1);
        let spec = QuerySpec::ReachableDestinations;
        assert!(index.register(client, &spec));
        assert!(!index.register(client, &spec), "idempotent");
        assert_eq!(index.interests.len(), 1);
        assert!(index.deregister(client, &spec));
        assert!(!index.deregister(client, &spec));
        assert!(index.interests.is_empty());
        assert!(index.buckets.is_empty(), "buckets fully cleaned");
    }

    #[test]
    fn default_interests_match_the_linear_scan() {
        let topology = generators::line(4, 2);
        let mut index = InterestIndex::new(topology.clone());
        let keys = register_all(&mut index, &topology);

        let c1_ip = topology.hosts_of_client(ClientId(1))[0].ip;
        let mut model =
            IncrementalModel::from_snapshot(topology.clone(), &NetworkSnapshot::default());
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
    fn topology_free_registrations_are_conservative() {
        let mut index = InterestIndex::new(Topology::new());
        let client = ClientId(1);
        let spec = QuerySpec::ReachableDestinations;
        index.register(client, &spec);
        let topology = generators::line(3, 1);
        let c1_ip = topology.hosts_of_client(client)[0].ip;
        let mut model = IncrementalModel::from_snapshot(topology, &NetworkSnapshot::default());
        let region = model.apply(&[RuleChange::installed(
            SwitchId(2),
            tenant_rule(c1_ip ^ 7, c1_ip ^ 9, 2),
        )]);
        assert!(
            index.affected(&region).is_affected(client, &spec),
            "without deployment knowledge every change matches"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Across random rule churn and query populations, the index
        /// selects exactly the linear scan's affected set.
        #[test]
        fn prop_indexed_affected_matches_linear_scan(
            ops in proptest::collection::vec((0u32..6, 0u32..6, 1u32..4, any::<bool>()), 1..12)
        ) {
            let topology = generators::line(3, 2);
            let ips: Vec<u32> = topology.hosts().map(|h| h.ip).collect();
            let mut index = InterestIndex::new(topology.clone());
            let keys = register_all(&mut index, &topology);
            let empty = NetworkSnapshot::default();
            let mut model = IncrementalModel::from_snapshot(topology.clone(), &empty);
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
