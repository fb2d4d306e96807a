//! The retired interest index, kept only because the stand-alone
//! `benchmark/` package's ladder measures it (`core.interest_*` rows) with
//! four calls — [`InterestIndex::new`], [`register`](InterestIndex::register),
//! [`deregister`](InterestIndex::deregister) and
//! [`affected`](InterestIndex::affected) — and deleted once a re-baseline of
//! `benchmark/` drops those rows. It is a set of registered standing
//! queries over one topology, and [`affected`](InterestIndex::affected)
//! filters that set through [`query_affected`], the linear reference, so
//! the rows time the reference.
//!
//! Nothing in the service plane registers anything in it: which verdicts a
//! publish may have changed is read off the traversal memo's carry
//! ([`TraversalMemo::carry`](crate::TraversalMemo::carry) and
//! [`AffectedQueries`](crate::AffectedQueries)), because the keys a verdict
//! reads are a static function of `(client, spec, topology)`. The carry
//! never selects beyond `query_affected` on a bounded region no walk was
//! cut on (`crates/integration/tests/cross_crate_properties.rs` checks it).

use std::collections::BTreeSet;

use rvaas_client::QuerySpec;
use rvaas_topology::Topology;
use rvaas_types::ClientId;

use crate::incremental::{query_affected, ChangedRegion};

/// The identity of one standing query in the index.
type QueryKey = (ClientId, QuerySpec);

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

/// The standing queries registered over one topology. Not internally
/// synchronised.
#[derive(Debug)]
pub struct InterestIndex {
    topology: Topology,
    interests: BTreeSet<QueryKey>,
}

impl InterestIndex {
    /// An empty index over `topology`.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        InterestIndex {
            topology,
            interests: BTreeSet::new(),
        }
    }

    /// Registers `(client, spec)`. Idempotent. Returns `true` when the query
    /// was newly registered.
    pub fn register(&mut self, client: ClientId, spec: &QuerySpec) -> bool {
        self.interests.insert((client, spec.clone()))
    }

    /// Removes `(client, spec)` from the index. Returns `true` when it was
    /// registered.
    pub fn deregister(&mut self, client: ClientId, spec: &QuerySpec) -> bool {
        self.interests.remove(&(client, spec.clone()))
    }

    /// Selects the registered queries `region` can affect, without mutating
    /// the index: those [`query_affected`] names. Conservative regions
    /// select everything. On a topology without hosts every registered
    /// query matches any non-empty region: without deployment knowledge no
    /// query can be soundly skipped.
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
        let hostless = self.topology.host_count() == 0;
        let keys = self
            .interests
            .iter()
            .filter(|(client, spec)| {
                hostless || query_affected(&self.topology, *client, spec, region)
            })
            .cloned()
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
    use rvaas_types::{Field, PortId, SwitchId};

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
