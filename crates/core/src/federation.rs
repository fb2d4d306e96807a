//! Multi-provider federation (paper Section IV-C-a).
//!
//! "While we have described our architecture for a single-provider setting,
//! in principle, our approach can also be used across multiple providers. In
//! this case, queries need to be propagated between the RVaaS servers of the
//! respective providers." A federated query walks an ordered chain of
//! provider domains, asks each domain's verifier the same question about the
//! client's traffic, and combines the answers; the trust set grows by one
//! RVaaS server per domain.

use rvaas_client::{EndpointReport, QueryResult, QuerySpec};
use rvaas_types::{ClientId, ProviderId};

use crate::snapshot::NetworkSnapshot;
use crate::verify::LogicalVerifier;

/// One provider domain participating in a federated query.
#[derive(Debug)]
pub struct ProviderDomain {
    /// The provider's identifier.
    pub provider: ProviderId,
    /// The domain's verifier (trusted topology + configuration).
    pub verifier: LogicalVerifier,
    /// The domain's current snapshot.
    pub snapshot: NetworkSnapshot,
}

/// The combined answer of a federated query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FederatedAnswer {
    /// Providers that contributed (and therefore must be trusted).
    pub trust_set: Vec<ProviderId>,
    /// Union of regions traversed across all domains.
    pub regions: Vec<String>,
    /// Union of endpoints reachable across all domains.
    pub endpoints: Vec<EndpointReport>,
}

/// Runs a federated geo-location + reachability query for `client` across the
/// provider `chain`, in order. Each domain answers both questions on one
/// evaluator, so they share its emission traversals.
#[must_use]
pub fn federated_query(chain: &[ProviderDomain], client: ClientId) -> FederatedAnswer {
    let mut answer = FederatedAnswer::default();
    for domain in chain {
        answer.trust_set.push(domain.provider);
        let mut evaluator = domain.verifier.evaluator(&domain.snapshot);
        if let QueryResult::Regions { regions } = evaluator.answer(client, &QuerySpec::GeoLocation)
        {
            answer.regions.extend(regions);
        }
        if let QueryResult::Endpoints { endpoints } =
            evaluator.answer(client, &QuerySpec::ReachableDestinations)
        {
            for endpoint in endpoints {
                if !answer.endpoints.iter().any(|e| e.ip == endpoint.ip) {
                    answer.endpoints.push(endpoint);
                }
            }
        }
    }
    answer.regions.sort();
    answer.regions.dedup();
    answer.endpoints.sort_by_key(|e| e.ip);
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{LocationMap, VerifierConfig};
    use rvaas_controlplane::benign_rules;
    use rvaas_topology::generators;
    use rvaas_types::SimTime;

    fn domain(provider: u32, switches: usize, seed_offset: u32) -> ProviderDomain {
        // Each provider runs an independent line topology; host IPs differ by
        // construction only through the generator, so provider 2 re-uses the
        // same address plan — representative of separate address domains.
        let _ = seed_offset;
        let topo = generators::line(switches, 1);
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(&topo) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let verifier = LogicalVerifier::new(
            topo.clone(),
            VerifierConfig {
                use_history: false,
                locations: LocationMap::disclosed(&topo),
            },
        );
        ProviderDomain {
            provider: ProviderId(provider),
            verifier,
            snapshot,
        }
    }

    #[test]
    fn federated_query_unions_results_and_grows_trust_set() {
        let chain = vec![domain(1, 3, 0), domain(2, 5, 100)];
        let answer = federated_query(&chain, ClientId(1));
        assert_eq!(answer.trust_set, vec![ProviderId(1), ProviderId(2)]);
        // The 5-switch domain traverses more regions than the 3-switch one;
        // the union contains at least the regions of the larger domain.
        let single = federated_query(&chain[1..], ClientId(1));
        for region in &single.regions {
            assert!(answer.regions.contains(region));
        }
        assert!(!answer.endpoints.is_empty());

        // Exactly: the sorted, de-duplicated union of each domain's regions,
        // and the union by ip of each domain's reachable destinations.
        let mut regions: Vec<String> = Vec::new();
        let mut endpoints: Vec<EndpointReport> = Vec::new();
        for domain in &chain {
            let ask = |spec| domain.verifier.answer(&domain.snapshot, ClientId(1), &spec);
            let QueryResult::Regions { regions: own } = ask(QuerySpec::GeoLocation) else {
                unreachable!("keyed by kind");
            };
            regions.extend(own);
            let QueryResult::Endpoints { endpoints: own } = ask(QuerySpec::ReachableDestinations)
            else {
                unreachable!("keyed by kind");
            };
            for endpoint in own {
                if !endpoints.iter().any(|e| e.ip == endpoint.ip) {
                    endpoints.push(endpoint);
                }
            }
        }
        regions.sort();
        regions.dedup();
        endpoints.sort_by_key(|e| e.ip);
        assert_eq!(answer.regions, regions);
        assert_eq!(answer.endpoints, endpoints);
        assert_eq!((answer.regions.len(), answer.endpoints.len()), (4, 5));
    }

    #[test]
    fn empty_chain_yields_empty_answer() {
        let answer = federated_query(&[], ClientId(1));
        assert!(answer.trust_set.is_empty());
        assert!(answer.regions.is_empty());
        assert!(answer.endpoints.is_empty());
    }
}
