//! The seam between the controller and whatever answers logical queries.
//!
//! The original controller answered every query inline from its event
//! handler, rebuilding the HSA model per query. [`AnalysisBackend`]
//! decouples the two: the controller publishes snapshot updates and submits
//! queries; the backend decides how to answer them. [`InlineBackend`] keeps
//! the original single-threaded in-process behaviour; the `rvaas-service`
//! crate provides a multi-threaded service-plane backend with epoch
//! snapshots, an epoch-wide traversal memo, result caching and delta-based
//! client sync.

use rvaas_client::{QueryResult, QuerySpec};
use rvaas_types::{ClientId, SimTime};

use crate::snapshot::NetworkSnapshot;
use crate::verify::LogicalVerifier;

/// Answers logical queries on behalf of the RVaaS controller.
pub trait AnalysisBackend {
    /// Notifies the backend that the monitor's belief changed. Backends that
    /// maintain their own state (epoch stores, caches) ingest the new
    /// snapshot here; the inline backend ignores it.
    fn publish(&mut self, snapshot: &NetworkSnapshot, at: SimTime);

    /// Answers `spec` for `client` against the controller's current belief.
    ///
    /// `snapshot` is the monitor's live snapshot at the moment the query
    /// arrived; backends with their own published state may answer from
    /// their most recent epoch instead.
    fn answer(
        &mut self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
        spec: &QuerySpec,
    ) -> QueryResult;
}

/// The original in-process backend: every query is answered synchronously
/// from the live snapshot by a [`LogicalVerifier`].
#[derive(Debug)]
pub struct InlineBackend {
    verifier: LogicalVerifier,
}

impl InlineBackend {
    /// Wraps a verifier as a backend.
    #[must_use]
    pub fn new(verifier: LogicalVerifier) -> Self {
        InlineBackend { verifier }
    }

    /// The wrapped verifier.
    #[must_use]
    pub fn verifier(&self) -> &LogicalVerifier {
        &self.verifier
    }
}

impl AnalysisBackend for InlineBackend {
    fn publish(&mut self, _snapshot: &NetworkSnapshot, _at: SimTime) {}

    fn answer(
        &mut self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
        spec: &QuerySpec,
    ) -> QueryResult {
        self.verifier.answer(snapshot, client, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{LocationMap, VerifierConfig};
    use rvaas_controlplane::benign_rules;
    use rvaas_topology::generators;

    #[test]
    fn inline_backend_matches_direct_verifier_answers() {
        let topo = generators::line(4, 2);
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(&topo) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let config = VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&topo),
        };
        let verifier = LogicalVerifier::new(topo.clone(), config.clone());
        let mut backend = InlineBackend::new(LogicalVerifier::new(topo, config));
        backend.publish(&snapshot, SimTime::from_millis(2));
        for spec in [
            QuerySpec::ReachableDestinations,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
        ] {
            assert_eq!(
                backend.answer(&snapshot, ClientId(1), &spec),
                verifier.answer(&snapshot, ClientId(1), &spec),
            );
        }
    }
}
