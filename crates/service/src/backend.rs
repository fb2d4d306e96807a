//! The adapter plugging the service plane into the RVaaS controller.
//!
//! [`ServiceBackend`] implements [`rvaas::AnalysisBackend`]: the controller
//! publishes every snapshot change as a new epoch and answers each query
//! through the service's one evaluation path — the epoch's frozen function,
//! its traversal memo and the result cache — instead of rebuilding the model
//! per query in the simulation event handler.

use rvaas::{AnalysisBackend, NetworkSnapshot};
use rvaas_client::{QueryResult, QuerySpec};
use rvaas_types::{ClientId, SimTime};

use crate::config::ServiceConfig;
use crate::pool::VerificationService;

/// Minimum simulated time between controller-driven epoch publishes.
/// Publishing an epoch costs a full snapshot clone + diff, so doing it on
/// *every* monitor event would make churn quadratic again; suppressed
/// publishes set `dirty` and are caught up lazily at query time, which
/// keeps answers exact.
const MIN_PUBLISH_INTERVAL: SimTime = SimTime::from_millis(1);

/// An [`AnalysisBackend`] backed by a [`VerificationService`].
#[derive(Debug)]
pub struct ServiceBackend {
    service: VerificationService,
    last_published_at: Option<SimTime>,
    dirty: bool,
}

impl ServiceBackend {
    /// Starts a service plane over `topology` and wraps it as a backend.
    #[must_use]
    pub fn new(topology: rvaas_topology::Topology, config: ServiceConfig) -> Self {
        Self::from_service(VerificationService::new(topology, config))
    }

    /// Wraps an already running service.
    #[must_use]
    pub fn from_service(service: VerificationService) -> Self {
        ServiceBackend {
            service,
            last_published_at: None,
            dirty: false,
        }
    }

    /// The underlying service (stats, sync store, direct queries).
    #[must_use]
    pub fn service(&self) -> &VerificationService {
        &self.service
    }

    fn publish_now(&mut self, snapshot: &NetworkSnapshot, at: SimTime) {
        // The controller-facing trait is infallible, and a simulation cannot
        // exhaust the u64 serial space.
        self.service
            .try_publish(snapshot, at)
            .expect("epoch publish rejected");
        self.last_published_at = Some(at);
        self.dirty = false;
    }
}

impl AnalysisBackend for ServiceBackend {
    fn publish(&mut self, snapshot: &NetworkSnapshot, at: SimTime) {
        let due = match self.last_published_at {
            None => true,
            Some(last) => at >= last + MIN_PUBLISH_INTERVAL,
        };
        if due {
            self.publish_now(snapshot, at);
        } else {
            self.dirty = true;
        }
    }

    fn answer(
        &mut self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
        spec: &QuerySpec,
    ) -> QueryResult {
        // Catch up before answering: a query may arrive before the first
        // monitor event, or after publishes the debounce suppressed.
        let epoch = self.service.store().current();
        if epoch.serial == 0 || self.dirty || epoch.snapshot.last_update() < snapshot.last_update()
        {
            self.publish_now(snapshot, snapshot.last_update());
        }
        self.service
            .try_query(client, spec.clone())
            .expect("answering on the calling thread cannot fail")
            .result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceSettings;
    use rvaas::{InlineBackend, LocationMap, LogicalVerifier, VerifierConfig};
    use rvaas_controlplane::benign_rules;
    use rvaas_topology::generators;

    #[test]
    fn service_backend_agrees_with_inline_backend() {
        let topology = generators::line(6, 2);
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(&topology) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let verifier_config = VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&topology),
        };
        let mut inline = InlineBackend::new(LogicalVerifier::new(
            topology.clone(),
            verifier_config.clone(),
        ));
        let mut service = ServiceBackend::new(
            topology.clone(),
            ServiceSettings::default().into_config(verifier_config),
        );
        for client in [ClientId(1), ClientId(2)] {
            for spec in [
                QuerySpec::ReachableDestinations,
                QuerySpec::ReachingSources,
                QuerySpec::Isolation,
                QuerySpec::GeoLocation,
                QuerySpec::Neutrality,
            ] {
                assert_eq!(
                    service.answer(&snapshot, client, &spec),
                    inline.answer(&snapshot, client, &spec),
                    "backends diverged on {client:?}/{spec:?}"
                );
            }
        }
        // The lazy catch-up publish happened exactly once.
        assert_eq!(service.service().stats().epochs_published, 1);
    }

    #[test]
    fn publish_debounce_bounds_epochs_but_queries_stay_exact() {
        let topology = generators::line(4, 2);
        let verifier_config = VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&topology),
        };
        let mut backend = ServiceBackend::new(
            topology.clone(),
            ServiceSettings::default().into_config(verifier_config.clone()),
        );
        // A burst of monitor events within one debounce window publishes
        // once, not once per event.
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (i, (switch, entry)) in benign_rules(&topology).into_iter().enumerate() {
            let at = SimTime::from_micros(i as u64);
            snapshot.record_installed(switch, entry, at);
            backend.publish(&snapshot, at);
        }
        assert_eq!(backend.service().stats().epochs_published, 1);

        // The suppressed publishes are caught up before answering, so the
        // result matches an inline verifier over the full snapshot.
        let verifier = LogicalVerifier::new(topology, verifier_config);
        assert_eq!(
            backend.answer(&snapshot, ClientId(1), &QuerySpec::Isolation),
            verifier.answer(&snapshot, ClientId(1), &QuerySpec::Isolation),
        );
        assert_eq!(backend.service().stats().epochs_published, 2);

        // Once simulated time has moved past the window, an event publishes
        // at once again.
        backend.publish(&snapshot, SimTime::from_millis(2));
        assert_eq!(backend.service().stats().epochs_published, 3);
    }
}
