//! The server side of the RTR-style delta-sync protocol.
//!
//! Each [`SyncServer`] speaks for the epoch store of the
//! [`VerificationService`] every call is handed, under a random-ish session
//! id (clients detect a restarted server by the id changing and fall back to
//! a reset). Clients register *standing queries*; when a delta invalidates
//! the published state, the server re-verifies the affected ones at the new
//! epoch — on the session's own thread, as one batch through the service's
//! query path and its cache — and ships the refreshed results inside the
//! delta, so clients do not need a follow-up query round.
//!
//! "Affected" comes from the traversal memo's carry: each published epoch
//! stores, in its delta, the verdict keys its change may have altered
//! ([`rvaas::AffectedQueries`]), and a served delta re-verifies the client's
//! subscriptions that read a key of the window's union. A subscription's
//! keys are a static function of `(client, spec, topology)`, so subscribing
//! registers nothing outside the session.
//!
//! The server's one lock is its session table's. A serial the store shows
//! always has its delta and its provenance record, so the fan-out a served
//! delta records there is exact.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use rvaas::AffectedQueries;
use rvaas_client::QuerySpec;
use rvaas_client::{
    decode_inband, InbandMessage, ReverifiedQuery, SyncPayload, SyncRequest, SyncResponse,
};
use rvaas_telemetry::{Counter, Histogram, Registry, TraceContext, TraceStage};
use rvaas_types::ClientId;

use crate::error::ServiceError;
use crate::pool::VerificationService;

/// Per-client server-side session state.
#[derive(Debug, Default)]
struct ClientSession {
    /// Standing queries to re-verify when the state changes.
    subscriptions: BTreeSet<QuerySpec>,
}

/// A point-in-time copy of the reverification counters — a thin snapshot
/// view over the shared metric registry (`rvaas_reverified_total` /
/// `rvaas_reverify_skipped_total`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReverifyStats {
    /// Standing queries re-verified inside deltas.
    pub reverified: u64,
    /// Standing queries skipped because the delta could not affect them.
    pub skipped: u64,
}

/// Answers [`SyncRequest`]s from the epoch store.
#[derive(Debug)]
pub struct SyncServer {
    session_id: u16,
    sessions: Mutex<BTreeMap<ClientId, ClientSession>>,
    reverified: Arc<Counter>,
    skipped: Arc<Counter>,
    reverify_latency: Arc<Histogram>,
}

impl SyncServer {
    /// Creates a server with the given session id (must be non-zero:
    /// clients use session 0 to mean "no session yet"), counting into
    /// `registry` (typically the owning service's, so one scrape covers
    /// both). It serves the store of the service each call is handed.
    #[must_use]
    pub fn new(session_id: u16, registry: &Registry) -> Self {
        SyncServer {
            session_id: session_id.max(1),
            sessions: Mutex::new(BTreeMap::new()),
            reverified: registry.counter(
                "rvaas_reverified_total",
                "Standing queries re-verified inside sync deltas.",
            ),
            skipped: registry.counter(
                "rvaas_reverify_skipped_total",
                "Standing queries skipped because the delta could not affect them.",
            ),
            reverify_latency: registry.stage_histogram("sync.reverify"),
        }
    }

    /// Standing-query reverification activity so far.
    #[must_use]
    pub fn reverify_stats(&self) -> ReverifyStats {
        ReverifyStats {
            reverified: self.reverified.get(),
            skipped: self.skipped.get(),
        }
    }

    /// The server's session id.
    #[must_use]
    pub fn session_id(&self) -> u16 {
        self.session_id
    }

    /// Registers a standing query for `client`, to be re-verified inside
    /// every delta that may have changed its verdict.
    pub fn subscribe(&self, client: ClientId, spec: QuerySpec) {
        self.sessions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(client)
            .or_default()
            .subscriptions
            .insert(spec);
    }

    /// Answers one raw sync frame, as read off a TCP connection: decodes the
    /// in-band message, dispatches it, and encodes the response.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::VersionMismatch`] when the peer speaks an
    /// unsupported sync-protocol major version (the daemon answers with a
    /// `SyncReject`), [`ServiceError::Codec`] for undecodable bytes or a
    /// message that is not a [`SyncRequest`], and propagates
    /// [`SyncServer::try_handle`] failures.
    pub fn handle_frame(
        &self,
        service: &VerificationService,
        frame: &[u8],
    ) -> Result<Vec<u8>, ServiceError> {
        match decode_inband(frame)? {
            InbandMessage::SyncRequest(request) => Ok(self.try_handle(service, &request)?.encode()),
            other => Err(ServiceError::Codec(rvaas_types::Error::codec(format!(
                "sync endpoint expects a SyncRequest, got {other:?}"
            )))),
        }
    }

    /// Answers one sync request. `service` is consulted to re-verify the
    /// client's standing queries when a delta is served.
    ///
    /// # Errors
    ///
    /// Propagates whatever re-verifying the client's standing queries
    /// reports (nothing today, see [`VerificationService::try_query`]).
    pub fn try_handle(
        &self,
        service: &VerificationService,
        request: &SyncRequest,
    ) -> Result<SyncResponse, ServiceError> {
        // The sync endpoint is this request's ingress: mint the trace here
        // (default-on) and echo it in the response's trailing field.
        let trace = TraceContext::mint();
        trace.event(
            TraceStage::IngressSync,
            u64::from(request.client.0),
            request.have_serial,
        );
        let store = service.store();
        let current = store.current();
        // A client with no state, from another session, or whose serial the
        // history no longer covers gets the full digest set.
        let needs_reset = request.session != self.session_id || request.have_serial == 0;
        let delta = if needs_reset {
            None
        } else {
            store.delta_between(request.have_serial, current.serial)
        };
        let payload = match delta {
            None => SyncPayload::Reset {
                full: current.rules.to_vec(),
            },
            Some(delta) if delta.is_empty() => SyncPayload::Unchanged,
            Some(delta) => {
                let reverified = self.reverify(service, request.client, &delta.affected, trace)?;
                // The exact fan-out this session observed, folded into the
                // served epoch's provenance record.
                let fan_out = reverified.len() as u64;
                trace.event(TraceStage::Reverify, current.serial, fan_out);
                store.record_reverify(current.serial, fan_out);
                SyncPayload::Delta {
                    added: delta.added,
                    removed: delta.removed,
                    reverified,
                }
            }
        };
        Ok(SyncResponse {
            session: self.session_id,
            serial: current.serial,
            payload,
            trace: trace.id.0,
        })
    }

    fn reverify(
        &self,
        service: &VerificationService,
        client: ClientId,
        affected: &AffectedQueries,
        trace: TraceContext,
    ) -> Result<Vec<ReverifiedQuery>, ServiceError> {
        let _span = self.reverify_latency.span_traced(trace.id);
        // The affected-set test: the window's stored per-epoch selections,
        // unioned by `delta_between`, read as the specs of this client they
        // name and intersected with its subscriptions. Unselected standing
        // queries provably kept their verdict and are skipped entirely (not
        // even a cache lookup), and serving a delta walks the (small)
        // selection, not the subscription set: O(affected) even at large
        // standing-query populations.
        let (total, workload): (u64, Vec<(ClientId, QuerySpec)>) = {
            let sessions = self
                .sessions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let Some(session) = sessions.get(&client) else {
                return Ok(Vec::new());
            };
            let subs = &session.subscriptions;
            let workload = if affected.is_everything() {
                subs.iter().map(|spec| (client, spec.clone())).collect()
            } else {
                affected
                    .specs_of(client)
                    .into_iter()
                    .filter(|spec| subs.contains(spec))
                    .map(|spec| (client, spec))
                    .collect()
            };
            (subs.len() as u64, workload)
        };
        self.reverified.add(workload.len() as u64);
        self.skipped.add(total - workload.len() as u64);
        // One batch: the whole reverify set shares one epoch and one
        // evaluator session, on this thread.
        Ok(service
            .try_query_all(&workload)?
            .into_iter()
            .map(|response| ReverifiedQuery {
                spec: response.spec,
                result: response.result,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::MAX_DELTA_HISTORY;
    use rvaas::NetworkSnapshot;
    use rvaas_client::{QueryResult, SyncSession};
    use rvaas_controlplane::benign_rules;
    use rvaas_openflow::{Action, FlowEntry, FlowMatch};
    use rvaas_topology::generators;
    use rvaas_types::{SimTime, SwitchId};

    fn setup() -> (VerificationService, SyncServer, NetworkSnapshot) {
        let topology = generators::line(4, 2);
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(&topology) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let service = VerificationService::new(topology, true);
        publish(&service, &snapshot, 1);
        let server = SyncServer::new(42, &service.registry());
        (service, server, snapshot)
    }

    fn churn(snapshot: &mut NetworkSnapshot, round: u32) {
        snapshot.record_installed(
            SwitchId(1),
            FlowEntry::new(3, FlowMatch::to_ip(0x2000 + round), vec![Action::Drop]),
            SimTime::from_millis(u64::from(10 + round)),
        );
    }

    fn publish(service: &VerificationService, snapshot: &NetworkSnapshot, millis: u64) {
        service
            .try_publish(snapshot, SimTime::from_millis(millis))
            .unwrap();
    }

    /// What `server` answers to `session`'s next request as `client`.
    fn serve(
        server: &SyncServer,
        service: &VerificationService,
        session: &SyncSession,
        client: ClientId,
    ) -> SyncResponse {
        server
            .try_handle(service, &session.request(client))
            .unwrap()
    }

    fn assert_mirrors(session: &SyncSession, service: &VerificationService) {
        let epoch = service.store().current();
        assert_eq!(session.digests(), &epoch.rules);
    }

    #[test]
    fn fresh_client_resets_then_rides_deltas() {
        let (service, server, mut snapshot) = setup();
        let mut session = SyncSession::new();
        let client = ClientId(1);

        let response = serve(&server, &service, &session, client);
        assert!(matches!(response.payload, SyncPayload::Reset { .. }));
        session.apply(&response).unwrap();
        assert_eq!(session.serial(), service.current_serial());
        assert_mirrors(&session, &service);

        // No change: unchanged.
        let response = serve(&server, &service, &session, client);
        assert_eq!(response.payload, SyncPayload::Unchanged);
        session.apply(&response).unwrap();

        // One change: a delta that brings the mirror up to date.
        churn(&mut snapshot, 1);
        publish(&service, &snapshot, 11);
        let response = serve(&server, &service, &session, client);
        assert!(matches!(response.payload, SyncPayload::Delta { .. }));
        session.apply(&response).unwrap();
        assert_eq!(session.serial(), service.current_serial());
        assert_mirrors(&session, &service);
    }

    #[test]
    fn evicted_history_falls_back_to_reset() {
        let (service, server, mut snapshot) = setup();
        let mut session = SyncSession::new();
        let client = ClientId(1);
        session
            .apply(&serve(&server, &service, &session, client))
            .unwrap();
        let old_serial = session.serial();

        // Churn past the retained delta window.
        for round in 0..=MAX_DELTA_HISTORY as u32 {
            churn(&mut snapshot, round);
            publish(&service, &snapshot, u64::from(20 + round));
        }
        assert!(service
            .store()
            .delta_between(old_serial, service.current_serial())
            .is_none());
        let response = serve(&server, &service, &session, client);
        assert!(
            matches!(response.payload, SyncPayload::Reset { .. }),
            "evicted history must force a reset"
        );
        session.apply(&response).unwrap();
        assert_mirrors(&session, &service);
    }

    #[test]
    fn session_mismatch_forces_reset() {
        let (service, server, _snapshot) = setup();
        let mut session = SyncSession::new();
        session
            .apply(&serve(&server, &service, &session, ClientId(1)))
            .unwrap();
        // A server restart shows up as a new session id.
        let restarted = SyncServer::new(43, &service.registry());
        let response = serve(&restarted, &service, &session, ClientId(1));
        assert!(matches!(response.payload, SyncPayload::Reset { .. }));
        assert_eq!(response.session, 43);
    }

    #[test]
    fn deltas_reverify_subscribed_queries() {
        let (service, server, mut snapshot) = setup();
        let client = ClientId(1);
        server.subscribe(client, QuerySpec::Isolation);
        let mut session = SyncSession::new();
        session
            .apply(&serve(&server, &service, &session, client))
            .unwrap();

        churn(&mut snapshot, 1);
        publish(&service, &snapshot, 11);
        let response = serve(&server, &service, &session, client);
        let SyncPayload::Delta { reverified, .. } = &response.payload else {
            panic!("expected a delta, got {response:?}");
        };
        assert_eq!(reverified.len(), 1);
        assert_eq!(reverified[0].spec, QuerySpec::Isolation);
        assert!(matches!(
            reverified[0].result,
            QueryResult::IsolationStatus { .. }
        ));

        // The response echoes its flight-recorder trace, whose chain shows
        // the ingress and the exact reverification fan-out...
        assert_ne!(response.trace, 0, "sync ingress mints a trace");
        let chain =
            rvaas_telemetry::trace::recorder().chain(rvaas_telemetry::TraceId(response.trace));
        assert!(chain
            .iter()
            .any(|e| e.stage == rvaas_telemetry::TraceStage::IngressSync && e.a == 1));
        assert!(chain
            .iter()
            .any(|e| e.stage == rvaas_telemetry::TraceStage::Reverify
                && e.a == response.serial
                && e.b == 1));
        // ...and the served epoch's provenance accumulates that fan-out.
        let prov = service
            .store()
            .provenance(response.serial)
            .expect("fresh epoch has provenance");
        assert_eq!(prov.reverified, 1);
        assert_eq!(prov.reverify_sessions, 1);
    }

    #[test]
    fn unaffected_standing_queries_are_skipped() {
        let (service, server, mut snapshot) = setup();
        // line(4,2): client 1 owns hosts 1 and 3, client 2 owns 2 and 4.
        let c1_ips: Vec<u32> = service
            .topology()
            .hosts_of_client(ClientId(1))
            .iter()
            .map(|h| h.ip)
            .collect();
        server.subscribe(ClientId(1), QuerySpec::Isolation);
        server.subscribe(ClientId(2), QuerySpec::Isolation);
        let mut session1 = SyncSession::new();
        let mut session2 = SyncSession::new();
        session1
            .apply(&serve(&server, &service, &session1, ClientId(1)))
            .unwrap();
        session2
            .apply(&serve(&server, &service, &session2, ClientId(2)))
            .unwrap();

        // Churn pinned to client 1's own (src, dst) pair: client 2's
        // isolation verdict provably cannot change.
        snapshot.record_installed(
            SwitchId(2),
            FlowEntry::new(
                400,
                FlowMatch::from_ip(c1_ips[0])
                    .field(rvaas_types::Field::IpDst, u64::from(c1_ips[1])),
                vec![Action::Drop],
            ),
            SimTime::from_millis(20),
        );
        publish(&service, &snapshot, 20);

        let response1 = serve(&server, &service, &session1, ClientId(1));
        let SyncPayload::Delta { reverified, .. } = &response1.payload else {
            panic!("expected a delta for client 1, got {response1:?}");
        };
        assert_eq!(reverified.len(), 1, "client 1's own traffic changed");

        let response2 = serve(&server, &service, &session2, ClientId(2));
        let SyncPayload::Delta { reverified, .. } = &response2.payload else {
            panic!("expected a delta for client 2, got {response2:?}");
        };
        assert!(
            reverified.is_empty(),
            "client 2 must be skipped, got {reverified:?}"
        );
        let stats = server.reverify_stats();
        assert_eq!(stats.reverified, 1);
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn delta_transfers_fewer_bytes_than_reset_under_small_churn() {
        let (service, server, mut snapshot) = setup();
        let client = ClientId(1);
        let mut session = SyncSession::new();
        session
            .apply(&serve(&server, &service, &session, client))
            .unwrap();
        let rule_count = session.digests().len();

        // ~10% churn.
        let changes = (rule_count / 10).max(1) as u32;
        for round in 0..changes {
            churn(&mut snapshot, round);
        }
        publish(&service, &snapshot, 30);

        let delta_response = serve(&server, &service, &session, client);
        assert!(matches!(delta_response.payload, SyncPayload::Delta { .. }));
        let reset_equivalent = SyncResponse {
            session: delta_response.session,
            serial: delta_response.serial,
            payload: SyncPayload::Reset {
                full: service.store().current().rules.iter().copied().collect(),
            },
            trace: 0,
        };
        assert!(
            delta_response.encoded_len() < reset_equivalent.encoded_len(),
            "delta ({} B) must be smaller than a full resend ({} B)",
            delta_response.encoded_len(),
            reset_equivalent.encoded_len()
        );
        session.apply(&delta_response).unwrap();
        assert_mirrors(&session, &service);
    }

    #[test]
    fn undecodable_frames_are_typed_codec_errors() {
        let (service, server, _snapshot) = setup();
        assert!(matches!(
            server.handle_frame(&service, b"\xffnot a sync frame"),
            Err(ServiceError::Codec(_))
        ));
        assert!(matches!(
            server.handle_frame(&service, &[]),
            Err(ServiceError::Codec(_))
        ));
        // A well-formed in-band message of the wrong kind is rejected the
        // same way, not dispatched.
        let stray = rvaas_client::AuthRequest {
            query: rvaas_types::QueryId(1),
            nonce: 2,
            requester: rvaas_types::ClientId(3),
        };
        assert!(matches!(
            server.handle_frame(&service, &stray.encode()),
            Err(ServiceError::Codec(_))
        ));
    }

    #[test]
    fn unsupported_sync_version_is_a_structured_mismatch() {
        let (service, server, _snapshot) = setup();
        let mut frame = SyncSession::new()
            .request(rvaas_types::ClientId(1))
            .encode();
        frame[1] = 0xf0; // foreign major version in the version byte
        let err = server.handle_frame(&service, &frame).unwrap_err();
        let ServiceError::VersionMismatch { supported, got } = err else {
            panic!("expected a version mismatch, got {err:?}");
        };
        assert_eq!(supported, rvaas_client::SYNC_PROTOCOL_VERSION);
        assert_eq!(got, 0xf0);
    }
}
