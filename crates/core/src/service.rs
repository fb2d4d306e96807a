//! The RVaaS controller: the stand-alone verification controller tying the
//! monitor, the verifier and the in-band client protocol together.
//!
//! The controller is an ordinary [`ControllerApp`]: it connects to every
//! switch alongside the provider's controller, installs its high-priority
//! interception rules for the magic client headers, keeps its snapshot
//! up to date from monitor notifications and (randomised) polls, and services
//! client queries exactly as Figures 1 and 2 of the paper describe — query
//! Packet-In, logical analysis, authentication Packet-Outs, authentication
//! reply Packet-Ins, and a final signed reply Packet-Out.

use std::collections::BTreeMap;

use rvaas_client::{
    auth_request_packet, decode_inband, reply_packet, AuthReply, AuthRequest, EndpointReport,
    InbandMessage, QueryReply, QueryRequest, QueryResult, AUTH_PORT, QUERY_PORT, RVAAS_SERVICE_IP,
};
use rvaas_crypto::{Keypair, PublicKey};
use rvaas_netsim::{ControllerApp, ControllerContext};
use rvaas_openflow::{Action, ControllerRole, FlowEntry, FlowMatch, FlowModCommand, Message};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, Header, PortId, QueryId, SimTime, SwitchId, SwitchPort};

use crate::backend::{AnalysisBackend, InlineBackend};
use crate::monitor::{ConfigMonitor, MonitorConfig};
use crate::verify::{LocationMap, LogicalVerifier, VerifierConfig};

/// Priority of the RVaaS interception rules — above everything the provider
/// (or the adversary) installs, so client queries always reach the
/// controller. The paper's trust model allows this because the initial switch
/// configuration is trusted and the RVaaS channel is authenticated.
pub const INTERCEPT_PRIORITY: u16 = 1000;

const TOKEN_POLL: u64 = 0;
const TOKEN_AUTH_BASE: u64 = 1_000_000;

/// Configuration of the RVaaS controller.
#[derive(Debug, Clone)]
pub struct RvaasConfig {
    /// The trusted wiring plan, host registry and switch locations.
    pub topology: Topology,
    /// Monitoring configuration (passive/active, history window).
    pub monitor: MonitorConfig,
    /// Verification configuration (history mode, location knowledge).
    pub verifier: VerifierConfig,
    /// How long to wait for authentication replies before answering anyway.
    pub auth_timeout: SimTime,
}

impl RvaasConfig {
    /// Creates a configuration with sensible defaults: passive monitoring
    /// with randomised polling, disclosed switch locations, 5 ms auth
    /// timeout.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        let locations = LocationMap::disclosed(&topology);
        RvaasConfig {
            topology,
            monitor: MonitorConfig::default(),
            verifier: VerifierConfig {
                use_history: false,
                locations,
            },
            auth_timeout: SimTime::from_millis(5),
        }
    }
}

/// Counters describing the controller's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RvaasStats {
    /// Queries received (valid signature or not).
    pub queries_received: u64,
    /// Queries answered with a signed reply.
    pub queries_answered: u64,
    /// Queries rejected (bad signature, unknown client, malformed).
    pub queries_rejected: u64,
    /// Authentication requests sent via Packet-Out.
    pub auth_requests_sent: u64,
    /// Valid, signed authentication replies received.
    pub auth_replies_received: u64,
    /// Authentication replies discarded (bad signature / unknown responder).
    pub auth_replies_invalid: u64,
    /// Packet-Out messages sent (auth requests + replies).
    pub packet_outs_sent: u64,
    /// Interception rules installed at start-up.
    pub intercept_rules_installed: u64,
}

struct PendingQuery {
    id: QueryId,
    nonce: u64,
    reply_ip: u32,
    reply_port: SwitchPort,
    result: QueryResult,
    /// Candidate endpoints awaiting authentication, keyed by host IP.
    awaiting: BTreeMap<u32, bool>,
    auth_nonce: u64,
    auth_sent: u32,
}

/// The RVaaS verification controller.
pub struct RvaasController {
    config: RvaasConfig,
    monitor: ConfigMonitor,
    backend: Box<dyn AnalysisBackend>,
    keypair: Keypair,
    client_keys: BTreeMap<ClientId, PublicKey>,
    pending: Vec<PendingQuery>,
    next_query: u32,
    stats: RvaasStats,
}

impl RvaasController {
    /// Creates a controller with the given configuration and signing key,
    /// answering queries inline from the live snapshot (the original
    /// single-threaded behaviour).
    #[must_use]
    pub fn new(config: RvaasConfig, keypair: Keypair) -> Self {
        let verifier = LogicalVerifier::new(config.topology.clone(), config.verifier.clone());
        Self::with_backend(config, keypair, Box::new(InlineBackend::new(verifier)))
    }

    /// Creates a controller that delegates logical analysis to an explicit
    /// [`AnalysisBackend`] — e.g. the `rvaas-service` service plane. The backend receives every snapshot change via
    /// [`AnalysisBackend::publish`] and answers queries on demand.
    #[must_use]
    pub fn with_backend(
        config: RvaasConfig,
        keypair: Keypair,
        backend: Box<dyn AnalysisBackend>,
    ) -> Self {
        let monitor = ConfigMonitor::new(config.monitor);
        RvaasController {
            config,
            monitor,
            backend,
            keypair,
            client_keys: BTreeMap::new(),
            pending: Vec::new(),
            next_query: 1,
            stats: RvaasStats::default(),
        }
    }

    /// Registers a client's verification key (client enrolment).
    pub fn register_client(&mut self, client: ClientId, key: PublicKey) {
        self.client_keys.insert(client, key);
    }

    /// The controller's verification key, to be distributed to clients (e.g.
    /// inside an attestation quote).
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public_key()
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> RvaasStats {
        self.stats
    }

    /// The configuration monitor (exposed for experiments measuring snapshot
    /// divergence and monitoring load).
    #[must_use]
    pub fn monitor(&self) -> &ConfigMonitor {
        &self.monitor
    }

    /// The interception flow entries RVaaS installs on every switch.
    #[must_use]
    pub fn interception_rules() -> Vec<FlowEntry> {
        let base = FlowMatch::any()
            .field(Field::EthType, u64::from(Header::ETH_IPV4))
            .field(Field::IpProto, u64::from(Header::PROTO_UDP))
            .field(Field::IpDst, u64::from(RVAAS_SERVICE_IP));
        vec![
            FlowEntry::new(
                INTERCEPT_PRIORITY,
                base.clone().field(Field::L4Dst, u64::from(QUERY_PORT)),
                vec![Action::OutputController],
            ),
            FlowEntry::new(
                INTERCEPT_PRIORITY,
                base.field(Field::L4Dst, u64::from(AUTH_PORT)),
                vec![Action::OutputController],
            ),
        ]
    }

    fn schedule_poll(&mut self, ctx: &mut ControllerContext) {
        if let Some(delay) = self.monitor.next_poll_delay() {
            ctx.schedule(delay, TOKEN_POLL);
        }
    }

    fn handle_packet_in(
        &mut self,
        switch: SwitchId,
        in_port: PortId,
        payload: &[u8],
        ctx: &mut ControllerContext,
    ) {
        let Ok(message) = decode_inband(payload) else {
            return;
        };
        match message {
            InbandMessage::Query(request) => {
                self.handle_query(switch, in_port, request, ctx);
            }
            InbandMessage::AuthReply(reply) => self.handle_auth_reply(&reply, ctx),
            InbandMessage::AuthRequest(_)
            | InbandMessage::Reply(_)
            | InbandMessage::SyncRequest(_)
            | InbandMessage::SyncResponse(_)
            | InbandMessage::SyncReject(_) => {}
        }
    }

    fn handle_query(
        &mut self,
        switch: SwitchId,
        in_port: PortId,
        request: QueryRequest,
        ctx: &mut ControllerContext,
    ) {
        self.stats.queries_received += 1;
        let reply_port = SwitchPort::new(switch, in_port);
        // The reply goes back to the host attached at the ingress port; its
        // address comes from the trusted topology, not from the (spoofable)
        // packet source field.
        let reply_ip = self.config.topology.host_at(reply_port).map_or(0, |h| h.ip);

        let authorized = self
            .client_keys
            .get(&request.client)
            .is_some_and(|key| {
                let signed =
                    QueryRequest::signed_bytes(request.client, request.nonce, &request.spec);
                key.verify(&signed, &request.signature)
            })
            // The request point must actually belong to the claiming client.
            && self
                .config
                .topology
                .host_at(reply_port)
                .is_some_and(|h| h.owner == request.client);

        let id = QueryId(self.next_query);
        self.next_query += 1;

        if !authorized {
            self.stats.queries_rejected += 1;
            let result = QueryResult::Rejected {
                reason: "client authentication failed".to_string(),
            };
            let pending = PendingQuery {
                id,
                nonce: request.nonce,
                reply_ip,
                reply_port,
                result,
                awaiting: BTreeMap::new(),
                auth_nonce: 0,
                auth_sent: 0,
            };
            self.send_reply(pending, ctx);
            return;
        }

        let result = self
            .backend
            .answer(self.monitor.snapshot(), request.client, &request.spec);

        // Endpoint-bearing results go through the in-band authentication
        // round (Figures 1 and 2); everything else is answered directly.
        let candidates: Vec<EndpointReport> = match &result {
            QueryResult::Endpoints { endpoints } => endpoints.clone(),
            QueryResult::Sources { sources } => sources.clone(),
            QueryResult::IsolationStatus {
                foreign_endpoints, ..
            } => foreign_endpoints.clone(),
            _ => Vec::new(),
        };

        let mut pending = PendingQuery {
            id,
            nonce: request.nonce,
            reply_ip,
            reply_port,
            result,
            awaiting: BTreeMap::new(),
            auth_nonce: u64::from(id.0) << 16 | u64::from(request.client.0),
            auth_sent: 0,
        };

        if candidates.is_empty() {
            self.send_reply(pending, ctx);
            return;
        }

        for candidate in &candidates {
            let Some(host) = self.config.topology.host_by_ip(candidate.ip) else {
                continue;
            };
            let auth = AuthRequest {
                query: id,
                nonce: pending.auth_nonce,
                requester: request.client,
            };
            let packet = auth_request_packet(candidate.ip, &auth);
            ctx.send(
                host.attachment.switch,
                Message::PacketOut {
                    out_port: host.attachment.port,
                    packet,
                },
            );
            pending.awaiting.insert(candidate.ip, false);
            pending.auth_sent += 1;
            self.stats.auth_requests_sent += 1;
            self.stats.packet_outs_sent += 1;
        }

        if pending.awaiting.is_empty() {
            self.send_reply(pending, ctx);
        } else {
            ctx.schedule(self.config.auth_timeout, TOKEN_AUTH_BASE + u64::from(id.0));
            self.pending.push(pending);
        }
    }

    fn handle_auth_reply(&mut self, reply: &AuthReply, ctx: &mut ControllerContext) {
        let Some(idx) = self.pending.iter().position(|p| p.id == reply.query) else {
            self.stats.auth_replies_invalid += 1;
            return;
        };
        let valid = self.client_keys.get(&reply.responder).is_some_and(|key| {
            reply.nonce == self.pending[idx].auth_nonce
                && key.verify(
                    &AuthReply::signed_bytes(
                        reply.query,
                        reply.nonce,
                        reply.responder,
                        reply.host_ip,
                    ),
                    &reply.signature,
                )
        });
        if !valid {
            self.stats.auth_replies_invalid += 1;
            return;
        }
        self.stats.auth_replies_received += 1;
        let pending = &mut self.pending[idx];
        if let Some(flag) = pending.awaiting.get_mut(&reply.host_ip) {
            *flag = true;
        }
        if pending.awaiting.values().all(|v| *v) {
            let pending = self.pending.remove(idx);
            self.send_reply(pending, ctx);
        }
    }

    fn send_reply(&mut self, pending: PendingQuery, ctx: &mut ControllerContext) {
        let authenticated = &pending.awaiting;
        let mark = |endpoints: &mut Vec<EndpointReport>| {
            for e in endpoints {
                if let Some(ok) = authenticated.get(&e.ip) {
                    e.authenticated = *ok;
                }
            }
        };
        let mut result = pending.result.clone();
        match &mut result {
            QueryResult::Endpoints { endpoints } => mark(endpoints),
            QueryResult::Sources { sources } => mark(sources),
            QueryResult::IsolationStatus {
                foreign_endpoints, ..
            } => mark(foreign_endpoints),
            _ => {}
        }
        let replies_received = authenticated.values().filter(|v| **v).count() as u32;
        let signed = QueryReply::signed_bytes(
            pending.id,
            pending.nonce,
            &result,
            pending.auth_sent,
            replies_received,
        );
        let signature = self
            .keypair
            .sign(&signed)
            .expect("rvaas signing capacity exhausted");
        let reply = QueryReply {
            query: pending.id,
            nonce: pending.nonce,
            result,
            auth_requests_sent: pending.auth_sent,
            auth_replies_received: replies_received,
            signature,
        };
        let packet = reply_packet(pending.reply_ip, &reply);
        ctx.send(
            pending.reply_port.switch,
            Message::PacketOut {
                out_port: pending.reply_port.port,
                packet,
            },
        );
        self.stats.packet_outs_sent += 1;
        self.stats.queries_answered += 1;
    }
}

impl ControllerApp for RvaasController {
    fn role(&self) -> ControllerRole {
        ControllerRole::Rvaas
    }

    fn on_start(&mut self, ctx: &mut ControllerContext) {
        // Install interception rules on every switch.
        let switches: Vec<SwitchId> = ctx.switches().to_vec();
        for switch in switches {
            for entry in Self::interception_rules() {
                ctx.send(
                    switch,
                    Message::FlowMod {
                        command: FlowModCommand::Add(entry.clone()),
                    },
                );
                self.stats.intercept_rules_installed += 1;
            }
        }
        self.schedule_poll(ctx);
    }

    fn on_switch_message(
        &mut self,
        switch: SwitchId,
        message: &Message,
        ctx: &mut ControllerContext,
    ) {
        match message {
            Message::PacketIn {
                in_port, packet, ..
            } => {
                let payload = packet.payload.clone();
                self.handle_packet_in(switch, *in_port, &payload, ctx);
            }
            other => {
                if self.monitor.on_switch_message(switch, other, ctx.now()) {
                    self.backend.publish(self.monitor.snapshot(), ctx.now());
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ControllerContext) {
        if token == TOKEN_POLL {
            let switches: Vec<SwitchId> = ctx.switches().to_vec();
            for (switch, message) in self.monitor.poll_requests(&switches) {
                ctx.send(switch, message);
            }
            self.schedule_poll(ctx);
        } else if token >= TOKEN_AUTH_BASE {
            let query = QueryId((token - TOKEN_AUTH_BASE) as u32);
            if let Some(idx) = self.pending.iter().position(|p| p.id == query) {
                let pending = self.pending.remove(idx);
                self.send_reply(pending, ctx);
            }
        }
    }
}

impl std::fmt::Debug for RvaasController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RvaasController")
            .field("clients", &self.client_keys.len())
            .field("pending_queries", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_client::{ClientAgent, ClientAgentConfig, QuerySpec};
    use rvaas_controlplane::{Attack, ProviderController, ScheduledAttack};
    use rvaas_crypto::SignatureScheme;
    use rvaas_netsim::{Network, NetworkConfig};
    use rvaas_topology::generators;
    use rvaas_types::HostId;

    /// Full-stack harness: topology + provider controller (optionally
    /// compromised) + RVaaS controller + client agents on every host.
    struct Harness {
        net: Network,
        agents: Vec<(HostId, ClientId)>,
    }

    fn build_harness(
        topo: rvaas_topology::Topology,
        attacks: Vec<ScheduledAttack>,
        queries: Vec<(HostId, SimTime, QuerySpec)>,
    ) -> Harness {
        let mut rvaas = RvaasController::new(
            RvaasConfig::new(topo.clone()),
            Keypair::generate(SignatureScheme::HmacOracle, 5000),
        );
        let rvaas_pk = rvaas.public_key();
        // One agent per host; every client uses one key per host here (the
        // registry keeps the *last* key per client, so give all hosts of a
        // client the same key seed).
        let mut agent_boxes = Vec::new();
        let mut agents = Vec::new();
        for host in topo.hosts() {
            let keypair =
                Keypair::generate(SignatureScheme::HmacOracle, 6000 + u64::from(host.owner.0));
            rvaas.register_client(host.owner, keypair.public_key());
            let scheduled: Vec<(SimTime, QuerySpec)> = queries
                .iter()
                .filter(|(h, _, _)| *h == host.id)
                .map(|(_, at, spec)| (*at, spec.clone()))
                .collect();
            let agent = ClientAgent::new(
                ClientAgentConfig {
                    client: host.owner,
                    rvaas_key: rvaas_pk,
                    respond_to_auth: true,
                    scheduled_queries: scheduled,
                },
                keypair,
            );
            agents.push((host.id, host.owner));
            agent_boxes.push((host.id, agent));
        }

        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::compromised(
            topo.clone(),
            attacks,
        )));
        net.add_controller(Box::new(rvaas));
        for (host, agent) in agent_boxes {
            net.attach_host(host, Box::new(agent)).expect("host exists");
        }
        Harness { net, agents }
    }

    /// Extracts the verified replies a given host's agent collected by
    /// re-reading the delivery records (the agent itself is owned by the
    /// engine, so we reconstruct its observable behaviour from deliveries).
    fn replies_delivered_to(harness: &Harness, host: HostId) -> Vec<QueryReply> {
        harness
            .net
            .deliveries()
            .iter()
            .filter(|d| d.host == host)
            .filter_map(|d| match decode_inband(&d.packet.payload) {
                Ok(InbandMessage::Reply(r)) => Some(r),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn isolation_query_on_honest_network_reports_isolated() {
        let topo = generators::line(4, 2);
        let mut h = build_harness(
            topo,
            vec![],
            vec![(HostId(1), SimTime::from_millis(5), QuerySpec::Isolation)],
        );
        h.net.run_until(SimTime::from_millis(50));
        let replies = replies_delivered_to(&h, HostId(1));
        assert_eq!(replies.len(), 1, "client must receive exactly one reply");
        match &replies[0].result {
            QueryResult::IsolationStatus {
                isolated,
                foreign_endpoints,
            } => {
                assert!(*isolated);
                assert!(foreign_endpoints.is_empty());
            }
            other => panic!("unexpected result {other:?}"),
        }
        assert!(h.agents.len() >= 4);
    }

    #[test]
    fn join_attack_is_detected_with_authenticated_foreign_endpoint() {
        let topo = generators::line(4, 2);
        let attack = ScheduledAttack::persistent(
            Attack::Join {
                attacker_host: HostId(2),
                victim_client: ClientId(1),
            },
            SimTime::from_millis(2),
        );
        let mut h = build_harness(
            topo.clone(),
            vec![attack],
            vec![(HostId(1), SimTime::from_millis(10), QuerySpec::Isolation)],
        );
        h.net.run_until(SimTime::from_millis(80));
        let replies = replies_delivered_to(&h, HostId(1));
        assert_eq!(replies.len(), 1);
        let reply = &replies[0];
        match &reply.result {
            QueryResult::IsolationStatus {
                isolated,
                foreign_endpoints,
            } => {
                assert!(!isolated, "the join attack must be detected");
                let h2_ip = topo.host(HostId(2)).unwrap().ip;
                let foreign = foreign_endpoints
                    .iter()
                    .find(|e| e.ip == h2_ip)
                    .expect("attacker endpoint reported");
                assert!(
                    foreign.authenticated,
                    "the live attacker endpoint answered the auth round"
                );
            }
            other => panic!("unexpected result {other:?}"),
        }
        assert_eq!(reply.auth_requests_sent, reply.auth_replies_received);
        assert!(reply.auth_requests_sent >= 1);
    }

    #[test]
    fn reachable_destinations_include_same_client_hosts() {
        let topo = generators::line(4, 2);
        let mut h = build_harness(
            topo.clone(),
            vec![],
            vec![(
                HostId(1),
                SimTime::from_millis(5),
                QuerySpec::ReachableDestinations,
            )],
        );
        h.net.run_until(SimTime::from_millis(60));
        let replies = replies_delivered_to(&h, HostId(1));
        assert_eq!(replies.len(), 1);
        match &replies[0].result {
            QueryResult::Endpoints { endpoints } => {
                let h3_ip = topo.host(HostId(3)).unwrap().ip;
                let e = endpoints.iter().find(|e| e.ip == h3_ip).expect("own peer");
                assert!(e.authenticated, "live same-client endpoint authenticates");
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn geo_query_answers_without_auth_round() {
        let topo = generators::line(4, 2);
        let mut h = build_harness(
            topo,
            vec![],
            vec![(HostId(1), SimTime::from_millis(5), QuerySpec::GeoLocation)],
        );
        h.net.run_until(SimTime::from_millis(40));
        let replies = replies_delivered_to(&h, HostId(1));
        assert_eq!(replies.len(), 1);
        match &replies[0].result {
            QueryResult::Regions { regions } => assert!(!regions.is_empty()),
            other => panic!("unexpected result {other:?}"),
        }
        assert_eq!(replies[0].auth_requests_sent, 0);
    }

    #[test]
    fn unregistered_client_is_rejected() {
        let topo = generators::line(2, 2);
        // Build the harness, then overwrite the registry so client 1 is
        // unknown: easiest is to use a fresh controller without registering.
        let mut rvaas = RvaasController::new(
            RvaasConfig::new(topo.clone()),
            Keypair::generate(SignatureScheme::HmacOracle, 5000),
        );
        let rvaas_pk = rvaas.public_key();
        // Only register client 2.
        let c2_keys = Keypair::generate(SignatureScheme::HmacOracle, 6002);
        rvaas.register_client(ClientId(2), c2_keys.public_key());

        let c1_keys = Keypair::generate(SignatureScheme::HmacOracle, 6001);
        let agent = ClientAgent::new(
            ClientAgentConfig {
                client: ClientId(1),
                rvaas_key: rvaas_pk,
                respond_to_auth: true,
                scheduled_queries: vec![(SimTime::from_millis(5), QuerySpec::Isolation)],
            },
            c1_keys,
        );
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::honest(topo.clone())));
        net.add_controller(Box::new(rvaas));
        net.attach_host(HostId(1), Box::new(agent)).unwrap();
        net.run_until(SimTime::from_millis(40));
        let reply = net
            .deliveries()
            .iter()
            .filter(|d| d.host == HostId(1))
            .find_map(|d| match decode_inband(&d.packet.payload) {
                Ok(InbandMessage::Reply(r)) => Some(r),
                _ => None,
            })
            .expect("rejection reply delivered");
        assert!(matches!(reply.result, QueryResult::Rejected { .. }));
    }

    #[test]
    fn unresponsive_endpoint_is_reported_unauthenticated() {
        // Client 1 queries reachable destinations; its peer host 3 does not
        // run a responding agent, so the count mismatch is visible.
        let topo = generators::line(4, 2);
        let mut rvaas = RvaasController::new(
            RvaasConfig::new(topo.clone()),
            Keypair::generate(SignatureScheme::HmacOracle, 5000),
        );
        let rvaas_pk = rvaas.public_key();
        let c1_keys = Keypair::generate(SignatureScheme::HmacOracle, 6001);
        rvaas.register_client(ClientId(1), c1_keys.public_key());
        let agent = ClientAgent::new(
            ClientAgentConfig {
                client: ClientId(1),
                rvaas_key: rvaas_pk,
                respond_to_auth: true,
                scheduled_queries: vec![(
                    SimTime::from_millis(5),
                    QuerySpec::ReachableDestinations,
                )],
            },
            c1_keys,
        );
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::honest(topo.clone())));
        net.add_controller(Box::new(rvaas));
        net.attach_host(HostId(1), Box::new(agent)).unwrap();
        // Host 3 has no agent attached: it will not answer the auth request.
        net.run_until(SimTime::from_millis(60));
        let reply = net
            .deliveries()
            .iter()
            .filter(|d| d.host == HostId(1))
            .find_map(|d| match decode_inband(&d.packet.payload) {
                Ok(InbandMessage::Reply(r)) => Some(r),
                _ => None,
            })
            .expect("reply delivered after auth timeout");
        // Reachable destinations for client 1 are h3 (silent) and h1 itself
        // (reachable from its sibling h3); only h1 runs an agent, so exactly
        // one authentication reply comes back before the timeout.
        assert_eq!(reply.auth_requests_sent, 2);
        assert_eq!(reply.auth_replies_received, 1);
        match &reply.result {
            QueryResult::Endpoints { endpoints } => {
                let h3_ip = topo.host(HostId(3)).unwrap().ip;
                assert!(endpoints.iter().any(|e| e.ip == h3_ip && !e.authenticated));
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn interception_rules_cover_query_and_auth_ports() {
        let rules = RvaasController::interception_rules();
        assert_eq!(rules.len(), 2);
        for rule in &rules {
            assert_eq!(rule.priority, INTERCEPT_PRIORITY);
            assert_eq!(*rule.actions, [Action::OutputController]);
        }
        let query_probe = Header::builder()
            .ip_src(1)
            .ip_dst(RVAAS_SERVICE_IP)
            .ip_proto(Header::PROTO_UDP)
            .l4_dst(QUERY_PORT)
            .build();
        assert!(rules[0].flow_match.matches(PortId(1), &query_probe));
        let auth_probe = Header::builder()
            .ip_src(1)
            .ip_dst(RVAAS_SERVICE_IP)
            .ip_proto(Header::PROTO_UDP)
            .l4_dst(AUTH_PORT)
            .build();
        assert!(rules[1].flow_match.matches(PortId(1), &auth_probe));
        // Ordinary traffic is not intercepted.
        let data = Header::builder().ip_src(1).ip_dst(2).build();
        assert!(!rules[0].flow_match.matches(PortId(1), &data));
        assert!(!rules[1].flow_match.matches(PortId(1), &data));
    }
}
