//! The end-to-end scenario harness.

use rvaas::{MonitorConfig, RvaasConfig, RvaasController, RvaasStats, VerifierConfig};
use rvaas_client::{
    decode_inband, ClientAgent, ClientAgentConfig, InbandMessage, QueryReply, QuerySpec,
};
use rvaas_controlplane::{ProviderController, ScheduledAttack};
use rvaas_crypto::{Keypair, SignatureScheme};
use rvaas_netsim::{Network, NetworkConfig};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, HostId, SimTime};

/// Builder for a full RVaaS scenario.
#[derive(Debug)]
pub struct ScenarioBuilder {
    topology: Topology,
    attacks: Vec<ScheduledAttack>,
    queries: Vec<(HostId, SimTime, QuerySpec)>,
    monitor: Option<MonitorConfig>,
    verifier: Option<VerifierConfig>,
    network: NetworkConfig,
    unresponsive_hosts: Vec<HostId>,
    seed: u64,
}

impl ScenarioBuilder {
    /// Starts a scenario over `topology`.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        ScenarioBuilder {
            topology,
            attacks: Vec::new(),
            queries: Vec::new(),
            monitor: None,
            verifier: None,
            network: NetworkConfig::default(),
            unresponsive_hosts: Vec::new(),
            seed: 0,
        }
    }

    /// Adds a scheduled attack executed by the compromised provider.
    #[must_use]
    pub fn attack(mut self, attack: ScheduledAttack) -> Self {
        self.attacks.push(attack);
        self
    }

    /// Schedules a query issued by the agent on `host` at time `at`.
    #[must_use]
    pub fn query(mut self, host: HostId, at: SimTime, spec: QuerySpec) -> Self {
        self.queries.push((host, at, spec));
        self
    }

    /// Overrides the RVaaS monitoring configuration.
    #[must_use]
    pub fn monitor(mut self, monitor: MonitorConfig) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Overrides the RVaaS verifier configuration.
    #[must_use]
    pub fn verifier(mut self, verifier: VerifierConfig) -> Self {
        self.verifier = Some(verifier);
        self
    }

    /// Overrides the simulator configuration.
    #[must_use]
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Marks hosts whose agents will not answer authentication requests.
    #[must_use]
    pub fn unresponsive(mut self, hosts: impl IntoIterator<Item = HostId>) -> Self {
        self.unresponsive_hosts.extend(hosts);
        self
    }

    /// Sets the key/simulation seed (reproducibility knob).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Wires everything together.
    #[must_use]
    pub fn build(self) -> Scenario {
        let mut rvaas_config = RvaasConfig::new(self.topology.clone());
        if let Some(m) = self.monitor {
            rvaas_config.monitor = m;
        }
        if let Some(v) = self.verifier {
            rvaas_config.verifier = v;
        }

        let keypair = Keypair::generate(SignatureScheme::HmacOracle, 0x5000 + self.seed);
        let mut rvaas = RvaasController::new(rvaas_config, keypair);
        let rvaas_pk = rvaas.public_key();

        let mut agent_boxes = Vec::new();
        for host in self.topology.hosts() {
            let keypair = Keypair::generate(
                SignatureScheme::HmacOracle,
                0x6000 + self.seed * 1000 + u64::from(host.owner.0),
            );
            rvaas.register_client(host.owner, keypair.public_key());
            let scheduled: Vec<(SimTime, QuerySpec)> = self
                .queries
                .iter()
                .filter(|(h, _, _)| *h == host.id)
                .map(|(_, at, spec)| (*at, spec.clone()))
                .collect();
            let agent = ClientAgent::new(
                ClientAgentConfig {
                    client: host.owner,
                    rvaas_key: rvaas_pk,
                    respond_to_auth: !self.unresponsive_hosts.contains(&host.id),
                    scheduled_queries: scheduled,
                },
                keypair,
            );
            agent_boxes.push((host.id, agent));
        }

        let mut network_config = self.network;
        network_config.seed = self.seed;
        let mut net = Network::new(self.topology.clone(), network_config);
        net.add_controller(Box::new(ProviderController::compromised(
            self.topology.clone(),
            self.attacks,
        )));
        let rvaas_handle = net.add_controller(Box::new(rvaas));
        for (host, agent) in agent_boxes {
            net.attach_host(host, Box::new(agent))
                .expect("topology host exists");
        }
        Scenario {
            net,
            topology: self.topology,
            rvaas_controller_index: rvaas_handle.0,
        }
    }
}

/// A fully wired scenario ready to run.
pub struct Scenario {
    net: Network,
    topology: Topology,
    rvaas_controller_index: usize,
}

/// What an experiment can observe after running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// All verified query replies, as `(receiving host, reply)` pairs.
    pub replies: Vec<(HostId, QueryReply)>,
    /// RVaaS controller statistics (None until the scenario has run; the
    /// controller is owned by the simulator).
    pub total_control_messages: u64,
    /// Packet-In count observed by the simulator.
    pub packet_ins: u64,
    /// Packet-Out count observed by the simulator.
    pub packet_outs: u64,
}

impl Scenario {
    /// The topology under simulation.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Read access to the underlying simulator.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Index of the RVaaS controller within the simulator's controller list.
    #[must_use]
    pub fn rvaas_controller_index(&self) -> usize {
        self.rvaas_controller_index
    }

    /// Runs the scenario until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.net.run_until(deadline);
    }

    /// Collects the observable outcome so far.
    #[must_use]
    pub fn outcome(&self) -> ScenarioOutcome {
        let mut replies = Vec::new();
        for delivery in self.net.deliveries() {
            if let Ok(InbandMessage::Reply(reply)) = decode_inband(&delivery.packet.payload) {
                replies.push((delivery.host, reply));
            }
        }
        ScenarioOutcome {
            replies,
            total_control_messages: self.net.stats().control_total(),
            packet_ins: self.net.stats().packet_ins,
            packet_outs: self.net.stats().packet_outs,
        }
    }

    /// The query replies delivered to a specific host.
    #[must_use]
    pub fn replies_for(&self, host: HostId) -> Vec<QueryReply> {
        self.outcome()
            .replies
            .into_iter()
            .filter(|(h, _)| *h == host)
            .map(|(_, r)| r)
            .collect()
    }

    /// The query replies delivered to any host of `client`.
    #[must_use]
    pub fn replies_for_client(&self, client: ClientId) -> Vec<QueryReply> {
        let hosts: Vec<HostId> = self
            .topology
            .hosts_of_client(client)
            .iter()
            .map(|h| h.id)
            .collect();
        self.outcome()
            .replies
            .into_iter()
            .filter(|(h, _)| hosts.contains(h))
            .map(|(_, r)| r)
            .collect()
    }

    /// Statistics of the engine-owned RVaaS controller, read back out via
    /// the simulator's downcast accessor.
    #[must_use]
    pub fn rvaas_stats(&self) -> RvaasStats {
        self.net
            .controller_app(rvaas_netsim::ControllerHandle(self.rvaas_controller_index))
            .and_then(|app| app.downcast_ref::<RvaasController>())
            .map(RvaasController::stats)
            .unwrap_or_default()
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("switches", &self.topology.switch_count())
            .field("hosts", &self.topology.host_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas::LocationMap;
    use rvaas_client::QueryResult;
    use rvaas_controlplane::Attack;
    use rvaas_topology::generators;

    /// The controller answers with the caller's verifier configuration: with
    /// no location knowledge, every region a tenant's traffic crosses is
    /// unknown.
    #[test]
    fn scenario_builds_and_answers_queries() {
        let topo = generators::line(4, 2);
        let mut scenario = ScenarioBuilder::new(topo)
            .query(HostId(1), SimTime::from_millis(5), QuerySpec::Isolation)
            .query(HostId(2), SimTime::from_millis(6), QuerySpec::GeoLocation)
            .verifier(VerifierConfig {
                use_history: false,
                locations: LocationMap::new(),
            })
            .seed(3)
            .build();
        scenario.run_until(SimTime::from_millis(60));
        let replies = scenario.replies_for(HostId(1));
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0].result,
            QueryResult::IsolationStatus { isolated: true, .. }
        ));
        let replies = scenario.replies_for(HostId(2));
        assert_eq!(replies.len(), 1);
        assert_eq!(
            replies[0].result,
            QueryResult::Regions {
                regions: vec!["UNKNOWN".to_string()]
            }
        );
        let outcome = scenario.outcome();
        assert!(outcome.packet_ins >= 1);
        assert!(outcome.total_control_messages > 0);
        assert_eq!(scenario.rvaas_controller_index(), 1);
        let stats = scenario.rvaas_stats();
        assert_eq!(stats.queries_received, 2);
        assert_eq!(stats.queries_answered, 2);
    }

    #[test]
    fn attacked_scenario_detects_join() {
        let topo = generators::line(4, 2);
        let mut scenario = ScenarioBuilder::new(topo)
            .attack(ScheduledAttack::persistent(
                Attack::Join {
                    attacker_host: HostId(2),
                    victim_client: ClientId(1),
                },
                SimTime::from_millis(2),
            ))
            .query(HostId(1), SimTime::from_millis(10), QuerySpec::Isolation)
            .build();
        scenario.run_until(SimTime::from_millis(80));
        let replies = scenario.replies_for_client(ClientId(1));
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0].result,
            QueryResult::IsolationStatus {
                isolated: false,
                ..
            }
        ));
    }

    #[test]
    fn unresponsive_hosts_reduce_auth_replies() {
        let topo = generators::line(4, 2);
        let mut scenario = ScenarioBuilder::new(topo)
            .query(
                HostId(1),
                SimTime::from_millis(5),
                QuerySpec::ReachableDestinations,
            )
            .unresponsive([HostId(3)])
            .build();
        scenario.run_until(SimTime::from_millis(80));
        let replies = scenario.replies_for(HostId(1));
        assert_eq!(replies.len(), 1);
        assert!(replies[0].auth_replies_received < replies[0].auth_requests_sent);
    }
}
