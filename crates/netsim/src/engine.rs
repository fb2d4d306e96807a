//! The simulation engine.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rvaas_hsa::NetworkFunction;
use rvaas_openflow::{Message, SwitchAgent, SwitchConfig};
use rvaas_topology::Topology;
use rvaas_types::{Error, HostId, Packet, Result, SimTime, SwitchId, SwitchPort};

use crate::apps::{ControllerApp, ControllerContext, ControllerHandle, HostApp, HostContext};
use crate::event::{Event, EventQueue};
use crate::stats::{DeliveryRecord, NetStats};

/// Engine-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// One-way latency of the controller–switch control channel.
    pub control_latency: SimTime,
    /// Latency between a host and its access-point switch.
    pub host_link_latency: SimTime,
    /// Configuration applied to every switch agent.
    pub switch_config: SwitchConfig,
    /// Probability that a switch-to-controller message is lost (models an
    /// imperfect monitoring channel; used by the monitoring ablation).
    pub control_loss_probability: f64,
    /// Whether switches start with their flow monitor armed (notifications
    /// for every table change are fanned out to all controllers).
    pub arm_flow_monitors: bool,
    /// RNG seed; the same seed reproduces the same execution.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            control_latency: SimTime::from_micros(200),
            host_link_latency: SimTime::from_micros(5),
            switch_config: SwitchConfig::default(),
            control_loss_probability: 0.0,
            arm_flow_monitors: true,
            seed: 0,
        }
    }
}

/// The simulated network: topology + switch agents + host apps + controllers.
pub struct Network {
    topology: Topology,
    switches: BTreeMap<SwitchId, SwitchAgent>,
    hosts: BTreeMap<HostId, Box<dyn HostApp>>,
    controllers: Vec<Box<dyn ControllerApp>>,
    queue: EventQueue,
    now: SimTime,
    stats: NetStats,
    deliveries: Vec<DeliveryRecord>,
    config: NetworkConfig,
    rng: StdRng,
    started: bool,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("switches", &self.switches.len())
            .field("hosts", &self.hosts.len())
            .field("controllers", &self.controllers.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl Network {
    /// Builds a network executing `topology` with the given configuration.
    #[must_use]
    pub fn new(topology: Topology, config: NetworkConfig) -> Self {
        let mut switches = BTreeMap::new();
        for sw in topology.switches() {
            let mut agent = SwitchAgent::new(sw.id, sw.ports.clone(), config.switch_config);
            agent.set_monitor(config.arm_flow_monitors);
            switches.insert(sw.id, agent);
        }
        Network {
            topology,
            switches,
            hosts: BTreeMap::new(),
            controllers: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            stats: NetStats::default(),
            deliveries: Vec::new(),
            config,
            rng: StdRng::seed_from_u64(config.seed),
            started: false,
        }
    }

    /// Registers a controller; it will be connected to every switch.
    pub fn add_controller(&mut self, app: Box<dyn ControllerApp>) -> ControllerHandle {
        self.controllers.push(app);
        ControllerHandle(self.controllers.len() - 1)
    }

    /// Attaches a host application to a host declared in the topology.
    ///
    /// # Errors
    ///
    /// Returns an error if the host does not exist in the topology.
    pub fn attach_host(&mut self, host: HostId, app: Box<dyn HostApp>) -> Result<()> {
        if self.topology.host(host).is_none() {
            return Err(Error::UnknownHost(host.0));
        }
        self.hosts.insert(host, app);
        Ok(())
    }

    /// The topology being executed.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Ground-truth delivery records (for experiments and tests only).
    #[must_use]
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        &self.deliveries
    }

    /// Ground-truth access to a switch agent (for experiments and tests only).
    #[must_use]
    pub fn switch_agent(&self, id: SwitchId) -> Option<&SwitchAgent> {
        self.switches.get(&id)
    }

    /// Read access to a registered controller app (for experiments and tests
    /// reading controller state back out after a run; downcast with
    /// [`ControllerApp::downcast_ref`](crate::apps::ControllerApp)).
    #[must_use]
    pub fn controller_app(&self, handle: ControllerHandle) -> Option<&dyn ControllerApp> {
        self.controllers.get(handle.0).map(AsRef::as_ref)
    }

    /// Exports the *actual* current data-plane configuration as an HSA
    /// network function — the ground truth RVaaS's snapshot is compared
    /// against in experiments.
    #[must_use]
    pub fn ground_truth_function(&self) -> NetworkFunction {
        let mut nf = NetworkFunction::default();
        for sw in self.topology.switches() {
            nf.declare_switch(sw.id, sw.ports.clone());
        }
        for link in self.topology.links() {
            nf.connect(link.a, link.b);
        }
        for (id, agent) in &self.switches {
            nf.set_transfer(*id, agent.to_switch_transfer());
        }
        nf
    }

    /// Injects a packet into the network from `host` (external driver API;
    /// the packet enters through the host's access point).
    ///
    /// # Errors
    ///
    /// Returns an error if the host does not exist.
    pub fn inject_from_host(&mut self, host: HostId, mut packet: Packet) -> Result<()> {
        let h = self.topology.host(host).ok_or(Error::UnknownHost(host.0))?;
        packet.origin = Some(host);
        self.stats.packets_injected += 1;
        self.queue.schedule(
            self.now + self.config.host_link_latency,
            Event::PacketAtSwitch {
                at: h.attachment,
                packet,
            },
        );
        Ok(())
    }

    /// Calls `on_start` on every controller and host exactly once.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let switch_ids: Vec<SwitchId> = self.switches.keys().copied().collect();
        for idx in 0..self.controllers.len() {
            let mut ctx = ControllerContext::new(self.now, switch_ids.clone());
            self.controllers[idx].on_start(&mut ctx);
            self.apply_controller_effects(idx, ctx);
        }
        let host_ids: Vec<HostId> = self.hosts.keys().copied().collect();
        for host in host_ids {
            let info = self.topology.host(host).expect("host exists").clone();
            let mut ctx = HostContext::new(self.now, host, info.ip, info.attachment);
            if let Some(app) = self.hosts.get_mut(&host) {
                app.on_start(&mut ctx);
            }
            self.apply_host_effects(host, ctx);
        }
    }

    /// Processes the next event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(scheduled) = self.queue.pop() else {
            return false;
        };
        self.now = scheduled.at;
        self.dispatch(scheduled.event);
        true
    }

    /// Runs until the queue is empty or simulated time exceeds `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while let Some(next) = self.queue.next_time() {
            if next > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Runs until no events remain (or `max_events` have been processed, as a
    /// safety net against livelock).
    pub fn run_to_quiescence(&mut self, max_events: usize) {
        self.start();
        let mut processed = 0;
        while processed < max_events && self.step() {
            processed += 1;
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::PacketAtSwitch { at, packet } => self.handle_packet_at_switch(at, packet),
            Event::PacketAtHost { host, packet } => self.handle_packet_at_host(host, packet),
            Event::ControlToSwitch {
                switch,
                controller,
                message,
                ..
            } => self.handle_control_to_switch(switch, controller, message),
            Event::ControlToController {
                controller,
                switch,
                message,
            } => self.handle_control_to_controller(controller, switch, message),
            Event::ControllerTimer { controller, token } => {
                let switch_ids: Vec<SwitchId> = self.switches.keys().copied().collect();
                let mut ctx = ControllerContext::new(self.now, switch_ids);
                if let Some(app) = self.controllers.get_mut(controller) {
                    app.on_timer(token, &mut ctx);
                }
                self.apply_controller_effects(controller, ctx);
            }
            Event::HostTimer { host, token } => {
                let Some(info) = self.topology.host(host).cloned() else {
                    return;
                };
                let mut ctx = HostContext::new(self.now, host, info.ip, info.attachment);
                if let Some(app) = self.hosts.get_mut(&host) {
                    app.on_timer(token, &mut ctx);
                }
                self.apply_host_effects(host, ctx);
            }
        }
    }

    fn handle_packet_at_switch(&mut self, at: SwitchPort, packet: Packet) {
        let Some(agent) = self.switches.get_mut(&at.switch) else {
            return;
        };
        let outcome = agent.process_packet(at.port, packet, self.now);
        if outcome.dropped {
            self.stats.packets_dropped += 1;
        }
        if let Some(packet_in) = outcome.packet_in {
            self.stats.packet_ins += 1;
            self.fanout_to_controllers(at.switch, packet_in);
        }
        let outputs = outcome.outputs;
        for (out_port, pkt) in outputs {
            self.emit_from_switch(SwitchPort::new(at.switch, out_port), pkt);
        }
    }

    fn emit_from_switch(&mut self, from: SwitchPort, packet: Packet) {
        if let Some(peer) = self.topology.link_peer(from) {
            let latency = self
                .topology
                .links()
                .find(|l| l.a == from || l.b == from)
                .map_or(SimTime::from_micros(10), |l| l.latency);
            self.queue.schedule(
                self.now + latency,
                Event::PacketAtSwitch { at: peer, packet },
            );
        } else if let Some(host) = self.topology.host_at(from) {
            self.queue.schedule(
                self.now + self.config.host_link_latency,
                Event::PacketAtHost {
                    host: host.id,
                    packet,
                },
            );
        } else {
            // Emitted on an edge port with no host attached: lost.
            self.stats.packets_dropped += 1;
        }
    }

    fn handle_packet_at_host(&mut self, host: HostId, packet: Packet) {
        self.stats.count_delivery(packet.kind);
        self.deliveries.push(DeliveryRecord {
            host,
            packet: packet.clone(),
            at: self.now,
        });
        let Some(info) = self.topology.host(host).cloned() else {
            return;
        };
        let mut ctx = HostContext::new(self.now, host, info.ip, info.attachment);
        if let Some(app) = self.hosts.get_mut(&host) {
            app.on_packet(&packet, &mut ctx);
        }
        self.apply_host_effects(host, ctx);
    }

    fn handle_control_to_switch(&mut self, switch: SwitchId, controller: usize, message: Message) {
        let Some(agent) = self.switches.get_mut(&switch) else {
            return;
        };
        let reaction = agent.handle_message(&message, self.now);
        for reply in reaction.replies {
            self.deliver_to_controller(controller, switch, reply);
        }
        for notification in reaction.notifications {
            self.fanout_to_controllers(switch, notification);
        }
        self.stats.packet_outs += reaction.emitted.len() as u64;
        for (port, packet) in reaction.emitted {
            self.emit_from_switch(SwitchPort::new(switch, port), packet);
        }
    }

    fn deliver_to_controller(&mut self, controller: usize, switch: SwitchId, message: Message) {
        if self.config.control_loss_probability > 0.0
            && self.rng.gen_bool(self.config.control_loss_probability)
        {
            self.stats.control_lost += 1;
            return;
        }
        self.stats.count_control(message.kind());
        self.queue.schedule(
            self.now + self.config.control_latency,
            Event::ControlToController {
                controller,
                switch,
                message,
            },
        );
    }

    fn fanout_to_controllers(&mut self, switch: SwitchId, message: Message) {
        for idx in 0..self.controllers.len() {
            self.deliver_to_controller(idx, switch, message.clone());
        }
    }

    fn handle_control_to_controller(
        &mut self,
        controller: usize,
        switch: SwitchId,
        message: Message,
    ) {
        let switch_ids: Vec<SwitchId> = self.switches.keys().copied().collect();
        let mut ctx = ControllerContext::new(self.now, switch_ids);
        if let Some(app) = self.controllers.get_mut(controller) {
            app.on_switch_message(switch, &message, &mut ctx);
        }
        self.apply_controller_effects(controller, ctx);
    }

    fn apply_controller_effects(&mut self, controller: usize, ctx: ControllerContext) {
        let (outbox, timers) = ctx.into_effects();
        for (switch, message) in outbox {
            let role = self.controllers[controller].role();
            self.stats.count_control(message.kind());
            self.queue.schedule(
                self.now + self.config.control_latency,
                Event::ControlToSwitch {
                    switch,
                    controller,
                    role,
                    message,
                },
            );
        }
        for (at, token) in timers {
            self.queue
                .schedule(at, Event::ControllerTimer { controller, token });
        }
    }

    fn apply_host_effects(&mut self, host: HostId, ctx: HostContext) {
        let (packets, timers) = ctx.into_effects();
        for mut packet in packets {
            packet.origin = Some(host);
            let attachment = self
                .topology
                .host(host)
                .map(|h| h.attachment)
                .expect("host exists");
            self.stats.packets_injected += 1;
            self.queue.schedule(
                self.now + self.config.host_link_latency,
                Event::PacketAtSwitch {
                    at: attachment,
                    packet,
                },
            );
        }
        for (at, token) in timers {
            self.queue.schedule(at, Event::HostTimer { host, token });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_openflow::{Action, ControllerRole, FlowEntry, FlowMatch, FlowModCommand};
    use rvaas_types::{Header, PortId};

    /// A controller that installs destination-based forwarding for every host
    /// at start-up, mimicking a (benign) provider controller.
    struct StaticRouter {
        routes: Vec<(SwitchId, FlowEntry)>,
        received: Vec<String>,
    }

    impl ControllerApp for StaticRouter {
        fn role(&self) -> ControllerRole {
            ControllerRole::Provider
        }

        fn on_start(&mut self, ctx: &mut ControllerContext) {
            for (switch, entry) in &self.routes {
                ctx.send(
                    *switch,
                    Message::FlowMod {
                        command: FlowModCommand::Add(entry.clone()),
                    },
                );
            }
        }

        fn on_switch_message(
            &mut self,
            _switch: SwitchId,
            message: &Message,
            _ctx: &mut ControllerContext,
        ) {
            self.received.push(message.kind().to_string());
        }
    }

    /// A host app that echoes every received packet back to its source IP.
    struct Echoer {
        received: usize,
    }

    impl HostApp for Echoer {
        fn on_packet(&mut self, packet: &Packet, ctx: &mut HostContext) {
            self.received += 1;
            let reply_header = Header::builder()
                .ip_src(ctx.ip())
                .ip_dst(packet.header.ip_src)
                .build();
            ctx.send(Packet::new(reply_header));
        }
    }

    /// Builds the 2-switch topology from the topology crate tests and routes
    /// between the two hosts.
    fn two_switch_setup() -> (Network, ControllerHandle) {
        use rvaas_topology::generators;
        let topo = generators::line(2, 2);
        // Host 1 (ip .1) on s1:p1, host 2 (ip .2) on s2:p1; s1:p3 <-> s2:p2.
        let h1 = topo.host(HostId(1)).unwrap().clone();
        let h2 = topo.host(HostId(2)).unwrap().clone();
        // Switch 1: to h2 via port 3, to h1 via port 1;
        // switch 2: to h2 via port 1, to h1 via port 2.
        let routes = vec![
            (
                SwitchId(1),
                FlowEntry::new(10, FlowMatch::to_ip(h2.ip), vec![Action::Output(PortId(3))]),
            ),
            (
                SwitchId(1),
                FlowEntry::new(10, FlowMatch::to_ip(h1.ip), vec![Action::Output(PortId(1))]),
            ),
            (
                SwitchId(2),
                FlowEntry::new(10, FlowMatch::to_ip(h2.ip), vec![Action::Output(PortId(1))]),
            ),
            (
                SwitchId(2),
                FlowEntry::new(10, FlowMatch::to_ip(h1.ip), vec![Action::Output(PortId(2))]),
            ),
        ];
        let mut net = Network::new(topo, NetworkConfig::default());
        let handle = net.add_controller(Box::new(StaticRouter {
            routes,
            received: Vec::new(),
        }));
        (net, handle)
    }

    #[test]
    fn end_to_end_forwarding_and_reply() {
        let (mut net, _) = two_switch_setup();
        net.attach_host(HostId(2), Box::new(Echoer { received: 0 }))
            .unwrap();
        net.start();
        // Let the controller install routes first.
        net.run_until(SimTime::from_millis(1));
        // Send a packet from h1 to h2.
        let h1_ip = net.topology().host(HostId(1)).unwrap().ip;
        let h2_ip = net.topology().host(HostId(2)).unwrap().ip;
        let pkt = Packet::new(Header::builder().ip_src(h1_ip).ip_dst(h2_ip).build());
        net.inject_from_host(HostId(1), pkt).unwrap();
        net.run_until(SimTime::from_millis(5));

        // h2 received the packet and replied; the reply reached h1's port but
        // h1 has no app attached, so it is still recorded as a delivery.
        assert_eq!(net.stats().packets_injected, 2);
        assert_eq!(net.stats().packets_delivered, 2);
        let delivered_to_h2 = net
            .deliveries()
            .iter()
            .find(|d| d.host == HostId(2))
            .expect("delivery to h2");
        assert_eq!(delivered_to_h2.path(), vec![SwitchId(1), SwitchId(2)]);
        let delivered_to_h1 = net
            .deliveries()
            .iter()
            .find(|d| d.host == HostId(1))
            .expect("reply to h1");
        assert_eq!(delivered_to_h1.path(), vec![SwitchId(2), SwitchId(1)]);
    }

    #[test]
    fn unrouted_packets_are_dropped() {
        let (mut net, _) = two_switch_setup();
        net.start();
        net.run_until(SimTime::from_millis(1));
        let pkt = Packet::new(Header::builder().ip_src(1).ip_dst(0xdead_beef).build());
        net.inject_from_host(HostId(1), pkt).unwrap();
        net.run_until(SimTime::from_millis(3));
        assert_eq!(net.stats().packets_dropped, 1);
        assert_eq!(net.stats().packets_delivered, 0);
    }

    #[test]
    fn inject_from_unknown_host_fails() {
        let (mut net, _) = two_switch_setup();
        assert!(net
            .inject_from_host(HostId(99), Packet::new(Header::default()))
            .is_err());
        assert!(net
            .attach_host(HostId(99), Box::new(Echoer { received: 0 }))
            .is_err());
    }

    #[test]
    fn ground_truth_function_reflects_installed_rules() {
        let (mut net, _) = two_switch_setup();
        net.run_until(SimTime::from_millis(1));
        let nf = net.ground_truth_function();
        assert_eq!(nf.switch_count(), 2);
        assert_eq!(nf.rule_count(), 4);
        // Reachability over the ground truth agrees with actual delivery.
        let engine = rvaas_hsa::ReachabilityEngine::new(&nf);
        let h2_ip = net.topology().host(HostId(2)).unwrap().ip;
        let reached = engine
            .reachable_from(
                SwitchPort::new(SwitchId(1), PortId(1)),
                rvaas_hsa::HeaderSpace::from(
                    rvaas_hsa::Cube::wildcard()
                        .with_field(rvaas_types::Field::IpDst, u64::from(h2_ip)),
                ),
            )
            .reached_ports();
        assert_eq!(reached, vec![SwitchPort::new(SwitchId(2), PortId(1))]);
    }

    #[test]
    fn flow_mods_are_counted_and_determinism_holds() {
        let run = |seed| {
            let (mut net, _) = two_switch_setup();
            net.config.seed = seed;
            net.run_until(SimTime::from_millis(2));
            (net.stats().control_of_kind("flow_mod"), net.now())
        };
        let (mods_a, now_a) = run(1);
        let (mods_b, now_b) = run(1);
        assert_eq!(mods_a, 4);
        assert_eq!(mods_a, mods_b);
        assert_eq!(now_a, now_b);
    }

    #[test]
    fn control_loss_drops_switch_to_controller_messages() {
        use rvaas_topology::generators;
        let topo = generators::line(2, 1);
        let mut config = NetworkConfig {
            control_loss_probability: 1.0,
            ..NetworkConfig::default()
        };
        config.switch_config.punt_table_miss = true;
        let mut net = Network::new(topo, config);
        net.add_controller(Box::new(StaticRouter {
            routes: Vec::new(),
            received: Vec::new(),
        }));
        net.start();
        // A table-miss packet would normally generate a Packet-In; with 100%
        // loss the controller never sees it.
        net.inject_from_host(HostId(1), Packet::new(Header::builder().ip_dst(99).build()))
            .unwrap();
        net.run_until(SimTime::from_millis(2));
        assert_eq!(net.stats().packet_ins, 1);
        assert!(net.stats().control_lost >= 1);
        assert_eq!(net.stats().control_of_kind("packet_in"), 0);
    }

    #[test]
    fn run_to_quiescence_terminates() {
        let (mut net, _) = two_switch_setup();
        net.run_to_quiescence(10_000);
        assert!(net.stats().control_of_kind("flow_mod") == 4);
        assert!(!net.step(), "queue should be empty after quiescence");
    }
}
