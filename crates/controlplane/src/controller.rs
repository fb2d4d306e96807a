//! The provider controller, benign or compromised.
//!
//! [`ProviderController`] is a [`ControllerApp`] that installs the benign
//! routing policy at start-up and then executes an attack plan — an empty
//! plan models an honest provider, a non-empty plan models the compromised
//! management system of the paper's threat model. Attacks are driven by
//! timers so that their timing relative to RVaaS's monitoring (snapshots,
//! random polls) is faithfully reproduced by the simulator.

use rvaas_netsim::{ControllerApp, ControllerContext};
use rvaas_openflow::{ControllerRole, Message};
use rvaas_topology::Topology;
use rvaas_types::SwitchId;

use crate::attack::ScheduledAttack;
use crate::routing::benign_rules;

/// Timer token layout: attack index in the low 32 bits, phase in the high bits.
const PHASE_INSTALL: u64 = 0;
const PHASE_REMOVE: u64 = 1 << 32;

/// The provider's SDN controller.
pub struct ProviderController {
    topology: Topology,
    attacks: Vec<ScheduledAttack>,
    /// Remaining flapping repetitions per attack index.
    remaining_reps: Vec<u32>,
    flow_mods_sent: u64,
}

impl ProviderController {
    /// Creates an honest provider controller for `topology`.
    #[must_use]
    pub fn honest(topology: Topology) -> Self {
        Self::compromised(topology, Vec::new())
    }

    /// Creates a compromised controller that executes `attacks`.
    #[must_use]
    pub fn compromised(topology: Topology, attacks: Vec<ScheduledAttack>) -> Self {
        let remaining_reps = attacks
            .iter()
            .map(|a| a.flapping.map_or(0, |f| f.repetitions))
            .collect();
        ProviderController {
            topology,
            attacks,
            remaining_reps,
            flow_mods_sent: 0,
        }
    }

    /// Number of Flow-Mod / Meter-Mod commands this controller has issued.
    #[must_use]
    pub fn flow_mods_sent(&self) -> u64 {
        self.flow_mods_sent
    }

    fn send_all(&mut self, msgs: Vec<(SwitchId, Message)>, ctx: &mut ControllerContext) {
        for (switch, message) in msgs {
            self.flow_mods_sent += 1;
            ctx.send(switch, message);
        }
    }
}

impl ControllerApp for ProviderController {
    fn role(&self) -> ControllerRole {
        ControllerRole::Provider
    }

    fn on_start(&mut self, ctx: &mut ControllerContext) {
        let rules = benign_rules(&self.topology);
        let msgs: Vec<(SwitchId, Message)> = rules
            .into_iter()
            .map(|(switch, entry)| {
                (
                    switch,
                    Message::FlowMod {
                        command: rvaas_openflow::FlowModCommand::Add(entry),
                    },
                )
            })
            .collect();
        self.send_all(msgs, ctx);
        for (idx, attack) in self.attacks.iter().enumerate() {
            ctx.schedule(attack.at, PHASE_INSTALL | idx as u64);
        }
    }

    fn on_switch_message(
        &mut self,
        _switch: SwitchId,
        _message: &Message,
        _ctx: &mut ControllerContext,
    ) {
        // The provider controller does not react to data-plane events in the
        // scenarios modelled here; its job is rule installation.
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ControllerContext) {
        let idx = (token & 0xffff_ffff) as usize;
        let phase = token & !0xffff_ffff;
        let Some(attack) = self.attacks.get(idx).cloned() else {
            return;
        };
        if phase == PHASE_INSTALL {
            let msgs = attack.attack.compile(&self.topology);
            self.send_all(msgs, ctx);
            if let Some(flapping) = attack.flapping {
                if self.remaining_reps[idx] > 0 {
                    // Schedule removal after the active window and the next
                    // installation after the full period.
                    ctx.schedule(flapping.active, PHASE_REMOVE | idx as u64);
                    ctx.schedule(flapping.period, PHASE_INSTALL | idx as u64);
                    self.remaining_reps[idx] -= 1;
                }
            }
        } else {
            let msgs = attack.attack.compile_removal(&self.topology);
            self.send_all(msgs, ctx);
        }
    }
}

impl std::fmt::Debug for ProviderController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProviderController")
            .field("attacks", &self.attacks.len())
            .field("flow_mods_sent", &self.flow_mods_sent)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{Attack, Flapping};
    use rvaas_netsim::{Network, NetworkConfig};
    use rvaas_topology::generators;
    use rvaas_types::{ClientId, Header, HostId, Packet, SimTime};

    #[test]
    fn honest_controller_installs_benign_policy_end_to_end() {
        let topo = generators::line(4, 2);
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::honest(topo.clone())));
        net.run_until(SimTime::from_millis(2));

        // Same-client traffic (h1 -> h3, both client 1) is delivered.
        let h1 = topo.host(HostId(1)).unwrap();
        let h3 = topo.host(HostId(3)).unwrap();
        net.inject_from_host(
            HostId(1),
            Packet::new(Header::builder().ip_src(h1.ip).ip_dst(h3.ip).build()),
        )
        .unwrap();
        // Cross-client traffic (h1 -> h2) is dropped.
        let h2 = topo.host(HostId(2)).unwrap();
        net.inject_from_host(
            HostId(1),
            Packet::new(Header::builder().ip_src(h1.ip).ip_dst(h2.ip).build()),
        )
        .unwrap();
        net.run_until(SimTime::from_millis(10));
        assert_eq!(net.stats().packets_delivered, 1);
        assert_eq!(net.stats().packets_dropped, 1);
        assert_eq!(net.deliveries()[0].host, HostId(3));
    }

    #[test]
    fn join_attack_changes_data_plane_behaviour() {
        let topo = generators::line(4, 2);
        let attack = ScheduledAttack::persistent(
            Attack::Join {
                attacker_host: HostId(2),
                victim_client: ClientId(1),
            },
            SimTime::from_millis(5),
        );
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::compromised(
            topo.clone(),
            vec![attack],
        )));
        net.run_until(SimTime::from_millis(2));

        let h1 = topo.host(HostId(1)).unwrap();
        let h2 = topo.host(HostId(2)).unwrap();
        // Before the attack: attacker (h2, client 2) cannot reach victim h1.
        net.inject_from_host(
            HostId(2),
            Packet::new(Header::builder().ip_src(h2.ip).ip_dst(h1.ip).build()),
        )
        .unwrap();
        net.run_until(SimTime::from_millis(4));
        assert_eq!(net.stats().packets_delivered, 0);

        // After the attack fires, the same packet is delivered.
        net.run_until(SimTime::from_millis(8));
        net.inject_from_host(
            HostId(2),
            Packet::new(Header::builder().ip_src(h2.ip).ip_dst(h1.ip).build()),
        )
        .unwrap();
        net.run_until(SimTime::from_millis(12));
        assert_eq!(net.stats().packets_delivered, 1);
        assert_eq!(net.deliveries()[0].host, HostId(1));
    }

    #[test]
    fn flapping_attack_installs_and_removes_rules() {
        let topo = generators::line(4, 2);
        let attack = ScheduledAttack::flapping(
            Attack::Join {
                attacker_host: HostId(2),
                victim_client: ClientId(1),
            },
            SimTime::from_millis(2),
            Flapping {
                active: SimTime::from_millis(1),
                period: SimTime::from_millis(4),
                repetitions: 2,
            },
        );
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::compromised(
            topo.clone(),
            vec![attack],
        )));
        // Right after installation the malicious rules are present…
        net.run_until(SimTime::from_micros(2600));
        let with_attack: usize = topo
            .switches()
            .map(|s| {
                net.switch_agent(s.id)
                    .unwrap()
                    .flow_table()
                    .entries()
                    .iter()
                    .filter(|e| e.cookie == crate::routing::ATTACK_COOKIE)
                    .count()
            })
            .sum();
        assert!(with_attack > 0);
        // …and shortly after the active window they are gone again.
        net.run_until(SimTime::from_millis(5));
        let after_removal: usize = topo
            .switches()
            .map(|s| {
                net.switch_agent(s.id)
                    .unwrap()
                    .flow_table()
                    .entries()
                    .iter()
                    .filter(|e| e.cookie == crate::routing::ATTACK_COOKIE)
                    .count()
            })
            .sum();
        assert_eq!(after_removal, 0);
    }
}
