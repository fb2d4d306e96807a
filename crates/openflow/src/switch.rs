//! The switch agent: flow-table-driven packet processing plus the control
//! protocol endpoint.
//!
//! The agent is a *functional* model: it owns the flow and meter tables,
//! processes one packet or one control message at a time, and returns the
//! resulting outputs/events to the caller (the discrete-event simulator),
//! which is responsible for scheduling and delivery. The RVaaS threat model
//! assumes switches themselves are trusted and behave exactly like this
//! model.

use rvaas_hsa::SwitchTransfer;
use rvaas_types::{Packet, PortId, SimTime, SwitchId};

use crate::action::apply_actions;
use crate::message::{FlowModCommand, Message, PacketInReason};
use crate::table::{FlowEntry, FlowStats, FlowTable, MeterTable};

/// Static configuration of a switch agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchConfig {
    /// Maximum number of flow entries (`None` = unbounded).
    pub table_capacity: Option<usize>,
    /// If true, packets that match no entry are punted to the controller as
    /// `PacketIn{reason: NoMatch}`; otherwise they are silently dropped.
    pub punt_table_miss: bool,
}

/// The result of processing one data packet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ForwardingOutcome {
    /// Packets to transmit, as `(out_port, packet)` pairs.
    pub outputs: Vec<(PortId, Packet)>,
    /// Packet-In to deliver to the controllers, if any.
    pub packet_in: Option<Message>,
    /// True if the packet was dropped (matched a drop rule or missed with
    /// punting disabled).
    pub dropped: bool,
    /// Meter applied to the packet, if any (consumed by the simulator's rate
    /// model).
    pub meter: Option<u32>,
}

/// A data-plane switch.
#[derive(Debug, Clone)]
pub struct SwitchAgent {
    id: SwitchId,
    ports: Vec<PortId>,
    flow_table: FlowTable,
    meter_table: MeterTable,
    config: SwitchConfig,
    /// Per-port transmit counters.
    port_tx: Vec<(PortId, FlowStats)>,
    /// Whether a flow monitor is armed (notifications are generated for every
    /// table change).
    monitor_armed: bool,
}

impl SwitchAgent {
    /// Creates a switch with the given ports and configuration.
    #[must_use]
    pub fn new(id: SwitchId, ports: Vec<PortId>, config: SwitchConfig) -> Self {
        let flow_table = match config.table_capacity {
            Some(cap) => FlowTable::with_capacity_limit(cap),
            None => FlowTable::new(),
        };
        let port_tx = ports.iter().map(|p| (*p, FlowStats::default())).collect();
        SwitchAgent {
            id,
            ports,
            flow_table,
            meter_table: MeterTable::new(),
            config,
            port_tx,
            monitor_armed: false,
        }
    }

    /// The switch identifier.
    #[must_use]
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// The switch's ports.
    #[must_use]
    pub fn ports(&self) -> &[PortId] {
        &self.ports
    }

    /// Read access to the flow table (e.g. for assertions in tests).
    #[must_use]
    pub fn flow_table(&self) -> &FlowTable {
        &self.flow_table
    }

    /// Read access to the meter table.
    #[must_use]
    pub fn meter_table(&self) -> &MeterTable {
        &self.meter_table
    }

    /// Arms or disarms the flow monitor (RVaaS arms it on session setup).
    pub fn set_monitor(&mut self, armed: bool) {
        self.monitor_armed = armed;
    }

    /// True if the flow monitor is armed.
    #[must_use]
    pub fn monitor_armed(&self) -> bool {
        self.monitor_armed
    }

    /// Exports the flow table as an HSA transfer function.
    #[must_use]
    pub fn to_switch_transfer(&self) -> SwitchTransfer {
        self.flow_table.to_switch_transfer()
    }

    /// Processes a data packet arriving on `in_port` at time `now`.
    pub fn process_packet(
        &mut self,
        in_port: PortId,
        mut packet: Packet,
        now: SimTime,
    ) -> ForwardingOutcome {
        let bytes = packet.payload_len() + rvaas_types::HEADER_BYTES;
        let Some(entry) = self
            .flow_table
            .lookup_and_count(in_port, &packet.header, bytes)
        else {
            // Table miss.
            packet.record_hop(self.id, in_port, None, now);
            if self.config.punt_table_miss {
                return ForwardingOutcome {
                    packet_in: Some(Message::PacketIn {
                        switch: self.id,
                        in_port,
                        reason: PacketInReason::NoMatch,
                        packet,
                        at: now,
                    }),
                    ..ForwardingOutcome::default()
                };
            }
            return ForwardingOutcome {
                dropped: true,
                ..ForwardingOutcome::default()
            };
        };
        let actions = entry.actions.clone();
        let applied = apply_actions(&actions, &packet.header);

        let mut outcome = ForwardingOutcome {
            meter: applied.meter,
            ..ForwardingOutcome::default()
        };
        if applied.outputs.is_empty() && !applied.to_controller {
            packet.record_hop(self.id, in_port, None, now);
            outcome.dropped = true;
            return outcome;
        }
        for (port, header) in &applied.outputs {
            let mut copy = packet.clone();
            copy.header = *header;
            copy.record_hop(self.id, in_port, Some(*port), now);
            if let Some((_, stats)) = self.port_tx.iter_mut().find(|(p, _)| p == port) {
                stats.packets += 1;
                stats.bytes += bytes as u64;
            }
            outcome.outputs.push((*port, copy));
        }
        if applied.to_controller {
            let mut copy = packet.clone();
            copy.header = applied.controller_header;
            copy.record_hop(self.id, in_port, None, now);
            outcome.packet_in = Some(Message::PacketIn {
                switch: self.id,
                in_port,
                reason: PacketInReason::Action,
                packet: copy,
                at: now,
            });
        }
        outcome
    }

    /// Handles a control message from a controller, returning the messages
    /// the switch sends back on that session plus (separately) the
    /// flow-monitor / flow-removed notifications that must be fanned out to
    /// *all* monitoring controllers.
    pub fn handle_message(&mut self, message: &Message, now: SimTime) -> SwitchReaction {
        let mut reaction = SwitchReaction::default();
        match message {
            Message::Hello { .. } => reaction.replies.push(Message::Hello { version: 4 }),
            Message::EchoRequest { token } => {
                reaction.replies.push(Message::EchoReply { token: *token });
            }
            Message::FlowMod { command } => self.apply_flow_mod(command, now, &mut reaction),
            Message::MeterMod { meter } => self.meter_table.set(meter.clone()),
            Message::PacketOut { out_port, packet } => {
                let mut copy = packet.clone();
                copy.record_hop(self.id, PortId(0), Some(*out_port), now);
                if let Some((_, stats)) = self.port_tx.iter_mut().find(|(p, _)| p == out_port) {
                    stats.packets += 1;
                    stats.bytes += (copy.payload_len() + rvaas_types::HEADER_BYTES) as u64;
                }
                reaction.emitted.push((*out_port, copy));
            }
            Message::FlowStatsRequest => reaction.replies.push(Message::FlowStatsReply {
                switch: self.id,
                entries: self.flow_table.entries().to_vec(),
            }),
            Message::PortStatsRequest => reaction.replies.push(Message::PortStatsReply {
                switch: self.id,
                ports: self.port_tx.clone(),
            }),
            // Messages only ever sent *by* switches are ignored if received.
            _ => {}
        }
        reaction
    }

    fn apply_flow_mod(
        &mut self,
        command: &FlowModCommand,
        now: SimTime,
        reaction: &mut SwitchReaction,
    ) {
        match command {
            FlowModCommand::Add(entry) => {
                if self.flow_table.add(entry.clone()) {
                    if self.monitor_armed {
                        reaction.notifications.push(Message::FlowMonitorNotify {
                            switch: self.id,
                            entry: entry.clone(),
                            added: true,
                            at: now,
                        });
                    }
                } else {
                    reaction.replies.push(Message::ErrorMsg {
                        reason: "flow table full".to_string(),
                    });
                }
            }
            FlowModCommand::ModifyStrict {
                priority,
                flow_match,
                actions,
            } => {
                let changed = self
                    .flow_table
                    .modify_strict(*priority, flow_match, actions);
                if changed > 0 && self.monitor_armed {
                    let entry = FlowEntry::new(*priority, flow_match.clone(), actions.to_vec());
                    reaction.notifications.push(Message::FlowMonitorNotify {
                        switch: self.id,
                        entry,
                        added: false,
                        at: now,
                    });
                }
            }
            FlowModCommand::Delete { flow_match } => {
                for removed in self.flow_table.delete_matching(flow_match) {
                    reaction.notifications.push(Message::FlowRemoved {
                        switch: self.id,
                        entry: removed,
                        at: now,
                    });
                }
            }
            FlowModCommand::DeleteByCookie { cookie } => {
                for removed in self.flow_table.delete_by_cookie(*cookie) {
                    reaction.notifications.push(Message::FlowRemoved {
                        switch: self.id,
                        entry: removed,
                        at: now,
                    });
                }
            }
        }
    }

    /// Installs a list of entries directly (used for initial benign
    /// configuration at deployment time, before any controller connects).
    pub fn install_initial(&mut self, entries: impl IntoIterator<Item = FlowEntry>) {
        for e in entries {
            let _ = self.flow_table.add(e);
        }
    }
}

/// Everything a switch produces in reaction to one control message.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwitchReaction {
    /// Replies to send back on the session the message arrived on.
    pub replies: Vec<Message>,
    /// Notifications to fan out to every controller with an armed monitor
    /// (Flow-Removed, flow-monitor notifications).
    pub notifications: Vec<Message>,
    /// Packets to emit on data ports (from Packet-Out).
    pub emitted: Vec<(PortId, Packet)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::flowmatch::FlowMatch;
    use rvaas_types::{FlowCookie, Header};

    fn agent() -> SwitchAgent {
        SwitchAgent::new(
            SwitchId(1),
            vec![PortId(1), PortId(2), PortId(3)],
            SwitchConfig::default(),
        )
    }

    fn hdr(dst: u32) -> Header {
        Header::builder().ip_dst(dst).build()
    }

    fn add_fwd(agent: &mut SwitchAgent, dst: u32, port: u32) -> SwitchReaction {
        agent.handle_message(
            &Message::FlowMod {
                command: FlowModCommand::Add(FlowEntry::new(
                    10,
                    FlowMatch::to_ip(dst),
                    vec![Action::Output(PortId(port))],
                )),
            },
            SimTime::ZERO,
        )
    }

    #[test]
    fn packet_follows_installed_rule() {
        let mut sw = agent();
        add_fwd(&mut sw, 5, 2);
        let out = sw.process_packet(PortId(1), Packet::new(hdr(5)), SimTime::from_micros(1));
        assert_eq!(out.outputs.len(), 1);
        assert_eq!(out.outputs[0].0, PortId(2));
        assert!(!out.dropped);
        // The ground-truth trace records the hop.
        assert_eq!(out.outputs[0].1.trace.len(), 1);
        assert_eq!(out.outputs[0].1.trace[0].switch, SwitchId(1));
        assert_eq!(out.outputs[0].1.trace[0].out_port, Some(PortId(2)));
        // Counters were updated.
        assert_eq!(sw.flow_table().entries()[0].stats.packets, 1);
    }

    #[test]
    fn table_miss_drops_or_punts() {
        let mut sw = agent();
        let out = sw.process_packet(PortId(1), Packet::new(hdr(5)), SimTime::ZERO);
        assert!(out.dropped);
        assert!(out.packet_in.is_none());

        let mut punting = SwitchAgent::new(
            SwitchId(2),
            vec![PortId(1)],
            SwitchConfig {
                punt_table_miss: true,
                table_capacity: None,
            },
        );
        let out = punting.process_packet(PortId(1), Packet::new(hdr(5)), SimTime::ZERO);
        assert!(!out.dropped);
        match out.packet_in {
            Some(Message::PacketIn { reason, switch, .. }) => {
                assert_eq!(reason, PacketInReason::NoMatch);
                assert_eq!(switch, SwitchId(2));
            }
            other => panic!("expected PacketIn, got {other:?}"),
        }
    }

    #[test]
    fn output_controller_action_generates_packet_in() {
        let mut sw = agent();
        sw.handle_message(
            &Message::FlowMod {
                command: FlowModCommand::Add(FlowEntry::new(
                    50,
                    FlowMatch::to_ip(7),
                    vec![Action::OutputController],
                )),
            },
            SimTime::ZERO,
        );
        let out = sw.process_packet(PortId(3), Packet::new(hdr(7)), SimTime::from_micros(2));
        assert!(out.outputs.is_empty());
        assert!(matches!(
            out.packet_in,
            Some(Message::PacketIn {
                reason: PacketInReason::Action,
                in_port: PortId(3),
                ..
            })
        ));
    }

    #[test]
    fn flow_monitor_notifications_on_add_and_modify() {
        let mut sw = agent();
        sw.set_monitor(true);
        assert!(sw.monitor_armed());
        let reaction = add_fwd(&mut sw, 5, 2);
        assert_eq!(reaction.notifications.len(), 1);
        assert!(matches!(
            &reaction.notifications[0],
            Message::FlowMonitorNotify { added: true, .. }
        ));
        let reaction = sw.handle_message(
            &Message::FlowMod {
                command: FlowModCommand::ModifyStrict {
                    priority: 10,
                    flow_match: FlowMatch::to_ip(5),
                    actions: vec![Action::Drop],
                },
            },
            SimTime::ZERO,
        );
        assert!(matches!(
            &reaction.notifications[0],
            Message::FlowMonitorNotify { added: false, .. }
        ));
        // Without the monitor armed there are no notifications.
        let mut quiet = agent();
        let reaction = add_fwd(&mut quiet, 5, 2);
        assert!(reaction.notifications.is_empty());
    }

    #[test]
    fn delete_generates_flow_removed() {
        let mut sw = agent();
        add_fwd(&mut sw, 5, 2);
        add_fwd(&mut sw, 6, 2);
        let reaction = sw.handle_message(
            &Message::FlowMod {
                command: FlowModCommand::Delete {
                    flow_match: FlowMatch::any(),
                },
            },
            SimTime::from_millis(1),
        );
        assert_eq!(reaction.notifications.len(), 2);
        assert!(reaction
            .notifications
            .iter()
            .all(|m| matches!(m, Message::FlowRemoved { .. })));
        assert!(sw.flow_table().is_empty());
    }

    #[test]
    fn delete_by_cookie_only_removes_tagged_entries() {
        let mut sw = agent();
        sw.handle_message(
            &Message::FlowMod {
                command: FlowModCommand::Add(
                    FlowEntry::new(10, FlowMatch::to_ip(5), vec![Action::Output(PortId(2))])
                        .with_cookie(FlowCookie(77)),
                ),
            },
            SimTime::ZERO,
        );
        add_fwd(&mut sw, 6, 2);
        let reaction = sw.handle_message(
            &Message::FlowMod {
                command: FlowModCommand::DeleteByCookie {
                    cookie: FlowCookie(77),
                },
            },
            SimTime::ZERO,
        );
        assert_eq!(reaction.notifications.len(), 1);
        assert_eq!(sw.flow_table().len(), 1);
    }

    #[test]
    fn table_full_returns_error_message() {
        let mut sw = SwitchAgent::new(
            SwitchId(1),
            vec![PortId(1)],
            SwitchConfig {
                table_capacity: Some(1),
                punt_table_miss: false,
            },
        );
        add_fwd(&mut sw, 1, 1);
        let reaction = add_fwd(&mut sw, 2, 1);
        assert!(matches!(&reaction.replies[0], Message::ErrorMsg { .. }));
    }

    #[test]
    fn stats_and_echo_and_packet_out() {
        let mut sw = agent();
        add_fwd(&mut sw, 5, 2);
        sw.process_packet(PortId(1), Packet::new(hdr(5)), SimTime::ZERO);

        let reaction = sw.handle_message(&Message::EchoRequest { token: 42 }, SimTime::ZERO);
        assert_eq!(reaction.replies, vec![Message::EchoReply { token: 42 }]);

        let reaction = sw.handle_message(&Message::FlowStatsRequest, SimTime::ZERO);
        match &reaction.replies[0] {
            Message::FlowStatsReply { entries, switch } => {
                assert_eq!(*switch, SwitchId(1));
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].stats.packets, 1);
            }
            other => panic!("unexpected {other:?}"),
        }

        let reaction = sw.handle_message(&Message::PortStatsRequest, SimTime::ZERO);
        match &reaction.replies[0] {
            Message::PortStatsReply { ports, .. } => {
                let p2 = ports.iter().find(|(p, _)| *p == PortId(2)).unwrap();
                assert_eq!(p2.1.packets, 1);
            }
            other => panic!("unexpected {other:?}"),
        }

        let reaction = sw.handle_message(
            &Message::PacketOut {
                out_port: PortId(3),
                packet: Packet::new(hdr(9)),
            },
            SimTime::ZERO,
        );
        assert_eq!(reaction.emitted.len(), 1);
        assert_eq!(reaction.emitted[0].0, PortId(3));

        let reaction = sw.handle_message(&Message::Hello { version: 4 }, SimTime::ZERO);
        assert_eq!(reaction.replies, vec![Message::Hello { version: 4 }]);
    }

    #[test]
    fn initial_install_and_transfer_export() {
        let mut sw = agent();
        sw.install_initial([
            FlowEntry::new(10, FlowMatch::to_ip(5), vec![Action::Output(PortId(2))]),
            FlowEntry::new(10, FlowMatch::to_ip(6), vec![Action::Output(PortId(3))]),
        ]);
        assert_eq!(sw.flow_table().len(), 2);
        let transfer = sw.to_switch_transfer();
        assert_eq!(transfer.len(), 2);
    }

    #[test]
    fn meter_mod_installs_meter() {
        let mut sw = agent();
        sw.handle_message(
            &Message::MeterMod {
                meter: crate::table::MeterEntry {
                    id: 3,
                    bands: vec![crate::table::MeterBand { rate_kbps: 100 }],
                },
            },
            SimTime::ZERO,
        );
        assert_eq!(
            sw.meter_table().get(3).unwrap().effective_rate_kbps(),
            Some(100)
        );
    }
}
