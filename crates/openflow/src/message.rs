//! Controller–switch protocol messages.
//!
//! The subset of OpenFlow 1.3+ the RVaaS architecture needs: Flow-Mod for
//! rule installation, Packet-In / Packet-Out for in-band client interaction,
//! Flow-Removed and flow-monitor notifications for passive configuration
//! monitoring, multipart flow-stats for active polling, meter modifications
//! for the fairness experiments, and echo for channel liveness.

use rvaas_types::{FlowCookie, Packet, PortId, SimTime, SwitchId};

use crate::action::Action;
use crate::flowmatch::FlowMatch;
use crate::table::{FlowEntry, FlowStats, MeterEntry};

/// Which controller a channel belongs to. The RVaaS controller and the
/// provider's own controller maintain independent channels to every switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerRole {
    /// The provider's network management controller (untrusted in the threat
    /// model).
    Provider,
    /// The stand-alone RVaaS verification controller (trusted).
    Rvaas,
}

/// Why a Packet-In was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketInReason {
    /// An explicit `OutputController` action matched.
    Action,
    /// No flow entry matched and the switch is configured to punt misses.
    NoMatch,
}

/// The Flow-Mod sub-command.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowModCommand {
    /// Install a new entry (replacing an identical match/priority entry).
    Add(FlowEntry),
    /// Replace the actions of entries with this exact priority and match.
    ModifyStrict {
        /// Priority of the entries to modify.
        priority: u16,
        /// Exact match of the entries to modify.
        flow_match: FlowMatch,
        /// New action list.
        actions: Vec<Action>,
    },
    /// Delete all entries whose match is a subset of this match.
    Delete {
        /// The covering match expression.
        flow_match: FlowMatch,
    },
    /// Delete all entries with this cookie.
    DeleteByCookie {
        /// Cookie of the entries to delete.
        cookie: FlowCookie,
    },
}

/// A protocol message exchanged between a controller and a switch.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session start.
    Hello {
        /// Sender-chosen protocol version (informational).
        version: u8,
    },
    /// Liveness probe.
    EchoRequest {
        /// Opaque payload echoed back.
        token: u64,
    },
    /// Liveness reply.
    EchoReply {
        /// Token copied from the request.
        token: u64,
    },
    /// Rule modification issued by a controller.
    FlowMod {
        /// The operation.
        command: FlowModCommand,
    },
    /// Meter installation / replacement.
    MeterMod {
        /// The meter to install.
        meter: MeterEntry,
    },
    /// A packet delivered to the controller.
    PacketIn {
        /// Switch that generated the event.
        switch: SwitchId,
        /// Ingress port of the packet.
        in_port: PortId,
        /// Why the packet was punted.
        reason: PacketInReason,
        /// The packet itself.
        packet: Packet,
        /// Time at which the switch generated the event.
        at: SimTime,
    },
    /// A controller instructing the switch to emit a packet.
    PacketOut {
        /// Port to emit the packet on.
        out_port: PortId,
        /// The packet to emit.
        packet: Packet,
    },
    /// Notification that an entry was removed (by delete or eviction).
    FlowRemoved {
        /// Switch that removed the entry.
        switch: SwitchId,
        /// The removed entry (with final counters).
        entry: FlowEntry,
        /// Removal time.
        at: SimTime,
    },
    /// Flow-monitor notification: an entry was added or modified.
    ///
    /// This is the passive-monitoring primitive the RVaaS controller relies
    /// on ("the controller should use the OpenFlow add flow monitor
    /// command", paper Section II).
    FlowMonitorNotify {
        /// Switch reporting the change.
        switch: SwitchId,
        /// The entry after the change.
        entry: FlowEntry,
        /// True if this is a new entry, false if modified.
        added: bool,
        /// Change time.
        at: SimTime,
    },
    /// Request for the full flow table (multipart flow-stats request).
    FlowStatsRequest,
    /// Reply carrying the full flow table.
    FlowStatsReply {
        /// Switch reporting its state.
        switch: SwitchId,
        /// All installed entries with their counters.
        entries: Vec<FlowEntry>,
    },
    /// Request for per-port counters.
    PortStatsRequest,
    /// Reply with per-port transmit counters.
    PortStatsReply {
        /// Switch reporting its state.
        switch: SwitchId,
        /// `(port, stats)` pairs.
        ports: Vec<(PortId, FlowStats)>,
    },
    /// Error returned by a switch (e.g. table full).
    ErrorMsg {
        /// Human-readable error description.
        reason: String,
    },
}

impl Message {
    /// Short label for statistics (message type, ignoring payload).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::EchoRequest { .. } => "echo_request",
            Message::EchoReply { .. } => "echo_reply",
            Message::FlowMod { .. } => "flow_mod",
            Message::MeterMod { .. } => "meter_mod",
            Message::PacketIn { .. } => "packet_in",
            Message::PacketOut { .. } => "packet_out",
            Message::FlowRemoved { .. } => "flow_removed",
            Message::FlowMonitorNotify { .. } => "flow_monitor_notify",
            Message::FlowStatsRequest => "flow_stats_request",
            Message::FlowStatsReply { .. } => "flow_stats_reply",
            Message::PortStatsRequest => "port_stats_request",
            Message::PortStatsReply { .. } => "port_stats_reply",
            Message::ErrorMsg { .. } => "error",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_types::Header;

    #[test]
    fn kinds_are_stable_labels() {
        assert_eq!(Message::FlowStatsRequest.kind(), "flow_stats_request");
        assert_eq!(
            Message::PacketOut {
                out_port: PortId(1),
                packet: Packet::new(Header::default()),
            }
            .kind(),
            "packet_out"
        );
        assert_eq!(
            Message::ErrorMsg {
                reason: "table full".into()
            }
            .kind(),
            "error"
        );
    }
}
