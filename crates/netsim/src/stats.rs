//! Simulation statistics and ground-truth delivery records.

use std::collections::BTreeMap;

use rvaas_types::{HostId, Packet, PacketKind, SimTime, SwitchId};

/// Ground truth about one packet delivered to a host. Available to
//  experiments/tests only; never exposed to protocol participants.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryRecord {
    /// The receiving host.
    pub host: HostId,
    /// The packet as delivered (including its hop trace).
    pub packet: Packet,
    /// Delivery time.
    pub at: SimTime,
}

impl DeliveryRecord {
    /// Switches traversed by the delivered packet.
    #[must_use]
    pub fn path(&self) -> Vec<SwitchId> {
        self.packet.visited_switches()
    }
}

/// Aggregate counters collected by the simulator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetStats {
    /// Packets injected by hosts or external drivers.
    pub packets_injected: u64,
    /// Packets delivered to hosts.
    pub packets_delivered: u64,
    /// Packets dropped by switches (drop rules or table misses).
    pub packets_dropped: u64,
    /// Packet-In messages generated by switches.
    pub packet_ins: u64,
    /// Packet-Out messages executed by switches.
    pub packet_outs: u64,
    /// Control messages by message kind (both directions).
    pub control_by_kind: BTreeMap<String, u64>,
    /// Control messages from switches dropped by the lossy control channel.
    pub control_lost: u64,
    /// Deliveries by packet kind.
    pub delivered_by_kind: BTreeMap<String, u64>,
}

impl NetStats {
    /// Records a control message of the given kind.
    pub fn count_control(&mut self, kind: &str) {
        *self.control_by_kind.entry(kind.to_string()).or_default() += 1;
    }

    /// Records a delivery of a packet of the given kind.
    pub fn count_delivery(&mut self, kind: PacketKind) {
        self.packets_delivered += 1;
        *self
            .delivered_by_kind
            .entry(format!("{kind:?}"))
            .or_default() += 1;
    }

    /// Total control messages exchanged.
    #[must_use]
    pub fn control_total(&self) -> u64 {
        self.control_by_kind.values().sum()
    }

    /// Count of control messages of one kind.
    #[must_use]
    pub fn control_of_kind(&self, kind: &str) -> u64 {
        self.control_by_kind.get(kind).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::default();
        s.count_control("flow_mod");
        s.count_control("flow_mod");
        s.count_control("packet_in");
        assert_eq!(s.control_of_kind("flow_mod"), 2);
        assert_eq!(s.control_of_kind("packet_in"), 1);
        assert_eq!(s.control_of_kind("echo"), 0);
        assert_eq!(s.control_total(), 3);
    }

    #[test]
    fn deliveries_are_counted_by_kind() {
        let mut s = NetStats::default();
        s.count_delivery(PacketKind::Data);
        s.count_delivery(PacketKind::Query);
        assert_eq!(s.packets_delivered, 2);
        assert_eq!(s.delivered_by_kind.get("Data"), Some(&1));
    }
}
