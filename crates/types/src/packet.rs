//! Concrete packets and their in-network traces.
//!
//! A [`Packet`] is what the simulated data plane forwards: the canonical
//! [`Header`](crate::Header) plus an opaque payload and a trace of the
//! switch/port hops it has visited so far. The trace is *simulator ground
//! truth*: it is never visible to RVaaS or the clients (doing so would defeat
//! the purpose of verification) but it lets tests and experiments check
//! detection results against what actually happened.

use crate::header::Header;
use crate::ids::{HostId, PortId, SwitchId};
use crate::time::SimTime;

/// The role a packet plays in the RVaaS protocol, recorded for tracing and
/// statistics. The data plane itself never branches on this: forwarding is
/// decided purely by flow-table matching on the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PacketKind {
    /// Ordinary client data traffic.
    #[default]
    Data,
    /// A client query (integrity request) addressed to RVaaS via the magic header.
    Query,
    /// An RVaaS authentication request sent towards a candidate endpoint.
    AuthRequest,
    /// A client's signed authentication reply.
    AuthReply,
    /// The final RVaaS reply carrying query results back to the client.
    QueryReply,
    /// An LLDP-like topology probe issued by the RVaaS controller.
    Probe,
    /// A traceroute-style probe used by baseline verifiers.
    TracerouteProbe,
}

/// One hop in a packet's ground-truth trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEntry {
    /// Switch the packet was processed by.
    pub switch: SwitchId,
    /// Port the packet entered the switch on.
    pub in_port: PortId,
    /// Port the packet left on (`None` if dropped or sent to the controller).
    pub out_port: Option<PortId>,
    /// Time of processing.
    pub at: SimTime,
}

/// A packet travelling through the simulated network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Packet {
    /// Canonical header used for matching.
    pub header: Header,
    /// Opaque payload (RVaaS protocol messages are serialized here).
    pub payload: Vec<u8>,
    /// What this packet is, for bookkeeping.
    pub kind: PacketKind,
    /// The host that originally emitted the packet, if any.
    pub origin: Option<HostId>,
    /// Ground-truth trajectory (simulator-internal).
    pub trace: Vec<TraceEntry>,
}

impl Packet {
    /// Creates a data packet with the given header and empty payload.
    #[must_use]
    pub fn new(header: Header) -> Self {
        Packet {
            header,
            ..Packet::default()
        }
    }

    /// Creates a packet with a header, payload and kind.
    #[must_use]
    pub fn with_payload(header: Header, kind: PacketKind, payload: Vec<u8>) -> Self {
        Packet {
            header,
            payload,
            kind,
            origin: None,
            trace: Vec::new(),
        }
    }

    /// Sets the originating host (builder-style).
    #[must_use]
    pub fn from_host(mut self, host: HostId) -> Self {
        self.origin = Some(host);
        self
    }

    /// Records a hop in the ground-truth trace.
    pub fn record_hop(
        &mut self,
        switch: SwitchId,
        in_port: PortId,
        out_port: Option<PortId>,
        at: SimTime,
    ) {
        self.trace.push(TraceEntry {
            switch,
            in_port,
            out_port,
            at,
        });
    }

    /// Returns the switches visited so far, in order (with duplicates if the
    /// packet looped).
    #[must_use]
    pub fn visited_switches(&self) -> Vec<SwitchId> {
        self.trace.iter().map(|t| t.switch).collect()
    }

    /// Number of hops taken so far.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.trace.len()
    }

    /// Total payload size in bytes (headers are accounted separately).
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header::builder().ip_src(1).ip_dst(2).build()
    }

    #[test]
    fn new_packet_has_no_trace() {
        let p = Packet::new(header());
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.kind, PacketKind::Data);
        assert!(p.visited_switches().is_empty());
        assert_eq!(p.payload_len(), 0);
    }

    #[test]
    fn record_hop_accumulates_trace() {
        let mut p = Packet::new(header()).from_host(HostId(3));
        p.record_hop(
            SwitchId(1),
            PortId(1),
            Some(PortId(2)),
            SimTime::from_micros(1),
        );
        p.record_hop(SwitchId(2), PortId(1), None, SimTime::from_micros(2));
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.visited_switches(), vec![SwitchId(1), SwitchId(2)]);
        assert_eq!(p.origin, Some(HostId(3)));
        assert_eq!(p.trace[1].out_port, None);
    }

    #[test]
    fn with_payload_sets_kind_and_bytes() {
        let p = Packet::with_payload(header(), PacketKind::Query, vec![1, 2, 3]);
        assert_eq!(p.kind, PacketKind::Query);
        assert_eq!(p.payload_len(), 3);
    }
}
