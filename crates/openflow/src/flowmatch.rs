//! Flow match expressions.
//!
//! A [`FlowMatch`] is what a flow entry matches on: an optional ingress port
//! plus a ternary header expression. The header part reuses the HSA
//! [`Cube`] type so that the concrete data plane (this crate) and the
//! symbolic verifier (`rvaas-hsa`) interpret matches with *identical*
//! semantics — a property several of the property-based tests rely on.

use rvaas_hsa::Cube;
use rvaas_types::{Field, Header, PortId};

/// A match expression over ingress port and header fields.
///
/// `Ord` is structural (port constraint, then cube masks); it exists so
/// `(priority, FlowMatch)` can key ordered maps such as the snapshot's
/// flow-table index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowMatch {
    /// Ingress-port constraint; `None` matches any port.
    pub in_port: Option<PortId>,
    /// Ternary header constraint.
    pub cube: Cube,
}

impl FlowMatch {
    /// Matches every packet on every port.
    #[must_use]
    pub fn any() -> Self {
        FlowMatch::default()
    }

    /// Constrains the ingress port (builder style).
    #[must_use]
    pub fn on_port(mut self, port: PortId) -> Self {
        self.in_port = Some(port);
        self
    }

    /// Constrains a header field to an exact value (builder style).
    #[must_use]
    pub fn field(mut self, field: Field, value: u64) -> Self {
        self.cube.constrain_field(field, value);
        self
    }

    /// Constrains a header field to a prefix (builder style).
    #[must_use]
    pub fn field_prefix(mut self, field: Field, value: u64, prefix_len: usize) -> Self {
        self.cube = self.cube.with_field_prefix(field, value, prefix_len);
        self
    }

    /// Convenience: match IPv4 traffic destined to `ip`.
    #[must_use]
    pub fn to_ip(ip: u32) -> Self {
        FlowMatch::any().field(Field::IpDst, u64::from(ip))
    }

    /// Convenience: match IPv4 traffic originating from `ip`.
    #[must_use]
    pub fn from_ip(ip: u32) -> Self {
        FlowMatch::any().field(Field::IpSrc, u64::from(ip))
    }

    /// True if a packet with this header arriving on `in_port` matches.
    #[must_use]
    pub fn matches(&self, in_port: PortId, header: &Header) -> bool {
        self.in_port.is_none_or(|p| p == in_port) && self.cube.contains(header)
    }

    /// True if every packet matched by `self` is also matched by `other`
    /// (used for overlap checks on insertion and for monitor diffing).
    #[must_use]
    pub fn is_subset_of(&self, other: &FlowMatch) -> bool {
        let port_ok = match (self.in_port, other.in_port) {
            (_, None) => true,
            (Some(a), Some(b)) => a == b,
            (None, Some(_)) => false,
        };
        port_ok && self.cube.is_subset_of(&other.cube)
    }

    /// True if some packet is matched by both expressions.
    #[must_use]
    pub fn overlaps(&self, other: &FlowMatch) -> bool {
        let port_ok = match (self.in_port, other.in_port) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        port_ok && self.cube.overlaps(&other.cube)
    }
}

impl std::fmt::Display for FlowMatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.in_port {
            Some(p) => write!(f, "in_port={p} {}", self.cube),
            None => write!(f, "{}", self.cube),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hdr(src: u32, dst: u32, dport: u16) -> Header {
        Header::builder()
            .ip_src(src)
            .ip_dst(dst)
            .l4_dst(dport)
            .build()
    }

    #[test]
    fn any_matches_everything() {
        let m = FlowMatch::any();
        assert!(m.matches(PortId(1), &hdr(1, 2, 3)));
        assert!(m.matches(PortId(9), &Header::default()));
    }

    #[test]
    fn field_and_port_constraints() {
        let m = FlowMatch::to_ip(0x0a000002).on_port(PortId(1));
        assert!(m.matches(PortId(1), &hdr(1, 0x0a000002, 80)));
        assert!(!m.matches(PortId(2), &hdr(1, 0x0a000002, 80)));
        assert!(!m.matches(PortId(1), &hdr(1, 0x0a000003, 80)));
        assert!(m.to_string().contains("in_port=p1"));
    }

    #[test]
    fn prefix_match() {
        let m = FlowMatch::any().field_prefix(Field::IpDst, 0x0a000000, 8);
        assert!(m.matches(PortId(1), &hdr(0, 0x0a123456, 0)));
        assert!(!m.matches(PortId(1), &hdr(0, 0x0b000000, 0)));
    }

    #[test]
    fn subset_and_overlap() {
        let wide = FlowMatch::to_ip(5);
        let narrow = FlowMatch::to_ip(5)
            .on_port(PortId(3))
            .field(Field::L4Dst, 80);
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
        assert!(narrow.overlaps(&wide));
        let disjoint = FlowMatch::to_ip(6);
        assert!(!narrow.overlaps(&disjoint));
        // Port-only difference.
        let p1 = FlowMatch::any().on_port(PortId(1));
        let p2 = FlowMatch::any().on_port(PortId(2));
        assert!(!p1.overlaps(&p2));
        assert!(p1.overlaps(&FlowMatch::any()));
        assert!(!FlowMatch::any().is_subset_of(&p1));
    }

    #[test]
    fn from_ip_matches_source() {
        let m = FlowMatch::from_ip(7);
        assert!(m.matches(PortId(1), &hdr(7, 9, 0)));
        assert!(!m.matches(PortId(1), &hdr(8, 9, 0)));
    }

    proptest! {
        #[test]
        fn prop_match_agrees_with_cube(dst in any::<u32>(), probe in any::<u32>(), port in 1u32..4) {
            // FlowMatch::matches must agree with Cube::contains when no port
            // constraint is present — the data plane and HSA share semantics.
            let m = FlowMatch::to_ip(dst);
            let h = hdr(1, probe, 80);
            prop_assert_eq!(m.matches(PortId(port), &h), m.cube.contains(&h));
        }
    }
}
