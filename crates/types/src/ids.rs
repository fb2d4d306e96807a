//! Strongly-typed identifiers for network elements.
//!
//! Every entity in the simulated network — switches, ports, links, hosts,
//! clients, providers and queries — is referred to by a dedicated newtype so
//! that identifiers of different kinds cannot be confused (C-NEWTYPE).

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw numeric value of the identifier.
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u32 {
            fn from(v: $name) -> Self {
                v.0
            }
        }
    };
}

id_newtype!(
    /// Identifier of an OpenFlow switch (datapath id).
    SwitchId,
    "s"
);
id_newtype!(
    /// Identifier of a port local to a switch.
    PortId,
    "p"
);
id_newtype!(
    /// Identifier of a bidirectional link between two switch ports.
    LinkId,
    "l"
);
id_newtype!(
    /// Identifier of an end host attached to the network.
    HostId,
    "h"
);
id_newtype!(
    /// Identifier of a client (tenant) of the provider network.
    ClientId,
    "c"
);
id_newtype!(
    /// Identifier of a network provider (used in multi-provider federation).
    ProviderId,
    "P"
);
id_newtype!(
    /// Identifier of an RVaaS client query.
    QueryId,
    "q"
);

/// Cookie attached to an installed flow rule, used to correlate rule events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowCookie(pub u64);

impl fmt::Display for FlowCookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cookie:{:#x}", self.0)
    }
}

/// A `(switch, port)` pair: the globally unambiguous name of a port.
///
/// Ports are the attachment points of both links (internal ports) and hosts
/// (access points). RVaaS reasons about access points in terms of
/// `SwitchPort`s, never raw ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SwitchPort {
    /// The switch owning the port.
    pub switch: SwitchId,
    /// The port number on that switch.
    pub port: PortId,
}

impl SwitchPort {
    /// Creates a new switch/port pair.
    #[must_use]
    pub fn new(switch: SwitchId, port: PortId) -> Self {
        Self { switch, port }
    }
}

impl fmt::Display for SwitchPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.switch, self.port)
    }
}

impl From<(SwitchId, PortId)> for SwitchPort {
    fn from((switch, port): (SwitchId, PortId)) -> Self {
        Self { switch, port }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(SwitchId(7).to_string(), "s7");
        assert_eq!(PortId(2).to_string(), "p2");
        assert_eq!(LinkId(9).to_string(), "l9");
        assert_eq!(HostId(0).to_string(), "h0");
        assert_eq!(ClientId(4).to_string(), "c4");
        assert_eq!(ProviderId(1).to_string(), "P1");
        assert_eq!(QueryId(12).to_string(), "q12");
    }

    #[test]
    fn switch_port_display_and_ordering() {
        let a = SwitchPort::new(SwitchId(1), PortId(2));
        let b = SwitchPort::new(SwitchId(1), PortId(3));
        let c = SwitchPort::new(SwitchId(2), PortId(0));
        assert_eq!(a.to_string(), "s1:p2");
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let set: HashSet<SwitchId> = (0..10).map(SwitchId).collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn conversions_roundtrip() {
        let id = SwitchId::from(42u32);
        assert_eq!(u32::from(id), 42);
        assert_eq!(id.index(), 42);
        let sp: SwitchPort = (SwitchId(1), PortId(5)).into();
        assert_eq!(sp.switch, SwitchId(1));
        assert_eq!(sp.port, PortId(5));
    }

    #[test]
    fn flow_cookie_display_is_hex() {
        assert_eq!(FlowCookie(255).to_string(), "cookie:0xff");
    }
}
