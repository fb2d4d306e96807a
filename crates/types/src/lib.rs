//! # rvaas-types
//!
//! Foundation types shared by every crate in the RVaaS workspace.
//!
//! The crate is intentionally free of behaviour beyond construction,
//! formatting and conversion: it defines the *vocabulary* the rest of the
//! system speaks — identifiers for network elements, the canonical packet
//! header layout used both by the simulated data plane and by Header Space
//! Analysis, geographic regions used for geo-location queries, simulated
//! time, and the common error type. The one exception is [`Chunked`], the
//! copy-on-write container the snapshot's tables, the HSA transfers and the
//! service's digest set share; [`json::quote`] is the workspace's one JSON
//! string escaper.
//!
//! # Example
//!
//! ```
//! use rvaas_types::{Header, SwitchId, PortId, Region, SimTime};
//!
//! let header = Header::builder()
//!     .ip_src(0x0a00_0001)
//!     .ip_dst(0x0a00_0002)
//!     .ip_proto(17)
//!     .l4_dst(4789)
//!     .build();
//! assert_eq!(header.ip_proto, 17);
//!
//! let sw = SwitchId(3);
//! let port = PortId(1);
//! let region = Region::new("EU");
//! let t = SimTime::from_micros(250);
//! assert!(t > SimTime::ZERO);
//! let _ = (sw, port, region);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunked;
pub mod error;
pub mod geo;
pub mod header;
pub mod ids;
pub mod json;
pub mod packet;
pub mod time;

pub use chunked::{Chunked, RULE_CHUNK};
pub use error::{Error, Result};
pub use geo::{GeoPoint, Region};
pub use header::{Field, FieldSpec, Header, HeaderBuilder, HEADER_BITS, HEADER_BYTES};
pub use ids::{
    ClientId, FlowCookie, HostId, LinkId, PortId, ProviderId, QueryId, SwitchId, SwitchPort,
};
pub use packet::{Packet, PacketKind, TraceEntry};
pub use time::SimTime;
