//! # rvaas-hsa
//!
//! Header Space Analysis (HSA) in the style of Kazemian et al. (NSDI 2012),
//! the logical-verification engine the RVaaS paper builds on (Section IV-A2).
//!
//! A packet header is viewed as a point in `{0,1}^L` (with `L =`
//! [`rvaas_types::HEADER_BITS`]); sets of headers are represented as unions of
//! *ternary cubes* (`0`/`1`/`*` per bit). Flow rules become transfer
//! functions over these sets, switches become prioritised lists of rules, and
//! the network becomes a graph of transfer functions connected by links.
//! Reachability questions ("which access points can traffic from port X
//! reach, and with which headers?") are answered by propagating header spaces
//! through that graph.
//!
//! Modules:
//!
//! * [`cube`] — ternary wildcard vectors and their algebra.
//! * [`space`] — unions of cubes: the header-space set type.
//! * [`transfer`] — rule, switch and network transfer functions.
//! * [`reachability`] — reachability / trajectory computation with loop
//!   detection.
//!
//! # Example
//!
//! ```
//! use rvaas_hsa::{Cube, HeaderSpace};
//! use rvaas_types::Field;
//!
//! // "all IPv4 traffic to 10.0.0.0/24"
//! let to_subnet = Cube::wildcard().with_field_prefix(Field::IpDst, 0x0a00_0000, 24);
//! // "anything with destination port 80"
//! let to_http = Cube::wildcard().with_field(Field::L4Dst, 80);
//! let both = HeaderSpace::from(to_subnet).intersect(&HeaderSpace::from(to_http));
//! assert!(!both.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cube;
pub mod reachability;
pub mod space;
pub mod transfer;

pub use cube::Cube;
pub use reachability::{
    reachability_equivalent, LoopReport, ReachabilityEngine, ReachabilityResult, ReachedEndpoint,
};
pub use space::HeaderSpace;
pub use transfer::{
    LabelledPortSpace, NetworkFunction, PortSpace, RuleAction, RuleTransfer, SwitchTransfer,
};
