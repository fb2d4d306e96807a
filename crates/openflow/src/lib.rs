//! # rvaas-openflow
//!
//! An OpenFlow-style data-plane and control-message model.
//!
//! The RVaaS paper (Section II) relies on a small set of OpenFlow features:
//! match-action flow tables installed by controllers via Flow-Mod, Packet-In
//! interception of selected traffic, Packet-Out injection, and flow
//! monitoring to keep a configuration snapshot. This crate models those
//! features faithfully enough that the verification logic built on top cannot
//! tell the difference. The paper's secured controller–switch session
//! (encrypted OpenFlow with a-priori configured switch certificates,
//! Section III) is assumed, not simulated: a message the simulator delivers
//! on a controller's channel came from that controller.
//!
//! * [`flowmatch`] — match expressions (built on the HSA cube type so the
//!   data plane and the verifier share semantics exactly).
//! * [`action`] — OpenFlow actions (output, set-field, drop, controller).
//! * [`table`] — flow tables with priorities, cookies, counters and
//!   overlap-aware insertion; meter tables for bandwidth policing.
//! * [`message`] — the controller–switch protocol messages, and which
//!   controller ([`ControllerRole`]) a channel belongs to.
//! * [`switch`] — the switch agent tying it all together: packet processing,
//!   flow-mod handling, flow-removed/flow-monitor notifications, statistics,
//!   and export of the table as an HSA transfer function.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod flowmatch;
pub mod message;
pub mod switch;
pub mod table;

pub use action::Action;
pub use flowmatch::FlowMatch;
pub use message::{ControllerRole, FlowModCommand, Message, PacketInReason};
pub use switch::{ForwardingOutcome, SwitchAgent, SwitchConfig};
pub use table::{FlowEntry, FlowStats, FlowTable, MeterBand, MeterEntry, MeterTable};
