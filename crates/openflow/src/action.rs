//! OpenFlow actions.
//!
//! An action list is applied in order to a matching packet: set-field actions
//! rewrite the header, output actions emit (a copy of) the packet, and the
//! list may end with an explicit drop (equivalent to an empty list). The
//! conversion to an HSA [`RuleAction`](rvaas_hsa::RuleAction) keeps the
//! symbolic model aligned with the concrete one.

use rvaas_hsa::{Cube, RuleAction};
use rvaas_types::{Field, Header, PortId};

/// A single OpenFlow action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Emit the packet on the given port.
    Output(PortId),
    /// Punt the packet to the controller (Packet-In).
    OutputController,
    /// Set a header field to a value before subsequent outputs.
    SetField(Field, u64),
    /// Apply a meter (rate limiter) to the packet; the meter id refers to the
    /// switch's meter table.
    Meter(u32),
    /// Explicitly drop the packet (terminates the action list).
    Drop,
}

/// Applies an action list to a header, returning the rewritten header, the
/// output ports (in order) and whether a copy goes to the controller.
#[must_use]
pub fn apply_actions(actions: &[Action], header: &Header) -> AppliedActions {
    let mut current = *header;
    let mut outputs = Vec::new();
    let mut to_controller = false;
    let mut meter = None;
    for action in actions {
        match action {
            Action::SetField(field, value) => current.set_field(*field, *value),
            Action::Output(port) => outputs.push((*port, current)),
            Action::OutputController => to_controller = true,
            Action::Meter(id) => meter = Some(*id),
            Action::Drop => {
                outputs.clear();
                to_controller = false;
                break;
            }
        }
    }
    AppliedActions {
        outputs,
        to_controller,
        controller_header: current,
        meter,
    }
}

/// Result of applying an action list to a concrete packet header.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedActions {
    /// `(port, header)` pairs to emit, in order. The header reflects all
    /// set-field actions preceding that output action.
    pub outputs: Vec<(PortId, Header)>,
    /// True if a copy is delivered to the controller.
    pub to_controller: bool,
    /// The header state at the end of the list (what a Packet-In carries).
    pub controller_header: Header,
    /// Meter applied, if any.
    pub meter: Option<u32>,
}

/// Converts an action list into the HSA rule action used for symbolic
/// analysis. Set-field actions become a rewrite cube; the outputs become the
/// forwarded port set. Mixed semantics (different rewrites between different
/// outputs) are conservatively approximated by applying all rewrites before
/// all outputs — the switch agent never installs such lists.
#[must_use]
pub fn to_rule_action(actions: &[Action]) -> RuleAction {
    let mut rewrite = Cube::wildcard();
    let mut any_rewrite = false;
    let mut ports = Vec::new();
    let mut to_controller = false;
    for action in actions {
        match action {
            Action::SetField(field, value) => {
                rewrite.constrain_field(*field, *value);
                any_rewrite = true;
            }
            Action::Output(port) => ports.push(*port),
            Action::OutputController => to_controller = true,
            Action::Meter(_) => {}
            Action::Drop => {
                return RuleAction::Drop;
            }
        }
    }
    if ports.is_empty() {
        if to_controller {
            return RuleAction::ToController;
        }
        return RuleAction::Drop;
    }
    RuleAction::Forward {
        ports: ports.into(),
        rewrite: if any_rewrite { Some(rewrite) } else { None },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(dst: u32) -> Header {
        Header::builder().ip_dst(dst).build()
    }

    #[test]
    fn output_only() {
        let r = apply_actions(&[Action::Output(PortId(2))], &hdr(1));
        assert_eq!(r.outputs, vec![(PortId(2), hdr(1))]);
        assert!(!r.to_controller);
        assert_eq!(r.meter, None);
    }

    #[test]
    fn set_field_before_output_rewrites() {
        let actions = [Action::SetField(Field::Vlan, 42), Action::Output(PortId(3))];
        let r = apply_actions(&actions, &hdr(1));
        assert_eq!(r.outputs.len(), 1);
        assert_eq!(r.outputs[0].1.vlan, 42);
    }

    #[test]
    fn set_field_after_output_does_not_affect_earlier_copy() {
        let actions = [
            Action::Output(PortId(1)),
            Action::SetField(Field::Vlan, 7),
            Action::Output(PortId(2)),
        ];
        let r = apply_actions(&actions, &hdr(1));
        assert_eq!(r.outputs[0].1.vlan, 0);
        assert_eq!(r.outputs[1].1.vlan, 7);
    }

    #[test]
    fn drop_terminates_and_clears() {
        let actions = [
            Action::Output(PortId(1)),
            Action::Drop,
            Action::Output(PortId(2)),
        ];
        let r = apply_actions(&actions, &hdr(1));
        assert!(r.outputs.is_empty());
        assert!(!r.to_controller);
    }

    #[test]
    fn controller_and_meter_flags() {
        let actions = [Action::Meter(5), Action::OutputController];
        let r = apply_actions(&actions, &hdr(1));
        assert!(r.to_controller);
        assert_eq!(r.meter, Some(5));
        assert!(r.outputs.is_empty());
    }

    #[test]
    fn to_rule_action_forward_with_rewrite() {
        let actions = [
            Action::SetField(Field::Vlan, 9),
            Action::Output(PortId(1)),
            Action::Output(PortId(2)),
        ];
        match to_rule_action(&actions) {
            RuleAction::Forward { ports, rewrite } => {
                assert_eq!(*ports, [PortId(1), PortId(2)]);
                assert_eq!(rewrite.unwrap().field_exact(Field::Vlan), Some(9));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn to_rule_action_degenerate_cases() {
        assert_eq!(to_rule_action(&[]), RuleAction::Drop);
        assert_eq!(to_rule_action(&[Action::Drop]), RuleAction::Drop);
        assert_eq!(
            to_rule_action(&[Action::OutputController]),
            RuleAction::ToController
        );
        assert_eq!(
            to_rule_action(&[Action::Output(PortId(4))]),
            RuleAction::Forward {
                ports: [PortId(4)].into(),
                rewrite: None
            }
        );
    }
}
