//! Rules-file parsing: seed `rvaas serve` / `rvaas verify` with a concrete
//! rule set instead of the built-in benign shortest-path routing.
//!
//! The format is line-based, one flow entry per line:
//!
//! ```text
//! # <switch> <priority> [field=value]... <action>
//! 1 400 src=10.0.0.1 dst=10.0.0.2 output:2
//! 2 500 dst=10.0.0.9/24 drop
//! 3 100 vlan=7 l4dst=443 controller
//! ```
//!
//! * `switch` and `priority` are non-negative integers (switch ids as in the
//!   configured topology; priority caps at `u16`).
//! * Match fields: `src` / `dst` (IPv4, dotted-quad or plain/`0x` integer,
//!   optional `/len` prefix), `vlan`, `proto`, `l4src`, `l4dst`, `ethtype`
//!   (integers). Omitted fields are wildcards.
//! * Actions: `drop`, `output:<port>`, `controller`.
//! * `#` starts a comment; blank lines are skipped.
//!
//! The parser is total over arbitrary text (it returns errors, never
//! panics); the `config` fuzz target drives it together with the daemon's
//! config-file parser.

use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_service::ServiceError;
use rvaas_types::{Field, PortId, SwitchId};

/// Parses a rules-file body into `(switch, entry)` pairs, in file order.
///
/// # Errors
///
/// Returns [`ServiceError::Config`] naming the offending line on any
/// malformed switch id, priority, field, value or action.
pub fn parse_rules(text: &str) -> Result<Vec<(SwitchId, FlowEntry)>, ServiceError> {
    let mut rules = Vec::new();
    for (number, raw) in text.lines().enumerate() {
        let line = match raw.find('#') {
            Some(at) => &raw[..at],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let bad = |why: String| ServiceError::Config(format!("rules line {}: {why}", number + 1));
        let mut tokens = line.split_whitespace();
        let switch = tokens
            .next()
            .and_then(|t| t.parse::<u32>().ok())
            .ok_or_else(|| bad(format!("expected a switch id first, got {raw:?}")))?;
        let priority = tokens
            .next()
            .and_then(|t| t.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("expected a u16 priority second, got {raw:?}")))?;
        let mut flow_match = FlowMatch::any();
        let mut action = None;
        for token in tokens {
            if action.is_some() {
                return Err(bad(format!("trailing token {token:?} after the action")));
            }
            if let Some((key, value)) = token.split_once('=') {
                flow_match = apply_field(flow_match, key, value).map_err(&bad)?;
            } else {
                action = Some(parse_action(token).map_err(&bad)?);
            }
        }
        let action = action
            .ok_or_else(|| bad("missing action (drop | output:<port> | controller)".into()))?;
        rules.push((
            SwitchId(switch),
            FlowEntry::new(priority, flow_match, vec![action]),
        ));
    }
    Ok(rules)
}

fn apply_field(flow_match: FlowMatch, key: &str, value: &str) -> Result<FlowMatch, String> {
    let field = match key {
        "src" => Field::IpSrc,
        "dst" => Field::IpDst,
        "vlan" => Field::Vlan,
        "proto" => Field::IpProto,
        "l4src" => Field::L4Src,
        "l4dst" => Field::L4Dst,
        "ethtype" => Field::EthType,
        other => return Err(format!("unknown match field {other:?}")),
    };
    let (value, prefix) = match value.split_once('/') {
        Some((v, len)) => {
            if !matches!(field, Field::IpSrc | Field::IpDst) {
                return Err(format!("prefix /{len} only applies to src/dst"));
            }
            let len: usize = len
                .parse()
                .ok()
                .filter(|l| *l <= 32)
                .ok_or_else(|| format!("bad prefix length {len:?} (0..=32)"))?;
            (v, Some(len))
        }
        None => (value, None),
    };
    let parsed = if matches!(field, Field::IpSrc | Field::IpDst) {
        u64::from(parse_ip(value)?)
    } else {
        parse_int(value).ok_or_else(|| format!("bad value {value:?} for {key}"))?
    };
    Ok(match prefix {
        Some(len) => flow_match.field_prefix(field, parsed, len),
        None => flow_match.field(field, parsed),
    })
}

/// An IPv4 value: dotted quad, `0x` hex or plain decimal.
fn parse_ip(value: &str) -> Result<u32, String> {
    let quads: Vec<&str> = value.split('.').collect();
    if quads.len() == 4 {
        let mut ip = 0u32;
        for quad in quads {
            let octet: u8 = quad
                .parse()
                .map_err(|_| format!("bad IPv4 address {value:?}"))?;
            ip = (ip << 8) | u32::from(octet);
        }
        return Ok(ip);
    }
    parse_int(value)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("bad IPv4 address {value:?}"))
}

fn parse_int(value: &str) -> Option<u64> {
    match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

fn parse_action(token: &str) -> Result<Action, String> {
    match token {
        "drop" => Ok(Action::Drop),
        "controller" => Ok(Action::OutputController),
        other => match other.strip_prefix("output:") {
            Some(port) => port
                .parse::<u32>()
                .map(|p| Action::Output(PortId(p)))
                .map_err(|_| format!("bad output port {port:?}")),
            None => Err(format!(
                "unknown action {other:?} (drop | output:<port> | controller)"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_rules_file_parses() {
        let rules = parse_rules(
            "# seed rules\n\
             1 400 src=10.0.0.1 dst=10.0.0.2 output:2\n\
             2 500 dst=0x0a000009/24 drop   # blanket filter\n\
             \n\
             3 100 vlan=7 l4dst=443 controller\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].0, SwitchId(1));
        assert_eq!(rules[0].1.priority, 400);
        assert_eq!(rules[0].1.flow_match, {
            FlowMatch::from_ip(0x0a00_0001).field(Field::IpDst, 0x0a00_0002)
        });
        assert_eq!(*rules[0].1.actions, [Action::Output(PortId(2))]);
        assert_eq!(*rules[1].1.actions, [Action::Drop]);
        assert_eq!(
            rules[1].1.flow_match,
            FlowMatch::any().field_prefix(Field::IpDst, 0x0a00_0009, 24)
        );
        assert_eq!(*rules[2].1.actions, [Action::OutputController]);
    }

    #[test]
    fn malformed_lines_are_named_errors() {
        for (text, what) in [
            ("nonsense", "switch id"),
            ("1 hello drop", "priority"),
            ("1 70000 drop", "priority"),
            ("1 10", "missing action"),
            ("1 10 teleport", "unknown action"),
            ("1 10 output:banana", "output port"),
            ("1 10 color=red drop", "unknown match field"),
            ("1 10 src=999.0.0.1 drop", "IPv4"),
            ("1 10 src=10.0.0.1/40 drop", "prefix"),
            ("1 10 vlan=7/4 drop", "prefix"),
            ("1 10 drop extra", "trailing"),
        ] {
            let err = parse_rules(text).unwrap_err();
            let message = err.to_string();
            assert!(
                message.contains("rules line 1"),
                "{text:?} must name its line: {message}"
            );
            let _ = what;
        }
    }

    #[test]
    fn numbers_accept_hex_and_decimal() {
        let rules = parse_rules("9 1 src=0x0A000001 dst=167772162 drop").unwrap();
        assert_eq!(
            rules[0].1.flow_match,
            FlowMatch::from_ip(0x0a00_0001).field(Field::IpDst, 0x0a00_0002)
        );
    }
}
