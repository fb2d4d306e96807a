//! The workspace-wide error type.
//!
//! Most crates in the workspace return `rvaas_types::Result<T>`; wrapping all
//! failure modes in a single enum keeps error plumbing between the simulator,
//! the control plane and the RVaaS service simple while still giving callers
//! enough structure to branch on (C-GOOD-ERR).

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by RVaaS components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A referenced switch does not exist in the topology or simulator.
    UnknownSwitch(u32),
    /// A referenced port does not exist on the given switch.
    UnknownPort {
        /// The switch that was addressed.
        switch: u32,
        /// The missing port.
        port: u32,
    },
    /// A referenced host does not exist.
    UnknownHost(u32),
    /// A referenced client is not registered.
    UnknownClient(u32),
    /// A referenced link does not exist.
    UnknownLink(u32),
    /// Attestation of the RVaaS enclave failed (wrong measurement, stale quote…).
    AttestationFailed(String),
    /// A message could not be decoded.
    Codec(String),
    /// A peer spoke a wire-protocol major version this side does not
    /// implement. Carries both versions so the rejecting side can offer the
    /// one it supports (version negotiation).
    UnsupportedVersion {
        /// The highest protocol version this side speaks.
        supported: u8,
        /// The version the peer sent.
        got: u8,
    },
    /// A query referred to an unsupported or malformed predicate.
    InvalidQuery(String),
    /// A flow-table modification was rejected (e.g. table full, bad match).
    FlowModRejected(String),
    /// An operation exceeded a configured limit (table size, hop budget…).
    LimitExceeded(String),
    /// The simulator reached an inconsistent state; indicates a bug.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownSwitch(id) => write!(f, "unknown switch s{id}"),
            Error::UnknownPort { switch, port } => {
                write!(f, "unknown port p{port} on switch s{switch}")
            }
            Error::UnknownHost(id) => write!(f, "unknown host h{id}"),
            Error::UnknownClient(id) => write!(f, "unknown client c{id}"),
            Error::UnknownLink(id) => write!(f, "unknown link l{id}"),
            Error::AttestationFailed(why) => write!(f, "attestation failed: {why}"),
            Error::Codec(why) => write!(f, "codec error: {why}"),
            Error::UnsupportedVersion { supported, got } => write!(
                f,
                "unsupported protocol version {}.{} (this side speaks {}.{})",
                got >> 4,
                got & 0x0f,
                supported >> 4,
                supported & 0x0f
            ),
            Error::InvalidQuery(why) => write!(f, "invalid query: {why}"),
            Error::FlowModRejected(why) => write!(f, "flow modification rejected: {why}"),
            Error::LimitExceeded(why) => write!(f, "limit exceeded: {why}"),
            Error::Internal(why) => write!(f, "internal error: {why}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Convenience constructor for codec errors.
    #[must_use]
    pub fn codec(msg: impl Into<String>) -> Self {
        Error::Codec(msg.into())
    }

    /// Convenience constructor for internal errors.
    #[must_use]
    pub fn internal(msg: impl Into<String>) -> Self {
        Error::Internal(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::UnknownSwitch(3), "unknown switch s3"),
            (
                Error::UnknownPort { switch: 1, port: 2 },
                "unknown port p2 on switch s1",
            ),
            (Error::UnknownHost(9), "unknown host h9"),
            (Error::UnknownClient(4), "unknown client c4"),
            (Error::UnknownLink(5), "unknown link l5"),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }

    #[test]
    fn convenience_constructors() {
        assert_eq!(Error::codec("bad tag").to_string(), "codec error: bad tag");
        assert_eq!(Error::internal("oops").to_string(), "internal error: oops");
    }
}
