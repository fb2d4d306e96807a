//! The unified service-plane error type.
//!
//! Before this module existed the service plane reported failures three
//! different ways: `expect`/panic, `String`s from ad-hoc validation, and raw
//! [`rvaas_types::Error`] codec failures bubbling out of `rvaas-client`. A
//! served network API needs one typed error it can map onto wire responses,
//! so everything converges on [`ServiceError`]: the service's `try_*`
//! methods, epoch publishing, sync-session handling and the daemon's HTTP
//! status mapping all speak it.

use std::fmt;

/// Any failure the verification service plane can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// An epoch could not be published.
    PublishRejected(String),
    /// A wire message could not be decoded.
    Codec(rvaas_types::Error),
    /// A peer spoke a sync-protocol major version this server does not
    /// implement; the carried versions feed the negotiation reply.
    VersionMismatch {
        /// The highest version this server speaks.
        supported: u8,
        /// The version the peer sent.
        got: u8,
    },
    /// A query was malformed or referenced unknown entities.
    InvalidQuery(String),
    /// A configuration key or value was not understood.
    Config(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::PublishRejected(why) => write!(f, "epoch publish rejected: {why}"),
            ServiceError::Codec(inner) => write!(f, "wire decode failed: {inner}"),
            ServiceError::VersionMismatch { supported, got } => write!(
                f,
                "sync protocol version {}.{} not supported (server speaks {}.{})",
                got >> 4,
                got & 0x0f,
                supported >> 4,
                supported & 0x0f
            ),
            ServiceError::InvalidQuery(why) => write!(f, "invalid query: {why}"),
            ServiceError::Config(why) => write!(f, "invalid configuration: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Codec(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<rvaas_types::Error> for ServiceError {
    /// Codec failures from `rvaas-client` convert directly; the typed
    /// version error keeps its structure so the server can answer with a
    /// negotiation reply instead of a generic decode failure.
    fn from(err: rvaas_types::Error) -> Self {
        match err {
            rvaas_types::Error::UnsupportedVersion { supported, got } => {
                ServiceError::VersionMismatch { supported, got }
            }
            rvaas_types::Error::InvalidQuery(why) => ServiceError::InvalidQuery(why),
            other => ServiceError::Codec(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implements_std_error_with_source() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ServiceError>();
        let err = ServiceError::Codec(rvaas_types::Error::codec("bad tag"));
        assert!(std::error::Error::source(&err).is_some());
        let plain = ServiceError::InvalidQuery("no such host".to_string());
        assert!(std::error::Error::source(&plain).is_none());
    }

    #[test]
    fn codec_errors_convert_preserving_version_structure() {
        let version = rvaas_types::Error::UnsupportedVersion {
            supported: 0x10,
            got: 0x20,
        };
        assert_eq!(
            ServiceError::from(version),
            ServiceError::VersionMismatch {
                supported: 0x10,
                got: 0x20,
            }
        );
        assert!(matches!(
            ServiceError::from(rvaas_types::Error::codec("underrun")),
            ServiceError::Codec(rvaas_types::Error::Codec(_))
        ));
    }

    #[test]
    fn display_is_human_readable() {
        let err = ServiceError::VersionMismatch {
            supported: 0x10,
            got: 0x21,
        };
        assert_eq!(
            err.to_string(),
            "sync protocol version 2.1 not supported (server speaks 1.0)"
        );
    }
}
