//! Declarative service-plane configuration.
//!
//! [`ServiceSettings`] holds the plain-data knobs (connection threads,
//! cache, listener addresses); none of them selects how a
//! verdict is computed — the service verifies with the oracle's
//! configuration over the topology it is started on (see
//! [`crate::VerificationService::new`]). [`Default`]-constructible —
//! in-process callers write
//! `ServiceSettings { cache: false, ..Default::default() }` — and settable by
//! string key/value pairs ([`ServiceSettings::set`]), so the daemon's
//! config-file parser and its CLI flag overrides share one validation path
//! and every knob has one name and one default.

use serde::{Deserialize, Serialize};

use crate::error::ServiceError;

/// The declarative, file-constructible knobs of the verification service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceSettings {
    /// Connection threads the daemon runs per listener, each answering its
    /// own requests (minimum 1). The service itself starts no thread; an
    /// in-process caller has no use for this.
    pub workers: usize,
    /// Whether the `(serial, client, spec)` result cache is consulted.
    pub cache: bool,
    /// `host:port` the daemon's RTR-style TCP sync endpoint binds, if any.
    pub sync_listen: Option<String>,
    /// `host:port` the daemon's HTTP endpoint (`/v1/query`, `/v1/epoch`,
    /// `/metrics`) binds, if any.
    pub http_listen: Option<String>,
}

impl Default for ServiceSettings {
    /// Sensible defaults: 4 connection threads per listener, caching on and
    /// no listeners (in-process use).
    fn default() -> Self {
        ServiceSettings {
            workers: 4,
            cache: true,
            sync_listen: None,
            http_listen: None,
        }
    }
}

/// Every key [`ServiceSettings::set`] understands, in documentation order.
// One key per line: CI's size report counts the lines.
#[rustfmt::skip]
pub const SETTING_KEYS: [&str; 4] = [
    "workers",
    "cache",
    "sync_listen",
    "http_listen",
];

fn parse_bool(key: &str, value: &str) -> Result<bool, ServiceError> {
    match value {
        "true" | "on" | "yes" | "1" => Ok(true),
        "false" | "off" | "no" | "0" => Ok(false),
        _ => Err(ServiceError::Config(format!(
            "{key} expects a boolean, got {value:?}"
        ))),
    }
}

fn parse_count(key: &str, value: &str) -> Result<usize, ServiceError> {
    value.parse::<usize>().map_err(|_| {
        ServiceError::Config(format!(
            "{key} expects a non-negative integer, got {value:?}"
        ))
    })
}

impl ServiceSettings {
    /// Applies one `key = value` pair from a config file or CLI flag. This is
    /// the single validation path for both: the daemon parses syntax, this
    /// method owns semantics.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] for unknown keys or unparseable
    /// values.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ServiceError> {
        match key {
            "workers" => self.workers = parse_count(key, value)?.max(1),
            "cache" => self.cache = parse_bool(key, value)?,
            "sync_listen" => self.sync_listen = Some(value.to_string()),
            "http_listen" => self.http_listen = Some(value.to_string()),
            _ => {
                return Err(ServiceError::Config(format!(
                    "unknown setting {key:?} (known: {})",
                    SETTING_KEYS.join(", ")
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_documented_values() {
        let s = ServiceSettings::default();
        assert_eq!(s.workers, 4);
        assert!(s.cache);
        assert!(s.sync_listen.is_none());
        assert!(s.http_listen.is_none());
    }

    #[test]
    fn every_documented_key_is_settable() {
        let mut s = ServiceSettings::default();
        for (key, value) in [
            ("workers", "8"),
            ("cache", "off"),
            ("sync_listen", "127.0.0.1:3323"),
            ("http_listen", "127.0.0.1:8323"),
        ] {
            assert!(SETTING_KEYS.contains(&key));
            s.set(key, value).unwrap();
        }
        assert_eq!(s.workers, 8);
        assert!(!s.cache);
        assert_eq!(s.sync_listen.as_deref(), Some("127.0.0.1:3323"));
        assert_eq!(s.http_listen.as_deref(), Some("127.0.0.1:8323"));
    }

    #[test]
    fn minimums_are_clamped_and_bad_values_are_typed_errors() {
        let mut s = ServiceSettings::default();
        s.set("workers", "0").unwrap();
        assert_eq!(s.workers, 1, "worker count clamps to 1");
        assert!(matches!(
            s.set("workers", "many"),
            Err(ServiceError::Config(_))
        ));
        assert!(matches!(
            s.set("cache", "perhaps"),
            Err(ServiceError::Config(_))
        ));
        let err = s.set("worker_threads", "4").unwrap_err();
        assert!(
            err.to_string().contains("workers"),
            "unknown-key error must list the known keys: {err}"
        );
    }
}
