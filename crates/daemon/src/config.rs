//! The daemon's one settings surface: [`DaemonConfig`] holds every key the
//! `rvaas` daemon reads, from a TOML-subset config file and from CLI
//! overrides, both funnelled through [`DaemonConfig::set`] so there is
//! exactly one validation path and every key has one name and one default.
//! The verification service reads one of them (`cache`); the rest pick the
//! trusted state and size and bind the daemon's listeners.
//!
//! The file format is deliberately tiny (the build environment vendors no
//! TOML parser): `key = value` lines, `#` comments, optional `[section]`
//! headers that are tolerated and ignored, and optional double quotes
//! around values.

use rvaas_service::ServiceError;
use rvaas_topology::{generators, Topology};

/// Everything the `rvaas` daemon needs to start serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Topology constructor spec, e.g. `line(4,2)` or `leaf_spine(2,4,2,7)`.
    pub topology: String,
    /// Path of a rules file seeding the initial epoch (see
    /// [`crate::rules::parse_rules`] for the format); `None` seeds the
    /// built-in benign shortest-path routing.
    pub rules_file: Option<String>,
    /// Connection threads per listener, each accepting and answering its
    /// own connections (minimum 1).
    pub workers: usize,
    /// Whether the service consults its `(serial, client, spec)` result
    /// cache.
    pub cache: bool,
    /// `host:port` the RTR-style TCP sync endpoint binds, if any.
    pub sync_listen: Option<String>,
    /// `host:port` the HTTP endpoint (`/v1/query`, `/v1/epoch`, `/metrics`)
    /// binds, if any.
    pub http_listen: Option<String>,
}

impl Default for DaemonConfig {
    /// A small line topology with two clients — enough to answer every
    /// query shape — 4 connection threads per listener, caching on and no
    /// listeners.
    fn default() -> Self {
        DaemonConfig {
            topology: "line(4,2)".to_string(),
            rules_file: None,
            workers: 4,
            cache: true,
            sync_listen: None,
            http_listen: None,
        }
    }
}

/// Every key [`DaemonConfig::set`] understands, in documentation order.
// One key per line: CI's size report counts the lines.
#[rustfmt::skip]
pub const SETTING_KEYS: [&str; 6] = [
    "topology",
    "rules_file",
    "workers",
    "cache",
    "sync_listen",
    "http_listen",
];

impl DaemonConfig {
    /// Parses a config file body on top of the defaults.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] on unparseable lines, unknown keys
    /// or bad values.
    pub fn parse(text: &str) -> Result<Self, ServiceError> {
        let mut config = DaemonConfig::default();
        for (number, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(at) => &raw[..at],
                None => raw,
            }
            .trim();
            if line.is_empty() || (line.starts_with('[') && line.ends_with(']')) {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ServiceError::Config(format!(
                    "line {}: expected `key = value`, got {raw:?}",
                    number + 1
                )));
            };
            config.set(key.trim(), unquote(value.trim()))?;
        }
        Ok(config)
    }

    /// Applies one `key = value` pair — from the config file or a CLI
    /// override. This is the single validation path for both: the file
    /// parser and the flag parser own syntax, this method owns semantics.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] for unknown keys or bad values.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ServiceError> {
        let expects =
            |what: &str| ServiceError::Config(format!("{key} expects {what}, got {value:?}"));
        match key {
            "topology" => {
                // Validate eagerly so a typo fails at config time, not at start.
                build_topology(value)?;
                self.topology = value.to_string();
            }
            // The file itself is read (and its syntax checked) at start — a
            // config can legitimately be written before its rules file.
            "rules_file" => self.rules_file = Some(value.to_string()),
            "workers" => {
                let count = value.parse::<usize>();
                self.workers = count.map_err(|_| expects("a non-negative integer"))?.max(1);
            }
            "cache" => {
                self.cache = match value {
                    "true" | "on" | "yes" | "1" => true,
                    "false" | "off" | "no" | "0" => false,
                    _ => return Err(expects("a boolean")),
                }
            }
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

    /// Instantiates the configured topology.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] when the spec cannot be parsed.
    pub fn build_topology(&self) -> Result<Topology, ServiceError> {
        build_topology(&self.topology)
    }
}

fn unquote(value: &str) -> &str {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or(value)
}

/// Builds a topology from a `name(arg, ...)` constructor spec. Supported
/// constructors mirror [`rvaas_topology::generators`]: `line(switches,
/// clients)`, `ring(switches, clients)`, `fat_tree(k, clients)` and
/// `leaf_spine(spines, leaves, hosts_per_leaf, seed)`.
///
/// # Errors
///
/// Returns [`ServiceError::Config`] for an unknown constructor, a wrong
/// argument count, or arguments that break the generator's precondition (a
/// ring of fewer than 3 switches, an odd or zero fat-tree arity).
pub fn build_topology(spec: &str) -> Result<Topology, ServiceError> {
    let bad = |why: &str| ServiceError::Config(format!("topology spec {spec:?}: {why}"));
    let spec = spec.trim();
    let (name, rest) = spec
        .split_once('(')
        .ok_or_else(|| bad("expected name(arg, ...)"))?;
    let args_text = rest
        .strip_suffix(')')
        .ok_or_else(|| bad("missing closing parenthesis"))?;
    let args: Vec<u64> = args_text
        .split(',')
        .map(|a| a.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| bad("arguments must be non-negative integers"))?;
    let arity = |n: usize| {
        if args.len() == n {
            Ok(())
        } else {
            Err(bad(&format!(
                "{name} takes {n} arguments, got {}",
                args.len()
            )))
        }
    };
    match name.trim() {
        "line" => {
            arity(2)?;
            Ok(generators::line(args[0] as usize, args[1] as usize))
        }
        "ring" => {
            arity(2)?;
            if args[0] < 3 {
                return Err(bad("a ring needs at least 3 switches"));
            }
            Ok(generators::ring(args[0] as usize, args[1] as usize))
        }
        "fat_tree" => {
            arity(2)?;
            if args[0] < 2 || !args[0].is_multiple_of(2) {
                return Err(bad("fat-tree arity must be even and >= 2"));
            }
            Ok(generators::fat_tree(args[0] as usize, args[1] as usize))
        }
        "leaf_spine" => {
            arity(4)?;
            Ok(generators::leaf_spine(
                args[0] as usize,
                args[1] as usize,
                args[2] as usize,
                args[3],
            ))
        }
        other => Err(bad(&format!(
            "unknown constructor {other:?} (known: line, ring, fat_tree, leaf_spine)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_documented_values() {
        let c = DaemonConfig::default();
        assert_eq!(c.topology, "line(4,2)");
        assert!(c.rules_file.is_none());
        assert_eq!(c.workers, 4);
        assert!(c.cache);
        assert!(c.sync_listen.is_none());
        assert!(c.http_listen.is_none());
    }

    #[test]
    fn every_documented_key_is_settable() {
        let mut c = DaemonConfig::default();
        let pairs = [
            ("topology", "ring(5,2)"),
            ("rules_file", "/etc/rvaas/rules.txt"),
            ("workers", "8"),
            ("cache", "off"),
            ("sync_listen", "127.0.0.1:3323"),
            ("http_listen", "127.0.0.1:8323"),
        ];
        assert_eq!(pairs.map(|(key, _)| key), SETTING_KEYS);
        for (key, value) in pairs {
            c.set(key, value).unwrap();
        }
        assert_eq!(c.topology, "ring(5,2)");
        assert_eq!(c.rules_file.as_deref(), Some("/etc/rvaas/rules.txt"));
        assert_eq!(c.workers, 8);
        assert!(!c.cache);
        assert_eq!(c.sync_listen.as_deref(), Some("127.0.0.1:3323"));
        assert_eq!(c.http_listen.as_deref(), Some("127.0.0.1:8323"));
    }

    #[test]
    fn every_boolean_spelling_sets_the_cache() {
        let mut c = DaemonConfig::default();
        for (value, on) in [
            ("true", true),
            ("on", true),
            ("yes", true),
            ("1", true),
            ("false", false),
            ("off", false),
            ("no", false),
            ("0", false),
        ] {
            c.cache = !on;
            c.set("cache", value).unwrap();
            assert_eq!(c.cache, on, "cache = {value}");
        }
    }

    #[test]
    fn minimums_are_clamped_and_bad_values_are_typed_errors() {
        let mut c = DaemonConfig::default();
        c.set("workers", "0").unwrap();
        assert_eq!(c.workers, 1, "worker count clamps to 1");
        let err = c.set("workers", "many").unwrap_err();
        assert!(matches!(err, ServiceError::Config(_)));
        assert_eq!(
            err.to_string(),
            "invalid configuration: workers expects a non-negative integer, got \"many\""
        );
        let err = c.set("cache", "perhaps").unwrap_err();
        assert!(matches!(err, ServiceError::Config(_)));
        assert_eq!(
            err.to_string(),
            "invalid configuration: cache expects a boolean, got \"perhaps\""
        );
        let err = c.set("worker_threads", "4").unwrap_err();
        for key in SETTING_KEYS {
            assert!(
                err.to_string().contains(key),
                "unknown-key error must list every known key: {err}"
            );
        }
    }

    #[test]
    fn a_full_config_file_parses() {
        let config = DaemonConfig::parse(
            r#"
# rvaas daemon configuration
topology = "ring(6, 3)"
rules_file = "/etc/rvaas/rules.txt"

[service]
workers = 2
cache = off          # trailing comment
sync_listen = "127.0.0.1:0"
http_listen = 127.0.0.1:0
"#,
        )
        .unwrap();
        assert_eq!(config.topology, "ring(6, 3)");
        assert_eq!(config.rules_file.as_deref(), Some("/etc/rvaas/rules.txt"));
        assert_eq!(config.workers, 2);
        assert!(!config.cache);
        assert_eq!(config.sync_listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.http_listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.build_topology().unwrap().switch_count(), 6);
    }

    #[test]
    fn bad_lines_and_bad_topologies_are_config_errors() {
        assert!(matches!(
            DaemonConfig::parse("just some words"),
            Err(ServiceError::Config(_))
        ));
        assert!(matches!(
            DaemonConfig::parse("topology = star(4)"),
            Err(ServiceError::Config(_))
        ));
        assert!(matches!(
            DaemonConfig::parse("topology = line(4)"),
            Err(ServiceError::Config(_))
        ));
        assert!(matches!(
            DaemonConfig::parse("topology = line(many,2)"),
            Err(ServiceError::Config(_))
        ));
        assert!(matches!(
            DaemonConfig::parse("workres = 4"),
            Err(ServiceError::Config(_))
        ));
        // Well-formed specs that break a generator's precondition.
        for spec in ["ring(2,1)", "fat_tree(3,2)", "fat_tree(0,2)"] {
            assert!(
                matches!(
                    DaemonConfig::parse(&format!("topology = {spec}")),
                    Err(ServiceError::Config(_))
                ),
                "{spec}"
            );
        }
    }

    #[test]
    fn the_retired_incremental_key_is_an_unknown_setting_not_ignored() {
        let seed = include_str!("../../fuzz/corpus/config/regress-retired-incremental-key.bin");
        assert!(seed.contains("incremental = on"));
        let err = DaemonConfig::parse(seed).unwrap_err();
        assert!(matches!(err, ServiceError::Config(_)));
        assert!(
            err.to_string().contains("unknown setting \"incremental\""),
            "{err}"
        );
        // So is the delta history's length, now the constant `MAX_DELTA_HISTORY`.
        let err = DaemonConfig::parse("max_delta_history = 8").unwrap_err();
        assert!(matches!(err, ServiceError::Config(_)));
        assert!(
            err.to_string()
                .contains("unknown setting \"max_delta_history\""),
            "{err}"
        );
    }

    #[test]
    fn every_documented_constructor_builds() {
        for spec in [
            "line(4,2)",
            "ring(5,2)",
            "fat_tree(4,2)",
            "leaf_spine(2,4,2,7)",
        ] {
            assert!(build_topology(spec).is_ok(), "{spec} must build");
        }
    }
}
