//! The daemon's declarative configuration: a TOML-subset config file plus
//! CLI overrides, both funnelled through [`DaemonConfig::set`] so there is
//! exactly one validation path.
//!
//! The file format is deliberately tiny (the build environment vendors no
//! TOML parser): `key = value` lines, `#` comments, optional `[section]`
//! headers that are tolerated and ignored, and optional double quotes
//! around values. Every service-plane key is delegated to
//! [`ServiceSettings::set`], so the daemon config understands exactly the
//! keys the service does, plus `topology`.

use rvaas_service::{ServiceError, ServiceSettings};
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
    /// The service-plane knobs (workers, cache, listeners, ...).
    pub service: ServiceSettings,
}

impl Default for DaemonConfig {
    /// A small line topology with two clients — enough to answer every
    /// query shape — and default service settings.
    fn default() -> Self {
        DaemonConfig {
            topology: "line(4,2)".to_string(),
            rules_file: None,
            service: ServiceSettings::default(),
        }
    }
}

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
    /// override. `topology` is handled here; everything else is delegated
    /// to [`ServiceSettings::set`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] for unknown keys or bad values.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ServiceError> {
        if key == "topology" {
            // Validate eagerly so a typo fails at config time, not at start.
            build_topology(value)?;
            self.topology = value.to_string();
            Ok(())
        } else if key == "rules_file" {
            // The file itself is read (and its syntax checked) at start —
            // a config can legitimately be written before its rules file.
            self.rules_file = Some(value.to_string());
            Ok(())
        } else {
            self.service.set(key, value)
        }
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
        assert_eq!(config.service.workers, 2);
        assert!(!config.service.cache);
        assert_eq!(config.service.sync_listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.service.http_listen.as_deref(), Some("127.0.0.1:0"));
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
