//! # rvaas-daemon — the served network face of the verification service
//!
//! Everything below the `rvaas` binary's argument parsing lives in this
//! library so integration tests can drive a real daemon in-process over
//! real sockets:
//!
//! * [`config`] — [`config::DaemonConfig`]: the daemon's one settings
//!   struct, read from the TOML-subset config file and CLI overrides
//!   through one validation path, [`config::DaemonConfig::set`].
//! * [`daemon`] — [`daemon::Daemon`]: binds the TCP delta-sync endpoint
//!   and the HTTP endpoint over one shared
//!   [`rvaas_service::VerificationService`]; each listener's connection
//!   threads accept and answer their own connections, and cooperative
//!   shutdown joins every one of them.
//! * [`http`] — the minimal hand-rolled HTTP/1.1 layer (`POST /v1/query`,
//!   `GET /v1/epoch`, `GET /metrics`).
//! * [`json`] — hand-rolled JSON parsing/rendering for the query API (the
//!   build vendors no JSON crate).
//! * [`rules`] — the rules-file parser: seed the daemon with a concrete
//!   rule set (`rules_file` / `--rules-file`) instead of the built-in
//!   benign routing.
//!
//! The binary itself adds the routinator-style subcommands: `serve` (the
//! daemon), `verify` (one-shot: evaluate queries, print JSON verdicts,
//! exit), `trace` (`verify`, printing each query's flight-recorder event
//! chain instead) and `man` (the embedded manual page).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod daemon;
pub mod http;
pub mod json;
pub mod rules;

pub use config::{build_topology, DaemonConfig};
pub use daemon::Daemon;
pub use http::{HttpRequest, HttpResponse};
pub use rules::parse_rules;

/// The embedded manual page, printed by `rvaas man`.
pub const MAN_PAGE: &str = include_str!("man.txt");
