//! # rvaas-workloads
//!
//! Scenario and workload construction shared by the examples, the
//! integration tests and the benchmark harness.
//!
//! The central type is [`Scenario`]: a fully wired simulation — topology,
//! (possibly compromised) provider controller, RVaaS controller, and a client
//! agent on every host — built from a declarative [`ScenarioBuilder`]. The
//! scenario runs the simulator and exposes the *observable* outcome: the
//! signed query replies each client received, plus the controller statistics,
//! so experiments measure exactly what a real client could measure.
//!
//! The [`locations`] module builds degraded switch-location maps
//! (crowd-sourced / inferred) for the geo-location accuracy experiment.
//!
//! The [`service_load`] module holds the service-plane workload's building
//! blocks (clients, query mix, benign snapshot). The [`churn`] module adds
//! the tenant-pinned churn workload (the one churn generator) and the one
//! epoch-advance driver behind experiments `s2` and `s3`, plus the
//! from-scratch baseline `s2` compares it with; [`query_scale`] adds the
//! synthetic standing-query population and the affected-query selection
//! micro-benchmark `s3` runs on top of it. The other service-plane numbers
//! (query latency, cache, sync bytes, recorder overhead) come from the
//! stand-alone `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod locations;
pub mod query_scale;
pub mod scenario;
pub mod service_load;

pub use churn::{
    run_full_rebuild_churn, run_incremental_churn, standing_queries, tenant_churn_round,
    FullRebuildChurnReport, IncrementalChurnConfig, IncrementalChurnReport,
};
pub use locations::{crowd_sourced_map, inferred_map};
pub use query_scale::{selection_latency, synthetic_queries};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioOutcome};
pub use service_load::{benign_snapshot, clients_of, query_mix, round_robin_workload};
