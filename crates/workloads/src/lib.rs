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
//! The [`service_load`] module drives the `rvaas-service` query path with
//! a many-client query workload under epoch churn — the service-plane
//! counterpart of the in-band scenario — and the [`churn`] module adds the
//! tenant-pinned churn workload plus the two epoch-advance measurement
//! drivers (service, from-scratch baseline) behind experiment `s2`. The [`query_scale`]
//! module scales the standing-query population under fixed churn to show
//! epoch advance is `O(affected)`, not `O(standing queries)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod locations;
pub mod query_scale;
pub mod scenario;
pub mod service_load;

pub use churn::{
    run_full_rebuild_churn, run_incremental_churn, tenant_churn_round, FullRebuildChurnReport,
    IncrementalChurnConfig, IncrementalChurnReport, MedianMad,
};
pub use locations::{crowd_sourced_map, inferred_map};
pub use query_scale::{run_query_scale, synthetic_queries, QueryScaleConfig, QueryScaleReport};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioOutcome};
pub use service_load::{
    benign_snapshot, churn_round, clients_of, query_mix, round_robin_workload, run_service_load,
    ServiceLoadConfig, ServiceLoadReport,
};
