//! # rvaas-bench
//!
//! The experiment harness regenerating every table and figure documented in
//! `EXPERIMENTS.md`. Each experiment is a pure function returning printable
//! rows; the `experiments` binary runs one (or all) of them and prints the
//! table.
//!
//! The RVaaS paper (DSN 2016) contains no quantitative evaluation of its own
//! — the experiment set here operationalises its qualitative claims; see
//! `DESIGN.md` §4 for the mapping from experiment id to paper anchor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod incremental_churn;
pub mod query_scale;
pub mod service_throughput;
mod startup_scale;

pub use experiments::{run_experiment, EXPERIMENT_IDS};
pub use incremental_churn::{
    exp_s2_incremental_churn, measure_incremental_churn, smoke_mode, IncrementalChurnExperiment,
};
pub use query_scale::{exp_s3_query_scale, measure_query_scale, soak_mode, QueryScaleExperiment};
pub use service_throughput::{exp_s1_service_throughput, measure, ServiceThroughputReport};
