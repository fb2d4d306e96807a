//! # rvaas-bench
//!
//! The experiment harness: the paper-reproduction experiments (`f1`,
//! `t1..t9`, `a1`, `a2`) and the service-plane experiments `s1..s4`, listed
//! in README's "Experiments, benches, examples". Each experiment is a
//! function returning printable rows; the `experiments` binary runs one (or
//! all) of them and prints the table. `s1..s4` keep only what the
//! stand-alone `benchmark/` package's socket-level runs and per-layer ladder
//! cannot measure, and write their `BENCH_*.json` through one report
//! writer (`report.rs`).
//!
//! The RVaaS paper (DSN 2016, abstract in `PAPER.md`) contains no
//! quantitative evaluation of its own — the experiment set here
//! operationalises its qualitative claims; an experiment's heading names the
//! paper section or figure it exercises where there is one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod incremental_churn;
mod query_scale;
mod report;
mod service_throughput;
mod startup_scale;

pub use experiments::{run_experiment, EXPERIMENT_IDS};
