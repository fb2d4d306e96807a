//! # rvaas-telemetry — the unified observability substrate
//!
//! Every layer of the RVaaS service plane records into one shared,
//! zero-dependency [`Registry`] of named metrics, built on `std` atomics;
//! `ServiceStats`, `CacheStats` and `ReverifyStats` are point-in-time views
//! over it (`benchmark/` reads the first and the last):
//!
//! * [`Counter`] — a monotonic `u64`; `inc`/`add` are single relaxed
//!   atomic RMWs, safe on any hot path.
//! * [`Gauge`] — a signed instantaneous value (queue depth, epoch serial).
//! * [`Histogram`] — log₂-bucketed distribution with a lock-free
//!   [`record`](Histogram::record), mergeable [`HistogramSnapshot`]s and
//!   percentile extraction (p50/p90/p99) clamped to the observed min/max.
//! * [`Span`] — an RAII timer tracing one stage of the query lifecycle
//!   (`registry.stage_histogram("pool.eval").span()` records elapsed
//!   microseconds into the `rvaas_stage_latency_us{stage="pool.eval"}`
//!   histogram on drop; a stage that has a [`TraceStage`] is named by its
//!   [`TraceStage::as_str`]).
//! * [`Registry::render_text`] — Prometheus text exposition (`# HELP` /
//!   `# TYPE` / sample lines) ready to be served verbatim from a `/metrics`
//!   endpoint; [`text::parse_text`] is the matching line-level parser the
//!   tests and the CI format gate use.
//! * [`trace`] — the causal layer on top of the aggregates: per-ingress
//!   [`TraceId`]s, a sharded ring-buffer [`FlightRecorder`] of structured
//!   events (default-on; appends cost a relaxed RMW plus a few stores),
//!   bounded slow-query retention, and histogram **exemplars** linking each
//!   stage-latency family's worst recent observation back to its trace.
//!
//! Handles returned by the registry are `Arc`s: look a metric up once at
//! construction time, then record through the handle — the registry's
//! internal mutex is only ever taken at registration and render time, never
//! on the metric hot path.
//!
//! ```
//! use rvaas_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let queries = registry.counter("rvaas_queries_total", "Queries answered.");
//! let latency = registry.histogram("rvaas_query_latency_us", "Query latency (µs).");
//! let eval = registry.stage_histogram("pool.eval");
//! queries.inc();
//! latency.record(250);
//! {
//!     let _span = eval.span(); // records on drop
//! }
//! let text = registry.render_text();
//! assert!(text.contains("rvaas_queries_total 1"));
//! assert!(text.contains("# TYPE rvaas_query_latency_us histogram"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod metric;
pub mod registry;
pub mod text;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, Span, BUCKETS};
pub use metric::{Counter, Gauge};
pub use registry::{MetricKind, Registry};
pub use text::{parse_text, Sample, TextParseError};
pub use trace::{
    CaptureReason, FlightRecorder, RetainedTrace, TraceContext, TraceEvent, TraceId, TraceStage,
};
