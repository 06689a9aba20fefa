//! Observability substrate for the dgnn workspace: phase-level span
//! tracing and a metrics registry, with zero external dependencies.
//!
//! Two halves, deliberately decoupled:
//!
//! - [`trace`] — a span/event recorder gated on the `DGNN_TRACE`
//!   environment switch. When tracing is off (the default) every probe
//!   collapses to a single relaxed atomic load; when on, spans land in
//!   per-thread ring buffers and export as Chrome trace-event JSON that
//!   Perfetto or `chrome://tracing` can open directly. Instrumentation
//!   never touches the numeric path, so traced and untraced runs are
//!   bit-identical (pinned by `tests/telemetry_equivalence.rs`).
//! - [`metrics`] — counters, gauges, and fixed-bucket latency histograms
//!   (p50/p99/p999 readout) grouped in [`metrics::Registry`] instances
//!   with Prometheus-style text exposition. Histograms store their sum in
//!   fixed-point so merging per-thread shards is order-independent.
//!
//! [`jsonlint`] is a minimal JSON validity checker the tests and
//! `dgnn-benchmark` use to prove exported traces parse without pulling in
//! a JSON dependency.
//!
//! See `docs/OBSERVABILITY.md` for the span taxonomy and capture how-to.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod jsonlint;
pub mod metrics;
pub mod trace;
