//! Deterministic observability: metrics, clocks, and span tracing.
//!
//! Estimation over a hidden database is an *economic* activity — the
//! paper's budget currency is the query-cost ledger
//! (`issued == underflow + valid + overflow + errored`) — yet until this
//! module existed that ledger, the memo hit-rates, the reactor dispatch
//! counts, and the WAL fsync latencies were only visible inside tests.
//! `obs` makes them first-class data while keeping the repo's strictest
//! invariant intact: **instrumentation is bit-invisible**. Every
//! estimate, outcome, and wire frame is identical with observability
//! enabled, disabled, or stripped.
//!
//! Three pieces enforce that:
//!
//! * [`MetricsRegistry`] — named lock-free counters, gauges, and
//!   fixed-bucket log2 histograms. Recording is a relaxed atomic add on a
//!   pre-resolved handle (no locking, no allocation, no branching on
//!   names) and happens strictly *after* a result is computed, so the
//!   computation can never observe its own telemetry. Snapshots come out
//!   as an ordered [`MetricsSnapshot`] (`BTreeMap`, HDB-D01-clean) and
//!   render to Prometheus text exposition.
//! * [`Clock`] — the only way timing enters telemetry. [`WallClock`]
//!   (the single reviewed `Instant` site outside benches; lint rule
//!   HDB-O01 confines wall-clock reads to `obs/clock.rs`) is opt-in per
//!   component; [`ManualClock`] gives tests deterministic nanoseconds.
//!   A component without a clock records durations as 0 — identically on
//!   every run.
//! * [`TraceRing`] — a bounded ring buffer of structured span open/close
//!   events with parent ids, for estimation passes, walk probes, wire
//!   exchanges, and WAL appends. Disabled by default (a ring push takes a
//!   mutex); opt in per component.
//!
//! The catalogue of metric names lives in `docs/ARCHITECTURE.md`
//! §Observability.

pub mod clock;
pub mod registry;
pub mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use registry::{
    bucket_le, bucket_of, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{SpanEvent, SpanPhase, TraceRing};
