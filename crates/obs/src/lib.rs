//! # steam-obs
//!
//! Zero-dependency observability for the *Condensing Steam* reproduction:
//! the paper's six-month crawl against a rate-limited API (§3.1) is only
//! operable with visibility into retry rates, throttle waits, and
//! per-endpoint latency — this crate provides exactly that, for every layer
//! of the workspace, without perturbing any analysis output.
//!
//! * [`metrics`] — lock-free-on-the-hot-path instruments: atomic
//!   [`Counter`]s, [`Gauge`]s, and log-bucketed latency [`Histogram`]s with
//!   p50/p95/p99 extraction;
//! * [`registry`] — a named, labeled metric [`Registry`] with Prometheus
//!   text exposition (what `GET /metrics` serves);
//! * [`trace`] — leveled structured events and `span`-style RAII timers,
//!   delivered to a pluggable [`Sink`] (stderr text formatter included,
//!   honoring `--log-level`);
//! * [`flight`] — request-scoped [`TraceId`]/[`SpanId`] propagation
//!   (`X-Steam-Trace`) and the always-on flight recorder, one lock over a
//!   ring of recent spans and a reservoir of the slowest, behind the
//!   server's `/debug/spans` and `/debug/slow` endpoints.
//!
//! ## Determinism contract
//!
//! Instrumentation *observes, never perturbs*: nothing in this crate writes
//! to stdout, and no consumer may let a metric or trace value feed back into
//! report content. `steam-cli report` output is byte-identical with
//! observability enabled or disabled (enforced by
//! `crates/core/tests/parallel_report.rs`).

pub mod flight;
pub mod metrics;
pub mod registry;
pub mod rss;
pub mod trace;

pub use flight::{
    mint_trace_id, next_span_id, now_us, recent_spans, record_span, slowest_spans, splitmix64,
    FlightRecorder, SpanId, SpanKind, SpanRecord, TraceContext, TraceId, TRACE_HEADER,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::Registry;
pub use rss::peak_rss_bytes;
pub use trace::{
    enabled, level, set_level, set_sink, span, Event, Level, Sink, SpanTimer, StderrSink,
};
