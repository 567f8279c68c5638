//! odp-telemetry: the observability plane for odp-rs.
//!
//! The paper's framing — transparency is an *effect* produced by layers
//! linked into the access path — makes the access path itself the thing
//! worth observing. This crate provides the three pieces the rest of the
//! workspace threads through that path:
//!
//! 1. [`TraceContext`]: a 25-byte span identity carried in every
//!    invocation envelope (and on the wire by `odp-wire`/`odp-net`), so
//!    one client interrogation yields a causally-linked span tree across
//!    stub, transparency layers, nucleus dispatch, nested invocations,
//!    federation boundaries, and group fan-out.
//! 2. [`LayerMetrics`]/[`MetricsRegistry`]: lock-free per-`(node, layer)`
//!    counters and log-bucketed latency histograms, resolved to `Arc`
//!    handles at bind time so the hot path is a couple of relaxed
//!    `fetch_add`s.
//! 3. [`TelemetryHub`]: the process-global hub holding the recording
//!    switch, the sampling policy, the flight recorder, and the merged
//!    timeline / trace-tree renderers used by the chaos harness and the
//!    nucleus introspection interface.
//! 4. [`WireStats`]: global relaxed counters for the zero-copy wire hot
//!    path — encode-buffer pool hits/misses, borrowed-vs-copied decode
//!    bytes, and transport write coalescing — so the marshalling
//!    optimizations of §4.5 are observable (and assertable in tests).
//! 5. [`export`]: the Observatory exposition — the full registry (layer
//!    cells with exemplar-linked log₂ histograms, queue gauges, wire
//!    stats, recorder state) rendered as Prometheus text, served by the
//!    `TelemetryServant` (`export_text`) and the `odp-net` scrape
//!    listener (`/metrics`).
//! 6. [`FlightRecorder`]: the one trace store — an always-on bounded
//!    ring of recent spans/events, with triggers (breaker-open, shed
//!    bursts, chaos invariant violations) that store a rendered dump
//!    while the ring keeps running, so post-mortems never depend on
//!    having had recording enabled.
//!
//! This crate sits at the bottom of the dependency graph (std +
//! `parking_lot` only); nodes are identified by raw `u64` so it does not
//! depend on `odp-types`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod context;
pub mod export;
mod hub;
mod metrics;
pub mod recorder;
mod wire_stats;

pub use context::{current, set_current, CurrentGuard, TraceContext, FLAG_SAMPLED};
pub use export::{render_prometheus, ExpositionData};
pub use hub::{hub, EventRecord, Sampling, SpanRecord, TelemetryHub};
pub use metrics::{
    Exemplar, LayerMetrics, MetricsRegistry, MetricsSnapshot, QueueGauge, QueueSnapshot, BUCKETS,
};
pub use recorder::{FlightRecorder, IncidentDump, RecorderStats};
pub use wire_stats::{wire_stats, WireStats, WireStatsSnapshot};
