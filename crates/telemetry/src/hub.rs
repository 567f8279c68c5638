//! The process-wide telemetry hub: owns the metric registry, the flight
//! recorder (the one ring of spans and events), the sampling decision,
//! and the monotonic clock every record is stamped with.
//!
//! Cost model (the contract the e16 bench verifies):
//! - recording **off**: every instrumentation site is a single relaxed
//!   atomic load that fails — effectively free;
//! - recording **on, call unsampled**: per-layer counter increments
//!   (relaxed `fetch_add`) and a thread-local trace install; no clocks,
//!   no locks;
//! - recording **on, call sampled**: full span records with start/end
//!   timestamps, each moved into the recorder's bounded ring with one
//!   (short, uncontended) mutex push — the only path that takes a lock.
//!
//! Events take the same single push whatever the recording switch says.

use crate::context::{TraceContext, FLAG_SAMPLED};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::recorder::{FlightEntry, FlightRecorder};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Which fraction of root traces get full span recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// No trace is sampled; only counters accumulate.
    Off,
    /// Every trace is sampled (tests, demos, post-mortems).
    All,
    /// One root trace in `n` is sampled (production-style); `n <= 1`
    /// samples every trace.
    OneIn(u32),
}

/// One completed span: a timed visit to one layer on one node, causally
/// linked into its trace tree by `(trace_id, span_id, parent_span)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's identity.
    pub span_id: u64,
    /// Parent span (zero for the root).
    pub parent_span: u64,
    /// Node the span executed on.
    pub node: u64,
    /// Layer name (`"client"`, `"failure:retry"`, `"dispatch"`, …).
    pub layer: &'static str,
    /// Operation name, where the layer knows it.
    pub op: Option<String>,
    /// Start time, nanoseconds since the hub epoch.
    pub start_ns: u64,
    /// End time, nanoseconds since the hub epoch.
    pub end_ns: u64,
    /// Termination: `"ok"` or the error rendering.
    pub termination: String,
}

/// One point event: a named occurrence (retry attempt, breaker
/// transition, chaos fault, transport error) on the shared timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Time, nanoseconds since the hub epoch.
    pub at_ns: u64,
    /// Event kind, e.g. `"retry.attempt"` or `"chaos.crash"`.
    pub kind: &'static str,
    /// Node the event occurred on (zero when not node-specific).
    pub node: u64,
    /// Trace the event is associated with (zero when none).
    pub trace_id: u64,
    /// Human-readable detail.
    pub detail: String,
}

/// Process-global telemetry state; obtain it via [`hub`].
pub struct TelemetryHub {
    recording: AtomicBool,
    /// 0 = off, 1 = all, n>1 = one-in-n.
    sampling: AtomicU32,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    sample_tick: AtomicU64,
    epoch: Instant,
    registry: MetricsRegistry,
    recorder: FlightRecorder,
}

static HUB: OnceLock<TelemetryHub> = OnceLock::new();

/// The process-wide hub (created on first use).
pub fn hub() -> &'static TelemetryHub {
    HUB.get_or_init(|| TelemetryHub {
        recording: AtomicBool::new(false),
        sampling: AtomicU32::new(0),
        next_trace: AtomicU64::new(1),
        next_span: AtomicU64::new(1),
        sample_tick: AtomicU64::new(0),
        epoch: Instant::now(),
        registry: MetricsRegistry::new(),
        recorder: FlightRecorder::new(),
    })
}

impl TelemetryHub {
    /// Is recording (counters, spans) enabled? Events are kept either
    /// way.
    #[inline]
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Master switch. Off (the default) makes every instrumentation
    /// site a failed relaxed load.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Choose the span-sampling policy (independent of the master switch).
    pub fn set_sampling(&self, sampling: Sampling) {
        let raw = match sampling {
            Sampling::Off => 0,
            Sampling::All => 1,
            Sampling::OneIn(n) => n.max(1),
        };
        self.sampling.store(raw, Ordering::Relaxed);
    }

    /// The span-sampling policy in force (`OneIn(0)` and `OneIn(1)` read
    /// back as `All`).
    pub fn sampling(&self) -> Sampling {
        match self.sampling.load(Ordering::Relaxed) {
            0 => Sampling::Off,
            1 => Sampling::All,
            n => Sampling::OneIn(n),
        }
    }

    /// Nanoseconds since the hub epoch (monotonic).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Begin a trace at the client stub. With a live `parent` (a nested
    /// invocation made inside a traced dispatch) the new context joins
    /// the parent's trace and inherits its sampling bit; at a true root
    /// the sampling policy decides whether the trace records spans.
    pub fn begin_trace(&self, parent: TraceContext) -> TraceContext {
        if !parent.is_none() {
            return self.child_of(parent);
        }
        let sampling = self.sampling.load(Ordering::Relaxed);
        let sampled = match sampling {
            0 => false,
            1 => true,
            n => self
                .sample_tick
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(n as u64),
        };
        TraceContext {
            trace_id: self.next_trace.fetch_add(1, Ordering::Relaxed),
            span_id: self.fresh_span(),
            parent_span: 0,
            flags: if sampled { FLAG_SAMPLED } else { 0 },
        }
    }

    /// Derive a child context nested under `parent` (same trace, fresh
    /// span id, same sampling bit).
    pub fn child_of(&self, parent: TraceContext) -> TraceContext {
        TraceContext {
            trace_id: parent.trace_id,
            span_id: self.fresh_span(),
            parent_span: parent.span_id,
            flags: parent.flags,
        }
    }

    /// Store a completed span in the flight recorder (bounded ring;
    /// oldest evicted first).
    pub fn record_span(&self, span: SpanRecord) {
        self.recorder.push(FlightEntry::Span(span));
    }

    /// Record a point event on the shared timeline. Kept whatever the
    /// recording switch says — breaker opens and load sheds stay on the
    /// post-mortem record even with recording off.
    pub fn event(&self, kind: &'static str, node: u64, trace_id: u64, detail: impl Into<String>) {
        self.recorder.push(FlightEntry::Event(EventRecord {
            at_ns: self.now_ns(),
            kind,
            node,
            trace_id,
            detail: detail.into(),
        }));
    }

    /// The always-on flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The per-layer metric registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Snapshot every registered metric cell.
    pub fn metrics_snapshot(&self) -> Vec<MetricsSnapshot> {
        self.registry.snapshot_all()
    }

    /// Copy of all retained spans, in arrival order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.recorder.collect(|e| match e {
            FlightEntry::Span(s) => Some(s.clone()),
            FlightEntry::Event(_) => None,
        })
    }

    /// Copy of all retained events, in arrival order.
    pub fn events(&self) -> Vec<EventRecord> {
        self.recorder.collect(|e| match e {
            FlightEntry::Event(ev) => Some(ev.clone()),
            FlightEntry::Span(_) => None,
        })
    }

    /// All retained spans belonging to `trace_id`.
    pub fn trace_spans(&self, trace_id: u64) -> Vec<SpanRecord> {
        self.recorder.collect(|e| match e {
            FlightEntry::Span(s) if s.trace_id == trace_id => Some(s.clone()),
            _ => None,
        })
    }

    /// Render the merged, causally-ordered timeline — spans (by start
    /// time) and events interleaved — keeping only the last `limit`
    /// lines. This is the post-mortem artifact the chaos harness dumps
    /// on an invariant violation.
    pub fn render_timeline(&self, limit: usize) -> Vec<String> {
        self.recorder.render_timeline(limit)
    }

    /// Render one trace as an indented tree rooted at its
    /// `parent_span == 0` span(s); orphan spans (parent missing from the
    /// retained set) are listed at the end so they are never silently
    /// dropped.
    pub fn render_trace(&self, trace_id: u64) -> Vec<String> {
        let mut spans = self.trace_spans(trace_id);
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        let mut out = Vec::new();
        let mut emitted = vec![false; spans.len()];

        fn emit(
            spans: &[SpanRecord],
            emitted: &mut [bool],
            parent: u64,
            depth: usize,
            out: &mut Vec<String>,
        ) {
            for (i, s) in spans.iter().enumerate() {
                if emitted[i] || s.parent_span != parent {
                    continue;
                }
                emitted[i] = true;
                let op = s.op.as_deref().unwrap_or("-");
                out.push(format!(
                    "{}{} node={} op={} {}ns -> {} (span {})",
                    "  ".repeat(depth),
                    s.layer,
                    s.node,
                    op,
                    s.end_ns.saturating_sub(s.start_ns),
                    s.termination,
                    s.span_id
                ));
                emit(spans, emitted, s.span_id, depth + 1, out);
            }
        }

        emit(&spans, &mut emitted, 0, 0, &mut out);
        for (i, s) in spans.iter().enumerate() {
            if !emitted[i] {
                out.push(format!(
                    "ORPHAN {} node={} span={} parent={} (parent span not retained)",
                    s.layer, s.node, s.span_id, s.parent_span
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All hub tests share the process-global hub; keep them disjoint by
    // using distinct trace ids from begin_trace.

    #[test]
    fn sampling_modes() {
        let h = hub();
        h.set_sampling(Sampling::Off);
        assert_eq!(h.sampling(), Sampling::Off);
        assert!(!h.begin_trace(TraceContext::NONE).is_sampled());
        h.set_sampling(Sampling::All);
        assert_eq!(h.sampling(), Sampling::All);
        assert!(h.begin_trace(TraceContext::NONE).is_sampled());
        // One in 1 (and the degenerate one in 0) sample every trace.
        for n in [1, 0] {
            h.set_sampling(Sampling::OneIn(n));
            for _ in 0..4 {
                assert!(h.begin_trace(TraceContext::NONE).is_sampled());
            }
        }
        h.set_sampling(Sampling::OneIn(1_000_000));
        assert_eq!(h.sampling(), Sampling::OneIn(1_000_000));
        // Child of a sampled parent stays sampled regardless of policy.
        let parent = TraceContext {
            trace_id: 9,
            span_id: 9,
            parent_span: 0,
            flags: FLAG_SAMPLED,
        };
        assert!(h.begin_trace(parent).is_sampled());
        assert_eq!(h.begin_trace(parent).trace_id, 9);
        h.set_sampling(Sampling::Off);
    }

    #[test]
    fn trace_tree_renders_connected() {
        let h = hub();
        let root_trace = 0xF00D_0001;
        let mk = |span_id, parent_span, layer: &'static str, start| SpanRecord {
            trace_id: root_trace,
            span_id,
            parent_span,
            node: 1,
            layer,
            op: Some("echo".into()),
            start_ns: start,
            end_ns: start + 10,
            termination: "ok".into(),
        };
        h.record_span(mk(1, 0, "client", 0));
        h.record_span(mk(2, 1, "failure:retry", 1));
        h.record_span(mk(3, 2, "access", 2));
        let tree = h.render_trace(root_trace);
        assert_eq!(tree.len(), 3);
        assert!(tree[0].starts_with("client"));
        assert!(tree[1].starts_with("  failure:retry"));
        assert!(tree[2].starts_with("    access"));
        assert!(!tree.iter().any(|l| l.contains("ORPHAN")));
    }

    #[test]
    fn orphans_are_reported() {
        let h = hub();
        let t = 0xF00D_0002;
        h.record_span(SpanRecord {
            trace_id: t,
            span_id: 5,
            parent_span: 4, // parent never recorded
            node: 2,
            layer: "dispatch",
            op: None,
            start_ns: 100,
            end_ns: 110,
            termination: "ok".into(),
        });
        let tree = h.render_trace(t);
        assert_eq!(tree.len(), 1);
        assert!(tree[0].contains("ORPHAN"));
    }

    #[test]
    fn events_respect_recording_switch() {
        // Events land in the one store whatever the switch says.
        let h = hub();
        h.set_recording(false);
        h.event("test.off", 1, 0, "kept");
        assert!(h.events().iter().any(|e| e.kind == "test.off"));
        h.set_recording(true);
        h.event("test.on", 1, 0, "kept");
        assert!(h.events().iter().any(|e| e.kind == "test.on"));
        h.set_recording(false);
    }

    #[test]
    fn trigger_dumps_while_the_store_keeps_running() {
        let h = hub();
        let t = 0xF00D_0004;
        let span = |span_id| SpanRecord {
            trace_id: t,
            span_id,
            parent_span: 0,
            node: 4,
            layer: "client",
            op: None,
            start_ns: h.now_ns(),
            end_ns: h.now_ns(),
            termination: "ok".into(),
        };
        h.record_span(span(1));
        h.event("test.before", 4, t, "pre-trigger");
        let dump = h.recorder().trigger("test.hub_trigger", h.now_ns());
        h.record_span(span(2));
        h.event("test.after", 4, t, "post-trigger");

        assert_eq!(h.trace_spans(t).len(), 2);
        assert!(h.spans().iter().any(|s| s.trace_id == t && s.span_id == 2));
        assert!(h.events().iter().any(|e| e.kind == "test.after"));
        let timeline = h.render_timeline(usize::MAX);
        assert!(timeline.iter().any(|l| l.contains("test.after")));
        assert!(timeline
            .iter()
            .any(|l| l.contains(&format!("trace={t} span=2 "))));

        assert!(dump.iter().any(|l| l.contains("test.before")));
        assert!(dump
            .iter()
            .any(|l| l.contains(&format!("trace={t} span=1 "))));
        assert!(!dump.iter().any(|l| l.contains("test.after")));
        assert!(!dump
            .iter()
            .any(|l| l.contains(&format!("trace={t} span=2 "))));
        let stored = h.recorder().last_dump().expect("dump stored");
        assert_eq!(stored.reason, "test.hub_trigger");
        assert_eq!(stored.lines, dump);
    }

    #[test]
    fn timeline_merges_and_limits() {
        let h = hub();
        h.set_recording(true);
        h.event("test.timeline", 3, 0, "fault");
        h.record_span(SpanRecord {
            trace_id: 0xF00D_0003,
            span_id: 77,
            parent_span: 0,
            node: 3,
            layer: "client",
            op: Some("op".into()),
            start_ns: h.now_ns(),
            end_ns: h.now_ns(),
            termination: "ok".into(),
        });
        let lines = h.render_timeline(10_000);
        assert!(lines.iter().any(|l| l.contains("test.timeline")));
        assert!(lines.iter().any(|l| l.contains("span=77")));
        assert_eq!(h.render_timeline(1).len(), 1);
        h.set_recording(false);
    }
}
