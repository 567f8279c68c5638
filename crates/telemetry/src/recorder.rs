//! The flight recorder: the hub's one trace store, an always-on bounded
//! ring of recent spans and events in arrival order.
//!
//! Every span the hub records and every event it sees is moved into this
//! ring once, with one (short, uncontended) mutex push; the hub's
//! `spans()`, `events()`, `trace_spans()` and `render_timeline()` are
//! views over it. Events are kept whatever the hub's `recording` switch
//! says, so trigger-grade occurrences (breaker opens, load sheds, chaos
//! faults) are always on the record.
//!
//! A **trigger** (`trigger`) — breaker-open, a `load.shed` burst, a chaos
//! invariant violation — renders the newest `DUMP_CAP` entries into a
//! stored [`IncidentDump`] and the ring keeps running: the moments before
//! the incident survive in the dump however long the process runs on, and
//! the next trigger replaces it.
//!
//! Cost model: when enabled, one mutex push per span/event (plus one
//! eviction once the ring is full) — the E18 bench pins the total
//! always-on overhead (recorder + exemplars) inside the <5% telemetry
//! budget. When disabled, one relaxed load and nothing is stored.

use crate::hub::{EventRecord, SpanRecord};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Ring capacity: enough for the last few seconds of a busy node without
/// holding a whole soak run in memory.
pub const RECORDER_CAP: usize = 65_536;

/// Lines rendered into an [`IncidentDump`]: the newest part of the ring.
pub(crate) const DUMP_CAP: usize = 16_384;

/// One retained entry: a span or an event, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FlightEntry {
    /// A completed span (sampled traces only — unsampled calls produce no
    /// spans anywhere).
    Span(SpanRecord),
    /// A point event; kept even when hub recording is off.
    Event(EventRecord),
}

/// A stored incident dump: what fired the trigger and what the ring held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentDump {
    /// The trigger kind, e.g. `"breaker.open"` or `"invariant.violation"`.
    pub reason: String,
    /// Hub-epoch nanoseconds at which the trigger fired.
    pub at_ns: u64,
    /// Rendered timeline at the moment of the trigger, oldest first.
    pub lines: Vec<String>,
}

/// Counter snapshot of the recorder, for exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Entries currently retained in the ring.
    pub entries: u64,
    /// Entries appended over the recorder's lifetime.
    pub appended: u64,
    /// Entries evicted (ring overflow) over the recorder's lifetime.
    pub evicted: u64,
    /// Triggers fired over the recorder's lifetime.
    pub triggers: u64,
}

/// The always-on bounded ring. One lives inside the hub
/// ([`crate::TelemetryHub::recorder`]); standalone instances exist only
/// in tests.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    /// Bumped under the `ring` lock: entries leave only by eviction, so
    /// `appended - ring.len()` is the eviction count.
    appended: AtomicU64,
    triggers: AtomicU64,
    ring: Mutex<VecDeque<FlightEntry>>,
    last_dump: Mutex<Option<IncidentDump>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// An enabled, empty recorder.
    #[must_use]
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            enabled: AtomicBool::new(true),
            appended: AtomicU64::new(0),
            triggers: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            last_dump: Mutex::new(None),
        }
    }

    /// Master switch (on by default). Unlike the hub's `recording` flag
    /// this is meant to stay on in production; turning it off — which
    /// stores nothing at all, spans and events alike — exists for
    /// overhead comparison (the E18 bench) and paranoid tuning.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Append one entry (dropped while disabled).
    pub(crate) fn push(&self, entry: FlightEntry) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = self.ring.lock();
        self.appended.fetch_add(1, Ordering::Relaxed);
        let evicted = if ring.len() >= RECORDER_CAP {
            ring.pop_front()
        } else {
            None
        };
        ring.push_back(entry);
        // Free the evicted entry's strings after releasing the lock.
        drop(ring);
        drop(evicted);
    }

    /// Clones of the retained entries `pick` selects, in arrival order.
    pub(crate) fn collect<T>(&self, pick: impl FnMut(&FlightEntry) -> Option<T>) -> Vec<T> {
        self.ring.lock().iter().filter_map(pick).collect()
    }

    /// Render the newest `DUMP_CAP` entries into the stored dump under
    /// `reason`, replacing any earlier dump; the ring keeps running.
    /// Returns the dump lines.
    pub fn trigger(&self, reason: &str, at_ns: u64) -> Vec<String> {
        self.triggers.fetch_add(1, Ordering::Relaxed);
        let lines = self.render_timeline(DUMP_CAP);
        *self.last_dump.lock() = Some(IncidentDump {
            reason: reason.to_owned(),
            at_ns,
            lines: lines.clone(),
        });
        lines
    }

    /// The dump stored by the most recent trigger, if any has fired.
    #[must_use]
    pub fn last_dump(&self) -> Option<IncidentDump> {
        self.last_dump.lock().clone()
    }

    /// Render the merged, causally-ordered timeline — spans (by start
    /// time) and events interleaved — keeping only the last `limit`
    /// lines (callers outside the crate use
    /// [`TelemetryHub::render_timeline`](crate::TelemetryHub::render_timeline)).
    #[must_use]
    pub(crate) fn render_timeline(&self, limit: usize) -> Vec<String> {
        let ring = self.ring.lock();
        let mut entries: Vec<&FlightEntry> = ring.iter().collect();
        // Events sort before spans at equal times so a fault reads as
        // preceding the calls it affected; ties keep arrival order.
        entries.sort_by_key(|e| match e {
            FlightEntry::Event(e) => (e.at_ns, 0),
            FlightEntry::Span(s) => (s.start_ns, 1),
        });
        let skip = entries.len().saturating_sub(limit);
        entries[skip..]
            .iter()
            .map(|e| match e {
                FlightEntry::Event(e) => format!(
                    "[{:>12}ns] event {:<22} node={} trace={} {}",
                    e.at_ns, e.kind, e.node, e.trace_id, e.detail
                ),
                FlightEntry::Span(s) => format!(
                    "[{:>12}ns] span  {:<22} node={} trace={} span={} parent={} op={} {}ns -> {}",
                    s.start_ns,
                    s.layer,
                    s.node,
                    s.trace_id,
                    s.span_id,
                    s.parent_span,
                    s.op.as_deref().unwrap_or("-"),
                    s.end_ns.saturating_sub(s.start_ns),
                    s.termination
                ),
            })
            .collect()
    }

    /// Counter snapshot for exposition.
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        let ring = self.ring.lock();
        let entries = ring.len() as u64;
        let appended = self.appended.load(Ordering::Relaxed);
        RecorderStats {
            entries,
            appended,
            evicted: appended - entries,
            triggers: self.triggers.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: &'static str, at_ns: u64) -> FlightEntry {
        FlightEntry::Event(EventRecord {
            at_ns,
            kind,
            node: 1,
            trace_id: 9,
            detail: "d".into(),
        })
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let r = FlightRecorder::new();
        for i in 0..(RECORDER_CAP as u64 + 10) {
            r.push(event("overflow", i));
        }
        let stats = r.stats();
        assert_eq!(stats.entries, RECORDER_CAP as u64);
        assert_eq!(stats.evicted, 10);
        assert_eq!(stats.appended, RECORDER_CAP as u64 + 10);
        let tail = r.render_timeline(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[1].contains(&format!("{}ns", RECORDER_CAP + 9)));
    }

    #[test]
    fn trigger_dumps_and_ring_keeps_running() {
        let r = FlightRecorder::new();
        r.push(event("before", 1));
        let dump = r.trigger("breaker.open", 2);
        assert_eq!(dump.len(), 1);
        assert!(dump[0].contains("before"));
        // The ring keeps running: a later entry is retained and rendered,
        // while the stored dump keeps only what preceded the trigger.
        r.push(event("after", 3));
        assert_eq!(r.stats().entries, 2);
        assert!(r.render_timeline(usize::MAX)[1].contains("after"));
        let stored = r.last_dump().expect("dump stored");
        assert_eq!(stored.reason, "breaker.open");
        assert_eq!(stored.lines, dump);
        // A second trigger replaces the dump and is counted.
        let second = r.trigger("load.shed.burst", 4);
        assert_eq!(second.len(), 2);
        let stored = r.last_dump().expect("dump replaced");
        assert_eq!(stored.reason, "load.shed.burst");
        assert_eq!(stored.at_ns, 4);
        assert_eq!(r.stats().triggers, 2);
    }

    #[test]
    fn dump_is_capped_below_the_ring() {
        let r = FlightRecorder::new();
        for i in 0..(RECORDER_CAP as u64) {
            r.push(event("fill", i));
        }
        assert_eq!(r.stats().entries, RECORDER_CAP as u64);
        let dump = r.trigger("test.cap", 0);
        assert_eq!(dump.len(), DUMP_CAP);
        // The dump is the newest part of the ring.
        assert!(dump[DUMP_CAP - 1].contains(&format!("{}ns", RECORDER_CAP - 1)));
        assert_eq!(r.stats().entries, RECORDER_CAP as u64);
    }

    #[test]
    fn disabled_recorder_drops_entries() {
        let r = FlightRecorder::new();
        r.set_enabled(false);
        r.push(event("ignored", 1));
        assert_eq!(r.stats().entries, 0);
        r.set_enabled(true);
        r.push(event("kept", 2));
        assert_eq!(r.stats().entries, 1);
    }
}
