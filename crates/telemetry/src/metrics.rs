//! Lock-free per-layer metrics: atomic call/failure counters plus a
//! log₂-bucketed latency histogram per `(node, layer)` pair.
//!
//! Handles are resolved once (at bind / capsule-creation time) and the
//! hot path touches only `AtomicU64`s with relaxed ordering — no locks,
//! no allocation. Quantiles are computed lazily from the buckets when a
//! snapshot is taken.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log₂ latency buckets: bucket `i` holds samples with
/// `floor(log2(ns)) == i`, covering 1 ns … ~17 minutes.
pub const BUCKETS: usize = 40;

/// An exemplar: the most recent call that landed in a histogram bucket,
/// identified well enough to jump from the bucket straight to its trace
/// tree (`TelemetryHub::render_trace`). A zero `trace_id` means no
/// sampled call has landed in the bucket yet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace of the exemplar call (zero: none recorded).
    pub trace_id: u64,
    /// Node the exemplar call was recorded on.
    pub node: u64,
}

/// Per-layer metric cell: two counters and a latency histogram.
///
/// All fields are atomics updated with relaxed ordering; a handle is an
/// `Arc` resolved at bind time, so recording is wait-free. Each histogram
/// bucket also remembers the most recent `(trace_id, node)` that landed
/// in it — the [`Exemplar`] linking a hot p99 bucket to a concrete trace.
/// The pair is two relaxed stores, not one atomic unit: under a race the
/// node may belong to a different call than the trace, but both are real
/// calls from the same latency class, so the operator's jump target stays
/// valid.
#[derive(Debug)]
pub struct LayerMetrics {
    calls: AtomicU64,
    failures: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    exemplar_trace: [AtomicU64; BUCKETS],
    exemplar_node: [AtomicU64; BUCKETS],
}

impl LayerMetrics {
    fn new() -> LayerMetrics {
        LayerMetrics {
            calls: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_trace: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_node: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Count one call (and optionally one failure) without a latency
    /// sample — the cheapest recording mode, used on unsampled calls.
    pub fn count(&self, failed: bool) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one call with a latency sample and remember it as the
    /// bucket's exemplar: the most recent `(trace_id, node)` that landed
    /// there. A zero `trace_id` records the sample without touching the
    /// exemplar, so unlinked samples never erase a usable jump target.
    pub fn record_call_exemplar(&self, ns: u64, failed: bool, trace_id: u64, node: u64) {
        self.count(failed);
        let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        if trace_id != 0 {
            self.exemplar_trace[bucket].store(trace_id, Ordering::Relaxed);
            self.exemplar_node[bucket].store(node, Ordering::Relaxed);
        }
    }

    /// Total calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total failed calls recorded so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    fn quantile(&self, counts: &[u64; BUCKETS], total: u64, q: f64) -> u64 {
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Representative value: geometric midpoint of the bucket.
                return (1u64 << i) + (1u64 << i) / 2;
            }
        }
        (1u64 << (BUCKETS - 1)) + (1u64 << (BUCKETS - 1)) / 2
    }

    /// Zero every counter and bucket in place. Handles resolved before
    /// the reset keep recording into the same cell.
    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        for i in 0..BUCKETS {
            self.buckets[i].store(0, Ordering::Relaxed);
            self.exemplar_trace[i].store(0, Ordering::Relaxed);
            self.exemplar_node[i].store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot counters and derive p50/p95/p99 from the histogram.
    pub fn snapshot(&self, node: u64, layer: &'static str) -> MetricsSnapshot {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let samples: u64 = counts.iter().sum();
        MetricsSnapshot {
            node,
            layer,
            calls: self.calls(),
            failures: self.failures(),
            samples,
            p50_ns: self.quantile(&counts, samples, 0.50),
            p95_ns: self.quantile(&counts, samples, 0.95),
            p99_ns: self.quantile(&counts, samples, 0.99),
            buckets: counts,
            exemplars: std::array::from_fn(|i| Exemplar {
                trace_id: self.exemplar_trace[i].load(Ordering::Relaxed),
                node: self.exemplar_node[i].load(Ordering::Relaxed),
            }),
        }
    }
}

/// Point-in-time view of one `(node, layer)` metric cell, with
/// bucket-resolution quantiles (values are bucket midpoints, so they are
/// accurate to within a factor of ~1.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Node the capsule lives on.
    pub node: u64,
    /// Layer name, e.g. `"failure:retry"` or `"dispatch"`.
    pub layer: &'static str,
    /// Total calls observed by the layer.
    pub calls: u64,
    /// Calls that terminated in an error.
    pub failures: u64,
    /// Latency samples in the histogram (only sampled calls contribute).
    pub samples: u64,
    /// Median latency in nanoseconds (bucket midpoint).
    pub p50_ns: u64,
    /// 95th-percentile latency in nanoseconds (bucket midpoint).
    pub p95_ns: u64,
    /// 99th-percentile latency in nanoseconds (bucket midpoint).
    pub p99_ns: u64,
    /// Raw per-bucket sample counts (`buckets[i]` holds samples with
    /// `floor(log2(ns)) == i`).
    pub buckets: [u64; BUCKETS],
    /// Per-bucket exemplars: the most recent sampled call that landed in
    /// each bucket (`trace_id == 0` when none has).
    pub exemplars: [Exemplar; BUCKETS],
}

impl MetricsSnapshot {
    /// The exemplar of the highest-index non-empty bucket — the jump
    /// target for "the p99/worst-latency bucket is hot, show me a call".
    /// `None` when no bucket has both samples and a recorded exemplar.
    #[must_use]
    pub fn hot_exemplar(&self) -> Option<(usize, Exemplar)> {
        (0..BUCKETS)
            .rev()
            .find(|&i| self.buckets[i] > 0 && self.exemplars[i].trace_id != 0)
            .map(|i| (i, self.exemplars[i]))
    }
}

/// A depth gauge for a bounded queue (admission queues, writer queues):
/// current depth, high-water mark, and enter/drop counters. All atomics
/// with relaxed ordering — wait-free on the enqueue/dequeue hot path.
#[derive(Debug, Default)]
pub struct QueueGauge {
    depth: AtomicU64,
    high_water: AtomicU64,
    enqueued: AtomicU64,
    dropped: AtomicU64,
}

impl QueueGauge {
    /// Record one element entering the queue.
    pub fn enter(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record one element leaving the queue (dispatched).
    pub fn leave(&self) {
        // Saturating: a leave without a matched enter (e.g. after `clear`)
        // must not wrap the gauge to u64::MAX.
        let _ = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Record one element rejected instead of enqueued (shed).
    pub fn drop_one(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Current queue depth.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Total elements that entered the queue.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Total elements rejected instead of enqueued.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.depth.store(0, Ordering::Relaxed);
        self.high_water.store(0, Ordering::Relaxed);
        self.enqueued.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Point-in-time view of the gauge.
    pub fn snapshot(&self, node: u64, queue: &'static str) -> QueueSnapshot {
        QueueSnapshot {
            node,
            queue,
            depth: self.depth(),
            high_water: self.high_water(),
            enqueued: self.enqueued(),
            dropped: self.dropped(),
        }
    }
}

/// Point-in-time view of one `(node, queue)` gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Node the queue lives on.
    pub node: u64,
    /// Queue name, e.g. `"admission.high"`.
    pub queue: &'static str,
    /// Depth at snapshot time.
    pub depth: u64,
    /// Deepest the queue has ever been.
    pub high_water: u64,
    /// Total elements that entered the queue.
    pub enqueued: u64,
    /// Total elements rejected instead of enqueued.
    pub dropped: u64,
}

/// Registry mapping `(node, layer)` to its metric cell. Registration
/// takes a write lock (cold: once per binding/capsule); recording uses
/// the returned `Arc` directly and never touches the registry again.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    cells: RwLock<BTreeMap<(u64, &'static str), Arc<LayerMetrics>>>,
    gauges: RwLock<BTreeMap<(u64, &'static str), Arc<QueueGauge>>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Fetch (or create) the metric cell for `(node, layer)`.
    pub fn register(&self, node: u64, layer: &'static str) -> Arc<LayerMetrics> {
        if let Some(cell) = self.cells.read().get(&(node, layer)) {
            return Arc::clone(cell);
        }
        Arc::clone(
            self.cells
                .write()
                .entry((node, layer))
                .or_insert_with(|| Arc::new(LayerMetrics::new())),
        )
    }

    /// Fetch (or create) the queue gauge for `(node, queue)`.
    pub fn register_gauge(&self, node: u64, queue: &'static str) -> Arc<QueueGauge> {
        if let Some(gauge) = self.gauges.read().get(&(node, queue)) {
            return Arc::clone(gauge);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry((node, queue))
                .or_insert_with(|| Arc::new(QueueGauge::default())),
        )
    }

    /// Snapshot every registered cell, ordered by `(node, layer)`.
    pub fn snapshot_all(&self) -> Vec<MetricsSnapshot> {
        self.cells
            .read()
            .iter()
            .map(|(&(node, layer), cell)| cell.snapshot(node, layer))
            .collect()
    }

    /// Snapshot every registered queue gauge, ordered by `(node, queue)`.
    pub fn snapshot_gauges(&self) -> Vec<QueueSnapshot> {
        self.gauges
            .read()
            .iter()
            .map(|(&(node, queue), gauge)| gauge.snapshot(node, queue))
            .collect()
    }

    /// Zero every registered cell in place (test isolation). Cells are
    /// deliberately *not* dropped: bindings and capsules hold handles
    /// resolved at bind time, and dropping the registry entry would
    /// silently disconnect them from future snapshots.
    pub fn clear(&self) {
        for cell in self.cells.read().values() {
            cell.reset();
        }
        for gauge in self.gauges.read().values() {
            gauge.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = LayerMetrics::new();
        m.count(false);
        m.count(true);
        m.record_call_exemplar(1000, false, 0, 0);
        assert_eq!(m.calls(), 3);
        assert_eq!(m.failures(), 1);
    }

    #[test]
    fn quantiles_track_buckets() {
        let m = LayerMetrics::new();
        for _ in 0..90 {
            m.record_call_exemplar(1_000, false, 0, 0);
        }
        for _ in 0..10 {
            m.record_call_exemplar(1_000_000, false, 0, 0);
        }
        let s = m.snapshot(1, "test");
        assert_eq!(s.samples, 100);
        // p50 lands in the 1 µs cluster, p99 in the 1 ms cluster.
        assert!(s.p50_ns < 4_000, "p50 {}", s.p50_ns);
        assert!(s.p99_ns > 250_000, "p99 {}", s.p99_ns);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
    }

    #[test]
    fn registry_dedups_and_snapshots() {
        let r = MetricsRegistry::new();
        let a = r.register(1, "access");
        let b = r.register(1, "access");
        assert!(Arc::ptr_eq(&a, &b));
        a.count(false);
        let snaps = r.snapshot_all();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].calls, 1);
        r.clear();
        // Cells survive a clear (handles stay connected); counts reset.
        let snaps = r.snapshot_all();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].calls, 0);
        a.count(false);
        assert_eq!(r.snapshot_all()[0].calls, 1);
    }

    #[test]
    fn queue_gauge_tracks_depth_and_high_water() {
        let r = MetricsRegistry::new();
        let g = r.register_gauge(1, "admission.normal");
        assert!(Arc::ptr_eq(&g, &r.register_gauge(1, "admission.normal")));
        g.enter();
        g.enter();
        g.enter();
        g.leave();
        g.drop_one();
        let snap = &r.snapshot_gauges()[0];
        assert_eq!(snap.depth, 2);
        assert_eq!(snap.high_water, 3);
        assert_eq!(snap.enqueued, 3);
        assert_eq!(snap.dropped, 1);
        // Leaves never wrap below zero, and clear resets in place.
        g.leave();
        g.leave();
        g.leave();
        assert_eq!(g.depth(), 0);
        r.clear();
        assert_eq!(r.snapshot_gauges()[0].high_water, 0);
    }

    #[test]
    fn exemplars_remember_the_latest_landing() {
        let m = LayerMetrics::new();
        // Two calls in the [512, 1023] ns bucket: the later one wins.
        m.record_call_exemplar(1_000, false, 41, 7);
        m.record_call_exemplar(1_010, false, 42, 7);
        // A slow call in a different bucket keeps its own exemplar.
        m.record_call_exemplar(40_000_000, true, 99, 3);
        // An unlinked sample (trace 0) never erases a jump target.
        m.record_call_exemplar(1_015, false, 0, 0);
        let s = m.snapshot(7, "test");
        let fast_bucket = (64 - 1_000u64.leading_zeros() as usize) - 1;
        let slow_bucket = (64 - 40_000_000u64.leading_zeros() as usize) - 1;
        assert_eq!(
            s.exemplars[fast_bucket],
            Exemplar {
                trace_id: 42,
                node: 7
            }
        );
        assert_eq!(
            s.exemplars[slow_bucket],
            Exemplar {
                trace_id: 99,
                node: 3
            }
        );
        assert_eq!(
            s.hot_exemplar(),
            Some((slow_bucket, s.exemplars[slow_bucket]))
        );
        assert_eq!(s.buckets.iter().sum::<u64>(), s.samples);
        m.reset();
        assert_eq!(m.snapshot(7, "test").hot_exemplar(), None);
    }

    #[test]
    fn zero_ns_does_not_panic() {
        let m = LayerMetrics::new();
        m.record_call_exemplar(0, false, 0, 0);
        assert_eq!(m.snapshot(0, "z").samples, 1);
    }
}
