//! Metrics exposition: the full registry — layer cells, log₂ histograms,
//! queue gauges, wire hot-path counters, flight-recorder state — rendered
//! as Prometheus-style text, the one exposition format.
//!
//! Rendering is a pure function of an [`ExpositionData`] snapshot so the
//! output is deterministic and pinnable (`exposition_snapshot` test);
//! [`ExpositionData::gather`] takes the snapshot from the process-global
//! hub. Consumers: the `TelemetryServant` `export_text` operation, the
//! `odp-net` scrape listener's `/metrics` route, and `odp-top` (which
//! scrapes it).
//!
//! Histogram buckets carry **exemplars**: each non-empty bucket's line
//! ends with the OpenMetrics-style `# {trace_id="…",node="…"} value`
//! annotation naming the most recent sampled call that landed in it, so
//! an operator can jump from "the p99 bucket is hot" straight to
//! `render_trace(trace_id)` for a real offending call.

use crate::metrics::{MetricsSnapshot, QueueSnapshot, BUCKETS};
use crate::recorder::RecorderStats;
use crate::wire_stats::WireStatsSnapshot;
use std::fmt::Write as _;

/// Everything the exposition renders, snapshotted at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpositionData {
    /// Per-`(node, layer)` metric cells.
    pub metrics: Vec<MetricsSnapshot>,
    /// Per-`(node, queue)` depth gauges.
    pub queues: Vec<QueueSnapshot>,
    /// Wire hot-path counters.
    pub wire: WireStatsSnapshot,
    /// Flight-recorder counters.
    pub recorder: RecorderStats,
}

impl ExpositionData {
    /// Snapshot the process-global hub and wire counters.
    #[must_use]
    pub fn gather() -> ExpositionData {
        let hub = crate::hub();
        ExpositionData {
            metrics: hub.metrics().snapshot_all(),
            queues: hub.metrics().snapshot_gauges(),
            wire: crate::wire_stats().snapshot(),
            recorder: hub.recorder().stats(),
        }
    }
}

/// Escape a label value for the Prometheus text format.
fn label_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Inclusive upper bound of log₂ bucket `i` (`floor(log2(ns)) == i` means
/// `ns <= 2^(i+1) - 1`).
fn bucket_le(i: usize) -> u64 {
    (2u64 << i) - 1
}

/// Geometric midpoint of bucket `i`, the representative value used for
/// quantiles, the approximate `_sum`, and exemplar values.
fn bucket_mid(i: usize) -> u64 {
    (1u64 << i) + (1u64 << i) / 2
}

fn prom_header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Render the exposition as Prometheus text (with OpenMetrics-style
/// exemplar annotations on histogram buckets).
#[must_use]
pub fn render_prometheus(data: &ExpositionData) -> String {
    let mut out = String::new();

    prom_header(
        &mut out,
        "odp_layer_calls_total",
        "counter",
        "Calls observed by a transparency layer.",
    );
    for m in &data.metrics {
        let _ = writeln!(
            out,
            "odp_layer_calls_total{{node=\"{}\",layer=\"{}\"}} {}",
            m.node,
            label_escape(m.layer),
            m.calls
        );
    }

    prom_header(
        &mut out,
        "odp_layer_failures_total",
        "counter",
        "Calls that terminated in an error.",
    );
    for m in &data.metrics {
        let _ = writeln!(
            out,
            "odp_layer_failures_total{{node=\"{}\",layer=\"{}\"}} {}",
            m.node,
            label_escape(m.layer),
            m.failures
        );
    }

    prom_header(
        &mut out,
        "odp_layer_latency_ns",
        "histogram",
        "Sampled call latency, log2 buckets; _sum is approximated from bucket midpoints.",
    );
    for m in &data.metrics {
        if m.samples == 0 {
            continue;
        }
        let labels = format!("node=\"{}\",layer=\"{}\"", m.node, label_escape(m.layer));
        let mut cumulative = 0u64;
        let mut approx_sum = 0u64;
        for i in 0..BUCKETS {
            if m.buckets[i] == 0 {
                continue;
            }
            cumulative += m.buckets[i];
            approx_sum += m.buckets[i] * bucket_mid(i);
            let _ = write!(
                out,
                "odp_layer_latency_ns_bucket{{{labels},le=\"{}\"}} {cumulative}",
                bucket_le(i)
            );
            let ex = m.exemplars[i];
            if ex.trace_id != 0 {
                let _ = write!(
                    out,
                    " # {{trace_id=\"{}\",node=\"{}\"}} {}",
                    ex.trace_id,
                    ex.node,
                    bucket_mid(i)
                );
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "odp_layer_latency_ns_bucket{{{labels},le=\"+Inf\"}} {}",
            m.samples
        );
        let _ = writeln!(out, "odp_layer_latency_ns_sum{{{labels}}} {approx_sum}");
        let _ = writeln!(out, "odp_layer_latency_ns_count{{{labels}}} {}", m.samples);
    }

    type QueueSeries = (
        &'static str,
        &'static str,
        &'static str,
        fn(&QueueSnapshot) -> u64,
    );
    let queue_series: [QueueSeries; 4] = [
        (
            "odp_queue_depth",
            "gauge",
            "Current depth of a bounded queue.",
            |q| q.depth,
        ),
        (
            "odp_queue_high_water",
            "gauge",
            "Deepest the queue has ever been.",
            |q| q.high_water,
        ),
        (
            "odp_queue_enqueued_total",
            "counter",
            "Elements that entered the queue.",
            |q| q.enqueued,
        ),
        (
            "odp_queue_dropped_total",
            "counter",
            "Elements rejected instead of enqueued.",
            |q| q.dropped,
        ),
    ];
    for (name, kind, help, get) in queue_series {
        prom_header(&mut out, name, kind, help);
        for q in &data.queues {
            let _ = writeln!(
                out,
                "{name}{{node=\"{}\",queue=\"{}\"}} {}",
                q.node,
                label_escape(q.queue),
                get(q)
            );
        }
    }

    let wire = &data.wire;
    let wire_series: [(&str, &str, u64); 6] = [
        (
            "odp_wire_pool_hits_total",
            "Encode-buffer pool acquisitions served without allocating.",
            wire.pool_hits,
        ),
        (
            "odp_wire_pool_misses_total",
            "Encode-buffer pool acquisitions that allocated or grew.",
            wire.pool_misses,
        ),
        (
            "odp_wire_decode_borrowed_bytes_total",
            "Payload bytes decoded as zero-copy frame slices.",
            wire.decode_borrowed_bytes,
        ),
        (
            "odp_wire_decode_copied_bytes_total",
            "Payload bytes decoded by copying.",
            wire.decode_copied_bytes,
        ),
        (
            "odp_wire_tx_frames_total",
            "Frames submitted to coalescing transport writers.",
            wire.tx_frames,
        ),
        (
            "odp_wire_tx_batches_total",
            "Coalesced batches flushed to transports.",
            wire.tx_batches,
        ),
    ];
    for (name, help, value) in wire_series {
        prom_header(&mut out, name, "counter", help);
        let _ = writeln!(out, "{name} {value}");
    }

    let rec = &data.recorder;
    let rec_series: [(&str, &str, &str, u64); 4] = [
        (
            "odp_recorder_entries",
            "gauge",
            "Entries currently retained in the flight recorder.",
            rec.entries,
        ),
        (
            "odp_recorder_appended_total",
            "counter",
            "Entries appended to the flight recorder.",
            rec.appended,
        ),
        (
            "odp_recorder_evicted_total",
            "counter",
            "Entries evicted from the flight recorder ring.",
            rec.evicted,
        ),
        (
            "odp_recorder_triggers_total",
            "counter",
            "Freeze triggers fired on the flight recorder.",
            rec.triggers,
        ),
    ];
    for (name, kind, help, value) in rec_series {
        prom_header(&mut out, name, kind, help);
        let _ = writeln!(out, "{name} {value}");
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_data() -> ExpositionData {
        let registry = MetricsRegistry::new();
        let cell = registry.register(1, "client");
        cell.record_call_exemplar(1_000, false, 42, 1);
        cell.record_call_exemplar(40_000_000, true, 99, 1);
        let gauge = registry.register_gauge(1, "admission.normal");
        gauge.enter();
        gauge.drop_one();
        ExpositionData {
            metrics: registry.snapshot_all(),
            queues: registry.snapshot_gauges(),
            wire: WireStatsSnapshot {
                pool_hits: 10,
                pool_misses: 2,
                ..WireStatsSnapshot::default()
            },
            recorder: RecorderStats {
                entries: 3,
                appended: 3,
                ..RecorderStats::default()
            },
        }
    }

    #[test]
    fn prometheus_exposes_all_families_with_exemplars() {
        let text = render_prometheus(&sample_data());
        assert!(text.contains("odp_layer_calls_total{node=\"1\",layer=\"client\"} 2"));
        assert!(text.contains("odp_layer_failures_total{node=\"1\",layer=\"client\"} 1"));
        // 1000 ns lands in bucket 9 ([512, 1023] ns), so le="1023".
        assert!(
            text.contains(
                "odp_layer_latency_ns_bucket{node=\"1\",layer=\"client\",le=\"1023\"} 1 \
                 # {trace_id=\"42\",node=\"1\"}"
            ),
            "missing fast-bucket exemplar in:\n{text}"
        );
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("odp_queue_dropped_total{node=\"1\",queue=\"admission.normal\"} 1"));
        assert!(text.contains("odp_wire_pool_hits_total 10"));
        assert!(text.contains("odp_recorder_entries 3"));
    }

    #[test]
    fn escapes_are_applied() {
        assert_eq!(label_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
