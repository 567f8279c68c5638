//! Pins the Prometheus text exposition format byte for byte.
//!
//! The scrape endpoint is consumed by parsers outside this repo's control
//! (Prometheus itself, `odp-top`, operators' `grep`), so its format is a
//! public contract: family names, label order, cumulative `le` buckets,
//! the OpenMetrics exemplar annotation, and the `_sum`/`_count` tail must
//! not drift silently. Any intentional change must update this golden
//! string — that diff *is* the review artifact.

use odp_telemetry::{
    render_prometheus, ExpositionData, MetricsRegistry, RecorderStats, WireStatsSnapshot,
};

/// A fully deterministic exposition: a private registry (never the
/// process-global hub) and hand-picked counter values.
fn pinned_data() -> ExpositionData {
    let registry = MetricsRegistry::new();
    let client = registry.register(3, "client");
    // 800 ns -> bucket 9 (le 1023), exemplar trace 48879 from node 3.
    client.record_call_exemplar(800, false, 48_879, 3);
    // 70 µs -> bucket 16 (le 131071), failed, no exemplar (trace id 0).
    client.record_call_exemplar(70_000, true, 0, 0);
    let dispatch = registry.register(2, "dispatch");
    // 3 µs -> bucket 11 (le 4095), exemplar trace 51966 from node 2.
    dispatch.record_call_exemplar(3_000, false, 51_966, 2);
    let gauge = registry.register_gauge(2, "admission.normal");
    gauge.enter();
    gauge.enter();
    gauge.leave();
    gauge.drop_one();
    ExpositionData {
        metrics: registry.snapshot_all(),
        queues: registry.snapshot_gauges(),
        wire: WireStatsSnapshot {
            pool_hits: 6,
            pool_misses: 1,
            decode_borrowed_bytes: 4096,
            decode_copied_bytes: 512,
            tx_frames: 12,
            tx_batches: 4,
        },
        recorder: RecorderStats {
            entries: 2,
            appended: 5,
            evicted: 3,
            triggers: 1,
        },
    }
}

const EXPECTED: &str = r#"# HELP odp_layer_calls_total Calls observed by a transparency layer.
# TYPE odp_layer_calls_total counter
odp_layer_calls_total{node="2",layer="dispatch"} 1
odp_layer_calls_total{node="3",layer="client"} 2
# HELP odp_layer_failures_total Calls that terminated in an error.
# TYPE odp_layer_failures_total counter
odp_layer_failures_total{node="2",layer="dispatch"} 0
odp_layer_failures_total{node="3",layer="client"} 1
# HELP odp_layer_latency_ns Sampled call latency, log2 buckets; _sum is approximated from bucket midpoints.
# TYPE odp_layer_latency_ns histogram
odp_layer_latency_ns_bucket{node="2",layer="dispatch",le="4095"} 1 # {trace_id="51966",node="2"} 3072
odp_layer_latency_ns_bucket{node="2",layer="dispatch",le="+Inf"} 1
odp_layer_latency_ns_sum{node="2",layer="dispatch"} 3072
odp_layer_latency_ns_count{node="2",layer="dispatch"} 1
odp_layer_latency_ns_bucket{node="3",layer="client",le="1023"} 1 # {trace_id="48879",node="3"} 768
odp_layer_latency_ns_bucket{node="3",layer="client",le="131071"} 2
odp_layer_latency_ns_bucket{node="3",layer="client",le="+Inf"} 2
odp_layer_latency_ns_sum{node="3",layer="client"} 99072
odp_layer_latency_ns_count{node="3",layer="client"} 2
# HELP odp_queue_depth Current depth of a bounded queue.
# TYPE odp_queue_depth gauge
odp_queue_depth{node="2",queue="admission.normal"} 1
# HELP odp_queue_high_water Deepest the queue has ever been.
# TYPE odp_queue_high_water gauge
odp_queue_high_water{node="2",queue="admission.normal"} 2
# HELP odp_queue_enqueued_total Elements that entered the queue.
# TYPE odp_queue_enqueued_total counter
odp_queue_enqueued_total{node="2",queue="admission.normal"} 2
# HELP odp_queue_dropped_total Elements rejected instead of enqueued.
# TYPE odp_queue_dropped_total counter
odp_queue_dropped_total{node="2",queue="admission.normal"} 1
# HELP odp_wire_pool_hits_total Encode-buffer pool acquisitions served without allocating.
# TYPE odp_wire_pool_hits_total counter
odp_wire_pool_hits_total 6
# HELP odp_wire_pool_misses_total Encode-buffer pool acquisitions that allocated or grew.
# TYPE odp_wire_pool_misses_total counter
odp_wire_pool_misses_total 1
# HELP odp_wire_decode_borrowed_bytes_total Payload bytes decoded as zero-copy frame slices.
# TYPE odp_wire_decode_borrowed_bytes_total counter
odp_wire_decode_borrowed_bytes_total 4096
# HELP odp_wire_decode_copied_bytes_total Payload bytes decoded by copying.
# TYPE odp_wire_decode_copied_bytes_total counter
odp_wire_decode_copied_bytes_total 512
# HELP odp_wire_tx_frames_total Frames submitted to coalescing transport writers.
# TYPE odp_wire_tx_frames_total counter
odp_wire_tx_frames_total 12
# HELP odp_wire_tx_batches_total Coalesced batches flushed to transports.
# TYPE odp_wire_tx_batches_total counter
odp_wire_tx_batches_total 4
# HELP odp_recorder_entries Entries currently retained in the flight recorder.
# TYPE odp_recorder_entries gauge
odp_recorder_entries 2
# HELP odp_recorder_appended_total Entries appended to the flight recorder.
# TYPE odp_recorder_appended_total counter
odp_recorder_appended_total 5
# HELP odp_recorder_evicted_total Entries evicted from the flight recorder ring.
# TYPE odp_recorder_evicted_total counter
odp_recorder_evicted_total 3
# HELP odp_recorder_triggers_total Freeze triggers fired on the flight recorder.
# TYPE odp_recorder_triggers_total counter
odp_recorder_triggers_total 1
"#;

#[test]
fn prometheus_text_format_is_pinned() {
    let text = render_prometheus(&pinned_data());
    assert_eq!(
        text, EXPECTED,
        "Prometheus exposition format drifted; if intentional, re-pin the \
         golden string in this test"
    );
}
