//! E16 — the telemetry plane's hot-path overhead.
//!
//! The instrumentation contract (DESIGN.md §Telemetry): with recording
//! off the access path pays one relaxed atomic load per instrumented
//! scope; with recording on but sampling off it pays relaxed counter
//! increments (per-layer call/failure accounting, no clocks, no locks);
//! only sampled calls take timestamps and push spans into the bounded
//! ring. The claim to hold: **counters-on costs < 5% over uninstrumented
//! E1 rung 3** (`colocated_stub`), and recording-off is indistinguishable
//! from it.
//!
//! Rungs (same workload as E1 rung 3/4 — `add` on a counter servant):
//!   1. `colocated_off`         — recording off (the E1 rung-3 baseline)
//!   2. `colocated_counters`    — recording on, sampling off
//!   3. `colocated_sampled`     — recording on, every call sampled
//!   4. `forced_remote_off`     — marshalling + loopback REX, recording off
//!   5. `forced_remote_counters`
//!   6. `forced_remote_sampled` — full span tree per call, both sides

use criterion::{criterion_group, criterion_main, Criterion};
use odp::prelude::*;
use odp::telemetry::{hub, Sampling};
use odp_bench::counter;
use std::hint::black_box;

fn telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_telemetry");

    let world = World::quick();
    let r = world.capsule(0).export(counter());
    let colocated = world.capsule(0).bind(r.clone());
    let forced = world
        .capsule(0)
        .bind_with(r, TransparencyPolicy::default().with_force_remote(true));

    let modes: [(&str, bool, Sampling); 3] = [
        ("off", false, Sampling::Off),
        ("counters", true, Sampling::Off),
        ("sampled", true, Sampling::All),
    ];

    for (mode, recording, sampling) in modes {
        hub().metrics().clear();
        hub().set_sampling(sampling);
        hub().set_recording(recording);
        group.bench_function(format!("colocated_{mode}"), |b| {
            b.iter(|| {
                black_box(colocated.interrogate("add", vec![Value::Int(1)]).unwrap());
            });
        });
        group.bench_function(format!("forced_remote_{mode}"), |b| {
            b.iter(|| {
                black_box(forced.interrogate("add", vec![Value::Int(1)]).unwrap());
            });
        });
    }

    // Show what the instrumented runs actually recorded, then reset the
    // process-wide hub for any bench that follows.
    for m in hub().metrics_snapshot() {
        eprintln!(
            "[e16] node={} layer={:<17} calls={:<8} samples={:<6} p50={}ns",
            m.node, m.layer, m.calls, m.samples, m.p50_ns
        );
    }
    hub().set_recording(false);
    hub().set_sampling(Sampling::Off);
    hub().metrics().clear();
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(30);
    targets = telemetry_overhead
}
criterion_main!(benches);
