//! E18 — the Observatory's overhead budget.
//!
//! The Observatory adds two things to paths that E16 already meters:
//! every histogram landing also stores a per-bucket exemplar (two relaxed
//! stores), and every produced span/event is moved into the always-on
//! flight recorder, the hub's one trace store (one bounded-ring push, but
//! only on *sampled* calls — the recording-off hot path is untouched,
//! preserving the E16 contract of a single relaxed load).
//!
//! The claim to hold (EXPERIMENTS.md E18): on the forced-remote round
//! trip with every call sampled — the worst case, since unsampled calls
//! never reach either addition — enabling the recorder + exemplars costs
//! **< 5%** over the same path with the recorder disabled, which stores
//! no spans or events at all.
//!
//! Rungs:
//!   1. `remote_sampled_recorder_off` — full span pipeline, recorder off
//!   2. `remote_sampled_recorder_on`  — the shipped default
//!      (1 and 2 are measured together, in interleaved batches: see
//!      `paired_recorder_batches`)
//!   3. `remote_counters_recorder_on` — counters mode (no spans: the
//!      recorder is never consulted, so this must match E16 counters)
//!   4. `render_prometheus`           — cost of one full exposition

use criterion::{criterion_group, criterion_main, Criterion};
use odp::prelude::*;
use odp::telemetry::recorder::RECORDER_CAP;
use odp::telemetry::{hub, render_prometheus, ExpositionData, Sampling};
use odp_bench::counter;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls per timed batch of the paired rungs.
const BATCH: u32 = 400;
/// Off/on batch pairs: one replayed sample per pair and rung.
const PAIRS: usize = 16;

/// Times `PAIRS` batches with the recorder off and `PAIRS` with it on,
/// alternating (and alternating which state goes first), after filling
/// the ring so every on-batch pays the steady-state eviction. Measured
/// one after the other instead, the two rungs sit in different seconds
/// of a drifting machine and their gap can swing by more than the 5%
/// budget it is meant to resolve. Returns per-call times (off, on).
fn paired_recorder_batches(forced: &ClientBinding) -> (Vec<Duration>, Vec<Duration>) {
    let batch = |on: bool| {
        hub().recorder().set_enabled(on);
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(forced.interrogate("add", vec![Value::Int(1)]).unwrap());
        }
        t.elapsed() / BATCH
    };
    hub().metrics().clear();
    hub().set_recording(true);
    hub().set_sampling(Sampling::All);
    let warm_up = Instant::now() + Duration::from_millis(300);
    while Instant::now() < warm_up || hub().recorder().stats().entries < RECORDER_CAP as u64 {
        batch(true);
    }
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            off.push(batch(false));
            on.push(batch(true));
        } else {
            on.push(batch(true));
            off.push(batch(false));
        }
    }
    (off, on)
}

fn observatory_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_observatory");

    let world = World::quick();
    let r = world.capsule(0).export(counter());
    let forced = world
        .capsule(0)
        .bind_with(r, TransparencyPolicy::default().with_force_remote(true));

    // Each sample of a paired rung is one of its batches, replayed as
    // the time `iters` calls took at that batch's per-call cost.
    let (off, on) = paired_recorder_batches(&forced);
    for (name, batches) in [
        ("remote_sampled_recorder_off", off),
        ("remote_sampled_recorder_on", on),
    ] {
        let mut replay = batches.into_iter().cycle();
        group.bench_function(name, |b| {
            b.iter_custom(|iters| replay.next().unwrap_or_default() * iters as u32);
        });
    }

    hub().metrics().clear();
    hub().recorder().set_enabled(true);
    hub().set_sampling(Sampling::Off);
    group.bench_function("remote_counters_recorder_on", |b| {
        b.iter(|| {
            black_box(forced.interrogate("add", vec![Value::Int(1)]).unwrap());
        });
    });

    // Exposition cost over the registry the rungs above populated: this
    // is the scrape-time price, paid by the reader, never the hot path.
    group.bench_function("render_prometheus", |b| {
        b.iter(|| black_box(render_prometheus(&ExpositionData::gather())));
    });

    let stats = hub().recorder().stats();
    eprintln!(
        "[e18] recorder entries={} appended={} evicted={}",
        stats.entries, stats.appended, stats.evicted
    );
    hub().set_recording(false);
    hub().set_sampling(Sampling::Off);
    hub().recorder().set_enabled(true);
    hub().metrics().clear();
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(30);
    targets = observatory_overhead
}
criterion_main!(benches);
