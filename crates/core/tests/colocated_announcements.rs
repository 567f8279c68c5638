//! Co-located announcements run on the capsule's REX workers, the pool that
//! runs remote ones, through its one bounded job queue. A full queue makes
//! the caller run the announcement itself, so none is lost, and a queued
//! announcement never keeps a dropped capsule (or its workers) alive.

use odp_core::{CallCtx, Capsule, Outcome, Servant, TransparencyPolicy, World};
use odp_net::{SimNet, Transport, JOB_QUEUE_CAP};
use odp_types::signature::InterfaceTypeBuilder;
use odp_types::{InterfaceType, NodeId, TypeSpec};
use odp_wire::Value;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A one-shot latch.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cond: Condvar,
}

impl Latch {
    fn open(&self) {
        *self.open.lock() = true;
        self.cond.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock();
        while !*open {
            self.cond.wait(&mut open);
        }
    }
}

/// Receives announcements: `block` holds its thread until `release` opens,
/// `tick(n)` records the name of the thread it ran on.
#[derive(Default)]
struct Monitor {
    blocked: Latch,
    release: Latch,
    ticks: Mutex<Vec<(i64, String)>>,
    delivered: AtomicUsize,
}

impl Servant for Monitor {
    fn interface_type(&self) -> InterfaceType {
        InterfaceTypeBuilder::new()
            .announcement("block", vec![])
            .announcement("tick", vec![TypeSpec::Int])
            .build()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match op {
            "block" => {
                self.blocked.open();
                self.release.wait();
            }
            "tick" => {
                let n = args.first().and_then(Value::as_int).unwrap_or(-1);
                let thread = std::thread::current().name().unwrap_or("").to_owned();
                self.ticks.lock().push((n, thread));
                self.delivered.fetch_add(1, Ordering::SeqCst);
            }
            _ => return Outcome::fail("no such op"),
        }
        Outcome::ok(vec![])
    }
}

fn wait_until(what: &str, done: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn one_worker_capsule(node: u64) -> Arc<Capsule> {
    let net: Arc<dyn Transport> = Arc::new(SimNet::perfect());
    Capsule::with_workers(net, NodeId(node), 1).unwrap()
}

#[test]
fn colocated_announcements_all_arrive_on_rex_workers() {
    const N: i64 = 500;
    let world = World::builder().capsules(1).build();
    let capsule = world.capsule(0);
    let monitor = Arc::new(Monitor::default());
    let r = capsule.export(Arc::clone(&monitor) as Arc<dyn Servant>);
    let binding = capsule.bind(r);
    for n in 0..N {
        binding.announce("tick", vec![Value::Int(n)]).unwrap();
    }
    wait_until("every announcement", || {
        monitor.delivered.load(Ordering::SeqCst) == N as usize
    });
    let mut ticks = monitor.ticks.lock().clone();
    ticks.sort_unstable();
    assert_eq!(
        ticks.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        (0..N).collect::<Vec<_>>()
    );
    let prefix = format!("rex-worker-{}-", capsule.node());
    for (n, thread) in &ticks {
        assert!(thread.starts_with(&prefix), "tick {n} ran on `{thread}`");
    }
    assert_eq!(
        capsule.stats.local_fast_path.load(Ordering::Relaxed),
        N as u64
    );
}

#[test]
fn full_queue_runs_the_announcement_on_the_caller() {
    let capsule = one_worker_capsule(41);
    let monitor = Arc::new(Monitor::default());
    let r = capsule.export(Arc::clone(&monitor) as Arc<dyn Servant>);
    let binding = capsule.bind_with(r, TransparencyPolicy::minimal());

    // Park the only worker, then fill its queue.
    binding.announce("block", vec![]).unwrap();
    monitor.blocked.wait();
    for n in 0..JOB_QUEUE_CAP as i64 {
        binding.announce("tick", vec![Value::Int(n)]).unwrap();
    }
    assert_eq!(monitor.delivered.load(Ordering::SeqCst), 0);

    // The next one cannot be queued: it has run by the time `announce`
    // returns, on this thread.
    let overflow = JOB_QUEUE_CAP as i64;
    binding
        .announce("tick", vec![Value::Int(overflow)])
        .unwrap();
    let caller = std::thread::current().name().unwrap_or("").to_owned();
    assert_eq!(
        monitor.ticks.lock().as_slice(),
        [(overflow, caller.clone())]
    );

    // Release the worker: every queued announcement is delivered too.
    monitor.release.open();
    wait_until("the queued announcements", || {
        monitor.delivered.load(Ordering::SeqCst) == JOB_QUEUE_CAP + 1
    });
    let worker = format!("rex-worker-{}-0", capsule.node());
    let ticks = monitor.ticks.lock();
    let on_worker = ticks.iter().filter(|(_, t)| *t == worker).count();
    assert_eq!(on_worker, JOB_QUEUE_CAP, "{:?}", &ticks[..3]);
}

#[test]
fn dropping_a_capsule_with_queued_announcements_neither_hangs_nor_leaks() {
    let capsule = one_worker_capsule(42);
    let monitor = Arc::new(Monitor::default());
    let r = capsule.export(Arc::clone(&monitor) as Arc<dyn Servant>);
    let binding = capsule.bind_with(r, TransparencyPolicy::minimal());
    binding.announce("block", vec![]).unwrap();
    monitor.blocked.wait();
    for n in 0..100 {
        binding.announce("tick", vec![Value::Int(n)]).unwrap();
    }
    let weak_capsule: Weak<Capsule> = Arc::downgrade(&capsule);
    let weak_endpoint = Arc::downgrade(capsule.rex());
    drop(binding);
    drop(capsule);

    // Only the running `block` still holds the capsule. Once it returns,
    // the capsule drops on its worker, the queued announcements find no
    // capsule to run on, and the worker exits, releasing the endpoint.
    monitor.release.open();
    wait_until("the capsule to drop", || weak_capsule.upgrade().is_none());
    wait_until("the worker to exit", || weak_endpoint.upgrade().is_none());
    assert_eq!(monitor.delivered.load(Ordering::SeqCst), 0);
}
