//! What admission control writes into the always-on flight recorder: every
//! shed and every queued admit leaves one event, a fast-path admit leaves
//! none. Entries are matched by this test's own node id, so other users of
//! the process-global recorder cannot disturb the counts.

use odp_core::{AdmissionLayer, AdmissionPolicy, CallCtx, Outcome, ServerLayer, ServerNext};
use odp_wire::Value;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Node id for this test's layer; no other test attributes telemetry to it.
const NODE: u64 = 0x00AD_4E55;

/// The end of the chain: `"hold"` blocks until the gate opens, anything
/// else returns at once.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cond: Condvar,
}

impl Gate {
    fn set(&self, open: bool) {
        *self.open.lock() = open;
        self.cond.notify_all();
    }
}

impl ServerNext for Gate {
    fn dispatch(&self, _ctx: &CallCtx, op: &str, _args: Vec<Value>) -> Outcome {
        if op == "hold" {
            let mut open = self.open.lock();
            while !*open {
                self.cond.wait(&mut open);
            }
        }
        Outcome::ok(vec![])
    }
}

/// Recorder events of `kind` attributed to [`NODE`] whose detail
/// contains `detail`.
fn recorded(kind: &str, detail: &str) -> usize {
    odp_telemetry::hub()
        .events()
        .iter()
        .filter(|e| e.kind == kind && e.node == NODE && e.detail.contains(detail))
        .count()
}

fn wait_until(what: &str, done: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Starts a call on its own thread.
fn spawn_call(
    layer: &Arc<AdmissionLayer>,
    gate: &Arc<Gate>,
    op: &'static str,
) -> std::thread::JoinHandle<Outcome> {
    let (layer, gate) = (Arc::clone(layer), Arc::clone(gate));
    std::thread::spawn(move || layer.dispatch(&CallCtx::default(), op, vec![], &*gate))
}

#[test]
fn recorder_gets_sheds_and_queued_admits_but_not_fast_path_admits() {
    let layer = AdmissionLayer::with_node(
        AdmissionPolicy {
            max_concurrent: 1,
            queue_capacity: 1,
            max_wait: Duration::from_secs(5),
            ..AdmissionPolicy::default()
        },
        NODE,
    );
    let gate = Arc::new(Gate::default());
    gate.set(true);

    // Fast-path admits: counted, not recorded.
    const N: u64 = 200;
    for _ in 0..N {
        let out = layer.dispatch(&CallCtx::default(), "op", vec![], &*gate);
        assert!(out.is_ok());
    }
    assert_eq!(layer.admitted.load(Ordering::Relaxed), N);
    assert_eq!(
        recorded("load.admit", ""),
        0,
        "fast-path admits must not be recorded"
    );

    // One queued admit behind an occupant: one entry.
    gate.set(false);
    let occupant = spawn_call(&layer, &gate, "hold");
    wait_until("the occupant to take the slot", || {
        layer.admitted.load(Ordering::Relaxed) == N + 1
    });
    let waiter = spawn_call(&layer, &gate, "op");
    wait_until("the waiter to queue", || layer.queue_depth() == 1);

    // The queue (capacity 1) is now full: the next arrival is shed.
    let out = layer.dispatch(&CallCtx::default(), "op", vec![], &*gate);
    assert!(!out.is_ok(), "a call past the queue bound must be shed");
    assert_eq!(layer.shed.load(Ordering::Relaxed), 1);
    assert_eq!(
        recorded("load.shed", "reason=queue_full"),
        1,
        "one shed, one entry"
    );

    gate.set(true);
    assert!(occupant.join().unwrap().is_ok());
    assert!(waiter.join().unwrap().is_ok());
    assert_eq!(
        recorded("load.admit", "queued=true"),
        1,
        "one queued admit, one entry"
    );
    assert_eq!(recorded("load.admit", ""), 1);
    assert_eq!(recorded("load.shed", ""), 1);
}
