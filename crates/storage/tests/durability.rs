//! Durability of the logging layer under concurrent writers: a checkpoint
//! must never truncate a logged record whose effect its snapshot lacks, and
//! the checkpoint cadence is exact however many writers race.
//!
//! Both tests drive `LoggingLayer::dispatch` directly, with a server chain
//! that ends in the servant, so no network or worker thread is involved.

use odp_core::{CallCtx, Outcome, Servant, ServerLayer, ServerNext};
use odp_storage::{CheckpointPolicy, LoggingLayer, StableRepository, WriteAheadLog};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceId, InterfaceType, TypeSpec};
use odp_wire::Value;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

const IFACE: InterfaceId = InterfaceId(7);

/// A counter whose next `add` can be held between the layer's append and
/// its own apply. Armed with a pair of channels, that `add` reports
/// "appended" and waits for "go" (at most [`Gated::HOLD`]) before it
/// applies.
struct Gated {
    value: AtomicI64,
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl Gated {
    const HOLD: Duration = Duration::from_millis(500);

    fn fresh() -> Arc<Self> {
        Arc::new(Self {
            value: AtomicI64::new(0),
            gate: Mutex::new(None),
        })
    }
}

impl Servant for Gated {
    fn interface_type(&self) -> InterfaceType {
        InterfaceTypeBuilder::new()
            .interrogation(
                "add",
                vec![TypeSpec::Int],
                vec![OutcomeSig::ok(vec![TypeSpec::Int])],
            )
            .build()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        if op != "add" {
            return Outcome::fail("no such op");
        }
        let gate = self.gate.lock().unwrap().take();
        if let Some((appended, go)) = gate {
            appended.send(()).unwrap();
            // Timing out is the fixed layer's answer: its checkpoint
            // cannot start until this apply is done.
            let _ = go.recv_timeout(Self::HOLD);
        }
        let n = args[0].as_int().unwrap_or(0);
        Outcome::ok(vec![Value::Int(
            self.value.fetch_add(n, Ordering::SeqCst) + n,
        )])
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.value.load(Ordering::SeqCst).to_be_bytes().to_vec())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), String> {
        let arr: [u8; 8] = snapshot.try_into().map_err(|_| "bad snapshot")?;
        self.value.store(i64::from_be_bytes(arr), Ordering::SeqCst);
        Ok(())
    }
}

/// The end of the server chain: the servant itself.
struct ToServant(Arc<Gated>);

impl ServerNext for ToServant {
    fn dispatch(&self, ctx: &CallCtx, op: &str, args: Vec<Value>) -> Outcome {
        self.0.dispatch(op, args, ctx)
    }
}

struct Fixture {
    servant: Arc<Gated>,
    wal: Arc<WriteAheadLog>,
    repo: Arc<StableRepository>,
    layer: Arc<LoggingLayer>,
}

fn fixture(every_n_ops: u64) -> Fixture {
    let servant = Gated::fresh();
    let wal = Arc::new(WriteAheadLog::new());
    let repo = Arc::new(StableRepository::default());
    let layer = LoggingLayer::new(
        &(Arc::clone(&servant) as Arc<dyn Servant>),
        Arc::clone(&wal),
        Arc::clone(&repo),
        CheckpointPolicy { every_n_ops },
        Arc::new(|op| op == "add"),
    );
    Fixture {
        servant,
        wal,
        repo,
        layer,
    }
}

fn add(f: &Fixture, n: i64) {
    let ctx = CallCtx {
        iface: IFACE,
        ..CallCtx::default()
    };
    let next = ToServant(Arc::clone(&f.servant));
    let out = f.layer.dispatch(&ctx, "add", vec![Value::Int(n)], &next);
    assert!(out.int().is_some(), "{out:?}");
}

/// What recovery would rebuild: the stored checkpoint plus the log tail.
fn recovered_value(f: &Fixture) -> i64 {
    let replica = Gated::fresh();
    if let Some(stored) = f.repo.load(IFACE) {
        replica.restore(&stored.snapshot).unwrap();
    }
    let ctx = CallCtx::default();
    for record in f.wal.tail_for(IFACE, 0) {
        replica.dispatch(&record.op, record.args, &ctx);
    }
    replica.value.load(Ordering::SeqCst)
}

#[test]
fn checkpoint_never_truncates_an_appended_but_unapplied_record() {
    let f = Arc::new(fixture(u64::MAX));
    add(&f, 5);
    let (appended_tx, appended_rx) = channel();
    let (go_tx, go_rx) = channel();
    *f.servant.gate.lock().unwrap() = Some((appended_tx, go_rx));

    // Writer: appends its record, then holds before applying it.
    let writer = {
        let f = Arc::clone(&f);
        thread::spawn(move || add(&f, 1))
    };
    appended_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the writer appended");
    // Checkpoint while that record is appended but not applied, then let
    // the writer apply it.
    let checkpointer = {
        let f = Arc::clone(&f);
        thread::spawn(move || {
            f.layer.checkpoint(IFACE);
            let _ = go_tx.send(());
        })
    };
    writer.join().unwrap();
    checkpointer.join().unwrap();

    assert_eq!(f.servant.value.load(Ordering::SeqCst), 6);
    assert_eq!(f.layer.checkpoints.load(Ordering::SeqCst), 1);
    assert_eq!(
        recovered_value(&f),
        6,
        "an acknowledged write is missing from checkpoint + log"
    );
}

#[test]
fn concurrent_writers_take_exactly_one_checkpoint_per_interval() {
    const EVERY: u64 = 64;
    const K: u64 = 400;
    let f = Arc::new(fixture(EVERY));
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let f = Arc::clone(&f);
            thread::spawn(move || {
                for _ in 0..EVERY * K / 2 {
                    add(&f, 1);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(f.layer.checkpoints.load(Ordering::SeqCst), K);
    // The last write was a checkpoint's: nothing is left in the log, and
    // checkpoint + log still rebuild every write.
    assert!(f.wal.is_empty(), "{} records left", f.wal.len());
    assert_eq!(recovered_value(&f), (EVERY * K) as i64);
}
