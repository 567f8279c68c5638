//! Integration tests: failure transparency (checkpoint + log replay at an
//! alternative location) and resource transparency (passivation with
//! transparent activation), end to end over the simulated network.

use odp_core::{CallCtx, ExportConfig, InvokeError, Outcome, Servant, World};
use odp_storage::{
    recover, CheckpointPolicy, LoggingLayer, Passivator, StableRepository, WriteAheadLog,
};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, TypeSpec};
use odp_wire::Value;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

struct Counter {
    value: AtomicI64,
}

fn counter_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation("read", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
        .interrogation(
            "add",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .build()
}

impl Counter {
    fn fresh() -> Arc<dyn Servant> {
        Arc::new(Self {
            value: AtomicI64::new(0),
        })
    }
}

impl Servant for Counter {
    fn interface_type(&self) -> InterfaceType {
        counter_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match op {
            "read" => Outcome::ok(vec![Value::Int(self.value.load(Ordering::SeqCst))]),
            "add" => {
                let n = args[0].as_int().unwrap_or(0);
                Outcome::ok(vec![Value::Int(
                    self.value.fetch_add(n, Ordering::SeqCst) + n,
                )])
            }
            _ => Outcome::fail("no such op"),
        }
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

fn export_logged(
    world: &World,
    capsule: usize,
    wal: &Arc<WriteAheadLog>,
    repo: &Arc<StableRepository>,
    every_n: u64,
) -> (odp_wire::InterfaceRef, Arc<LoggingLayer>) {
    let servant = Counter::fresh();
    let layer = LoggingLayer::new(
        &servant,
        Arc::clone(wal),
        Arc::clone(repo),
        CheckpointPolicy {
            every_n_ops: every_n,
        },
        Arc::new(|op| op == "add"),
    );
    let r = world.capsule(capsule).export_with(
        servant,
        ExportConfig {
            layers: vec![layer.clone() as Arc<dyn odp_core::ServerLayer>],
            ..ExportConfig::default()
        },
    );
    (r, layer)
}

#[test]
fn crash_recovery_reinstates_exact_state() {
    let world = World::builder().capsules(3).build();
    let wal = Arc::new(WriteAheadLog::new());
    let repo = Arc::new(StableRepository::default());
    let (r, _layer) = export_logged(&world, 0, &wal, &repo, 10);
    let client = world.capsule(2).bind(r.clone());
    // 25 increments: two checkpoints (at 10 and 20) + 5 logged tail ops.
    for _ in 0..25 {
        client.interrogate("add", vec![Value::Int(1)]).unwrap();
    }
    assert_eq!(wal.tail_for(r.iface, 0).len(), 5);

    // Crash the home node.
    world.capsule(0).crash();

    // Reinstate at an alternative location from checkpoint + log.
    let (new_ref, replayed) = recover(
        world.capsule(1),
        r.iface,
        &Counter::fresh,
        &repo,
        &wal,
        ExportConfig::default(),
        0,
    )
    .unwrap();
    assert_eq!(replayed, 5);
    assert_eq!(new_ref.home, world.capsule(1).node());
    world
        .capsule(1)
        .register_location(r.iface, new_ref.home, new_ref.epoch)
        .unwrap();

    // The old client binding transparently follows (location layer
    // consults the relocator after the crash).
    let out = client.interrogate("read", vec![]).unwrap();
    assert_eq!(out.int(), Some(25), "recovered state differs");
    // And keeps working.
    assert_eq!(
        client
            .interrogate("add", vec![Value::Int(1)])
            .unwrap()
            .int(),
        Some(26)
    );
}

#[test]
fn recovery_without_checkpoint_replays_whole_log() {
    let world = World::builder().capsules(2).build();
    let wal = Arc::new(WriteAheadLog::new());
    let repo = Arc::new(StableRepository::default());
    let (r, _layer) = export_logged(&world, 0, &wal, &repo, u64::MAX);
    let client = world.capsule(1).bind(r.clone());
    for i in 1..=7 {
        client.interrogate("add", vec![Value::Int(i)]).unwrap();
    }
    world.capsule(0).crash();
    let (_new_ref, replayed) = recover(
        world.capsule(1),
        r.iface,
        &Counter::fresh,
        &repo,
        &wal,
        ExportConfig::default(),
        0,
    )
    .unwrap();
    assert_eq!(replayed, 7);
    let out = client.interrogate("read", vec![]).unwrap();
    assert_eq!(out.int(), Some(28));
}

#[test]
fn checkpoint_interval_bounds_log_length() {
    let world = World::builder().capsules(2).build();
    let wal = Arc::new(WriteAheadLog::new());
    let repo = Arc::new(StableRepository::default());
    let (r, layer) = export_logged(&world, 0, &wal, &repo, 5);
    let client = world.capsule(1).bind(r.clone());
    for _ in 0..23 {
        client.interrogate("add", vec![Value::Int(1)]).unwrap();
    }
    assert_eq!(layer.checkpoints.load(Ordering::Relaxed), 4);
    assert!(wal.tail_for(r.iface, 0).len() <= 5);
    // Reads are not logged.
    client.interrogate("read", vec![]).unwrap();
    assert!(wal.tail_for(r.iface, 0).len() <= 5);
}

#[test]
fn passivation_and_transparent_activation() {
    let world = World::builder().capsules(2).build();
    let repo = Arc::new(StableRepository::default());
    let passivator = Passivator::new(Arc::clone(&repo));
    let servant = Counter::fresh();
    let r = world.capsule(0).export(servant);
    let client = world.capsule(1).bind(r.clone());
    client.interrogate("add", vec![Value::Int(42)]).unwrap();

    // Passivate: state goes to the repository, export becomes a stub.
    let stub = passivator
        .passivate(world.capsule(0), r.iface, Arc::new(Counter::fresh))
        .unwrap();
    assert!(!stub.is_activated());
    assert_eq!(repo.len(), 1);

    // The next invocation transparently activates.
    let out = client.interrogate("read", vec![]).unwrap();
    assert_eq!(out.int(), Some(42));
    assert!(stub.is_activated());
    assert_eq!(stub.activations.load(Ordering::Relaxed), 1);
    // Subsequent calls hit the activated object directly.
    client.interrogate("add", vec![Value::Int(1)]).unwrap();
    assert_eq!(client.interrogate("read", vec![]).unwrap().int(), Some(43));
    assert_eq!(stub.activations.load(Ordering::Relaxed), 1);
}

#[test]
fn activation_of_missing_state_reports_passive() {
    use odp_storage::passivate::ActivationStub;
    let world = World::builder().capsules(2).build();
    let repo = Arc::new(StableRepository::default());
    // A stub whose repository entry was removed (e.g. archived off-line).
    let iface = odp_types::InterfaceId(424_242);
    let stub = Arc::new(ActivationStub::new(
        iface,
        counter_type(),
        Arc::new(Counter::fresh),
        Arc::clone(&repo),
    ));
    world
        .capsule(0)
        .export_at(iface, 0, stub as Arc<dyn Servant>, ExportConfig::default());
    let mut r = odp_wire::InterfaceRef::new(iface, world.capsule(0).node(), counter_type());
    r.relocator = None;
    let client = world.capsule(1).bind(r);
    let err = client.interrogate("read", vec![]).unwrap_err();
    assert!(matches!(err, InvokeError::Passive(_)), "{err:?}");
}

#[test]
fn passivating_snapshotless_object_fails_cleanly() {
    let world = World::builder().capsules(1).build();
    let repo = Arc::new(StableRepository::default());
    let passivator = Passivator::new(repo);
    let ty = InterfaceTypeBuilder::new()
        .interrogation("f", vec![], vec![OutcomeSig::ok(vec![])])
        .build();
    let plain = Arc::new(odp_core::FnServant::new(ty, |_, _, _| Outcome::ok(vec![])));
    let r = world.capsule(0).export(plain);
    let err = passivator
        .passivate(world.capsule(0), r.iface, Arc::new(Counter::fresh))
        .unwrap_err();
    assert!(err.contains("snapshot"), "{err}");
}
