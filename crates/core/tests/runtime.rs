//! Integration tests for the capsule runtime: access, location, failure and
//! migration transparency behaviour end to end over the simulated network.

use odp_core::{
    terminations, CallCtx, ExportConfig, FnServant, InvokeError, Outcome, Servant, SyncDiscipline,
    TransparencyPolicy, World,
};
use odp_net::{CallQos, LinkConfig, RexError};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, OperationKind, TypeSpec};
use odp_wire::Value;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn counter_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation("read", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
        .interrogation(
            "add",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .announcement("log", vec![TypeSpec::Str])
        .build()
}

struct Counter {
    value: AtomicI64,
    logs: Mutex<Vec<String>>,
}

impl Counter {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            value: AtomicI64::new(0),
            logs: Mutex::new(Vec::new()),
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
                let new = self.value.fetch_add(n, Ordering::SeqCst) + n;
                Outcome::ok(vec![Value::Int(new)])
            }
            "log" => {
                if let Some(s) = args.first().and_then(Value::as_str) {
                    self.logs.lock().push(s.to_owned());
                }
                Outcome::ok(vec![])
            }
            _ => Outcome::fail("no such op"),
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.value.load(Ordering::SeqCst).to_be_bytes().to_vec())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), String> {
        let arr: [u8; 8] = snapshot.try_into().map_err(|_| "bad snapshot".to_owned())?;
        self.value.store(i64::from_be_bytes(arr), Ordering::SeqCst);
        Ok(())
    }
}

#[test]
fn remote_interrogation_end_to_end() {
    let world = World::quick();
    let counter = Counter::new();
    let r = world.capsule(0).export(counter);
    let binding = world.capsule(1).bind(r);
    assert_eq!(
        binding
            .interrogate("add", vec![Value::Int(5)])
            .unwrap()
            .int(),
        Some(5)
    );
    assert_eq!(
        binding
            .interrogate("add", vec![Value::Int(2)])
            .unwrap()
            .int(),
        Some(7)
    );
    assert_eq!(binding.interrogate("read", vec![]).unwrap().int(), Some(7));
}

#[test]
fn colocated_calls_take_fast_path() {
    let world = World::quick();
    let counter = Counter::new();
    let capsule = world.capsule(0);
    let r = capsule.export(counter);
    let binding = capsule.bind(r.clone());
    binding.interrogate("add", vec![Value::Int(1)]).unwrap();
    assert_eq!(capsule.stats.local_fast_path.load(Ordering::Relaxed), 1);

    // force_remote disables the optimization: the loopback network is used.
    let sent_before = world.net().stats().sent.load(Ordering::Relaxed);
    let forced = capsule.bind_with(r, TransparencyPolicy::default().with_force_remote(true));
    forced.interrogate("add", vec![Value::Int(1)]).unwrap();
    assert!(world.net().stats().sent.load(Ordering::Relaxed) > sent_before);
}

#[test]
fn announcements_are_fire_and_forget_and_reach_servant() {
    let world = World::quick();
    let counter = Counter::new();
    let r = world
        .capsule(0)
        .export(Arc::clone(&counter) as Arc<dyn Servant>);
    let binding = world.capsule(1).bind(r);
    binding.announce("log", vec![Value::str("hello")]).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while counter.logs.lock().is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(counter.logs.lock().as_slice(), ["hello".to_owned()]);
}

#[test]
fn announcing_an_interrogation_is_a_kind_mismatch() {
    let world = World::quick();
    let r = world.capsule(0).export(Counter::new());
    let binding = world.capsule(1).bind(r);
    let err = binding.announce("read", vec![]).unwrap_err();
    assert!(matches!(
        err,
        InvokeError::KindMismatch {
            declared: OperationKind::Interrogation,
            ..
        }
    ));
    let err = binding
        .interrogate("log", vec![Value::str("x")])
        .unwrap_err();
    assert!(matches!(
        err,
        InvokeError::KindMismatch {
            declared: OperationKind::Announcement,
            ..
        }
    ));
}

#[test]
fn client_side_type_checking_rejects_bad_args() {
    let world = World::quick();
    let r = world.capsule(0).export(Counter::new());
    let binding = world.capsule(1).bind(r);
    assert!(matches!(
        binding.interrogate("add", vec![Value::str("nope")]),
        Err(InvokeError::TypeCheck(_))
    ));
    assert!(matches!(
        binding.interrogate("add", vec![]),
        Err(InvokeError::TypeCheck(_))
    ));
    assert!(matches!(
        binding.interrogate("bogus", vec![]),
        Err(InvokeError::NoSuchOperation(_))
    ));
}

#[test]
fn server_side_checking_catches_unchecked_clients() {
    // The server checks every call against the export's own signature, so
    // it catches a payload that claims a different signature (simulated by
    // binding with a lying reference).
    let world = World::quick();
    let counter = Counter::new();
    let r = world.capsule(0).export(counter);
    // Lie about the signature: claim `add` takes a string.
    let mut lying = r.clone();
    lying.ty = InterfaceTypeBuilder::new()
        .interrogation(
            "add",
            vec![TypeSpec::Str],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .build();
    let binding = world.capsule(1).bind(lying);
    let err = binding
        .interrogate("add", vec![Value::str("payload")])
        .unwrap_err();
    assert!(matches!(err, InvokeError::RemoteTypeError(_)), "{err:?}");
}

#[test]
fn lying_callers_cannot_starve_a_default_export() {
    // A reference that claims `add()` takes no arguments reaches a default
    // export whose servant reads `args[0]`. Each lying call must be
    // refused at the dispatcher, more of them than the server has
    // workers, and an honest call must still be served afterwards.
    let world = World::quick();
    let r = world.capsule(0).export(Counter::new());
    let mut lying = r.clone();
    lying.ty = InterfaceTypeBuilder::new()
        .interrogation("add", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
        .build();
    let liar = world.capsule(1).bind(lying);
    for _ in 0..6 {
        let err = liar.interrogate("add", vec![]).unwrap_err();
        assert!(matches!(err, InvokeError::RemoteTypeError(_)), "{err:?}");
    }
    let honest = world.capsule(1).bind(r);
    let out = honest.interrogate("add", vec![Value::Int(5)]).unwrap();
    assert_eq!(out.int(), Some(5));
}

#[test]
fn closed_interfaces_report_closed() {
    let world = World::quick();
    let counter = Counter::new();
    let capsule = world.capsule(0);
    let r = capsule.export(counter);
    let binding = world.capsule(1).bind(r.clone());
    binding.interrogate("read", vec![]).unwrap();
    assert!(capsule.close(r.iface).is_some());
    let err = binding.interrogate("read", vec![]).unwrap_err();
    assert!(matches!(err, InvokeError::Closed(_)), "{err:?}");
}

#[test]
fn unexported_interfaces_report_no_such_interface() {
    let world = World::quick();
    let counter = Counter::new();
    let capsule = world.capsule(0);
    let r = capsule.export(counter);
    capsule.unexport(r.iface);
    let binding = world.capsule(1).bind_with(r, TransparencyPolicy::minimal());
    let err = binding.interrogate("read", vec![]).unwrap_err();
    assert!(matches!(err, InvokeError::NoSuchInterface(_)), "{err:?}");
}

#[test]
fn migration_is_transparent_via_tombstone() {
    let world = World::quick();
    let counter = Counter::new();
    let src = world.capsule(0);
    let dst = world.capsule(1);
    let r = src.export(counter);
    let client = world.capsule(1); // co-located with dst after move
    let binding = client.bind(r.clone());
    binding.interrogate("add", vec![Value::Int(10)]).unwrap();

    let new_ref = src.migrate_to(r.iface, dst).unwrap();
    assert_eq!(new_ref.home, dst.node());
    assert_eq!(new_ref.epoch, 1);

    // The old binding still works: the tombstone redirects it, state moved.
    assert_eq!(binding.interrogate("read", vec![]).unwrap().int(), Some(10));
    // The binding learned the new location (epoch updated in place).
    assert_eq!(binding.target().home, dst.node());
    assert_eq!(binding.target().epoch, 1);
}

#[test]
fn migration_without_location_transparency_reports_stale() {
    let world = World::quick();
    let counter = Counter::new();
    let src = world.capsule(0);
    let dst = world.capsule(1);
    let r = src.export(counter);
    let binding = world
        .capsule(1)
        .bind_with(r.clone(), TransparencyPolicy::minimal());
    src.migrate_to(r.iface, dst).unwrap();
    let err = binding.interrogate("read", vec![]).unwrap_err();
    match err {
        InvokeError::Stale { hint, .. } => {
            assert_eq!(hint.unwrap().0, dst.node());
        }
        other => panic!("expected Stale, got {other:?}"),
    }
}

#[test]
fn relocator_recovers_when_old_home_is_gone() {
    let mut world = World::builder().capsules(2).build();
    let counter = Counter::new();
    let src = Arc::clone(world.capsule(0));
    let dst = Arc::clone(world.capsule(1));
    let r = src.export(Arc::clone(&counter) as Arc<dyn Servant>);
    let third = world.add_capsule();
    let binding = third.bind(r.clone());
    binding.interrogate("add", vec![Value::Int(3)]).unwrap();

    // Move, then crash the old home so no tombstone is reachable.
    src.migrate_to(r.iface, &dst).unwrap();
    src.crash();

    // Location layer must fall back to the relocation service.
    assert_eq!(binding.interrogate("read", vec![]).unwrap().int(), Some(3));
    assert_eq!(binding.target().home, dst.node());
}

#[test]
fn serialized_discipline_excludes_overlap() {
    let world = World::quick();
    let ty = InterfaceTypeBuilder::new()
        .interrogation("bump", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
        .build();
    // A deliberately racy servant: read, sleep, write. Safe only if the
    // runtime serializes dispatch.
    let value = Arc::new(Mutex::new(0i64));
    let v = Arc::clone(&value);
    let servant = FnServant::new(ty, move |_op, _args, _ctx| {
        let current = *v.lock();
        std::thread::sleep(Duration::from_millis(2));
        *v.lock() = current + 1;
        Outcome::ok(vec![Value::Int(current + 1)])
    });
    let r = world.capsule(0).export_with(
        Arc::new(servant),
        ExportConfig {
            discipline: SyncDiscipline::Serialized,
            ..ExportConfig::default()
        },
    );
    let capsule1 = Arc::clone(world.capsule(1));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let binding = capsule1.bind(r.clone());
            s.spawn(move || {
                for _ in 0..5 {
                    binding.interrogate("bump", vec![]).unwrap();
                }
            });
        }
    });
    assert_eq!(*value.lock(), 20, "lost updates under serialized dispatch");
}

#[test]
fn retry_layer_rides_out_transient_loss() {
    let world = World::builder().capsules(2).build();
    let counter = Counter::new();
    let r = world.capsule(0).export(counter);
    world.net().set_link_bidir(
        world.capsule(0).node(),
        world.capsule(1).node(),
        LinkConfig::with_loss(0.5),
    );
    let policy = TransparencyPolicy::default().with_qos(CallQos {
        deadline: Duration::from_millis(300),
        retry_interval: Duration::from_millis(10),
        priority: odp_wire::CallPriority::Normal,
    });
    let binding = world.capsule(1).bind_with(r, policy);
    for _ in 0..10 {
        binding.interrogate("add", vec![Value::Int(1)]).unwrap();
    }
    // At-most-once held: the counter equals the number of logical calls.
    assert_eq!(binding.interrogate("read", vec![]).unwrap().int(), Some(10));
}

#[test]
fn unreachable_server_times_out_with_minimal_policy() {
    let world = World::quick();
    let counter = Counter::new();
    let r = world.capsule(0).export(counter);
    world.capsule(0).crash();
    let policy =
        TransparencyPolicy::minimal().with_qos(CallQos::with_deadline(Duration::from_millis(100)));
    let binding = world.capsule(1).bind_with(r, policy);
    let err = binding.interrogate("read", vec![]).unwrap_err();
    assert!(
        matches!(
            err,
            InvokeError::Rex(RexError::Unreachable(_) | RexError::Timeout)
        ),
        "{err:?}"
    );
}

#[test]
fn bind_typed_enforces_conformance() {
    let world = World::quick();
    let r = world.capsule(0).export(Counter::new());
    // A client that only needs `read` may bind…
    let narrow = InterfaceTypeBuilder::new()
        .interrogation("read", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
        .build();
    let b = world
        .capsule(1)
        .bind_typed(r.clone(), &narrow, TransparencyPolicy::default())
        .unwrap();
    assert!(b.interrogate("read", vec![]).is_ok());
    // …one that needs `reset` may not.
    let too_wide = InterfaceTypeBuilder::new()
        .interrogation("reset", vec![], vec![OutcomeSig::ok(vec![])])
        .build();
    assert!(matches!(
        world
            .capsule(1)
            .bind_typed(r, &too_wide, TransparencyPolicy::default()),
        Err(InvokeError::NotConformant(_))
    ));
}

#[test]
fn interface_references_travel_as_arguments() {
    // §4.4: "all arguments and results are passed by copying references to
    // ADT interfaces". A directory object hands out a counter reference.
    let world = World::quick();
    let counter_ref = world.capsule(0).export(Counter::new());
    let dir_ty = InterfaceTypeBuilder::new()
        .interrogation(
            "get",
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::interface(counter_type())])],
        )
        .build();
    let handed_out = counter_ref.clone();
    let directory = FnServant::new(dir_ty, move |_op, _args, _ctx| {
        Outcome::ok(vec![Value::Interface(handed_out.clone())])
    });
    let dir_ref = world.capsule(0).export(Arc::new(directory));
    let dir_binding = world.capsule(1).bind(dir_ref);
    let out = dir_binding.interrogate("get", vec![]).unwrap();
    let fetched = out.result().unwrap().as_interface().unwrap().clone();
    assert_eq!(fetched.iface, counter_ref.iface);
    // The fetched reference is immediately usable.
    let binding = world.capsule(1).bind(fetched);
    assert_eq!(
        binding
            .interrogate("add", vec![Value::Int(4)])
            .unwrap()
            .int(),
        Some(4)
    );
}

#[test]
fn multiple_results_in_one_outcome() {
    // §5.1: "the ability to return multiple results in each outcome is
    // required to minimize latency".
    let world = World::quick();
    let ty = InterfaceTypeBuilder::new()
        .interrogation(
            "stats",
            vec![],
            vec![OutcomeSig::ok(vec![
                TypeSpec::Int,
                TypeSpec::Int,
                TypeSpec::Str,
            ])],
        )
        .build();
    let servant = FnServant::new(ty, |_op, _args, _ctx| {
        Outcome::ok(vec![Value::Int(1), Value::Int(2), Value::str("three")])
    });
    let r = world.capsule(0).export(Arc::new(servant));
    let out = world
        .capsule(1)
        .bind(r)
        .interrogate("stats", vec![])
        .unwrap();
    assert_eq!(out.results.len(), 3);
    assert_eq!(out.results[2], Value::str("three"));
}

#[test]
fn application_terminations_pass_through() {
    let world = World::quick();
    let ty = InterfaceTypeBuilder::new()
        .interrogation(
            "withdraw",
            vec![TypeSpec::Int],
            vec![
                OutcomeSig::ok(vec![TypeSpec::Int]),
                OutcomeSig::new("overdrawn", vec![TypeSpec::Int]),
            ],
        )
        .build();
    let servant = FnServant::new(ty, |_op, args, _ctx| {
        let amount = args[0].as_int().unwrap_or(0);
        if amount > 100 {
            Outcome::new("overdrawn", vec![Value::Int(100)])
        } else {
            Outcome::ok(vec![Value::Int(100 - amount)])
        }
    });
    let r = world.capsule(0).export(Arc::new(servant));
    let binding = world.capsule(1).bind(r);
    let out = binding
        .interrogate("withdraw", vec![Value::Int(150)])
        .unwrap();
    assert_eq!(out.termination, "overdrawn");
    assert_eq!(out.int(), Some(100));
}

#[test]
fn node_manager_starts_and_stops_servants() {
    use odp_core::node_manager::NodeManager;
    let world = World::quick();
    let capsule = world.capsule(0);
    let manager = NodeManager::new(capsule);
    manager.register_factory("counter", Box::new(|| Counter::new() as Arc<dyn Servant>));
    let mgr_ref = capsule.export(Arc::new(manager));
    let binding = world.capsule(1).bind(mgr_ref);

    assert!(binding.interrogate("ping", vec![]).unwrap().is_ok());
    let out = binding
        .interrogate("start", vec![Value::str("counter")])
        .unwrap();
    assert!(out.is_ok());
    let started = out.result().unwrap().as_interface().unwrap().clone();
    let counter = world.capsule(1).bind(started.clone());
    assert_eq!(
        counter
            .interrogate("add", vec![Value::Int(1)])
            .unwrap()
            .int(),
        Some(1)
    );

    let listed = binding.interrogate("list", vec![]).unwrap();
    assert_eq!(listed.result().unwrap().as_seq().unwrap().len(), 1);

    binding
        .interrogate("stop", vec![Value::Int(started.iface.raw() as i64)])
        .unwrap();
    assert!(matches!(
        counter.interrogate("read", vec![]),
        Err(InvokeError::Closed(_))
    ));

    let out = binding
        .interrogate("start", vec![Value::str("nonexistent")])
        .unwrap();
    assert_eq!(out.termination, "unknown_factory");
}

#[test]
fn snapshot_restore_round_trips_counter_state() {
    let counter = Counter::new();
    counter.dispatch("add", vec![Value::Int(41)], &CallCtx::default());
    let snap = counter.snapshot().unwrap();
    let restored = Counter::new();
    restored.restore(&snap).unwrap();
    let out = restored.dispatch("read", vec![], &CallCtx::default());
    assert_eq!(out.int(), Some(41));
}

#[test]
fn engineering_terminations_are_reserved() {
    assert!(terminations::is_reserved(terminations::MOVED));
    let out = Outcome::ok(vec![]);
    assert!(!out.is_engineering());
}

#[test]
fn dropped_worlds_release_their_threads() {
    fn thread_count() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Threads:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or(0)
    }
    // Warm up allocators/runtime threads.
    drop(World::builder().capsules(3).build());
    std::thread::sleep(Duration::from_millis(300));
    let before = thread_count();
    for _ in 0..20 {
        let world = World::builder().capsules(3).build();
        let r = world.capsule(0).export(Counter::new());
        let binding = world.capsule(1).bind(r);
        binding.interrogate("add", vec![Value::Int(1)]).unwrap();
    }
    std::thread::sleep(Duration::from_millis(500));
    let after = thread_count();
    assert!(
        after <= before + 8,
        "worlds leak threads: {before} -> {after}"
    );
}

#[test]
fn dropping_a_world_wakes_its_parked_workers() {
    let world = World::builder().capsules(8).build();
    // Let every worker run out its idle window and park.
    std::thread::sleep(Duration::from_millis(20));
    let start = std::time::Instant::now();
    drop(world);
    let took = start.elapsed();
    // Nine endpoints (eight capsules and the system capsule) shut down in
    // turn; a drop that waited out each worker's park timeout took ~900 ms.
    assert!(
        took < Duration::from_millis(300),
        "dropping the world took {took:?}"
    );
}
