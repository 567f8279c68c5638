//! N-version programming tests: independent implementations voted at the
//! client (§5.3's "defence against programming errors").

use odp_core::{Code, FnServant, InvokeError, Outcome, Servant, TransparencyPolicy, World};
use odp_groups::VotingLayer;
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, TypeSpec};
use odp_wire::{InterfaceRef, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn sqrt_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            "isqrt",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .build()
}

/// Three independent integer-square-root implementations; `buggy` makes
/// version 2 wrong for inputs above 100.
fn versions(world: &World, buggy: bool) -> Vec<InterfaceRef> {
    let v1 = FnServant::new(sqrt_type(), |_o, args, _c| {
        // Newton's method.
        let n = args[0].as_int().unwrap_or(0).max(0);
        let mut x = n;
        let mut y = (x + 1) / 2;
        while y < x {
            x = y;
            y = (x + n / x.max(1)) / 2;
        }
        Outcome::ok(vec![Value::Int(x)])
    });
    let v2 = FnServant::new(sqrt_type(), move |_o, args, _c| {
        // Linear scan — independently written, also correct… unless buggy.
        let n = args[0].as_int().unwrap_or(0).max(0);
        if buggy && n > 100 {
            return Outcome::ok(vec![Value::Int(n)]); // programming error
        }
        let mut r = 0i64;
        while (r + 1) * (r + 1) <= n {
            r += 1;
        }
        Outcome::ok(vec![Value::Int(r)])
    });
    let v3 = FnServant::new(sqrt_type(), |_o, args, _c| {
        // Float-based third opinion.
        let n = args[0].as_int().unwrap_or(0).max(0);
        let mut r = (n as f64).sqrt() as i64;
        while r * r > n {
            r -= 1;
        }
        while (r + 1) * (r + 1) <= n {
            r += 1;
        }
        Outcome::ok(vec![Value::Int(r)])
    });
    vec![
        world.capsule(0).export(Arc::new(v1) as Arc<dyn Servant>),
        world.capsule(1).export(Arc::new(v2) as Arc<dyn Servant>),
        world.capsule(2).export(Arc::new(v3) as Arc<dyn Servant>),
    ]
}

fn bind_voted(
    world: &World,
    refs: Vec<InterfaceRef>,
) -> (odp_core::ClientBinding, Arc<VotingLayer>) {
    let layer = VotingLayer::majority(refs.clone());
    let binding = world.capsule(3).bind_with(
        refs[0].clone(),
        TransparencyPolicy::minimal()
            .with_layer(Arc::clone(&layer) as Arc<dyn odp_core::ClientLayer>),
    );
    (binding, layer)
}

#[test]
fn agreeing_versions_answer_like_a_singleton() {
    let world = World::builder().capsules(4).build();
    let refs = versions(&world, false);
    let (binding, layer) = bind_voted(&world, refs);
    for n in [0i64, 1, 99, 10_000, 1 << 40] {
        let out = binding.interrogate("isqrt", vec![Value::Int(n)]).unwrap();
        let r = out.int().unwrap();
        assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
    }
    assert_eq!(layer.dissents.load(Ordering::Relaxed), 0);
}

#[test]
fn one_buggy_version_is_outvoted() {
    let world = World::builder().capsules(4).build();
    let refs = versions(&world, true);
    let (binding, layer) = bind_voted(&world, refs);
    // Inputs over 100 trigger version 2's bug; the majority still wins.
    let out = binding.interrogate("isqrt", vec![Value::Int(144)]).unwrap();
    assert_eq!(out.int(), Some(12));
    assert_eq!(layer.dissents.load(Ordering::Relaxed), 1);
    // Small inputs: all agree, no dissent recorded.
    let out = binding.interrogate("isqrt", vec![Value::Int(81)]).unwrap();
    assert_eq!(out.int(), Some(9));
    assert_eq!(layer.dissents.load(Ordering::Relaxed), 1);
}

#[test]
fn an_engineering_termination_is_a_dissenting_vote() {
    // Versions 0 and 2 agree; version 1 answers with a reserved
    // termination. It is outvoted and counted as dissent, not ignored.
    let world = World::builder().capsules(4).build();
    let ty = sqrt_type();
    let refs: Vec<InterfaceRef> = (0..3)
        .map(|i| {
            let servant = FnServant::new(ty.clone(), move |_o, _a, _c| {
                if i == 1 {
                    Outcome::engineering(Code::Denied, vec![Value::str("no")])
                } else {
                    Outcome::ok(vec![Value::Int(3)])
                }
            });
            world
                .capsule(i as usize)
                .export(Arc::new(servant) as Arc<dyn Servant>)
        })
        .collect();
    let (binding, layer) = bind_voted(&world, refs);
    let out = binding.interrogate("isqrt", vec![Value::Int(9)]).unwrap();
    assert_eq!(out.int(), Some(3));
    assert_eq!(layer.dissents.load(Ordering::Relaxed), 1);
}

#[test]
fn a_quorum_of_engineering_terminations_wins_the_vote() {
    // Two of three versions deny: the agreed answer is the denial.
    let world = World::builder().capsules(4).build();
    let ty = sqrt_type();
    let refs: Vec<InterfaceRef> = (0..3)
        .map(|i| {
            let servant = FnServant::new(ty.clone(), move |_o, _a, _c| {
                if i == 0 {
                    Outcome::ok(vec![Value::Int(3)])
                } else {
                    Outcome::engineering(Code::Denied, vec![Value::str("no")])
                }
            });
            world
                .capsule(i as usize)
                .export(Arc::new(servant) as Arc<dyn Servant>)
        })
        .collect();
    let (binding, layer) = bind_voted(&world, refs);
    let err = binding
        .interrogate("isqrt", vec![Value::Int(9)])
        .unwrap_err();
    assert_eq!(err, InvokeError::Denied("no".to_owned()));
    assert_eq!(layer.dissents.load(Ordering::Relaxed), 1);
}

#[test]
fn no_quorum_is_an_explicit_error() {
    // Three versions that all disagree.
    let world = World::builder().capsules(4).build();
    let ty = sqrt_type();
    let refs: Vec<InterfaceRef> = (0..3)
        .map(|i| {
            let servant = FnServant::new(ty.clone(), move |_o, _a, _c| {
                Outcome::ok(vec![Value::Int(i)])
            });
            world
                .capsule(i as usize)
                .export(Arc::new(servant) as Arc<dyn Servant>)
        })
        .collect();
    let (binding, _layer) = bind_voted(&world, refs);
    let err = binding
        .interrogate("isqrt", vec![Value::Int(9)])
        .unwrap_err();
    assert!(
        matches!(err, InvokeError::Protocol(ref why) if why.contains("quorum")),
        "{err:?}"
    );
}

#[test]
fn crashed_version_does_not_block_the_vote() {
    let world = World::builder().capsules(4).build();
    let refs = versions(&world, false);
    let (binding, _layer) = bind_voted(&world, refs);
    world.capsule(2).crash();
    // Two of three answer identically: quorum (2) reached despite the
    // missing voter — availability through redundancy, as §5.3 promises.
    let policy_qos = binding.interrogate("isqrt", vec![Value::Int(64)]).unwrap();
    assert_eq!(policy_qos.int(), Some(8));
}
