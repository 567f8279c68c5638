//! Sampling decides whole trees: a nested invocation made inside a call
//! joins that call's trace — sampled or not — instead of drawing its own
//! sampling decision. Either a whole tree is recorded or none of it is.
//!
//! Its own test binary: it sets the process-global recording switch and
//! sampling policy, and counts every trace the hub records.

use odp_core::{FnServant, Outcome, World};
use odp_telemetry::{hub, Sampling};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::InterfaceType;
use std::collections::BTreeMap;
use std::sync::Arc;

const OUTER_CALLS: usize = 40;

fn one_op(op: &str) -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(op, vec![], vec![OutcomeSig::ok(vec![])])
        .build()
}

#[test]
fn nested_calls_follow_the_outer_sampling_decision() {
    // Client on capsule 0 → `outer` on capsule 1 → `inner` on capsule 2.
    let world = World::builder().capsules(3).build();
    let inner_ref = world
        .capsule(2)
        .export(Arc::new(FnServant::new(one_op("inner"), |_, _, _| {
            Outcome::ok(vec![])
        })));
    let inner = world.capsule(1).bind(inner_ref);
    let outer_ref = world.capsule(1).export(Arc::new(FnServant::new(
        one_op("outer"),
        move |_, _, _| match inner.interrogate("inner", vec![]) {
            Ok(_) => Outcome::ok(vec![]),
            Err(e) => Outcome::fail(e.to_string()),
        },
    )));
    let outer = world.capsule(0).bind(outer_ref);

    hub().set_recording(true);
    hub().set_sampling(Sampling::OneIn(2));
    for _ in 0..OUTER_CALLS {
        assert!(outer.interrogate("outer", vec![]).unwrap().is_ok());
    }
    hub().set_recording(false);
    hub().set_sampling(Sampling::Off);

    // Per recorded trace: (has an `outer` span, has an `inner` span).
    let mut traces: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
    for span in hub().spans() {
        let seen = traces.entry(span.trace_id).or_default();
        match span.op.as_deref() {
            Some("outer") => seen.0 = true,
            Some("inner") => seen.1 = true,
            _ => {}
        }
    }
    let inner_only = traces.values().filter(|&&t| t == (false, true)).count();
    let whole = traces.values().filter(|&&t| t == (true, true)).count();
    assert_eq!(
        inner_only, 0,
        "inner spans recorded without their outer call"
    );
    assert_eq!(
        whole,
        OUTER_CALLS / 2,
        "one outer call in two records its whole tree"
    );
}
