//! Heap allocations per warmed co-located interrogation stay within a fixed
//! budget. A co-located call passes its target reference (and with it the
//! interface signature) through the stub and every client layer; a deep copy
//! of a three-operation signature alone costs about a dozen allocations, so
//! the budget catches any layer that starts copying it again.
//!
//! The counter is per thread: a co-located interrogation runs entirely on
//! the caller's thread, and background threads (or tests running in
//! parallel) do not disturb the count.

use odp_core::{
    AdmissionLayer, AdmissionPolicy, CallCtx, ExportConfig, Outcome, Servant, ServerLayer, World,
};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, TypeSpec};
use odp_wire::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Budget per call. The signature copies this guards against add ~13 each.
const MAX_ALLOCS_PER_CALL: u64 = 16;
const WARMUP_CALLS: u64 = 20_000;
const MEASURED_CALLS: u64 = 10_000;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting every call that hands out
/// memory on the calling thread.
struct CountingAlloc;

fn count_one() {
    // `try_with` because the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Ledger-shaped servant: `balance(acct)`, `deposit(acct, amt)` and the
/// announcement `audit(acct)`, over 16 accounts.
struct Ledger {
    balances: [AtomicI64; 16],
}

impl Servant for Ledger {
    fn interface_type(&self) -> InterfaceType {
        InterfaceTypeBuilder::new()
            .interrogation(
                "balance",
                vec![TypeSpec::Int],
                vec![OutcomeSig::ok(vec![TypeSpec::Int])],
            )
            .interrogation(
                "deposit",
                vec![TypeSpec::Int, TypeSpec::Int],
                vec![OutcomeSig::ok(vec![TypeSpec::Int])],
            )
            .announcement("audit", vec![TypeSpec::Int])
            .build()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        let account = args
            .first()
            .and_then(Value::as_int)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| self.balances.get(i));
        let Some(account) = account else {
            return Outcome::fail("no such account");
        };
        match op {
            "balance" => Outcome::ok(vec![Value::Int(account.load(Ordering::SeqCst))]),
            "deposit" => {
                let amount = args.get(1).and_then(Value::as_int).unwrap_or(0);
                Outcome::ok(vec![Value::Int(
                    account.fetch_add(amount, Ordering::SeqCst) + amount,
                )])
            }
            _ => Outcome::ok(vec![]),
        }
    }
}

/// Mean allocations per warmed `interrogate` on one capsule with the
/// default transparency policy, behind `layers` at the server.
fn allocs_per_call(layers: Vec<Arc<dyn ServerLayer>>) -> f64 {
    let world = World::builder().capsules(1).build();
    let capsule = world.capsule(0);
    let ledger = Arc::new(Ledger {
        balances: std::array::from_fn(|_| AtomicI64::new(0)),
    });
    let reference = capsule.export_with(
        ledger,
        ExportConfig {
            layers,
            ..ExportConfig::default()
        },
    );
    let binding = capsule.bind(reference);
    let call = |i: u64| {
        let account = Value::Int((i % 16) as i64);
        let outcome = if i.is_multiple_of(2) {
            binding.interrogate("balance", vec![account])
        } else {
            binding.interrogate("deposit", vec![account, Value::Int(1)])
        };
        assert!(outcome.unwrap().is_ok(), "call {i} failed");
    };
    for i in 0..WARMUP_CALLS {
        call(i);
    }
    let before = allocs_on_this_thread();
    for i in 0..MEASURED_CALLS {
        call(i);
    }
    let allocs = allocs_on_this_thread() - before;
    allocs as f64 / MEASURED_CALLS as f64
}

fn assert_within_budget(label: &str, per_call: f64) {
    println!("{label}: {per_call:.2} allocations per call");
    assert!(
        per_call <= MAX_ALLOCS_PER_CALL as f64,
        "{label}: {per_call:.2} allocations per co-located call, budget {MAX_ALLOCS_PER_CALL}"
    );
}

#[test]
fn colocated_interrogation_stays_within_allocation_budget() {
    assert_within_budget("no server layers", allocs_per_call(Vec::new()));
}

#[test]
fn colocated_interrogation_behind_admission_stays_within_allocation_budget() {
    let admission = AdmissionLayer::new(AdmissionPolicy::default());
    assert_within_budget("admission", allocs_per_call(vec![admission]));
}
