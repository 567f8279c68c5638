//! Heap allocations per warmed interrogation stay within a fixed budget. A
//! co-located call passes its target reference (and with it the interface
//! signature) through the stub and every client layer; a deep copy of a
//! three-operation signature alone costs about a dozen allocations, so the
//! budget catches any layer that starts copying it again.
//!
//! A co-located interrogation runs entirely on the caller's thread, so it is
//! counted on that thread alone. A remote one also runs on the transport's
//! and the server's threads, so it is counted on every thread of the
//! process, and the tests take turns so that none counts another's calls.

use odp_core::{
    AdmissionLayer, AdmissionPolicy, CallCtx, ExportConfig, Outcome, Servant, ServerLayer, World,
};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, TypeSpec};
use odp_wire::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Budget per co-located call (measured: 10). The signature copies this
/// guards against add ~13 each.
const MAX_ALLOCS_PER_CALL: u64 = 10;
/// Budget per remote call, caller and server together (measured: 19).
const MAX_ALLOCS_PER_REMOTE_CALL: u64 = 19;
const WARMUP_CALLS: u64 = 20_000;
const MEASURED_CALLS: u64 = 10_000;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Held by every test while it counts.
static TURN: Mutex<()> = Mutex::new(());

/// Forwards to the system allocator, counting every call that hands out
/// memory, on the calling thread and in the whole process.
struct CountingAlloc;

fn count_one() {
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
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

fn allocs_in_process() -> u64 {
    PROCESS_ALLOCS.load(Ordering::Relaxed)
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

/// Mean allocations per warmed `interrogate`, as `count` counts them,
/// from capsule `caller` to an export on capsule 0 with the default
/// transparency policy, behind `layers` at the server.
fn allocs_per_call(layers: Vec<Arc<dyn ServerLayer>>, caller: usize, count: fn() -> u64) -> f64 {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let world = World::builder().capsules(2).build();
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
    let binding = world.capsule(caller).bind(reference);
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
    let before = count();
    for i in 0..MEASURED_CALLS {
        call(i);
    }
    let allocs = count() - before;
    allocs as f64 / MEASURED_CALLS as f64
}

fn assert_within_budget(label: &str, per_call: f64, budget: u64) {
    println!("{label}: {per_call:.2} allocations per call");
    assert!(
        per_call <= budget as f64,
        "{label}: {per_call:.2} allocations per call, budget {budget}"
    );
}

#[test]
fn colocated_interrogation_stays_within_allocation_budget() {
    let per_call = allocs_per_call(Vec::new(), 0, allocs_on_this_thread);
    assert_within_budget("no server layers", per_call, MAX_ALLOCS_PER_CALL);
}

#[test]
fn colocated_interrogation_behind_admission_stays_within_allocation_budget() {
    let admission = AdmissionLayer::new(AdmissionPolicy::default());
    let per_call = allocs_per_call(vec![admission], 0, allocs_on_this_thread);
    assert_within_budget("admission", per_call, MAX_ALLOCS_PER_CALL);
}

#[test]
fn remote_interrogation_stays_within_allocation_budget() {
    let per_call = allocs_per_call(Vec::new(), 1, allocs_in_process);
    assert_within_budget("remote", per_call, MAX_ALLOCS_PER_REMOTE_CALL);
}
