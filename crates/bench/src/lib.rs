//! # odp-bench — the experiment harness
//!
//! One Criterion bench target per experiment in DESIGN.md §2 (E1–E18).
//! This library hosts shared workload helpers used by the bench targets;
//! see `benches/` for the experiments themselves and EXPERIMENTS.md for
//! recorded results against the paper's claims.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use odp::prelude::*;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// The counter ADT used by several experiments.
#[derive(Default)]
pub struct BenchCounter {
    /// Current value.
    pub value: AtomicI64,
}

/// The counter's interface type.
#[must_use]
pub fn counter_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation("read", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
        .interrogation(
            "add",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .build()
}

impl Servant for BenchCounter {
    fn interface_type(&self) -> InterfaceType {
        counter_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match op {
            "read" => Outcome::ok(vec![Value::Int(self.value.load(Ordering::Relaxed))]),
            "add" => {
                let n = args.first().and_then(Value::as_int).unwrap_or(0);
                Outcome::ok(vec![Value::Int(
                    self.value.fetch_add(n, Ordering::Relaxed) + n,
                )])
            }
            _ => Outcome::fail("no such op"),
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.value.load(Ordering::Relaxed).to_be_bytes().to_vec())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), String> {
        let arr: [u8; 8] = snapshot.try_into().map_err(|_| "bad snapshot")?;
        self.value.store(i64::from_be_bytes(arr), Ordering::Relaxed);
        Ok(())
    }
}

/// Creates a fresh counter servant.
#[must_use]
pub fn counter() -> Arc<dyn Servant> {
    Arc::new(BenchCounter::default())
}
