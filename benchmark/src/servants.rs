//! The benchmark's own servants: a counter (`rpc_small`), an echo service
//! (`rpc_bulk`) and a 1024-account ledger with snapshot and restore
//! (`ledger_local`). The ledger counts the `audit`s it receives, so a run
//! can check that every one was delivered.

use odp::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

pub const ACCOUNTS: usize = 1024;

/// `rpc_small`: `add(Int) -> Int`, `read() -> Int`.
#[derive(Default)]
pub struct BenchCounter {
    value: AtomicI64,
}

impl BenchCounter {
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::SeqCst)
    }
}

impl Servant for BenchCounter {
    fn interface_type(&self) -> InterfaceType {
        InterfaceTypeBuilder::new()
            .interrogation("read", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
            .interrogation(
                "add",
                vec![TypeSpec::Int],
                vec![OutcomeSig::ok(vec![TypeSpec::Int])],
            )
            .build()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match op {
            "read" => Outcome::ok(vec![Value::Int(self.value())]),
            "add" => {
                let n = args.first().and_then(Value::as_int).unwrap_or(0);
                Outcome::ok(vec![Value::Int(
                    self.value.fetch_add(n, Ordering::SeqCst) + n,
                )])
            }
            _ => Outcome::fail("no such op"),
        }
    }
}

/// The `rpc_bulk` record shape: `{id: Int, name: Str, active: Bool}`.
pub fn record_spec() -> TypeSpec {
    TypeSpec::Record(vec![
        ("id".into(), TypeSpec::Int),
        ("name".into(), TypeSpec::Str),
        ("active".into(), TypeSpec::Bool),
    ])
}

/// `echo(Seq<record>, Bytes)` parameters, which are also its results.
pub fn echo_params() -> Vec<TypeSpec> {
    vec![TypeSpec::Seq(Box::new(record_spec())), TypeSpec::Bytes]
}

/// `rpc_bulk`: `echo(batch, blob)` returns its arguments unchanged.
#[derive(Default)]
pub struct Echo;

impl Servant for Echo {
    fn interface_type(&self) -> InterfaceType {
        InterfaceTypeBuilder::new()
            .interrogation("echo", echo_params(), vec![OutcomeSig::ok(echo_params())])
            .build()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match op {
            "echo" => Outcome::ok(args),
            _ => Outcome::fail("no such op"),
        }
    }
}

/// `ledger_local`: `balance(acct) -> Int`, `deposit(acct, amt) -> Int`
/// (the new balance; the only mutating operation) and announcement
/// `audit(acct)`.
pub struct Ledger {
    balances: Vec<AtomicI64>,
    pub audits: AtomicU64,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            balances: (0..ACCOUNTS).map(|_| AtomicI64::new(0)).collect(),
            audits: AtomicU64::new(0),
        }
    }
}

impl Ledger {
    pub fn total(&self) -> i64 {
        self.balances.iter().map(|b| b.load(Ordering::SeqCst)).sum()
    }

    fn account(&self, arg: Option<&Value>) -> Option<&AtomicI64> {
        let i = usize::try_from(arg.and_then(Value::as_int)?).ok()?;
        self.balances.get(i)
    }
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
        let Some(account) = self.account(args.first()) else {
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
            "audit" => {
                self.audits.fetch_add(1, Ordering::SeqCst);
                Outcome::ok(vec![])
            }
            _ => Outcome::fail("no such op"),
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(
            self.balances
                .iter()
                .flat_map(|b| b.load(Ordering::SeqCst).to_be_bytes())
                .collect(),
        )
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), String> {
        if snapshot.len() != ACCOUNTS * 8 {
            return Err(format!("snapshot of {} bytes", snapshot.len()));
        }
        for (b, chunk) in self.balances.iter().zip(snapshot.chunks_exact(8)) {
            let bytes: [u8; 8] = chunk.try_into().map_err(|_| "short chunk")?;
            b.store(i64::from_be_bytes(bytes), Ordering::SeqCst);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_snapshot_round_trips() {
        let a = Ledger::default();
        let ctx = CallCtx::default();
        a.dispatch("deposit", vec![Value::Int(7), Value::Int(40)], &ctx);
        let b = Ledger::default();
        b.restore(&a.snapshot().unwrap()).unwrap();
        assert_eq!(b.total(), 40);
        let out = b.dispatch("balance", vec![Value::Int(7)], &ctx);
        assert_eq!(out.int(), Some(40));
    }
}
