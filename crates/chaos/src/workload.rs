//! The chaos workload: an idempotent, recoverable ledger.
//!
//! `LedgerServant` is the object the harness hammers while faults replay.
//! Its operation set is deliberately shaped to make the safety invariants
//! checkable from the outside:
//!
//! - `record(client, seq, value)` is keyed by the `(client, seq)` pair, an
//!   *idempotency key*. REX's per-call record suppresses duplicate executions
//!   of a single call's retransmissions, but a layer-level retry (or a
//!   client-driven retry after a lost reply) is a **new** call with a new
//!   call id — end-to-end at-most-once *effect* therefore needs keying at
//!   the application layer, exactly as the paper's end-to-end argument
//!   demands. Re-delivery of a recorded key is counted, not re-applied.
//! - `entries()` dumps the whole table so the checker can compare the
//!   survivor's state against the client-side commit log.
//! - The servant supports `snapshot`/`restore`, so the storage crate's
//!   write-ahead logging and checkpointing work unchanged; crash-recovery
//!   replays are absorbed by the same idempotency keys.

use odp_core::{CallCtx, Outcome, Servant};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, TypeSpec};
use odp_wire::Value;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Operation name: `record(client, seq, value) -> ok(applied: 0|1)`.
pub const LEDGER_OP_RECORD: &str = "record";
/// Operation name: `entries() -> ok(seq of [client, seq, value])`.
pub const LEDGER_OP_ENTRIES: &str = "entries";
/// Operation name: `len() -> ok(count)`.
pub const LEDGER_OP_LEN: &str = "len";

/// The signature of the ledger interface.
#[must_use]
pub fn ledger_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            LEDGER_OP_RECORD,
            vec![TypeSpec::Int, TypeSpec::Int, TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .interrogation(
            LEDGER_OP_ENTRIES,
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::Any])],
        )
        .interrogation(
            LEDGER_OP_LEN,
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .build()
}

/// The value a well-behaved client writes for `(client, seq)` — a pure
/// function of the key, so the checker can verify every surviving entry
/// without any side channel.
#[must_use]
pub fn expected_value(client: u64, seq: u64) -> i64 {
    (client as i64) * 1_000_000 + seq as i64
}

/// The ledger servant. See the module docs for the design rationale.
#[derive(Default)]
pub struct LedgerServant {
    entries: Mutex<BTreeMap<(u64, u64), i64>>,
    /// Deliveries of an already-recorded key (duplicates suppressed at
    /// the application layer). Accounting, not an error: under retry
    /// storms and WAL replay a nonzero count is expected.
    pub dup_deliveries: AtomicU64,
}

impl LedgerServant {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the current table.
    #[must_use]
    pub fn entries(&self) -> BTreeMap<(u64, u64), i64> {
        self.entries.lock().clone()
    }

    /// Number of recorded keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

impl Servant for LedgerServant {
    fn interface_type(&self) -> InterfaceType {
        ledger_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match op {
            LEDGER_OP_RECORD => {
                let (Some(client), Some(seq), Some(value)) = (
                    args.first().and_then(Value::as_int),
                    args.get(1).and_then(Value::as_int),
                    args.get(2).and_then(Value::as_int),
                ) else {
                    return Outcome::fail("record expects (client, seq, value) ints");
                };
                let key = (client as u64, seq as u64);
                let mut entries = self.entries.lock();
                match entries.entry(key) {
                    std::collections::btree_map::Entry::Occupied(_) => {
                        self.dup_deliveries.fetch_add(1, Ordering::Relaxed);
                        Outcome::ok(vec![Value::Int(0)])
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(value);
                        Outcome::ok(vec![Value::Int(1)])
                    }
                }
            }
            LEDGER_OP_ENTRIES => {
                let entries = self.entries.lock();
                let rows = entries
                    .iter()
                    .map(|(&(client, seq), &value)| {
                        Value::Seq(vec![
                            Value::Int(client as i64),
                            Value::Int(seq as i64),
                            Value::Int(value),
                        ])
                    })
                    .collect();
                Outcome::ok(vec![Value::Seq(rows)])
            }
            LEDGER_OP_LEN => Outcome::ok(vec![Value::Int(self.entries.lock().len() as i64)]),
            other => Outcome::fail(format!("unknown ledger op {other}")),
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        let entries = self.entries.lock();
        let rows: Vec<Value> = entries
            .iter()
            .map(|(&(client, seq), &value)| {
                Value::Seq(vec![
                    Value::Int(client as i64),
                    Value::Int(seq as i64),
                    Value::Int(value),
                ])
            })
            .collect();
        Some(odp_wire::marshal(&[Value::Seq(rows)]).to_vec())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), String> {
        let values = odp_wire::unmarshal(snapshot).map_err(|e| e.to_string())?;
        let Some(Value::Seq(rows)) = values.first() else {
            return Err("ledger snapshot must be a sequence".to_owned());
        };
        let mut entries = self.entries.lock();
        entries.clear();
        for row in rows {
            let Some(fields) = row.as_seq() else {
                return Err("ledger snapshot row must be a sequence".to_owned());
            };
            let (Some(client), Some(seq), Some(value)) = (
                fields.first().and_then(Value::as_int),
                fields.get(1).and_then(Value::as_int),
                fields.get(2).and_then(Value::as_int),
            ) else {
                return Err("ledger snapshot row must be three ints".to_owned());
            };
            entries.insert((client as u64, seq as u64), value);
        }
        Ok(())
    }
}

/// Parses the result of an `entries()` interrogation back into a table.
///
/// # Errors
///
/// Returns a description of the first malformed row, if any.
pub fn parse_entries(outcome: &Outcome) -> Result<BTreeMap<(u64, u64), i64>, String> {
    let Some(rows) = outcome.result().and_then(Value::as_seq) else {
        return Err("entries() result must be a sequence".to_owned());
    };
    let mut table = BTreeMap::new();
    for row in rows {
        let Some(fields) = row.as_seq() else {
            return Err("entries() row must be a sequence".to_owned());
        };
        let (Some(client), Some(seq), Some(value)) = (
            fields.first().and_then(Value::as_int),
            fields.get(1).and_then(Value::as_int),
            fields.get(2).and_then(Value::as_int),
        ) else {
            return Err("entries() row must be three ints".to_owned());
        };
        table.insert((client as u64, seq as u64), value);
    }
    Ok(table)
}

/// The mutating-operation classifier the write-ahead log layer needs:
/// only `record` changes ledger state.
#[must_use]
pub fn ledger_is_mutating(op: &str) -> bool {
    op == LEDGER_OP_RECORD
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_types::NodeId;

    fn ctx() -> CallCtx {
        CallCtx {
            caller: NodeId(99),
            iface: odp_types::InterfaceId(1),
            announcement: false,
            annotations: std::collections::BTreeMap::new(),
            ..CallCtx::default()
        }
    }

    #[test]
    fn record_is_idempotent_by_key() {
        let ledger = LedgerServant::new();
        let out = ledger.dispatch(
            LEDGER_OP_RECORD,
            vec![
                Value::Int(1),
                Value::Int(0),
                Value::Int(expected_value(1, 0)),
            ],
            &ctx(),
        );
        assert_eq!(out.int(), Some(1));
        let out = ledger.dispatch(
            LEDGER_OP_RECORD,
            vec![
                Value::Int(1),
                Value::Int(0),
                Value::Int(expected_value(1, 0)),
            ],
            &ctx(),
        );
        assert_eq!(out.int(), Some(0), "duplicate delivery must not re-apply");
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.dup_deliveries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let ledger = LedgerServant::new();
        for seq in 0..10u64 {
            ledger.dispatch(
                LEDGER_OP_RECORD,
                vec![
                    Value::Int(3),
                    Value::Int(seq as i64),
                    Value::Int(expected_value(3, seq)),
                ],
                &ctx(),
            );
        }
        let snap = ledger.snapshot().expect("ledger snapshots");
        let other = LedgerServant::new();
        other.restore(&snap).expect("restore");
        assert_eq!(other.entries(), ledger.entries());
    }

    #[test]
    fn entries_round_trips_through_wire_shape() {
        let ledger = LedgerServant::new();
        ledger.dispatch(
            LEDGER_OP_RECORD,
            vec![
                Value::Int(2),
                Value::Int(7),
                Value::Int(expected_value(2, 7)),
            ],
            &ctx(),
        );
        let out = ledger.dispatch(LEDGER_OP_ENTRIES, vec![], &ctx());
        let table = parse_entries(&out).expect("parse");
        assert_eq!(table.get(&(2, 7)), Some(&expected_value(2, 7)));
    }

    #[test]
    fn classifier_marks_only_record_mutating() {
        assert!(ledger_is_mutating(LEDGER_OP_RECORD));
        assert!(!ledger_is_mutating(LEDGER_OP_ENTRIES));
        assert!(!ledger_is_mutating(LEDGER_OP_LEN));
    }
}
