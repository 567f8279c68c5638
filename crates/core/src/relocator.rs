//! The relocation service — location transparency's registry (§5.4).
//!
//! *"To avoid scaling problems, relocation mechanisms should only require
//! the registration of changes in location because the majority of
//! interfaces in a system can be expected to be temporary and stationary."*
//!
//! The relocator is itself an ordinary ODP object (a [`Servant`]) exported
//! from some capsule: the platform is self-hosting, in the spirit of §6's
//! "self-describing systems". Records are keyed by interface identity and
//! carry `(node, epoch)`; registrations with a non-increasing epoch are
//! rejected as stale, which makes registration idempotent and safe to race.

use crate::object::{CallCtx, Outcome, Servant};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceId, InterfaceType, NodeId, TypeSpec};
use odp_wire::Value;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Operation name: `register(iface, node, epoch) -> ok | stale`.
pub const RELOCATOR_OP_REGISTER: &str = "register";
/// Operation name: `lookup(iface) -> ok(node, epoch) | not_found`.
pub const RELOCATOR_OP_LOOKUP: &str = "lookup";
/// Operation name: `unregister(iface) -> ok`.
const RELOCATOR_OP_UNREGISTER: &str = "unregister";

/// The signature of the relocation service.
#[must_use]
fn relocator_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            RELOCATOR_OP_REGISTER,
            vec![TypeSpec::Int, TypeSpec::Int, TypeSpec::Int],
            vec![
                OutcomeSig::ok(vec![]),
                OutcomeSig::new("stale", vec![TypeSpec::Int]),
            ],
        )
        .interrogation(
            RELOCATOR_OP_LOOKUP,
            vec![TypeSpec::Int],
            vec![
                OutcomeSig::ok(vec![TypeSpec::Int, TypeSpec::Int]),
                OutcomeSig::new("not_found", vec![]),
            ],
        )
        .interrogation(
            RELOCATOR_OP_UNREGISTER,
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![])],
        )
        .build()
}

/// The relocation registry servant.
#[derive(Default)]
pub struct RelocationServant {
    table: Mutex<HashMap<InterfaceId, (NodeId, u64)>>,
    /// Lookups served (consultation pressure: chaos experiments watch this
    /// to confirm stale bindings rebind through the relocator rather than
    /// burning their retry budgets blind).
    pub lookups: AtomicU64,
    /// Lookups that found no record.
    pub lookup_misses: AtomicU64,
}

impl RelocationServant {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered relocations (not all interfaces — only moved
    /// ones, per the §5.4 scaling rule).
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.lock().len()
    }

    /// True if no relocations are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.lock().is_empty()
    }

    /// Direct (in-process) lookup, used by tests.
    #[must_use]
    pub fn lookup_direct(&self, iface: InterfaceId) -> Option<(NodeId, u64)> {
        self.table.lock().get(&iface).copied()
    }
}

impl Servant for RelocationServant {
    fn interface_type(&self) -> InterfaceType {
        relocator_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match op {
            RELOCATOR_OP_REGISTER => {
                let (Some(iface), Some(node), Some(epoch)) = (
                    args.first().and_then(Value::as_int),
                    args.get(1).and_then(Value::as_int),
                    args.get(2).and_then(Value::as_int),
                ) else {
                    return Outcome::fail("register requires (iface, node, epoch)");
                };
                let iface = InterfaceId(iface as u64);
                let mut table = self.table.lock();
                match table.get(&iface) {
                    Some((_, existing)) if *existing >= epoch as u64 => {
                        Outcome::new("stale", vec![Value::Int(*existing as i64)])
                    }
                    _ => {
                        table.insert(iface, (NodeId(node as u64), epoch as u64));
                        Outcome::ok(vec![])
                    }
                }
            }
            RELOCATOR_OP_LOOKUP => {
                let Some(iface) = args.first().and_then(Value::as_int) else {
                    return Outcome::fail("lookup requires (iface)");
                };
                self.lookups.fetch_add(1, Ordering::Relaxed);
                match self.table.lock().get(&InterfaceId(iface as u64)) {
                    Some((node, epoch)) => Outcome::ok(vec![
                        Value::Int(node.raw() as i64),
                        Value::Int(*epoch as i64),
                    ]),
                    None => {
                        self.lookup_misses.fetch_add(1, Ordering::Relaxed);
                        Outcome::new("not_found", vec![])
                    }
                }
            }
            RELOCATOR_OP_UNREGISTER => {
                let Some(iface) = args.first().and_then(Value::as_int) else {
                    return Outcome::fail("unregister requires (iface)");
                };
                self.table.lock().remove(&InterfaceId(iface as u64));
                Outcome::ok(vec![])
            }
            _ => Outcome::fail("unknown operation"),
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        // The registry itself supports checkpointing: encode the table as
        // a wire payload.
        let table = self.table.lock();
        let entries: Vec<Value> = table
            .iter()
            .map(|(iface, (node, epoch))| {
                Value::Seq(vec![
                    Value::Int(iface.raw() as i64),
                    Value::Int(node.raw() as i64),
                    Value::Int(*epoch as i64),
                ])
            })
            .collect();
        Some(odp_wire::marshal(&[Value::Seq(entries)]).to_vec())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), String> {
        let values = odp_wire::unmarshal(snapshot).map_err(|e| e.to_string())?;
        let Some(Value::Seq(entries)) = values.first() else {
            return Err("relocator snapshot must be a sequence".to_owned());
        };
        let mut table = self.table.lock();
        table.clear();
        for entry in entries {
            let Some([Value::Int(iface), Value::Int(node), Value::Int(epoch)]) =
                entry.as_seq().and_then(|s| <&[Value; 3]>::try_from(s).ok())
            else {
                return Err("relocator snapshot entry malformed".to_owned());
            };
            table.insert(
                InterfaceId(*iface as u64),
                (NodeId(*node as u64), *epoch as u64),
            );
        }
        Ok(())
    }
}

impl fmt::Debug for RelocationServant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RelocationServant")
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CallCtx {
        CallCtx::default()
    }

    #[test]
    fn register_and_lookup() {
        let r = RelocationServant::new();
        let out = r.dispatch(
            RELOCATOR_OP_REGISTER,
            vec![Value::Int(7), Value::Int(3), Value::Int(1)],
            &ctx(),
        );
        assert!(out.is_ok());
        let out = r.dispatch(RELOCATOR_OP_LOOKUP, vec![Value::Int(7)], &ctx());
        assert_eq!(out.termination, "ok");
        assert_eq!(out.results, vec![Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn stale_registrations_rejected() {
        let r = RelocationServant::new();
        r.dispatch(
            RELOCATOR_OP_REGISTER,
            vec![Value::Int(7), Value::Int(3), Value::Int(5)],
            &ctx(),
        );
        let out = r.dispatch(
            RELOCATOR_OP_REGISTER,
            vec![Value::Int(7), Value::Int(9), Value::Int(4)],
            &ctx(),
        );
        assert_eq!(out.termination, "stale");
        // Equal epoch also rejected (idempotent re-register is "stale" but
        // harmless).
        let out = r.dispatch(
            RELOCATOR_OP_REGISTER,
            vec![Value::Int(7), Value::Int(9), Value::Int(5)],
            &ctx(),
        );
        assert_eq!(out.termination, "stale");
        assert_eq!(r.lookup_direct(InterfaceId(7)), Some((NodeId(3), 5)));
    }

    #[test]
    fn lookup_missing_is_not_found() {
        let r = RelocationServant::new();
        let out = r.dispatch(RELOCATOR_OP_LOOKUP, vec![Value::Int(99)], &ctx());
        assert_eq!(out.termination, "not_found");
    }

    #[test]
    fn unregister_removes() {
        let r = RelocationServant::new();
        r.dispatch(
            RELOCATOR_OP_REGISTER,
            vec![Value::Int(7), Value::Int(3), Value::Int(1)],
            &ctx(),
        );
        r.dispatch(RELOCATOR_OP_UNREGISTER, vec![Value::Int(7)], &ctx());
        assert!(r.is_empty());
    }

    #[test]
    fn malformed_args_fail_gracefully() {
        let r = RelocationServant::new();
        assert_eq!(
            r.dispatch(RELOCATOR_OP_REGISTER, vec![Value::str("x")], &ctx())
                .termination,
            "fail"
        );
        assert_eq!(
            r.dispatch(RELOCATOR_OP_LOOKUP, vec![], &ctx()).termination,
            "fail"
        );
        assert_eq!(r.dispatch("bogus", vec![], &ctx()).termination, "fail");
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let r = RelocationServant::new();
        r.dispatch(
            RELOCATOR_OP_REGISTER,
            vec![Value::Int(7), Value::Int(3), Value::Int(1)],
            &ctx(),
        );
        r.dispatch(
            RELOCATOR_OP_REGISTER,
            vec![Value::Int(8), Value::Int(4), Value::Int(2)],
            &ctx(),
        );
        let snap = r.snapshot().unwrap();
        let r2 = RelocationServant::new();
        r2.restore(&snap).unwrap();
        assert_eq!(r2.lookup_direct(InterfaceId(7)), Some((NodeId(3), 1)));
        assert_eq!(r2.lookup_direct(InterfaceId(8)), Some((NodeId(4), 2)));
        assert!(r2.restore(b"garbage").is_err());
    }

    #[test]
    fn signature_declares_all_ops() {
        let ty = relocator_interface_type();
        assert!(ty.operation(RELOCATOR_OP_REGISTER).is_some());
        assert!(ty.operation(RELOCATOR_OP_LOOKUP).is_some());
        assert!(ty.operation(RELOCATOR_OP_UNREGISTER).is_some());
    }
}
