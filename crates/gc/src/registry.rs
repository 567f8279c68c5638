//! The per-capsule GC registry and its ADT service.
//!
//! The registry knows three things about the capsule's exports:
//!
//! * **remote holders** — via the [`LeaseTable`], fed by the GC servant's
//!   `renew` / `release` operations (reference listing);
//! * **local edges** — which exported object holds references to which
//!   co-located objects (recorded by the runtime when payloads carrying
//!   references are stored; [`odp_wire::Value::collect_refs`] yields them);
//! * **pins** — objects that are never garbage: system services and
//!   anything currently active ("active ones cannot be garbage by
//!   definition", §7.3).

use crate::lease::LeaseTable;
use odp_core::{CallCtx, Outcome, Servant};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceId, InterfaceType, TypeSpec};
use odp_wire::Value;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// GC operation names.
pub mod ops {
    /// `renew(seq<iface>) -> ok(ttl_ms)` — refresh the caller's leases.
    pub const RENEW: &str = "__gc_renew";
    /// `release(seq<iface>) -> ok` — drop the caller's leases.
    pub const RELEASE: &str = "__gc_release";
}

/// The registry.
pub struct RefRegistry {
    leases: LeaseTable,
    edges: Mutex<HashMap<InterfaceId, HashSet<InterfaceId>>>,
    pins: Mutex<HashSet<InterfaceId>>,
}

impl RefRegistry {
    /// Creates a registry with the given lease TTL.
    #[must_use]
    pub fn new(ttl: Duration) -> Arc<Self> {
        Arc::new(Self {
            leases: LeaseTable::new(ttl),
            edges: Mutex::new(HashMap::new()),
            pins: Mutex::new(HashSet::new()),
        })
    }

    /// The lease table.
    #[must_use]
    pub fn leases(&self) -> &LeaseTable {
        &self.leases
    }

    /// Records that object `from` holds a reference to co-located object
    /// `to`.
    pub fn add_edge(&self, from: InterfaceId, to: InterfaceId) {
        self.edges.lock().entry(from).or_default().insert(to);
    }

    /// Records the references held inside `value` as edges out of `from`.
    // odp-lint: allow(l8, reason = "DESIGN §1: the registry's payload scan for local reference edges (paper §7.3)")
    pub fn record_refs_in(&self, from: InterfaceId, value: &Value) {
        let mut refs = Vec::new();
        value.collect_refs(&mut refs);
        let mut edges = self.edges.lock();
        for r in refs {
            edges.entry(from).or_default().insert(r.iface);
        }
    }

    /// Pins an object: it is always a GC root.
    pub fn pin(&self, iface: InterfaceId) {
        self.pins.lock().insert(iface);
    }

    /// Marks from roots (live leases + pins) through local edges; returns
    /// the reachable set.
    #[must_use]
    pub fn live_set(&self) -> HashSet<InterfaceId> {
        let mut live: HashSet<InterfaceId> = self.leases.live_interfaces().into_iter().collect();
        live.extend(self.pins.lock().iter().copied());
        let edges = self.edges.lock();
        let mut stack: Vec<InterfaceId> = live.iter().copied().collect();
        while let Some(node) = stack.pop() {
            if let Some(next) = edges.get(&node) {
                for n in next {
                    if live.insert(*n) {
                        stack.push(*n);
                    }
                }
            }
        }
        live
    }

    /// Drops all bookkeeping for a collected object.
    pub fn forget(&self, iface: InterfaceId) {
        self.edges.lock().remove(&iface);
        for set in self.edges.lock().values_mut() {
            set.remove(&iface);
        }
        self.pins.lock().remove(&iface);
    }
}

impl std::fmt::Debug for RefRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefRegistry")
            .field("leases", &self.leases.len())
            .field("pins", &self.pins.lock().len())
            .finish()
    }
}

/// The signature of the GC service.
#[must_use]
pub fn gc_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            ops::RENEW,
            vec![TypeSpec::seq(TypeSpec::Int)],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .interrogation(
            ops::RELEASE,
            vec![TypeSpec::seq(TypeSpec::Int)],
            vec![OutcomeSig::ok(vec![])],
        )
        .build()
}

/// The GC service servant: remote holders renew and release through it.
pub struct GcServant {
    registry: Arc<RefRegistry>,
}

impl GcServant {
    /// Wraps a registry.
    #[must_use]
    pub fn new(registry: Arc<RefRegistry>) -> Self {
        Self { registry }
    }
}

impl Servant for GcServant {
    fn interface_type(&self) -> InterfaceType {
        gc_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        let ifaces: Vec<InterfaceId> = args
            .first()
            .and_then(Value::as_seq)
            .map(|seq| {
                seq.iter()
                    .filter_map(Value::as_int)
                    .map(|i| InterfaceId(i as u64))
                    .collect()
            })
            .unwrap_or_default();
        match op {
            ops::RENEW => {
                for iface in ifaces {
                    self.registry.leases.renew(iface, ctx.caller);
                }
                Outcome::ok(vec![Value::Int(
                    self.registry.leases.ttl().as_millis() as i64
                )])
            }
            ops::RELEASE => {
                for iface in ifaces {
                    self.registry.leases.release(iface, ctx.caller);
                }
                Outcome::ok(vec![])
            }
            _ => Outcome::fail("unknown operation"),
        }
    }
}

impl std::fmt::Debug for GcServant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcServant").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_types::NodeId;

    #[test]
    fn live_set_follows_edges_from_lease_roots() {
        let reg = RefRegistry::new(Duration::from_secs(60));
        reg.leases().renew(InterfaceId(1), NodeId(9));
        reg.add_edge(InterfaceId(1), InterfaceId(2));
        reg.add_edge(InterfaceId(2), InterfaceId(3));
        reg.add_edge(InterfaceId(4), InterfaceId(5)); // unreachable island
        let live = reg.live_set();
        assert!(live.contains(&InterfaceId(1)));
        assert!(live.contains(&InterfaceId(2)));
        assert!(live.contains(&InterfaceId(3)));
        assert!(!live.contains(&InterfaceId(4)));
        assert!(!live.contains(&InterfaceId(5)));
    }

    #[test]
    fn cycles_reachable_from_roots_survive_unreachable_die() {
        let reg = RefRegistry::new(Duration::from_secs(60));
        reg.pin(InterfaceId(1));
        reg.add_edge(InterfaceId(1), InterfaceId(2));
        reg.add_edge(InterfaceId(2), InterfaceId(1)); // live cycle
        reg.add_edge(InterfaceId(7), InterfaceId(8));
        reg.add_edge(InterfaceId(8), InterfaceId(7)); // dead cycle
        let live = reg.live_set();
        assert!(live.contains(&InterfaceId(2)));
        assert!(!live.contains(&InterfaceId(7)));
    }

    #[test]
    fn record_refs_in_scans_payloads() {
        use odp_types::InterfaceType;
        use odp_wire::InterfaceRef;
        let reg = RefRegistry::new(Duration::from_secs(60));
        let payload = Value::record([(
            "friend",
            Value::Interface(InterfaceRef::new(
                InterfaceId(42),
                NodeId(1),
                InterfaceType::empty(),
            )),
        )]);
        reg.record_refs_in(InterfaceId(1), &payload);
        reg.pin(InterfaceId(1));
        assert!(reg.live_set().contains(&InterfaceId(42)));
    }

    #[test]
    fn forget_erases_bookkeeping() {
        let reg = RefRegistry::new(Duration::from_secs(60));
        reg.pin(InterfaceId(1));
        reg.add_edge(InterfaceId(1), InterfaceId(2));
        reg.add_edge(InterfaceId(2), InterfaceId(3));
        reg.forget(InterfaceId(2));
        let live = reg.live_set();
        assert!(!live.contains(&InterfaceId(3)));
    }
}
