//! The node manager — per-node configuration and management service (§6).
//!
//! *"This requires the provision of a node manager for each computer in an
//! ODP system which links the computer into the system after a restart,
//! creating any servers on that machine which are required by default …
//! This node manager can be extended to provide a management service,
//! accessible from other computers, for starting and stopping servers on
//! its own node."*
//!
//! The node manager is an ordinary ODP object. Its operations:
//!
//! * `ping() -> ok` — liveness probe (used by failure detectors).
//! * `start(factory_name) -> ok(ref) | unknown_factory` — instantiate a
//!   registered factory and export the servant.
//! * `stop(iface) -> ok | not_here` — close a previously started servant.
//! * `list() -> ok(seq<int>)` — interfaces started by this manager.

use crate::capsule::Capsule;
use crate::object::{CallCtx, Outcome, Servant};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceId, InterfaceType, TypeSpec};
use odp_wire::Value;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};

/// A named servant factory registered with the node manager.
pub type ServantFactory = Box<dyn Fn() -> Arc<dyn Servant> + Send + Sync>;

/// The signature of the node management service.
#[must_use]
pub fn node_manager_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation("ping", vec![], vec![OutcomeSig::ok(vec![])])
        .interrogation(
            "start",
            vec![TypeSpec::Str],
            vec![
                OutcomeSig::ok(vec![TypeSpec::Any]),
                OutcomeSig::new("unknown_factory", vec![TypeSpec::Str]),
            ],
        )
        .interrogation(
            "stop",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![]), OutcomeSig::new("not_here", vec![])],
        )
        .interrogation(
            "list",
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::seq(TypeSpec::Int)])],
        )
        .build()
}

/// Per-node management servant.
pub struct NodeManager {
    capsule: Weak<Capsule>,
    factories: Mutex<HashMap<String, ServantFactory>>,
    started: Mutex<Vec<InterfaceId>>,
}

impl NodeManager {
    /// Creates a manager for `capsule`.
    ///
    /// A `"telemetry"` factory (the [`crate::management::TelemetryServant`]
    /// for this capsule) is pre-registered so every node exposes the
    /// telemetry plane through its management service by default.
    #[must_use]
    pub fn new(capsule: &Arc<Capsule>) -> Self {
        let manager = Self {
            capsule: Arc::downgrade(capsule),
            factories: Mutex::new(HashMap::new()),
            started: Mutex::new(Vec::new()),
        };
        let weak = Arc::downgrade(capsule);
        manager.register_factory(
            "telemetry",
            Box::new(move || {
                Arc::new(crate::management::TelemetryServant::from_weak(weak.clone()))
                    as Arc<dyn Servant>
            }),
        );
        manager
    }

    /// Registers a servant factory under `name`.
    pub fn register_factory<S: Into<String>>(&self, name: S, factory: ServantFactory) {
        self.factories.lock().insert(name.into(), factory);
    }

    /// Interfaces started by this manager.
    #[must_use]
    pub fn started(&self) -> Vec<InterfaceId> {
        self.started.lock().clone()
    }
}

impl Servant for NodeManager {
    fn interface_type(&self) -> InterfaceType {
        node_manager_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        let Some(capsule) = self.capsule.upgrade() else {
            return Outcome::fail("node has shut down");
        };
        match op {
            "ping" => Outcome::ok(vec![]),
            "start" => {
                let Some(name) = args.first().and_then(Value::as_str) else {
                    return Outcome::fail("start requires a factory name");
                };
                let factories = self.factories.lock();
                match factories.get(name) {
                    Some(factory) => {
                        let r = capsule.export(factory());
                        self.started.lock().push(r.iface);
                        Outcome::ok(vec![Value::Interface(r)])
                    }
                    None => Outcome::new("unknown_factory", vec![Value::str(name)]),
                }
            }
            "stop" => {
                let Some(iface) = args.first().and_then(Value::as_int) else {
                    return Outcome::fail("stop requires an interface id");
                };
                let iface = InterfaceId(iface as u64);
                let mut started = self.started.lock();
                match started.iter().position(|i| *i == iface) {
                    Some(pos) => {
                        started.remove(pos);
                        capsule.close(iface);
                        Outcome::ok(vec![])
                    }
                    None => Outcome::new("not_here", vec![]),
                }
            }
            "list" => {
                let ids = self
                    .started
                    .lock()
                    .iter()
                    .map(|i| Value::Int(i.raw() as i64))
                    .collect();
                Outcome::ok(vec![Value::Seq(ids)])
            }
            _ => Outcome::fail("unknown operation"),
        }
    }
}

impl fmt::Debug for NodeManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeManager")
            .field("factories", &self.factories.lock().len())
            .field("started", &self.started.lock().len())
            .finish()
    }
}
