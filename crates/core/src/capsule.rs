//! The capsule: one node's engineering runtime (nucleus + binder +
//! dispatcher).
//!
//! In RM-ODP engineering terms a capsule is a unit of encapsulation in a
//! node: it owns a protocol endpoint, a table of exported interfaces (the
//! *binder*: "a binder must be provided in the engineering infrastructure to
//! manage the relationship between local procedures and data and external
//! references to them", §5.1) and the dispatcher that accepts "incoming
//! requests from the network to the application procedures that process
//! them".
//!
//! The capsule also implements the engineering halves of several
//! transparencies:
//!
//! * **co-located dispatch** — the §4.5 optimization: a binding whose target
//!   lives in the same capsule skips marshalling and the network entirely;
//! * **migration** (§5.5) — [`Capsule::migrate_to`] moves an exported
//!   object to another capsule, bumps the reference epoch, leaves a
//!   forwarding tombstone, and registers the change with the relocator;
//! * **explicit close** (§7.3) and **tombstones** for moved or closed
//!   interfaces, so stale callers get precise engineering terminations
//!   rather than silence;
//! * **synchronization disciplines** (§4.5: "impose a synchronization
//!   discipline over the dispatching of the operations in an interface") —
//!   exported interfaces can be dispatched fully concurrently or serialized.

use crate::invocation::{
    self, AccessLayer, CallRequest, ClientBinding, InvokeError, Join, ServerLayer, ServerNext, Site,
};
use crate::object::{self, CallCtx, Code, Outcome, Servant};
use crate::transparency::TransparencyPolicy;
use odp_net::{NetError, RexEndpoint, RexRequest, Transport};
use odp_types::{ids::InterfaceIdAllocator, InterfaceId, InterfaceType, NodeId};
use odp_wire::{InterfaceRef, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How invocations on one exported interface may overlap (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncDiscipline {
    /// Operations run fully concurrently; the servant synchronizes itself.
    #[default]
    Concurrent,
    /// At most one operation runs at a time (the runtime serializes).
    Serialized,
}

/// Declarative per-export configuration.
#[derive(Default, Clone)]
pub struct ExportConfig {
    /// Server-side interception chain (guards, concurrency managers…),
    /// outermost first.
    pub layers: Vec<Arc<dyn ServerLayer>>,
    /// Dispatch discipline.
    pub discipline: SyncDiscipline,
}

impl fmt::Debug for ExportConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExportConfig")
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .field("discipline", &self.discipline)
            .finish()
    }
}

enum ExportEntry {
    Active {
        servant: Arc<dyn Servant>,
        ty: InterfaceType,
        /// Shared so a dispatch clones one pointer, not the layer chain.
        config: Arc<ExportConfig>,
        serial: Arc<Mutex<()>>,
        epoch: u64,
    },
    /// Forwarding tombstone left behind by migration.
    Moved { to: NodeId, epoch: u64 },
    /// Explicitly closed (§7.3).
    Closed,
}

/// Counters for experiments.
#[derive(Debug, Default)]
// odp-lint: allow(l8, reason = "the type of the public field `Capsule::stats`")
pub struct CapsuleStats {
    /// Invocations served by the dispatcher (local + remote).
    pub served: AtomicU64,
    /// Invocations that took the co-located fast path.
    pub local_fast_path: AtomicU64,
}

/// One node's runtime.
pub struct Capsule {
    node: NodeId,
    rex: Arc<RexEndpoint>,
    alloc: InterfaceIdAllocator,
    exports: RwLock<HashMap<InterfaceId, ExportEntry>>,
    relocator: RwLock<Option<InterfaceRef>>,
    /// Set by [`Capsule::crash`]; a crashed capsule never serves again —
    /// recovery means a *new* capsule on the same node id (see
    /// `odp-storage` and the `odp-chaos` supervisor).
    crashed: AtomicBool,
    /// Statistics.
    pub stats: CapsuleStats,
    /// Telemetry site for the `"dispatch"` layer on this node, resolved
    /// once at capsule creation.
    dispatch_site: Site,
}

impl Capsule {
    /// Creates a capsule registered as `node` on `transport`, with four
    /// dispatcher threads.
    ///
    /// # Errors
    ///
    /// Any [`NetError`] from transport registration.
    pub fn new(transport: Arc<dyn Transport>, node: NodeId) -> Result<Arc<Self>, NetError> {
        Self::with_workers(transport, node, 4)
    }

    /// Creates a capsule with an explicit dispatcher thread count.
    ///
    /// # Errors
    ///
    /// Any [`NetError`] from transport registration.
    pub fn with_workers(
        transport: Arc<dyn Transport>,
        node: NodeId,
        workers: usize,
    ) -> Result<Arc<Self>, NetError> {
        let rex = RexEndpoint::new(transport, node, workers)?;
        let capsule = Arc::new(Self {
            node,
            rex,
            alloc: InterfaceIdAllocator::new(node),
            exports: RwLock::new(HashMap::new()),
            relocator: RwLock::new(None),
            crashed: AtomicBool::new(false),
            stats: CapsuleStats::default(),
            dispatch_site: Site::new(node.raw(), "dispatch"),
        });
        let weak = Arc::downgrade(&capsule);
        capsule
            .rex
            .set_handler(Arc::new(move |req: RexRequest| match weak.upgrade() {
                Some(capsule) => capsule.handle_rex(&req),
                None => odp_wire::PooledBuf::default(),
            }));
        Ok(capsule)
    }

    /// This capsule's node identity.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The REX endpoint (used by protocol crates such as `odp-groups`).
    #[must_use]
    pub fn rex(&self) -> &Arc<RexEndpoint> {
        &self.rex
    }

    /// Exports a servant with default configuration and returns its
    /// reference.
    pub fn export(self: &Arc<Self>, servant: Arc<dyn Servant>) -> InterfaceRef {
        self.export_with(servant, ExportConfig::default())
    }

    /// Exports a servant with explicit configuration.
    pub fn export_with(
        self: &Arc<Self>,
        servant: Arc<dyn Servant>,
        config: ExportConfig,
    ) -> InterfaceRef {
        let iface = self.alloc.allocate();
        self.install(iface, 0, servant, config)
    }

    /// (Re-)exports a servant under an existing identity at a given epoch —
    /// the arrival half of migration and activation.
    pub fn export_at(
        self: &Arc<Self>,
        iface: InterfaceId,
        epoch: u64,
        servant: Arc<dyn Servant>,
        config: ExportConfig,
    ) -> InterfaceRef {
        self.install(iface, epoch, servant, config)
    }

    fn install(
        self: &Arc<Self>,
        iface: InterfaceId,
        epoch: u64,
        servant: Arc<dyn Servant>,
        config: ExportConfig,
    ) -> InterfaceRef {
        let ty = servant.interface_type();
        self.exports.write().insert(
            iface,
            ExportEntry::Active {
                servant,
                ty: ty.clone(),
                config: Arc::new(config),
                serial: Arc::new(Mutex::new(())),
                epoch,
            },
        );
        let mut r = InterfaceRef::new(iface, self.node, ty);
        r.epoch = epoch;
        if let Some(reloc) = self.relocator.read().clone() {
            r.relocator = Some(reloc.home);
            // Registration is fire-and-forget: §5.4 wants only *changes*
            // registered, and a fresh export at epoch 0 is found via the
            // reference itself. Epoch > 0 means a move: register it.
            if epoch > 0 {
                // odp-lint: allow(l6, reason = "relocator is optional; an unregistered location falls back to reference-carried addressing")
                let _ = self.register_location(iface, self.node, epoch);
            }
        }
        r
    }

    /// Registers a location with the configured relocator (interrogation,
    /// so callers can rely on it being visible).
    ///
    /// # Errors
    ///
    /// Any [`InvokeError`] from the relocator call.
    pub fn register_location(
        self: &Arc<Self>,
        iface: InterfaceId,
        node: NodeId,
        epoch: u64,
    ) -> Result<(), InvokeError> {
        let Some(reloc) = self.relocator.read().clone() else {
            return Ok(());
        };
        let binding = self.bind_with(reloc, TransparencyPolicy::minimal());
        binding
            .interrogate(
                crate::relocator::RELOCATOR_OP_REGISTER,
                vec![
                    Value::Int(iface.raw() as i64),
                    Value::Int(node.raw() as i64),
                    Value::Int(epoch as i64),
                ],
            )
            .map(|_| ())
    }

    /// Explicitly closes an interface (§7.3). Subsequent invocations get a
    /// [`Code::Closed`] termination. Returns the servant if it was
    /// active.
    pub fn close(&self, iface: InterfaceId) -> Option<Arc<dyn Servant>> {
        let mut exports = self.exports.write();
        match exports.insert(iface, ExportEntry::Closed) {
            Some(ExportEntry::Active { servant, .. }) => Some(servant),
            _ => None,
        }
    }

    /// Removes an export entirely (garbage collection). Unlike
    /// [`Capsule::close`] no tombstone remains.
    pub fn unexport(&self, iface: InterfaceId) -> Option<Arc<dyn Servant>> {
        match self.exports.write().remove(&iface) {
            Some(ExportEntry::Active { servant, .. }) => Some(servant),
            _ => None,
        }
    }

    /// True if the interface is actively exported here.
    #[must_use]
    pub fn has_export(&self, iface: InterfaceId) -> bool {
        matches!(
            self.exports.read().get(&iface),
            Some(ExportEntry::Active { .. })
        )
    }

    /// Identifiers of all actively exported interfaces.
    #[must_use]
    pub fn exported_interfaces(&self) -> Vec<InterfaceId> {
        self.exports
            .read()
            .iter()
            .filter_map(|(id, e)| matches!(e, ExportEntry::Active { .. }).then_some(*id))
            .collect()
    }

    /// The servant behind an active export (platform crates use this for
    /// snapshots and GC).
    #[must_use]
    pub fn servant_of(&self, iface: InterfaceId) -> Option<Arc<dyn Servant>> {
        match self.exports.read().get(&iface) {
            Some(ExportEntry::Active { servant, .. }) => Some(Arc::clone(servant)),
            _ => None,
        }
    }

    /// Migrates an exported object to `target`: removes it here, leaves a
    /// forwarding tombstone, re-exports it there under the same identity
    /// with a bumped epoch, and registers the move with the relocator
    /// (§5.5). Returns the new reference.
    ///
    /// # Errors
    ///
    /// A description if the interface is not actively exported here.
    pub fn migrate_to(
        self: &Arc<Self>,
        iface: InterfaceId,
        target: &Arc<Capsule>,
    ) -> Result<InterfaceRef, String> {
        let (servant, config, epoch) = {
            let mut exports = self.exports.write();
            match exports.remove(&iface) {
                Some(ExportEntry::Active {
                    servant,
                    config,
                    epoch,
                    ..
                }) => {
                    exports.insert(
                        iface,
                        ExportEntry::Moved {
                            to: target.node,
                            epoch: epoch + 1,
                        },
                    );
                    (servant, config, epoch)
                }
                Some(other) => {
                    exports.insert(iface, other);
                    return Err(format!("{iface} is not active here"));
                }
                None => return Err(format!("{iface} is not exported here")),
            }
        };
        let new_ref = target.export_at(iface, epoch + 1, servant, Arc::unwrap_or_clone(config));
        // The source also registers, in case the target has no relocator
        // configured.
        // odp-lint: allow(l6, reason = "duplicate registration of the same move; the target's own registration is authoritative")
        let _ = self.register_location(iface, target.node, epoch + 1);
        Ok(new_ref)
    }

    /// Sets the relocation service used for location transparency.
    pub fn set_relocator(&self, reloc: InterfaceRef) {
        *self.relocator.write() = Some(reloc);
    }

    /// The configured relocation service, if any.
    #[must_use]
    pub fn relocator_ref(&self) -> Option<InterfaceRef> {
        self.relocator.read().clone()
    }

    /// Binds to a reference with the default transparency policy.
    #[must_use]
    pub fn bind(self: &Arc<Self>, target: InterfaceRef) -> ClientBinding {
        self.bind_with(target, TransparencyPolicy::default())
    }

    /// Binds with an explicit policy — transparency is *selective* (§3).
    #[must_use]
    pub fn bind_with(
        self: &Arc<Self>,
        target: InterfaceRef,
        policy: TransparencyPolicy,
    ) -> ClientBinding {
        let cell = Arc::new(RwLock::new(target));
        let access = AccessLayer::new(self, policy.force_remote);
        let layers = policy.build_layers(self, &cell);
        ClientBinding::assemble(cell, layers, access, policy.qos)
    }

    /// Binds after checking the reference's signature against the client's
    /// required signature (early type checking, §4.3).
    ///
    /// # Errors
    ///
    /// [`InvokeError::NotConformant`] if the signatures do not conform.
    pub fn bind_typed(
        self: &Arc<Self>,
        target: InterfaceRef,
        required: &InterfaceType,
        policy: TransparencyPolicy,
    ) -> Result<ClientBinding, InvokeError> {
        crate::invocation::check_bind(&target.ty, required)?;
        Ok(self.bind_with(target, policy))
    }

    /// Simulates a crash-stop failure of this node: the endpoint
    /// deregisters and all dispatch ceases. Exports remain in memory so a
    /// later recovery (see `odp-storage`) can be
    /// exercised, but no caller can reach them.
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::SeqCst);
        self.rex.shutdown();
    }

    /// True once [`Capsule::crash`] has been called. A crashed capsule is a
    /// corpse: supervisors replace it with a fresh capsule on the same node
    /// id and re-export recovered servants there.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The epoch of an active export, if any.
    #[must_use]
    pub fn epoch_of(&self, iface: InterfaceId) -> Option<u64> {
        match self.exports.read().get(&iface) {
            Some(ExportEntry::Active { epoch, .. }) => Some(*epoch),
            _ => None,
        }
    }

    pub(crate) fn count_local_fast_path(&self) {
        self.stats.local_fast_path.fetch_add(1, Ordering::Relaxed);
    }

    /// Dispatches a request that arrived locally, consuming it (co-located
    /// fast path: annotations and args move straight into the servant with
    /// no clones and no wire round-trip).
    pub(crate) fn dispatch_entry_owned(&self, req: CallRequest, announcement: bool) -> Outcome {
        let mut ctx = CallCtx {
            caller: self.node,
            iface: req.target.iface,
            announcement,
            annotations: req.annotations,
            trace: req.trace,
            priority: req.qos.priority,
            deadline: Some(req.deadline),
        };
        self.dispatch_entry(&mut ctx, &req.op, req.args)
    }

    fn handle_rex(&self, req: &RexRequest) -> odp_wire::PooledBuf {
        // Zero-copy inbound: string/blob args are slices of the arrival
        // frame. Servants that retain them call `Value::into_owned`.
        let (annotations, args) = match object::decode_request_frame(&req.body) {
            Ok(parts) => parts,
            Err(why) => {
                return object::encode_outcome_pooled(&Outcome::engineering(
                    Code::TypeError,
                    vec![Value::str(format!("bad request payload: {why}"))],
                ))
            }
        };
        let mut ctx = CallCtx {
            caller: req.from,
            iface: req.iface,
            announcement: req.announcement,
            annotations,
            trace: req.trace,
            priority: req.priority,
            deadline: req.deadline,
        };
        let outcome = self.dispatch_entry(&mut ctx, &req.op, args);
        object::encode_outcome_pooled(&outcome)
    }

    /// Dispatches inside this node's `"dispatch"` scope, so nested
    /// invocations made by the servant or server layers join the trace.
    fn dispatch_entry(&self, ctx: &mut CallCtx, op: &str, args: Vec<Value>) -> Outcome {
        self.dispatch_site
            .scope(Join::Dispatch, (ctx, op, args), |(ctx, op, args)| {
                self.dispatch_inner(ctx, op, args)
            })
    }

    fn dispatch_inner(&self, ctx: &mut CallCtx, op: &str, args: Vec<Value>) -> Outcome {
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        let (servant, config, serial) = {
            let exports = self.exports.read();
            let iface = Value::Int(ctx.iface.raw() as i64);
            match exports.get(&ctx.iface) {
                None => return Outcome::engineering(Code::NoSuchInterface, vec![iface]),
                Some(ExportEntry::Closed) => {
                    return Outcome::engineering(Code::Closed, vec![iface])
                }
                Some(ExportEntry::Moved { to, epoch }) => {
                    let hint = vec![Value::Int(to.raw() as i64), Value::Int(*epoch as i64)];
                    return Outcome::engineering(Code::Moved, hint);
                }
                Some(ExportEntry::Active {
                    servant,
                    ty,
                    config,
                    serial,
                    ..
                }) => {
                    // Signature checks at the dispatcher, on every call: the
                    // caller checked against its own reference, which may
                    // not match the export (a stale or forged signature).
                    if let Err(e) = invocation::check_call(ty, op, ctx.announcement, &args) {
                        let (code, why) = match e {
                            InvokeError::NoSuchOperation(op) => (Code::NoSuchOperation, op),
                            e => (Code::TypeError, e.to_string()),
                        };
                        return Outcome::engineering(code, vec![Value::str(why)]);
                    }
                    (Arc::clone(servant), Arc::clone(config), Arc::clone(serial))
                }
            }
        };
        let run = || {
            struct Chain<'a> {
                layers: &'a [Arc<dyn ServerLayer>],
                servant: &'a dyn Servant,
            }
            impl ServerNext for Chain<'_> {
                fn dispatch(&self, ctx: &CallCtx, op: &str, args: Vec<Value>) -> Outcome {
                    match self.layers.split_first() {
                        Some((layer, rest)) => layer.dispatch(
                            ctx,
                            op,
                            args,
                            &Chain {
                                layers: rest,
                                servant: self.servant,
                            },
                        ),
                        None => self.servant.dispatch(op, args, ctx),
                    }
                }
            }
            Chain {
                layers: &config.layers,
                servant: servant.as_ref(),
            }
            .dispatch(ctx, op, args)
        };
        match config.discipline {
            SyncDiscipline::Concurrent => run(),
            SyncDiscipline::Serialized => {
                let _guard = serial.lock();
                run()
            }
        }
    }
}

impl Drop for Capsule {
    fn drop(&mut self) {
        // The REX endpoint's protocol threads each hold a strong handle to
        // the endpoint, so it cannot tear itself down by reference
        // counting: the capsule owns its nucleus and must stop it
        // explicitly, or every dropped capsule leaks its dispatcher
        // threads.
        self.rex.shutdown();
    }
}

impl fmt::Debug for Capsule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Capsule")
            .field("node", &self.node)
            .field("exports", &self.exports.read().len())
            .finish()
    }
}
