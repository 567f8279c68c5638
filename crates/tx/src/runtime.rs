//! The per-capsule transaction runtime: generated concurrency-control
//! layers, the version store, and the transaction control servant.
//!
//! §5.2's pipeline, realized:
//!
//! declarative [`SeparationConstraint`] → [`TxnRuntime::concurrency_layer`]
//! → a [`ServerLayer`] installed in the export's dispatch path → lock
//! acquisition + state versioning on every transactional dispatch →
//! prepare/commit/abort driven remotely through the [`control servant`]
//! (`control_interface_type`).

use crate::locks::{LockError, LockManager, LockMode};
use odp_core::{CallCtx, Capsule, Code, Outcome, Servant, ServerLayer, ServerNext};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceId, InterfaceType, TxnId, TypeSpec};
use odp_wire::{InterfaceRef, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What one operation does to its object: the lock mode and the key it
/// touches. Produced by a [`SeparationConstraint`] classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Shared for pure observers, exclusive for mutators.
    pub mode: LockMode,
    /// Lock key within the interface (use `""` for whole-object locking;
    /// argument-derived keys give finer separation, e.g. one key per
    /// account number).
    pub key: String,
}

impl Access {
    /// Whole-object read access.
    #[must_use]
    pub fn read() -> Self {
        Self {
            mode: LockMode::Shared,
            key: String::new(),
        }
    }

    /// Whole-object write access.
    #[must_use]
    pub fn write() -> Self {
        Self {
            mode: LockMode::Exclusive,
            key: String::new(),
        }
    }
}

/// Classifier mapping `(operation, args)` to the [`Access`] it needs.
type ClassifyFn = Arc<dyn Fn(&str, &[Value]) -> Access + Send + Sync>;

/// Predicate over the sequence of operations one transaction performed on
/// an interface; `false` at prepare time vetoes the commit.
type OrderingPredicate = Arc<dyn Fn(&[String]) -> bool + Send + Sync>;

/// The declarative separation constraint of §5.2: "indicating which
/// operation and argument combinations potentially interfere", plus an
/// optional ordering predicate over the sequence of operations one
/// transaction performs on the interface ("the predicate describes the
/// permitted sequences of invocations within a transaction").
#[derive(Clone)]
pub struct SeparationConstraint {
    /// Classifies `(operation, args)` into an [`Access`].
    pub classify: ClassifyFn,
    /// Validated at prepare time against the transaction's operation
    /// sequence on this interface; `false` vetoes the commit.
    pub ordering: Option<OrderingPredicate>,
}

impl SeparationConstraint {
    /// Conservative default: every operation takes the whole-object
    /// exclusive lock.
    #[must_use]
    pub fn exclusive_all() -> Self {
        Self {
            classify: Arc::new(|_op, _args| Access::write()),
            ordering: None,
        }
    }

    /// Classifies by listing the read-only operations; everything else is
    /// a whole-object write.
    #[must_use]
    pub fn readers(read_ops: &[&str]) -> Self {
        let read_ops: Vec<String> = read_ops.iter().map(|s| (*s).to_owned()).collect();
        Self {
            classify: Arc::new(move |op, _args| {
                if read_ops.iter().any(|r| r == op) {
                    Access::read()
                } else {
                    Access::write()
                }
            }),
            ordering: None,
        }
    }

    /// Adds an ordering predicate.
    #[must_use]
    pub fn with_ordering(mut self, pred: OrderingPredicate) -> Self {
        self.ordering = Some(pred);
        self
    }
}

impl fmt::Debug for SeparationConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeparationConstraint")
            .field("ordering", &self.ordering.is_some())
            .finish()
    }
}

/// Per-transaction state on one capsule.
#[derive(Default)]
struct TxnResources {
    /// Undo snapshots: `(servant, pre-state)`, restored in reverse on
    /// abort. One per interface the transaction wrote.
    undo: Vec<(Arc<dyn Servant>, Vec<u8>)>,
    /// Interfaces already snapshotted (avoid double-snapshot).
    snapshotted: Vec<InterfaceId>,
    /// Operation log per interface, for ordering predicates.
    oplog: HashMap<InterfaceId, Vec<String>>,
    /// Ordering predicates to check at prepare.
    ordering: HashMap<InterfaceId, OrderingPredicate>,
    prepared: bool,
}

/// The per-capsule transaction runtime. All concurrency-control layers on
/// a capsule share one runtime (and thus one lock space).
pub struct TxnRuntime {
    locks: LockManager,
    resources: Mutex<HashMap<TxnId, TxnResources>>,
    auto_ids: AtomicU64,
    /// Transactions aborted by deadlock/timeout here (experiments).
    pub conflicts: AtomicU64,
}

impl TxnRuntime {
    /// Creates a runtime with the given lock wait bound.
    #[must_use]
    pub fn new(lock_wait: Duration) -> Arc<Self> {
        Arc::new(Self {
            locks: LockManager::new(lock_wait),
            resources: Mutex::new(HashMap::new()),
            // Auto-commit ids come from the top of the space to avoid
            // colliding with coordinator-issued ids.
            auto_ids: AtomicU64::new(u64::MAX / 2),
            conflicts: AtomicU64::new(0),
        })
    }

    /// The lock manager (diagnostics, tests).
    #[must_use]
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Generates the concurrency-control layer for `servant` from a
    /// declarative constraint (§5.2). Install the returned layer in the
    /// servant's [`odp_core::ExportConfig::layers`].
    #[must_use]
    pub fn concurrency_layer(
        self: &Arc<Self>,
        servant: &Arc<dyn Servant>,
        constraint: SeparationConstraint,
    ) -> Arc<dyn ServerLayer> {
        Arc::new(ConcurrencyControl {
            runtime: Arc::clone(self),
            servant: Arc::clone(servant),
            constraint,
        })
    }

    /// Prepare phase: validate ordering predicates. Returns the vote.
    #[must_use]
    fn prepare(&self, txn: TxnId) -> bool {
        let mut resources = self.resources.lock();
        let Some(res) = resources.get_mut(&txn) else {
            // Nothing done here: trivially prepared.
            return true;
        };
        for (iface, pred) in &res.ordering {
            let log = res.oplog.get(iface).cloned().unwrap_or_default();
            if !pred(&log) {
                return false;
            }
        }
        res.prepared = true;
        true
    }

    /// Commit: discard undo state and release locks.
    pub fn commit(&self, txn: TxnId) {
        self.resources.lock().remove(&txn);
        self.locks.release_all(txn);
    }

    /// Abort: restore undo snapshots in reverse order, release locks.
    pub fn abort(&self, txn: TxnId) {
        let res = self.resources.lock().remove(&txn);
        if let Some(res) = res {
            for (servant, snapshot) in res.undo.into_iter().rev() {
                let _ = servant.restore(&snapshot);
            }
        }
        self.locks.release_all(txn);
    }
}

impl fmt::Debug for TxnRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnRuntime")
            .field("active", &self.resources.lock().len())
            .finish()
    }
}

/// The generated concurrency-control manager (a server layer).
struct ConcurrencyControl {
    runtime: Arc<TxnRuntime>,
    servant: Arc<dyn Servant>,
    constraint: SeparationConstraint,
}

impl ConcurrencyControl {
    fn locked_dispatch(
        &self,
        txn: TxnId,
        ctx: &CallCtx,
        op: &str,
        args: Vec<Value>,
        next: &dyn ServerNext,
    ) -> Result<Outcome, LockError> {
        let access = (self.constraint.classify)(op, &args);
        let lock_key = format!("{}/{}", ctx.iface.raw(), access.key);
        self.runtime.locks.acquire(txn, &lock_key, access.mode)?;
        {
            let mut resources = self.runtime.resources.lock();
            let res = resources.entry(txn).or_default();
            if access.mode == LockMode::Exclusive && !res.snapshotted.contains(&ctx.iface) {
                if let Some(snapshot) = self.servant.snapshot() {
                    res.undo.push((Arc::clone(&self.servant), snapshot));
                }
                res.snapshotted.push(ctx.iface);
            }
            res.oplog.entry(ctx.iface).or_default().push(op.to_owned());
            if let Some(pred) = &self.constraint.ordering {
                res.ordering
                    .entry(ctx.iface)
                    .or_insert_with(|| Arc::clone(pred));
            }
        }
        Ok(next.dispatch(ctx, op, args))
    }
}

impl ServerLayer for ConcurrencyControl {
    fn dispatch(
        &self,
        ctx: &CallCtx,
        op: &str,
        args: Vec<Value>,
        next: &dyn ServerNext,
    ) -> Outcome {
        match ctx.txn() {
            Some(txn) => match self.locked_dispatch(txn, ctx, op, args, next) {
                Ok(outcome) => outcome,
                Err(e) => {
                    // The lock wait failed: the transaction must abort. Undo
                    // any local effects now so the coordinator's abort is a
                    // no-op here.
                    self.runtime.conflicts.fetch_add(1, Ordering::Relaxed);
                    self.runtime.abort(txn);
                    Outcome::engineering(Code::Aborted, vec![Value::str(e.to_string())])
                }
            },
            None => {
                // Non-transactional invocation: auto-commit transaction so
                // it still serializes against real transactions.
                let txn = TxnId(self.runtime.auto_ids.fetch_add(1, Ordering::Relaxed));
                match self.locked_dispatch(txn, ctx, op, args, next) {
                    Ok(outcome) => {
                        self.runtime.commit(txn);
                        outcome
                    }
                    Err(e) => {
                        self.runtime.conflicts.fetch_add(1, Ordering::Relaxed);
                        self.runtime.abort(txn);
                        Outcome::engineering(Code::Aborted, vec![Value::str(e.to_string())])
                    }
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "concurrency:2pl"
    }
}

/// Operation names of the transaction control interface.
pub mod control_ops {
    /// `prepare(txn) -> ok(vote)`.
    pub const PREPARE: &str = "__txn_prepare";
    /// `commit(txn) -> ok`.
    pub const COMMIT: &str = "__txn_commit";
    /// `abort(txn) -> ok`.
    pub const ABORT: &str = "__txn_abort";
}

/// Signature of the per-capsule transaction control interface.
#[must_use]
pub fn control_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            control_ops::PREPARE,
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::Bool])],
        )
        .interrogation(
            control_ops::COMMIT,
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![])],
        )
        .interrogation(
            control_ops::ABORT,
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![])],
        )
        .build()
}

/// The control servant: lets a remote coordinator drive this capsule's
/// prepare/commit/abort (the participant side of two-phase commit).
struct TxnControl {
    runtime: Arc<TxnRuntime>,
}

impl TxnControl {
    /// Wraps a runtime.
    #[must_use]
    pub fn new(runtime: Arc<TxnRuntime>) -> Self {
        Self { runtime }
    }
}

impl Servant for TxnControl {
    fn interface_type(&self) -> InterfaceType {
        control_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        let Some(txn) = args.first().and_then(Value::as_int) else {
            return Outcome::fail("control operations require a txn id");
        };
        let txn = TxnId(txn as u64);
        match op {
            control_ops::PREPARE => Outcome::ok(vec![Value::Bool(self.runtime.prepare(txn))]),
            control_ops::COMMIT => {
                self.runtime.commit(txn);
                Outcome::ok(vec![])
            }
            control_ops::ABORT => {
                self.runtime.abort(txn);
                Outcome::ok(vec![])
            }
            _ => Outcome::fail("unknown operation"),
        }
    }
}

impl fmt::Debug for TxnControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnControl").finish()
    }
}

/// Installs a transaction runtime on a capsule: exports the control
/// servant and returns `(runtime, control reference)`.
#[must_use]
pub fn install(capsule: &Arc<Capsule>, lock_wait: Duration) -> (Arc<TxnRuntime>, InterfaceRef) {
    let runtime = TxnRuntime::new(lock_wait);
    let control = capsule.export(Arc::new(TxnControl::new(Arc::clone(&runtime))));
    (runtime, control)
}
