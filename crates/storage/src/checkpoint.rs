//! The logging/checkpointing server layer.
//!
//! Another "generated" transparency mechanism in the §4.5 sense: installed
//! declaratively at export time, invisible to both client and servant. The
//! layer:
//!
//! 1. appends every *mutating* operation to the write-ahead log before
//!    dispatch;
//! 2. on every `CheckpointPolicy::every_n_ops`-th mutation, snapshots the
//!    servant into the stable repository and truncates the log.
//!
//! Mutating dispatches share a lock that a checkpoint takes exclusively, so
//! a checkpoint never truncates a record that has been appended but not yet
//! applied (its effect would be in neither the snapshot nor the log). The
//! writer whose mutation count is a multiple of the interval takes the
//! checkpoint, so exactly one writer takes each one.
//!
//! The checkpoint interval is the recovery-time/runtime-overhead dial that
//! experiment E9 sweeps.

use crate::repository::StableRepository;
use crate::wal::WriteAheadLog;
use odp_core::{CallCtx, Outcome, Servant, ServerLayer, ServerNext};
use odp_wire::Value;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot on every this-many-th logged (mutating) operation.
    pub every_n_ops: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self { every_n_ops: 64 }
    }
}

/// The write-ahead logging + checkpointing layer.
pub struct LoggingLayer {
    servant: Arc<dyn Servant>,
    wal: Arc<WriteAheadLog>,
    repository: Arc<StableRepository>,
    policy: CheckpointPolicy,
    is_mutating: Arc<dyn Fn(&str) -> bool + Send + Sync>,
    /// Mutations dispatched so far.
    mutations: AtomicU64,
    /// Held shared from a mutation's append through its apply, and
    /// exclusively by a checkpoint's snapshot + truncate. Not reentrant: a
    /// mutating operation must not dispatch into its own logged export.
    apply: RwLock<()>,
    /// Checkpoints taken (experiment accounting).
    pub checkpoints: AtomicU64,
}

impl LoggingLayer {
    /// Creates a layer for `servant`, logging operations classified
    /// mutating by `is_mutating`.
    #[must_use]
    pub fn new(
        servant: &Arc<dyn Servant>,
        wal: Arc<WriteAheadLog>,
        repository: Arc<StableRepository>,
        policy: CheckpointPolicy,
        is_mutating: Arc<dyn Fn(&str) -> bool + Send + Sync>,
    ) -> Arc<Self> {
        Arc::new(Self {
            servant: Arc::clone(servant),
            wal,
            repository,
            policy,
            is_mutating,
            mutations: AtomicU64::new(0),
            apply: RwLock::new(()),
            checkpoints: AtomicU64::new(0),
        })
    }

    /// Forces a checkpoint now (also used at graceful shutdown). It waits
    /// for mutations in flight to apply, and leaves the cadence unchanged.
    pub fn checkpoint(&self, iface: odp_types::InterfaceId) {
        let _exclusive = self.apply.write();
        if let Some(snapshot) = self.servant.snapshot() {
            let upto = self.wal.last_lsn();
            self.repository.store(iface, snapshot, 0);
            self.wal.truncate(upto);
            self.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl ServerLayer for LoggingLayer {
    fn dispatch(
        &self,
        ctx: &CallCtx,
        op: &str,
        args: Vec<Value>,
        next: &dyn ServerNext,
    ) -> Outcome {
        if !(self.is_mutating)(op) {
            return next.dispatch(ctx, op, args);
        }
        let outcome = {
            let _shared = self.apply.read();
            // Write-ahead: log before dispatch.
            self.wal.append(ctx.iface, op, &args);
            next.dispatch(ctx, op, args)
        };
        let n = self.mutations.fetch_add(1, Ordering::SeqCst) + 1;
        if n.is_multiple_of(self.policy.every_n_ops.max(1)) {
            self.checkpoint(ctx.iface);
        }
        outcome
    }

    fn name(&self) -> &'static str {
        "failure:wal"
    }
}

impl std::fmt::Debug for LoggingLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoggingLayer")
            .field("policy", &self.policy)
            .field("checkpoints", &self.checkpoints.load(Ordering::Relaxed))
            .finish()
    }
}
