//! The transaction coordinator: begin / invoke-under / two-phase commit.
//!
//! Atomicity (§5.2): "ensuring that the effect of transactions is
//! all-or-nothing; this can be achieved by adding 'succeed' or 'fail'
//! attributes on terminations to select the desired effect of an operation
//! and retaining of versions of object state until the overall fate of a
//! transaction is decided." The coordinator decides that fate with a
//! classic presumed-abort two-phase commit over the participants'
//! transaction-control interfaces.

use crate::runtime::{control_ops, install};
use odp_core::{Capsule, ClientBinding, InvokeError, Outcome, TransparencyPolicy};
use odp_types::{NodeId, TxnId};
use odp_wire::{InterfaceRef, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors from transaction control.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnError {
    /// A participant voted no at prepare (e.g. an ordering predicate
    /// failed); the transaction was aborted.
    VoteNo(NodeId),
    /// A participant could not be reached during prepare; aborted.
    ParticipantUnreachable(NodeId, String),
    /// An invocation under the transaction was aborted by concurrency
    /// control (deadlock or lock timeout).
    Aborted(String),
    /// The transaction handle was already committed or aborted.
    Finished,
    /// An invocation failed at the engineering level.
    Invoke(InvokeError),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::VoteNo(n) => write!(f, "participant {n} voted no"),
            TxnError::ParticipantUnreachable(n, why) => {
                write!(f, "participant {n} unreachable: {why}")
            }
            TxnError::Aborted(why) => write!(f, "aborted by concurrency control: {why}"),
            TxnError::Finished => write!(f, "transaction already finished"),
            TxnError::Invoke(e) => write!(f, "invocation failed: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// System-wide transaction facilities: issues transaction identifiers and
/// knows every capsule's control interface.
///
/// Installing the runtime on each participating capsule is engineering
/// configuration — the application only ever sees [`Txn`] handles.
pub struct TxnSystem {
    next_id: AtomicU64,
    controls: RwLock<HashMap<NodeId, InterfaceRef>>,
    runtimes: RwLock<HashMap<NodeId, Arc<crate::TxnRuntime>>>,
}

impl TxnSystem {
    /// Creates a transaction system.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            next_id: AtomicU64::new(1),
            controls: RwLock::new(HashMap::new()),
            runtimes: RwLock::new(HashMap::new()),
        })
    }

    /// Installs a transaction runtime on `capsule` (idempotent per node)
    /// and returns it for building concurrency layers.
    pub fn install_on(&self, capsule: &Arc<Capsule>) -> Arc<crate::TxnRuntime> {
        self.install_on_with(capsule, Duration::from_secs(2))
    }

    /// As [`TxnSystem::install_on`] with an explicit lock wait bound.
    pub fn install_on_with(
        &self,
        capsule: &Arc<Capsule>,
        lock_wait: Duration,
    ) -> Arc<crate::TxnRuntime> {
        if let Some(existing) = self.runtimes.read().get(&capsule.node()) {
            return Arc::clone(existing);
        }
        let (runtime, control) = install(capsule, lock_wait);
        self.controls.write().insert(capsule.node(), control);
        self.runtimes
            .write()
            .insert(capsule.node(), Arc::clone(&runtime));
        runtime
    }

    /// Begins a transaction coordinated through `coordinator_capsule`.
    #[must_use]
    pub fn begin(self: &Arc<Self>, coordinator_capsule: &Arc<Capsule>) -> Txn {
        Txn {
            id: TxnId(self.next_id.fetch_add(1, Ordering::Relaxed)),
            system: Arc::clone(self),
            capsule: Arc::clone(coordinator_capsule),
            participants: Mutex::new(HashSet::new()),
            finished: Mutex::new(false),
        }
    }

    fn control_binding(
        &self,
        capsule: &Arc<Capsule>,
        node: NodeId,
    ) -> Result<ClientBinding, TxnError> {
        let control = self.controls.read().get(&node).cloned().ok_or_else(|| {
            TxnError::ParticipantUnreachable(node, "no control interface known".to_owned())
        })?;
        Ok(capsule.bind_with(control, TransparencyPolicy::default()))
    }
}

impl fmt::Debug for TxnSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnSystem")
            .field("participant_nodes", &self.controls.read().len())
            .finish()
    }
}

/// One transaction: invoke under it, then commit or abort.
///
/// Dropping an unfinished transaction aborts it (presumed abort).
pub struct Txn {
    id: TxnId,
    system: Arc<TxnSystem>,
    capsule: Arc<Capsule>,
    participants: Mutex<HashSet<NodeId>>,
    finished: Mutex<bool>,
}

impl Txn {
    /// This transaction's identifier.
    #[must_use]
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Invokes `op` on `binding` under this transaction: the dispatch runs
    /// inside the target's concurrency-control layer and its effects are
    /// provisional until commit.
    ///
    /// # Errors
    ///
    /// [`TxnError::Aborted`] if concurrency control killed the transaction
    /// (the abort has already been broadcast), or any engineering error.
    pub fn call(
        &self,
        binding: &ClientBinding,
        op: &str,
        args: Vec<Value>,
    ) -> Result<Outcome, TxnError> {
        if *self.finished.lock() {
            return Err(TxnError::Finished);
        }
        let mut annotations = std::collections::BTreeMap::new();
        annotations.insert(
            odp_core::CallCtx::TXN_KEY.to_owned(),
            Value::Int(self.id.raw() as i64),
        );
        match binding.interrogate_annotated(op, args, annotations) {
            Ok(outcome) => {
                self.participants.lock().insert(binding.target().home);
                Ok(outcome)
            }
            Err(InvokeError::Aborted(why)) => {
                // Concurrency control aborted us at the participant; make
                // it global.
                self.finish_abort();
                Err(TxnError::Aborted(why))
            }
            Err(e) => Err(TxnError::Invoke(e)),
        }
    }

    /// Two-phase commit: prepare every participant, then commit (or abort
    /// on any no-vote / unreachable participant).
    ///
    /// # Errors
    ///
    /// [`TxnError::VoteNo`] or [`TxnError::ParticipantUnreachable`]; in
    /// both cases the transaction has been aborted everywhere reachable.
    pub fn commit(self) -> Result<(), TxnError> {
        {
            let mut finished = self.finished.lock();
            if *finished {
                return Err(TxnError::Finished);
            }
            *finished = true;
        }
        let participants: Vec<NodeId> = self.participants.lock().iter().copied().collect();
        // Phase 1: prepare.
        for node in &participants {
            let vote = self
                .system
                .control_binding(&self.capsule, *node)
                .and_then(|b| {
                    b.interrogate(control_ops::PREPARE, vec![Value::Int(self.id.raw() as i64)])
                        .map_err(|e| TxnError::ParticipantUnreachable(*node, e.to_string()))
                });
            let yes = match vote {
                Ok(outcome) => outcome.result().and_then(Value::as_bool).unwrap_or(false),
                Err(e) => {
                    self.broadcast_abort(&participants);
                    return Err(e);
                }
            };
            if !yes {
                self.broadcast_abort(&participants);
                return Err(TxnError::VoteNo(*node));
            }
        }
        // Phase 2: commit.
        for node in &participants {
            if let Ok(b) = self.system.control_binding(&self.capsule, *node) {
                let _ = b.interrogate(control_ops::COMMIT, vec![Value::Int(self.id.raw() as i64)]);
            }
        }
        Ok(())
    }

    /// Aborts the transaction everywhere.
    pub fn abort(self) {
        self.finish_abort();
    }

    fn finish_abort(&self) {
        {
            let mut finished = self.finished.lock();
            if *finished {
                return;
            }
            *finished = true;
        }
        let participants: Vec<NodeId> = self.participants.lock().iter().copied().collect();
        self.broadcast_abort(&participants);
    }

    fn broadcast_abort(&self, participants: &[NodeId]) {
        for node in participants {
            if let Ok(b) = self.system.control_binding(&self.capsule, *node) {
                let _ = b.interrogate(control_ops::ABORT, vec![Value::Int(self.id.raw() as i64)]);
            }
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.finish_abort();
    }
}

impl fmt::Debug for Txn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.id)
            .field("participants", &self.participants.lock().len())
            .finish()
    }
}
