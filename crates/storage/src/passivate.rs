//! Passivation and transparent activation (resource transparency, §5.5).
//!
//! *"Resource management may cause an object to be passivated when it is
//! not in use — for example by removing it from main memory and putting it
//! on disc."* and §5.4: *"This passive location can be advised to the
//! relocation mechanisms and subsequent reactivation made transparent to
//! clients of the object."*
//!
//! [`Passivator::passivate`] snapshots an active object into the stable
//! repository and replaces its export with an [`ActivationStub`]: a servant
//! whose first dispatch reinstates the real object from storage and then
//! delegates. Clients never observe the difference beyond latency — the
//! definition of resource transparency.

use crate::repository::StableRepository;
use odp_core::{CallCtx, Capsule, ExportConfig, Outcome, Servant};
use odp_types::{InterfaceId, InterfaceType};
use odp_wire::Value;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Factory reconstructing an empty replica for activation.
type Factory = Arc<dyn Fn() -> Arc<dyn Servant> + Send + Sync>;

/// A stand-in servant that activates the real object on first use.
pub struct ActivationStub {
    iface: InterfaceId,
    ty: InterfaceType,
    factory: Factory,
    repository: Arc<StableRepository>,
    inner: Mutex<Option<Arc<dyn Servant>>>,
    activated: AtomicBool,
    /// Activations performed (experiment accounting).
    pub activations: AtomicU64,
}

impl ActivationStub {
    /// Creates a stub for `iface` with signature `ty`.
    #[must_use]
    pub fn new(
        iface: InterfaceId,
        ty: InterfaceType,
        factory: Factory,
        repository: Arc<StableRepository>,
    ) -> Self {
        Self {
            iface,
            ty,
            factory,
            repository,
            inner: Mutex::new(None),
            activated: AtomicBool::new(false),
            activations: AtomicU64::new(0),
        }
    }

    /// True once the real object has been reinstated.
    #[must_use]
    pub fn is_activated(&self) -> bool {
        self.activated.load(Ordering::SeqCst)
    }

    fn activate(&self) -> Result<Arc<dyn Servant>, String> {
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.as_ref() {
            return Ok(Arc::clone(existing));
        }
        let stored = self
            .repository
            .load(self.iface)
            .ok_or_else(|| format!("{} is not in the repository", self.iface))?;
        let servant = (self.factory)();
        servant.restore(&stored.snapshot)?;
        *inner = Some(Arc::clone(&servant));
        self.activated.store(true, Ordering::SeqCst);
        self.activations.fetch_add(1, Ordering::Relaxed);
        Ok(servant)
    }
}

impl Servant for ActivationStub {
    fn interface_type(&self) -> InterfaceType {
        self.ty.clone()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        match self.activate() {
            Ok(servant) => servant.dispatch(op, args, ctx),
            Err(why) => Outcome::engineering(odp_core::Code::Passive, vec![Value::str(why)]),
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.lock().as_ref().and_then(|s| s.snapshot())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), String> {
        self.activate()?.restore(snapshot)
    }
}

impl std::fmt::Debug for ActivationStub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivationStub")
            .field("iface", &self.iface)
            .field("activated", &self.is_activated())
            .finish()
    }
}

/// Drives passivation for a capsule.
pub struct Passivator {
    repository: Arc<StableRepository>,
    /// Passivations performed.
    pub passivations: AtomicU64,
}

impl Passivator {
    /// Creates a passivator over a repository.
    #[must_use]
    pub fn new(repository: Arc<StableRepository>) -> Self {
        Self {
            repository,
            passivations: AtomicU64::new(0),
        }
    }

    /// The repository used for passive state.
    #[must_use]
    pub fn repository(&self) -> &Arc<StableRepository> {
        &self.repository
    }

    /// Passivates an active export: snapshots the object to the
    /// repository and swaps the export for an [`ActivationStub`] under the
    /// same identity. Returns the stub.
    ///
    /// # Errors
    ///
    /// A description if the interface is not exported here or the object
    /// does not support snapshots.
    pub fn passivate(
        &self,
        capsule: &Arc<Capsule>,
        iface: InterfaceId,
        factory: Factory,
    ) -> Result<Arc<ActivationStub>, String> {
        let servant = capsule
            .servant_of(iface)
            .ok_or_else(|| format!("{iface} is not actively exported"))?;
        let snapshot = servant
            .snapshot()
            .ok_or_else(|| format!("{iface} does not support snapshots"))?;
        let ty = servant.interface_type();
        self.repository.store(iface, snapshot, 0);
        let stub = Arc::new(ActivationStub::new(
            iface,
            ty,
            factory,
            Arc::clone(&self.repository),
        ));
        // Replace the export in place: clients keep their references.
        capsule.unexport(iface);
        capsule.export_at(
            iface,
            0,
            Arc::clone(&stub) as Arc<dyn Servant>,
            ExportConfig::default(),
        );
        self.passivations.fetch_add(1, Ordering::Relaxed);
        Ok(stub)
    }
}

impl std::fmt::Debug for Passivator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Passivator")
            .field("passivations", &self.passivations.load(Ordering::Relaxed))
            .finish()
    }
}
