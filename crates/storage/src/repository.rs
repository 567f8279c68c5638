//! The stable object repository.

use odp_types::InterfaceId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// One stored object state.
#[derive(Debug, Clone, PartialEq, Eq)]
// odp-lint: allow(l8, reason = "returned by the public `StableRepository::load`")
pub struct StoredObject {
    /// The snapshot bytes (produced by `Servant::snapshot`).
    pub snapshot: Vec<u8>,
    /// Location epoch the object had when stored; reactivation bumps it.
    pub epoch: u64,
}

/// An in-memory stable store keyed by interface identity.
///
/// Stands in for the paper's disks and archival media (see the
/// substitution table in DESIGN.md). `write_latency` models synchronous
/// stable-write cost so checkpoint-frequency experiments measure a real
/// trade-off rather than a free operation.
pub struct StableRepository {
    objects: Mutex<HashMap<InterfaceId, StoredObject>>,
    write_latency: Duration,
}

impl Default for StableRepository {
    fn default() -> Self {
        Self::new(Duration::ZERO)
    }
}

impl StableRepository {
    /// Creates a repository with a simulated per-write latency.
    #[must_use]
    pub fn new(write_latency: Duration) -> Self {
        Self {
            objects: Mutex::new(HashMap::new()),
            write_latency,
        }
    }

    /// Stores (or replaces) an object's snapshot.
    pub fn store(&self, iface: InterfaceId, snapshot: Vec<u8>, epoch: u64) {
        if !self.write_latency.is_zero() {
            std::thread::sleep(self.write_latency);
        }
        self.objects
            .lock()
            .insert(iface, StoredObject { snapshot, epoch });
    }

    /// Loads an object's stored state.
    #[must_use]
    pub fn load(&self, iface: InterfaceId) -> Option<StoredObject> {
        self.objects.lock().get(&iface).cloned()
    }

    /// Number of stored objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.lock().len()
    }

    /// True if nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.lock().is_empty()
    }
}

impl fmt::Debug for StableRepository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StableRepository")
            .field("objects", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_remove() {
        let repo = StableRepository::default();
        assert!(repo.is_empty());
        repo.store(InterfaceId(1), vec![1, 2, 3], 0);
        assert_eq!(
            repo.load(InterfaceId(1)),
            Some(StoredObject {
                snapshot: vec![1, 2, 3],
                epoch: 0
            })
        );
        repo.store(InterfaceId(1), vec![9], 2);
        assert_eq!(repo.load(InterfaceId(1)).unwrap().epoch, 2);
        assert_eq!(repo.len(), 1);
        assert!(repo.load(InterfaceId(2)).is_none());
    }

    #[test]
    fn write_latency_is_applied() {
        let repo = StableRepository::new(Duration::from_millis(20));
        let start = std::time::Instant::now();
        repo.store(InterfaceId(1), vec![], 0);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }
}
