//! Leases: time-bounded claims on references.

use odp_types::{InterfaceId, NodeId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tracks `(interface, holder) → expiry`.
pub struct LeaseTable {
    ttl: Duration,
    leases: Mutex<HashMap<(InterfaceId, NodeId), Instant>>,
}

impl LeaseTable {
    /// Creates a table with the given time-to-live per renewal.
    #[must_use]
    pub fn new(ttl: Duration) -> Self {
        Self {
            ttl,
            leases: Mutex::new(HashMap::new()),
        }
    }

    /// The configured TTL.
    #[must_use]
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Renews (or creates) `holder`'s lease on `iface`.
    pub fn renew(&self, iface: InterfaceId, holder: NodeId) {
        self.leases
            .lock()
            .insert((iface, holder), Instant::now() + self.ttl);
    }

    /// Releases a lease explicitly.
    pub fn release(&self, iface: InterfaceId, holder: NodeId) {
        self.leases.lock().remove(&(iface, holder));
    }

    /// Drops expired leases and returns the set of interfaces that still
    /// have at least one live holder.
    #[must_use]
    pub fn live_interfaces(&self) -> Vec<InterfaceId> {
        let now = Instant::now();
        let mut leases = self.leases.lock();
        leases.retain(|_, expiry| *expiry > now);
        let mut out: Vec<InterfaceId> = leases.keys().map(|(iface, _)| *iface).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total live leases.
    #[must_use]
    pub fn len(&self) -> usize {
        let now = Instant::now();
        self.leases.lock().values().filter(|e| **e > now).count()
    }

    /// True if no live leases exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for LeaseTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseTable")
            .field("ttl", &self.ttl)
            .field("live", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renew_release_and_expiry() {
        let t = LeaseTable::new(Duration::from_millis(50));
        t.renew(InterfaceId(1), NodeId(10));
        t.renew(InterfaceId(1), NodeId(11));
        t.renew(InterfaceId(2), NodeId(10));
        assert_eq!(t.live_interfaces(), vec![InterfaceId(1), InterfaceId(2)]);
        let holders = t
            .leases
            .lock()
            .keys()
            .filter(|(i, _)| *i == InterfaceId(1))
            .count();
        assert_eq!(holders, 2);
        t.release(InterfaceId(2), NodeId(10));
        assert_eq!(t.live_interfaces(), vec![InterfaceId(1)]);
        std::thread::sleep(Duration::from_millis(80));
        assert!(t.live_interfaces().is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn renewal_extends_life() {
        let t = LeaseTable::new(Duration::from_millis(60));
        t.renew(InterfaceId(1), NodeId(10));
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            t.renew(InterfaceId(1), NodeId(10));
        }
        assert_eq!(t.live_interfaces(), vec![InterfaceId(1)]);
    }
}
