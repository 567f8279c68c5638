//! The deadlock detector: a wait-for graph with cycle checking.
//!
//! §5.2: the concurrency control manager "will need to interact with a
//! deadlock detector so that applications do not hang indefinitely if
//! transactions suffer locking conflicts". The detector is consulted
//! *before* a transaction starts waiting: if adding the wait edges would
//! close a cycle, the request is refused and the requester aborts — no
//! transaction ever enters a deadlocked wait.

use odp_types::TxnId;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

/// A wait-for graph over transactions.
#[derive(Debug, Default)]
pub struct DeadlockDetector {
    edges: Mutex<HashMap<TxnId, HashSet<TxnId>>>,
}

impl DeadlockDetector {
    /// Creates an empty detector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to record that `waiter` waits for each of `holders`.
    /// Returns `false` — and records nothing — if doing so would create a
    /// cycle (i.e. the wait would deadlock).
    #[must_use]
    pub fn try_wait(&self, waiter: TxnId, holders: &[TxnId]) -> bool {
        let mut edges = self.edges.lock();
        // Would any holder (transitively) wait for `waiter`?
        for holder in holders {
            if *holder == waiter || Self::reaches(&edges, *holder, waiter) {
                return false;
            }
        }
        edges
            .entry(waiter)
            .or_default()
            .extend(holders.iter().copied());
        true
    }

    /// Removes all wait edges out of `waiter` (its wait ended).
    pub fn clear_waits(&self, waiter: TxnId) {
        self.edges.lock().remove(&waiter);
    }

    /// Removes a transaction entirely (it committed or aborted): both its
    /// out-edges and any in-edges pointing at it.
    pub fn remove(&self, txn: TxnId) {
        let mut edges = self.edges.lock();
        edges.remove(&txn);
        for targets in edges.values_mut() {
            targets.remove(&txn);
        }
    }

    /// Depth-first reachability: does `from` transitively wait for `to`?
    fn reaches(edges: &HashMap<TxnId, HashSet<TxnId>>, from: TxnId, to: TxnId) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if !seen.insert(node) {
                continue;
            }
            if let Some(next) = edges.get(&node) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_cycle_refused() {
        let d = DeadlockDetector::new();
        assert!(d.try_wait(TxnId(1), &[TxnId(2)]));
        // 2 waiting for 1 would close the cycle.
        assert!(!d.try_wait(TxnId(2), &[TxnId(1)]));
    }

    #[test]
    fn self_wait_refused() {
        let d = DeadlockDetector::new();
        assert!(!d.try_wait(TxnId(1), &[TxnId(1)]));
    }

    #[test]
    fn long_cycle_refused() {
        let d = DeadlockDetector::new();
        assert!(d.try_wait(TxnId(1), &[TxnId(2)]));
        assert!(d.try_wait(TxnId(2), &[TxnId(3)]));
        assert!(d.try_wait(TxnId(3), &[TxnId(4)]));
        assert!(!d.try_wait(TxnId(4), &[TxnId(1)]));
        // A non-cyclic wait is still fine.
        assert!(d.try_wait(TxnId(4), &[TxnId(5)]));
    }

    #[test]
    fn clearing_waits_unblocks() {
        let d = DeadlockDetector::new();
        assert!(d.try_wait(TxnId(1), &[TxnId(2)]));
        d.clear_waits(TxnId(1));
        assert!(d.try_wait(TxnId(2), &[TxnId(1)]));
    }

    #[test]
    fn remove_erases_in_and_out_edges() {
        let d = DeadlockDetector::new();
        assert!(d.try_wait(TxnId(1), &[TxnId(2)]));
        assert!(d.try_wait(TxnId(3), &[TxnId(1)]));
        d.remove(TxnId(1));
        // 2 may now wait for 3 and 3's old edge to 1 is gone.
        assert!(d.try_wait(TxnId(2), &[TxnId(3)]));
        assert_eq!(d.edges.lock().len(), 2);
    }

    #[test]
    fn multi_holder_waits() {
        let d = DeadlockDetector::new();
        assert!(d.try_wait(TxnId(1), &[TxnId(2), TxnId(3)]));
        // 3 → 1 would cycle through the multi-edge.
        assert!(!d.try_wait(TxnId(3), &[TxnId(1)]));
    }
}
