//! The lock manager: strict two-phase locking over string keys.
//!
//! Isolation (§5.2) "can be achieved by associating separation constraints
//! with interface specifications indicating which operation and argument
//! combinations potentially interfere". The generated concurrency-control
//! layer translates each dispatch into a lock request here; locks are held
//! until the transaction's fate is decided (strict 2PL), which gives
//! serializability and recoverability.
//!
//! Conflicting requests wait on a condition variable; before waiting, the
//! [`DeadlockDetector`] is consulted, and waits are also bounded by a
//! timeout so deadlocks spanning several lock managers (which no local
//! graph can see) resolve as aborts rather than hangs.

use crate::deadlock::DeadlockDetector;
use odp_types::TxnId;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Lock compatibility mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: readers coexist.
    Shared,
    /// Exclusive: sole access.
    Exclusive,
}

/// Why a lock could not be granted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// Granting the wait would deadlock; the requester must abort.
    Deadlock,
    /// The wait exceeded the manager's timeout (possible distributed
    /// deadlock); the requester must abort.
    Timeout,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Deadlock => write!(f, "lock wait would deadlock"),
            LockError::Timeout => write!(f, "lock wait timed out"),
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Debug, Default)]
struct Entry {
    sharers: HashSet<TxnId>,
    exclusive: Option<TxnId>,
}

impl Entry {
    fn is_free_for(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self.exclusive.is_none() || self.exclusive == Some(txn),
            LockMode::Exclusive => {
                let sole_sharer = self.sharers.is_empty()
                    || (self.sharers.len() == 1 && self.sharers.contains(&txn));
                (self.exclusive.is_none() || self.exclusive == Some(txn)) && sole_sharer
            }
        }
    }

    fn holders_blocking(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        let mut out = Vec::new();
        if let Some(x) = self.exclusive {
            if x != txn {
                out.push(x);
            }
        }
        if mode == LockMode::Exclusive {
            out.extend(self.sharers.iter().copied().filter(|t| *t != txn));
        }
        out
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                self.sharers.insert(txn);
            }
            LockMode::Exclusive => {
                self.sharers.remove(&txn);
                self.exclusive = Some(txn);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.sharers.is_empty() && self.exclusive.is_none()
    }
}

/// A strict-2PL lock manager. One per capsule's transaction runtime; all
/// concurrency-control layers on that capsule share it (a transaction
/// touching several interfaces holds one coherent lock set).
pub struct LockManager {
    table: Mutex<HashMap<String, Entry>>,
    changed: Condvar,
    detector: DeadlockDetector,
    wait_timeout: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(Duration::from_secs(2))
    }
}

impl LockManager {
    /// Creates a lock manager with the given wait timeout.
    #[must_use]
    pub fn new(wait_timeout: Duration) -> Self {
        Self {
            table: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
            detector: DeadlockDetector::new(),
            wait_timeout,
        }
    }

    /// Acquires `key` in `mode` for `txn`, blocking if necessary.
    ///
    /// # Errors
    ///
    /// [`LockError::Deadlock`] if waiting would close a wait-for cycle,
    /// [`LockError::Timeout`] if the wait exceeds the manager's bound.
    pub fn acquire(&self, txn: TxnId, key: &str, mode: LockMode) -> Result<(), LockError> {
        let deadline = Instant::now() + self.wait_timeout;
        let mut table = self.table.lock();
        loop {
            let entry = table.entry(key.to_owned()).or_default();
            if entry.is_free_for(txn, mode) {
                entry.grant(txn, mode);
                self.detector.clear_waits(txn);
                return Ok(());
            }
            let holders = entry.holders_blocking(txn, mode);
            if !self.detector.try_wait(txn, &holders) {
                return Err(LockError::Deadlock);
            }
            let now = Instant::now();
            if now >= deadline {
                self.detector.clear_waits(txn);
                return Err(LockError::Timeout);
            }
            let timed_out = self.changed.wait_until(&mut table, deadline).timed_out();
            self.detector.clear_waits(txn);
            if timed_out {
                return Err(LockError::Timeout);
            }
        }
    }

    /// Releases every lock held by `txn` (commit or abort).
    pub fn release_all(&self, txn: TxnId) {
        let mut table = self.table.lock();
        table.retain(|_, entry| {
            entry.sharers.remove(&txn);
            if entry.exclusive == Some(txn) {
                entry.exclusive = None;
            }
            !entry.is_empty()
        });
        self.detector.remove(txn);
        self.changed.notify_all();
    }

    /// Number of keys with at least one holder.
    #[must_use]
    fn locked_keys(&self) -> usize {
        self.table.lock().len()
    }
}

impl fmt::Debug for LockManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockManager")
            .field("locked_keys", &self.locked_keys())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), "k", LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), "k", LockMode::Shared).unwrap();
        assert_eq!(lm.locked_keys(), 1);
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(2));
        assert_eq!(lm.locked_keys(), 0);
    }

    #[test]
    fn exclusive_excludes_and_waits() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), "k", LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || lm2.acquire(TxnId(2), "k", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished(), "waiter should block");
        lm.release_all(TxnId(1));
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), "k", LockMode::Shared).unwrap();
        lm.acquire(TxnId(1), "k", LockMode::Shared).unwrap();
        // Sole sharer upgrades.
        lm.acquire(TxnId(1), "k", LockMode::Exclusive).unwrap();
        // And exclusive re-grants shared trivially.
        lm.acquire(TxnId(1), "k", LockMode::Shared).unwrap();
    }

    #[test]
    fn deadlock_detected_immediately() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        lm.acquire(TxnId(1), "a", LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), "b", LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let t = std::thread::spawn(move || lm2.acquire(TxnId(1), "b", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(50));
        // Txn 2 requesting `a` would close the cycle: immediate error, no
        // waiting out the 5 s timeout.
        let start = Instant::now();
        assert_eq!(
            lm.acquire(TxnId(2), "a", LockMode::Exclusive),
            Err(LockError::Deadlock)
        );
        assert!(start.elapsed() < Duration::from_secs(1));
        lm.release_all(TxnId(2));
        t.join().unwrap().unwrap();
    }

    #[test]
    fn wait_times_out() {
        let lm = LockManager::new(Duration::from_millis(80));
        lm.acquire(TxnId(1), "k", LockMode::Exclusive).unwrap();
        let start = Instant::now();
        assert_eq!(
            lm.acquire(TxnId(2), "k", LockMode::Shared),
            Err(LockError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(70));
    }

    #[test]
    fn release_wakes_shared_waiters() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(TxnId(1), "k", LockMode::Exclusive).unwrap();
        let mut handles = Vec::new();
        for t in 2..5u64 {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                lm.acquire(TxnId(t), "k", LockMode::Shared)
            }));
        }
        std::thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId(1));
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }
}
