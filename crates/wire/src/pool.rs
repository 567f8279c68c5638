//! The encode-buffer pool: recycled, pre-sized buffers for the
//! marshalling hot path.
//!
//! §4.5 of the paper demands that the engineering model make marshalled
//! access cheap enough that transparency is affordable. A fresh heap
//! allocation per invocation is the first thing to go: encoders acquire
//! a [`PooledBuf`] of the *exact* size the payload needs, fill it, hand
//! it to the transport, and drop it — the drop returns the capacity to
//! the pool, so a steady-state caller allocates nothing. The size comes
//! from running the same encoder into a [`crate::ByteCount`] first
//! ([`crate::encoded_len`], [`crate::payload_len`]), so it cannot drift
//! from the bytes written.
//!
//! Structure: a small thread-local stack (lock-free fast path for the
//! common acquire/release on one thread) over a bounded global free list
//! (`Mutex`, taken only when the local stack under- or overflows — e.g.
//! when transport writer threads release buffers acquired by caller
//! threads). Buffers above `MAX_RETAINED_CAPACITY` (256 KiB) are never retained,
//! so one jumbo payload cannot pin its capacity forever. Pool traffic is
//! counted in [`odp_telemetry::WireStats`]: an acquisition served with
//! sufficient capacity is a *hit* (no heap allocation), everything else
//! is a *miss*.

use crate::encode::EncodeBuf;
use odp_telemetry::wire_stats;
use std::cell::RefCell;
use std::sync::Mutex;

/// Buffers kept per thread before spilling to the global free list.
const LOCAL_POOL_CAP: usize = 8;

/// Buffers kept on the global free list before releases start freeing.
const GLOBAL_POOL_CAP: usize = 64;

/// Largest capacity worth recycling; bigger buffers are dropped on
/// release so the pool's worst-case footprint stays bounded.
const MAX_RETAINED_CAPACITY: usize = 256 * 1024;

thread_local! {
    static LOCAL_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL_POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// A growable byte buffer on loan from the encode-buffer pool. Dropping
/// it returns the capacity for reuse; [`PooledBuf::freeze`] opts out and
/// converts the contents into an immutable [`bytes::Bytes`] instead.
#[derive(Debug, Default)]
pub struct PooledBuf {
    vec: Vec<u8>,
}

impl PooledBuf {
    /// Acquire a cleared buffer with at least `min_capacity` bytes of
    /// capacity, recycling a pooled one when available.
    #[must_use]
    pub fn acquire(min_capacity: usize) -> PooledBuf {
        let recycled = LOCAL_POOL
            .with(|p| p.borrow_mut().pop())
            .or_else(|| GLOBAL_POOL.lock().ok().and_then(|mut p| p.pop()));
        match recycled {
            Some(mut vec) => {
                vec.clear();
                if vec.capacity() >= min_capacity {
                    wire_stats().pool_hit();
                } else {
                    wire_stats().pool_miss();
                    vec.reserve(min_capacity);
                }
                PooledBuf { vec }
            }
            None => {
                wire_stats().pool_miss();
                PooledBuf {
                    vec: Vec::with_capacity(min_capacity),
                }
            }
        }
    }

    /// Acquire a buffer holding a copy of `data`.
    #[must_use]
    pub fn from_slice(data: &[u8]) -> PooledBuf {
        let mut buf = PooledBuf::acquire(data.len());
        buf.vec.extend_from_slice(data);
        buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Current capacity (for pool sizing assertions in tests).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Clear the contents, keeping capacity.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.vec.extend_from_slice(data);
    }

    /// Convert into an immutable [`bytes::Bytes`] without copying. The
    /// capacity leaves the pool for good (the `Bytes` may be retained
    /// indefinitely), so this belongs off the steady-state hot path.
    #[must_use]
    pub fn freeze(mut self) -> bytes::Bytes {
        bytes::Bytes::from(std::mem::take(&mut self.vec))
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let capacity = self.vec.capacity();
        if capacity == 0 || capacity > MAX_RETAINED_CAPACITY {
            return;
        }
        let vec = std::mem::take(&mut self.vec);
        let spilled = LOCAL_POOL.with(|p| {
            let mut local = p.borrow_mut();
            if local.len() < LOCAL_POOL_CAP {
                local.push(vec);
                None
            } else {
                Some(vec)
            }
        });
        if let Some(vec) = spilled {
            if let Ok(mut global) = GLOBAL_POOL.lock() {
                if global.len() < GLOBAL_POOL_CAP {
                    global.push(vec);
                }
            }
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl EncodeBuf for PooledBuf {
    fn push_u8(&mut self, b: u8) {
        self.vec.push(b);
    }
    fn push_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain both pool tiers so a test observes only its own traffic.
    fn drain_pool() {
        LOCAL_POOL.with(|p| p.borrow_mut().clear());
        if let Ok(mut g) = GLOBAL_POOL.lock() {
            g.clear();
        }
    }

    #[test]
    fn drop_recycles_capacity() {
        drain_pool();
        let mut a = PooledBuf::acquire(1024);
        a.extend_from_slice(&[7u8; 100]);
        let cap = a.capacity();
        drop(a);
        let b = PooledBuf::acquire(512);
        assert!(b.is_empty(), "recycled buffer must arrive cleared");
        assert_eq!(b.capacity(), cap, "expected the recycled buffer back");
    }

    // Counter-delta behaviour (steady state is hits-only) is asserted in
    // `tests/zero_copy.rs`, which owns the process-global `WireStats` —
    // lib tests run in parallel threads and would race on it.

    #[test]
    fn oversized_buffers_are_not_retained() {
        drain_pool();
        drop(PooledBuf::acquire(MAX_RETAINED_CAPACITY * 2));
        let next = PooledBuf::acquire(16);
        assert!(
            next.capacity() < MAX_RETAINED_CAPACITY,
            "jumbo buffer must not come back from the pool"
        );
    }

    #[test]
    fn freeze_detaches_without_copy() {
        let mut buf = PooledBuf::from_slice(b"hello");
        buf.extend_from_slice(b" world");
        let bytes = buf.freeze();
        assert_eq!(&bytes[..], b"hello world");
    }
}
