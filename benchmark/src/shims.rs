//! Timing shims: bench-owned client and server layers that stamp the
//! instant a call enters and leaves the slot they sit in. The traced
//! fixture puts one between every pair of real layers, so the program
//! itself is timed from outside and its telemetry stays off.
//!
//! Client shims always run on the calling thread and stamp thread-local
//! storage. Server shims run on the calling thread for a co-located call
//! and on a REX worker otherwise; remote stamps are published per caller
//! node, which is unambiguous because each client capsule has exactly one
//! load thread and calls are closed-loop.

use odp::core::{CallRequest, ClientLayer, ClientNext, InvokeError, ServerLayer, ServerNext};
use odp::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Shim slots per side: outermost, middle, innermost.
pub const SLOTS: usize = 3;
/// Enter/exit stamps for every slot of one side, in ns since [`now_ns`]'s
/// epoch: `[enter0, exit0, enter1, exit1, enter2, exit2]`.
pub type Stamps = [u64; 2 * SLOTS];

const MAX_CALLERS: usize = 8;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic ns since the first call in this process.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static CLIENT: Cell<Stamps> = const { Cell::new([0; 2 * SLOTS]) };
    static LOCAL_SERVER: Cell<Stamps> = const { Cell::new([0; 2 * SLOTS]) };
}

fn stamp(cell: &'static std::thread::LocalKey<Cell<Stamps>>, slot: usize, enter: u64, exit: u64) {
    cell.with(|c| {
        let mut s = c.get();
        s[2 * slot] = enter;
        s[2 * slot + 1] = exit;
        c.set(s);
    });
}

/// The client stamps of the last call made on this thread.
pub fn client_stamps() -> Stamps {
    CLIENT.with(Cell::get)
}

pub struct ClientShim {
    slot: usize,
    name: &'static str,
}

impl ClientShim {
    pub fn new(slot: usize) -> Self {
        const NAMES: [&str; SLOTS] = ["bench.shim0", "bench.shim1", "bench.shim2"];
        Self {
            slot,
            name: NAMES[slot],
        }
    }
}

impl ClientLayer for ClientShim {
    fn invoke(&self, req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError> {
        let enter = now_ns();
        let result = next.invoke(req);
        stamp(&CLIENT, self.slot, enter, now_ns());
        result
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Where the server shims of one export publish their stamps.
pub struct ServerProbe {
    server: NodeId,
    remote: [[AtomicU64; 2 * SLOTS]; MAX_CALLERS],
}

impl ServerProbe {
    pub fn new(server: NodeId) -> Self {
        Self {
            server,
            remote: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    fn publish(&self, caller: NodeId, slot: usize, enter: u64, exit: u64) {
        if caller == self.server {
            stamp(&LOCAL_SERVER, slot, enter, exit);
        } else {
            // Relaxed suffices: the reply frame travels to the caller
            // through the transport's channels, whose send/receive pair
            // orders these stores before the caller's loads in `stamps`.
            let row = &self.remote[caller.raw() as usize % MAX_CALLERS];
            row[2 * slot].store(enter, Ordering::Relaxed);
            row[2 * slot + 1].store(exit, Ordering::Relaxed);
        }
    }

    /// The server stamps of `caller`'s last call (read on the caller's
    /// thread after the call returned).
    pub fn stamps(&self, caller: NodeId) -> Stamps {
        if caller == self.server {
            return LOCAL_SERVER.with(Cell::get);
        }
        let row = &self.remote[caller.raw() as usize % MAX_CALLERS];
        std::array::from_fn(|i| row[i].load(Ordering::Relaxed))
    }
}

pub struct ServerShim {
    slot: usize,
    probe: std::sync::Arc<ServerProbe>,
}

impl ServerShim {
    pub fn new(slot: usize, probe: &std::sync::Arc<ServerProbe>) -> Self {
        Self {
            slot,
            probe: std::sync::Arc::clone(probe),
        }
    }
}

impl ServerLayer for ServerShim {
    fn dispatch(
        &self,
        ctx: &CallCtx,
        op: &str,
        args: Vec<Value>,
        next: &dyn ServerNext,
    ) -> Outcome {
        let enter = now_ns();
        let outcome = next.dispatch(ctx, op, args);
        self.probe.publish(ctx.caller, self.slot, enter, now_ns());
        outcome
    }

    fn name(&self) -> &'static str {
        "bench.server_shim"
    }
}

/// One traced call split into its parts, in ns. The parts telescope:
/// they sum exactly to `total` for every call, so a gap between the sum
/// of their medians and the median total comes only from how the parts
/// vary from call to call.
#[derive(Debug, Clone, Copy)]
pub struct Parts {
    pub total: u64,
    pub stub: u64,
    pub retry: u64,
    pub location: u64,
    pub request_path: u64,
    pub admission: u64,
    pub wal: u64,
    pub servant: u64,
    pub reply_path: u64,
}

impl Parts {
    /// Splits a call that ran from `start` to `end` (ns) given the stamps
    /// of both sides, or `None` if the stamps do not nest inside the call
    /// (they belong to another call).
    pub fn split(start: u64, end: u64, c: &Stamps, s: &Stamps) -> Option<Parts> {
        let nested = start <= c[0]
            && c[0] <= c[2]
            && c[2] <= c[4]
            && c[4] <= s[0]
            && s[0] <= s[2]
            && s[2] <= s[4]
            && s[4] <= s[5]
            && s[5] <= s[3]
            && s[3] <= s[1]
            && s[1] <= c[5]
            && c[5] <= c[3]
            && c[3] <= c[1]
            && c[1] <= end;
        if !nested {
            return None;
        }
        let span = |st: &Stamps, slot: usize| st[2 * slot + 1] - st[2 * slot];
        Some(Parts {
            total: end - start,
            stub: (end - start) - span(c, 0),
            retry: span(c, 0) - span(c, 1),
            location: span(c, 1) - span(c, 2),
            request_path: s[0] - c[4],
            admission: span(s, 0) - span(s, 1),
            wal: span(s, 1) - span(s, 2),
            servant: span(s, 2),
            reply_path: c[5] - s[1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_telescope_to_the_total() {
        let c = [10, 90, 12, 88, 15, 85];
        let s = [30, 70, 32, 68, 40, 60];
        let p = Parts::split(5, 100, &c, &s).unwrap();
        let sum = p.stub
            + p.retry
            + p.location
            + p.request_path
            + p.admission
            + p.wal
            + p.servant
            + p.reply_path;
        assert_eq!(sum, p.total);
        assert_eq!(p.servant, 20);
        assert_eq!(p.request_path, 15);
        assert_eq!(p.reply_path, 15);
    }

    #[test]
    fn stale_stamps_are_rejected() {
        let c = [10, 90, 12, 88, 15, 85];
        let stale = [1, 2, 1, 2, 1, 2];
        assert!(Parts::split(5, 100, &c, &stale).is_none());
    }
}
