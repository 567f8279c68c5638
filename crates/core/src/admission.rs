//! Admission control — the overload half of failure transparency.
//!
//! §4.5 puts the nucleus in charge of mediating every interaction, which
//! makes the server-side dispatch path the one seam where *offered load*
//! can be turned away before it consumes the resources it is competing
//! for. [`AdmissionLayer`] is a [`ServerLayer`] installed at export time
//! (outermost, before guards and locks) that:
//!
//! * drops calls whose propagated deadline **already expired** — the
//!   caller has given up, executing the work is pure waste;
//! * sheds calls whose deadline **cannot be met** at the current queue
//!   depth (an EWMA of recent service times predicts the wait);
//! * queues everything else in **per-priority bounded queues**
//!   ([`odp_wire::CallPriority`]) and dispatches strictly
//!   highest-priority-first,
//!   bounding concurrency at [`AdmissionPolicy::max_concurrent`];
//! * answers every shed call with the engineering code
//!   [`Code::Rejected`] carrying `[Int(retry_after_µs)]` — in
//!   **local time** (microseconds of queue math, no network, no servant),
//!   so a saturated server gets *cheaper* per excess call, not slower.
//!
//! Observability: every shed and every *queued* admit emits a
//! `load.shed`/`load.admit` event into the flight recorder; fast-path
//! admits (a free slot, nobody waiting) are only counted in
//! [`AdmissionLayer::admitted`]. At ~550k co-located admits/s an event per
//! admit would overwrite the recorder's 65,536-entry ring every ~120 ms,
//! so an incident dump would hold nothing but admits.
//!
//! Clients distinguish shed from failed: the retry layer passes
//! rejections through without consuming retry budget, and the circuit
//! breaker counts them toward opening (see `transparency.rs`) — together
//! that is what turns the overload cliff into a flat knee (E17).

use crate::invocation::{ServerLayer, ServerNext};
use crate::object::{CallCtx, Code, Outcome};
use odp_telemetry::QueueGauge;
use odp_wire::Value;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Declarative admission policy for one export.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Calls executing concurrently below this layer. Everything beyond
    /// waits in a priority queue (or is shed).
    pub max_concurrent: usize,
    /// Bound on each per-priority queue; arrivals past it are shed.
    pub queue_capacity: usize,
    /// Back-off hint stamped into every rejection.
    pub retry_after: Duration,
    /// Queue-wait cap for every queued call: it waits until its own
    /// deadline or this long, whichever comes first.
    pub max_wait: Duration,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            max_concurrent: 4,
            queue_capacity: 64,
            retry_after: Duration::from_millis(2),
            max_wait: Duration::from_millis(100),
        }
    }
}

/// Waiters are identified by a ticket so a timed-out call can remove
/// itself from the middle of its queue.
struct AdmissionState {
    executing: usize,
    /// One FIFO per priority, indexed by [`CallPriority::index`]
    /// (highest first). Bounded by the policy — arrivals past capacity
    /// are shed, so depth can never grow without limit (L7).
    queues: [VecDeque<u64>; 3],
    next_ticket: u64,
    /// EWMA of recent service times (α = 1/8), nanoseconds; `0` until
    /// the first completion. Feeds the can-this-deadline-be-met check.
    ewma_service_ns: u64,
}

/// Server-side admission control: per-priority bounded queues with
/// deadline-aware shedding. See the module docs for the contract.
pub struct AdmissionLayer {
    /// The declarative policy this layer enforces.
    pub policy: AdmissionPolicy,
    node: u64,
    state: Mutex<AdmissionState>,
    cv: Condvar,
    /// Depth gauges parallel to the queues, registered in the global
    /// telemetry registry as `admission.{high,normal,low}`.
    gauges: [Arc<QueueGauge>; 3],
    /// Calls dispatched (possibly after queueing).
    pub admitted: AtomicU64,
    /// Calls shed for any reason (includes `expired`).
    pub shed: AtomicU64,
    /// Calls dropped because their deadline had already expired (or
    /// expired while queued) — a subset of `shed`.
    pub expired: AtomicU64,
    /// Consecutive sheds since the last admission; reaching
    /// [`SHED_BURST_TRIGGER`] triggers a flight-recorder dump.
    shed_run: AtomicU64,
}

/// Consecutive sheds (with no admission in between) that count as a shed
/// *burst* and trigger a flight-recorder dump: one-off rejections under
/// transient pressure are normal E17 behaviour, a solid run of them means
/// the server is saturated and the lead-up is worth keeping.
const SHED_BURST_TRIGGER: u64 = 32;

/// Gauge names parallel to [`CallPriority::ALL`].
const GAUGE_NAMES: [&str; 3] = ["admission.high", "admission.normal", "admission.low"];

/// Restores the concurrency slot (and wakes waiters) even if the servant
/// panics — a poisoned slot would otherwise shrink capacity forever. The
/// time the slot was held feeds the service-time EWMA under the same lock.
struct SlotGuard<'a> {
    layer: &'a AdmissionLayer,
    started: Instant,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let service_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut state = self.layer.state.lock();
        state.executing = state.executing.saturating_sub(1);
        state.ewma_service_ns = if state.ewma_service_ns == 0 {
            service_ns
        } else {
            // α = 1/8 — smooth enough to ignore one outlier, fresh
            // enough to track a workload shift within ~10 calls.
            state.ewma_service_ns - state.ewma_service_ns / 8 + service_ns / 8
        };
        // Every waiter holds a ticket in some queue, so empty queues mean
        // nobody to wake — and a notify with no waiter still costs a
        // syscall.
        let waiters = state.queues.iter().any(|q| !q.is_empty());
        drop(state);
        if waiters {
            self.layer.cv.notify_all();
        }
    }
}

impl AdmissionLayer {
    /// A fresh admission layer enforcing `policy` (gauges registered
    /// under node 0; prefer [`AdmissionLayer::with_node`]).
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Arc<Self> {
        Self::with_node(policy, 0)
    }

    /// A fresh admission layer whose telemetry (events and queue gauges)
    /// is attributed to `node`.
    #[must_use]
    pub fn with_node(policy: AdmissionPolicy, node: u64) -> Arc<Self> {
        let registry = odp_telemetry::hub().metrics();
        Arc::new(Self {
            policy,
            node,
            state: Mutex::new(AdmissionState {
                executing: 0,
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                next_ticket: 0,
                ewma_service_ns: 0,
            }),
            cv: Condvar::new(),
            // odp-lint: allow(l1, reason = "array::from_fn over [_; 3] yields i in 0..3, GAUGE_NAMES has length 3")
            gauges: std::array::from_fn(|i| registry.register_gauge(node, GAUGE_NAMES[i])),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            shed_run: AtomicU64::new(0),
        })
    }

    /// Total calls currently waiting across all priority queues.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        let state = self.state.lock();
        state.queues.iter().map(VecDeque::len).sum()
    }

    // Every `pri` in the accessors below comes from
    // [`CallPriority::index`] — 0, 1 or 2 — and `queues`/`gauges` both
    // have one slot per [`CallPriority::ALL`] entry, so the indexing is
    // in bounds by construction.

    fn queue(state: &mut AdmissionState, pri: usize) -> &mut VecDeque<u64> {
        // odp-lint: allow(l1, reason = "pri is CallPriority::index() (0..=2) over [_; 3]")
        &mut state.queues[pri]
    }

    fn gauge(&self, pri: usize) -> &QueueGauge {
        // odp-lint: allow(l1, reason = "pri is CallPriority::index() (0..=2) over [_; 3]")
        &self.gauges[pri]
    }

    /// Waiters queued at `pri` or any higher priority.
    fn queued_at_or_above(state: &AdmissionState, pri: usize) -> usize {
        // odp-lint: allow(l1, reason = "pri is CallPriority::index() (0..=2) over [_; 3]")
        state.queues[..=pri].iter().map(VecDeque::len).sum()
    }

    /// True when `ticket` (at `pri`) may start: a slot is free, no
    /// higher-priority call waits, and it is first in its own queue.
    fn is_turn(&self, state: &AdmissionState, ticket: u64, pri: usize) -> bool {
        if state.executing >= self.policy.max_concurrent {
            return false;
        }
        // odp-lint: allow(l1, reason = "pri is CallPriority::index() (0..=2) over [_; 3]")
        let own = &state.queues[pri];
        // No higher-priority waiter ⇔ everything at-or-above is our own
        // queue; within a priority, strict FIFO.
        Self::queued_at_or_above(state, pri) == own.len() && own.front() == Some(&ticket)
    }

    fn reject(&self, ctx: &CallCtx, op: &str, reason: &str) -> Outcome {
        self.shed.fetch_add(1, Ordering::Relaxed);
        let hub = odp_telemetry::hub();
        hub.event(
            "load.shed",
            self.node,
            ctx.trace.trace_id,
            format!("op={op} priority={:?} reason={reason}", ctx.priority),
        );
        // Exactly-once per burst: only the shed that *reaches* the
        // threshold triggers; the counter re-arms on the next admission.
        if self.shed_run.fetch_add(1, Ordering::Relaxed) + 1 == SHED_BURST_TRIGGER {
            hub.recorder().trigger("load.shed.burst", hub.now_ns());
        }
        let retry_after_micros =
            i64::try_from(self.policy.retry_after.as_micros()).unwrap_or(i64::MAX);
        Outcome::engineering(Code::Rejected, vec![Value::Int(retry_after_micros)])
    }

    /// Predicted queue wait for a call entering at `pri` now, from the
    /// service-time EWMA. `None` until a first completion calibrates it.
    fn predicted_wait(&self, state: &AdmissionState, pri: usize) -> Option<Duration> {
        if state.ewma_service_ns == 0 {
            return None;
        }
        let ahead = Self::queued_at_or_above(state, pri) as u64;
        let lanes = self.policy.max_concurrent.max(1) as u64;
        // `ahead + 1` waves of service ahead of this call, spread over
        // the concurrency lanes.
        Some(Duration::from_nanos(
            state.ewma_service_ns.saturating_mul(ahead + 1) / lanes,
        ))
    }
}

impl ServerLayer for AdmissionLayer {
    fn dispatch(
        &self,
        ctx: &CallCtx,
        op: &str,
        args: Vec<odp_wire::Value>,
        next: &dyn ServerNext,
    ) -> Outcome {
        let pri = ctx.priority.index();
        let now = Instant::now();
        // 1. Dead on arrival: the budget (anchored at the frame's arrival)
        //    is already spent. Executing would be work nobody collects.
        if ctx.deadline.is_some_and(|d| now >= d) {
            self.expired.fetch_add(1, Ordering::Relaxed);
            return self.reject(ctx, op, "deadline_expired");
        }
        let queued = {
            let mut state = self.state.lock();
            // 2. Fast path: a slot is free and nobody waits ahead of us.
            if state.executing < self.policy.max_concurrent
                && Self::queued_at_or_above(&state, pri) == 0
            {
                state.executing += 1;
                false
            } else {
                // 3. Infeasible: the EWMA says the wait alone outlives the
                //    deadline. Shed now, in microseconds, instead of
                //    timing out in deadline-time later.
                if let (Some(deadline), Some(wait)) =
                    (ctx.deadline, self.predicted_wait(&state, pri))
                {
                    if now + wait >= deadline {
                        drop(state);
                        self.expired.fetch_add(1, Ordering::Relaxed);
                        return self.reject(ctx, op, "deadline_infeasible");
                    }
                }
                // 4. Queue full: the bound is the whole point (L7).
                if Self::queue(&mut state, pri).len() >= self.policy.queue_capacity {
                    drop(state);
                    self.gauge(pri).drop_one();
                    return self.reject(ctx, op, "queue_full");
                }
                let ticket = state.next_ticket;
                state.next_ticket += 1;
                Self::queue(&mut state, pri).push_back(ticket);
                self.gauge(pri).enter();
                // 5. Wait for our turn, bounded by the call's own deadline
                //    and by the policy's cap, whichever comes first.
                let give_up = ctx
                    .deadline
                    .unwrap_or_else(|| now + self.policy.max_wait)
                    .min(now + self.policy.max_wait);
                loop {
                    if self.is_turn(&state, ticket, pri) {
                        Self::queue(&mut state, pri).pop_front();
                        self.gauge(pri).leave();
                        state.executing += 1;
                        break;
                    }
                    if self.cv.wait_until(&mut state, give_up).timed_out() {
                        // Still queued at the deadline: remove ourselves
                        // and shed. (Re-check first — the notify that
                        // freed our slot may have raced the timeout.)
                        if self.is_turn(&state, ticket, pri) {
                            Self::queue(&mut state, pri).pop_front();
                            self.gauge(pri).leave();
                            state.executing += 1;
                            break;
                        }
                        Self::queue(&mut state, pri).retain(|&t| t != ticket);
                        self.gauge(pri).leave();
                        self.gauge(pri).drop_one();
                        drop(state);
                        self.cv.notify_all();
                        self.expired.fetch_add(1, Ordering::Relaxed);
                        return self.reject(ctx, op, "queue_wait_expired");
                    }
                }
                true
            }
        };
        // Admitted: run the rest of the chain with the slot held; the
        // guard frees it (and wakes waiters) even on panic.
        let _slot = SlotGuard {
            layer: self,
            started: Instant::now(),
        };
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.shed_run.store(0, Ordering::Relaxed);
        // Only a queued admit is news worth a recorder entry; fast-path
        // admits are counted above (see the module docs).
        if queued {
            odp_telemetry::hub().event(
                "load.admit",
                self.node,
                ctx.trace.trace_id,
                format!("op={op} priority={:?} queued=true", ctx.priority),
            );
        }
        next.dispatch(ctx, op, args)
    }

    fn name(&self) -> &'static str {
        "admission"
    }
}

impl fmt::Debug for AdmissionLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionLayer")
            .field("policy", &self.policy)
            .field("queue_depth", &self.queue_depth())
            .field("admitted", &self.admitted.load(Ordering::Relaxed))
            .field("shed", &self.shed.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Termination;
    use odp_types::InterfaceId;
    use odp_wire::CallPriority;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// A terminal `ServerNext` that counts dispatches and can block.
    struct Target {
        hits: AtomicUsize,
        hold: Option<Duration>,
        order: Mutex<Vec<&'static str>>,
    }

    impl Target {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                hits: AtomicUsize::new(0),
                hold: None,
                order: Mutex::new(Vec::new()),
            })
        }

        fn holding(ms: u64) -> Arc<Self> {
            Arc::new(Self {
                hits: AtomicUsize::new(0),
                hold: Some(Duration::from_millis(ms)),
                order: Mutex::new(Vec::new()),
            })
        }
    }

    impl ServerNext for Arc<Target> {
        fn dispatch(&self, _ctx: &CallCtx, op: &str, _args: Vec<Value>) -> Outcome {
            self.hits.fetch_add(1, Ordering::SeqCst);
            // `op` strings in these tests are static labels.
            self.order.lock().push(match op {
                "high" => "high",
                "low" => "low",
                _ => "other",
            });
            if let Some(hold) = self.hold {
                std::thread::sleep(hold);
            }
            Outcome::ok(vec![])
        }
    }

    fn ctx_with(priority: CallPriority, deadline: Option<Instant>) -> CallCtx {
        CallCtx {
            priority,
            deadline,
            ..CallCtx::default()
        }
    }

    #[test]
    fn expired_deadline_dropped_before_dispatch() {
        let layer = AdmissionLayer::new(AdmissionPolicy::default());
        let target = Target::new();
        let ctx = ctx_with(
            CallPriority::Normal,
            Some(Instant::now() - Duration::from_millis(1)),
        );
        let out = layer.dispatch(&ctx, "op", vec![], &target);
        assert_eq!(out.termination, Termination::Engineering(Code::Rejected));
        assert_eq!(
            target.hits.load(Ordering::SeqCst),
            0,
            "servant must not run"
        );
        assert_eq!(layer.expired.load(Ordering::Relaxed), 1);
        assert_eq!(layer.shed.load(Ordering::Relaxed), 1);
        // The rejection carries the policy's machine-readable back-off.
        assert_eq!(
            crate::invocation::interpret(InterfaceId(1), out),
            Err(crate::InvokeError::Rejected {
                retry_after: AdmissionPolicy::default().retry_after
            })
        );
    }

    #[test]
    fn admits_up_to_capacity_without_queueing() {
        let layer = AdmissionLayer::new(AdmissionPolicy::default());
        let target = Target::new();
        for _ in 0..10 {
            let out = layer.dispatch(&ctx_with(CallPriority::Normal, None), "op", vec![], &target);
            assert!(out.is_ok());
        }
        assert_eq!(target.hits.load(Ordering::SeqCst), 10);
        assert_eq!(layer.admitted.load(Ordering::Relaxed), 10);
        assert_eq!(layer.shed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn release_wakes_the_queued_call() {
        // A queued call that missed its wake-up would still be admitted
        // when its 5 s wait expires; only the release's notify makes it
        // prompt.
        let policy = AdmissionPolicy {
            max_concurrent: 1,
            max_wait: Duration::from_secs(5),
            ..AdmissionPolicy::default()
        };
        let layer = AdmissionLayer::new(policy);
        let target = Target::holding(20);
        let occupant = {
            let (layer, target) = (Arc::clone(&layer), Arc::clone(&target));
            std::thread::spawn(move || {
                layer.dispatch(&ctx_with(CallPriority::Normal, None), "op", vec![], &target)
            })
        };
        while layer.admitted.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t = Instant::now();
        let out = layer.dispatch(&ctx_with(CallPriority::Normal, None), "op", vec![], &target);
        assert!(out.is_ok());
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "queued call admitted only after {:?}",
            t.elapsed()
        );
        assert!(occupant.join().unwrap().is_ok());
    }

    #[test]
    fn full_queue_sheds_instead_of_growing() {
        let policy = AdmissionPolicy {
            max_concurrent: 1,
            queue_capacity: 1,
            max_wait: Duration::from_secs(2),
            ..AdmissionPolicy::default()
        };
        let layer = AdmissionLayer::new(policy);
        let target = Target::holding(200);
        let barrier = Arc::new(Barrier::new(2));
        let occupant = {
            let (layer, target, barrier) = (
                Arc::clone(&layer),
                Arc::clone(&target),
                Arc::clone(&barrier),
            );
            std::thread::spawn(move || {
                barrier.wait();
                layer.dispatch(&ctx_with(CallPriority::Normal, None), "op", vec![], &target)
            })
        };
        barrier.wait();
        // Let the occupant take the slot.
        while layer.admitted.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // One waiter fills the queue…
        let waiter = {
            let (layer, target) = (Arc::clone(&layer), Arc::clone(&target));
            std::thread::spawn(move || {
                layer.dispatch(&ctx_with(CallPriority::Normal, None), "op", vec![], &target)
            })
        };
        while layer.queue_depth() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // …and the next arrival is shed in local time, not deadline time.
        let t = Instant::now();
        let out = layer.dispatch(&ctx_with(CallPriority::Normal, None), "op", vec![], &target);
        assert_eq!(out.termination, Termination::Engineering(Code::Rejected));
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "shed must be immediate, took {:?}",
            t.elapsed()
        );
        assert!(occupant.join().unwrap().is_ok());
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn higher_priority_dequeues_first_under_contention() {
        let policy = AdmissionPolicy {
            max_concurrent: 1,
            queue_capacity: 8,
            max_wait: Duration::from_secs(5),
            ..AdmissionPolicy::default()
        };
        let layer = AdmissionLayer::new(policy);
        let target = Target::holding(50);
        // Occupy the single slot.
        let occupant = {
            let (layer, target) = (Arc::clone(&layer), Arc::clone(&target));
            std::thread::spawn(move || {
                layer.dispatch(
                    &ctx_with(CallPriority::Normal, None),
                    "first",
                    vec![],
                    &target,
                )
            })
        };
        while layer.admitted.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Enqueue a LOW waiter first…
        let low = {
            let (layer, target) = (Arc::clone(&layer), Arc::clone(&target));
            std::thread::spawn(move || {
                layer.dispatch(&ctx_with(CallPriority::Low, None), "low", vec![], &target)
            })
        };
        while layer.queue_depth() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // …then a HIGH one.
        let high = {
            let (layer, target) = (Arc::clone(&layer), Arc::clone(&target));
            std::thread::spawn(move || {
                layer.dispatch(&ctx_with(CallPriority::High, None), "high", vec![], &target)
            })
        };
        while layer.queue_depth() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(occupant.join().unwrap().is_ok());
        assert!(low.join().unwrap().is_ok());
        assert!(high.join().unwrap().is_ok());
        let order = target.order.lock().clone();
        let hi = order.iter().position(|&o| o == "high").unwrap();
        let lo = order.iter().position(|&o| o == "low").unwrap();
        assert!(hi < lo, "high priority must dispatch first, got {order:?}");
    }

    #[test]
    fn infeasible_deadline_shed_once_calibrated() {
        let policy = AdmissionPolicy {
            max_concurrent: 1,
            queue_capacity: 8,
            max_wait: Duration::from_secs(5),
            ..AdmissionPolicy::default()
        };
        let layer = AdmissionLayer::new(policy);
        // Calibrate the EWMA with one slow call.
        let slow = Target::holding(50);
        assert!(layer
            .dispatch(&ctx_with(CallPriority::Normal, None), "op", vec![], &slow)
            .is_ok());
        // Occupy the slot, then offer a call whose deadline is far below
        // the predicted ~50 ms wait: it must be shed *immediately*.
        let occupant = {
            let (layer, slow) = (Arc::clone(&layer), Arc::clone(&slow));
            std::thread::spawn(move || {
                layer.dispatch(&ctx_with(CallPriority::Normal, None), "op", vec![], &slow)
            })
        };
        while layer.admitted.load(Ordering::Relaxed) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t = Instant::now();
        let out = layer.dispatch(
            &ctx_with(
                CallPriority::Normal,
                Some(Instant::now() + Duration::from_millis(5)),
            ),
            "op",
            vec![],
            &slow,
        );
        assert_eq!(out.termination, Termination::Engineering(Code::Rejected));
        assert!(
            t.elapsed() < Duration::from_millis(40),
            "infeasible call must be shed long before the ~50 ms wait, took {:?}",
            t.elapsed()
        );
        assert!(occupant.join().unwrap().is_ok());
    }
}
