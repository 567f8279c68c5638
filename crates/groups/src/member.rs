//! Group members: the replica wrapper and the total-order machinery.
//!
//! Each replica of the application object is wrapped in a [`GroupServant`]
//! and exported like any other object. The wrapper adds the group
//! engineering operations to the replica's signature and implements the
//! ordering protocol of §5.3:
//!
//! * the **sequencer** (first live member of the view) stamps every client
//!   invocation with a sequence number and relays it to the other members;
//! * every member — sequencer included — applies invocations strictly in
//!   sequence order through a hold-back queue drained by a dedicated
//!   applier thread (acks therefore mean *accepted and ordered*, and the
//!   dispatcher's worker pool can never deadlock on ordering gaps);
//! * a member contacted by a client while not sequencer probes its
//!   predecessors; if any is alive it redirects the client, if all are dead
//!   it **promotes** itself and installs a new view ("tolerant of failures
//!   in members of the group and of changes of membership");
//! * a partitioned-away ex-sequencer that rejoins and tries to reuse
//!   sequence numbers is fenced: relays below a member's apply point answer
//!   [`Code::Fenced`], and the sender then adopts the successor's view and
//!   redirects its client instead of acknowledging a split-brain write.
//!
//! In hot-standby mode relays are announcements; a lost relay would stall
//! the hold-back queue forever, so gaps older than `GAP_TIMEOUT` are
//! skipped and counted — the availability-versus-completeness trade-off the
//! paper assigns to standby schemes, made measurable.

use crate::replicate::GroupPolicy;
use crate::view::GroupView;
use odp_core::{CallCtx, Capsule, Code, InvokeError, Outcome, Servant, TransparencyPolicy};
use odp_net::CallQos;
use odp_types::signature::{OperationSig, OutcomeSig};
use odp_types::{InterfaceId, InterfaceType, TypeSpec};
use odp_wire::Value;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Engineering operation names added to every group member's signature.
pub mod ops {
    /// `__grp_relay(seq, op, payload) -> ok` — ordered delivery from the
    /// sequencer.
    pub(super) const RELAY: &str = "__grp_relay";
    /// `__grp_view(encoded_view) -> ok` — view installation.
    pub(super) const VIEW: &str = "__grp_view";
    /// `__grp_get_view() -> ok(encoded_view)`.
    pub(super) const GET_VIEW: &str = "__grp_get_view";
    /// `__grp_ping() -> ok` — liveness probe used before promotion.
    pub const PING: &str = "__grp_ping";
    /// `__grp_relay_async(seq, op, payload)` — the announcement twin of
    /// [`RELAY`] used in hot-standby mode (an operation must be declared as
    /// exactly one kind).
    pub(super) const RELAY_ASYNC: &str = "__grp_relay_async";
}

/// How long the applier waits for a sequence gap before skipping it.
const GAP_TIMEOUT: Duration = Duration::from_millis(500);

/// QoS used for predecessor liveness probes.
const PROBE_QOS: CallQos = CallQos {
    deadline: Duration::from_millis(200),
    retry_interval: Duration::from_millis(50),
    // Probes are control-plane traffic: they must get through ahead of the
    // application load whose health they are measuring.
    priority: odp_wire::CallPriority::High,
};

struct Job {
    op: String,
    args: Vec<Value>,
    ctx: CallCtx,
    reply: Option<crossbeam::channel::Sender<Outcome>>,
}

#[derive(Default)]
struct OrderState {
    /// Next sequence number the sequencer will assign.
    next_seq: u64,
    /// Next sequence number to apply.
    next_apply: u64,
    holdback: BTreeMap<u64, Job>,
}

/// Ordering state shared between the servant and its applier thread.
///
/// The applier waits on this — and only this — while idle: it must never
/// hold a strong handle to the servant across a wait, or the servant (and
/// the thread itself) could never be dropped.
struct OrderShared {
    state: Mutex<OrderState>,
    wake: Condvar,
    running: AtomicBool,
    gaps_skipped: AtomicU64,
}

/// One group member: the application replica plus ordering state.
pub struct GroupServant {
    app: Arc<dyn Servant>,
    app_ty: InterfaceType,
    policy: GroupPolicy,
    capsule: Mutex<Option<Weak<Capsule>>>,
    my_iface: Mutex<Option<InterfaceId>>,
    view: RwLock<GroupView>,
    shared: Arc<OrderShared>,
    applier: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Operations applied to the replica (experiment accounting).
    pub applied: AtomicU64,
    /// Promotions performed by this member.
    pub promotions: AtomicU64,
}

impl GroupServant {
    /// Wraps an application replica. The applier thread starts immediately.
    #[must_use]
    pub fn new(app: Arc<dyn Servant>, policy: GroupPolicy) -> Arc<Self> {
        let app_ty = app.interface_type();
        let shared = Arc::new(OrderShared {
            state: Mutex::new(OrderState::default()),
            wake: Condvar::new(),
            running: AtomicBool::new(true),
            gaps_skipped: AtomicU64::new(0),
        });
        let member = Arc::new(Self {
            app,
            app_ty,
            policy,
            capsule: Mutex::new(None),
            my_iface: Mutex::new(None),
            view: RwLock::new(GroupView {
                group: odp_types::GroupId(0),
                version: 0,
                members: Vec::new().into(),
            }),
            shared: Arc::clone(&shared),
            applier: Mutex::new(None),
            applied: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&member);
        match std::thread::Builder::new()
            .name("group-applier".into())
            .spawn(move || Self::applier_loop(&shared, &weak))
        {
            Ok(handle) => *member.applier.lock() = Some(handle),
            Err(_) => {
                // No applier thread means no job will ever be applied.
                // Degrade rather than panic: mark the member stopped so
                // client operations report "replica applier stalled"
                // instead of tearing down the hosting capsule.
                member.shared.running.store(false, Ordering::SeqCst);
            }
        }
        member
    }

    /// Records the hosting capsule (needed for relays and probes).
    pub fn attach_capsule(&self, capsule: &Arc<Capsule>) {
        *self.capsule.lock() = Some(Arc::downgrade(capsule));
    }

    /// Records this member's exported identity.
    pub fn set_identity(&self, iface: InterfaceId) {
        *self.my_iface.lock() = Some(iface);
    }

    /// This member's exported identity, if set.
    #[must_use]
    pub fn identity(&self) -> Option<InterfaceId> {
        *self.my_iface.lock()
    }

    /// Installs a view (local side of `__grp_view`).
    pub fn set_view(&self, view: GroupView) {
        let mut current = self.view.write();
        if view.version > current.version {
            *current = view;
        }
    }

    /// Current view.
    #[must_use]
    pub fn view(&self) -> GroupView {
        self.view.read().clone()
    }

    /// The application replica (for state inspection in tests and joins).
    #[must_use]
    pub fn app(&self) -> &Arc<dyn Servant> {
        &self.app
    }

    /// Sequence number of the next operation to apply (join state
    /// transfer).
    #[must_use]
    pub fn next_apply(&self) -> u64 {
        self.shared.state.lock().next_apply
    }

    /// Sequence gaps skipped after `GAP_TIMEOUT` (standby data loss).
    #[must_use]
    pub fn gaps_skipped(&self) -> u64 {
        self.shared.gaps_skipped.load(Ordering::Relaxed)
    }

    /// Primes the ordering state of a freshly joined member so it continues
    /// from the donor's position.
    pub fn prime(&self, next_seq: u64, next_apply: u64) {
        let mut order = self.shared.state.lock();
        order.next_seq = next_seq;
        order.next_apply = next_apply;
    }

    fn capsule_handle(&self) -> Option<Arc<Capsule>> {
        self.capsule.lock().as_ref().and_then(Weak::upgrade)
    }

    fn my_position(&self, view: &GroupView) -> Option<usize> {
        let my = (*self.my_iface.lock())?;
        view.position_of(my)
    }

    /// Enqueues a job at `seq`; returns a receiver for its outcome if
    /// `want_reply`.
    fn enqueue(
        &self,
        seq: u64,
        job_op: String,
        args: Vec<Value>,
        ctx: CallCtx,
        want_reply: bool,
    ) -> Option<crossbeam::channel::Receiver<Outcome>> {
        let (tx, rx) = if want_reply {
            let (tx, rx) = crossbeam::channel::bounded(1);
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let mut order = self.shared.state.lock();
        order.holdback.insert(
            seq,
            Job {
                op: job_op,
                args,
                ctx,
                reply: tx,
            },
        );
        self.shared.wake.notify_all();
        rx
    }

    fn applier_loop(shared: &Arc<OrderShared>, weak: &Weak<GroupServant>) {
        loop {
            // Wait for a ready job holding only the shared ordering state:
            // holding a strong servant handle here would keep the servant
            // (and this thread) alive forever.
            let job = {
                let mut order = shared.state.lock();
                loop {
                    if !shared.running.load(Ordering::SeqCst) {
                        return;
                    }
                    let next = order.next_apply;
                    if let Some(job) = order.holdback.remove(&next) {
                        order.next_apply += 1;
                        break job;
                    }
                    match order.holdback.keys().next().copied() {
                        Some(smallest) if smallest < next => {
                            // Stale duplicate: drop it.
                            order.holdback.remove(&smallest);
                            continue;
                        }
                        Some(_waiting_for_gap) => {
                            // A later op exists but `next` is missing: wait
                            // up to GAP_TIMEOUT, then skip the gap.
                            let timed_out =
                                shared.wake.wait_for(&mut order, GAP_TIMEOUT).timed_out();
                            if timed_out
                                && order
                                    .holdback
                                    .keys()
                                    .next()
                                    .is_some_and(|s| *s > order.next_apply)
                                && !order.holdback.contains_key(&order.next_apply)
                            {
                                shared.gaps_skipped.fetch_add(1, Ordering::Relaxed);
                                order.next_apply += 1;
                            }
                            continue;
                        }
                        None => {
                            shared.wake.wait_for(&mut order, GAP_TIMEOUT);
                            continue;
                        }
                    }
                }
            };
            // Only now take a strong handle, for the duration of one
            // dispatch.
            let Some(me) = weak.upgrade() else { return };
            let outcome = me.app.dispatch(&job.op, job.args, &job.ctx);
            me.applied.fetch_add(1, Ordering::Relaxed);
            if let Some(tx) = job.reply {
                let _ = tx.send(outcome);
            }
        }
    }

    /// Handles a client (application) operation arriving at this member.
    fn handle_client_op(&self, op: &str, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        // Reads could be served locally in some schemes; the paper's model
        // requires a single order for all state changes, so everything goes
        // through the sequencer.
        let view = self.view();
        match self.my_position(&view) {
            Some(0) => { /* we are the sequencer */ }
            Some(p) => {
                // Probe predecessors; redirect to the first live one.
                if let Some(alive) = self.first_live_predecessor(&view, p) {
                    return redirect(alive);
                }
                // All predecessors dead: promote.
                self.promote(&view, p);
            }
            None => {
                // Expelled from the view (a successor promoted past us, or
                // the manager removed us): point the client at the current
                // sequencer instead of failing the call.
                return match view.members.first() {
                    Some(m) => redirect(m.home),
                    None => Outcome::fail("member is not in the group view"),
                };
            }
        }
        let view = self.view();
        // Assign the next sequence number.
        let seq = {
            let mut order = self.shared.state.lock();
            if order.next_seq < order.next_apply {
                order.next_seq = order.next_apply;
            }
            let seq = order.next_seq;
            order.next_seq += 1;
            seq
        };
        // Relay to the other members.
        let my = *self.my_iface.lock();
        let payload = odp_wire::marshal(&args);
        if let Some(capsule) = self.capsule_handle() {
            let relay_args = vec![
                Value::Int(seq as i64),
                Value::str(op),
                Value::Bytes(payload.clone()),
            ];
            for member in view.members.iter().filter(|m| Some(m.iface) != my) {
                let binding = capsule.bind_with(
                    member.clone(),
                    TransparencyPolicy::minimal()
                        .with_qos(CallQos::with_deadline(Duration::from_secs(2))),
                );
                match self.policy {
                    GroupPolicy::Active => {
                        // Synchronous: reply only after every reachable
                        // member has accepted the ordered operation.
                        let reply = binding.interrogate(ops::RELAY, relay_args.clone());
                        if let Err(InvokeError::Fenced(_)) = reply {
                            // The member already applied this sequence
                            // number: a successor promoted while we were
                            // unreachable and owns the sequence now.
                            // Adopt its view and redirect the client
                            // rather than acking a split-brain write.
                            if let Ok(vout) = binding.interrogate(ops::GET_VIEW, vec![]) {
                                if let Some(v) = vout.results.first().and_then(GroupView::decode) {
                                    self.set_view(v);
                                }
                            }
                            let target = self
                                .view()
                                .members
                                .iter()
                                .find(|m| Some(m.iface) != my)
                                .map_or(member.home, |m| m.home);
                            return redirect(target);
                        }
                    }
                    GroupPolicy::HotStandby => {
                        let _ = binding.announce(ops::RELAY_ASYNC, relay_args.clone());
                    }
                }
            }
        }
        // Apply locally in order and reply with the replica's outcome.
        let Some(rx) = self.enqueue(seq, op.to_owned(), args, ctx.clone(), true) else {
            return Outcome::fail("replica applier stalled");
        };
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| Outcome::fail("replica applier stalled"))
    }

    fn first_live_predecessor(&self, view: &GroupView, my_pos: usize) -> Option<odp_types::NodeId> {
        let capsule = self.capsule_handle()?;
        // odp-lint: allow(l1, reason = "my_pos is this member's position() in the same members vec")
        for pred in &view.members[..my_pos] {
            let binding = capsule.bind_with(
                pred.clone(),
                TransparencyPolicy::minimal().with_qos(PROBE_QOS),
            );
            if binding.interrogate(ops::PING, vec![]).is_ok() {
                return Some(pred.home);
            }
        }
        None
    }

    fn promote(&self, view: &GroupView, my_pos: usize) {
        self.promotions.fetch_add(1, Ordering::Relaxed);
        let mut new_view = view.clone();
        new_view.members = view.members.iter().skip(my_pos).cloned().collect();
        new_view.version += 1;
        self.set_view(new_view.clone());
        // Push the view to our successors (best effort).
        if let Some(capsule) = self.capsule_handle() {
            let my = *self.my_iface.lock();
            for member in new_view.members.iter().filter(|m| Some(m.iface) != my) {
                let binding = capsule.bind_with(
                    member.clone(),
                    TransparencyPolicy::minimal().with_qos(PROBE_QOS),
                );
                let _ = binding.interrogate(ops::VIEW, vec![new_view.encode()]);
            }
        }
    }

    fn handle_relay(&self, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        let (Some(seq), Some(op), Some(payload)) = (
            args.first().and_then(Value::as_int),
            args.get(1).and_then(Value::as_str),
            args.get(2).and_then(Value::as_bytes),
        ) else {
            return Outcome::fail("relay requires (seq, op, payload)");
        };
        let Ok(app_args) = odp_wire::unmarshal(payload) else {
            return Outcome::fail("relay payload corrupt");
        };
        // Keep our own sequence allocator ahead in case of promotion.
        {
            let mut order = self.shared.state.lock();
            if order.next_seq <= seq as u64 {
                order.next_seq = seq as u64 + 1;
            }
            if order.holdback.contains_key(&(seq as u64)) {
                // Same-sequence retransmission: already accepted.
                return Outcome::ok(vec![]);
            }
            if (seq as u64) < order.next_apply {
                // A freshly invoked relay below our apply point: the sender
                // is assigning sequence numbers it no longer owns — it
                // missed a promotion (e.g. it was partitioned away while a
                // successor took over). Tell it, so it adopts the current
                // view instead of acking split-brain writes.
                return Outcome::engineering(
                    Code::Fenced,
                    vec![Value::Int(order.next_apply as i64)],
                );
            }
        }
        self.enqueue(seq as u64, op.to_owned(), app_args, ctx.clone(), false);
        Outcome::ok(vec![])
    }
}

impl Drop for GroupServant {
    fn drop(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        {
            let _order = self.shared.state.lock();
            self.shared.wake.notify_all();
        }
        if let Some(h) = self.applier.lock().take() {
            if std::thread::current().id() != h.thread().id() {
                let _ = h.join();
            }
        }
    }
}

impl Servant for GroupServant {
    fn interface_type(&self) -> InterfaceType {
        let mut ops_list: Vec<OperationSig> = self.app_ty.operations().to_vec();
        ops_list.push(OperationSig::interrogation(
            ops::RELAY,
            vec![TypeSpec::Int, TypeSpec::Str, TypeSpec::Bytes],
            vec![OutcomeSig::ok(vec![])],
        ));
        ops_list.push(OperationSig::announcement(
            ops::RELAY_ASYNC,
            vec![TypeSpec::Int, TypeSpec::Str, TypeSpec::Bytes],
        ));
        ops_list.push(OperationSig::interrogation(
            ops::VIEW,
            vec![TypeSpec::Any],
            vec![OutcomeSig::ok(vec![])],
        ));
        ops_list.push(OperationSig::interrogation(
            ops::GET_VIEW,
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::Any])],
        ));
        ops_list.push(OperationSig::interrogation(
            ops::PING,
            vec![],
            vec![OutcomeSig::ok(vec![])],
        ));
        InterfaceType::new(ops_list)
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        match op {
            ops::RELAY | ops::RELAY_ASYNC => self.handle_relay(args, ctx),
            ops::VIEW => match args.first().and_then(GroupView::decode) {
                Some(view) => {
                    self.set_view(view);
                    Outcome::ok(vec![])
                }
                None => Outcome::fail("bad view encoding"),
            },
            ops::GET_VIEW => Outcome::ok(vec![self.view().encode()]),
            ops::PING => Outcome::ok(vec![]),
            _ => self.handle_client_op(op, args, ctx),
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.app.snapshot()
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), String> {
        self.app.restore(snapshot)
    }
}

impl std::fmt::Debug for GroupServant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupServant")
            .field("policy", &self.policy)
            .field("view", &self.view.read().version)
            .field("applied", &self.applied.load(Ordering::Relaxed))
            .finish()
    }
}

/// The answer to a client that reached a member other than the live
/// sequencer: send the call to `node` instead.
fn redirect(node: odp_types::NodeId) -> Outcome {
    Outcome::engineering(Code::Redirect, vec![Value::Int(node.raw() as i64)])
}
