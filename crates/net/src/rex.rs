//! REX — the Remote EXecution protocol.
//!
//! §4.1 of the paper selects "the exchange of request and response messages"
//! as the one interaction style, and §5.1 requires two invocation kinds:
//! *interrogation* (request/reply) and *announcement* (request-only). REX is
//! the engineering realization on top of the unreliable [`Transport`]:
//!
//! * **Retransmission under a deadline**: each call carries a [`CallQos`]
//!   ("communications quality of service constraints must be specified
//!   (either explicitly or by default)"). The request is retransmitted every
//!   `retry_interval` until a reply arrives or `deadline` expires.
//! * **At-most-once execution**: servers keep one bounded record per
//!   `(caller, call id)`, either *running* or holding the call's reply. A
//!   retransmitted request whose execution completed is answered from its
//!   record; one still running is dropped (its reply is on the way). The
//!   handler therefore runs **at most once per call id** even under heavy
//!   retransmission — the property every transparency above (transactions
//!   especially) depends on. A handler that panics is answered with an
//!   empty body, recorded like any reply, so a panic costs its call but
//!   never a worker.
//! * **Announcements** are a single datagram: "in the case of announcement
//!   \[failure reporting\] is not possible" (§5.1).
//! * **One bounded job queue** of [`JOB_QUEUE_CAP`] feeds the `rex-worker`
//!   threads: requests from the frame sink, and the node's own jobs (its
//!   co-located announcements) from [`RexEndpoint::try_execute`]. Neither
//!   feed blocks: on a full queue the sink drops the request (a
//!   retransmission recovers an interrogation) and `try_execute` hands the
//!   job back. A worker that finishes a job polls the queue for
//!   `IDLE_WINDOW` (20 µs) before it parks, so a job that arrives inside the
//!   window is queued without a wake-up system call. A panicking job, like
//!   a panicking handler, costs itself and never its worker.
//!
//! The reply body is opaque: application-level terminations (including
//! failure terminations) are encoded by `odp-core` *inside* the body, so a
//! REX-level error always means an engineering failure (unreachable,
//! timeout), never an application outcome.

use crate::transport::{Envelope, NetError, Transport};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use odp_telemetry::TraceContext;
use odp_types::{InterfaceId, NodeId};
use odp_wire::overload::{get_overload, put_overload, OVERLOAD_WIRE_LEN};
use odp_wire::trace::get_trace;
use odp_wire::{CallPriority, PooledBuf};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-call quality of service constraints (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallQos {
    /// Total time budget for the interrogation.
    pub deadline: Duration,
    /// Gap between retransmissions of an unanswered request.
    pub retry_interval: Duration,
    /// Scheduling class stamped into the request envelope; the server's
    /// admission control queues (and sheds) by it under overload.
    pub priority: CallPriority,
}

impl Default for CallQos {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
            retry_interval: Duration::from_millis(100),
            priority: CallPriority::Normal,
        }
    }
}

impl CallQos {
    /// QoS with the given deadline and a retry interval of a quarter of it
    /// (at least 1 ms).
    #[must_use]
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline,
            retry_interval: (deadline / 4).max(Duration::from_millis(1)),
            priority: CallPriority::Normal,
        }
    }

    /// This QoS with its deadline clamped to `remaining` — deadline
    /// propagation: a layer that knows the caller's *end-to-end* budget
    /// shrinks each attempt's deadline to what is actually left, so stacked
    /// retries can never exceed the caller's total deadline.
    #[must_use]
    pub fn clamp_to(self, remaining: Duration) -> Self {
        Self {
            deadline: self.deadline.min(remaining),
            retry_interval: self.retry_interval,
            priority: self.priority,
        }
    }
}

/// Errors surfaced by REX calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RexError {
    /// No reply within the QoS deadline (server slow, dead, or partitioned
    /// — indistinguishable by design, §4.1).
    Timeout,
    /// The destination is not registered on the transport (fast failure).
    Unreachable(NodeId),
    /// Underlying transport failure.
    Transport(NetError),
    /// The endpoint has been shut down.
    Closed,
    /// A peer sent bytes that do not parse as a REX message.
    Malformed,
}

impl fmt::Display for RexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RexError::Timeout => write!(f, "call deadline exceeded"),
            RexError::Unreachable(n) => write!(f, "node {n} unreachable"),
            RexError::Transport(e) => write!(f, "transport error: {e}"),
            RexError::Closed => write!(f, "endpoint closed"),
            RexError::Malformed => write!(f, "malformed REX message"),
        }
    }
}

impl std::error::Error for RexError {}

/// An incoming request as seen by the server handler.
#[derive(Debug, Clone)]
pub struct RexRequest {
    /// Calling node.
    pub from: NodeId,
    /// Target interface.
    pub iface: InterfaceId,
    /// Operation name.
    pub op: String,
    /// Marshalled argument payload.
    pub body: Bytes,
    /// True for announcements (no reply will be sent).
    pub announcement: bool,
    /// Trace context carried in the request envelope
    /// ([`TraceContext::NONE`] when the caller was untraced).
    pub trace: TraceContext,
    /// Scheduling class carried in the request envelope; admission
    /// control queues (and sheds) by it under overload.
    pub priority: CallPriority,
    /// Absolute deadline reconstructed from the envelope's relative
    /// budget, anchored when the frame is parsed on arrival, so time
    /// queued for a worker counts against it. `None` when the caller sent
    /// no budget (announcements).
    pub deadline: Option<Instant>,
}

/// Server-side request handler: returns the marshalled reply body in a
/// pooled buffer (the REX worker frames it, sends it, and keeps the body
/// in the call's record; eviction recycles the buffer).
type Handler = Arc<dyn Fn(RexRequest) -> PooledBuf + Send + Sync>;

const KIND_REQUEST: u8 = 0;
const KIND_REPLY: u8 = 1;
const KIND_ANNOUNCE: u8 = 2;

fn encode_request(
    kind: u8,
    call_id: u64,
    trace: &TraceContext,
    // Wire-envelope overload fields: (priority, relative budget in µs).
    (priority, budget_micros): (CallPriority, u64),
    iface: InterfaceId,
    op: &str,
    body: &[u8],
) -> PooledBuf {
    let mut buf = PooledBuf::acquire(
        1 + 8 + TraceContext::WIRE_LEN + OVERLOAD_WIRE_LEN + 8 + 2 + op.len() + body.len(),
    );
    buf.extend_from_slice(&[kind]);
    buf.extend_from_slice(&call_id.to_be_bytes());
    odp_wire::trace::put_trace(&mut buf, trace);
    put_overload(&mut buf, priority, budget_micros);
    buf.extend_from_slice(&iface.raw().to_be_bytes());
    buf.extend_from_slice(&(op.len() as u16).to_be_bytes());
    buf.extend_from_slice(op.as_bytes());
    buf.extend_from_slice(body);
    buf
}

fn encode_reply(call_id: u64, body: &[u8]) -> PooledBuf {
    let mut buf = PooledBuf::acquire(1 + 8 + body.len());
    buf.extend_from_slice(&[KIND_REPLY]);
    buf.extend_from_slice(&call_id.to_be_bytes());
    buf.extend_from_slice(body);
    buf
}

enum Parsed {
    /// A request or announcement, with its call id.
    Request(u64, RexRequest),
    Reply {
        call_id: u64,
        body: Bytes,
    },
}

/// Parses a frame from `from`. A request's relative deadline budget is
/// anchored here, on arrival.
fn parse(from: NodeId, mut payload: Bytes) -> Result<Parsed, RexError> {
    use bytes::Buf;
    if payload.len() < 9 {
        return Err(RexError::Malformed);
    }
    let kind = payload.get_u8();
    let call_id = payload.get_u64();
    match kind {
        KIND_REPLY => Ok(Parsed::Reply {
            call_id,
            body: payload,
        }),
        KIND_REQUEST | KIND_ANNOUNCE => {
            let trace = get_trace(&mut payload).ok_or(RexError::Malformed)?;
            let (priority, budget_micros) =
                get_overload(&mut payload).ok_or(RexError::Malformed)?;
            let deadline =
                (budget_micros > 0).then(|| Instant::now() + Duration::from_micros(budget_micros));
            if payload.len() < 10 {
                return Err(RexError::Malformed);
            }
            let iface = InterfaceId(payload.get_u64());
            let op_len = payload.get_u16() as usize;
            if payload.len() < op_len {
                return Err(RexError::Malformed);
            }
            let op_bytes = payload.split_to(op_len);
            let op = std::str::from_utf8(&op_bytes)
                .map_err(|_| RexError::Malformed)?
                .to_owned();
            Ok(Parsed::Request(
                call_id,
                RexRequest {
                    from,
                    iface,
                    op,
                    body: payload,
                    announcement: kind == KIND_ANNOUNCE,
                    trace,
                    priority,
                    deadline,
                },
            ))
        }
        _ => Err(RexError::Malformed),
    }
}

/// Capacity of an endpoint's job queue: requests waiting for a worker plus
/// local jobs queued by [`RexEndpoint::try_execute`].
pub const JOB_QUEUE_CAP: usize = 1024;

/// Work an endpoint's own node queues on its workers (a co-located
/// announcement), as opposed to a request that arrived as a frame.
type LocalJob = Box<dyn FnOnce() + Send>;

/// How long an idle `rex-worker` keeps polling its job queue, yielding the
/// CPU between polls, before it parks. The job channel signals only a
/// parked receiver, so a job queued inside the window costs its sender no
/// wake-up system call and no thread has to be scheduled. About twice the
/// park-and-wake round trip measured on a 2-vCPU VM, so a worker never
/// polls longer than the wake-up it saves.
const IDLE_WINDOW: Duration = Duration::from_micros(20);

/// How long a parked worker sleeps before re-checking that its endpoint
/// still runs. Shutdown wakes workers with [`Job::Stop`]; this only backs
/// up a stop that found the queue full.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

/// Bound on completed calls remembered per endpoint; beyond it the oldest
/// are evicted (a retransmission arriving later than this is answered by
/// re-execution being suppressed at the transaction layer).
const REPLY_CACHE_CAP: usize = 4096;

/// The server's record of one interrogation, keyed by `(caller, call id)`.
enum CallRecord {
    /// On a worker now: a duplicate is dropped, its reply is on the way.
    Running,
    /// Done: a duplicate is answered with this reply body (pooled;
    /// eviction recycles it).
    Replied(PooledBuf),
}

struct ServerState {
    calls: HashMap<(NodeId, u64), CallRecord>,
    /// Completed calls, oldest first, for eviction.
    order: VecDeque<(NodeId, u64)>,
}

/// One node's REX protocol engine: client and server side in one object, as
/// the paper notes "some applications may be both client and server
/// simultaneously" (§6).
pub struct RexEndpoint {
    node: NodeId,
    transport: Arc<dyn Transport>,
    pending: Mutex<HashMap<u64, Sender<Bytes>>>,
    next_call: AtomicU64,
    handler: OnceLock<Handler>,
    server: Mutex<ServerState>,
    running: AtomicBool,
    job_tx: Sender<Job>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Calls issued (for experiment accounting).
    pub calls_sent: AtomicU64,
    /// Requests executed by the handler (deduplicated count).
    pub requests_executed: AtomicU64,
    /// Duplicate requests suppressed or answered from their record.
    pub duplicates_suppressed: AtomicU64,
    /// Calls that failed because their deadline budget ran out (including
    /// calls issued with an already-exhausted budget).
    pub deadlines_expired: AtomicU64,
    /// Incoming frames dropped because they did not parse as REX messages
    /// (hostile or corrupt peer; each drop is also a telemetry event).
    pub malformed_dropped: AtomicU64,
    /// Incoming requests dropped because the job queue was full (each drop
    /// is also a `rex.queue_full` telemetry event).
    pub queue_full_dropped: AtomicU64,
    /// Requests whose handler panicked; each was answered with an empty
    /// body and is also a `rex.handler_panic` telemetry event.
    pub handler_panics: AtomicU64,
}

/// One entry of the workers' queue.
enum Job {
    /// A request that arrived as a frame, with its call id.
    Remote(u64, RexRequest),
    /// Work queued by this endpoint's own node.
    Local(LocalJob),
    /// Shutdown: the worker that takes it exits.
    Stop,
}

impl RexEndpoint {
    /// Registers `node` on `transport` and starts `workers` handler
    /// threads. Frames are parsed on the transport's delivering thread:
    /// replies go straight to their waiting caller, requests onto the
    /// workers' bounded job queue.
    ///
    /// # Errors
    ///
    /// Any [`NetError`] from registration.
    pub fn new(
        transport: Arc<dyn Transport>,
        node: NodeId,
        workers: usize,
    ) -> Result<Arc<Self>, NetError> {
        let (job_tx, job_rx) = bounded::<Job>(JOB_QUEUE_CAP);
        let ep = Arc::new(Self {
            node,
            transport,
            pending: Mutex::new(HashMap::new()),
            // Seed the call-id space from the clock so ids from a restarted
            // node do not collide with ids its predecessor left in peer
            // call records.
            next_call: AtomicU64::new(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(1)
                    | 1,
            ),
            handler: OnceLock::new(),
            server: Mutex::new(ServerState {
                calls: HashMap::new(),
                order: VecDeque::new(),
            }),
            running: AtomicBool::new(true),
            job_tx,
            threads: Mutex::new(Vec::new()),
            calls_sent: AtomicU64::new(0),
            requests_executed: AtomicU64::new(0),
            duplicates_suppressed: AtomicU64::new(0),
            deadlines_expired: AtomicU64::new(0),
            malformed_dropped: AtomicU64::new(0),
            queue_full_dropped: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
        });
        let sink_ep = Arc::downgrade(&ep);
        let registered = ep.transport.register(
            node,
            Arc::new(move |env| {
                if let Some(ep) = sink_ep.upgrade() {
                    ep.deliver(env);
                }
            }),
        );
        if let Err(e) = registered {
            // Not ours to deregister: the id may belong to a live endpoint.
            ep.running.store(false, Ordering::SeqCst);
            return Err(e);
        }
        let mut threads = Vec::new();
        for w in 0..workers.max(1) {
            let worker_ep = Arc::clone(&ep);
            let rx = job_rx.clone();
            match std::thread::Builder::new()
                .name(format!("rex-worker-{node}-{w}"))
                .spawn(move || worker_ep.worker(&rx))
            {
                Ok(h) => threads.push(h),
                Err(e) => {
                    // Unwind cleanly: stop the threads already running and
                    // free the node id, then report instead of panicking.
                    ep.running.store(false, Ordering::SeqCst);
                    ep.transport.deregister(node);
                    return Err(NetError::Io(format!("spawn worker thread: {e}")));
                }
            }
        }
        *ep.threads.lock() = threads;
        Ok(ep)
    }

    /// The node this endpoint speaks for.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Installs the server-side handler. An endpoint serves one handler
    /// for its whole life, so workers read it without a lock: the first
    /// installation wins and later ones are ignored. Until one is
    /// installed, interrogations are answered with an empty body.
    pub fn set_handler(&self, handler: Handler) {
        // odp-lint: allow(l6, reason = "the first handler stays installed; a later one is dropped, as documented")
        let _ = self.handler.set(handler);
    }

    /// Performs an interrogation: sends the request stamped with `trace`,
    /// retransmits per QoS, and blocks for the reply body.
    ///
    /// # Errors
    ///
    /// [`RexError::Timeout`] after the deadline, [`RexError::Unreachable`]
    /// if the destination is unregistered, or transport failures.
    pub fn call(
        &self,
        to: NodeId,
        iface: InterfaceId,
        op: &str,
        body: &[u8],
        qos: CallQos,
        trace: TraceContext,
    ) -> Result<Bytes, RexError> {
        if !self.running.load(Ordering::SeqCst) {
            return Err(RexError::Closed);
        }
        if qos.deadline.is_zero() {
            // The caller's end-to-end budget is already spent: fail fast
            // without touching the network (deadline propagation clamps
            // retries down to zero rather than skipping them implicitly).
            self.deadlines_expired.fetch_add(1, Ordering::Relaxed);
            return Err(RexError::Timeout);
        }
        self.calls_sent.fetch_add(1, Ordering::Relaxed);
        let call_id = self.next_call.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.pending.lock().insert(call_id, tx);
        let cleanup = PendingGuard {
            pending: &self.pending,
            call_id,
        };
        // Encoded once into a pooled buffer and reused verbatim for every
        // retransmission; the drop at return recycles it. The deadline
        // budget is *relative* (clocks are unsynchronized): the server
        // re-anchors it at arrival, so it is stamped once at first send —
        // retransmissions deliberately carry the original budget, since a
        // duplicate is answered from its record anyway.
        let budget_micros = u64::try_from(qos.deadline.as_micros()).unwrap_or(u64::MAX);
        let msg = encode_request(
            KIND_REQUEST,
            call_id,
            &trace,
            (qos.priority, budget_micros),
            iface,
            op,
            body,
        );
        let deadline = Instant::now() + qos.deadline;
        loop {
            match self.transport.send_frame(self.node, to, &msg) {
                Ok(()) => {}
                Err(NetError::UnknownNode(n) | NetError::Unreachable(n)) => {
                    return Err(RexError::Unreachable(n))
                }
                Err(e) => return Err(RexError::Transport(e)),
            }
            let now = Instant::now();
            if now >= deadline {
                self.deadlines_expired.fetch_add(1, Ordering::Relaxed);
                return Err(RexError::Timeout);
            }
            let wait = qos.retry_interval.min(deadline - now);
            match rx.recv_timeout(wait) {
                Ok(reply) => {
                    drop(cleanup);
                    return Ok(reply);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        self.deadlines_expired.fetch_add(1, Ordering::Relaxed);
                        return Err(RexError::Timeout);
                    }
                    // Loop: retransmit.
                }
                Err(RecvTimeoutError::Disconnected) => return Err(RexError::Closed),
            }
        }
    }

    /// Sends an announcement stamped with `trace`: one datagram, no reply,
    /// no retransmission.
    ///
    /// # Errors
    ///
    /// Only *local* engineering errors (unknown destination, transport
    /// closed) are reported; remote failure is invisible by design (§5.1).
    pub fn announce(
        &self,
        to: NodeId,
        iface: InterfaceId,
        op: &str,
        body: &[u8],
        trace: TraceContext,
    ) -> Result<(), RexError> {
        if !self.running.load(Ordering::SeqCst) {
            return Err(RexError::Closed);
        }
        let call_id = self.next_call.fetch_add(1, Ordering::Relaxed);
        // Announcements are best-effort bulk traffic with no reply and no
        // caller waiting: lowest priority, no deadline budget.
        let msg = encode_request(
            KIND_ANNOUNCE,
            call_id,
            &trace,
            (CallPriority::Low, 0),
            iface,
            op,
            body,
        );
        match self.transport.send_frame(self.node, to, &msg) {
            Ok(()) => Ok(()),
            Err(NetError::UnknownNode(n) | NetError::Unreachable(n)) => {
                Err(RexError::Unreachable(n))
            }
            Err(e) => Err(RexError::Transport(e)),
        }
    }

    /// Queues `job` to run on one of this endpoint's workers, without
    /// blocking.
    ///
    /// # Errors
    ///
    /// Hands `job` back when the queue is full or the endpoint is shut
    /// down, so the caller can run it itself.
    pub fn try_execute(&self, job: LocalJob) -> Result<(), LocalJob> {
        if !self.running.load(Ordering::SeqCst) {
            return Err(job);
        }
        match self.job_tx.try_send(Job::Local(job)) {
            Ok(()) => Ok(()),
            Err(refused) => match refused.into_inner() {
                Job::Local(job) => Err(job),
                // Only a local job was offered, so only one comes back.
                Job::Remote(..) | Job::Stop => Ok(()),
            },
        }
    }

    /// Shuts the endpoint down: deregisters from the transport and joins
    /// all protocol threads. Idempotent.
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        self.transport.deregister(self.node);
        // Wake pending callers.
        self.pending.lock().clear();
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        // One stop per worker, queued behind the jobs already waiting, so
        // a parked worker exits now rather than at its next park timeout.
        for _ in 0..threads.len() {
            // odp-lint: allow(l6, reason = "a full queue keeps its workers busy; they see `running == false` at their next park timeout")
            let _ = self.job_tx.try_send(Job::Stop);
        }
        for t in threads {
            if std::thread::current().id() != t.thread().id() {
                // odp-lint: allow(l6, reason = "a panicked protocol thread is already counted; shutdown still completes")
                let _ = t.join();
            }
        }
    }

    /// The transport's sink: runs on the delivering thread, so it only
    /// parses and hands off, and never blocks.
    fn deliver(&self, env: Envelope) {
        let from = env.from;
        let frame_len = env.payload.len();
        match parse(from, env.payload) {
            Ok(Parsed::Reply { call_id, body }) => {
                // Take the waiter out under the lock, deliver after
                // releasing it: an `if let` on the locked map would pin
                // the scrutinee temporary — and the pending-map lock —
                // across the channel send.
                let waiter = self.pending.lock().remove(&call_id);
                if let Some(tx) = waiter {
                    // odp-lint: allow(l6, reason = "receiver gone means the caller timed out; dropping the late reply is the protocol's answer")
                    let _ = tx.send(body);
                }
                // Late replies after timeout are silently dropped.
            }
            Ok(Parsed::Request(call_id, req)) => {
                if let Err(TrySendError::Full(_)) = self.job_tx.try_send(Job::Remote(call_id, req))
                {
                    // The sink must not block the delivering thread: drop
                    // the request. The caller's retransmission recovers an
                    // interrogation; an announcement is lost (§5.1).
                    self.queue_full_dropped.fetch_add(1, Ordering::Relaxed);
                    odp_telemetry::hub().event(
                        "rex.queue_full",
                        self.node.raw(),
                        0,
                        format!("dropped request {call_id} from {from}"),
                    );
                }
                // Disconnected: the workers are gone after shutdown, and
                // the peer retries by deadline.
            }
            Err(_) => {
                // Hostile or corrupt peer: drop, never crash (§4.2) —
                // but count the drop and leave a failure event on the
                // timeline so corruption is observable.
                self.malformed_dropped.fetch_add(1, Ordering::Relaxed);
                odp_telemetry::hub().event(
                    "rex.malformed",
                    self.node.raw(),
                    0,
                    format!("dropped {frame_len}-byte frame from {from}"),
                );
            }
        }
    }

    /// Waits for the next job in two phases: polls for [`IDLE_WINDOW`],
    /// then parks. `None` once the endpoint is shut down.
    fn next_job(&self, rx: &Receiver<Job>) -> Option<Job> {
        let poll_until = Instant::now() + IDLE_WINDOW;
        loop {
            match rx.try_recv() {
                Ok(job) => return Some(job),
                Err(TryRecvError::Empty) if Instant::now() < poll_until => {
                    std::thread::yield_now();
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return None,
            }
        }
        loop {
            match rx.recv_timeout(PARK_TIMEOUT) {
                Ok(job) => return Some(job),
                Err(RecvTimeoutError::Timeout) if self.running.load(Ordering::SeqCst) => {}
                Err(_) => return None,
            }
        }
    }

    /// Counts a panic caught on a worker and leaves a `rex.handler_panic`
    /// event.
    fn count_panic(&self, detail: String) {
        self.handler_panics.fetch_add(1, Ordering::Relaxed);
        odp_telemetry::hub().event("rex.handler_panic", self.node.raw(), 0, detail);
    }

    fn worker(self: &Arc<Self>, rx: &Receiver<Job>) {
        while let Some(job) = self.next_job(rx) {
            let (call_id, req) = match job {
                Job::Remote(call_id, req) => (call_id, req),
                Job::Local(run) => {
                    if std::panic::catch_unwind(AssertUnwindSafe(run)).is_err() {
                        self.count_panic("local job panicked".to_owned());
                    }
                    continue;
                }
                Job::Stop => return,
            };
            let (from, announcement) = (req.from, req.announcement);
            let key = (from, call_id);
            if !announcement {
                let mut server = self.server.lock();
                match server.calls.entry(key) {
                    Entry::Vacant(slot) => {
                        slot.insert(CallRecord::Running);
                    }
                    Entry::Occupied(record) => {
                        // A retransmission: do NOT re-execute. A running
                        // call's reply is on its way; a completed call's
                        // reply is resent.
                        self.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
                        if let CallRecord::Replied(body) = record.get() {
                            let reply = encode_reply(call_id, body);
                            drop(server);
                            // odp-lint: allow(l6, reason = "reply delivery is best-effort; the caller's retransmit re-requests it from the record")
                            let _ = self.transport.send_frame(self.node, from, &reply);
                        }
                        continue;
                    }
                }
            }
            let reply_body = match self.handler.get() {
                Some(h) => {
                    self.requests_executed.fetch_add(1, Ordering::Relaxed);
                    // A panicking handler costs its call, not the worker:
                    // the caller gets the handlerless empty reply, recorded
                    // like any other so a retransmission never re-runs it.
                    std::panic::catch_unwind(AssertUnwindSafe(|| h(req))).unwrap_or_else(|_| {
                        self.count_panic(format!("handler panicked on call {call_id} from {from}"));
                        PooledBuf::default()
                    })
                }
                None => PooledBuf::default(),
            };
            if announcement {
                continue;
            }
            let reply = encode_reply(call_id, &reply_body);
            {
                let mut server = self.server.lock();
                // The body moves into the record; eviction recycles it.
                server.calls.insert(key, CallRecord::Replied(reply_body));
                server.order.push_back(key);
                while server.order.len() > REPLY_CACHE_CAP {
                    if let Some(old) = server.order.pop_front() {
                        server.calls.remove(&old);
                    }
                }
            }
            // odp-lint: allow(l6, reason = "reply delivery is best-effort; the caller's retransmit re-requests it from the record")
            let _ = self.transport.send_frame(self.node, from, &reply);
        }
    }
}

impl Drop for RexEndpoint {
    fn drop(&mut self) {
        // Route through `shutdown` so a drop after an explicit shutdown does
        // NOT deregister the node id again: a supervisor may already have
        // re-registered a replacement endpoint under the same id, and a
        // second deregister here would silently tear the replacement down.
        self.shutdown();
    }
}

impl fmt::Debug for RexEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RexEndpoint")
            .field("node", &self.node)
            .field("pending", &self.pending.lock().len())
            .finish()
    }
}

struct PendingGuard<'a> {
    pending: &'a Mutex<HashMap<u64, Sender<Bytes>>>,
    call_id: u64,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.pending.lock().remove(&self.call_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{LinkConfig, SimNet};
    use bytes::{BufMut, BytesMut};

    fn pair(net: &SimNet) -> (Arc<RexEndpoint>, Arc<RexEndpoint>) {
        let t: Arc<dyn Transport> = Arc::new(net.clone());
        let a = RexEndpoint::new(Arc::clone(&t), NodeId(1), 2).unwrap();
        let b = RexEndpoint::new(t, NodeId(2), 2).unwrap();
        (a, b)
    }

    fn echo_handler() -> Handler {
        Arc::new(|req: RexRequest| PooledBuf::from_slice(&req.body))
    }

    #[test]
    fn basic_interrogation() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        b.set_handler(echo_handler());
        let reply = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "echo",
                b"hello",
                CallQos::default(),
                TraceContext::NONE,
            )
            .unwrap();
        assert_eq!(reply, Bytes::from_static(b"hello"));
    }

    #[test]
    fn concurrent_calls_from_many_threads() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        b.set_handler(echo_handler());
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    for j in 0..20u64 {
                        let body = Bytes::copy_from_slice(&(i * 1000 + j).to_be_bytes());
                        let reply = a
                            .call(
                                NodeId(2),
                                InterfaceId(1),
                                "echo",
                                &body,
                                CallQos::default(),
                                TraceContext::NONE,
                            )
                            .unwrap();
                        assert_eq!(reply, body);
                    }
                });
            }
        });
        assert_eq!(a.calls_sent.load(Ordering::Relaxed), 160);
    }

    #[test]
    fn timeout_when_partitioned() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        b.set_handler(echo_handler());
        net.partition(NodeId(1), NodeId(2));
        let err = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "echo",
                b"",
                CallQos::with_deadline(Duration::from_millis(80)),
                TraceContext::NONE,
            )
            .unwrap_err();
        assert_eq!(err, RexError::Timeout);
    }

    #[test]
    fn zero_deadline_fails_fast_without_sending() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        b.set_handler(echo_handler());
        let qos = CallQos::default().clamp_to(Duration::ZERO);
        assert_eq!(qos.deadline, Duration::ZERO);
        let start = Instant::now();
        let err = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "echo",
                b"",
                qos,
                TraceContext::NONE,
            )
            .unwrap_err();
        assert_eq!(err, RexError::Timeout);
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(a.calls_sent.load(Ordering::Relaxed), 0);
        assert_eq!(a.deadlines_expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clamp_to_shrinks_but_never_grows_deadline() {
        let qos = CallQos {
            deadline: Duration::from_millis(500),
            retry_interval: Duration::from_millis(50),
            priority: CallPriority::Normal,
        };
        assert_eq!(
            qos.clamp_to(Duration::from_millis(200)).deadline,
            Duration::from_millis(200)
        );
        assert_eq!(
            qos.clamp_to(Duration::from_secs(10)).deadline,
            Duration::from_millis(500)
        );
        // Retry cadence is untouched by clamping.
        assert_eq!(
            qos.clamp_to(Duration::from_millis(200)).retry_interval,
            Duration::from_millis(50)
        );
    }

    #[test]
    fn unreachable_when_deregistered() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        b.shutdown();
        let err = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "x",
                b"",
                CallQos::default(),
                TraceContext::NONE,
            )
            .unwrap_err();
        assert_eq!(err, RexError::Unreachable(NodeId(2)));
    }

    #[test]
    fn retransmission_recovers_from_loss_and_executes_once() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        b.set_handler(echo_handler());
        // 60% loss both ways: retransmission must push the call through.
        net.set_link_bidir(NodeId(1), NodeId(2), LinkConfig::with_loss(0.6));
        let qos = CallQos {
            deadline: Duration::from_secs(10),
            retry_interval: Duration::from_millis(5),
            priority: CallPriority::Normal,
        };
        for _ in 0..10 {
            let reply = a
                .call(
                    NodeId(2),
                    InterfaceId(1),
                    "echo",
                    b"x",
                    qos,
                    TraceContext::NONE,
                )
                .unwrap();
            assert_eq!(reply, Bytes::from_static(b"x"));
        }
        // Each logical call executed exactly once despite duplicates.
        assert_eq!(b.requests_executed.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn duplicates_answered_from_cache() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_handler(Arc::new(move |req| {
            h.fetch_add(1, Ordering::SeqCst);
            PooledBuf::from_slice(&req.body)
        }));
        // Lose every reply (but not requests): client retransmits, server
        // must answer duplicates from cache without re-executing.
        net.set_link(NodeId(2), NodeId(1), LinkConfig::with_loss(0.7));
        let qos = CallQos {
            deadline: Duration::from_secs(10),
            retry_interval: Duration::from_millis(5),
            priority: CallPriority::Normal,
        };
        let reply = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "echo",
                b"q",
                qos,
                TraceContext::NONE,
            )
            .unwrap();
        assert_eq!(reply, Bytes::from_static(b"q"));
        assert_eq!(hits.load(Ordering::SeqCst), 1, "handler ran more than once");
    }

    #[test]
    fn announcements_fire_and_forget() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        b.set_handler(Arc::new(move |req| {
            assert!(req.announcement);
            s.fetch_add(1, Ordering::SeqCst);
            PooledBuf::default()
        }));
        for _ in 0..5 {
            a.announce(NodeId(2), InterfaceId(1), "tick", b"", TraceContext::NONE)
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while seen.load(Ordering::SeqCst) < 5 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(seen.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn new_spawns_one_thread_per_worker_and_no_other() {
        let net = SimNet::perfect();
        let ep = RexEndpoint::new(Arc::new(net), NodeId(1), 3).unwrap();
        let names: Vec<String> = ep
            .threads
            .lock()
            .iter()
            .filter_map(|t| t.thread().name().map(str::to_owned))
            .collect();
        ep.shutdown();
        assert_eq!(names.len(), 3, "{names:?}");
        assert!(
            names.iter().all(|n| n.starts_with("rex-worker-")),
            "{names:?}"
        );
    }

    #[test]
    fn full_job_queue_hands_local_jobs_back_and_drops_requests() {
        let net = SimNet::perfect();
        let t: Arc<dyn Transport> = Arc::new(net);
        let a = RexEndpoint::new(Arc::clone(&t), NodeId(1), 1).unwrap();
        let b = RexEndpoint::new(t, NodeId(2), 1).unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        b.set_handler(Arc::new(move |_req| {
            s.fetch_add(1, Ordering::SeqCst);
            PooledBuf::default()
        }));
        // Park the only worker, then fill its queue with local jobs.
        let (started_tx, started_rx) = bounded::<()>(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        assert!(b
            .try_execute(Box::new(move || {
                let _ = started_tx.send(());
                let _ = release_rx.recv();
            }))
            .is_ok());
        started_rx.recv().unwrap();
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..JOB_QUEUE_CAP {
            let ran = Arc::clone(&ran);
            let job: LocalJob = Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            assert!(b.try_execute(job).is_ok());
        }
        // Full: a local job comes back, and the sink drops a request
        // (SimNet's zero-delay path delivers on this thread).
        let refused = b.try_execute(Box::new(|| {})).err();
        assert!(refused.is_some(), "a full queue hands the job back");
        a.announce(NodeId(2), InterfaceId(1), "tick", b"", TraceContext::NONE)
            .unwrap();
        assert_eq!(b.queue_full_dropped.load(Ordering::Relaxed), 1);
        release_tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while ran.load(Ordering::SeqCst) < JOB_QUEUE_CAP as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(ran.load(Ordering::SeqCst), JOB_QUEUE_CAP as u64);
        // With room again, requests are served.
        a.announce(NodeId(2), InterfaceId(1), "tick", b"", TraceContext::NONE)
            .unwrap();
        while seen.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        // A shut-down endpoint hands every job back.
        b.shutdown();
        assert!(b.try_execute(Box::new(|| {})).is_err());
        a.shutdown();
    }

    #[test]
    fn nested_call_completes_while_the_only_worker_waits() {
        // `b` has one worker and its handler calls `c`, so `c`'s reply
        // arrives while that worker is blocked waiting for it. Delivery
        // must not need a free REX thread on `b`.
        let net = SimNet::perfect();
        let t: Arc<dyn Transport> = Arc::new(net);
        let a = RexEndpoint::new(Arc::clone(&t), NodeId(1), 1).unwrap();
        let b = RexEndpoint::new(Arc::clone(&t), NodeId(2), 1).unwrap();
        let c = RexEndpoint::new(t, NodeId(3), 1).unwrap();
        c.set_handler(echo_handler());
        let qos = CallQos::with_deadline(Duration::from_secs(4));
        let inner = Arc::downgrade(&b);
        b.set_handler(Arc::new(move |req: RexRequest| {
            let b = inner.upgrade().expect("endpoint outlives its handler");
            let reply = b
                .call(
                    NodeId(3),
                    InterfaceId(1),
                    "echo",
                    &req.body,
                    qos,
                    TraceContext::NONE,
                )
                .expect("nested call");
            PooledBuf::from_slice(&reply)
        }));
        let start = Instant::now();
        for i in 0..20u64 {
            let body = i.to_be_bytes();
            let reply = a
                .call(
                    NodeId(2),
                    InterfaceId(1),
                    "relay",
                    &body,
                    qos,
                    TraceContext::NONE,
                )
                .unwrap();
            assert_eq!(reply, Bytes::copy_from_slice(&body));
        }
        // No call needed a retransmission, let alone its deadline.
        assert!(
            start.elapsed() < qos.retry_interval,
            "{:?}",
            start.elapsed()
        );
        for ep in [a, b, c] {
            ep.shutdown();
        }
    }

    #[test]
    fn call_to_handlerless_server_returns_empty() {
        let net = SimNet::perfect();
        let (a, _b) = pair(&net);
        let reply = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "x",
                b"",
                CallQos::default(),
                TraceContext::NONE,
            )
            .unwrap();
        assert!(reply.is_empty());
    }

    #[test]
    fn panicking_handler_keeps_its_worker() {
        let net = SimNet::perfect();
        let t: Arc<dyn Transport> = Arc::new(net.clone());
        let a = RexEndpoint::new(Arc::clone(&t), NodeId(1), 2).unwrap();
        let b = RexEndpoint::new(t, NodeId(2), 1).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_handler(Arc::new(move |req: RexRequest| {
            h.fetch_add(1, Ordering::SeqCst);
            assert_ne!(&req.body[..], b"boom", "handler bug");
            PooledBuf::from_slice(&req.body)
        }));
        // Replies take longer than the retry interval, so the client
        // retransmits before the first reply lands.
        net.set_link(
            NodeId(2),
            NodeId(1),
            LinkConfig::with_latency(Duration::from_millis(30)),
        );
        let qos = CallQos {
            deadline: Duration::from_secs(5),
            retry_interval: Duration::from_millis(5),
            priority: CallPriority::Normal,
        };
        let start = Instant::now();
        let reply = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "x",
                b"boom",
                qos,
                TraceContext::NONE,
            )
            .unwrap();
        assert!(reply.is_empty(), "a panic is answered with an empty body");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "reply was not prompt"
        );
        assert_eq!(b.handler_panics.load(Ordering::Relaxed), 1);
        assert!(b.duplicates_suppressed.load(Ordering::Relaxed) >= 1);
        assert_eq!(
            hits.load(Ordering::SeqCst),
            1,
            "retransmission re-ran the handler"
        );
        // The endpoint's only worker survived and serves the next call.
        let reply = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "x",
                b"fine",
                qos,
                TraceContext::NONE,
            )
            .unwrap();
        assert_eq!(reply, Bytes::from_static(b"fine"));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panicking_local_job_keeps_its_worker() {
        let net = SimNet::perfect();
        let t: Arc<dyn Transport> = Arc::new(net);
        let a = RexEndpoint::new(Arc::clone(&t), NodeId(41), 1).unwrap();
        let b = RexEndpoint::new(t, NodeId(42), 1).unwrap();
        b.set_handler(echo_handler());
        assert!(b
            .try_execute(Box::new(|| panic!("co-located announcement bug")))
            .is_ok());
        // The endpoint's only worker survived and serves remote calls.
        let reply = a
            .call(
                NodeId(42),
                InterfaceId(1),
                "echo",
                b"after",
                CallQos::with_deadline(Duration::from_secs(2)),
                TraceContext::NONE,
            )
            .unwrap();
        assert_eq!(reply, Bytes::from_static(b"after"));
        assert_eq!(b.handler_panics.load(Ordering::Relaxed), 1);
        assert!(odp_telemetry::hub()
            .events()
            .iter()
            .any(|e| e.kind == "rex.handler_panic" && e.node == 42));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn works_over_tcp_too() {
        let net = crate::tcp::TcpNetwork::new();
        let t: Arc<dyn Transport> = Arc::new(net);
        let a = RexEndpoint::new(Arc::clone(&t), NodeId(1), 2).unwrap();
        let b = RexEndpoint::new(t, NodeId(2), 2).unwrap();
        b.set_handler(echo_handler());
        let reply = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "echo",
                b"tcp",
                CallQos::with_deadline(Duration::from_secs(5)),
                TraceContext::NONE,
            )
            .unwrap();
        assert_eq!(reply, Bytes::from_static(b"tcp"));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_calls() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        b.set_handler(echo_handler());
        a.shutdown();
        a.shutdown();
        assert_eq!(
            a.call(
                NodeId(2),
                InterfaceId(1),
                "x",
                b"",
                CallQos::default(),
                TraceContext::NONE
            )
            .unwrap_err(),
            RexError::Closed
        );
    }

    #[test]
    fn malformed_messages_ignored() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        b.set_handler(echo_handler());
        // Inject garbage straight onto the transport.
        net.send_frame(NodeId(1), NodeId(2), b"\xff\xff").unwrap();
        net.send_frame(NodeId(1), NodeId(2), b"").unwrap();
        // Endpoint still works.
        let reply = a
            .call(
                NodeId(2),
                InterfaceId(1),
                "echo",
                b"ok",
                CallQos::default(),
                TraceContext::NONE,
            )
            .unwrap();
        assert_eq!(reply, Bytes::from_static(b"ok"));
    }

    #[test]
    fn parse_rejects_short_buffers() {
        assert!(matches!(
            parse(NodeId(1), Bytes::from_static(b"")),
            Err(RexError::Malformed)
        ));
        assert!(matches!(
            parse(NodeId(1), Bytes::from_static(b"\x00\x01")),
            Err(RexError::Malformed)
        ));
        assert!(matches!(
            parse(
                NodeId(1),
                Bytes::from_static(b"\x09\x00\x00\x00\x00\x00\x00\x00\x00")
            ),
            Err(RexError::Malformed)
        ));
        // A request whose trace context is truncated: kind + call id are
        // intact but only 10 of the 25 trace bytes follow.
        let mut truncated = BytesMut::new();
        truncated.put_u8(KIND_REQUEST);
        truncated.put_u64(42);
        truncated.extend_from_slice(&[0u8; 10]);
        assert!(matches!(
            parse(NodeId(1), truncated.freeze()),
            Err(RexError::Malformed)
        ));
        // A request whose trace context is complete but whose overload
        // fields (priority + deadline budget) are truncated.
        let mut no_overload = BytesMut::new();
        no_overload.put_u8(KIND_REQUEST);
        no_overload.put_u64(42);
        no_overload.extend_from_slice(&[0u8; TraceContext::WIRE_LEN]);
        no_overload.extend_from_slice(&[0u8; 3]);
        assert!(matches!(
            parse(NodeId(1), no_overload.freeze()),
            Err(RexError::Malformed)
        ));
    }

    #[test]
    fn request_trace_context_survives_the_wire() {
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 8,
            parent_span: 6,
            flags: odp_telemetry::FLAG_SAMPLED,
        };
        let msg = encode_request(
            KIND_REQUEST,
            1,
            &ctx,
            (CallPriority::Normal, 0),
            InterfaceId(3),
            "op",
            b"body",
        );
        match parse(NodeId(1), Bytes::copy_from_slice(&msg)).unwrap() {
            Parsed::Request(_, req) => {
                assert_eq!(req.trace, ctx);
                assert_eq!(req.op, "op");
            }
            Parsed::Reply { .. } => panic!("parsed as reply"),
        }
    }

    #[test]
    fn request_overload_fields_survive_the_wire() {
        let msg = encode_request(
            KIND_REQUEST,
            2,
            &TraceContext::NONE,
            (CallPriority::High, 750_000),
            InterfaceId(3),
            "op",
            b"",
        );
        let before = Instant::now();
        let parsed = parse(NodeId(1), Bytes::copy_from_slice(&msg)).unwrap();
        let after = Instant::now();
        match parsed {
            Parsed::Request(_, req) => {
                assert_eq!(req.priority, CallPriority::High);
                // The 750 ms budget is anchored at parse time.
                let deadline = req.deadline.expect("interrogations carry a budget");
                let budget = Duration::from_micros(750_000);
                assert!(deadline >= before + budget && deadline <= after + budget);
            }
            Parsed::Reply { .. } => panic!("parsed as reply"),
        }
    }

    #[test]
    fn handler_sees_priority_and_arrival_anchored_deadline() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        type SeenOverload = Option<(CallPriority, Option<Instant>)>;
        let seen: Arc<Mutex<SeenOverload>> = Arc::new(Mutex::new(None));
        let s = Arc::clone(&seen);
        b.set_handler(Arc::new(move |req: RexRequest| {
            *s.lock() = Some((req.priority, req.deadline));
            PooledBuf::from_slice(&req.body)
        }));
        let mut qos = CallQos::with_deadline(Duration::from_millis(500));
        qos.priority = CallPriority::High;
        let before = Instant::now();
        a.call(
            NodeId(2),
            InterfaceId(1),
            "echo",
            b"x",
            qos,
            TraceContext::NONE,
        )
        .unwrap();
        let (priority, deadline) = seen.lock().take().expect("handler ran");
        assert_eq!(priority, CallPriority::High);
        let deadline = deadline.expect("interrogations carry a budget");
        // Anchored at arrival: the reconstructed deadline sits within the
        // caller's budget window of the send instant.
        assert!(deadline > before);
        assert!(deadline <= Instant::now() + Duration::from_millis(500));
        // Announcements carry no budget and the bulk priority.
        a.announce(NodeId(2), InterfaceId(1), "tick", b"", TraceContext::NONE)
            .unwrap();
        let wait = Instant::now() + Duration::from_secs(2);
        while seen.lock().is_none() && Instant::now() < wait {
            std::thread::sleep(Duration::from_millis(5));
        }
        let (priority, deadline) = seen.lock().take().expect("announcement arrived");
        assert_eq!(priority, CallPriority::Low);
        assert_eq!(deadline, None);
    }

    #[test]
    fn handler_sees_caller_trace() {
        let net = SimNet::perfect();
        let (a, b) = pair(&net);
        let seen = Arc::new(Mutex::new(TraceContext::NONE));
        let s = Arc::clone(&seen);
        b.set_handler(Arc::new(move |req: RexRequest| {
            *s.lock() = req.trace;
            PooledBuf::from_slice(&req.body)
        }));
        let ctx = TraceContext {
            trace_id: 99,
            span_id: 5,
            parent_span: 4,
            flags: odp_telemetry::FLAG_SAMPLED,
        };
        a.call(
            NodeId(2),
            InterfaceId(1),
            "echo",
            b"x",
            CallQos::default(),
            ctx,
        )
        .unwrap();
        assert_eq!(*seen.lock(), ctx);
    }

    #[test]
    fn malformed_frames_counted_and_recorded() {
        let net = SimNet::perfect();
        let (_a, b) = pair(&net);
        net.send_frame(NodeId(1), NodeId(2), b"\xff\xff").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while b.malformed_dropped.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(b.malformed_dropped.load(Ordering::Relaxed), 1);
    }
}
