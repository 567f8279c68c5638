//! The simulated network.
//!
//! `SimNet` stands in for the paper's internetwork (see the substitution
//! table in DESIGN.md): an in-process [`Transport`] whose links have
//! configurable base latency, jitter, loss probability and partitions, all
//! driven by a **seeded** RNG so that every test and benchmark run is
//! reproducible. Zero-delay frames are handed to the destination's sink on
//! the sender's own thread; delayed frames wait in a time-ordered heap that
//! a single pump thread drains, which keeps cross-link ordering faithful to
//! the configured latencies. No sink ever runs under the network's lock.
//!
//! Fault injection is first-class because the paper insists applications
//! face "variable latency in accessing resources and persistent failures
//! disrupting access to resources" (§3): the failure, replication and
//! relocation transparencies are *tested* by making this network misbehave.

use crate::transport::{Envelope, FrameSink, NetError, Transport};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
// `RngExt` supplies `random_range` on some rand versions; unused on others.
#[allow(unused_imports)]
use rand::{RngExt, SeedableRng};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Latency/loss characteristics of one link (or the default for all links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base one-way delay.
    pub latency: Duration,
    /// Uniform jitter added on top (0..jitter).
    pub jitter: Duration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            loss: 0.0,
        }
    }
}

impl LinkConfig {
    /// A link with fixed latency and no jitter or loss.
    #[must_use]
    pub fn with_latency(latency: Duration) -> Self {
        Self {
            latency,
            ..Self::default()
        }
    }

    /// A lossy link.
    #[must_use]
    pub fn with_loss(loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        Self {
            loss,
            ..Self::default()
        }
    }
}

/// Whole-network configuration.
#[derive(Debug, Clone)]
pub struct SimNetConfig {
    /// RNG seed for loss and jitter decisions.
    pub seed: u64,
    /// Default link characteristics.
    pub default_link: LinkConfig,
}

impl Default for SimNetConfig {
    fn default() -> Self {
        Self {
            seed: 0x0D9_1991,
            default_link: LinkConfig::default(),
        }
    }
}

/// Counters exposed for experiments (message complexity of protocols is a
/// first-order output of several benches).
#[derive(Debug, Default)]
pub struct SimNetStats {
    /// Messages accepted by `send`.
    pub sent: AtomicU64,
    /// Messages actually delivered to an endpoint.
    pub delivered: AtomicU64,
    /// Messages dropped by loss injection.
    pub lost: AtomicU64,
    /// Messages dropped because of a partition.
    pub partitioned: AtomicU64,
    /// Messages dropped because the destination vanished.
    pub dead_lettered: AtomicU64,
    /// Total payload bytes accepted.
    pub bytes: AtomicU64,
}

impl SimNetStats {
    /// Snapshot of (sent, delivered, lost, partitioned, dead-lettered).
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.sent.load(Ordering::Relaxed),
            self.delivered.load(Ordering::Relaxed),
            self.lost.load(Ordering::Relaxed),
            self.partitioned.load(Ordering::Relaxed),
            self.dead_lettered.load(Ordering::Relaxed),
        )
    }
}

struct Scheduled {
    due: Instant,
    seq: u64,
    env: Envelope,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One network-level fault (or repair) that can be applied to a [`SimNet`].
///
/// Fault schedules (see the `odp-chaos` crate) are declarative lists of
/// `NetFault`s with logical offsets; [`SimNet::apply`] is the single entry
/// point through which they act on the network, and every applied fault —
/// whether through `apply` or the individual convenience methods — is
/// recorded in order in the [`SimNet::fault_log`], so a run's fault
/// timeline can be compared across seeds for deterministic replay.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFault {
    /// Cut both directions between two nodes.
    Partition(odp_types::NodeId, odp_types::NodeId),
    /// Repair a [`NetFault::Partition`].
    Heal(odp_types::NodeId, odp_types::NodeId),
    /// Cut a node off from every currently registered node.
    Isolate(odp_types::NodeId),
    /// Reconnect a node to everyone.
    Rejoin(odp_types::NodeId),
    /// Reconfigure one directed link (latency spikes, loss bursts).
    SetLink {
        /// Sending side of the link.
        from: odp_types::NodeId,
        /// Receiving side of the link.
        to: odp_types::NodeId,
        /// New characteristics.
        link: LinkConfig,
    },
    /// Reconfigure both directions of a link.
    SetLinkBidir {
        /// One side.
        a: odp_types::NodeId,
        /// The other side.
        b: odp_types::NodeId,
        /// New characteristics.
        link: LinkConfig,
    },
    /// Remove per-link overrides so the pair reverts to the default link.
    ClearLink(odp_types::NodeId, odp_types::NodeId),
    /// Replace the default characteristics of every unconfigured link
    /// (whole-network loss bursts and latency spikes).
    SetDefaultLink(LinkConfig),
}

#[derive(Default)]
struct Inner {
    nodes: HashMap<odp_types::NodeId, FrameSink>,
    links: HashMap<(odp_types::NodeId, odp_types::NodeId), LinkConfig>,
    /// Unordered pairs that cannot communicate.
    partitions: HashSet<(odp_types::NodeId, odp_types::NodeId)>,
    /// Current default link (mutable at runtime for whole-network faults).
    default_link: LinkConfig,
    /// Ordered record of every fault applied to this network.
    fault_log: Vec<NetFault>,
    queue: BinaryHeap<Scheduled>,
    next_seq: u64,
    /// The pump has popped due frames and is delivering them outside the
    /// lock; zero-delay sends queue behind them so per-link order holds.
    pump_delivering: bool,
}

/// The simulated network. Clone-able handle; all clones share state.
#[derive(Clone)]
pub struct SimNet {
    config: SimNetConfig,
    inner: Arc<Mutex<Inner>>,
    wake: Arc<Condvar>,
    rng: Arc<Mutex<StdRng>>,
    stats: Arc<SimNetStats>,
    running: Arc<AtomicBool>,
    _pump: Arc<PumpGuard>,
}

struct PumpGuard {
    running: Arc<AtomicBool>,
    wake: Arc<Condvar>,
    inner: Arc<Mutex<Inner>>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for PumpGuard {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        {
            let _g = self.inner.lock();
            self.wake.notify_all();
        }
        // The last handle may die inside a sink the pump is running.
        if let Some(h) = self
            .handle
            .lock()
            .take()
            .filter(|h| h.thread().id() != std::thread::current().id())
        {
            // odp-lint: allow(l6, reason = "drop-path join; a panicked pump cannot be recovered here")
            let _ = h.join();
        }
    }
}

impl Default for SimNet {
    fn default() -> Self {
        Self::new(SimNetConfig::default())
    }
}

impl SimNet {
    /// Creates a simulated network and starts its delivery thread.
    #[must_use]
    pub fn new(config: SimNetConfig) -> Self {
        let inner = Arc::new(Mutex::new(Inner {
            default_link: config.default_link,
            ..Inner::default()
        }));
        let wake = Arc::new(Condvar::new());
        let running = Arc::new(AtomicBool::new(true));
        let stats = Arc::new(SimNetStats::default());
        let pump_handle = {
            let inner = Arc::clone(&inner);
            let wake = Arc::clone(&wake);
            let running = Arc::clone(&running);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("simnet-pump".into())
                .spawn(move || Self::pump(&inner, &wake, &running, &stats))
                // odp-lint: allow(l1, reason = "construction-time spawn; failing to start the fabric is unrecoverable")
                .expect("spawn simnet pump")
        };
        Self {
            config: config.clone(),
            inner: Arc::clone(&inner),
            wake: Arc::clone(&wake),
            rng: Arc::new(Mutex::new(StdRng::seed_from_u64(config.seed))),
            stats,
            running: Arc::clone(&running),
            _pump: Arc::new(PumpGuard {
                running,
                wake,
                inner,
                handle: Mutex::new(Some(pump_handle)),
            }),
        }
    }

    /// Convenience: a zero-latency, lossless network with the default seed.
    #[must_use]
    pub fn perfect() -> Self {
        Self::default()
    }

    /// Delivery statistics.
    #[must_use]
    pub fn stats(&self) -> &SimNetStats {
        &self.stats
    }

    /// Sets the characteristics of the directed link `from → to`.
    pub fn set_link(&self, from: odp_types::NodeId, to: odp_types::NodeId, link: LinkConfig) {
        let mut inner = self.inner.lock();
        inner.fault_log.push(NetFault::SetLink { from, to, link });
        inner.links.insert((from, to), link);
    }

    /// Sets both directions of a link.
    pub fn set_link_bidir(&self, a: odp_types::NodeId, b: odp_types::NodeId, link: LinkConfig) {
        let mut inner = self.inner.lock();
        inner.fault_log.push(NetFault::SetLinkBidir { a, b, link });
        inner.links.insert((a, b), link);
        inner.links.insert((b, a), link);
    }

    /// Removes the per-link overrides for both directions of `a ↔ b`, so
    /// the pair reverts to the default link.
    pub fn clear_link(&self, a: odp_types::NodeId, b: odp_types::NodeId) {
        let mut inner = self.inner.lock();
        inner.fault_log.push(NetFault::ClearLink(a, b));
        inner.links.remove(&(a, b));
        inner.links.remove(&(b, a));
    }

    /// Replaces the default characteristics of every link without a
    /// per-link override (whole-network loss bursts and latency spikes).
    pub fn set_default_link(&self, link: LinkConfig) {
        let mut inner = self.inner.lock();
        inner.fault_log.push(NetFault::SetDefaultLink(link));
        inner.default_link = link;
    }

    /// The current default link characteristics.
    #[must_use]
    pub fn default_link(&self) -> LinkConfig {
        self.inner.lock().default_link
    }

    /// Cuts communication between `a` and `b` in both directions.
    pub fn partition(&self, a: odp_types::NodeId, b: odp_types::NodeId) {
        let mut inner = self.inner.lock();
        inner.fault_log.push(NetFault::Partition(a, b));
        inner.partitions.insert(Self::pair(a, b));
    }

    /// Heals a partition created by [`SimNet::partition`].
    pub fn heal(&self, a: odp_types::NodeId, b: odp_types::NodeId) {
        let mut inner = self.inner.lock();
        inner.fault_log.push(NetFault::Heal(a, b));
        inner.partitions.remove(&Self::pair(a, b));
    }

    /// Isolates `node` from every currently registered node.
    pub fn isolate(&self, node: odp_types::NodeId) {
        let mut inner = self.inner.lock();
        inner.fault_log.push(NetFault::Isolate(node));
        let others: Vec<_> = inner.nodes.keys().copied().filter(|n| *n != node).collect();
        for other in others {
            inner.partitions.insert(Self::pair(node, other));
        }
    }

    /// Reconnects `node` to everyone.
    pub fn rejoin(&self, node: odp_types::NodeId) {
        let mut inner = self.inner.lock();
        inner.fault_log.push(NetFault::Rejoin(node));
        inner.partitions.retain(|(a, b)| *a != node && *b != node);
    }

    /// Applies one declarative fault. Equivalent to calling the matching
    /// convenience method; exists so fault schedules can be replayed
    /// mechanically.
    pub fn apply(&self, fault: &NetFault) {
        match *fault {
            NetFault::Partition(a, b) => self.partition(a, b),
            NetFault::Heal(a, b) => self.heal(a, b),
            NetFault::Isolate(n) => self.isolate(n),
            NetFault::Rejoin(n) => self.rejoin(n),
            NetFault::SetLink { from, to, link } => self.set_link(from, to, link),
            NetFault::SetLinkBidir { a, b, link } => self.set_link_bidir(a, b, link),
            NetFault::ClearLink(a, b) => self.clear_link(a, b),
            NetFault::SetDefaultLink(link) => self.set_default_link(link),
        }
    }

    /// The ordered timeline of every fault applied so far. Two runs of the
    /// same seeded schedule must produce identical logs (deterministic
    /// replay — asserted by the chaos soak suite).
    #[must_use]
    pub fn fault_log(&self) -> Vec<NetFault> {
        self.inner.lock().fault_log.clone()
    }

    /// Heals every partition and removes every per-link override — the
    /// "end of schedule" repair used before invariant checking. Not
    /// recorded in the fault log: it is the fixed epilogue of every run,
    /// not part of the scheduled fault timeline.
    pub fn heal_all(&self) {
        let mut inner = self.inner.lock();
        inner.partitions.clear();
        inner.links.clear();
        inner.default_link = self.config.default_link;
    }

    fn pair(a: odp_types::NodeId, b: odp_types::NodeId) -> (odp_types::NodeId, odp_types::NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn pump(inner: &Mutex<Inner>, wake: &Condvar, running: &AtomicBool, stats: &SimNetStats) {
        let mut due = Vec::new();
        let mut guard = inner.lock();
        loop {
            if !running.load(Ordering::SeqCst) {
                return;
            }
            // Pop everything due under the lock; deliver after releasing it,
            // since a sink may itself send.
            let now = Instant::now();
            while guard.queue.peek().is_some_and(|s| s.due <= now) {
                let Some(sched) = guard.queue.pop() else {
                    break;
                };
                let sink = guard.nodes.get(&sched.env.to).cloned();
                due.push((sink, sched.env));
            }
            if !due.is_empty() {
                guard.pump_delivering = true;
                drop(guard);
                for (sink, env) in due.drain(..) {
                    match sink {
                        Some(sink) => {
                            stats.delivered.fetch_add(1, Ordering::Relaxed);
                            sink(env);
                        }
                        None => {
                            stats.dead_lettered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                guard = inner.lock();
                guard.pump_delivering = false;
                continue;
            }
            match guard.queue.peek().map(|s| s.due) {
                Some(due) => {
                    let now = Instant::now();
                    if due > now {
                        wake.wait_for(&mut guard, due - now);
                    }
                }
                None => {
                    wake.wait(&mut guard);
                }
            }
        }
    }
}

impl Transport for SimNet {
    fn register(&self, node: odp_types::NodeId, sink: FrameSink) -> Result<(), NetError> {
        let mut inner = self.inner.lock();
        if inner.nodes.contains_key(&node) {
            return Err(NetError::AlreadyRegistered(node));
        }
        inner.nodes.insert(node, sink);
        Ok(())
    }

    fn deregister(&self, node: odp_types::NodeId) {
        // The sink is dropped after the lock is released.
        let _sink = self.inner.lock().nodes.remove(&node);
    }

    fn send(&self, env: Envelope) -> Result<(), NetError> {
        if !self.running.load(Ordering::SeqCst) {
            return Err(NetError::Closed);
        }
        let mut inner = self.inner.lock();
        let Some(sink) = inner.nodes.get(&env.to).cloned() else {
            return Err(NetError::UnknownNode(env.to));
        };
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        if inner.partitions.contains(&Self::pair(env.from, env.to)) {
            // Partition drops are silent, like real packet loss: the
            // sender learns only through timeouts.
            self.stats.partitioned.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let link = inner
            .links
            .get(&(env.from, env.to))
            .copied()
            .unwrap_or(inner.default_link);
        self.stats
            .bytes
            .fetch_add(env.payload.len() as u64, Ordering::Relaxed);
        // Perfect links draw nothing, so a seeded run's loss and jitter
        // sequence depends only on the imperfect links' traffic.
        let mut delay = link.latency;
        if link.loss > 0.0 || !link.jitter.is_zero() {
            let mut rng = self.rng.lock();
            if link.loss > 0.0 && rng.random_bool(link.loss) {
                self.stats.lost.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if !link.jitter.is_zero() {
                delay += Duration::from_nanos(rng.random_range(0..link.jitter.as_nanos() as u64));
            }
        }
        // Fast path: a zero-delay frame with nothing ahead of it in the
        // fabric is delivered on this thread, after the lock is released.
        if delay.is_zero() && inner.queue.is_empty() && !inner.pump_delivering {
            drop(inner);
            self.stats.delivered.fetch_add(1, Ordering::Relaxed);
            sink(env);
            return Ok(());
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue.push(Scheduled {
            due: Instant::now() + delay,
            seq,
            env,
        });
        self.wake.notify_all();
        Ok(())
    }

    fn is_registered(&self, node: odp_types::NodeId) -> bool {
        self.inner.lock().nodes.contains_key(&node)
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SimNet")
            .field("nodes", &inner.nodes.len())
            .field("partitions", &inner.partitions.len())
            .field("queued", &inner.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Endpoint;
    use bytes::Bytes;
    use odp_types::NodeId;

    fn env(from: u64, to: u64, msg: &'static [u8]) -> Envelope {
        Envelope::new(NodeId(from), NodeId(to), Bytes::from_static(msg))
    }

    #[test]
    fn zero_latency_delivery() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        let b = Endpoint::register(&net, NodeId(2)).unwrap();
        net.send(env(1, 2, b"hi")).unwrap();
        let got = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"hi"));
        assert_eq!(got.from, NodeId(1));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        assert_eq!(
            Endpoint::register(&net, NodeId(1)).unwrap_err(),
            NetError::AlreadyRegistered(NodeId(1))
        );
    }

    #[test]
    fn unknown_destination_rejected() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        assert_eq!(
            net.send(env(1, 9, b"x")).unwrap_err(),
            NetError::UnknownNode(NodeId(9))
        );
    }

    #[test]
    fn latency_is_applied() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        let b = Endpoint::register(&net, NodeId(2)).unwrap();
        net.set_link(
            NodeId(1),
            NodeId(2),
            LinkConfig::with_latency(Duration::from_millis(30)),
        );
        let start = Instant::now();
        net.send(env(1, 2, b"slow")).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(25), "{elapsed:?}");
    }

    #[test]
    fn latency_preserves_order_per_link() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        let b = Endpoint::register(&net, NodeId(2)).unwrap();
        net.set_link(
            NodeId(1),
            NodeId(2),
            LinkConfig::with_latency(Duration::from_millis(5)),
        );
        for i in 0..10u8 {
            net.send(Envelope::new(
                NodeId(1),
                NodeId(2),
                Bytes::copy_from_slice(&[i]),
            ))
            .unwrap();
        }
        for i in 0..10u8 {
            let got = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(got.payload[0], i);
        }
    }

    #[test]
    fn total_loss_drops_everything_silently() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        let b = Endpoint::register(&net, NodeId(2)).unwrap();
        net.set_link(NodeId(1), NodeId(2), LinkConfig::with_loss(1.0));
        for _ in 0..20 {
            net.send(env(1, 2, b"gone")).unwrap();
        }
        assert_eq!(
            b.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            NetError::Timeout
        );
        assert_eq!(net.stats().lost.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn seeded_loss_is_reproducible() {
        let counts: Vec<u64> = (0..2)
            .map(|_| {
                let net = SimNet::new(SimNetConfig {
                    seed: 42,
                    ..SimNetConfig::default()
                });
                let _a = Endpoint::register(&net, NodeId(1)).unwrap();
                let _b = Endpoint::register(&net, NodeId(2)).unwrap();
                net.set_link(NodeId(1), NodeId(2), LinkConfig::with_loss(0.5));
                for _ in 0..100 {
                    net.send(env(1, 2, b"x")).unwrap();
                }
                net.stats().lost.load(Ordering::Relaxed)
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert!(counts[0] > 20 && counts[0] < 80, "loss={}", counts[0]);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let net = SimNet::perfect();
        let a = Endpoint::register(&net, NodeId(1)).unwrap();
        let b = Endpoint::register(&net, NodeId(2)).unwrap();
        net.partition(NodeId(1), NodeId(2));
        net.send(env(1, 2, b"blocked")).unwrap();
        net.send(env(2, 1, b"blocked")).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
        assert!(a.recv_timeout(Duration::from_millis(20)).is_err());
        net.heal(NodeId(1), NodeId(2));
        net.send(env(1, 2, b"open")).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            Bytes::from_static(b"open")
        );
    }

    #[test]
    fn isolate_and_rejoin() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        let b = Endpoint::register(&net, NodeId(2)).unwrap();
        let c = Endpoint::register(&net, NodeId(3)).unwrap();
        net.isolate(NodeId(1));
        net.send(env(1, 2, b"x")).unwrap();
        net.send(env(1, 3, b"x")).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
        assert!(c.recv_timeout(Duration::from_millis(20)).is_err());
        net.rejoin(NodeId(1));
        net.send(env(1, 2, b"back")).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn deregister_simulates_crash() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        let _b = Endpoint::register(&net, NodeId(2)).unwrap();
        assert!(net.is_registered(NodeId(2)));
        net.deregister(NodeId(2));
        assert!(!net.is_registered(NodeId(2)));
        assert_eq!(
            net.send(env(1, 2, b"x")).unwrap_err(),
            NetError::UnknownNode(NodeId(2))
        );
        // Re-registering models a restart.
        let b2 = Endpoint::register(&net, NodeId(2)).unwrap();
        net.send(env(1, 2, b"hello again")).unwrap();
        assert!(b2.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn fault_log_records_ordered_timeline() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        let _b = Endpoint::register(&net, NodeId(2)).unwrap();
        let burst = LinkConfig::with_loss(0.9);
        net.partition(NodeId(1), NodeId(2));
        net.heal(NodeId(1), NodeId(2));
        net.apply(&NetFault::SetDefaultLink(burst));
        net.clear_link(NodeId(1), NodeId(2));
        assert_eq!(
            net.fault_log(),
            vec![
                NetFault::Partition(NodeId(1), NodeId(2)),
                NetFault::Heal(NodeId(1), NodeId(2)),
                NetFault::SetDefaultLink(burst),
                NetFault::ClearLink(NodeId(1), NodeId(2)),
            ]
        );
    }

    #[test]
    fn default_link_change_affects_unconfigured_links() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        let b = Endpoint::register(&net, NodeId(2)).unwrap();
        net.set_default_link(LinkConfig::with_loss(1.0));
        for _ in 0..10 {
            net.send(env(1, 2, b"gone")).unwrap();
        }
        assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
        assert_eq!(net.stats().lost.load(Ordering::Relaxed), 10);
        // heal_all restores the configured default (lossless here).
        net.heal_all();
        net.send(env(1, 2, b"back")).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn stats_track_delivery() {
        let net = SimNet::perfect();
        let _a = Endpoint::register(&net, NodeId(1)).unwrap();
        let b = Endpoint::register(&net, NodeId(2)).unwrap();
        net.send(env(1, 2, b"12345")).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let (sent, delivered, lost, part, dead) = net.stats().snapshot();
        assert_eq!((sent, delivered, lost, part, dead), (1, 1, 0, 0, 0));
        assert_eq!(net.stats().bytes.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn shutdown_closes_endpoints() {
        let net = SimNet::perfect();
        let b = Endpoint::register(&net, NodeId(2)).unwrap();
        drop(net);
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
    }
}
