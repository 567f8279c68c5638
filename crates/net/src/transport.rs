//! The transport abstraction: node-addressed datagram delivery.
//!
//! A transport provides *unreliable, unordered* delivery of opaque payloads
//! between registered nodes. Reliability, ordering and execution semantics
//! belong to the layers above ([`crate::rex`], group protocols): keeping the
//! base contract weak is what makes simulated, TCP and future transports
//! interchangeable behind the same engineering interface.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, TryRecvError};
use odp_types::NodeId;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// One message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Opaque payload.
    pub payload: Bytes,
}

impl Envelope {
    /// Creates an envelope.
    #[must_use]
    pub fn new(from: NodeId, to: NodeId, payload: Bytes) -> Self {
        Self { from, to, payload }
    }
}

/// Errors surfaced by transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination node has never been registered with this transport.
    UnknownNode(NodeId),
    /// The destination is registered but refuses connections (its process
    /// is down). Distinct from [`NetError::UnknownNode`] so callers can
    /// fail fast instead of retrying blindly.
    Unreachable(NodeId),
    /// The node id is already registered.
    AlreadyRegistered(NodeId),
    /// The transport (or this endpoint) has been shut down.
    Closed,
    /// No message arrived within the requested timeout.
    Timeout,
    /// An I/O level failure (TCP transport).
    Io(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::Unreachable(n) => write!(f, "node {n} refuses connections"),
            NetError::AlreadyRegistered(n) => write!(f, "node {n} already registered"),
            NetError::Closed => write!(f, "transport closed"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

/// What a transport calls with each frame addressed to a registered node.
///
/// The sink runs on whichever thread delivers the frame: the sender's own
/// thread on SimNet's zero-delay path, SimNet's pump for delayed frames,
/// a connection's reader thread over TCP. It must not block, and it must
/// not take a lock that a sender may hold while calling
/// [`Transport::send`]: the send may be the call that runs it.
pub type FrameSink = Arc<dyn Fn(Envelope) + Send + Sync>;

/// A queue-backed receiving side, for code that wants to pull frames
/// rather than be called with them (tests, tools). Protocol engines
/// register a [`FrameSink`] of their own instead.
#[derive(Debug)]
pub struct Endpoint {
    node: NodeId,
    rx: Receiver<Envelope>,
}

impl Endpoint {
    /// Registers `node` on `transport` with a sink that queues every frame
    /// for [`Endpoint::recv`].
    ///
    /// # Errors
    ///
    /// Any [`NetError`] from [`Transport::register`].
    pub fn register(transport: &dyn Transport, node: NodeId) -> Result<Self, NetError> {
        // odp-lint: allow(l7, reason = "pull-side adapter for tests and tools; its owner drains it")
        let (tx, rx) = unbounded();
        transport.register(
            node,
            Arc::new(move |env| {
                // odp-lint: allow(l6, reason = "a dropped endpoint discards late frames, as a deregistered node would")
                let _ = tx.send(env);
            }),
        )?;
        Ok(Self { node, rx })
    }

    /// The node this endpoint receives for.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] once the transport has dropped the sink.
    pub fn recv(&self) -> Result<Envelope, NetError> {
        self.rx.recv().map_err(|_| NetError::Closed)
    }

    /// Blocks up to `timeout` for a message.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on expiry, [`NetError::Closed`] on shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Closed,
        })
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if empty, [`NetError::Closed`] on shutdown.
    pub fn try_recv(&self) -> Result<Envelope, NetError> {
        self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => NetError::Timeout,
            TryRecvError::Disconnected => NetError::Closed,
        })
    }
}

/// Node-addressed datagram transport.
///
/// Implementations must be cheaply shareable (`Arc` inside) and safe to use
/// from many threads: every layer of a capsule sends through the same
/// transport handle.
pub trait Transport: Send + Sync {
    /// Registers `node`; every frame addressed to it is handed to `sink`
    /// on the delivering thread (see [`FrameSink`]).
    ///
    /// # Errors
    ///
    /// [`NetError::AlreadyRegistered`] if the id is taken.
    fn register(&self, node: NodeId, sink: FrameSink) -> Result<(), NetError>;

    /// Removes a node and drops its sink; subsequent sends to it fail with
    /// [`NetError::UnknownNode`]. Used to simulate crash-stop failures. A
    /// frame already being delivered may still reach the old sink.
    fn deregister(&self, node: NodeId);

    /// Sends one message. Delivery is best-effort: a returned `Ok` means
    /// the message was *accepted*, not that it will arrive.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if the destination was never registered,
    /// [`NetError::Closed`] after shutdown.
    fn send(&self, env: Envelope) -> Result<(), NetError>;

    /// Sends one message whose payload the caller still owns (typically a
    /// pooled encode buffer). The default implementation copies the slice
    /// into an [`Envelope`]; transports with their own framing (TCP)
    /// override it to write straight from the borrowed slice, so the hot
    /// path never materializes an intermediate `Bytes`.
    ///
    /// # Errors
    ///
    /// As [`Transport::send`].
    fn send_frame(&self, from: NodeId, to: NodeId, payload: &[u8]) -> Result<(), NetError> {
        self.send(Envelope::new(from, to, Bytes::copy_from_slice(payload)))
    }

    /// True if `node` is currently registered.
    fn is_registered(&self, node: NodeId) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimNet;

    fn send(net: &SimNet, msg: &'static [u8]) {
        net.send(Envelope::new(NodeId(2), NodeId(1), Bytes::from_static(msg)))
            .unwrap();
    }

    #[test]
    fn endpoint_receives_in_order_from_channel() {
        let net = SimNet::perfect();
        let ep = Endpoint::register(&net, NodeId(1)).unwrap();
        send(&net, b"a");
        send(&net, b"b");
        assert_eq!(ep.recv().unwrap().payload, Bytes::from_static(b"a"));
        assert_eq!(ep.recv().unwrap().payload, Bytes::from_static(b"b"));
        assert_eq!(ep.node(), NodeId(1));
    }

    #[test]
    fn endpoint_timeout_and_close() {
        let net = SimNet::perfect();
        let ep = Endpoint::register(&net, NodeId(1)).unwrap();
        assert_eq!(
            ep.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            NetError::Timeout
        );
        assert_eq!(ep.try_recv().unwrap_err(), NetError::Timeout);
        // Deregistering drops the sink, and with it the queue's only sender.
        net.deregister(NodeId(1));
        assert_eq!(ep.recv().unwrap_err(), NetError::Closed);
        assert_eq!(ep.try_recv().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn errors_display() {
        assert!(NetError::UnknownNode(NodeId(3))
            .to_string()
            .contains("node:3"));
        assert!(NetError::Io("boom".into()).to_string().contains("boom"));
    }
}
