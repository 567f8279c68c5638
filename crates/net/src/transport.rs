//! The transport abstraction: node-addressed datagram delivery.
//!
//! A transport provides *unreliable, unordered* delivery of opaque payloads
//! between registered nodes. It has one way in and one way out: a sender
//! hands it a borrowed frame ([`Transport::send_frame`]), and it calls the
//! destination's [`FrameSink`] with an owned [`Envelope`]. Reliability,
//! ordering and execution semantics belong to the layers above
//! ([`crate::rex`], media streams): keeping the base contract weak is what
//! makes simulated and TCP transports interchangeable behind the same
//! engineering interface.

use bytes::Bytes;
use odp_types::NodeId;
use std::fmt;
use std::sync::Arc;

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
/// [`Transport::send_frame`]: the send may be the call that runs it.
pub type FrameSink = Arc<dyn Fn(Envelope) + Send + Sync>;

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

    /// Sends one message whose payload the caller still owns (typically a
    /// pooled encode buffer). Delivery is best-effort: a returned `Ok`
    /// means the message was *accepted*, not that it will arrive. SimNet
    /// copies the slice into the [`Envelope`] it delivers; TCP writes it
    /// straight into its length-prefixed frame.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if the destination was never registered,
    /// [`NetError::Unreachable`] if it refuses connections,
    /// [`NetError::Closed`] after shutdown.
    fn send_frame(&self, from: NodeId, to: NodeId, payload: &[u8]) -> Result<(), NetError>;

    /// True if `node` is currently registered.
    fn is_registered(&self, node: NodeId) -> bool;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver};

    /// Registers `node` with a sink that queues every frame, for tests that
    /// pull frames rather than being called with them. Deregistering the
    /// node drops the sink and disconnects the queue.
    pub(crate) fn inbox(
        transport: &dyn Transport,
        node: NodeId,
    ) -> Result<Receiver<Envelope>, NetError> {
        let (tx, rx) = unbounded();
        transport.register(
            node,
            Arc::new(move |env| {
                let _ = tx.send(env);
            }),
        )?;
        Ok(rx)
    }

    #[test]
    fn errors_display() {
        assert!(NetError::UnknownNode(NodeId(3))
            .to_string()
            .contains("node:3"));
        assert!(NetError::Io("boom".into()).to_string().contains("boom"));
    }
}
