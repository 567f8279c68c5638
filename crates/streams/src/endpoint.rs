//! Stream endpoints: framed flow transport beside (not through) REX.
//!
//! §5.4 allows an interface several protocol access paths; stream data
//! takes its own: a `StreamEndpoint` registers a *distinct* transport
//! identity derived from the node's id, so media datagrams never contend
//! with (or confuse) REX. Frames carry `(stream, flow, sequence,
//! timestamp)` headers. The endpoint's dispatch is the transport's sink
//! for that identity: each frame goes to the sink registered for its
//! `(stream, flow)` on the thread that delivered it.

use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::Sender;
use odp_net::{Envelope, NetError, Transport};
use odp_types::{NodeId, StreamId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Offset separating stream transport identities from capsule identities.
const STREAM_NODE_OFFSET: u64 = 1 << 40;

/// The transport identity of `node`'s stream endpoint.
#[must_use]
pub fn stream_node(node: NodeId) -> NodeId {
    NodeId(node.raw() + STREAM_NODE_OFFSET)
}

/// One media frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The binding this frame belongs to.
    pub stream: StreamId,
    /// Flow index within the binding.
    pub flow: u32,
    /// Per-flow sequence number (dense from 0).
    pub seq: u64,
    /// Producer timestamp, microseconds since binding start.
    pub timestamp_us: u64,
    /// Media payload.
    pub payload: Bytes,
}

impl Frame {
    fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(28 + self.payload.len());
        buf.put_u64(self.stream.raw());
        buf.put_u32(self.flow);
        buf.put_u64(self.seq);
        buf.put_u64(self.timestamp_us);
        buf.extend_from_slice(&self.payload);
        buf.freeze()
    }

    fn decode(mut payload: Bytes) -> Option<Self> {
        use bytes::Buf;
        if payload.len() < 28 {
            return None;
        }
        let stream = StreamId(payload.get_u64());
        let flow = payload.get_u32();
        let seq = payload.get_u64();
        let timestamp_us = payload.get_u64();
        Some(Self {
            stream,
            flow,
            seq,
            timestamp_us,
            payload,
        })
    }
}

/// A frame sink. It runs on the transport's delivering thread (a
/// producer's pacer on a zero-delay link), so it must not block.
pub type Sink = Arc<dyn Fn(Frame) + Send + Sync>;

type SinkMap = Mutex<HashMap<(StreamId, u32), Sink>>;

/// A node's stream endpoint: sender + frame dispatch.
pub struct StreamEndpoint {
    node: NodeId,
    transport: Arc<dyn Transport>,
    sinks: Arc<SinkMap>,
    running: AtomicBool,
    /// Frames sent from this endpoint.
    pub sent: AtomicU64,
    /// Frames delivered to sinks.
    pub delivered: Arc<AtomicU64>,
}

impl StreamEndpoint {
    /// Opens the stream endpoint for `node` on `transport`.
    ///
    /// # Errors
    ///
    /// Any [`NetError`] from registration.
    pub fn new(transport: Arc<dyn Transport>, node: NodeId) -> Result<Arc<Self>, NetError> {
        let sinks: Arc<SinkMap> = Arc::new(Mutex::new(HashMap::new()));
        let delivered = Arc::new(AtomicU64::new(0));
        let (dispatch_sinks, dispatch_delivered) = (Arc::clone(&sinks), Arc::clone(&delivered));
        transport.register(
            stream_node(node),
            Arc::new(move |env: Envelope| dispatch(&dispatch_sinks, &dispatch_delivered, env)),
        )?;
        Ok(Arc::new(Self {
            node,
            transport,
            sinks,
            running: AtomicBool::new(true),
            sent: AtomicU64::new(0),
            delivered,
        }))
    }

    /// The capsule node this endpoint belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers the sink for `(stream, flow)` frames.
    pub fn set_sink(&self, stream: StreamId, flow: u32, sink: Sink) {
        self.sinks.lock().insert((stream, flow), sink);
    }

    /// Sends one frame to the stream endpoint of `to`.
    ///
    /// # Errors
    ///
    /// Any [`NetError`] (best-effort: media frames are never retransmitted;
    /// the QoS monitor observes the resulting loss).
    pub fn send(&self, to: NodeId, frame: &Frame) -> Result<(), NetError> {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.transport
            .send_frame(stream_node(self.node), stream_node(to), &frame.encode())
    }

    /// Shuts the endpoint down. Idempotent.
    pub fn shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            self.transport.deregister(stream_node(self.node));
        }
    }
}

impl Drop for StreamEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch(sinks: &SinkMap, delivered: &AtomicU64, env: Envelope) {
    if let Some(frame) = Frame::decode(env.payload) {
        let sink = sinks.lock().get(&(frame.stream, frame.flow)).cloned();
        if let Some(sink) = sink {
            delivered.fetch_add(1, Ordering::Relaxed);
            sink(frame);
        }
    }
}

impl std::fmt::Debug for StreamEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamEndpoint")
            .field("node", &self.node)
            .field("sinks", &self.sinks.lock().len())
            .finish()
    }
}

/// Channel-backed sink helper: frames are pushed into a crossbeam channel.
#[must_use]
pub fn channel_sink(tx: Sender<Frame>) -> Sink {
    Arc::new(move |frame| {
        let _ = tx.send(frame);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_net::SimNet;
    use std::time::Duration;

    #[test]
    fn frame_codec_round_trips() {
        let f = Frame {
            stream: StreamId(7),
            flow: 2,
            seq: 9,
            timestamp_us: 123_456,
            payload: Bytes::from_static(b"pix"),
        };
        assert_eq!(Frame::decode(f.encode()), Some(f));
        assert_eq!(Frame::decode(Bytes::from_static(b"short")), None);
    }

    #[test]
    fn frames_flow_between_endpoints() {
        let net = SimNet::perfect();
        let t: Arc<dyn Transport> = Arc::new(net);
        let a = StreamEndpoint::new(Arc::clone(&t), NodeId(1)).unwrap();
        let b = StreamEndpoint::new(t, NodeId(2)).unwrap();
        let (tx, rx) = crossbeam::channel::unbounded();
        b.set_sink(StreamId(1), 0, channel_sink(tx));
        for seq in 0..5 {
            a.send(
                NodeId(2),
                &Frame {
                    stream: StreamId(1),
                    flow: 0,
                    seq,
                    timestamp_us: seq * 40_000,
                    payload: Bytes::from_static(b"frame"),
                },
            )
            .unwrap();
        }
        for seq in 0..5 {
            let f = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(f.seq, seq);
        }
        // Frames for unregistered flows are dropped silently.
        a.send(
            NodeId(2),
            &Frame {
                stream: StreamId(9),
                flow: 0,
                seq: 0,
                timestamp_us: 0,
                payload: Bytes::new(),
            },
        )
        .unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn stream_identity_disjoint_from_capsule_identity() {
        assert_ne!(stream_node(NodeId(5)), NodeId(5));
        assert_eq!(stream_node(NodeId(5)).raw() - STREAM_NODE_OFFSET, 5);
    }
}
