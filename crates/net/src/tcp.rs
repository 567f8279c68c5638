//! A real TCP realization of the [`Transport`] contract.
//!
//! The engineering model requires that "the appropriate communications
//! capability \[be\] inserted transparently in the path between client and
//! server" (§4.1): nothing above the transport may know whether messages
//! cross a simulated link or a socket. `TcpNetwork` proves the point — it is
//! interchangeable with [`crate::SimNet`] in every test and example.
//!
//! Framing: each message is `u32` big-endian payload length, `u64`
//! big-endian sender node id, then the payload. Connections are established
//! lazily, cached per destination, and re-established after failure
//! (datagram semantics: a lost connection loses in-flight messages, which
//! the REX layer's retransmission recovers — exactly the paper's split of
//! responsibilities).
//!
//! Writes are *coalesced*: each cached connection owns a dedicated writer
//! thread fed by a bounded queue of pooled, pre-framed buffers. Senders
//! never block on the socket (only on a full queue — backpressure), and
//! the writer drains whatever has accumulated into one batched
//! write+flush, so n concurrent callers cost ~1 syscall set instead of n
//! serialized ones. Per-destination FIFO order is preserved: one queue,
//! one writer.
//!
//! Reads are delivered in place: each accepted connection's reader thread
//! parses frames and hands them straight to the node's sink.

use crate::transport::{Envelope, FrameSink, NetError, Transport};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use odp_telemetry::wire_stats;
use odp_types::NodeId;
use odp_wire::PooledBuf;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum accepted frame size (16 MiB): a hostile peer must not be able to
/// make a capsule allocate unboundedly.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Frames a connection's writer queue holds before `send_frame` blocks on it
/// (bounded queue = backpressure instead of unbounded memory).
const WRITER_QUEUE_DEPTH: usize = 256;

/// Upper bound on frames coalesced into a single write+flush.
const MAX_WRITE_BATCH: usize = 32;

fn io_err(e: &std::io::Error) -> NetError {
    NetError::Io(e.to_string())
}

/// Write failures that mean the *cached* connection died but the peer may
/// have restarted since (connection-reset family): retrying once on a fresh
/// connection is safe. Anything else (local resource exhaustion, invalid
/// data, …) is surfaced to the caller untouched.
fn is_reset(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotConnected
    )
}

/// Reads one frame. Returns `None` on clean EOF at a frame boundary.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<(NodeId, Bytes)>> {
    let mut header = [0u8; 12];
    let mut read = 0;
    while read < header.len() {
        // odp-lint: allow(l1, reason = "read < header.len() on the line above bounds the slice")
        match stream.read(&mut header[read..]) {
            Ok(0) if read == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof mid-header",
                ))
            }
            Ok(n) => read += n,
            Err(e) => return Err(e),
        }
    }
    // Fixed-size copies: infallible by construction, so a framing bug can
    // never panic the reader thread.
    let mut len_bytes = [0u8; 4];
    // odp-lint: allow(l1, reason = "fixed 12-byte header; [..4] is in bounds by construction")
    len_bytes.copy_from_slice(&header[..4]);
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut from_bytes = [0u8; 8];
    // odp-lint: allow(l1, reason = "fixed 12-byte header; [4..] is exactly 8 bytes by construction")
    from_bytes.copy_from_slice(&header[4..]);
    let from = NodeId(u64::from_be_bytes(from_bytes));
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(Some((from, Bytes::from(payload))))
}

struct NodeState {
    addr: SocketAddr,
    alive: Arc<AtomicBool>,
}

/// A cached outbound connection: the bounded frame queue feeding its
/// writer thread, plus the shared stream slot the writer writes through
/// (shared so tests and the writer's reconnect can reach the live socket).
#[derive(Clone)]
struct ConnHandle {
    tx: Sender<PooledBuf>,
    // Read outside the writer thread only by tests (fault injection).
    #[cfg_attr(not(test), allow(dead_code))]
    stream: Arc<Mutex<TcpStream>>,
}

/// TCP-backed transport. All endpoints bind loopback ports; a shared
/// in-process directory maps node ids to socket addresses (standing in for
/// the static configuration a 1991 deployment would have used).
#[derive(Clone, Default)]
pub struct TcpNetwork {
    directory: Arc<Mutex<HashMap<NodeId, NodeState>>>,
    connections: Arc<Mutex<HashMap<(NodeId, NodeId), ConnHandle>>>,
}

impl TcpNetwork {
    /// Creates an empty TCP network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn connect(&self, from: NodeId, to: NodeId) -> Result<ConnHandle, NetError> {
        if let Some(conn) = self.connections.lock().get(&(from, to)) {
            return Ok(conn.clone());
        }
        let addr = self
            .directory
            .lock()
            .get(&to)
            .map(|s| s.addr)
            .ok_or(NetError::UnknownNode(to))?;
        let stream = TcpStream::connect(addr).map_err(|e| {
            if e.kind() == std::io::ErrorKind::ConnectionRefused {
                // The peer's address is still in the directory but nothing
                // is listening: its process is down.
                NetError::Unreachable(to)
            } else {
                io_err(&e)
            }
        })?;
        stream.set_nodelay(true).map_err(|e| io_err(&e))?;
        let stream = Arc::new(Mutex::new(stream));
        let (tx, rx) = bounded(WRITER_QUEUE_DEPTH);
        let handle = ConnHandle {
            tx,
            stream: Arc::clone(&stream),
        };
        let directory = Arc::clone(&self.directory);
        std::thread::Builder::new()
            .name(format!("tcp-write-{from}-{to}"))
            .spawn(move || write_loop(&rx, &stream, &directory, to))
            .map_err(|e| NetError::Io(format!("spawn writer thread: {e}")))?;
        self.connections.lock().insert((from, to), handle.clone());
        Ok(handle)
    }
}

/// Drains the writer queue: blocks for the first frame, opportunistically
/// grabs whatever else has queued up, and flushes the batch in one go.
/// Exits when every sender is gone (connection evicted / deregistered) or
/// the connection dies beyond the one-reconnect recovery.
fn write_loop(
    rx: &Receiver<PooledBuf>,
    stream: &Arc<Mutex<TcpStream>>,
    directory: &Arc<Mutex<HashMap<NodeId, NodeState>>>,
    to: NodeId,
) {
    let mut batch: Vec<PooledBuf> = Vec::with_capacity(MAX_WRITE_BATCH);
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while batch.len() < MAX_WRITE_BATCH {
            match rx.try_recv() {
                Ok(frame) => batch.push(frame),
                Err(_) => break,
            }
        }
        if !write_batch(stream, &batch, directory, to) {
            // Connection gone for good: queued frames are lost datagrams
            // (REX retransmission recovers them); the dropped receiver
            // tells the next `send_frame` to rebuild the connection.
            return;
        }
        wire_stats().tx_batch();
        batch.clear(); // drops the frames, recycling their buffers
    }
}

/// Writes every frame in `batch` with a single flush. On a
/// connection-reset family error the peer may have restarted: reconnect
/// once into the shared stream slot and rewrite the whole batch (frames
/// are datagrams and REX deduplicates, so a replayed prefix is harmless).
/// Returns `false` when the connection is dead beyond that.
fn write_batch(
    stream: &Arc<Mutex<TcpStream>>,
    batch: &[PooledBuf],
    directory: &Arc<Mutex<HashMap<NodeId, NodeState>>>,
    to: NodeId,
) -> bool {
    let mut guard = stream.lock();
    match write_all_frames(&mut guard, batch) {
        Ok(()) => true,
        Err(e) if is_reset(e.kind()) => {
            // odp-lint: allow(l6, reason = "socket is already dead; shutdown is a courtesy to the peer")
            let _ = guard.shutdown(std::net::Shutdown::Both);
            let Some(addr) = directory.lock().get(&to).map(|s| s.addr) else {
                return false;
            };
            let Ok(fresh) = TcpStream::connect(addr) else {
                return false;
            };
            // odp-lint: allow(l6, reason = "nodelay is a latency optimization; the reconnect works without it")
            let _ = fresh.set_nodelay(true);
            *guard = fresh;
            write_all_frames(&mut guard, batch).is_ok()
        }
        Err(_) => false,
    }
}

fn write_all_frames(stream: &mut TcpStream, batch: &[PooledBuf]) -> std::io::Result<()> {
    for frame in batch {
        stream.write_all(frame)?;
    }
    stream.flush()
}

impl Transport for TcpNetwork {
    fn register(&self, node: NodeId, sink: FrameSink) -> Result<(), NetError> {
        let mut dir = self.directory.lock();
        if dir.contains_key(&node) {
            return Err(NetError::AlreadyRegistered(node));
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err(&e))?;
        let addr = listener.local_addr().map_err(|e| io_err(&e))?;
        listener.set_nonblocking(true).map_err(|e| io_err(&e))?;
        let alive = Arc::new(AtomicBool::new(true));
        dir.insert(
            node,
            NodeState {
                addr,
                alive: Arc::clone(&alive),
            },
        );
        drop(dir);
        let accept_alive = Arc::clone(&alive);
        if let Err(e) = std::thread::Builder::new()
            .name(format!("tcp-accept-{node}"))
            .spawn(move || accept_loop(&listener, node, &sink, &accept_alive))
        {
            // Without an acceptor the registration is useless: roll it back
            // and surface the failure instead of panicking.
            self.directory.lock().remove(&node);
            return Err(NetError::Io(format!("spawn accept thread: {e}")));
        }
        Ok(())
    }

    fn deregister(&self, node: NodeId) {
        if let Some(state) = self.directory.lock().remove(&node) {
            state.alive.store(false, Ordering::SeqCst);
        }
        self.connections
            .lock()
            .retain(|(from, to), _| *from != node && *to != node);
    }

    fn send_frame(&self, from: NodeId, to: NodeId, payload: &[u8]) -> Result<(), NetError> {
        let conn = self.connect(from, to)?;
        let mut frame = PooledBuf::acquire(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&from.raw().to_be_bytes());
        frame.extend_from_slice(payload);
        wire_stats().tx_frame();
        if let Err(crossbeam::channel::SendError(frame)) = conn.tx.send(frame) {
            // The writer exited (its connection died): evict the stale
            // handle and rebuild once. If the peer's process is down,
            // `connect` surfaces `Unreachable` — blind retries would only
            // burn the caller's budget.
            self.connections.lock().remove(&(from, to));
            let conn = self.connect(from, to)?;
            conn.tx
                .send(frame)
                .map_err(|_| NetError::Io("writer unavailable after reconnect".to_owned()))?;
        }
        Ok(())
    }

    fn is_registered(&self, node: NodeId) -> bool {
        self.directory.lock().contains_key(&node)
    }
}

fn accept_loop(listener: &TcpListener, node: NodeId, sink: &FrameSink, alive: &Arc<AtomicBool>) {
    while alive.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let sink = Arc::clone(sink);
                let reader_alive = Arc::clone(alive);
                if std::thread::Builder::new()
                    .name(format!("tcp-read-{node}"))
                    .spawn(move || read_loop(stream, node, &sink, &reader_alive))
                    .is_err()
                {
                    // Thread exhaustion: drop the connection (the sender
                    // sees a reset and reconnects) rather than panic.
                    continue;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn read_loop(mut stream: TcpStream, node: NodeId, sink: &FrameSink, alive: &Arc<AtomicBool>) {
    // Block on reads, but wake periodically so a deregistered node's reader
    // threads drain away.
    // odp-lint: allow(l6, reason = "without the timeout the reader still exits via connection teardown, just later")
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    while alive.load(Ordering::SeqCst) {
        match read_frame(&mut stream) {
            Ok(Some((from, payload))) => sink(Envelope {
                from,
                to: node,
                payload,
            }),
            Ok(None) => return,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => {
                // The connection dies (REX retransmission recovers the
                // messages), but the corruption itself must be observable.
                odp_telemetry::hub().event(
                    "tcp.frame_error",
                    node.raw(),
                    0,
                    format!("reader closed: {e}"),
                );
                return;
            }
        }
    }
}

impl std::fmt::Debug for TcpNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpNetwork")
            .field("nodes", &self.directory.lock().len())
            .field("connections", &self.connections.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::inbox;

    #[test]
    fn frames_round_trip_over_loopback() {
        let net = TcpNetwork::new();
        let _a = inbox(&net, NodeId(1)).unwrap();
        let b = inbox(&net, NodeId(2)).unwrap();
        net.send_frame(NodeId(1), NodeId(2), b"over tcp").unwrap();
        let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"over tcp"));
        assert_eq!(got.from, NodeId(1));
    }

    #[test]
    fn many_messages_preserve_per_sender_order() {
        let net = TcpNetwork::new();
        let _a = inbox(&net, NodeId(1)).unwrap();
        let b = inbox(&net, NodeId(2)).unwrap();
        for i in 0..100u32 {
            net.send_frame(NodeId(1), NodeId(2), &i.to_be_bytes())
                .unwrap();
        }
        for i in 0..100u32 {
            let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got.payload, Bytes::copy_from_slice(&i.to_be_bytes()));
        }
    }

    #[test]
    fn unknown_node_and_duplicate_registration() {
        let net = TcpNetwork::new();
        let _a = inbox(&net, NodeId(1)).unwrap();
        assert!(matches!(
            net.send_frame(NodeId(1), NodeId(9), b""),
            Err(NetError::UnknownNode(_))
        ));
        assert!(matches!(
            inbox(&net, NodeId(1)),
            Err(NetError::AlreadyRegistered(_))
        ));
    }

    #[test]
    fn bidirectional_traffic() {
        let net = TcpNetwork::new();
        let a = inbox(&net, NodeId(1)).unwrap();
        let b = inbox(&net, NodeId(2)).unwrap();
        net.send_frame(NodeId(1), NodeId(2), b"ping").unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            Bytes::from_static(b"ping")
        );
        net.send_frame(NodeId(2), NodeId(1), b"pong").unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            Bytes::from_static(b"pong")
        );
    }

    #[test]
    fn deregistered_node_unreachable() {
        let net = TcpNetwork::new();
        let _a = inbox(&net, NodeId(1)).unwrap();
        let _b = inbox(&net, NodeId(2)).unwrap();
        net.deregister(NodeId(2));
        assert!(!net.is_registered(NodeId(2)));
        assert!(net.send_frame(NodeId(1), NodeId(2), b"").is_err());
    }

    #[test]
    fn refused_connection_surfaces_unreachable() {
        let net = TcpNetwork::new();
        let _a = inbox(&net, NodeId(1)).unwrap();
        // A port that was just bound and released: connecting to it is
        // refused (nothing listens), modelling a peer whose process died.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        net.directory.lock().insert(
            NodeId(9),
            NodeState {
                addr: dead,
                alive: Arc::new(AtomicBool::new(true)),
            },
        );
        assert_eq!(
            net.send_frame(NodeId(1), NodeId(9), b"").unwrap_err(),
            NetError::Unreachable(NodeId(9))
        );
    }

    #[test]
    fn send_reconnects_after_reset() {
        let net = TcpNetwork::new();
        let _a = inbox(&net, NodeId(1)).unwrap();
        let b = inbox(&net, NodeId(2)).unwrap();
        net.send_frame(NodeId(1), NodeId(2), b"warm").unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        // Kill the cached stream under the cache's feet: the next write
        // fails with the connection-reset family and must transparently
        // retry on a fresh connection.
        let conn = net
            .connections
            .lock()
            .get(&(NodeId(1), NodeId(2)))
            .unwrap()
            .clone();
        conn.stream
            .lock()
            .shutdown(std::net::Shutdown::Both)
            .unwrap();
        net.send_frame(NodeId(1), NodeId(2), b"again").unwrap();
        let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"again"));
    }

    #[test]
    fn writer_coalesces_queued_frames() {
        let net = TcpNetwork::new();
        let _a = inbox(&net, NodeId(1)).unwrap();
        let b = inbox(&net, NodeId(2)).unwrap();
        let before = wire_stats().snapshot();
        for i in 0..64u32 {
            net.send_frame(NodeId(1), NodeId(2), &i.to_be_bytes())
                .unwrap();
        }
        for i in 0..64u32 {
            let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got.payload, Bytes::copy_from_slice(&i.to_be_bytes()));
        }
        let d = wire_stats().snapshot().since(&before);
        assert!(d.tx_frames >= 64, "frames counted: {}", d.tx_frames);
        // Other tests run concurrently against the same global counters,
        // so only sanity-check the invariant: batches never exceed frames.
        assert!(d.tx_batches <= d.tx_frames);
    }

    #[test]
    fn oversized_frame_rejected_by_reader() {
        // Hand-craft a frame claiming MAX_FRAME+1 bytes; reader must drop
        // the connection, not allocate.
        let net = TcpNetwork::new();
        let b = inbox(&net, NodeId(2)).unwrap();
        let addr = net.directory.lock()[&NodeId(2)].addr;
        let mut s = TcpStream::connect(addr).unwrap();
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        s.write_all(&header).unwrap();
        s.flush().unwrap();
        assert!(b.recv_timeout(Duration::from_millis(200)).is_err());
    }
}
