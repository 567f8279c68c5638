//! The transport contract: every [`Transport`] implementation must satisfy
//! the same observable behaviour — the engineering model depends on
//! simulated and real networks being interchangeable (§5.4's "several
//! protocols by which an interface can be accessed").

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};
use odp_net::{
    CallQos, Envelope, LinkConfig, NetError, RexEndpoint, SimNet, SimNetConfig, TcpNetwork,
    Transport,
};
use odp_telemetry::TraceContext;
use odp_types::{InterfaceId, NodeId};
use std::sync::Arc;
use std::time::Duration;

/// Registers `node` with a sink that queues every frame for the test to
/// pull.
fn inbox(transport: &dyn Transport, node: NodeId) -> Result<Receiver<Envelope>, NetError> {
    let (tx, rx) = unbounded();
    transport.register(
        node,
        Arc::new(move |env| {
            let _ = tx.send(env);
        }),
    )?;
    Ok(rx)
}

fn contract(transport: Arc<dyn Transport>, label: &str) {
    // Registration uniqueness.
    let a = inbox(&*transport, NodeId(1)).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(matches!(
        inbox(&*transport, NodeId(1)),
        Err(NetError::AlreadyRegistered(_))
    ));
    let b = inbox(&*transport, NodeId(2)).unwrap();
    assert!(transport.is_registered(NodeId(1)));

    // Point-to-point delivery with sender identity.
    transport.send_frame(NodeId(1), NodeId(2), b"m1").unwrap();
    let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(got.from, NodeId(1));
    assert_eq!(got.to, NodeId(2));
    assert_eq!(got.payload, Bytes::from_static(b"m1"));

    // Per-sender FIFO (both implementations provide it; REX does not
    // require it but group relays benefit).
    for i in 0..50u8 {
        transport.send_frame(NodeId(1), NodeId(2), &[i]).unwrap();
    }
    for i in 0..50u8 {
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap().payload[0],
            i,
            "{label}"
        );
    }

    // Unknown destinations fail fast.
    assert!(matches!(
        transport.send_frame(NodeId(1), NodeId(9), b""),
        Err(NetError::UnknownNode(_))
    ));

    // Deregistration makes a node unreachable; re-registration revives it.
    transport.deregister(NodeId(2));
    assert!(!transport.is_registered(NodeId(2)));
    assert!(transport.send_frame(NodeId(1), NodeId(2), b"").is_err());
    let b2 = inbox(&*transport, NodeId(2)).unwrap();
    transport.send_frame(NodeId(1), NodeId(2), b"back").unwrap();
    assert_eq!(
        b2.recv_timeout(Duration::from_secs(5)).unwrap().payload,
        Bytes::from_static(b"back"),
        "{label}"
    );
    let _ = a;
}

#[test]
fn simnet_satisfies_the_contract() {
    contract(Arc::new(SimNet::perfect()), "simnet");
}

#[test]
fn tcp_satisfies_the_contract() {
    contract(Arc::new(TcpNetwork::new()), "tcp");
}

/// A sink may call back into the transport from inside delivery. It runs
/// on the sender's thread (SimNet, zero delay), on the pump (SimNet,
/// delayed) or on a reader thread (TCP); none of them may hold a lock
/// that `send` or `is_registered` needs.
fn sink_may_reenter(transport: Arc<dyn Transport>, label: &'static str) {
    let client = inbox(&*transport, NodeId(1)).unwrap();
    let weak = Arc::downgrade(&transport);
    transport
        .register(
            NodeId(2),
            Arc::new(move |env: Envelope| {
                let Some(t) = weak.upgrade() else { return };
                if t.is_registered(env.from) {
                    t.send_frame(env.to, env.from, &env.payload)
                        .expect("bounce");
                }
            }),
        )
        .unwrap();
    let (done_tx, done_rx) = crossbeam::channel::bounded(1);
    std::thread::spawn(move || {
        for i in 0..50u8 {
            transport.send_frame(NodeId(1), NodeId(2), &[i]).unwrap();
            let got = client
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!((got.from, got.payload[0]), (NodeId(2), i), "{label}");
        }
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("{label}: re-entrant sink deadlocked or failed"));
}

#[test]
fn simnet_sink_may_reenter_the_transport() {
    sink_may_reenter(Arc::new(SimNet::perfect()), "simnet/zero-delay");
    let delayed = SimNet::new(SimNetConfig {
        default_link: LinkConfig::with_latency(Duration::from_micros(200)),
        ..SimNetConfig::default()
    });
    sink_may_reenter(Arc::new(delayed), "simnet/pump");
}

#[test]
fn tcp_sink_may_reenter_the_transport() {
    sink_may_reenter(Arc::new(TcpNetwork::new()), "tcp");
}

/// REX behaves identically over both transports: the engineering layers
/// above cannot tell them apart.
fn rex_over(transport: Arc<dyn Transport>, label: &str) {
    let client = RexEndpoint::new(Arc::clone(&transport), NodeId(10), 2).unwrap();
    let server = RexEndpoint::new(transport, NodeId(20), 2).unwrap();
    server.set_handler(Arc::new(|req| {
        let mut reply = req.body.to_vec();
        reply.reverse();
        odp_wire::PooledBuf::from_slice(&reply)
    }));
    for payload in [&b"abc"[..], &b""[..], &[0u8; 4096][..]] {
        let reply = client
            .call(
                NodeId(20),
                InterfaceId(1),
                "rev",
                payload,
                CallQos::with_deadline(Duration::from_secs(5)),
                TraceContext::NONE,
            )
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut expect = payload.to_vec();
        expect.reverse();
        assert_eq!(reply, Bytes::from(expect), "{label}");
    }
    client.shutdown();
    server.shutdown();
}

#[test]
fn rex_indistinguishable_over_simnet() {
    rex_over(Arc::new(SimNet::perfect()), "rex/simnet");
}

#[test]
fn rex_indistinguishable_over_tcp() {
    rex_over(Arc::new(TcpNetwork::new()), "rex/tcp");
}

/// At-most-once holds across seeds: under heavy random loss every logical
/// call executes exactly once, for many different loss patterns.
#[test]
fn at_most_once_across_seeds() {
    for seed in [1u64, 7, 42, 1991, 0xDEAD] {
        let net = SimNet::new(odp_net::SimNetConfig {
            seed,
            default_link: odp_net::LinkConfig::with_loss(0.4),
        });
        let t: Arc<dyn Transport> = Arc::new(net);
        let client = RexEndpoint::new(Arc::clone(&t), NodeId(1), 2).unwrap();
        let server = RexEndpoint::new(t, NodeId(2), 2).unwrap();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let h = Arc::clone(&hits);
        server.set_handler(Arc::new(move |req| {
            h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            odp_wire::PooledBuf::from_slice(&req.body)
        }));
        let qos = CallQos {
            deadline: Duration::from_secs(20),
            retry_interval: Duration::from_millis(5),
            priority: odp_wire::CallPriority::Normal,
        };
        for i in 0..20u64 {
            let body = i.to_be_bytes();
            let reply = client
                .call(
                    NodeId(2),
                    InterfaceId(1),
                    "echo",
                    &body,
                    qos,
                    TraceContext::NONE,
                )
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(reply, Bytes::copy_from_slice(&body));
        }
        assert_eq!(
            hits.load(std::sync::atomic::Ordering::SeqCst),
            20,
            "seed {seed}: handler executed a duplicate"
        );
        client.shutdown();
        server.shutdown();
    }
}
