//! # odp-net — the messaging substrate of the engineering model
//!
//! The paper's engineering model places "appropriate mechanisms … above the
//! low level operating systems and communications facilities" (§3). This
//! crate is that communications layer:
//!
//! * [`transport`] — the [`Transport`] abstraction: unreliable, unordered
//!   datagram delivery between [`odp_types::NodeId`]-addressed endpoints,
//!   with one send method and one delivery callback. The REX call protocol
//!   and media streams are built on this one narrow interface, which is
//!   what lets "several protocol access paths" coexist for one interface
//!   (§5.4); groups sit above REX, on bindings.
//! * [`sim`] — [`SimNet`]: an in-process simulated network with seeded,
//!   per-link configurable latency, jitter, loss and partitions, plus
//!   delivery statistics. This is the substitute for the paper's 1991
//!   internetwork testbed (see DESIGN.md): experiments need controllable
//!   latency and fault injection.
//! * [`tcp`] — [`TcpNetwork`]: the same `Transport` contract over real
//!   loopback/LAN TCP sockets with length-prefixed framing, demonstrating
//!   that nothing above the transport knows whether the network is
//!   simulated.
//! * [`rex`] — the Remote EXecution protocol: request/reply (interrogation)
//!   with retransmission, **at-most-once execution** via one server record
//!   per call, and request-only announcements, under per-call [`CallQos`]
//!   constraints — §5.1's "for both kinds of invocation, communications
//!   quality of service constraints must be specified (either explicitly
//!   or by default)".
//! * [`scrape`] — [`ScrapeServer`]: a tiny read-only HTTP/1.0 listener
//!   serving the Observatory's Prometheus text exposition (`/metrics`),
//!   the flight recorder (`/recorder`, `/recorder/dump`) and trace trees
//!   (`/trace/<id>`) to non-ODP clients such as Prometheus and `odp-top`.
//!
//! The crate deliberately knows nothing about values, signatures or
//! transparencies: payloads are opaque [`bytes::Bytes`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod rex;
pub mod scrape;
pub mod sim;
pub mod tcp;
pub mod transport;

pub use rex::{CallQos, RexEndpoint, RexError, RexRequest, JOB_QUEUE_CAP};
pub use scrape::ScrapeServer;
pub use sim::{LinkConfig, NetFault, SimNet, SimNetConfig, SimNetStats};
pub use tcp::TcpNetwork;
pub use transport::{Envelope, FrameSink, NetError, Transport};
