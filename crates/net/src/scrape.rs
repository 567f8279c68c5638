//! Read-only Observatory scrape listener.
//!
//! The Observatory's exposition (see `odp_telemetry::export`) is served two
//! ways: as `TelemetryServant` interrogations for ODP clients, and — here —
//! over a deliberately tiny HTTP/1.0 endpoint for everything that is *not*
//! an ODP client: `curl`, Prometheus, and `odp-top`. The listener is
//! strictly read-only (`GET` only, no op mutates anything) so exposing it
//! is never a control-plane risk; mutation stays behind the servant, where
//! `odp-security` can guard it.
//!
//! No HTTP library: the protocol surface is one request line in, one
//! `HTTP/1.0` response out, connection closed. Routes:
//!
//! | path            | body                                          |
//! |-----------------|-----------------------------------------------|
//! | `/metrics`      | Prometheus text exposition (with exemplars)   |
//! | `/recorder`     | flight-recorder tail (newest entries last)    |
//! | `/recorder/dump`| last incident dump, if a trigger has fired    |
//! | `/trace/<id>`   | rendered span tree for one trace id           |

use odp_telemetry::{hub, render_prometheus, ExpositionData};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest request head we will buffer before answering `400`: the routes
/// above fit in tens of bytes, so anything larger is not a scraper.
const MAX_REQUEST_HEAD: usize = 4096;

/// Per-connection socket timeout: a stalled scraper costs at most this
/// long, never a wedged listener thread.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(500);

/// Entries of flight-recorder tail served by `/recorder`.
const RECORDER_TAIL: usize = 256;

/// A bound read-only scrape endpoint serving the process-global telemetry
/// hub. Dropping the server (or calling [`ScrapeServer::shutdown`]) stops
/// the accept loop.
pub struct ScrapeServer {
    addr: SocketAddr,
    alive: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
}

impl ScrapeServer {
    /// Binds the listener on `addr` (use `127.0.0.1:0` for an ephemeral
    /// port) and starts serving in a background thread.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the bind or thread spawn fails.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let alive = Arc::new(AtomicBool::new(true));
        let served = Arc::new(AtomicU64::new(0));
        let loop_alive = Arc::clone(&alive);
        let loop_served = Arc::clone(&served);
        std::thread::Builder::new()
            .name(format!("odp-scrape-{}", local.port()))
            .spawn(move || accept_loop(&listener, &loop_alive, &loop_served))?;
        Ok(Self {
            addr: local,
            alive,
            served,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of requests answered so far (any status).
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops the accept loop. Idempotent; also called on drop.
    pub fn shutdown(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ScrapeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScrapeServer")
            .field("addr", &self.addr)
            .field("served", &self.served())
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, alive: &Arc<AtomicBool>, served: &Arc<AtomicU64>) {
    while alive.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Serve inline: responses are rendered from in-memory
                // atomics, so a request is microseconds of work and the
                // socket timeout bounds a stalled client.
                serve_one(stream);
                served.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn serve_one(mut stream: TcpStream) {
    // odp-lint: allow(l6, reason = "timeout tuning is best-effort; OS defaults apply")
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    // odp-lint: allow(l6, reason = "timeout tuning is best-effort; OS defaults apply")
    let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
    let Some(request_line) = read_request_line(&mut stream) else {
        respond(&mut stream, 400, "text/plain", "bad request\n");
        drain(&mut stream);
        return;
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => {
            respond(&mut stream, 400, "text/plain", "bad request\n");
            drain(&mut stream);
            return;
        }
    };
    if method != "GET" {
        respond(&mut stream, 405, "text/plain", "read-only endpoint\n");
        drain(&mut stream);
        return;
    }
    route(&mut stream, path);
    drain(&mut stream);
}

/// Signals end-of-response and consumes any unread request bytes, so
/// closing the socket sends FIN rather than RST (a close with pending
/// receive data resets the connection, truncating the response on the
/// client side). Bounded: the socket timeout caps each read and 64 KiB
/// caps the total, so a drip-feeding client cannot pin the thread.
fn drain(stream: &mut TcpStream) {
    // odp-lint: allow(l6, reason = "half-close after the response is written is best-effort")
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 1024];
    let mut drained = 0usize;
    while drained < 64 * 1024 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn route(stream: &mut TcpStream, path: &str) {
    match path {
        "/metrics" => {
            let body = render_prometheus(&ExpositionData::gather());
            respond(stream, 200, "text/plain; version=0.0.4", &body);
        }
        "/recorder" => {
            let mut body = hub().render_timeline(RECORDER_TAIL).join("\n");
            body.push('\n');
            respond(stream, 200, "text/plain", &body);
        }
        "/recorder/dump" => match hub().recorder().last_dump() {
            Some(dump) => {
                let mut body = format!("# dump: {} @{}ns\n", dump.reason, dump.at_ns);
                for line in &dump.lines {
                    body.push_str(line);
                    body.push('\n');
                }
                respond(stream, 200, "text/plain", &body);
            }
            None => respond(stream, 404, "text/plain", "no incident dump\n"),
        },
        p => {
            if let Some(id) = p
                .strip_prefix("/trace/")
                .and_then(|rest| rest.parse::<u64>().ok())
            {
                let mut body = hub().render_trace(id).join("\n");
                body.push('\n');
                respond(stream, 200, "text/plain", &body);
            } else {
                respond(stream, 404, "text/plain", "unknown path\n");
            }
        }
    }
}

/// Reads the whole request head (through the blank line) and returns the
/// request line, bounded by [`MAX_REQUEST_HEAD`]. Consuming the full head
/// matters: closing the socket with unread request bytes pending makes
/// the kernel answer with RST, which clients see as a reset mid-response.
/// Returns `None` on timeout, oversize, or non-UTF-8.
fn read_request_line(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    while head.len() < MAX_REQUEST_HEAD {
        // Blank line = end of head (tolerate bare-LF clients).
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            // odp-lint: allow(l1, reason = "read returns n <= chunk.len() by contract")
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    if head.len() >= MAX_REQUEST_HEAD {
        return None;
    }
    let head = String::from_utf8(head).ok()?;
    let line = head.lines().next()?.trim();
    if line.is_empty() {
        return None;
    }
    Some(line.to_string())
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        405 => "Method Not Allowed",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // odp-lint: allow(l6, reason = "scrape client may vanish mid-response; no caller to propagate to")
    let _ = stream.write_all(head.as_bytes());
    // odp-lint: allow(l6, reason = "scrape client may vanish mid-response; no caller to propagate to")
    let _ = stream.write_all(body.as_bytes());
    // odp-lint: allow(l6, reason = "scrape client may vanish mid-response; no caller to propagate to")
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn scrape_endpoint_serves_text_and_recorder() {
        let server = ScrapeServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("# TYPE odp_layer_calls_total counter"),
            "{body}"
        );

        // Text is the one exposition format: there is no JSON route.
        let (status, _) = get(addr, "/metrics.json");
        assert_eq!(status, 404);

        let (status, _) = get(addr, "/recorder");
        assert_eq!(status, 200);

        let (status, _) = get(addr, "/trace/12345");
        assert_eq!(status, 200);

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        // `served` ticks after the connection is drained, so the last
        // client can see its full response before the counter does —
        // poll briefly instead of asserting a racy instant.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.served() < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(server.served() >= 5);
        server.shutdown();
    }

    #[test]
    fn scrape_endpoint_is_read_only_and_bounds_requests() {
        let server = ScrapeServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"), "{raw}");

        // An oversized request line is rejected, not buffered without bound.
        let mut stream = TcpStream::connect(addr).unwrap();
        let long = vec![b'a'; MAX_REQUEST_HEAD + 16];
        stream.write_all(&long).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 400"), "{raw}");
    }
}
