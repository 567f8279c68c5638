//! `odp-top` — a live terminal view of the Observatory.
//!
//! Polls an `odp-net` scrape endpoint (`ScrapeServer`, route `/metrics`)
//! and renders the registry the way `top` renders processes: per-layer
//! call and failure *rates* (deltas between polls), a latency sparkline
//! per layer from the log₂ histogram, queue depth against high-water,
//! wire pool hit ratio and write coalescing, and flight-recorder state.
//! No TUI library: plain ANSI clear + redraw, and a `--plain` fallback
//! that just appends frames (used by `--iterations` smoke runs).
//!
//! ```text
//! odp-top --addr 127.0.0.1:9464          # watch a running system
//! odp-top --demo                         # self-contained: in-process
//!                                        # world + scrape server + load
//! odp-top --demo --iterations 3 --plain  # non-interactive smoke run
//! ```

// odp-lint: allow-file(l3, reason = "odp-top is an external scraper, not a capsule: it speaks raw HTTP to the scrape endpoint and sleeps between refreshes by design")

use odp::prelude::*;
use odp_bench::counter;
use std::collections::BTreeMap;
use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Eight-level bar glyphs for sparklines (space = empty bucket).
const BARS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

#[derive(Default, Clone)]
struct LayerStat {
    calls: u64,
    failures: u64,
    /// `(le, count_in_bucket)` — decumulated, ascending `le`.
    buckets: Vec<(u64, u64)>,
}

#[derive(Default, Clone)]
struct QueueStat {
    depth: u64,
    high_water: u64,
    dropped: u64,
}

#[derive(Default, Clone)]
struct Snapshot {
    layers: BTreeMap<(u64, String), LayerStat>,
    queues: BTreeMap<(u64, String), QueueStat>,
    scalars: BTreeMap<String, u64>,
}

/// One `GET` against the scrape endpoint; returns the response body.
fn fetch(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    raw.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| "malformed HTTP response".to_string())
}

/// Parse `key="value"` pairs (naive but escape-aware; matches what the
/// exposition emits).
fn parse_labels(s: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut rest = s;
    while let Some(eq) = rest.find('=') {
        let key = rest[..eq]
            .trim_matches(|c: char| c == ',' || c.is_whitespace())
            .to_string();
        let Some(after) = rest[eq + 1..].strip_prefix('"') else {
            break;
        };
        let mut val = String::new();
        let mut consumed = after.len();
        let mut escaped = false;
        for (i, c) in after.char_indices() {
            if escaped {
                val.push(c);
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                consumed = i + 1;
                break;
            } else {
                val.push(c);
            }
        }
        out.insert(key, val);
        rest = &after[consumed..];
    }
    out
}

fn parse_metrics(text: &str) -> Snapshot {
    let mut snap = Snapshot::default();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        // Strip an OpenMetrics exemplar suffix (` # {...} v`) if present.
        let line = line.split(" # ").next().unwrap_or(line);
        let (name, labels, value) = match line.find('{') {
            Some(open) => {
                let Some(close) = line.rfind('}') else {
                    continue;
                };
                let Ok(v) = line[close + 1..].trim().parse::<f64>() else {
                    continue;
                };
                (
                    &line[..open],
                    parse_labels(&line[open + 1..close]),
                    v as u64,
                )
            }
            None => {
                let mut parts = line.split_whitespace();
                let (Some(n), Some(v)) = (parts.next(), parts.next()) else {
                    continue;
                };
                let Ok(v) = v.parse::<f64>() else { continue };
                (n, BTreeMap::new(), v as u64)
            }
        };
        let node = labels
            .get("node")
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(0);
        match name {
            "odp_layer_calls_total" | "odp_layer_failures_total" => {
                if let Some(layer) = labels.get("layer") {
                    let row = snap.layers.entry((node, layer.clone())).or_default();
                    if name == "odp_layer_calls_total" {
                        row.calls = value;
                    } else {
                        row.failures = value;
                    }
                }
            }
            "odp_layer_latency_ns_bucket" => {
                let (Some(layer), Some(le)) = (labels.get("layer"), labels.get("le")) else {
                    continue;
                };
                let Ok(le) = le.parse::<u64>() else {
                    continue; // +Inf closes the histogram; totals come from _count
                };
                let row = snap.layers.entry((node, layer.clone())).or_default();
                // Lines arrive cumulative in ascending le: decumulate.
                let prior: u64 = row.buckets.iter().map(|(_, c)| c).sum();
                row.buckets.push((le, value.saturating_sub(prior)));
            }
            "odp_queue_depth" | "odp_queue_high_water" | "odp_queue_dropped_total" => {
                if let Some(queue) = labels.get("queue") {
                    let row = snap.queues.entry((node, queue.clone())).or_default();
                    match name {
                        "odp_queue_depth" => row.depth = value,
                        "odp_queue_high_water" => row.high_water = value,
                        _ => row.dropped = value,
                    }
                }
            }
            n => {
                snap.scalars.insert(n.to_string(), value);
            }
        }
    }
    snap
}

/// A sparkline over bucket counts, scaled to the layer's own maximum.
fn sparkline(buckets: &[(u64, u64)]) -> String {
    if buckets.is_empty() {
        return String::new();
    }
    let max = buckets.iter().map(|(_, c)| *c).max().unwrap_or(0).max(1);
    buckets
        .iter()
        .map(|(_, c)| {
            BARS[(*c as usize * (BARS.len() - 1))
                .div_ceil(max as usize)
                .min(8)]
        })
        .collect()
}

fn ratio_pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

fn render(addr: &str, snap: &Snapshot, prev: Option<&(Snapshot, Instant)>, plain: bool) -> String {
    let mut out = String::new();
    if !plain {
        out.push_str("\x1b[2J\x1b[H");
    }
    let dt = prev.map_or(1.0, |(_, at)| at.elapsed().as_secs_f64().max(1e-3));
    out.push_str(&format!("odp-top — scraping http://{addr}/metrics\n\n"));

    out.push_str(&format!(
        "{:>6} {:<20} {:>10} {:>9} {:>8}  {:<20} {:>9}\n",
        "node", "layer", "calls", "call/s", "fail/s", "latency (log2 ns)", "p-range"
    ));
    for ((node, layer), row) in &snap.layers {
        let (rate, fail_rate) = match prev.and_then(|(p, _)| p.layers.get(&(*node, layer.clone())))
        {
            Some(p) => (
                (row.calls.saturating_sub(p.calls)) as f64 / dt,
                (row.failures.saturating_sub(p.failures)) as f64 / dt,
            ),
            None => (0.0, 0.0),
        };
        let range = match (row.buckets.first(), row.buckets.last()) {
            (Some((lo, _)), Some((hi, _))) => format!("≤{lo}..{hi}"),
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:>6} {:<20} {:>10} {:>9.1} {:>8.1}  {:<20} {:>9}\n",
            node,
            layer,
            row.calls,
            rate,
            fail_rate,
            sparkline(&row.buckets),
            range
        ));
    }

    if !snap.queues.is_empty() {
        out.push_str(&format!(
            "\n{:>6} {:<20} {:>7} {:>10} {:>9}\n",
            "node", "queue", "depth", "high-water", "dropped"
        ));
        for ((node, queue), q) in &snap.queues {
            out.push_str(&format!(
                "{:>6} {:<20} {:>7} {:>10} {:>9}\n",
                node, queue, q.depth, q.high_water, q.dropped
            ));
        }
    }

    let s = |k: &str| snap.scalars.get(k).copied().unwrap_or(0);
    let pool_total = s("odp_wire_pool_hits_total") + s("odp_wire_pool_misses_total");
    out.push_str(&format!(
        "\nwire: pool hit {:5.1}% ({}/{})  coalesce {:4.2} frames/batch  borrowed {:5.1}% of decoded bytes\n",
        ratio_pct(s("odp_wire_pool_hits_total"), pool_total),
        s("odp_wire_pool_hits_total"),
        pool_total,
        if s("odp_wire_tx_batches_total") == 0 {
            0.0
        } else {
            s("odp_wire_tx_frames_total") as f64 / s("odp_wire_tx_batches_total") as f64
        },
        ratio_pct(
            s("odp_wire_decode_borrowed_bytes_total"),
            s("odp_wire_decode_borrowed_bytes_total") + s("odp_wire_decode_copied_bytes_total")
        ),
    ));
    out.push_str(&format!(
        "recorder: {} entries ({} appended, {} evicted), {} triggers\n",
        s("odp_recorder_entries"),
        s("odp_recorder_appended_total"),
        s("odp_recorder_evicted_total"),
        s("odp_recorder_triggers_total"),
    ));
    out
}

/// `--demo`: a self-contained world — counter servant behind a forced
/// remote binding, sampled tracing on, two open-loop client threads, and
/// a scrape server for this process — so `odp-top` has something to show
/// without an external system.
fn spawn_demo() -> (World, odp::net::ScrapeServer) {
    let hub = odp::telemetry::hub();
    hub.set_recording(true);
    hub.set_sampling(odp::telemetry::Sampling::OneIn(8));
    let world = World::quick();
    let r = world.capsule(0).export(counter());
    for t in 0..2u64 {
        let capsule = std::sync::Arc::clone(world.capsule(1));
        let target = r.clone();
        std::thread::spawn(move || {
            let binding = capsule.bind_with(
                target,
                TransparencyPolicy::default().with_force_remote(true),
            );
            let mut i = 0i64;
            loop {
                let _ = if i % 3 == 0 {
                    binding.interrogate("read", vec![])
                } else {
                    binding.interrogate("add", vec![Value::Int(t as i64 + 1)])
                };
                i += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    }
    let server = odp::net::ScrapeServer::bind("127.0.0.1:0").expect("bind scrape server");
    (world, server)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let demo = args.iter().any(|a| a == "--demo");
    let plain = args.iter().any(|a| a == "--plain");
    let interval = Duration::from_millis(
        get("--interval-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1000),
    );
    let iterations: u64 = get("--iterations")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let _demo_world; // keeps the demo world (and its load) alive
    let addr = if demo {
        let (world, server) = spawn_demo();
        let addr = server.addr().to_string();
        _demo_world = Some((world, server));
        // Let the load generators produce a first batch of samples.
        std::thread::sleep(Duration::from_millis(150));
        addr
    } else {
        _demo_world = None;
        match get("--addr") {
            Some(a) => a,
            None => {
                eprintln!(
                    "usage: odp-top --addr host:port [--interval-ms N] [--iterations N] [--plain]"
                );
                eprintln!("       odp-top --demo [--iterations N] [--plain]");
                std::process::exit(2);
            }
        }
    };

    let mut prev: Option<(Snapshot, Instant)> = None;
    let mut frame = 0u64;
    loop {
        match fetch(&addr, "/metrics") {
            Ok(body) => {
                let snap = parse_metrics(&body);
                print!("{}", render(&addr, &snap, prev.as_ref(), plain));
                let _ = std::io::stdout().flush();
                prev = Some((snap, Instant::now()));
            }
            Err(e) => eprintln!("odp-top: {e}"),
        }
        frame += 1;
        if iterations != 0 && frame >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }
}
