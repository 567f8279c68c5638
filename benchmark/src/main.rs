//! The repository benchmark: three closed-loop workloads over the public
//! API, end-to-end metrics from an untraced run and a per-layer breakdown
//! from a traced one. See README.md in this directory.
//!
//! ```text
//! odp-benchmark --workload <rpc_small|rpc_bulk|ledger_local> --seed <n>
//!               --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed correctness check prints it with `"correct": false` and exits
//! with code 1; bad arguments exit with code 2 and print no result.

mod hist;
mod servants;
mod shims;
mod workload;

use hist::Hist;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Client, Counters, Fixture, PartHists, ThreadStats, Workload};

/// Measurement windows per run, `--seconds / WINDOWS` each. Each
/// end-to-end timing is taken from the better quartile of its
/// per-window values (see [`better_quartile`]).
const WINDOWS: u32 = 40;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Largest share of the traced per-op p50 the parts may leave
/// unexplained on `rpc_small` and `ledger_local`.
const PARTS_TOLERANCE_PCT: f64 = 10.0;

const USAGE: &str = "usage: odp-benchmark --workload <rpc_small|rpc_bulk|ledger_local> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

struct Report {
    /// Failed correctness checks; any one fails the run.
    problems: Vec<String>,
    /// Checks on the measurement itself, printed but not failing the
    /// run: they say how far the breakdown can be trusted, not whether
    /// the program answered correctly.
    notes: Vec<String>,
    ops: Vec<(&'static str, u64, u64)>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(workload: Workload) -> Self {
        Self {
            problems: Vec::new(),
            notes: Vec::new(),
            ops: workload.op_names().iter().map(|&n| (n, 0, 0)).collect(),
            metrics: Vec::new(),
        }
    }

    fn count(&mut self, stats: &[ThreadStats]) {
        for s in stats {
            for (k, op) in self.ops.iter_mut().enumerate() {
                op.1 += s.attempted[k];
                op.2 += s.failed[k];
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems.push(format!("{name} is not a number"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Prints the operation counts and metrics, then the JSON result as
    /// the last line; returns whether every check passed.
    fn print(&self) -> bool {
        let attempted: u64 = self.ops.iter().map(|o| o.1).sum();
        let failed: u64 = self.ops.iter().map(|o| o.2).sum();
        let mut problems = self.problems.clone();
        if failed > 0 {
            problems.push(format!("{failed} of {attempted} operations failed"));
        }
        if attempted == 0 {
            problems.push("no operation completed".into());
        }
        for (name, a, f) in &self.ops {
            println!("ops {name:<8} attempted {a:>10} failed {f}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<34} {value:>14.4} {unit}");
        }
        for n in &self.notes {
            println!("{n}");
        }
        for p in &problems {
            println!("CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            problems.is_empty(),
            metrics.join(", ")
        );
        problems.is_empty()
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The value a quarter of the way from the best of `values`: the lower
/// quartile where lower is better, else the upper one. On a virtual
/// machine whose host takes CPU time from it in bursts (steal), a burst
/// inflates the windows it falls in, the p99 most. This figure ignores
/// bursts in up to three quarters of the windows, where a median ignores
/// them in half; a change in the program moves every window, so it
/// still shows.
fn better_quartile(mut values: Vec<f64>, lower_is_better: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    if !lower_is_better {
        values.reverse();
    }
    values.get(values.len() / 4).copied().unwrap_or(0.0)
}

/// One window's calls per second, p50 and p99 (ns), over both clients.
fn window_figures(stats: &[ThreadStats]) -> (f64, f64, f64) {
    let cps = stats
        .iter()
        .map(|s| s.ok() as f64 / (s.elapsed_ns.max(1) as f64 / 1e9))
        .sum();
    let mut latency = Hist::new();
    for s in stats {
        latency.merge(&s.latency);
    }
    (cps, latency.quantile(0.5), latency.quantile(0.99))
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Generates the clients' inputs (untimed), then builds a fixture and
/// returns it with its set-up time in seconds.
fn timed_setup(args: &Args, traced: bool) -> (f64, Fixture, Vec<Client>) {
    let mut clients = Client::generate(args.workload, args.seed);
    let t = Instant::now();
    let fixture = Fixture::setup(args.workload, args.seed, traced, &mut clients);
    (t.elapsed().as_secs_f64(), fixture, clients)
}

/// `--trace 0`: every end-to-end metric, over `WINDOWS` windows of the
/// first set-up's fixture. The other set-ups only time set-up, after the
/// run and after `VmHWM` is read.
fn end_to_end(args: &Args, report: &mut Report) {
    let window = Duration::from_secs(args.seconds) / WINDOWS;
    let (first_setup, fixture, mut clients) = timed_setup(args, false);
    let mut setups = vec![first_setup];
    let (mut cps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut stats = fixture.stats();
    for _ in 0..WINDOWS {
        fixture.run_for(&mut clients, &mut stats, window);
        report.count(&stats);
        let (c, p, q) = window_figures(&stats);
        println!(
            "window calls/s {c:>10.1} p50 {:>9.3} us p99 {:>9.3} us",
            p / 1e3,
            q / 1e3
        );
        cps.push(c);
        p50.push(p);
        p99.push(q);
    }
    report.problems.extend(fixture.verify(&clients));
    let rss = peak_rss_mib();
    drop(fixture);
    for _ in 1..SETUPS {
        setups.push(timed_setup(args, false).0);
    }
    report.metric("calls_per_s", better_quartile(cps, false), "1/s");
    report.metric("latency_p50_us", better_quartile(p50, true) / 1e3, "us");
    report.metric("latency_p99_us", better_quartile(p99, true) / 1e3, "us");
    report.metric("setup_s", median(setups), "s");
    match rss {
        Some(mib) => report.metric("peak_rss_mb", mib, "MiB"),
        None => report.problems.push("cannot read VmHWM".into()),
    }
}

/// `--trace 1`: every per-layer metric. Windows alternate between an
/// untraced fixture (counts, announcement cost, the overhead baseline)
/// and a traced one (the timing shims).
fn per_layer(args: &Args, report: &mut Report) {
    let w = args.workload;
    let window = Duration::from_secs(args.seconds) / WINDOWS;
    let (_, plain, mut plain_clients) = timed_setup(args, false);
    let (_, traced, mut traced_clients) = timed_setup(args, true);

    let (mut plain_stats, mut traced_stats) = (plain.stats(), traced.stats());
    let before = plain.counters();
    let (mut plain_cps, mut traced_cps) = (Vec::new(), Vec::new());
    let mut parts = PartHists::new();
    // Stays empty, so reads 0, on `rpc_*`: they make no announcements.
    let mut announce = Hist::new();
    let mut plain_ops = 0;
    let mut writes = 0;
    for i in 0..WINDOWS {
        let writes_before: u64 = plain_clients.iter().map(|c| c.writes).sum();
        let stats = if i % 2 == 0 {
            plain.run_for(&mut plain_clients, &mut plain_stats, window);
            &plain_stats
        } else {
            traced.run_for(&mut traced_clients, &mut traced_stats, window);
            &traced_stats
        };
        report.count(stats);
        let (cps, _, _) = window_figures(stats);
        if i % 2 == 0 {
            plain_cps.push(cps);
            plain_ops += stats
                .iter()
                .map(|s| s.attempted.iter().sum::<u64>())
                .sum::<u64>();
            writes += plain_clients.iter().map(|c| c.writes).sum::<u64>() - writes_before;
            for s in stats {
                announce.merge(&s.announce);
            }
        } else {
            traced_cps.push(cps);
            for s in stats {
                parts.merge(s.parts.as_ref().expect("traced fixture records parts"));
            }
        }
    }
    report.problems.extend(plain.verify(&plain_clients));
    report.problems.extend(traced.verify(&traced_clients));
    // `verify` waits for announcements still in flight, so co-located
    // audits are all through admission by now.
    let c: Counters = plain.counters().since(before);
    let [marshal, unmarshal, check] = workload::wire_costs(w, args.seed);

    let us = |h: &Hist| h.quantile(0.5) / 1e3;
    let per_op = |n: u64| n as f64 / plain_ops.max(1) as f64;
    report.metric("invocation.stub_us", us(&parts.stub), "us");
    report.metric("transparency.retry_us", us(&parts.retry), "us");
    report.metric("transparency.location_us", us(&parts.location), "us");
    report.metric("invocation.access_us", us(&parts.access), "us");
    report.metric("admission.self_us", us(&parts.admission), "us");
    report.metric("storage.wal_self_us", us(&parts.wal), "us");
    report.metric(
        "storage.wal_write_p99_us",
        parts.wal_write.quantile(0.99) / 1e3,
        "us",
    );
    report.metric("servant.self_us", us(&parts.servant), "us");
    report.metric("rex.request_path_us", us(&parts.request_path), "us");
    report.metric("rex.reply_path_us", us(&parts.reply_path), "us");
    report.metric("wire.marshal_ns", marshal, "ns");
    report.metric("wire.unmarshal_ns", unmarshal, "ns");
    report.metric("wire.check_ns", check, "ns");
    report.metric("net.frames_per_op", per_op(c.frames), "frames/op");
    report.metric("net.bytes_per_op", per_op(c.bytes), "B/op");
    report.metric("rex.duplicates_suppressed", c.duplicates as f64, "count");
    report.metric("rex.deadlines_expired", c.deadlines as f64, "count");
    report.metric(
        "capsule.local_fast_path_ratio",
        per_op(c.fast_path),
        "ratio",
    );
    report.metric(
        "storage.checkpoints_per_1k_writes",
        c.checkpoints as f64 * 1e3 / writes.max(1) as f64,
        "count/1k",
    );
    report.metric("admission.admitted", c.admitted as f64, "count");
    report.metric("admission.shed", c.shed as f64, "count");
    report.metric("invocation.announce_caller_us", us(&announce), "us");

    let plain_median = median(plain_cps);
    report.metric(
        "trace.overhead_pct",
        (plain_median - median(traced_cps)) / plain_median * 100.0,
        "%",
    );
    let total = parts.total.quantile(0.5);
    let sum: f64 = [
        &parts.stub,
        &parts.retry,
        &parts.location,
        &parts.request_path,
        &parts.admission,
        &parts.wal,
        &parts.servant,
        &parts.reply_path,
    ]
    .iter()
    .map(|h| h.quantile(0.5))
    .sum();
    let unattributed = (total - sum) / total * 100.0;
    report.metric("trace.unattributed_pct", unattributed, "%");
    report.metric("trace.call_p50_us", total / 1e3, "us");
    if w != Workload::RpcBulk {
        let verdict = if unattributed.abs() <= PARTS_TOLERANCE_PCT {
            "passed"
        } else {
            "FAILED"
        };
        report.notes.push(format!(
            "parts-sum check {verdict}: parts sum to {:.3} us against a traced p50 of {:.3} us \
             ({unattributed:+.1}%, tolerance {PARTS_TOLERANCE_PCT}%)",
            sum / 1e3,
            total / 1e3
        ));
    }
    if parts.unmatched > 0 {
        report.notes.push(format!(
            "{} traced calls had stamps of another call and were left out",
            parts.unmatched
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let hub = odp::telemetry::hub();
    let mut report = Report::new(args.workload);
    if hub.recording() {
        report
            .problems
            .push("program telemetry was on at start".into());
    }
    println!(
        "workload {:?} seed {} seconds {} trace {} clients {} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::CLIENTS,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    if args.trace {
        per_layer(&args, &mut report);
    } else {
        end_to_end(&args, &mut report);
    }
    if hub.recording() {
        report
            .problems
            .push("program telemetry was on at the end".into());
    }
    if report.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
