//! Open-loop load generation — the traffic half of chaos.
//!
//! The fault [`schedule`](crate::schedule) injects crashes and partitions;
//! this module injects *offered load*. Two properties matter and both are
//! easy to get wrong:
//!
//! * **Open loop.** A closed-loop driver (issue, wait, issue again) slows
//!   down exactly when the system does, so it can never push a system past
//!   saturation — the regime E17 exists to measure. Here the arrival
//!   schedule is computed *up front* from a seeded Poisson process at the
//!   configured rate, and workers issue call *n* at its scheduled instant
//!   whether or not call *n − 1* has finished.
//! * **No coordinated omission.** Latency is measured from each call's
//!   *intended* start, not from when a backed-up worker finally got to it.
//!   A call issued late because the system under test stalled the workers
//!   has its stall time counted, not hidden.
//!
//! The generator drives a mixed workload described as weighted
//! [`LoadOp`]s — closures assembled by the caller (bench, test, demo) so
//! the same engine can mix interrogations, announcements, group ops and
//! stream frames without this crate depending on every subsystem.
//!
//! Determinism: the same `(seed, rate, duration, mix)` always yields the
//! same arrival schedule and op sequence. Workers race wall-clock time,
//! so *latencies* vary run to run, but *which* calls are issued does not.

use crate::schedule::SplitMix64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one generated call came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// Completed with an application outcome.
    Ok,
    /// Shed: admission rejection or open breaker — the overload plane
    /// working as designed. Counted separately from failure.
    Shed,
    /// Failed: timeout, transport error, unexpected termination.
    Failed,
}

/// One weighted operation in the generated mix.
#[derive(Clone)]
pub struct LoadOp {
    /// Label for per-kind accounting (e.g. `"interrogate"`, `"announce"`).
    pub kind: &'static str,
    /// Relative weight in the mix (picks are weight-proportional).
    pub weight: u32,
    /// Issues one call and classifies the result.
    pub run: Arc<dyn Fn() -> OpResult + Send + Sync>,
}

impl LoadOp {
    /// A weighted op from a closure.
    pub fn new(
        kind: &'static str,
        weight: u32,
        run: impl Fn() -> OpResult + Send + Sync + 'static,
    ) -> Self {
        Self {
            kind,
            weight,
            run: Arc::new(run),
        }
    }
}

impl std::fmt::Debug for LoadOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadOp")
            .field("kind", &self.kind)
            .field("weight", &self.weight)
            .finish()
    }
}

/// Configuration of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Seed for the arrival schedule and the op mix.
    pub seed: u64,
    /// Offered load in calls per second (the *open-loop* rate: arrivals
    /// happen at this rate regardless of completions).
    pub rate_per_sec: f64,
    /// How long arrivals keep coming.
    pub duration: Duration,
    /// Worker threads issuing the scheduled calls. Enough workers must
    /// exist to cover `rate × typical-latency` concurrent calls, or the
    /// generator itself becomes the bottleneck (reported latencies still
    /// stay honest — they are measured from intended start).
    pub workers: usize,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            rate_per_sec: 500.0,
            duration: Duration::from_secs(1),
            workers: 8,
        }
    }
}

/// Per-kind accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Calls issued.
    pub sent: u64,
    /// Calls that completed with an application outcome.
    pub ok: u64,
    /// Calls shed by the overload plane.
    pub shed: u64,
    /// Calls that failed.
    pub failed: u64,
}

/// Result of one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Offered rate the schedule was generated at.
    pub offered_per_sec: f64,
    /// Wall-clock span from first intended start to last completion.
    pub elapsed: Duration,
    /// Accounting per op kind, in mix order.
    pub kinds: Vec<(&'static str, KindStats)>,
    /// Intended-start → completion latencies of successful calls,
    /// nanoseconds, sorted ascending (exact percentiles, no buckets).
    pub ok_latency_ns: Vec<u64>,
    /// Intended-start → rejection latencies of shed calls, sorted.
    pub shed_latency_ns: Vec<u64>,
}

impl LoadReport {
    fn totals(&self) -> KindStats {
        let mut t = KindStats::default();
        for (_, k) in &self.kinds {
            t.sent += k.sent;
            t.ok += k.ok;
            t.shed += k.shed;
            t.failed += k.failed;
        }
        t
    }

    /// Calls issued across all kinds.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.totals().sent
    }

    /// Calls that completed successfully.
    #[must_use]
    pub fn ok(&self) -> u64 {
        self.totals().ok
    }

    /// Calls shed by the overload plane.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.totals().shed
    }

    /// Calls that failed outright.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.totals().failed
    }

    /// Successful completions per second of elapsed time — the goodput
    /// axis of the E17 knee plot.
    #[must_use]
    pub fn goodput_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ok() as f64 / self.elapsed.as_secs_f64()
    }

    /// Exact quantile of the sorted successful-call latencies (`q` in
    /// `[0, 1]`), nanoseconds; `0` with no samples.
    #[must_use]
    pub fn ok_latency_at(&self, q: f64) -> u64 {
        quantile(&self.ok_latency_ns, q)
    }

    /// Exact quantile of the sorted shed-call latencies.
    #[must_use]
    pub fn shed_latency_at(&self, q: f64) -> u64 {
        quantile(&self.shed_latency_ns, q)
    }
}

fn quantile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((sorted_ns.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)]
}

/// Unit-uniform in `[0, 1)` from the top 53 bits (exactly representable).
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The precomputed arrival schedule: `(intended offset, op index)` pairs,
/// offsets ascending. Pure function of the config and mix weights.
#[must_use]
fn arrival_schedule(config: &LoadGenConfig, ops: &[LoadOp]) -> Vec<(Duration, usize)> {
    assert!(!ops.is_empty(), "load mix must name at least one op");
    assert!(config.rate_per_sec > 0.0, "rate must be positive");
    let total_weight: u64 = ops.iter().map(|o| u64::from(o.weight)).sum();
    assert!(total_weight > 0, "mix weights must not all be zero");
    let mut rng = SplitMix64::new(config.seed);
    let mut schedule = Vec::new();
    let mut at = 0.0f64;
    let horizon = config.duration.as_secs_f64();
    loop {
        // Poisson arrivals: exponential inter-arrival times. `1 - u` keeps
        // ln away from zero.
        at += -(1.0 - unit(&mut rng)).ln() / config.rate_per_sec;
        if at >= horizon {
            break;
        }
        let mut pick = rng.next_u64() % total_weight;
        let mut op = 0;
        for (i, o) in ops.iter().enumerate() {
            let w = u64::from(o.weight);
            if pick < w {
                op = i;
                break;
            }
            pick -= w;
        }
        schedule.push((Duration::from_secs_f64(at), op));
    }
    schedule
}

/// Runs one open-loop load generation: issues every scheduled arrival at
/// its intended instant (or as soon after as a worker frees up — the slip
/// is *counted* in that call's latency, never skipped), and aggregates
/// the per-kind accounting and exact latency distributions.
#[must_use]
pub fn run_load(config: &LoadGenConfig, ops: &[LoadOp]) -> LoadReport {
    let schedule = arrival_schedule(config, ops);
    let next_arrival = AtomicUsize::new(0);
    let epoch = Instant::now();
    struct WorkerResult {
        kinds: Vec<KindStats>,
        ok_ns: Vec<u64>,
        shed_ns: Vec<u64>,
    }
    let results: Vec<WorkerResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.workers.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut local = WorkerResult {
                        kinds: vec![KindStats::default(); ops.len()],
                        ok_ns: Vec::new(),
                        shed_ns: Vec::new(),
                    };
                    loop {
                        let idx = next_arrival.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset, op_idx)) = schedule.get(idx) else {
                            break;
                        };
                        let intended = epoch + offset;
                        // Open loop: wait for the intended instant; if we
                        // are already late (workers backed up behind a
                        // saturated system) issue immediately — the slip
                        // lands in the latency sample below.
                        let now = Instant::now();
                        if intended > now {
                            std::thread::sleep(intended - now);
                        }
                        let op = &ops[op_idx];
                        let result = (op.run)();
                        let latency =
                            u64::try_from(Instant::now().duration_since(intended).as_nanos())
                                .unwrap_or(u64::MAX);
                        let stats = &mut local.kinds[op_idx];
                        stats.sent += 1;
                        match result {
                            OpResult::Ok => {
                                stats.ok += 1;
                                local.ok_ns.push(latency);
                            }
                            OpResult::Shed => {
                                stats.shed += 1;
                                local.shed_ns.push(latency);
                            }
                            OpResult::Failed => stats.failed += 1,
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let elapsed = epoch.elapsed();
    let mut kinds: Vec<(&'static str, KindStats)> =
        ops.iter().map(|o| (o.kind, KindStats::default())).collect();
    let mut ok_ns = Vec::new();
    let mut shed_ns = Vec::new();
    for worker in results {
        for (i, k) in worker.kinds.iter().enumerate() {
            kinds[i].1.sent += k.sent;
            kinds[i].1.ok += k.ok;
            kinds[i].1.shed += k.shed;
            kinds[i].1.failed += k.failed;
        }
        ok_ns.extend(worker.ok_ns);
        shed_ns.extend(worker.shed_ns);
    }
    ok_ns.sort_unstable();
    shed_ns.sort_unstable();
    LoadReport {
        offered_per_sec: config.rate_per_sec,
        elapsed,
        kinds,
        ok_latency_ns: ok_ns,
        shed_latency_ns: shed_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn counting_op(kind: &'static str, weight: u32, hits: Arc<AtomicU64>) -> LoadOp {
        LoadOp::new(kind, weight, move || {
            hits.fetch_add(1, Ordering::Relaxed);
            OpResult::Ok
        })
    }

    #[test]
    fn schedule_is_deterministic_and_rate_shaped() {
        let config = LoadGenConfig {
            seed: 7,
            rate_per_sec: 1000.0,
            duration: Duration::from_secs(2),
            workers: 1,
        };
        let ops = vec![
            LoadOp::new("a", 3, || OpResult::Ok),
            LoadOp::new("b", 1, || OpResult::Ok),
        ];
        let s1 = arrival_schedule(&config, &ops);
        let s2 = arrival_schedule(&config, &ops);
        assert_eq!(s1, s2, "same seed must yield the same schedule");
        // ~2000 arrivals expected; Poisson 5σ ≈ ±224.
        assert!(
            (1700..=2300).contains(&s1.len()),
            "got {} arrivals",
            s1.len()
        );
        // Offsets ascend and stay inside the horizon.
        assert!(s1.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(s1.last().unwrap().0 < config.duration);
        // The 3:1 mix is respected within 10 points.
        let a = s1.iter().filter(|&&(_, op)| op == 0).count();
        let frac = a as f64 / s1.len() as f64;
        assert!((0.65..=0.85).contains(&frac), "mix fraction {frac}");
        // A different seed yields a different schedule.
        let other = arrival_schedule(&LoadGenConfig { seed: 8, ..config }, &ops);
        assert_ne!(s1, other);
    }

    #[test]
    fn every_scheduled_call_is_issued_exactly_once() {
        let hits = Arc::new(AtomicU64::new(0));
        let config = LoadGenConfig {
            seed: 3,
            rate_per_sec: 2000.0,
            duration: Duration::from_millis(200),
            workers: 4,
        };
        let ops = vec![counting_op("only", 1, Arc::clone(&hits))];
        let report = run_load(&config, &ops);
        let scheduled = arrival_schedule(&config, &ops).len() as u64;
        assert_eq!(report.sent(), scheduled);
        assert_eq!(hits.load(Ordering::Relaxed), scheduled);
        assert_eq!(report.ok(), scheduled);
        assert_eq!(report.ok_latency_ns.len() as u64, scheduled);
        assert!(report.goodput_per_sec() > 0.0);
    }

    #[test]
    fn latency_counts_queueing_from_intended_start() {
        // One worker, two arrivals scheduled ~together, each op holds the
        // worker 30 ms: the second call's latency must include the ~30 ms
        // it spent waiting for the worker — the anti-coordinated-omission
        // property.
        let config = LoadGenConfig {
            seed: 5,
            rate_per_sec: 2000.0,
            duration: Duration::from_millis(1),
            workers: 1,
        };
        let ops = vec![LoadOp::new("slow", 1, || {
            std::thread::sleep(Duration::from_millis(30));
            OpResult::Ok
        })];
        let report = run_load(&config, &ops);
        if report.sent() >= 2 {
            let max = *report.ok_latency_ns.last().unwrap();
            assert!(
                max >= 55_000_000,
                "second call must carry its wait: max {max} ns"
            );
        }
    }

    #[test]
    fn shed_and_failed_counted_separately() {
        let toggle = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&toggle);
        let config = LoadGenConfig {
            seed: 11,
            rate_per_sec: 3000.0,
            duration: Duration::from_millis(100),
            workers: 2,
        };
        let ops = vec![LoadOp::new("mixed", 1, move || {
            match t.fetch_add(1, Ordering::Relaxed) % 3 {
                0 => OpResult::Ok,
                1 => OpResult::Shed,
                _ => OpResult::Failed,
            }
        })];
        let report = run_load(&config, &ops);
        let total = report.ok() + report.shed() + report.failed();
        assert_eq!(total, report.sent());
        assert!(report.shed() > 0 && report.failed() > 0);
        assert_eq!(report.shed_latency_ns.len() as u64, report.shed());
        // Quantiles are exact order statistics of the sorted samples.
        assert_eq!(report.ok_latency_at(0.0), report.ok_latency_ns[0]);
        assert_eq!(
            report.ok_latency_at(1.0),
            *report.ok_latency_ns.last().unwrap()
        );
        assert!(report.ok_latency_at(0.5) <= report.ok_latency_at(0.99));
    }
}
