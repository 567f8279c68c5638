//! Offline stand-in for `criterion`: a minimal statistical bench harness
//! with the API subset the odp-rs benches use (`criterion_group!` in the
//! `name`/`config`/`targets` form, benchmark groups, `iter`,
//! `iter_custom`, throughput annotation).
//!
//! Measurement model: per benchmark, a short warm-up loop, then
//! `sample_size` timed samples of a batch whose size is auto-scaled so a
//! sample takes ≥ ~50µs; the reported figure is the median ns/iteration,
//! printed as one `<label> time: [<value> <unit>]` line per benchmark.
//! `scripts/bench.sh` parses that line for its paired A/B gate; this
//! stand-in does not attempt criterion's full bootstrap analysis.

use std::fmt;
use std::time::{Duration, Instant};

/// Top-level harness configuration and entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 20,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the warm-up duration per benchmark.
    #[must_use]
    pub fn warm_up_time(mut self, t: Duration) -> Criterion {
        self.warm_up_time = t;
        self
    }

    /// Sets the target total measurement duration per benchmark.
    #[must_use]
    pub fn measurement_time(mut self, t: Duration) -> Criterion {
        self.measurement_time = t;
        self
    }

    /// CLI-argument hook; this stand-in accepts and ignores harness args
    /// (`--bench`, filters) so `cargo bench` invocations work unchanged.
    #[must_use]
    pub fn configure_from_args(self) -> Criterion {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            config: self.clone(),
            _parent: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let config = self.clone();
        run_one(&config, &id.into().label, &mut f);
        self
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    config: Criterion,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n.max(2);
        self
    }

    /// Overrides the warm-up duration for this group.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.config.warm_up_time = t;
        self
    }

    /// Overrides the measurement duration for this group.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.config.measurement_time = t;
        self
    }

    /// Records the per-iteration workload for throughput reporting.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into().label);
        run_one(&self.config, &label, &mut f);
        self
    }

    /// Runs one parameterized benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into().label);
        run_one(&self.config, &label, &mut |b: &mut Bencher| b_with(b, input, &mut f));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn b_with<I: ?Sized, F: FnMut(&mut Bencher, &I)>(b: &mut Bencher, input: &I, f: &mut F) {
    f(b, input);
}

/// Identifier for a benchmark: a function name plus a parameter rendering.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a displayed parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Builds an id from just a displayed parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            label: s.to_owned(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> BenchmarkId {
        BenchmarkId { label }
    }
}

/// Per-iteration workload annotation (reported only, in this stand-in).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Measurement driver handed to each benchmark closure.
pub struct Bencher<'a> {
    config: &'a Criterion,
    /// Median ns/iter of the measured samples, filled by `iter*`.
    result_ns: Option<f64>,
}

impl Bencher<'_> {
    /// Times `routine`, auto-scaling batch size for resolution.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up: run until the warm-up budget is spent (bounded).
        let warm_deadline = Instant::now() + self.config.warm_up_time;
        let mut warm_iters: u64 = 0;
        while Instant::now() < warm_deadline && warm_iters < 1_000_000 {
            std::hint::black_box(routine());
            warm_iters += 1;
        }

        // Batch size: aim for samples of at least ~50µs.
        let probe_start = Instant::now();
        std::hint::black_box(routine());
        let probe = probe_start.elapsed().max(Duration::from_nanos(20));
        let batch = (Duration::from_micros(50).as_nanos() / probe.as_nanos()).clamp(1, 100_000) as u64;

        let samples = self.config.sample_size;
        let budget = Instant::now() + self.config.measurement_time;
        let mut per_iter_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
            if Instant::now() > budget {
                break;
            }
        }
        self.finish_samples(per_iter_ns);
    }

    /// Times a routine that measures itself: `routine(iters)` must return
    /// the total duration of `iters` iterations.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut routine: F) {
        let samples = self.config.sample_size.min(16);
        let iters_per_sample = 10u64;
        let budget = Instant::now() + self.config.measurement_time;
        let mut per_iter_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let total = routine(iters_per_sample);
            per_iter_ns.push(total.as_nanos() as f64 / iters_per_sample as f64);
            if Instant::now() > budget {
                break;
            }
        }
        self.finish_samples(per_iter_ns);
    }

    fn finish_samples(&mut self, mut per_iter_ns: Vec<f64>) {
        if per_iter_ns.is_empty() {
            return;
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        self.result_ns = Some(per_iter_ns[per_iter_ns.len() / 2]);
    }
}

fn run_one(config: &Criterion, label: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        config,
        result_ns: None,
    };
    f(&mut bencher);
    println!("{}", case_line(label, bencher.result_ns));
}

/// The one line printed per benchmark; `scripts/bench.sh` parses it.
fn case_line(label: &str, median_ns: Option<f64>) -> String {
    match median_ns {
        Some(ns) => format!("{label:<60} time: [{}]", format_ns(ns)),
        None => format!("{label:<60} time: [no samples]"),
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Defines a bench group entry point. Supports both the plain
/// `criterion_group!(name, target, ...)` form and the
/// `name = ...; config = ...; targets = ...` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Defines `main` running the given bench groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_samples() {
        let mut c = Criterion::default()
            .sample_size(4)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(10));
        let mut group = c.benchmark_group("g");
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("param", 3), &3u64, |b, &n| {
            b.iter(|| n * 2)
        });
        group.finish();
    }

    #[test]
    fn case_line_format_is_pinned() {
        // Labels are padded to 60 columns; `bench.sh` splits on whitespace.
        let prefix = format!("g/case/1{}", " ".repeat(52));
        let cases = [
            (Some(48.04), "[48.0 ns]"),
            (Some(1_738.2), "[1.738 µs]"),
            (Some(4_233_000.0), "[4.233 ms]"),
            (Some(2_500_000_000.0), "[2.500 s]"),
            (None, "[no samples]"),
        ];
        for (ns, value) in cases {
            assert_eq!(case_line("g/case/1", ns), format!("{prefix} time: {value}"));
        }
        let long = "x".repeat(70);
        assert_eq!(case_line(&long, Some(1.0)), format!("{long} time: [1.0 ns]"));
    }

    #[test]
    fn iter_custom_records() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(5));
        c.bench_function("custom", |b| {
            b.iter_custom(|iters| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(7u64.wrapping_mul(3));
                }
                start.elapsed()
            })
        });
    }
}
