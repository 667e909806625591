//! A small in-repo benchmark harness (criterion-shaped, std-only).
//!
//! The bench binaries under `benches/` use `harness = false` and drive this
//! module from a plain `fn main()`. The API mirrors the slice of criterion
//! the workspace used — [`Harness::benchmark_group`], [`Group::throughput`],
//! [`Group::sample_size`], [`Group::bench_function`] /
//! [`Group::bench_with_input`], and `b.iter(..)` — so the bench bodies read
//! the same while the timing loop stays ~150 lines of std.
//!
//! Timing model: each benchmark first warms up for a quarter of the
//! measurement budget, sizes a batch so one sample lasts roughly
//! `budget / samples`, then records `samples` batches and reports the
//! min / mean / max per-iteration time (plus throughput when declared).
//!
//! Knobs: pass a substring argument to run a subset
//! (`cargo bench --bench microbench -- planner`); set `BENCH_MEASURE_MS`
//! to shrink or grow the per-benchmark budget (default 200 ms — CI smoke
//! runs use a small value).
#![expect(clippy::disallowed_methods, reason = "the harness reads its flags and measurement budget from the environment")]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Work performed per iteration, used to derive a throughput line.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A parameterized benchmark name, e.g. `from_parameter(4)` → `"4"`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn from_parameter(p: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId(p.to_string())
    }

    pub fn new(function: &str, p: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId(format!("{function}/{p}"))
    }
}

/// Top-level driver; owns the name filter and measurement budget.
pub struct Harness {
    filter: Option<String>,
    measure: Duration,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness { filter: None, measure: Duration::from_millis(200) }
    }
}

impl Harness {
    /// Build a harness from the process arguments and environment. Flag
    /// arguments (anything starting with `-`, notably the `--bench` cargo
    /// passes) are ignored; the first plain argument is a substring filter.
    pub fn from_env() -> Harness {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let measure = std::env::var("BENCH_MEASURE_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_millis(200));
        Harness { filter, measure }
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group { harness: self, name: name.into(), throughput: None, samples: 50 }
    }

    /// The per-benchmark measurement budget (`BENCH_MEASURE_MS`), for
    /// harness binaries that size their own workloads instead of using
    /// [`Bencher::iter`].
    pub fn measure(&self) -> Duration {
        self.measure
    }
}

/// A named group of related benchmarks (shares throughput declaration).
pub struct Group<'a> {
    harness: &'a Harness,
    name: String,
    throughput: Option<Throughput>,
    samples: u32,
}

impl Group<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = (n as u32).max(10);
        self
    }

    pub fn bench_function(&mut self, id: impl std::fmt::Display, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.harness.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher { budget: self.harness.measure, samples: self.samples, stats: None };
        f(&mut b);
        match b.stats {
            Some(stats) => report(&full, &stats, self.throughput),
            None => println!("{full:<40} (no measurement: bencher never ran iter)"),
        }
        self
    }

    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id.0.clone(), |b| f(b, input))
    }

    pub fn finish(&mut self) {}
}

/// Per-iteration timing statistics, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    pub min: f64,
    pub mean: f64,
    pub max: f64,
    pub iters: u64,
}

/// Runs the measured routine; handed to the benchmark closure.
pub struct Bencher {
    budget: Duration,
    samples: u32,
    stats: Option<Stats>,
}

impl Bencher {
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup: a quarter of the budget, and at least one iteration. Also
        // yields the batch-size estimate for the measurement phase.
        let warmup = (self.budget / 4).max(Duration::from_millis(5));
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;

        // Size batches so `samples` of them fill the remaining budget.
        let sample_budget = (self.budget * 3 / 4).as_secs_f64() / self.samples as f64;
        let batch = ((sample_budget / per_iter.max(1e-9)) as u64).clamp(1, u64::MAX);

        let (mut min, mut max, mut total) = (f64::INFINITY, 0.0f64, 0.0f64);
        let mut iters = 0u64;
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let per = t.elapsed().as_secs_f64() / batch as f64;
            min = min.min(per);
            max = max.max(per);
            total += per;
            iters += batch;
        }
        self.stats = Some(Stats { min, mean: total / self.samples as f64, max, iters });
    }
}

fn report(name: &str, stats: &Stats, throughput: Option<Throughput>) {
    let tp = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  {:>10}/s", fmt_rate(n as f64 / stats.mean, "elem"))
        }
        Some(Throughput::Bytes(n)) => {
            format!("  {:>10}/s", fmt_bytes_rate(n as f64 / stats.mean))
        }
        None => String::new(),
    };
    println!(
        "{name:<40} [{} {} {}]{tp}",
        fmt_secs(stats.min),
        fmt_secs(stats.mean),
        fmt_secs(stats.max),
    );
}

fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

fn fmt_rate(r: f64, unit: &str) -> String {
    if r >= 1e6 {
        format!("{:.2} M{unit}", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.2} K{unit}", r / 1e3)
    } else {
        format!("{r:.0} {unit}")
    }
}

fn fmt_bytes_rate(r: f64) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    if r >= MIB {
        format!("{:.2} MiB", r / MIB)
    } else {
        format!("{:.1} KiB", r / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Harness {
        Harness { filter: None, measure: Duration::from_millis(8) }
    }

    #[test]
    fn bencher_records_stats() {
        let mut h = quick();
        let mut group = h.benchmark_group("t");
        let mut ran = false;
        group.sample_size(10).bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = quick();
        h.filter = Some("nomatch".into());
        let mut group = h.benchmark_group("t");
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| ());
            ran = true;
        });
        assert!(!ran, "filtered benchmark must not execute");
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut h = quick();
        let mut group = h.benchmark_group("t");
        let mut seen = 0;
        group.sample_size(10).bench_with_input(BenchmarkId::from_parameter(7), &7i32, |b, &x| {
            seen = x;
            b.iter(|| x * 2);
        });
        assert_eq!(seen, 7);
    }

    #[test]
    fn formatting_is_adaptive() {
        assert!(fmt_secs(5e-9).ends_with("ns"));
        assert!(fmt_secs(5e-6).ends_with("µs"));
        assert!(fmt_secs(5e-3).ends_with("ms"));
        assert!(fmt_secs(5.0).ends_with(" s"));
    }
}
