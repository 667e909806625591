//! **Figure 11 — Parallel query execution scaling.**
//!
//! Multi-year one-cell queries at 1 / 2 / 4 / 8 executor threads, over a
//! cold cube cache (every planned cube faults in from the modeled disk)
//! and a warmed recency cache. Reported latency is
//! [`QueryStats::modeled_response`]: wall time plus the *critical-path*
//! modeled I/O, i.e. only the worker with the most disk fetches is
//! charged — overlapped fetches on other workers are free, which is the
//! whole point of the parallel executor. Warm throughput is real wall
//! clock (queries/second).
//!
//! A single-flight stampede microbench closes the figure: 8 threads miss
//! the same buffer-pool page at once and the pool must perform exactly one
//! physical read.
//!
//! `BENCH_MEASURE_MS` shrinks both the workload and the per-point query
//! count for CI smoke runs (default 200 ms).
//!
//! [`QueryStats::modeled_response`]: rased_query::QueryStats::modeled_response

use rased_bench::{bench_dir, build_index, fmt_duration, one_cell_query, random_windows, Workload};
use rased_bench::harness::Harness;
use rased_core::{CacheConfig, IoCostModel, QueryEngine, TemporalIndex};
use rased_storage::sync::Mutex;
use rased_storage::{BufferPool, PageFile};
use std::error::Error;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const WINDOW_DAYS: u32 = 540;

fn main() -> Result<(), Box<dyn Error>> {
    let budget = Harness::from_env().measure();
    let smoke = budget < Duration::from_millis(100);
    let (w, queries) = if smoke {
        (Workload::years(2, 60, 0xF11A), 3)
    } else {
        (Workload::years(3, 200, 0xF11A), 30)
    };

    let dir = bench_dir("fig11");
    println!("# Fig 11: building a {}-day index...", w.range.len_days());
    drop(build_index(&dir.file("index"), &w, 4, CacheConfig::disabled(), IoCostModel::hdd())?);

    let windows = random_windows(&w, WINDOW_DAYS, queries, 0x11AA);

    println!(
        "\n{:>8} | {:>12} | {:>12} | {:>12} | {:>10}",
        "threads", "cold", "warm", "cold speedup", "warm QPS"
    );
    println!("{}", "-".repeat(68));

    let mut cold_base = Duration::ZERO;
    for t in THREADS {
        // Cold: no cube cache, so every planned cube faults from disk.
        let cold_index = TemporalIndex::open(
            &dir.file("index"),
            w.schema,
            4,
            CacheConfig::disabled(),
            IoCostModel::hdd(),
        )?;
        let cold = avg_response(&cold_index, t, &windows)?;
        if t == 1 {
            cold_base = cold;
        }

        // Warm: recency cache sized to hold the hot tail of the windows.
        let warm_index = TemporalIndex::open(
            &dir.file("index"),
            w.schema,
            4,
            CacheConfig { slots: 256 },
            IoCostModel::hdd(),
        )?;
        warm_index.warm_cache()?;
        let warm = avg_response(&warm_index, t, &windows)?;

        // Warm throughput in real wall-clock time, re-running the window
        // set until the measurement budget is spent.
        let engine = QueryEngine::new(&warm_index).with_threads(t);
        let started = Instant::now();
        let mut ran = 0u64;
        while started.elapsed() < budget {
            for range in &windows {
                engine.execute(&one_cell_query(*range))?;
                ran += 1;
            }
        }
        let qps = ran as f64 / started.elapsed().as_secs_f64();

        let speedup = cold_base.as_secs_f64() / cold.as_secs_f64().max(f64::EPSILON);
        println!(
            "{:>8} | {:>12} | {:>12} | {:>11.2}x | {:>10.0}",
            t,
            fmt_duration(cold),
            fmt_duration(warm),
            speedup,
            qps
        );
    }

    stampede_microbench(dir.path())?;
    println!(
        "\n(avg of {queries} one-cell {WINDOW_DAYS}-day queries per point; modeled disk: \
         5 ms seek + 150 MB/s; latency = wall + critical-path modeled I/O)"
    );
    Ok(())
}

/// Mean modeled response time of the window set at `threads`.
fn avg_response(
    index: &TemporalIndex,
    threads: usize,
    windows: &[rased_temporal::DateRange],
) -> Result<Duration, Box<dyn Error>> {
    let engine = QueryEngine::new(index).with_threads(threads);
    let mut total = Duration::ZERO;
    for range in windows {
        total += engine.execute(&one_cell_query(*range))?.stats.modeled_response();
    }
    Ok(total / windows.len().max(1) as u32)
}

/// 8 threads miss the same page simultaneously; single-flight must
/// coalesce them into exactly one physical read.
fn stampede_microbench(dir: &std::path::Path) -> Result<(), Box<dyn Error>> {
    const STAMPEDE: usize = 8;
    let file = Arc::new(PageFile::create(&dir.join("stampede.pages"), 4096, IoCostModel::hdd())?);
    let page = file.append_page(&vec![7u8; 4096])?;
    let pool = BufferPool::new(Arc::clone(&file), 4);

    let barrier = Barrier::new(STAMPEDE);
    let failures: Mutex<Vec<String>> = Mutex::new_named(Vec::new(), "bench.stampede_failures");
    std::thread::scope(|s| {
        for _ in 0..STAMPEDE {
            s.spawn(|| {
                barrier.wait();
                if let Err(e) = pool.read(page) {
                    failures.lock().push(e.to_string());
                }
            });
        }
    });
    // Any worker's read error fails the run; report the first recorded.
    let first_failure = failures.lock().first().cloned();
    if let Some(e) = first_failure {
        return Err(e.into());
    }

    let reads = file.stats().snapshot().reads;
    println!(
        "\nsingle-flight stampede: {STAMPEDE} concurrent misses on {page:?} -> {reads} physical \
         read{} ({})",
        if reads == 1 { "" } else { "s" },
        if reads == 1 { "coalesced" } else { "NOT coalesced" }
    );
    Ok(())
}
