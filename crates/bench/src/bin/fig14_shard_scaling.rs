//! **Figure 14 — Region-sharded cube store scaling.**
//!
//! The sharded-store counterpart of Fig 11: the same workload built at
//! 1 / 2 / 4 / 8 country shards, measured along the two query shapes the
//! scatter-gather planner distinguishes:
//!
//! * **country-filtered** (the dashboard's dominant tile query) — the
//!   planner's predicate pushdown must route it to the *owning* shard
//!   only. The harness verifies this structurally, not statistically: it
//!   runs one filtered query cold and asserts from the per-shard page-file
//!   counters that every physical read landed on the owning shard — any
//!   read on another shard is a routing bug and fails the run.
//! * **fan-out** (no country filter, grouped by country) — scattered to
//!   every shard and merged. Reported both sequentially (`threads=1`) and
//!   on a pool sized to the shard count; the ratio is the fan-out speedup
//!   the parallel scatter-gather executor delivers at that shard count.
//!
//! Latency is [`QueryStats::modeled_response`] — wall time plus
//! critical-path modeled I/O (only the worker with the most disk fetches
//! is charged), same accounting as Fig 11, so the speedup is deterministic
//! rather than scheduling noise. Warm rows re-open with the paper cube
//! cache at 256 slots per shard (total memory grows with the shard count
//! — a real cost of the architecture, kept out of the throughput axis),
//! warm it, and report real wall-clock QPS.
//!
//! The run fails (non-zero exit) if a country-filtered query touches a
//! non-owning shard, or the fan-out speedup at 4 shards is not measurable
//! (> 1.5× — modeled I/O makes the ideal 4×).
//!
//! `BENCH_MEASURE_MS` selects smoke mode (< 100 ms budget: 1-year
//! workload, 3 windows).
//!
//! [`QueryStats::modeled_response`]: rased_query::QueryStats::modeled_response

use rased_bench::harness::Harness;
use rased_bench::{bench_dir, build_sharded_index, fmt_duration, one_cell_query, random_windows, Workload};
use rased_core::{
    shard_for, AnalysisQuery, CacheConfig, GroupDim, IoCostModel, QueryEngine, ShardedIndex,
};
use rased_osm_model::CountryId;
use rased_temporal::DateRange;
use std::error::Error;
use std::time::{Duration, Instant};

const SHARDS: [usize; 4] = [1, 2, 4, 8];
const WINDOW_DAYS: u32 = 360;

/// The probe country for the filtered shape (always present: every
/// workload schema has country 0).
const PROBE: CountryId = CountryId(0);

fn main() -> Result<(), Box<dyn Error>> {
    let budget = Harness::from_env().measure();
    let smoke = budget < Duration::from_millis(100);
    let (w, queries) = if smoke {
        (Workload::years(1, 40, 0xF14A), 3)
    } else {
        (Workload::years(2, 150, 0xF14A), 20)
    };
    let windows = random_windows(&w, WINDOW_DAYS, queries, 0x14AA);
    let dir = bench_dir("fig14");
    println!(
        "# Fig 14: {}-day workload at {:?} country shards ({} windows of {} days)",
        w.range.len_days(),
        SHARDS,
        windows.len(),
        WINDOW_DAYS
    );

    println!(
        "\n{:>6} | {:>11} | {:>13} | {:>11} | {:>11} | {:>7} | {:>9} | {:>9}",
        "shards", "cf cold", "cf reads o/x", "fan seq", "fan par", "speedup", "cf QPS", "fan QPS"
    );
    println!("{}", "-".repeat(96));

    let mut speedup_at_4 = 0.0f64;
    let mut routing_ok = true;
    for n in SHARDS {
        let shard_dir = dir.file(&format!("shards-{n}"));
        // Cold store: no cube cache, modeled HDD — every planned cube is
        // a physical (modeled) read.
        let cold = build_sharded_index(
            &shard_dir,
            n,
            &w,
            4,
            CacheConfig::disabled(),
            IoCostModel::hdd(),
        )?;

        // Routing audit: one filtered query, then read each shard's page
        // -file counters. Reads must be confined to the owning shard.
        let owner = shard_for(PROBE, n);
        let before: Vec<u64> =
            cold.stores().iter().map(|s| s.file().stats().snapshot().reads).collect();
        let probe_window = windows.first().copied().unwrap_or(DateRange::new(
            w.range.start(),
            w.range.end(),
        ));
        QueryEngine::over_shards(&cold).with_threads(n).execute(&one_cell_query(probe_window))?;
        let mut owned_reads = 0u64;
        let mut foreign_reads = 0u64;
        for (i, s) in cold.stores().iter().enumerate() {
            let delta = s
                .file()
                .stats()
                .snapshot()
                .reads
                .saturating_sub(before.get(i).copied().unwrap_or(0));
            if i == owner {
                owned_reads += delta;
            } else {
                foreign_reads += delta;
            }
        }
        if foreign_reads > 0 || owned_reads == 0 {
            routing_ok = false;
        }

        // Country-filtered cold latency (pool sized to the shard count —
        // routing makes the pool irrelevant here, which is the point).
        let cf_cold = avg_response(&cold, n, &windows, |r| one_cell_query(r))?;
        // Fan-out: sequential vs scatter-gather pool.
        let fan = |r: DateRange| AnalysisQuery::over(r).group(GroupDim::Country);
        let fan_seq = avg_response(&cold, 1, &windows, fan)?;
        let fan_par = avg_response(&cold, n, &windows, fan)?;
        let speedup = fan_seq.as_secs_f64() / fan_par.as_secs_f64().max(f64::EPSILON);
        if n == 4 {
            speedup_at_4 = speedup;
        }
        drop(cold);

        // Warm store: paper cube cache at 256 slots *per shard* (the
        // store divides the config budget by shard count, so the total
        // scales with n — cache memory is a real cost of sharding, noted
        // in the caption; a fixed total budget instead fragments to
        // nothing at 8 shards and measures thrash, not the executor).
        let warm = ShardedIndex::open(
            &shard_dir,
            n,
            w.schema,
            4,
            CacheConfig { slots: 256 * n },
            IoCostModel::hdd(),
        )?;
        warm.warm_cache()?;
        let cf_qps = wall_qps(&warm, n, &windows, budget, |r| one_cell_query(r))?;
        let fan_qps = wall_qps(&warm, n, &windows, budget, fan)?;

        println!(
            "{:>6} | {:>11} | {:>6}/{:<6} | {:>11} | {:>11} | {:>6.2}x | {:>9.0} | {:>9.0}",
            n,
            fmt_duration(cf_cold),
            owned_reads,
            foreign_reads,
            fmt_duration(fan_seq),
            fmt_duration(fan_par),
            speedup,
            cf_qps,
            fan_qps
        );
    }

    println!(
        "\n(cf = filtered to country {}; reads o/x = physical reads on owning/other shards \
         for one cold filtered query; fan speedup = sequential / pool-of-#shards, modeled \
         critical-path I/O; warm QPS = wall clock at 256 cache slots per shard — total \
         cache memory grows with shard count)",
        PROBE.0
    );

    let mut failures = Vec::new();
    if !routing_ok {
        failures.push(
            "country-filtered query read pages on a non-owning shard (routing broken)".to_string(),
        );
    }
    if speedup_at_4 <= 1.5 {
        failures.push(format!(
            "fan-out speedup at 4 shards is {speedup_at_4:.2}x (want > 1.5x)"
        ));
    }
    if failures.is_empty() {
        println!("fig14 gates: all passed");
        Ok(())
    } else {
        for f in &failures {
            println!("FIG14 GATE VIOLATION: {f}");
        }
        Err(format!("{} fig14 gate(s) failed", failures.len()).into())
    }
}

/// Mean modeled response of `windows` under `mk` at `threads`.
fn avg_response(
    index: &ShardedIndex,
    threads: usize,
    windows: &[DateRange],
    mk: impl Fn(DateRange) -> AnalysisQuery,
) -> Result<Duration, Box<dyn Error>> {
    let engine = QueryEngine::over_shards(index).with_threads(threads);
    let mut total = Duration::ZERO;
    for range in windows {
        total += engine.execute(&mk(*range))?.stats.modeled_response();
    }
    Ok(total / windows.len().max(1) as u32)
}

/// Real wall-clock queries/second over the window set, re-run until the
/// measurement budget is spent.
fn wall_qps(
    index: &ShardedIndex,
    threads: usize,
    windows: &[DateRange],
    budget: Duration,
    mk: impl Fn(DateRange) -> AnalysisQuery,
) -> Result<f64, Box<dyn Error>> {
    let engine = QueryEngine::over_shards(index).with_threads(threads);
    let started = Instant::now();
    let mut ran = 0u64;
    while started.elapsed() < budget {
        for range in windows {
            engine.execute(&mk(*range))?;
            ran += 1;
        }
    }
    Ok(ran as f64 / started.elapsed().as_secs_f64().max(f64::EPSILON))
}
