//! **Figure 11 — Parallel query execution scaling.**
//!
//! Multi-year one-cell queries at 1 / 2 / 4 / 8 executor threads, over a
//! cold cube cache (every planned cube faults in from the modeled disk)
//! and a warmed recency cache. Reported latency is
//! [`QueryStats::modeled_response`]: wall time plus the *critical-path*
//! modeled I/O, i.e. only the worker with the most disk fetches is
//! charged — overlapped fetches on other workers are free, which is the
//! whole point of the parallel executor. Warm throughput is real wall
//! clock (queries/second). The gate: cold latency at least 2× better at 4
//! threads than at 1.
//!
//! That concurrent misses of one record cost one physical read is pinned
//! by unit tests in `rased-storage` (`BufferPool`) and `rased-index` (the
//! cube flight), not here.
//!
//! [`QueryStats::modeled_response`]: rased_query::QueryStats::modeled_response

use crate::{bench_dir, build_index, fmt_duration, gate, mean_response, one_cell_query, random_windows, wall_qps, Scale, Workload};
use rased_core::{CacheConfig, IoCostModel, QueryEngine, TemporalIndex};
use std::error::Error;
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const WINDOW_DAYS: u32 = 540;

/// One executor thread count.
struct Row {
    threads: usize,
    cold: Duration,
    warm: Duration,
    /// Cold latency at one thread over cold latency here.
    speedup: f64,
    qps: f64,
}

pub fn run(scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let (w, queries) = match scale {
        Scale::Smoke => (Workload::years(2, 60, 0xF11A), 3),
        Scale::Full => (Workload::years(3, 200, 0xF11A), 30),
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

    let mut rows: Vec<Row> = Vec::new();
    for threads in THREADS {
        // Cold: no cube cache, so every planned cube faults from disk.
        let cold_index =
            TemporalIndex::open(&dir.file("index"), w.schema, 4, CacheConfig::disabled(), IoCostModel::hdd())?;
        let cold = mean_response(&QueryEngine::new(&cold_index).with_threads(threads), &windows, one_cell_query)?;

        // Warm: recency cache sized to hold the hot tail of the windows.
        let warm_index =
            TemporalIndex::open(&dir.file("index"), w.schema, 4, CacheConfig { slots: 256 }, IoCostModel::hdd())?;
        warm_index.warm_cache()?;
        let warm_engine = QueryEngine::new(&warm_index).with_threads(threads);
        let cold_base = rows.first().map_or(cold, |r| r.cold);
        let row = Row {
            threads,
            cold,
            warm: mean_response(&warm_engine, &windows, one_cell_query)?,
            speedup: cold_base.as_secs_f64() / cold.as_secs_f64().max(f64::EPSILON),
            qps: wall_qps(&warm_engine, &windows, one_cell_query)?,
        };
        println!(
            "{:>8} | {:>12} | {:>12} | {:>11.2}x | {:>10.0}",
            row.threads,
            fmt_duration(row.cold),
            fmt_duration(row.warm),
            row.speedup,
            row.qps
        );
        rows.push(row);
    }
    println!(
        "\n(avg of {queries} one-cell {WINDOW_DAYS}-day queries per point; modeled disk: \
         5 ms seek + 150 MB/s; latency = wall + critical-path modeled I/O)"
    );
    Ok(gates(&rows))
}

/// Four threads at least halve cold latency.
fn gates(rows: &[Row]) -> Vec<String> {
    let speedup = rows.iter().find(|r| r.threads == 4).map_or(0.0, |r| r.speedup);
    let mut failures = Vec::new();
    gate(
        &mut failures,
        speedup >= 2.0,
        "fig11 cold speedup",
        format!("cold speedup at 4 threads is {speedup:.2}x (want ≥ 2x)"),
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_names_a_missing_speedup() {
        let row = |threads, speedup| Row { threads, cold: Duration::ZERO, warm: Duration::ZERO, speedup, qps: 0.0 };
        assert!(gates(&[row(1, 1.0), row(4, 3.3)]).is_empty());
        for table in [vec![row(1, 1.0), row(4, 1.99)], vec![row(1, 1.0)]] {
            let failures = gates(&table);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].starts_with("fig11 cold speedup: "), "{failures:?}");
        }
    }
}
