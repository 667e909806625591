//! **Figure 14 — Region-sharded cube store scaling.**
//!
//! The sharded-store counterpart of Fig 11: the same workload built at
//! 1 / 2 / 4 / 8 country shards, measured along the two query shapes the
//! scatter-gather planner distinguishes:
//!
//! * **country-filtered** (the dashboard's dominant tile query) — the
//!   planner's predicate pushdown must route it to the *owning* shard
//!   only. The figure checks this structurally, not statistically: it
//!   runs one filtered query cold and counts from the per-shard record
//!   file counters the physical reads on the owning shard and on the
//!   others.
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
//! Gates: a country-filtered query reads on its owning shard and on no
//! other, at every shard count; the fan-out speedup at 4 shards is
//! > 1.5× (modeled I/O makes the ideal 4×).
//!
//! [`QueryStats::modeled_response`]: rased_query::QueryStats::modeled_response

use crate::{
    bench_dir, build_sharded_index, fmt_duration, gate, mean_response, one_cell_query, random_windows, wall_qps,
    Scale, Workload,
};
use rased_core::{shard_for, AnalysisQuery, CacheConfig, GroupDim, IoCostModel, QueryEngine, ShardedIndex};
use rased_osm_model::CountryId;
use rased_temporal::DateRange;
use std::error::Error;
use std::time::Duration;

const SHARDS: [usize; 4] = [1, 2, 4, 8];
const WINDOW_DAYS: u32 = 360;

/// The probe country for the filtered shape (always present: every
/// workload schema has country 0).
const PROBE: CountryId = CountryId(0);

/// One shard count.
struct Row {
    shards: usize,
    cf_cold: Duration,
    /// Physical reads of one cold filtered query on the owning shard and
    /// on all the others.
    owned_reads: u64,
    foreign_reads: u64,
    fan_seq: Duration,
    fan_par: Duration,
    speedup: f64,
    cf_qps: f64,
    fan_qps: f64,
}

pub fn run(scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let (w, queries) = match scale {
        Scale::Smoke => (Workload::years(1, 40, 0xF14A), 3),
        Scale::Full => (Workload::years(2, 150, 0xF14A), 20),
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

    let fan = |r: DateRange| AnalysisQuery::over(r).group(GroupDim::Country);
    let mut rows = Vec::new();
    for n in SHARDS {
        let shard_dir = dir.file(&format!("shards-{n}"));
        // Cold store: no cube cache, modeled HDD — every planned cube is
        // a physical (modeled) read.
        let cold = build_sharded_index(&shard_dir, n, &w, 4, CacheConfig::disabled(), IoCostModel::hdd())?;
        let pool = QueryEngine::over_shards(&cold).with_threads(n);

        // Routing audit: one filtered query, then each shard's read delta.
        let owner = shard_for(PROBE, n);
        let reads = || cold.stores().iter().map(|s| s.file().stats().snapshot().reads).collect::<Vec<u64>>();
        let before = reads();
        let probe_window = windows.first().copied().unwrap_or(w.range);
        pool.execute(&one_cell_query(probe_window))?;
        let (mut owned_reads, mut foreign_reads) = (0, 0);
        for (i, (after, before)) in reads().into_iter().zip(before).enumerate() {
            let delta = after.saturating_sub(before);
            if i == owner {
                owned_reads += delta;
            } else {
                foreign_reads += delta;
            }
        }

        // Country-filtered cold latency (pool sized to the shard count —
        // routing makes the pool irrelevant here, which is the point).
        let cf_cold = mean_response(&pool, &windows, one_cell_query)?;
        // Fan-out: sequential vs scatter-gather pool.
        let fan_seq = mean_response(&QueryEngine::over_shards(&cold), &windows, fan)?;
        let fan_par = mean_response(&pool, &windows, fan)?;
        drop(cold);

        // Warm store: paper cube cache at 256 slots *per shard* (the
        // store divides the config budget by shard count, so the total
        // scales with n — cache memory is a real cost of sharding, noted
        // in the caption; a fixed total budget instead fragments to
        // nothing at 8 shards and measures thrash, not the executor).
        let warm_store =
            ShardedIndex::open(&shard_dir, n, w.schema, 4, CacheConfig { slots: 256 * n }, IoCostModel::hdd())?;
        warm_store.warm_cache()?;
        let warm = QueryEngine::over_shards(&warm_store).with_threads(n);
        let row = Row {
            shards: n,
            cf_cold,
            owned_reads,
            foreign_reads,
            fan_seq,
            fan_par,
            speedup: fan_seq.as_secs_f64() / fan_par.as_secs_f64().max(f64::EPSILON),
            cf_qps: wall_qps(&warm, &windows, one_cell_query)?,
            fan_qps: wall_qps(&warm, &windows, fan)?,
        };
        println!(
            "{:>6} | {:>11} | {:>6}/{:<6} | {:>11} | {:>11} | {:>6.2}x | {:>9.0} | {:>9.0}",
            row.shards,
            fmt_duration(row.cf_cold),
            row.owned_reads,
            row.foreign_reads,
            fmt_duration(row.fan_seq),
            fmt_duration(row.fan_par),
            row.speedup,
            row.cf_qps,
            row.fan_qps
        );
        rows.push(row);
    }
    println!(
        "\n(cf = filtered to country {}; reads o/x = physical reads on owning/other shards \
         for one cold filtered query; fan speedup = sequential / pool-of-#shards, modeled \
         critical-path I/O; warm QPS = wall clock at 256 cache slots per shard — total \
         cache memory grows with shard count)",
        PROBE.0
    );
    Ok(gates(&rows))
}

/// Filtered queries stay on their shard, and fan-out scales.
fn gates(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        gate(
            &mut failures,
            row.foreign_reads == 0 && row.owned_reads > 0,
            "fig14 routing",
            format!(
                "a country-filtered query at {} shards read {} pages on the owning shard and {} on others",
                row.shards, row.owned_reads, row.foreign_reads
            ),
        );
    }
    let speedup = rows.iter().find(|r| r.shards == 4).map_or(0.0, |r| r.speedup);
    gate(
        &mut failures,
        speedup > 1.5,
        "fig14 fan-out speedup",
        format!("fan-out speedup at 4 shards is {speedup:.2}x (want > 1.5x)"),
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(shards: usize, owned_reads: u64, foreign_reads: u64, speedup: f64) -> Row {
        let z = Duration::ZERO;
        Row {
            shards,
            cf_cold: z,
            owned_reads,
            foreign_reads,
            fan_seq: z,
            fan_par: z,
            speedup,
            cf_qps: 0.0,
            fan_qps: 0.0,
        }
    }

    #[test]
    fn gates_name_routing_and_speedup_violations() {
        assert!(gates(&[row(1, 24, 0, 1.0), row(4, 24, 0, 3.8)]).is_empty());
        let failures = gates(&[row(1, 24, 0, 1.0), row(2, 24, 1, 2.0), row(4, 0, 0, 1.5)]);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].starts_with("fig14 routing: ") && failures[0].contains("at 2 shards"), "{failures:?}");
        assert!(failures[1].starts_with("fig14 routing: ") && failures[1].contains("at 4 shards"), "{failures:?}");
        assert!(failures[2].starts_with("fig14 fan-out speedup: "), "{failures:?}");
    }
}
