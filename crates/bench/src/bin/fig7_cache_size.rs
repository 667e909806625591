//! **Figure 7 — Setting RASED cache size.**
//!
//! Paper setup: query response time while varying the cache from 128 MB to
//! 4 GB (32 … 1000 cubes), for workloads with 1 / 3 / 6 / 12-month windows.
//! Expected shape: time falls as the cache grows, with a saturation point
//! that moves right for longer windows (~512 MB for 3-month queries, ~1 GB
//! for 6-month, ~2 GB for 12-month).
//!
//! Cache size is expressed in *slots* (1 slot = 1 cube); the paper's byte
//! sizes divide by its ~4 MB cube. Queries favor recent windows (the
//! premise of the recency cache, §VII-A).

use rased_bench::{bench_dir, fmt_duration, one_cell_query, Workload};
use rased_core::{CacheConfig, IoCostModel, QueryEngine, TemporalIndex};
use rased_osm_gen::rng::Rng;
use rased_temporal::DateRange;
use std::error::Error;
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    let w = Workload::years(3, 400, 0xF167);
    let dir = bench_dir("fig7");
    println!("# Fig 7: building a 3-year index ({} days)...", w.range.len_days());
    let index = rased_bench::build_index(
        &dir.file("index"),
        &w,
        4,
        CacheConfig::disabled(),
        IoCostModel::hdd(),
    )?;
    drop(index);

    let cache_slots = [32usize, 64, 128, 256, 500, 1000];
    let window_months = [1u32, 3, 6, 12];
    let queries_per_point = 100;

    println!(
        "\n{:>12} | {}",
        "cache slots",
        window_months.iter().map(|m| format!("{m:>3}-month")).collect::<Vec<_>>().join(" | ")
    );
    println!("{}", "-".repeat(14 + window_months.len() * 11));

    for &slots in &cache_slots {
        let index = TemporalIndex::open(
            &dir.file("index"),
            w.schema,
            4,
            CacheConfig { slots },
            IoCostModel::hdd(),
        )?;
        index.warm_cache()?;
        let engine = QueryEngine::new(&index);

        let mut cells = Vec::new();
        for &months in &window_months {
            // Recent-biased windows: end within the last year of coverage.
            let mut rng = Rng::new(slots as u64 * 31 + months as u64);
            let mut total = Duration::ZERO;
            for _ in 0..queries_per_point {
                let span = months * 30;
                let back = rng.below(365 - span.min(364) as u64 + 1) as i32;
                let end = w.range.end().add_days(-back);
                let range = DateRange::new(end.add_days(-(span as i32 - 1)), end);
                let result = engine.execute(&one_cell_query(range))?;
                total += result.stats.modeled_total();
            }
            cells.push(total / queries_per_point);
        }
        println!(
            "{:>12} | {}",
            slots,
            cells.iter().map(|c| format!("{:>9}", fmt_duration(*c))).collect::<Vec<_>>().join(" | ")
        );
    }
    println!(
        "\n(avg of {queries_per_point} one-cell queries per point; modeled disk: 5 ms seek + 150 MB/s)"
    );
    Ok(())
}
