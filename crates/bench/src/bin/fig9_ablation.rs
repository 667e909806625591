//! **Figure 9 — Effect of each component in RASED.**
//!
//! Paper setup: three variants over query windows of 1–16 years:
//! * **RASED-F** — flat one-level index, no caching, no level optimization;
//! * **RASED-O** — full hierarchy + level optimizer, no caching;
//! * **RASED** — hierarchy + level optimizer + caching.
//!
//! Expected shape: F → O gains more than two orders of magnitude (the
//! hierarchy collapses thousands of daily cubes into a handful of coarse
//! ones); O → RASED gains another order (cached cubes cost no I/O at all).
//!
//! One physical 16-year index serves all three variants: it is reopened
//! with `levels = 1` (its planner then only sees daily cubes) or
//! `levels = 4`, with the cache disabled or enabled.

use rased_bench::{bench_dir, fmt_duration, one_cell_query, Workload};
use rased_baseline::RasedVariant;
use rased_core::{IoCostModel, QueryEngine, TemporalIndex};
use rased_temporal::{Date, DateRange};
use std::error::Error;
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    let w = Workload::years(16, 300, 0xF169);
    let dir = bench_dir("fig9");
    println!("# Fig 9: building a 16-year index ({} days)...", w.range.len_days());
    {
        let full = rased_bench::build_index(
            &dir.file("index"),
            &w,
            4,
            RasedVariant::Full.cache(0),
            IoCostModel::hdd(),
        )?;
        full.sync()?;
    }

    let windows_years = [1i32, 2, 4, 8, 16];
    let reps = 20;
    let cache_slots = 500; // the paper's 2 GB at ~4 MB/cube

    println!(
        "\n{:>6} | {:>12} | {:>12} | {:>12} | {:>10} {:>10}",
        "years", "RASED-F", "RASED-O", "RASED", "F/O", "O/RASED"
    );
    println!("{}", "-".repeat(76));

    for &years in &windows_years {
        let end = w.range.end();
        let start = Date::new(end.year() - years + 1, 1, 1)?;
        let range = DateRange::new(start, end);
        let query = one_cell_query(range);

        let mut results = Vec::new();
        for variant in RasedVariant::ALL {
            let index = TemporalIndex::open(
                &dir.file("index"),
                w.schema,
                variant.levels(),
                variant.cache(cache_slots),
                IoCostModel::hdd(),
            )?;
            index.warm_cache()?;
            let engine = QueryEngine::new(&index).with_planner(variant.planner());
            let mut total = Duration::ZERO;
            for _ in 0..reps {
                let r = engine.execute(&query)?;
                total += r.stats.modeled_total();
            }
            results.push(total / reps);
        }
        let &[f, o, full] = results.as_slice() else { continue };
        println!(
            "{:>6} | {:>12} | {:>12} | {:>12} | {:>10.1} {:>10.1}",
            years,
            fmt_duration(f),
            fmt_duration(o),
            fmt_duration(full),
            f.as_secs_f64() / o.as_secs_f64().max(1e-12),
            o.as_secs_f64() / full.as_secs_f64().max(1e-12),
        );
    }
    println!(
        "\n(avg of {reps} one-cell queries; modeled disk 5 ms seek + 150 MB/s; cache {cache_slots} slots)"
    );
    Ok(())
}
