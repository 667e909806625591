//! **Planner ablation (DESIGN.md §4.1): exact DP vs. greedy coarsest-first.**
//!
//! The paper describes level optimization informally; we implement an exact
//! dynamic program and keep a greedy planner for comparison. This harness
//! measures the disk-fetch gap between the two across window lengths and
//! cache states.

use rased_bench::{bench_dir, random_windows, Workload};
use rased_core::{CacheConfig, CacheStrategy, IoCostModel, TemporalIndex};
use rased_index::{with_planner, PlannerKind};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let w = Workload::years(4, 150, 0xAB1A);
    let dir = bench_dir("planner");
    println!("# building a 4-year index...");
    {
        rased_bench::build_index(
            &dir.file("index"),
            &w,
            4,
            CacheConfig::disabled(),
            IoCostModel::free(),
        )?;
    }
    let index = TemporalIndex::open(
        &dir.file("index"),
        w.schema,
        4,
        CacheConfig { slots: 120, strategy: CacheStrategy::paper_default() },
        IoCostModel::free(),
    )?;
    index.warm_cache()?;

    println!("\n{:>8} | {:>12} | {:>12} | {:>10}", "window", "DP disk", "greedy disk", "greedy/DP");
    println!("{}", "-".repeat(52));
    for days in [14u32, 46, 90, 180, 400, 1000] {
        let mut dp_total = 0usize;
        let mut greedy_total = 0usize;
        for range in random_windows(&w, days, 100, days as u64) {
            with_planner(&index, |planner| {
                dp_total += planner.plan(range, PlannerKind::ExactDp).disk_fetches();
                greedy_total += planner.plan(range, PlannerKind::Greedy).disk_fetches();
            });
        }
        println!(
            "{:>7}d | {:>12.2} | {:>12.2} | {:>9.3}x",
            days,
            dp_total as f64 / 100.0,
            greedy_total as f64 / 100.0,
            greedy_total as f64 / dp_total.max(1) as f64,
        );
    }
    println!("\n(avg disk cubes per query over 100 random windows; cache 120 slots warmed)");
    Ok(())
}
