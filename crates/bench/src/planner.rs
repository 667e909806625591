//! **Planner ablation (DESIGN.md §4.1): exact DP vs. greedy coarsest-first.**
//!
//! The paper describes level optimization informally; we implement an exact
//! dynamic program and keep a greedy planner for comparison. This figure
//! measures the disk-fetch gap between the two across window lengths over
//! a warmed cache. It has no gate: that the exact planner never fetches
//! more is `rased-index`'s `planner_props`.

use crate::{bench_dir, build_index, random_windows, Scale, Workload};
use rased_core::{CacheConfig, IoCostModel, TemporalIndex};
use rased_index::{with_planner, PlannerKind};
use std::error::Error;

pub fn run(scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let (w, windows) = match scale {
        Scale::Smoke => (Workload::smoke(), 10),
        Scale::Full => (Workload::years(4, 150, 0xAB1A), 100),
    };
    let dir = bench_dir("planner");
    println!("# building a {}-day index...", w.range.len_days());
    drop(build_index(&dir.file("index"), &w, 4, CacheConfig::disabled(), IoCostModel::free())?);
    let index = TemporalIndex::open(&dir.file("index"), w.schema, 4, CacheConfig { slots: 120 }, IoCostModel::free())?;
    index.warm_cache()?;

    println!("\n{:>8} | {:>12} | {:>12} | {:>10}", "window", "DP disk", "greedy disk", "greedy/DP");
    println!("{}", "-".repeat(52));
    for days in [14u32, 46, 90, 180, 400, 1000] {
        let (mut dp, mut greedy) = (0usize, 0usize);
        for range in random_windows(&w, days, windows, days as u64) {
            with_planner(&index, |planner| {
                dp += planner.plan(range, PlannerKind::ExactDp).disk_fetches();
                greedy += planner.plan(range, PlannerKind::Greedy).disk_fetches();
            });
        }
        println!(
            "{:>7}d | {:>12.2} | {:>12.2} | {:>9.3}x",
            days,
            dp as f64 / windows as f64,
            greedy as f64 / windows as f64,
            greedy as f64 / dp.max(1) as f64,
        );
    }
    println!("\n(avg disk cubes per query over {windows} random windows; cache 120 slots warmed)");
    Ok(Vec::new())
}
