//! **§VI-A maintenance I/O accounting.**
//!
//! Paper claim: "Normally, we would need only one I/O for daily cubes. If
//! it is the end of the week/month/year, we would need up to 8, 6, and 13
//! I/Os, respectively."
//!
//! This figure replays daily ingests and tallies per-day cube operations
//! (reads + writes) by boundary kind. Our counts run one higher than the
//! paper's at week boundaries because we re-read the day's own cube
//! instead of keeping it pinned — the bound, not the constant, is the
//! claim.

use crate::{bench_dir, gate, RecordSynth, Scale, Workload};
use rased_core::{CacheConfig, DataCube, IoCostModel, TemporalIndex};
use std::error::Error;

/// Per level (daily, weekly, monthly, yearly): total ops, occurrences and
/// the most ops one day spent.
type Table = [(usize, usize, usize); 4];

pub fn run(scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let w = match scale {
        Scale::Smoke => Workload::smoke(),
        Scale::Full => Workload::years(1, 200, 0x3A10),
    };
    let dir = bench_dir("maintenance");
    let index = TemporalIndex::create(&dir.file("index"), w.schema, 4, CacheConfig::disabled(), IoCostModel::free())?;
    let mut synth = RecordSynth::new(&w);
    let mut levels: Table = [(0, 0, 0); 4];
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
    Ok(gates(&levels))
}

/// Every level's cost stays within its bound.
fn gates(levels: &Table) -> Vec<String> {
    let [daily, weekly, monthly, yearly] = *levels;
    let mut failures = Vec::new();
    let f = &mut failures;
    gate(f, daily == (daily.1, daily.1, 1), "maintenance daily", format!("a daily ingest is one write, got {daily:?}"));
    gate(f, weekly.2 <= 8, "maintenance weekly", format!("{} ops (want ≤ 7 reads + 1 write)", weekly.2));
    gate(
        f,
        monthly.2 <= 15,
        "maintenance monthly",
        format!("{} ops (want ≤ 4 weeks + ≤ 6 edge days + ≤ 4 reads + 1 write)", monthly.2),
    );
    gate(f, yearly.2 <= 13, "maintenance yearly", format!("{} ops (want ≤ 12 reads + 1 write)", yearly.2));
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_name_each_bound() {
        let bounded = [(365, 365, 1), (411, 52, 8), (131, 12, 14), (13, 1, 13)];
        assert!(gates(&bounded).is_empty());
        let over = [(366, 365, 2), (412, 52, 9), (132, 12, 16), (14, 1, 14)];
        let failures = gates(&over);
        assert_eq!(failures.len(), 4, "{failures:?}");
        for (failure, name) in failures.iter().zip(["daily", "weekly", "monthly", "yearly"]) {
            assert!(failure.starts_with(&format!("maintenance {name}: ")), "{failures:?}");
        }
    }
}
