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
//! One physical index serves all three variants: it is reopened with
//! `levels = 1` (its planner then only sees daily cubes) or `levels = 4`,
//! with the cache disabled or enabled. The RASED column is all cache hits,
//! so it is wall time: the paper's in-text "milliseconds regardless of the
//! temporal window". The gates read the disk fetches, which the cost model
//! does not touch.

use crate::{bench_dir, build_index, fmt_duration, gate, one_cell_query, Scale, Workload};
use rased_baseline::RasedVariant;
use rased_core::{IoCostModel, QueryEngine, TemporalIndex};
use rased_temporal::{Date, DateRange};
use std::error::Error;
use std::time::Duration;

/// One query window: mean modeled response and disk fetches of RASED-F,
/// RASED-O and RASED.
struct Row {
    years: i32,
    mean: [Duration; 3],
    disk: [usize; 3],
}

pub fn run(scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let (w, windows_years, cache_slots, reps): (_, &[i32], _, u32) = match scale {
        Scale::Smoke => (Workload::smoke(), &[1, 2], 64, 1),
        // 500 slots: the paper's 2 GB at ~4 MB/cube.
        Scale::Full => (Workload::years(16, 300, 0xF169), &[1, 2, 4, 8, 16], 500, 20),
    };
    let dir = bench_dir("fig9");
    println!("# Fig 9: building a {}-day index...", w.range.len_days());
    drop(build_index(&dir.file("index"), &w, 4, RasedVariant::Full.cache(0), IoCostModel::hdd())?);

    println!(
        "\n{:>6} | {:>12} | {:>12} | {:>12} | {:>10} {:>10} | {:>18}",
        "years", "RASED-F", "RASED-O", "RASED", "F/O", "O/RASED", "disk F / O / RASED"
    );
    println!("{}", "-".repeat(97));

    let mut rows = Vec::new();
    for &years in windows_years {
        let end = w.range.end();
        let query = one_cell_query(DateRange::new(Date::new(end.year() - years + 1, 1, 1)?, end));
        let mut row = Row { years, mean: [Duration::ZERO; 3], disk: [0; 3] };
        for ((variant, mean), disk) in RasedVariant::ALL.into_iter().zip(&mut row.mean).zip(&mut row.disk) {
            let index = TemporalIndex::open(
                &dir.file("index"),
                w.schema,
                variant.levels(),
                variant.cache(cache_slots),
                IoCostModel::hdd(),
            )?;
            index.warm_cache()?;
            let engine = QueryEngine::new(&index);
            let mut total = Duration::ZERO;
            for _ in 0..reps {
                let stats = engine.execute(&query)?.stats;
                *disk = stats.cubes_from_disk;
                total += stats.modeled_total();
            }
            *mean = total / reps;
        }
        let ([f, o, full], [disk_f, disk_o, disk_full]) = (row.mean, row.disk);
        println!(
            "{:>6} | {:>12} | {:>12} | {:>12} | {:>10.1} {:>10.1} | {:>18}",
            years,
            fmt_duration(f),
            fmt_duration(o),
            fmt_duration(full),
            f.as_secs_f64() / o.as_secs_f64().max(1e-12),
            o.as_secs_f64() / full.as_secs_f64().max(1e-12),
            format!("{disk_f} / {disk_o} / {disk_full}"),
        );
        rows.push(row);
    }
    println!(
        "\n(avg of {reps} one-cell queries; modeled disk 5 ms seek + 150 MB/s; cache {cache_slots} slots)"
    );
    Ok(gates(&rows))
}

/// At every window, each component removes disk fetches.
fn gates(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for &Row { years, disk: [f, o, full], .. } in rows {
        gate(&mut failures, f >= 300, "fig9 flat reads days", format!("RASED-F fetched {f} cubes over {years} years"));
        gate(
            &mut failures,
            o <= f / 20,
            "fig9 hierarchy collapses fetches",
            format!("F={f}, O={o} over {years} years"),
        );
        gate(
            &mut failures,
            full < o,
            "fig9 cache removes fetches",
            format!("O={o}, RASED={full} over {years} years"),
        );
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_name_each_ordering_violation() {
        let row = |disk| Row { years: 1, mean: [Duration::ZERO; 3], disk };
        assert!(gates(&[row([365, 1, 0])]).is_empty());
        let failures = gates(&[row([299, 1, 0]), row([400, 21, 0]), row([400, 2, 2])]);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].starts_with("fig9 flat reads days: "), "{failures:?}");
        assert!(failures[1].starts_with("fig9 hierarchy collapses fetches: "), "{failures:?}");
        assert!(failures[2].starts_with("fig9 cache removes fetches: "), "{failures:?}");
    }
}
