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
//!
//! The latency columns draw fresh windows at every cache size, so they
//! have non-monotone blips. The gate therefore reads the `probe` column:
//! the disk fetches of one fixed window, the most recent 180 days, which
//! can never rise as the cache grows, and which the largest cache on the
//! axis must serve from memory.

use crate::{bench_dir, build_index, fmt_duration, gate, one_cell_query, Scale, Workload};
use rased_core::{CacheConfig, IoCostModel, QueryEngine, TemporalIndex};
use rased_osm_gen::rng::Rng;
use rased_temporal::DateRange;
use std::error::Error;
use std::time::Duration;

const WINDOW_MONTHS: [u32; 4] = [1, 3, 6, 12];

/// One cache size of the table.
struct Row {
    slots: usize,
    /// Mean modeled response per entry of [`WINDOW_MONTHS`].
    mean: Vec<Duration>,
    /// Disk fetches of the probe window.
    probe_disk: usize,
}

pub fn run(scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let (w, slots_axis, queries_per_point) = match scale {
        Scale::Smoke => (Workload::smoke(), vec![0usize, 8, 32, 128, 512], 3u32),
        Scale::Full => (Workload::years(3, 400, 0xF167), vec![32, 64, 128, 256, 500, 1000], 100),
    };
    let dir = bench_dir("fig7");
    println!("# Fig 7: building a {}-day index...", w.range.len_days());
    drop(build_index(&dir.file("index"), &w, 4, CacheConfig::disabled(), IoCostModel::hdd())?);
    let probe = one_cell_query(DateRange::new(w.range.end().add_days(-180), w.range.end()));

    println!(
        "\n{:>12} | {} | {:>11}",
        "cache slots",
        WINDOW_MONTHS.iter().map(|m| format!("{m:>3}-month")).collect::<Vec<_>>().join(" | "),
        "probe disk"
    );
    println!("{}", "-".repeat(28 + WINDOW_MONTHS.len() * 12));

    let mut rows = Vec::new();
    for &slots in &slots_axis {
        let index =
            TemporalIndex::open(&dir.file("index"), w.schema, 4, CacheConfig { slots }, IoCostModel::hdd())?;
        index.warm_cache()?;
        let engine = QueryEngine::new(&index);
        let probe_disk = engine.execute(&probe)?.stats.cubes_from_disk;

        let mut mean = Vec::new();
        for &months in &WINDOW_MONTHS {
            // Recent-biased windows: end within the last year of coverage.
            let mut rng = Rng::new(slots as u64 * 31 + months as u64);
            let mut total = Duration::ZERO;
            for _ in 0..queries_per_point {
                let span = months * 30;
                let back = rng.below(365 - span.min(364) as u64 + 1) as i32;
                let end = w.range.end().add_days(-back);
                let range = DateRange::new(end.add_days(-(span as i32 - 1)), end);
                total += engine.execute(&one_cell_query(range))?.stats.modeled_total();
            }
            mean.push(total / queries_per_point);
        }
        let row = Row { slots, mean, probe_disk };
        println!(
            "{:>12} | {} | {:>11}",
            row.slots,
            row.mean.iter().map(|c| format!("{:>9}", fmt_duration(*c))).collect::<Vec<_>>().join(" | "),
            row.probe_disk
        );
        rows.push(row);
    }
    println!(
        "\n(avg of {queries_per_point} one-cell queries per point; modeled disk: 5 ms seek + 150 MB/s; \
         probe = disk fetches of the last 180 days)"
    );
    Ok(gates(&rows))
}

/// More cache never means more disk, and the largest cache absorbs the
/// probe.
fn gates(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for pair in rows.windows(2) {
        if let [a, b] = pair {
            gate(
                &mut failures,
                b.probe_disk <= a.probe_disk,
                "fig7 more cache never more disk",
                format!("probe disk fetches rose from {} to {} at {} slots", a.probe_disk, b.probe_disk, b.slots),
            );
        }
    }
    let last = rows.last().map_or((0, usize::MAX), |r| (r.slots, r.probe_disk));
    gate(
        &mut failures,
        last.1 == 0,
        "fig7 largest cache absorbs the probe",
        format!("{} disk fetches at {} slots", last.1, last.0),
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(slots: usize, probe_disk: usize) -> Row {
        Row { slots, mean: Vec::new(), probe_disk }
    }

    #[test]
    fn gates_pass_a_falling_probe_and_name_each_violation() {
        assert!(gates(&[row(0, 9), row(8, 4), row(512, 0)]).is_empty());
        let failures = gates(&[row(0, 4), row(8, 5), row(512, 1)]);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("fig7 more cache never more disk: "), "{failures:?}");
        assert!(failures[1].starts_with("fig7 largest cache absorbs the probe: "), "{failures:?}");
    }
}
