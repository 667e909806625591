//! **Figure 10 — RASED vs. a row-scanning DBMS.**
//!
//! Paper setup: PostgreSQL (2 GB buffer) vs. RASED over 1–16-year windows.
//! PostgreSQL sits at ~1000 s regardless of the window — the multi-
//! attribute GROUP BY forces a full scan of the 12-billion-row UpdateList —
//! while RASED stays ≤ ~10 ms, five to six orders of magnitude faster.
//!
//! Our relation is smaller (the full UpdateList is ~336 GB), so the
//! absolute gap shrinks with it; the *shape* — DBMS constant in the window,
//! RASED flat and orders faster — is scale-independent. The figure also
//! prints the projected paper-scale scan time from the same cost model.
//!
//! I/O models: cube reads are random (5 ms seek + 150 MB/s); the DBMS scan
//! is sequential, so its heap is charged transfer-dominated I/O
//! (0.1 ms + 150 MB/s) — crediting the baseline, not handicapping it.
//!
//! The first row is a 30-day window, so the gates can check that a short
//! window costs RASED only a month of daily cubes while the scan still
//! reads every page. Smoke scale runs RASED with no cube cache, so its
//! reads are the plan's; full scale uses the paper's cache.

use crate::{bench_dir, build_heap, build_index, fmt_duration, gate, one_cell_query, Scale, Workload};
use rased_baseline::DbmsBaseline;
use rased_core::{CacheConfig, IoCostModel, QueryEngine, TemporalIndex};
use rased_temporal::{Date, DateRange};
use std::error::Error;
use std::time::Duration;

/// One query window: modeled time and page reads of both systems, and
/// whether their rows agree.
struct Row {
    window: String,
    dbms: Duration,
    rased: Duration,
    dbms_reads: u64,
    rased_reads: u64,
    same_rows: bool,
}

pub fn run(scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let (w, windows_years, cache, rased_reps): (_, &[i32], _, u32) = match scale {
        Scale::Smoke => (Workload::smoke(), &[2], CacheConfig::disabled(), 1),
        Scale::Full => (Workload::years(16, 1000, 0xF1610), &[1, 2, 4, 8, 16], CacheConfig::paper_default(), 50),
    };
    let dir = bench_dir("fig10");
    println!("# Fig 10: building a {}-day index + heap...", w.range.len_days());
    drop(build_index(&dir.file("index"), &w, 4, cache, IoCostModel::hdd())?);
    let seq_model = IoCostModel { seek_micros: 100, bytes_per_sec: 150_000_000 };
    // 2 GB buffer (in 8 KB pages) exceeds our scaled relation, exactly as
    // the paper's 2 GB did not hold its 336 GB relation — so force cold
    // scans by sizing the pool at zero and charging sequential I/O per scan.
    let heap = build_heap(&dir.file("heap.pg"), &w, seq_model, 0)?;
    let heap_bytes = heap.page_count() * rased_warehouse::HEAP_PAGE_BYTES as u64;
    println!("heap: {} rows, {:.1} MB", heap.row_count(), heap_bytes as f64 / (1 << 20) as f64);

    let index = TemporalIndex::open(&dir.file("index"), w.schema, 4, cache, IoCostModel::hdd())?;
    index.warm_cache()?;
    let engine = QueryEngine::new(&index);
    let dbms = DbmsBaseline::new(&heap);

    let end = w.range.end();
    let mut windows = vec![("30 d".to_string(), DateRange::new(end.add_days(-30), end))];
    for &years in windows_years {
        windows.push((format!("{years} y"), DateRange::new(Date::new(end.year() - years + 1, 1, 1)?, end)));
    }

    println!(
        "\n{:>6} | {:>14} | {:>12} | {:>12} | {:>19}",
        "window", "DBMS (scan)", "RASED", "speedup", "reads DBMS / RASED"
    );
    println!("{}", "-".repeat(78));
    let mut rows = Vec::new();
    for (window, range) in windows {
        let query = one_cell_query(range);
        let dbms_result = dbms.execute(&query)?;
        let rased_result = engine.execute(&query)?;
        let mut rased_time = rased_result.stats.modeled_total();
        for _ in 1..rased_reps {
            rased_time += engine.execute(&query)?.stats.modeled_total();
        }
        let row = Row {
            window,
            dbms: dbms_result.stats.wall + dbms_result.stats.io.modeled,
            rased: rased_time / rased_reps,
            dbms_reads: dbms_result.stats.io.reads,
            rased_reads: rased_result.stats.io.reads,
            same_rows: rased_result.rows == dbms_result.rows,
        };
        println!(
            "{:>6} | {:>14} | {:>12} | {:>11.0}x | {:>19}",
            row.window,
            fmt_duration(row.dbms),
            fmt_duration(row.rased),
            row.dbms.as_secs_f64() / row.rased.as_secs_f64().max(1e-12),
            format!("{} / {}", row.dbms_reads, row.rased_reads),
        );
        rows.push(row);
    }

    // Projection to the paper's scale: 12 B rows × 28 B/row at 150 MB/s.
    let paper_bytes = 12_000_000_000u64 * 28;
    let projected = Duration::from_secs_f64(paper_bytes as f64 / 150_000_000.0);
    println!(
        "\n(projected full-UpdateList scan at paper scale: {} — the paper measured ~1000 s)",
        fmt_duration(projected)
    );
    Ok(gates(&rows))
}

/// The scan costs the same at every window and more than RASED, a short
/// window costs RASED at most a month of cubes, and both answer alike.
fn gates(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    let (Some(short), Some(long)) = (rows.first(), rows.last()) else {
        return vec!["fig10 windows: the table has no rows".to_string()];
    };
    gate(
        &mut failures,
        short.rased_reads <= 31 + 5,
        "fig10 short window",
        format!("RASED read {} pages for the {} window (want ≤ 36)", short.rased_reads, short.window),
    );
    gate(
        &mut failures,
        short.rased_reads <= long.rased_reads,
        "fig10 short window",
        format!("RASED read {} pages for {} but {} for {}", short.rased_reads, short.window, long.rased_reads, long.window),
    );
    for row in rows {
        gate(
            &mut failures,
            row.dbms_reads == short.dbms_reads,
            "fig10 constant scan",
            format!("the scan read {} pages for {} but {} for {}", row.dbms_reads, row.window, short.dbms_reads, short.window),
        );
        gate(
            &mut failures,
            row.rased_reads < row.dbms_reads,
            "fig10 RASED reads less",
            format!("RASED read {} pages for {}, the scan {}", row.rased_reads, row.window, row.dbms_reads),
        );
        gate(&mut failures, row.same_rows, "fig10 same rows", format!("RASED and the scan disagree for {}", row.window));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(dbms_reads: u64, rased_reads: u64, same_rows: bool) -> Row {
        let window = "w".to_string();
        Row { window, dbms: Duration::ZERO, rased: Duration::ZERO, dbms_reads, rased_reads, same_rows }
    }

    #[test]
    fn gates_name_each_scan_violation() {
        assert!(gates(&[row(900, 8, true), row(900, 40, true)]).is_empty());
        let failures = gates(&[row(900, 8, true), row(901, 40, true)]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("fig10 constant scan: "), "{failures:?}");
        let failures = gates(&[row(900, 37, true), row(900, 900, false)]);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].starts_with("fig10 short window: "), "{failures:?}");
        assert!(failures[1].starts_with("fig10 RASED reads less: "), "{failures:?}");
        assert!(failures[2].starts_with("fig10 same rows: "), "{failures:?}");
        let failures = gates(&[row(900, 8, true), row(900, 7, true)]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("fig10 short window: "), "{failures:?}");
    }
}
