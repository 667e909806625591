//! **Figure 10 — RASED vs. a row-scanning DBMS.**
//!
//! Paper setup: PostgreSQL (2 GB buffer) vs. RASED over 1–16-year windows.
//! PostgreSQL sits at ~1000 s regardless of the window — the multi-
//! attribute GROUP BY forces a full scan of the 12-billion-row UpdateList —
//! while RASED stays ≤ ~10 ms, five to six orders of magnitude faster.
//!
//! Our relation is smaller (the full UpdateList is ~336 GB), so the
//! absolute gap shrinks with it; the *shape* — DBMS constant in the window,
//! RASED flat and orders faster — is scale-independent. The harness also
//! prints the projected paper-scale scan time from the same cost model.
//!
//! I/O models: cube reads are random (5 ms seek + 150 MB/s); the DBMS scan
//! is sequential, so its heap is charged transfer-dominated I/O
//! (0.1 ms + 150 MB/s) — crediting the baseline, not handicapping it.

use rased_bench::{bench_dir, fmt_duration, one_cell_query, Workload};
use rased_baseline::DbmsBaseline;
use rased_core::{CacheConfig, IoCostModel, QueryEngine, TemporalIndex};
use rased_temporal::{Date, DateRange};
use std::error::Error;
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    let w = Workload::years(16, 1000, 0xF1610);
    let dir = bench_dir("fig10");

    println!("# Fig 10: building a 16-year index + heap ({} days)...", w.range.len_days());
    {
        let index = rased_bench::build_index(
            &dir.file("index"),
            &w,
            4,
            CacheConfig { slots: 500, ..CacheConfig::paper_default() },
            IoCostModel::hdd(),
        )?;
        index.sync()?;
    }
    let seq_model = IoCostModel { seek_micros: 100, bytes_per_sec: 150_000_000 };
    // 2 GB buffer (in 8 KB pages) exceeds our scaled relation, exactly as
    // the paper's 2 GB did not hold its 336 GB relation — so force cold
    // scans by sizing the pool at zero and charging sequential I/O per scan.
    let heap = rased_bench::build_heap(&dir.file("heap.pg"), &w, seq_model, 0)?;
    let heap_bytes = heap.page_count() * rased_warehouse::HEAP_PAGE_BYTES as u64;
    println!(
        "heap: {} rows, {:.1} MB",
        heap.row_count(),
        heap_bytes as f64 / (1 << 20) as f64
    );

    let index = TemporalIndex::open(
        &dir.file("index"),
        w.schema,
        4,
        CacheConfig { slots: 500, ..CacheConfig::paper_default() },
        IoCostModel::hdd(),
    )?;
    index.warm_cache()?;
    let engine = QueryEngine::new(&index);
    let dbms = DbmsBaseline::new(&heap);

    let windows_years = [1i32, 2, 4, 8, 16];
    let rased_reps = 50;

    println!("\n{:>6} | {:>14} | {:>12} | {:>12}", "years", "DBMS (scan)", "RASED", "speedup");
    println!("{}", "-".repeat(56));
    for &years in &windows_years {
        let end = w.range.end();
        let start = Date::new(end.year() - years + 1, 1, 1)?;
        let query = one_cell_query(DateRange::new(start, end));

        let dbms_result = dbms.execute(&query)?;
        let dbms_time = dbms_result.stats.wall + dbms_result.stats.io.modeled;

        let mut rased_time = Duration::ZERO;
        for _ in 0..rased_reps {
            let r = engine.execute(&query)?;
            rased_time += r.stats.modeled_total();
        }
        rased_time /= rased_reps;

        println!(
            "{:>6} | {:>14} | {:>12} | {:>11.0}x",
            years,
            fmt_duration(dbms_time),
            fmt_duration(rased_time),
            dbms_time.as_secs_f64() / rased_time.as_secs_f64().max(1e-12),
        );
    }

    // Projection to the paper's scale: 12 B rows × 28 B/row at 150 MB/s.
    let paper_bytes = 12_000_000_000u64 * 28;
    let projected = Duration::from_secs_f64(paper_bytes as f64 / 150_000_000.0);
    println!(
        "\n(projected full-UpdateList scan at paper scale: {} — the paper measured ~1000 s)",
        fmt_duration(projected)
    );
    Ok(())
}
