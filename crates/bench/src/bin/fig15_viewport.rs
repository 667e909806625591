//! **Figure 15 — Viewport drill-down: spatial blocks vs grid scan.**
//!
//! The spatial-hierarchy counterpart of Fig 14: the same workload served
//! through the two viewport execution paths the lattice planner
//! distinguishes:
//!
//! * **banked** — the viewport's interior cells are answered from the
//!   spatial bank's pre-aggregated (cell × period) blocks, rolled up to
//!   months wherever the lattice plan allows. Measured cold (freshly
//!   opened bank, empty block cache) and warm (same viewports repeated).
//! * **grid scan** (ablation) — no bank: the whole box is one exhaustive
//!   warehouse region scan, the flat baseline a country-sharded store
//!   without a spatial hierarchy is stuck with.
//!
//! Viewports are Zipf-skewed over grid cells — map traffic concentrates
//! on popular regions, which is exactly what the bank's block LRU
//! exploits — and each is a 2 × 2 cell-aligned box so the cover is pure
//! interior (the boundary-scan path is exercised by the query crate's
//! dettest suite, not re-measured here).
//!
//! Gates (all structural/deterministic — wall time is reported but only
//! gated in full mode where it dwarfs scheduling noise):
//!
//! * banked and grid-scan rows must be byte-identical per viewport;
//! * a single-band viewport must confine physical reads to the owning
//!   band — verified from per-shard page-file counters, any foreign read
//!   fails the run;
//! * aligned viewports must be block-served end to end (no scan-fallback
//!   rows) and touch fewer blocks than the range has days (the month
//!   roll-up must actually engage);
//! * the warm pass must serve the majority of blocks from the bank's
//!   cache;
//! * warm banked modeled response must beat the warm grid scan's. Both
//!   sides charge the same HDD cost model — block fetches on the banked
//!   path, heap-page pool misses on the scan path (the engine snapshots
//!   the warehouse's physical I/O counters around every spatial query) —
//!   so the comparison is deterministic, not wall-clock noise.
//!
//! `BENCH_MEASURE_MS` selects smoke mode (< 100 ms budget: 1-year
//! workload, 4 viewports). Writes `BENCH_fig15.json` (scratch dir in
//! smoke, repo cwd in full).

use rased_bench::harness::Harness;
use rased_bench::{bench_dir, fmt_duration, RecordSynth, Workload};
use rased_core::{
    AnalysisQuery, CacheConfig, DataCube, IoCostModel, QueryEngine, SpatialBank, TemporalIndex,
    Warehouse,
};
use rased_dashboard::json::Json;
use rased_geo::{BBox, CellId, GridSpec};
use rased_osm_gen::rng::{Rng, Zipf};
use rased_query::{QueryResult, SpatialExec};
use rased_temporal::DateRange;
use std::error::Error;
use std::path::PathBuf;
use std::time::Duration;

const SEED: u64 = 0xF15A;
/// Grid shape: 8 × 16 cells over the world extent, 4 longitude bands
/// (columns 0–3 → band 0, … 12–15 → band 3), matching the default
/// `SpatialConfig` sharding rule.
const GRID_ROWS: u32 = 8;
const GRID_COLS: u32 = 16;
const BANDS: usize = 4;
/// Viewport time windows (days). Long enough that complete months sit
/// inside every window, so the lattice roll-up has something to win.
const WINDOW_DAYS: u32 = 180;

struct PassTotals {
    response: Duration,
    wall: Duration,
    blocks_disk: u64,
    blocks_cache: u64,
    scan_rows: u64,
}

impl PassTotals {
    fn new() -> PassTotals {
        PassTotals {
            response: Duration::ZERO,
            wall: Duration::ZERO,
            blocks_disk: 0,
            blocks_cache: 0,
            scan_rows: 0,
        }
    }

    fn add(&mut self, r: &QueryResult) {
        self.response += r.stats.modeled_response();
        self.wall += r.stats.wall;
        self.blocks_disk += r.stats.blocks_from_disk as u64;
        self.blocks_cache += r.stats.blocks_from_cache as u64;
        self.scan_rows += r.stats.scan_rows;
    }

    fn avg_response(&self, n: usize) -> Duration {
        self.response / n.max(1) as u32
    }

    fn avg_wall(&self, n: usize) -> Duration {
        self.wall / n.max(1) as u32
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let budget = Harness::from_env().measure();
    let smoke = budget < Duration::from_millis(100);
    let (w, viewports, cache_blocks) = if smoke {
        (Workload::years(1, 40, SEED), 4usize, 512usize)
    } else {
        (Workload::years(2, 150, SEED), 20usize, 4096usize)
    };
    let grid = GridSpec::new(BBox::world(), GRID_ROWS, GRID_COLS);
    let dir = bench_dir("fig15");
    println!(
        "# Fig 15: {}-day workload, {}x{} grid / {} bands, {} Zipf viewports of {} days",
        w.range.len_days(),
        GRID_ROWS,
        GRID_COLS,
        BANDS,
        viewports,
        WINDOW_DAYS
    );

    // Build: temporal index + sample warehouse + spatial bank, all fed
    // the same synthetic records day by day (the ingest pipeline's
    // publish ordering, minus the dashboard).
    let idx = TemporalIndex::create(
        &dir.file("index"),
        w.schema,
        4,
        CacheConfig::disabled(),
        IoCostModel::hdd(),
    )?;
    // 16-page (128 KiB) buffer pool: big enough to matter, small enough
    // that neither mode's heap fits in memory — the flat baseline pays
    // real (modeled) page reads, which is the regime being compared.
    let wh = Warehouse::create(&dir.file("wh"), IoCostModel::hdd(), 16)?;
    {
        let bank = SpatialBank::create(
            &dir.file("bank"),
            BANDS,
            grid,
            w.schema,
            IoCostModel::hdd(),
            cache_blocks,
        )?;
        let mut synth = RecordSynth::new(&w);
        let mut day = w.range.start();
        while day <= w.range.end() {
            let recs = synth.day(day);
            let cube = DataCube::from_records(w.schema, recs.iter())?;
            idx.ingest_day(day, &cube)?;
            for r in &recs {
                wh.insert(r)?;
            }
            bank.publish_day(day, &recs)?;
            day = day.succ();
        }
        wh.flush()?;
        bank.sync()?;
        // Drop: the build warmed the block cache; measurement wants a
        // cold one.
    }
    let bank = SpatialBank::open(
        &dir.file("bank"),
        BANDS,
        grid,
        w.schema,
        IoCostModel::hdd(),
        cache_blocks,
    )?;

    // Zipf-skewed viewports: popular cells get revisited, which is what
    // the block cache is for. Each viewport is the aligned union of a
    // 2x2 cell block; the window start is uniform over the workload.
    let mut rng = Rng::new(SEED ^ 0x15AA);
    let zipf = Zipf::new((GRID_ROWS * GRID_COLS) as usize, 1.1);
    let mut boxes = Vec::with_capacity(viewports);
    for _ in 0..viewports {
        let idx_cell = zipf.sample(&mut rng);
        let row = ((idx_cell as u32 / GRID_COLS).min(GRID_ROWS - 2)) as u16;
        let col = ((idx_cell as u32 % GRID_COLS).min(GRID_COLS - 2)) as u16;
        let b = cell_union(&grid, row, col, row + 1, col + 1);
        let lo = w.range.start().add_days(
            rng.below((w.range.len_days() as u64).saturating_sub(WINDOW_DAYS as u64).max(1)) as i32,
        );
        boxes.push((b, DateRange::new(lo, lo.add_days(WINDOW_DAYS as i32 - 1))));
    }

    // Confinement probe (cold bank, before anything else touches it):
    // a full-column viewport on column 5 routes every interior cell to
    // band 1; any physical read on another band is a routing bug.
    let probe_col: u16 = 5;
    let owner = bank.shard_of(CellId { row: 0, col: probe_col });
    let before: Vec<u64> =
        bank.stores().iter().map(|s| s.file().stats().snapshot().reads).collect();
    let probe_box = cell_union(&grid, 0, probe_col, (GRID_ROWS - 1) as u16, probe_col);
    let probe_q = AnalysisQuery::over(w.range).within(probe_box);
    let probe = QueryEngine::new(&idx)
        .with_spatial(SpatialExec::banked(&wh, &bank))
        .execute(&probe_q)?;
    let mut owned_reads = 0u64;
    let mut foreign_reads = 0u64;
    for (i, s) in bank.stores().iter().enumerate() {
        let delta = s
            .file()
            .stats()
            .snapshot()
            .reads
            .saturating_sub(before.get(i).copied().unwrap_or(0));
        if i == owner {
            owned_reads += delta;
        } else {
            foreign_reads += delta;
        }
    }

    // Cold pass → warm pass (same viewports, same order) → grid-scan
    // ablation. Rows are collected once per pass and compared.
    let banked_engine = QueryEngine::new(&idx).with_spatial(SpatialExec::banked(&wh, &bank));
    let scan_engine = QueryEngine::new(&idx).with_spatial(SpatialExec::scan_only(&wh));
    let mk = |(b, r): &(BBox, DateRange)| AnalysisQuery::over(*r).within(*b);

    let mut cold = PassTotals::new();
    let mut cold_rows = Vec::with_capacity(viewports);
    for v in &boxes {
        let res = banked_engine.execute(&mk(v))?;
        cold.add(&res);
        cold_rows.push(res.rows);
    }
    let mut warm = PassTotals::new();
    for v in &boxes {
        warm.add(&banked_engine.execute(&mk(v))?);
    }
    let (hits, misses) = bank.cache_counters();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    let mut scan = PassTotals::new();
    let mut scan_mismatch = 0usize;
    for (v, want) in boxes.iter().zip(&cold_rows) {
        let res = scan_engine.execute(&mk(v))?;
        scan.add(&res);
        if &res.rows != want {
            scan_mismatch += 1;
        }
    }
    // Warm grid scan: the warehouse page pool is as warm as it gets.
    let mut scan_warm = PassTotals::new();
    for v in &boxes {
        scan_warm.add(&scan_engine.execute(&mk(v))?);
    }

    println!(
        "\n{:>12} | {:>11} | {:>11} | {:>8} | {:>8} | {:>10}",
        "pass", "avg resp", "avg wall", "blk disk", "blk hit", "scan rows"
    );
    println!("{}", "-".repeat(74));
    for (name, p) in
        [("banked cold", &cold), ("banked warm", &warm), ("scan cold", &scan), ("scan warm", &scan_warm)]
    {
        println!(
            "{:>12} | {:>11} | {:>11} | {:>8} | {:>8} | {:>10}",
            name,
            fmt_duration(p.avg_response(viewports)),
            fmt_duration(p.avg_wall(viewports)),
            p.blocks_disk,
            p.blocks_cache,
            p.scan_rows
        );
    }
    let warm_speedup = scan_warm.avg_response(viewports).as_secs_f64()
        / warm.avg_response(viewports).as_secs_f64().max(f64::EPSILON);
    println!(
        "\n(confinement: {owned_reads} reads on owning band {owner}, {foreign_reads} foreign; \
         block cache {hits} hits / {misses} misses = {:.0}% hit rate; warm modeled speedup vs \
         grid scan {warm_speedup:.1}x — both paths charge the same HDD model, blocks vs \
         heap-page pool misses)",
        hit_rate * 100.0
    );

    let range_days = WINDOW_DAYS as u64;
    let mut failures = Vec::new();
    if scan_mismatch > 0 {
        failures.push(format!(
            "banked and grid-scan rows diverge on {scan_mismatch}/{viewports} viewports"
        ));
    }
    if foreign_reads > 0 || owned_reads == 0 {
        failures.push(format!(
            "single-band viewport reads not confined to owning band (owned {owned_reads}, foreign {foreign_reads})"
        ));
    }
    if probe.stats.blocks_from_disk + probe.stats.blocks_from_cache == 0 {
        failures.push("confinement probe was not served from blocks".to_string());
    }
    if cold.scan_rows + warm.scan_rows > 0 {
        failures.push(format!(
            "aligned viewports fell back to warehouse scans ({} rows)",
            cold.scan_rows + warm.scan_rows
        ));
    }
    if cold.blocks_disk + cold.blocks_cache >= range_days * viewports as u64 * 4 {
        failures.push(format!(
            "month roll-up never engaged: {} blocks for {} cell-days",
            cold.blocks_disk + cold.blocks_cache,
            range_days * viewports as u64 * 4
        ));
    }
    if scan.scan_rows == 0 {
        failures.push("grid-scan ablation scanned no rows (viewports empty?)".to_string());
    }
    if warm.blocks_cache <= warm.blocks_disk || hits == 0 {
        failures.push(format!(
            "warm pass not cache-served (cache {} vs disk {}, {hits} hits)",
            warm.blocks_cache, warm.blocks_disk
        ));
    }
    if warm.avg_response(viewports) >= scan_warm.avg_response(viewports) {
        failures.push(format!(
            "warm banked response {} did not beat warm grid scan {}",
            fmt_duration(warm.avg_response(viewports)),
            fmt_duration(scan_warm.avg_response(viewports))
        ));
    }

    let out = if smoke { dir.file("BENCH_fig15.json") } else { PathBuf::from("BENCH_fig15.json") };
    std::fs::write(
        &out,
        report_json(
            smoke, &w, viewports, &cold, &warm, &scan, &scan_warm, hits, misses, owner,
            owned_reads, foreign_reads, warm_speedup,
        ),
    )?;
    println!("wrote {}", out.display());

    if failures.is_empty() {
        println!("fig15 gates: all passed");
        Ok(())
    } else {
        for f in &failures {
            println!("FIG15 GATE VIOLATION: {f}");
        }
        Err(format!("{} fig15 gate(s) failed", failures.len()).into())
    }
}

/// The aligned bbox spanning cells (r0,c0)..=(r1,c1) inclusive.
fn cell_union(grid: &GridSpec, r0: u16, c0: u16, r1: u16, c1: u16) -> BBox {
    #[expect(clippy::expect_used, reason = "rows/cols are in-grid by construction")]
    let a = grid.cell_bbox(CellId { row: r0, col: c0 }).expect("in grid");
    #[expect(clippy::expect_used, reason = "rows/cols are in-grid by construction")]
    let b = grid.cell_bbox(CellId { row: r1, col: c1 }).expect("in grid");
    a.union(&b)
}

#[allow(clippy::too_many_arguments)]
fn report_json(
    smoke: bool,
    w: &Workload,
    viewports: usize,
    cold: &PassTotals,
    warm: &PassTotals,
    scan: &PassTotals,
    scan_warm: &PassTotals,
    hits: u64,
    misses: u64,
    owner: usize,
    owned_reads: u64,
    foreign_reads: u64,
    warm_speedup: f64,
) -> String {
    let micros = |d: Duration| d.as_micros() as u64;
    let mut j = Json::new();
    j.begin_object();
    j.kv_string("bench", "fig15_viewport");
    j.kv_string("mode", if smoke { "smoke" } else { "full" });
    j.kv_uint("seed", SEED);
    j.kv_uint("days", w.range.len_days() as u64);
    j.kv_uint("viewports", viewports as u64);
    j.key("grid").begin_object();
    j.kv_uint("rows", GRID_ROWS as u64);
    j.kv_uint("cols", GRID_COLS as u64);
    j.kv_uint("bands", BANDS as u64);
    j.end_object();
    for (name, p) in
        [("banked_cold", cold), ("banked_warm", warm), ("scan_cold", scan), ("scan_warm", scan_warm)]
    {
        j.key(name).begin_object();
        j.kv_uint("avg_response_micros", micros(p.avg_response(viewports)));
        j.kv_uint("avg_wall_micros", micros(p.avg_wall(viewports)));
        j.kv_uint("blocks_from_disk", p.blocks_disk);
        j.kv_uint("blocks_from_cache", p.blocks_cache);
        j.kv_uint("scan_rows", p.scan_rows);
        j.end_object();
    }
    j.key("block_cache").begin_object();
    j.kv_uint("hits", hits);
    j.kv_uint("misses", misses);
    j.key("hit_rate").number(hits as f64 / (hits + misses).max(1) as f64);
    j.end_object();
    j.key("confinement").begin_object();
    j.kv_uint("owning_band", owner as u64);
    j.kv_uint("owned_reads", owned_reads);
    j.kv_uint("foreign_reads", foreign_reads);
    j.end_object();
    j.key("warm_speedup_vs_scan").number(warm_speedup);
    j.end_object();
    j.finish()
}
