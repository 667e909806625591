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
//! The six gates are structural or deterministic; wall time is reported,
//! never gated:
//!
//! * **same rows** — banked and grid-scan rows are byte-identical per
//!   viewport, and the scan found rows at all;
//! * **band confinement** — a single-band viewport is served from blocks
//!   and reads only on the owning band, from per-band record file counters;
//! * **no scan fallback** — aligned viewports are block-served end to end;
//! * **roll-up engaged** — they touch fewer blocks than the windows have
//!   cell-days;
//! * **warm cache serves** — the warm pass serves most blocks from the
//!   bank's cache;
//! * **warm beats scan** — warm banked modeled response beats the warm
//!   grid scan's. Both sides charge the same HDD cost model — block
//!   fetches on the banked path, heap-page pool misses on the scan path
//!   (the engine snapshots the warehouse's physical I/O counters around
//!   every spatial query).
//!
//! Writes `BENCH_fig15.json`: into the current directory at full scale,
//! into its scratch directory at smoke scale.

use crate::{bench_dir, fmt_duration, gate, RecordSynth, Scale, Workload};
use rased_core::{
    AnalysisQuery, CacheConfig, DataCube, IoCostModel, QueryEngine, SpatialBank, TemporalIndex, Warehouse,
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
const PASSES: [&str; 4] = ["banked cold", "banked warm", "scan cold", "scan warm"];

#[derive(Default)]
struct PassTotals {
    response: Duration,
    wall: Duration,
    blocks_disk: u64,
    blocks_cache: u64,
    scan_rows: u64,
}

impl PassTotals {
    fn add(&mut self, r: &QueryResult) {
        self.response += r.stats.modeled_response();
        self.wall += r.stats.wall;
        self.blocks_disk += r.stats.blocks_from_disk as u64;
        self.blocks_cache += r.stats.blocks_from_cache as u64;
        self.scan_rows += r.stats.scan_rows;
    }
}

/// The figure's table: the four passes in [`PASSES`] order and the
/// confinement probe.
#[derive(Default)]
struct Table {
    viewports: usize,
    passes: [PassTotals; 4],
    /// Viewports whose grid-scan rows differ from the banked cold rows.
    scan_mismatch: usize,
    hits: u64,
    misses: u64,
    owner: usize,
    owned_reads: u64,
    foreign_reads: u64,
    /// Blocks (disk + cache) the confinement probe was served from.
    probe_blocks: usize,
}

impl Table {
    fn avg_response(&self, pass: usize) -> Duration {
        self.passes.get(pass).map_or(Duration::ZERO, |p| p.response / self.viewports.max(1) as u32)
    }

    fn warm_speedup(&self) -> f64 {
        self.avg_response(3).as_secs_f64() / self.avg_response(1).as_secs_f64().max(f64::EPSILON)
    }
}

pub fn run(scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let (w, viewports, cache_blocks) = match scale {
        Scale::Smoke => (Workload::years(1, 40, SEED), 4usize, 512usize),
        Scale::Full => (Workload::years(2, 150, SEED), 20, 4096),
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
    let idx = TemporalIndex::create(&dir.file("index"), w.schema, 4, CacheConfig::disabled(), IoCostModel::hdd())?;
    // 16-page (128 KiB) buffer pool: big enough to matter, small enough
    // that neither mode's heap fits in memory — the flat baseline pays
    // real (modeled) page reads, which is the regime being compared.
    let wh = Warehouse::create(&dir.file("wh"), IoCostModel::hdd(), 16)?;
    {
        let bank = SpatialBank::create(&dir.file("bank"), BANDS, grid, w.schema, IoCostModel::hdd(), cache_blocks)?;
        let mut synth = RecordSynth::new(&w);
        for day in w.range.days() {
            let recs = synth.day(day);
            idx.ingest_day(day, &DataCube::from_records(w.schema, recs.iter())?)?;
            for r in &recs {
                wh.insert(r)?;
            }
            bank.publish_day(day, &recs)?;
        }
        wh.flush()?;
        bank.sync()?;
        // Drop: the build warmed the block cache; measurement wants a
        // cold one.
    }
    let bank = SpatialBank::open(&dir.file("bank"), BANDS, grid, w.schema, IoCostModel::hdd(), cache_blocks)?;

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
    let banked_engine = QueryEngine::new(&idx).with_spatial(SpatialExec::banked(&wh, &bank));
    let probe_col: u16 = 5;
    let mut t = Table { viewports, owner: bank.shard_of(CellId { row: 0, col: probe_col }), ..Table::default() };
    let reads = || bank.stores().iter().map(|s| s.file().stats().snapshot().reads).collect::<Vec<u64>>();
    let before = reads();
    let probe_box = cell_union(&grid, 0, probe_col, (GRID_ROWS - 1) as u16, probe_col);
    let probe = banked_engine.execute(&AnalysisQuery::over(w.range).within(probe_box))?;
    t.probe_blocks = probe.stats.blocks_from_disk + probe.stats.blocks_from_cache;
    for (i, (after, before)) in reads().into_iter().zip(before).enumerate() {
        let delta = after.saturating_sub(before);
        if i == t.owner {
            t.owned_reads += delta;
        } else {
            t.foreign_reads += delta;
        }
    }

    // Cold pass → warm pass (same viewports, same order) → grid-scan
    // ablation, cold and with the warehouse page pool as warm as it gets.
    // The scan's rows are compared with the cold pass's.
    let scan_engine = QueryEngine::new(&idx).with_spatial(SpatialExec::scan_only(&wh));
    let mk = |(b, r): &(BBox, DateRange)| AnalysisQuery::over(*r).within(*b);
    let [cold, warm, scan, scan_warm] = &mut t.passes;
    let mut cold_rows = Vec::with_capacity(viewports);
    for v in &boxes {
        let res = banked_engine.execute(&mk(v))?;
        cold.add(&res);
        cold_rows.push(res.rows);
    }
    for v in &boxes {
        warm.add(&banked_engine.execute(&mk(v))?);
    }
    (t.hits, t.misses) = bank.cache_counters();
    for (v, want) in boxes.iter().zip(&cold_rows) {
        let res = scan_engine.execute(&mk(v))?;
        scan.add(&res);
        t.scan_mismatch += usize::from(&res.rows != want);
    }
    for v in &boxes {
        scan_warm.add(&scan_engine.execute(&mk(v))?);
    }

    println!(
        "\n{:>12} | {:>11} | {:>11} | {:>8} | {:>8} | {:>10}",
        "pass", "avg resp", "avg wall", "blk disk", "blk hit", "scan rows"
    );
    println!("{}", "-".repeat(74));
    for (i, (name, p)) in PASSES.iter().zip(&t.passes).enumerate() {
        println!(
            "{:>12} | {:>11} | {:>11} | {:>8} | {:>8} | {:>10}",
            name,
            fmt_duration(t.avg_response(i)),
            fmt_duration(p.wall / viewports.max(1) as u32),
            p.blocks_disk,
            p.blocks_cache,
            p.scan_rows
        );
    }
    println!(
        "\n(confinement: {} reads on owning band {}, {} foreign; block cache {} hits / {} misses = \
         {:.0}% hit rate; warm modeled speedup vs grid scan {:.1}x — both paths charge the same \
         HDD model, blocks vs heap-page pool misses)",
        t.owned_reads,
        t.owner,
        t.foreign_reads,
        t.hits,
        t.misses,
        t.hits as f64 / (t.hits + t.misses).max(1) as f64 * 100.0,
        t.warm_speedup()
    );

    let out = match scale {
        Scale::Smoke => dir.file("BENCH_fig15.json"),
        Scale::Full => PathBuf::from("BENCH_fig15.json"),
    };
    std::fs::write(&out, report_json(scale, &w, &t))?;
    println!("wrote {}", out.display());
    Ok(gates(&t))
}

/// The aligned bbox spanning cells (r0,c0)..=(r1,c1) inclusive.
fn cell_union(grid: &GridSpec, r0: u16, c0: u16, r1: u16, c1: u16) -> BBox {
    #[expect(clippy::expect_used, reason = "rows/cols are in-grid by construction")]
    let a = grid.cell_bbox(CellId { row: r0, col: c0 }).expect("in grid");
    #[expect(clippy::expect_used, reason = "rows/cols are in-grid by construction")]
    let b = grid.cell_bbox(CellId { row: r1, col: c1 }).expect("in grid");
    a.union(&b)
}

/// The six gates listed in the module doc.
fn gates(t: &Table) -> Vec<String> {
    let [cold, warm, scan, _] = &t.passes;
    let n = t.viewports;
    let cell_days = WINDOW_DAYS as u64 * n as u64 * 4;
    let mut failures = Vec::new();
    let f = &mut failures;
    gate(f, t.scan_mismatch == 0, "fig15 same rows", format!("banked and grid-scan rows diverge on {}/{n} viewports", t.scan_mismatch));
    gate(f, scan.scan_rows > 0, "fig15 same rows", "the grid-scan ablation scanned no rows".to_string());
    gate(
        f,
        t.foreign_reads == 0 && t.owned_reads > 0,
        "fig15 band confinement",
        format!("a single-band viewport read {} pages on its band and {} on others", t.owned_reads, t.foreign_reads),
    );
    gate(f, t.probe_blocks > 0, "fig15 band confinement", "the probe was not served from blocks".to_string());
    gate(
        f,
        cold.scan_rows + warm.scan_rows == 0,
        "fig15 no scan fallback",
        format!("aligned viewports fell back to warehouse scans ({} rows)", cold.scan_rows + warm.scan_rows),
    );
    gate(
        f,
        cold.blocks_disk + cold.blocks_cache < cell_days,
        "fig15 roll-up engaged",
        format!("{} blocks for {cell_days} cell-days", cold.blocks_disk + cold.blocks_cache),
    );
    gate(
        f,
        warm.blocks_cache > warm.blocks_disk && t.hits > 0,
        "fig15 warm cache serves",
        format!("cache {} vs disk {}, {} hits", warm.blocks_cache, warm.blocks_disk, t.hits),
    );
    gate(
        f,
        t.avg_response(1) < t.avg_response(3),
        "fig15 warm beats scan",
        format!("warm banked {} vs warm grid scan {}", fmt_duration(t.avg_response(1)), fmt_duration(t.avg_response(3))),
    );
    failures
}

fn report_json(scale: Scale, w: &Workload, t: &Table) -> String {
    let micros = |d: Duration| d.as_micros() as u64;
    let mut j = Json::new();
    j.begin_object();
    j.kv_string("bench", "fig15_viewport");
    j.kv_string("mode", if scale == Scale::Smoke { "smoke" } else { "full" });
    j.kv_uint("seed", SEED);
    j.kv_uint("days", w.range.len_days() as u64);
    j.kv_uint("viewports", t.viewports as u64);
    j.key("grid").begin_object();
    j.kv_uint("rows", GRID_ROWS as u64);
    j.kv_uint("cols", GRID_COLS as u64);
    j.kv_uint("bands", BANDS as u64);
    j.end_object();
    for (i, (name, p)) in ["banked_cold", "banked_warm", "scan_cold", "scan_warm"].iter().zip(&t.passes).enumerate() {
        j.key(name).begin_object();
        j.kv_uint("avg_response_micros", micros(t.avg_response(i)));
        j.kv_uint("avg_wall_micros", micros(p.wall / t.viewports.max(1) as u32));
        j.kv_uint("blocks_from_disk", p.blocks_disk);
        j.kv_uint("blocks_from_cache", p.blocks_cache);
        j.kv_uint("scan_rows", p.scan_rows);
        j.end_object();
    }
    j.key("block_cache").begin_object();
    j.kv_uint("hits", t.hits);
    j.kv_uint("misses", t.misses);
    j.key("hit_rate").number(t.hits as f64 / (t.hits + t.misses).max(1) as f64);
    j.end_object();
    j.key("confinement").begin_object();
    j.kv_uint("owning_band", t.owner as u64);
    j.kv_uint("owned_reads", t.owned_reads);
    j.kv_uint("foreign_reads", t.foreign_reads);
    j.end_object();
    j.key("warm_speedup_vs_scan").number(t.warm_speedup());
    j.end_object();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table that passes every gate, shaped like a smoke run.
    fn passing() -> Table {
        let pass = |response_ms, blocks_disk, blocks_cache, scan_rows| PassTotals {
            response: Duration::from_millis(response_ms),
            wall: Duration::ZERO,
            blocks_disk,
            blocks_cache,
            scan_rows,
        };
        Table {
            viewports: 4,
            passes: [pass(500, 400, 10, 0), pass(1, 0, 410, 0), pass(16_000, 0, 0, 900), pass(16_000, 0, 0, 900)],
            hits: 420,
            misses: 400,
            owned_reads: 192,
            probe_blocks: 192,
            ..Table::default()
        }
    }

    #[test]
    fn each_gate_names_its_violation() {
        assert!(gates(&passing()).is_empty());
        let violations: [(&str, fn(&mut Table)); 8] = [
            ("fig15 same rows", |t| t.scan_mismatch = 1),
            ("fig15 same rows", |t| t.passes[2].scan_rows = 0),
            ("fig15 band confinement", |t| t.foreign_reads = 1),
            ("fig15 band confinement", |t| t.probe_blocks = 0),
            ("fig15 no scan fallback", |t| t.passes[1].scan_rows = 1),
            ("fig15 roll-up engaged", |t| t.passes[0].blocks_disk = 2880),
            ("fig15 warm cache serves", |t| t.passes[1].blocks_disk = 410),
            ("fig15 warm beats scan", |t| t.passes[1].response = Duration::from_secs(64)),
        ];
        for (name, break_gate) in violations {
            let mut t = passing();
            break_gate(&mut t);
            let failures = gates(&t);
            assert_eq!(failures.len(), 1, "{name}: {failures:?}");
            assert!(failures[0].starts_with(&format!("{name}: ")), "{name}: {failures:?}");
        }
    }
}
