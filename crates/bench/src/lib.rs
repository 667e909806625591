//! The paper's evaluation as one table of figures.
//!
//! Each entry of [`FIGURES`] is one reproduced claim: a function of a
//! [`Scale`] that builds its workload, prints its table and returns the
//! failures of the gates computed from that same table. `figures [name…]`
//! runs the entries at full scale (EXPERIMENTS.md); `tests/figures_smoke.rs`
//! runs them at smoke scale on every `cargo test`, one test per figure.
//!
//! | entry | claim reproduced | gate |
//! |---|---|---|
//! | `fig7` | Fig. 7: response time falls with cache size, saturating later for longer windows | the probe window's disk fetches never rise with the cache, and the largest cache serves it from memory |
//! | `fig8` | Fig. 8: extra hierarchy levels cost ≈ 15% storage over flat | 4-level/flat dense pages in [1.0, 1.30); packed 4-level × 5 ≤ flat dense |
//! | `fig9` | Fig. 9: RASED-F → RASED-O → RASED spans ~3 orders of magnitude | F ≥ 300, O ≤ F/20, RASED < O disk fetches |
//! | `fig10` | Fig. 10: a row-scan DBMS is constant-cost; RASED is orders faster | equal scan reads at every window, 30-day RASED ≤ 36 reads and ≤ the longest window's, RASED < DBMS, identical rows |
//! | `fig11` | parallel executor | cold speedup ≥ 2× at 4 threads |
//! | `fig14` | DESIGN.md §14: country queries read only the owning shard | no foreign shard read; fan-out speedup > 1.5× at 4 shards |
//! | `fig15` | DESIGN.md §15: viewports from spatial blocks beat a grid scan | six, listed in `fig15.rs` |
//! | `maintenance` | §VI-A: 1 I/O plain days; bounded I/O at week/month/year ends | 1 / ≤ 8 / ≤ 15 / ≤ 13 ops |
//! | `planner` | DESIGN.md §4: exact DP planner vs. greedy | none (`planner_props` proves DP ≤ greedy) |
//!
//! The workload generator here produces `UpdateRecord`s directly (no XML),
//! so multi-year indexes build in seconds; the XML → crawler path is
//! exercised by the integration tests and examples instead. Record volume
//! is Zipf-skewed across countries and road types like the full simulator.

mod fig10;
mod fig11;
mod fig14;
mod fig15;
mod fig7;
mod fig8;
mod fig9;
mod maintenance;
mod planner;

use dettest::TempDir;
use rased_core::{
    AnalysisQuery, CacheConfig, CubeSchema, DataCube, Date, DateRange, IoCostModel,
    MaintenanceReport, QueryEngine, ShardedIndex, TemporalIndex,
};
use rased_index::IndexError;
use rased_osm_gen::rng::{Rng, Zipf};
use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};
use rased_warehouse::HeapFile;
use std::error::Error;
use std::path::Path;
use std::time::{Duration, Instant};

/// How large a figure's workload is. Both scales check the same gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small enough for every `cargo test` run.
    Smoke,
    /// The scale EXPERIMENTS.md reports.
    Full,
}

/// Measures a figure at a scale, prints its table and returns its gate
/// failures, each naming its gate.
pub type Figure = fn(Scale) -> Result<Vec<String>, Box<dyn Error>>;

/// Every reproduced claim, by the name `figures` and `figures_smoke` use.
pub const FIGURES: [(&str, Figure); 9] = [
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("maintenance", maintenance::run),
    ("planner", planner::run),
];

/// Run the figure called `name` at `scale`.
pub fn run_figure(name: &str, scale: Scale) -> Result<Vec<String>, Box<dyn Error>> {
    let (_, figure) =
        FIGURES.iter().find(|(n, _)| *n == name).ok_or_else(|| format!("unknown figure `{name}`"))?;
    figure(scale)
}

/// Push a failure of the gate called `name` unless `ok`.
fn gate(failures: &mut Vec<String>, ok: bool, name: &str, detail: String) {
    if !ok {
        failures.push(format!("{name}: {detail}"));
    }
}

/// Workload shape shared by the figures.
#[derive(Debug, Clone)]
pub struct Workload {
    pub seed: u64,
    pub schema: CubeSchema,
    pub range: DateRange,
    /// Mean updates per day (exact count is per-day jittered ±20%).
    pub per_day: u64,
}

impl Workload {
    /// A `years`-long workload ending 2021-12-31 (matching the paper's
    /// "past 15 years" framing) over a 60 × 40 schema.
    pub fn years(years: i32, per_day: u64, seed: u64) -> Workload {
        #[expect(clippy::expect_used, reason = "Dec 31 is valid for every year")]
        let end = Date::new(2021, 12, 31).expect("valid");
        #[expect(clippy::expect_used, reason = "Jan 1 is valid for every year")]
        let start = Date::new(2022 - years, 1, 1).expect("valid");
        Workload {
            seed,
            schema: CubeSchema::new(60, 40),
            range: DateRange::new(start, end),
            per_day,
        }
    }

    /// The small workload figs. 7–10, `maintenance` and `planner` run at
    /// smoke scale: two years of 60 updates a day over a 10 × 6 schema.
    pub fn smoke() -> Workload {
        let mut w = Workload::years(2, 60, 0x57A0);
        w.schema = CubeSchema::new(10, 6);
        w
    }
}

/// Deterministic per-day record synthesis (no world/XML state).
pub struct RecordSynth {
    rng: Rng,
    country_zipf: Zipf,
    road_zipf: Zipf,
    schema: CubeSchema,
    per_day: u64,
    next_changeset: u64,
}

impl RecordSynth {
    /// Create a synthesizer for a workload.
    pub fn new(w: &Workload) -> RecordSynth {
        RecordSynth {
            rng: Rng::new(w.seed),
            country_zipf: Zipf::new(w.schema.n_countries(), 1.0),
            road_zipf: Zipf::new(w.schema.n_road_types(), 0.8),
            schema: w.schema,
            per_day: w.per_day,
            next_changeset: 1,
        }
    }

    /// All records for one day.
    pub fn day(&mut self, date: Date) -> Vec<UpdateRecord> {
        let jitter = self.per_day / 5;
        let n = self.per_day - jitter + self.rng.below(2 * jitter + 1);
        let mut out = Vec::with_capacity(n as usize);
        let mut cs = ChangesetId(self.next_changeset);
        for i in 0..n {
            if i % 6 == 0 {
                self.next_changeset += 1;
                cs = ChangesetId(self.next_changeset);
            }
            let ur = self.rng.f64();
            let update_type = if ur < 0.35 {
                UpdateType::Create
            } else if ur < 0.40 {
                UpdateType::Delete
            } else if ur < 0.70 {
                UpdateType::Geometry
            } else {
                UpdateType::Metadata
            };
            out.push(UpdateRecord {
                element_type: ElementType::ALL
                    .get(self.rng.below(3) as usize)
                    .copied()
                    .unwrap_or(ElementType::Way),
                update_type,
                country: CountryId(self.country_zipf.sample(&mut self.rng) as u16),
                road_type: RoadTypeId(self.road_zipf.sample(&mut self.rng) as u16),
                date,
                lat7: self.rng.range_i32(-800_000_000, 800_000_000),
                lon7: self.rng.range_i32(-1_800_000_000, 1_800_000_000),
                changeset: cs,
            });
        }
        out
    }

    /// The cube schema records are drawn within.
    pub fn schema(&self) -> CubeSchema {
        self.schema
    }
}

/// Replay a workload's daily maintenance: one synthesized cube per day,
/// handed to `ingest` in date order.
fn replay_days(
    w: &Workload,
    mut ingest: impl FnMut(Date, &DataCube) -> Result<MaintenanceReport, IndexError>,
) -> Result<(), Box<dyn Error>> {
    let mut synth = RecordSynth::new(w);
    for day in w.range.days() {
        let records = synth.day(day);
        let cube = DataCube::from_records(w.schema, &records)?;
        ingest(day, &cube)?;
    }
    Ok(())
}

/// Build a cube index for a workload by replaying daily maintenance. The
/// same physical index serves the RASED-F / RASED-O / RASED variants by
/// reopening it with different `levels`/cache (see [`fig9`]).
pub fn build_index(
    dir: &Path,
    w: &Workload,
    levels: u8,
    cache: CacheConfig,
    model: IoCostModel,
) -> Result<TemporalIndex, Box<dyn Error>> {
    let index = TemporalIndex::create(dir, w.schema, levels, cache, model)?;
    replay_days(w, |day, cube| index.ingest_day(day, cube))?;
    index.sync()?;
    Ok(index)
}

/// Build and ingest a country-sharded index for a workload (same records
/// as [`build_index`] — the synthesis is deterministic per seed — so a
/// sharded and a monolithic build of one workload hold identical data).
pub fn build_sharded_index(
    dir: &Path,
    shards: usize,
    w: &Workload,
    levels: u8,
    cache: CacheConfig,
    model: IoCostModel,
) -> Result<ShardedIndex, Box<dyn Error>> {
    let index = ShardedIndex::create(dir, shards, w.schema, levels, cache, model)?;
    replay_days(w, |day, cube| index.ingest_day(day, cube))?;
    index.sync()?;
    Ok(index)
}

/// Build a warehouse heap for a workload (the DBMS baseline's relation).
pub fn build_heap(
    path: &Path,
    w: &Workload,
    model: IoCostModel,
    pool_pages: usize,
) -> Result<HeapFile, Box<dyn Error>> {
    let mut heap = HeapFile::create(path, model, pool_pages)?;
    let mut synth = RecordSynth::new(w);
    for day in w.range.days() {
        for r in synth.day(day) {
            heap.append(&r)?;
        }
    }
    heap.flush()?;
    Ok(heap)
}

/// Random query windows of a fixed `days` length inside the workload range,
/// deterministic per seed — "each point is an average of 100 query
/// executions" (§VIII).
pub fn random_windows(w: &Workload, days: u32, count: usize, seed: u64) -> Vec<DateRange> {
    let mut rng = Rng::new(seed);
    let total = w.range.len_days();
    let span = days.min(total);
    let slack = (total - span) as u64;
    (0..count)
        .map(|_| {
            let offset = rng.below(slack + 1) as i32;
            let start = w.range.start().add_days(offset);
            DateRange::new(start, start.add_days(span as i32 - 1))
        })
        .collect()
}

/// A one-cell analysis query over `range` (§VIII default: "each query
/// retrieves only one data cube cell").
pub fn one_cell_query(range: DateRange) -> AnalysisQuery {
    AnalysisQuery::over(range)
        .elements(vec![ElementType::Way])
        .countries(vec![CountryId(0)])
        .roads(vec![RoadTypeId(0)])
        .updates(vec![UpdateType::Create])
}

/// Mean modeled response (wall time plus critical-path modeled I/O) of
/// `mk` over `windows`.
fn mean_response(
    engine: &QueryEngine<'_>,
    windows: &[DateRange],
    mk: impl Fn(DateRange) -> AnalysisQuery,
) -> Result<Duration, Box<dyn Error>> {
    let mut total = Duration::ZERO;
    for range in windows {
        total += engine.execute(&mk(*range))?.stats.modeled_response();
    }
    Ok(total / windows.len().max(1) as u32)
}

/// Real wall-clock queries per second of `mk` over `windows`, re-run until
/// 200 ms have passed.
fn wall_qps(
    engine: &QueryEngine<'_>,
    windows: &[DateRange],
    mk: impl Fn(DateRange) -> AnalysisQuery,
) -> Result<f64, Box<dyn Error>> {
    let started = Instant::now();
    let mut ran = 0u64;
    while started.elapsed() < Duration::from_millis(200) {
        for range in windows {
            engine.execute(&mk(*range))?;
            ran += 1;
        }
    }
    Ok(ran as f64 / started.elapsed().as_secs_f64().max(f64::EPSILON))
}

/// Scratch directory for a figure: unique per process, removed when the
/// returned guard drops.
pub fn bench_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("bench-{tag}"))
}

/// Pretty-print a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2} s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_is_deterministic_and_in_schema() {
        let w = Workload::years(1, 100, 42);
        let day = w.range.start();
        let a = RecordSynth::new(&w).day(day);
        let b = RecordSynth::new(&w).day(day);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for r in &a {
            assert!(r.country.index() < w.schema.n_countries());
            assert!(r.road_type.index() < w.schema.n_road_types());
            assert_eq!(r.date, day);
        }
    }

    #[test]
    fn random_windows_stay_in_range() {
        let w = Workload::years(2, 10, 1);
        for win in random_windows(&w, 90, 50, 9) {
            assert_eq!(win.len_days(), 90);
            assert!(w.range.contains(win.start()));
            assert!(w.range.contains(win.end()));
        }
    }

    #[test]
    fn build_index_covers_range() {
        let mut w = Workload::years(1, 20, 5);
        w.schema = CubeSchema::tiny();
        let dir = bench_dir("libtest-index");
        let index =
            build_index(dir.path(), &w, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
        assert_eq!(index.coverage(), Some((w.range.start(), w.range.end())));
        assert!(index.has(rased_core::Period::Year(2021)));
    }
}
