//! [`QueryEngine`]: cube-based execution with level optimization + caching.
//!
//! Execution has two phases. *Planning* picks what to read — the coarsest
//! materialized cubes for a temporal window (§VII-B), the per-cell blocks
//! for a viewport; it is pure metadata work. *Gather* fetches each planned
//! cube or block and folds its selected cells into one
//! [`RecordAggregator`]. Gathering is embarrassingly parallel — the units
//! are disjoint and counts are commutative — so with
//! [`QueryEngine::with_threads`] the planned units are strided across a
//! bounded `thread::scope` worker pool, each worker folding into a private
//! partial; the partials are merged (order-independent addition) and rows
//! sorted, making results byte-identical at any thread count. With one
//! worker the same loop runs on the calling thread.

use crate::model::{AnalysisQuery, NetworkSizes, QueryResult, QueryStats};
use crate::naive::RecordAggregator;
use rased_cube::DimSelection;
use rased_geo::{BBox, CellId, GridSpec, Point};
use rased_index::{
    shard_for, BlockSource, CatalogVersion, CubeSource, FetchOutcome, IndexError, LatticePlanner,
    LevelPlanner, PlannerKind, QueryPlan, ShardedIndex, SpatialBank, TemporalIndex,
};
use rased_storage::sync::Mutex;
use rased_storage::IoSnapshot;
use rased_temporal::{Date, DateRange, Period};
use rased_warehouse::{Warehouse, WarehouseError};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Query execution error.
#[derive(Debug)]
pub enum QueryError {
    Index(IndexError),
    Warehouse(WarehouseError),
    /// The plan referenced a cube that vanished between planning and fetch.
    PlanRace(Period),
    /// The query carries a bbox filter but the engine was built without a
    /// [`SpatialExec`] context.
    NoSpatialContext,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Index(e) => write!(f, "{e}"),
            QueryError::Warehouse(e) => write!(f, "{e}"),
            QueryError::PlanRace(p) => write!(f, "cube {p} disappeared during execution"),
            QueryError::NoSpatialContext => {
                write!(f, "bbox query requires a spatial execution context")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<IndexError> for QueryError {
    fn from(e: IndexError) -> Self {
        QueryError::Index(e)
    }
}

impl From<WarehouseError> for QueryError {
    fn from(e: WarehouseError) -> Self {
        QueryError::Warehouse(e)
    }
}

/// Spatial execution context for viewport (bbox) queries. The warehouse is
/// the exact fallback — any (cell, day) the bank has not materialized is
/// answered by a spatial-index scan. With no bank every viewport query is
/// a pure grid scan: the flat baseline the fig15 ablation measures the
/// block bank against.
pub struct SpatialExec<'a> {
    warehouse: &'a Warehouse,
    bank: Option<&'a SpatialBank>,
}

impl<'a> SpatialExec<'a> {
    /// Scan-only context (ablation baseline; also the fallback while a
    /// bank is still backfilling).
    pub fn scan_only(warehouse: &'a Warehouse) -> SpatialExec<'a> {
        SpatialExec { warehouse, bank: None }
    }

    /// Bank-accelerated context: interior viewport cells come from
    /// pre-aggregated blocks, everything else from warehouse scans.
    pub fn banked(warehouse: &'a Warehouse, bank: &'a SpatialBank) -> SpatialExec<'a> {
        SpatialExec { warehouse, bank: Some(bank) }
    }
}

/// The cube-based query engine.
///
/// Over a single [`TemporalIndex`] ([`QueryEngine::new`]) this is the
/// classic engine. Over a [`ShardedIndex`] ([`QueryEngine::over_shards`])
/// it becomes a scatter-gather executor: each shard is planned against its
/// own pinned catalog snapshot, country filters are pushed down so only
/// the owning shards are routed at all, and per-shard partial aggregates
/// merge by the same commutative addition the thread pool already uses —
/// rows stay byte-identical at any shard count × thread count.
pub struct QueryEngine<'a> {
    stores: Vec<&'a TemporalIndex>,
    sizes: Option<NetworkSizes>,
    threads: usize,
    spatial: Option<SpatialExec<'a>>,
}

/// A store one query reads, pinned for the whole plan + execute: one
/// catalog version (concurrent publishes swap in new versions but never
/// mutate a pinned one, so the store contributes one consistent state —
/// never a half-published unit or a blend of two epochs) and the I/O
/// counters at pin time. Counters are shared, so concurrent queries' I/O
/// can be co-attributed.
struct Pinned<'s> {
    store: &'s TemporalIndex,
    snap: Arc<CatalogVersion>,
    io_before: IoSnapshot,
}

impl<'s> Pinned<'s> {
    fn new(store: &'s TemporalIndex) -> Pinned<'s> {
        Pinned { store, snap: store.snapshot(), io_before: store.file().stats().snapshot() }
    }

    /// Close the pins: charge their physical I/O and record the composite
    /// epoch (the sum over pinned stores, each term individually
    /// monotonic; with one store exactly its snapshot epoch).
    fn settle<'p>(pins: impl Iterator<Item = &'p Pinned<'p>>, stats: &mut QueryStats) {
        for pin in pins {
            stats.epoch += pin.snap.epoch();
            stats.io += pin.store.file().stats().snapshot().since(&pin.io_before);
        }
    }
}

/// The modeled cost of one of a query's physical reads, averaged over the
/// pinned stores' I/O — the unit `io_critical` is denominated in. A read
/// transfers exactly the stored encoding, so this is one seek plus the
/// mean encoding's transfer, not a whole page's.
fn mean_read_cost(io: &IoSnapshot) -> Duration {
    u32::try_from(io.reads).ok().and_then(|n| io.modeled.checked_div(n)).unwrap_or_default()
}

/// What one gather did: fetch outcomes, and the most disk fetches any one
/// worker performed (the modeled critical path).
#[derive(Default)]
struct Gathered {
    from_cache: usize,
    from_disk: usize,
    critical: usize,
}

impl<'a> QueryEngine<'a> {
    /// An engine over `index` using the exact DP planner, sequential.
    pub fn new(index: &'a TemporalIndex) -> QueryEngine<'a> {
        QueryEngine {
            stores: vec![index],
            sizes: None,
            threads: 1,
            spatial: None,
        }
    }

    /// A scatter-gather engine over every shard of `index`. Country-
    /// filtered queries route to the owning shards only (the filter ids
    /// and the ingest split share [`shard_for`], so the pushdown is
    /// exact); unfiltered queries fan out across all shards.
    pub fn over_shards(index: &'a ShardedIndex) -> QueryEngine<'a> {
        QueryEngine {
            stores: index.stores().iter().collect(),
            sizes: None,
            threads: 1,
            spatial: None,
        }
    }

    /// Attach a spatial execution context, enabling bbox-filtered queries.
    pub fn with_spatial(mut self, spatial: SpatialExec<'a>) -> Self {
        self.spatial = Some(spatial);
        self
    }

    /// Provide per-country network sizes for percentage queries. Owned (a
    /// point-in-time copy): the live system recounts sizes during ingest,
    /// and a query must not observe them shifting mid-execution.
    pub fn with_network_sizes(mut self, sizes: NetworkSizes) -> Self {
        self.sizes = Some(sizes);
        self
    }

    /// Partition each query's gather work over `n` worker threads (clamped
    /// to at least 1; 1 keeps execution on the calling thread). Results
    /// are byte-identical at any setting.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// The stores a query must visit: country filters route to owning
    /// shards only (predicate pushdown), everything else fans out. With a
    /// single store this is always just that store.
    fn route(&self, q: &AnalysisQuery) -> Vec<&'a TemporalIndex> {
        let n = self.stores.len();
        if n <= 1 {
            return self.stores.clone();
        }
        let Some(countries) = &q.countries else { return self.stores.clone() };
        let mut wanted = vec![false; n];
        for c in countries {
            if let Some(w) = wanted.get_mut(shard_for(*c, n)) {
                *w = true;
            }
        }
        self.stores.iter().zip(wanted).filter_map(|(s, hit)| hit.then_some(*s)).collect()
    }

    /// Execute an analysis query. Both access paths fold into one
    /// [`RecordAggregator`] — the same one the oracle uses — so rows,
    /// percentages and ordering are produced in exactly one place.
    pub fn execute(&self, q: &AnalysisQuery) -> Result<QueryResult, QueryError> {
        let start = Instant::now();
        let selection = self.selection(q);
        let mut stats = QueryStats::default();
        let mut agg = RecordAggregator::new(q, self.sizes.as_ref());
        // A spatial filter changes the access path entirely: cubes
        // aggregate whole countries and cannot cut below one, so bbox
        // queries run against the block bank + warehouse instead.
        match q.bbox {
            None => self.execute_temporal(q, &selection, &mut agg, &mut stats)?,
            Some(bbox) => self.execute_spatial(q, bbox, &selection, &mut agg, &mut stats)?,
        }
        let mut result = agg.finish();
        stats.wall = start.elapsed();
        result.stats = stats;
        Ok(result)
    }

    /// The cube path. Scatter: route to the stores this query can touch at
    /// all and pin each; plan every date-group window on every pinned
    /// store against its own catalog + cache state; gather the planned
    /// cubes.
    fn execute_temporal(
        &self,
        q: &AnalysisQuery,
        selection: &DimSelection,
        agg: &mut RecordAggregator<'_>,
        stats: &mut QueryStats,
    ) -> Result<(), QueryError> {
        let pinned: Vec<Pinned<'a>> = self.route(q).into_iter().map(Pinned::new).collect();
        let mut critical = 0;
        // A filter that selects no cell (e.g. only out-of-schema ids) can
        // never match; skip planning and cube fetches entirely.
        if !selection.is_empty() {
            // Empty days are settled at planning time so the gather only
            // sees real fetches. (Sharded, a day empty on k routed shards
            // counts k times — `empty_days` is a per-store statistic.)
            let windows = date_windows(q);
            let mut items: Vec<(&Pinned<'a>, Option<Period>, Period)> = Vec::new();
            for pin in &pinned {
                for (date_key, sub) in &windows {
                    for planned in &self.plan(pin.store, &pin.snap, *sub).cubes {
                        if planned.source == CubeSource::Empty {
                            stats.empty_days += 1;
                        } else {
                            items.push((pin, *date_key, planned.period));
                        }
                    }
                }
            }
            let got = self.gather(&items, agg, |&(pin, date_key, period), agg| {
                pin.store
                    .fold_at(&pin.snap, period, selection, |et, c, r, u, v| {
                        agg.push_cell(date_key, et, c, r, u, v)
                    })?
                    .ok_or(QueryError::PlanRace(period))
            })?;
            stats.cubes_from_cache = got.from_cache;
            stats.cubes_from_disk = got.from_disk;
            critical = got.critical;
        }
        Pinned::settle(pinned.iter(), stats);
        stats.io_critical = mean_read_cost(&stats.io) * critical as u32;
        Ok(())
    }

    fn plan(&self, store: &TemporalIndex, snap: &CatalogVersion, range: DateRange) -> QueryPlan {
        let exists = |p: Period| snap.contains(p);
        // A re-warm can cache a period published after `snap` was pinned;
        // it is not this plan's to use.
        let cached = |p: Period| snap.contains(p) && store.cache().contains(p);
        let planner = LevelPlanner::new(store.levels(), &exists, &cached);
        planner.plan(range, PlannerKind::ExactDp)
    }

    fn selection(&self, q: &AnalysisQuery) -> DimSelection {
        let Some(first) = self.stores.first() else {
            return DimSelection::all(rased_cube::CubeSchema::tiny()).with_countries(&[]);
        };
        let mut sel = DimSelection::all(first.schema());
        if let Some(f) = &q.element_types {
            sel = sel.with_element_types(f);
        }
        if let Some(f) = &q.countries {
            sel = sel.with_countries(f);
        }
        if let Some(f) = &q.road_types {
            sel = sel.with_road_types(f);
        }
        if let Some(f) = &q.update_types {
            sel = sel.with_update_types(f);
        }
        sel
    }

    /// The gather loop: `fetch_fold` every item — fetch one planned cube or
    /// block and fold its selected cells into the aggregator it is handed.
    /// Items are stride-partitioned over `min(threads, items)` workers;
    /// one worker runs on the calling thread straight into `agg`, more run
    /// on a bounded `thread::scope` pool (cross-shard fan-out and
    /// intra-shard parallelism share it), each into a private partial that
    /// merges back by commutative addition — so the aggregate is identical
    /// regardless of width or scheduling.
    fn gather<T: Sync>(
        &self,
        items: &[T],
        agg: &mut RecordAggregator<'_>,
        fetch_fold: impl Fn(&T, &mut RecordAggregator<'_>) -> Result<FetchOutcome, QueryError>
            + Sync,
    ) -> Result<Gathered, QueryError> {
        let workers = self.threads.min(items.len()).max(1);
        let run = |w: usize, agg: &mut RecordAggregator<'_>| {
            let mut got = Gathered::default();
            for item in items.iter().skip(w).step_by(workers) {
                match fetch_fold(item, agg)? {
                    FetchOutcome::Cache => got.from_cache += 1,
                    FetchOutcome::Disk => got.from_disk += 1,
                }
            }
            got.critical = got.from_disk;
            Ok::<_, QueryError>(got)
        };
        if workers == 1 {
            return run(0, agg);
        }
        let merged = Mutex::new_named(Vec::with_capacity(workers), "query.exec_merge");
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (merged, run) = (&merged, &run);
                let mut part = agg.fork();
                scope.spawn(move || {
                    let out = run(w, &mut part).map(|got| (part, got));
                    merged.lock().push((w, out));
                });
            }
        });
        let mut outputs = std::mem::take(&mut *merged.lock());
        // Deterministic error selection: lowest worker index wins.
        outputs.sort_by_key(|(w, _)| *w);
        let mut total = Gathered::default();
        for (_w, out) in outputs {
            let (part, got) = out?;
            agg.absorb(part);
            total.from_cache += got.from_cache;
            total.from_disk += got.from_disk;
            total.critical = total.critical.max(got.critical);
        }
        Ok(total)
    }

    /// The bbox path. With a bank, interior cover cells are answered from
    /// pre-aggregated spatial blocks (per-cell lattice plan) and
    /// everything else — boundary cells, unmaterialized (cell, day)s —
    /// from warehouse scans; without one, the whole box is one exhaustive
    /// grid scan. Scanned rows go through [`RecordAggregator::push`], so
    /// rows are byte-identical to [`crate::naive_execute`] by
    /// construction.
    fn execute_spatial(
        &self,
        q: &AnalysisQuery,
        bbox: BBox,
        selection: &DimSelection,
        agg: &mut RecordAggregator<'_>,
        stats: &mut QueryStats,
    ) -> Result<(), QueryError> {
        let sp = self.spatial.as_ref().ok_or(QueryError::NoSpatialContext)?;
        if selection.is_empty() {
            return Ok(());
        }
        let wh_before = sp.warehouse.io_snapshot();
        match sp.bank {
            None => {
                // Grid-scan baseline: the aggregator applies every filter
                // (range, dimensions, and the bbox itself).
                sp.warehouse.scan_region(&bbox, |r| {
                    stats.scan_rows += 1;
                    agg.push(r);
                })?;
            }
            Some(bank) => self.execute_viewport(q, bbox, sp, bank, selection, agg, stats)?,
        }
        // Warehouse pages read by scans (the whole grid-scan baseline, and
        // the banked path's boundary/fallback cells) are physical I/O of
        // this query, charged like cube fetches. Scans run serially on the
        // caller thread, so the full modeled delta sits on the critical
        // path.
        let wh_delta = sp.warehouse.io_snapshot().since(&wh_before);
        stats.io += wh_delta;
        stats.io_critical = stats.io_critical.saturating_add(wh_delta.modeled);
        Ok(())
    }

    /// The bank-accelerated viewport path. Touches only the bank shards
    /// owning the cover's interior cells — a publish in any other region
    /// neither delays this query nor shows up in its pinned epochs.
    #[allow(clippy::too_many_arguments)]
    fn execute_viewport(
        &self,
        q: &AnalysisQuery,
        bbox: BBox,
        sp: &SpatialExec<'a>,
        bank: &SpatialBank,
        selection: &DimSelection,
        agg: &mut RecordAggregator<'_>,
        stats: &mut QueryStats,
    ) -> Result<(), QueryError> {
        let grid = bank.grid();
        let cover = grid.cover(&bbox);

        // Pin each band shard the interior cells route to.
        let mut pinned: BTreeMap<usize, Pinned<'_>> = BTreeMap::new();
        for &cell in &cover.interior {
            let band = bank.shard_of(cell);
            if let Some(store) = bank.stores().get(band) {
                pinned.entry(band).or_insert_with(|| Pinned::new(store));
            }
        }

        let probe = |cell: CellId, p: Period| {
            pinned.get(&bank.shard_of(cell)).is_some_and(|pin| bank.has_block(&pin.snap, cell, p))
        };
        let lattice = LatticePlanner::new(&probe);
        // One marker-registry snapshot for the whole plan: a (cell, day)
        // without a block on a *marked* day provably holds no rows, so it
        // needs neither a fetch nor a scan.
        let marker = bank.marker_snapshot();

        // Plan per date-group window: every planned block lies inside
        // exactly one group period, so a month block can only serve a
        // month-or-coarser group. Scan fallbacks batch into maximal
        // per-cell day runs (the plan emits a cell's days in order).
        let mut blocks: Vec<(usize, &Pinned<'_>, Option<Period>, CellId, Period)> = Vec::new();
        let mut scan_runs: Vec<(CellId, Date, Date)> = Vec::new();
        for (date_key, sub) in date_windows(q) {
            for b in lattice.plan_viewport(&cover.interior, sub).blocks {
                match (b.source, b.period) {
                    (BlockSource::Block, _) => {
                        let band = bank.shard_of(b.cell);
                        if let Some(pin) = pinned.get(&band) {
                            blocks.push((band, pin, date_key, b.cell, b.period));
                        }
                    }
                    (BlockSource::Scan, Period::Day(day)) => {
                        if bank.day_published(&marker, day) {
                            stats.empty_days += 1;
                            continue;
                        }
                        stats.scan_days += 1;
                        match scan_runs.last_mut() {
                            Some((cell, _, end)) if *cell == b.cell && end.succ() == day => {
                                *end = day;
                            }
                            _ => scan_runs.push((b.cell, day, day)),
                        }
                    }
                    (BlockSource::Scan, _) => {} // the planner only scans days
                }
            }
        }

        let got = self.gather(&blocks, agg, |&(band, pin, date_key, cell, period), agg| {
            let (block, outcome) = bank
                .fetch_block_traced(band, &pin.snap, cell, period)?
                .ok_or(QueryError::PlanRace(period))?;
            block.for_each_selected(selection, |et, c, r, u, v| {
                agg.push_cell(date_key, et, c, r, u, v)
            });
            Ok(outcome)
        })?;
        stats.blocks_from_cache = got.from_cache;
        stats.blocks_from_disk = got.from_disk;
        // Scans read only the warehouse (charged by the caller), so the
        // bank pins can settle before them.
        Pinned::settle(pinned.values(), stats);
        stats.io_critical = mean_read_cost(&stats.io) * got.critical as u32;

        for (cell, from, to) in scan_runs {
            scan_cell(sp, grid, cell, DateRange::new(from, to), agg, stats)?;
        }
        // Boundary cells are always scanned: their blocks aggregate the
        // whole cell, but the box only covers part of it. The aggregator's
        // bbox filter does the cutting.
        for &cell in &cover.boundary {
            scan_cell(sp, grid, cell, q.range, agg, stats)?;
        }
        Ok(())
    }
}

/// The query's date-group sub-windows: each period of the grouping
/// granularity that intersects the range, clipped to it (so partial
/// periods at the edges only count in-range days), tagged with the group
/// it lands in — or the whole range, untagged, without date grouping.
fn date_windows(q: &AnalysisQuery) -> Vec<(Option<Period>, DateRange)> {
    let Some(g) = q.date_granularity() else { return vec![(None, q.range)] };
    let mut windows = Vec::new();
    let mut p = Period::containing(g, q.range.start());
    while let Some(sub) = p.range().intersect(q.range) {
        windows.push((Some(p), sub));
        p = p.succ();
    }
    windows
}

/// Scan one cell's rows for `days` and push them through the aggregator.
/// The grid's cell assignment is re-checked per row so seams between
/// adjacent scanned cells never double-count, whatever the warehouse
/// index's own boundary semantics.
fn scan_cell(
    sp: &SpatialExec<'_>,
    grid: GridSpec,
    cell: CellId,
    days: DateRange,
    agg: &mut RecordAggregator<'_>,
    stats: &mut QueryStats,
) -> Result<(), QueryError> {
    let Some(cell_box) = grid.cell_bbox(cell) else { return Ok(()) };
    sp.warehouse.scan_region(&cell_box, |r| {
        if days.contains(r.date) && grid.cell_of(Point::new(r.lat7, r.lon7)) == Some(cell) {
            stats.scan_rows += 1;
            agg.push(r);
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GroupDim;
    use crate::naive::naive_execute;
    use dettest::TempDir;
    use rased_cube::{CubeSchema, DataCube};
    use rased_index::CacheConfig;
    use rased_osm_model::{
        ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType,
    };
    use rased_storage::IoCostModel;
    use std::collections::HashMap;
    use rased_temporal::Granularity;
    use rased_temporal::Date;

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    /// Deterministic pseudo-random records over 90 days.
    fn dataset() -> Vec<UpdateRecord> {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::new();
        for day in 0..90 {
            let date = d("2021-01-01").add_days(day);
            for _ in 0..(5 + (next() % 20)) {
                out.push(UpdateRecord {
                    element_type: ElementType::ALL[(next() % 3) as usize],
                    update_type: UpdateType::ALL[(next() % 5) as usize],
                    country: CountryId((next() % 4) as u16),
                    road_type: RoadTypeId((next() % 3) as u16),
                    date,
                    lat7: 0,
                    lon7: 0,
                    changeset: ChangesetId(next()),
                });
            }
        }
        out
    }

    /// Ingest `records` into a fresh index, one daily cube per day. The
    /// returned [`TempDir`] must outlive the index (the catalog sidecar
    /// lives inside it).
    fn build_index(tag: &str, records: &[UpdateRecord]) -> (TempDir, TemporalIndex) {
        let dir = TempDir::new(&format!("query-{tag}"));
        let schema = CubeSchema::tiny();
        let idx = TemporalIndex::create(
            dir.path(),
            schema,
            4,
            CacheConfig::disabled(),
            IoCostModel::free(),
        )
        .unwrap();
        let mut by_day: HashMap<Date, Vec<&UpdateRecord>> = HashMap::new();
        for r in records {
            by_day.entry(r.date).or_default().push(r);
        }
        let mut days: Vec<_> = by_day.keys().copied().collect();
        days.sort();
        for day in days {
            let cube = DataCube::from_records(schema, by_day[&day].iter().copied()).unwrap();
            idx.ingest_day(day, &cube).unwrap();
        }
        (dir, idx)
    }

    fn assert_matches_naive(tag: &str, q: AnalysisQuery) {
        let records = dataset();
        let (_dir, idx) = build_index(tag, &records);
        let engine = QueryEngine::new(&idx);
        let got = engine.execute(&q).unwrap();
        let want = naive_execute(&records, &q, None);
        assert_eq!(got.rows, want.rows, "query {q:?}");
        // The parallel executor must agree byte-for-byte at any width.
        for threads in [2, 4, 7] {
            let par = QueryEngine::new(&idx).with_threads(threads).execute(&q).unwrap();
            assert_eq!(par.rows, got.rows, "threads={threads} diverged for {q:?}");
        }
    }

    #[test]
    fn ungrouped_count_matches_naive() {
        assert_matches_naive("e1", AnalysisQuery::over(DateRange::new(d("2021-01-05"), d("2021-02-20"))));
    }

    #[test]
    fn filters_match_naive() {
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")))
            .elements(vec![ElementType::Way, ElementType::Relation])
            .countries(vec![CountryId(0), CountryId(2)])
            .roads(vec![RoadTypeId(1)])
            .updates(UpdateType::NEW_OR_UPDATE.to_vec());
        assert_matches_naive("e2", q);
    }

    #[test]
    fn group_by_country_and_element_matches_naive() {
        // The paper's Example 1 shape.
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")))
            .updates(UpdateType::NEW_OR_UPDATE.to_vec())
            .group(GroupDim::Country)
            .group(GroupDim::ElementType);
        assert_matches_naive("e3", q);
    }

    #[test]
    fn group_by_date_daily_matches_naive() {
        // The paper's Example 3 shape (time series).
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-15"), d("2021-02-15")))
            .countries(vec![CountryId(1), CountryId(3)])
            .group(GroupDim::Country)
            .group(GroupDim::Date(Granularity::Day));
        assert_matches_naive("e4", q);
    }

    #[test]
    fn group_by_week_with_partial_edges_matches_naive() {
        // Range deliberately cuts weeks on both ends.
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-06"), d("2021-02-17")))
            .group(GroupDim::Date(Granularity::Week));
        assert_matches_naive("e5", q);
    }

    #[test]
    fn group_by_month_matches_naive() {
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")))
            .group(GroupDim::Date(Granularity::Month))
            .group(GroupDim::UpdateType);
        assert_matches_naive("e6", q);
    }

    #[test]
    fn all_dims_grouped_matches_naive() {
        let q = AnalysisQuery::over(DateRange::new(d("2021-02-01"), d("2021-02-28")))
            .group(GroupDim::Country)
            .group(GroupDim::ElementType)
            .group(GroupDim::RoadType)
            .group(GroupDim::UpdateType)
            .group(GroupDim::Date(Granularity::Day));
        assert_matches_naive("e7", q);
    }

    #[test]
    fn percentage_with_sizes_matches_naive() {
        let records = dataset();
        let (_dir, idx) = build_index("e8", &records);
        let sizes = NetworkSizes::new(vec![1000, 2000, 4000, 8000]);
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")))
            .group(GroupDim::Country)
            .percentage();
        let engine = QueryEngine::new(&idx).with_network_sizes(sizes.clone());
        let got = engine.execute(&q).unwrap();
        let want = naive_execute(&records, &q, Some(&sizes));
        assert_eq!(got.rows, want.rows);
        // Spot check one percentage.
        let row = got.rows.iter().find(|r| r.key.country == Some(CountryId(1))).unwrap();
        assert!((row.value - row.count as f64 * 100.0 / 2000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_range_before_data_returns_no_rows() {
        let records = dataset();
        let (_dir, idx) = build_index("e9", &records);
        let q = AnalysisQuery::over(DateRange::new(d("2019-01-01"), d("2019-12-31")));
        let got = QueryEngine::new(&idx).execute(&q).unwrap();
        assert!(got.rows.is_empty());
        assert_eq!(got.stats.cubes_from_disk, 0);
        assert_eq!(got.stats.empty_days, 365);
    }

    #[test]
    fn stats_count_disk_cubes() {
        let records = dataset();
        let (_dir, idx) = build_index("e10", &records);
        // Full 90-day window with a 4-level index rolled up: far fewer than
        // 90 cubes should be touched.
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")));
        let got = QueryEngine::new(&idx).execute(&q).unwrap();
        let touched = got.stats.cubes_from_disk + got.stats.cubes_from_cache;
        assert!(touched < 90, "level optimizer should use coarse cubes, touched {touched}");
        assert!(got.stats.io.reads as usize >= got.stats.cubes_from_disk);
    }

    #[test]
    fn empty_selection_short_circuits() {
        let records = dataset();
        let (_dir, idx) = build_index("e12", &records);
        // Country 99 is outside the tiny schema: nothing can match.
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")))
            .countries(vec![CountryId(99)]);
        let got = QueryEngine::new(&idx).execute(&q).unwrap();
        assert!(got.rows.is_empty());
        assert_eq!(got.stats.cubes_from_disk, 0, "no cube may be fetched");
        assert_eq!(got.stats.cubes_from_cache, 0);
        assert_eq!(got.stats.io.reads, 0);
        // Same answer as the oracle.
        assert_eq!(naive_execute(&records, &q, None).rows, got.rows);
    }

    /// Ingest `records` into a fresh `n`-way sharded index, one full daily
    /// cube per day (the facade splits internally).
    fn build_sharded(tag: &str, records: &[UpdateRecord], n: usize) -> (TempDir, ShardedIndex) {
        let dir = TempDir::new(&format!("query-{tag}-{n}"));
        let schema = CubeSchema::tiny();
        let idx = ShardedIndex::create(
            dir.path(),
            n,
            schema,
            4,
            CacheConfig::disabled(),
            IoCostModel::free(),
        )
        .unwrap();
        let mut by_day: HashMap<Date, Vec<&UpdateRecord>> = HashMap::new();
        for r in records {
            by_day.entry(r.date).or_default().push(r);
        }
        let mut days: Vec<_> = by_day.keys().copied().collect();
        days.sort();
        for day in days {
            let cube = DataCube::from_records(schema, by_day[&day].iter().copied()).unwrap();
            idx.ingest_day(day, &cube).unwrap();
        }
        (dir, idx)
    }

    #[test]
    fn scatter_gather_matches_single_store_at_every_count() {
        let records = dataset();
        let (_dir, single) = build_index("sg-base", &records);
        let queries = [
            AnalysisQuery::over(DateRange::new(d("2021-01-05"), d("2021-03-20")))
                .group(GroupDim::Country)
                .group(GroupDim::UpdateType),
            AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")))
                .countries(vec![CountryId(1), CountryId(2)])
                .group(GroupDim::Date(Granularity::Week)),
        ];
        for q in &queries {
            let want = QueryEngine::new(&single).execute(q).unwrap().rows;
            for n in [1usize, 2, 4, 7] {
                let (_sdir, sharded) = build_sharded("sg", &records, n);
                for threads in [1usize, 3] {
                    let got = QueryEngine::over_shards(&sharded)
                        .with_threads(threads)
                        .execute(q)
                        .unwrap();
                    assert_eq!(
                        got.rows, want,
                        "rows diverge at shards={n} threads={threads} for {q:?}"
                    );
                }
            }
        }
    }

    // ---- spatial (viewport) path -------------------------------------

    /// A 4×4 grid over a small extent; with 4 bank shards, shard == column.
    fn sgrid() -> GridSpec {
        GridSpec::new(BBox::new(0, 0, 4000, 4000), 4, 4)
    }

    fn cell(row: u16, col: u16) -> CellId {
        CellId { row, col }
    }

    /// Like [`dataset`] but with coordinates spread across the grid extent.
    fn spatial_dataset() -> Vec<UpdateRecord> {
        let mut state = 0x0ddb_a11c_afef_00d5u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::new();
        for day in 0..90 {
            let date = d("2021-01-01").add_days(day);
            for _ in 0..(5 + (next() % 20)) {
                out.push(UpdateRecord {
                    element_type: ElementType::ALL[(next() % 3) as usize],
                    update_type: UpdateType::ALL[(next() % 5) as usize],
                    country: CountryId((next() % 4) as u16),
                    road_type: RoadTypeId((next() % 3) as u16),
                    date,
                    lat7: (next() % 4001) as i32,
                    lon7: (next() % 4001) as i32,
                    changeset: ChangesetId(next()),
                });
            }
        }
        out
    }

    /// Temporal index + warehouse + 4-shard bank, all fed the same records
    /// day by day (full months Jan–Mar, so month blocks materialize).
    fn build_spatial(
        tag: &str,
        records: &[UpdateRecord],
    ) -> (TempDir, TemporalIndex, Warehouse, SpatialBank) {
        let dir = TempDir::new(&format!("query-sp-{tag}"));
        let schema = CubeSchema::tiny();
        let idx = TemporalIndex::create(
            &dir.path().join("index"),
            schema,
            4,
            CacheConfig::disabled(),
            IoCostModel::free(),
        )
        .unwrap();
        let wh = Warehouse::create(&dir.path().join("wh"), IoCostModel::free(), 64).unwrap();
        let bank =
            SpatialBank::create(&dir.path().join("bank"), 4, sgrid(), schema, IoCostModel::free(), 64)
                .unwrap();
        let mut by_day: std::collections::BTreeMap<Date, Vec<UpdateRecord>> = Default::default();
        for r in records {
            by_day.entry(r.date).or_default().push(*r);
        }
        for (day, recs) in &by_day {
            let cube = DataCube::from_records(schema, recs.iter()).unwrap();
            idx.ingest_day(*day, &cube).unwrap();
            for r in recs {
                wh.insert(r).unwrap();
            }
            bank.publish_day(*day, recs).unwrap();
        }
        wh.flush().unwrap();
        (dir, idx, wh, bank)
    }

    /// Banked path, grid-scan ablation, and the record-at-a-time oracle
    /// must all agree row for row.
    fn assert_spatial_matches_naive(tag: &str, q: AnalysisQuery) {
        let records = spatial_dataset();
        let (_dir, idx, wh, bank) = build_spatial(tag, &records);
        let want = naive_execute(&records, &q, None);
        let banked = QueryEngine::new(&idx)
            .with_spatial(SpatialExec::banked(&wh, &bank))
            .execute(&q)
            .unwrap();
        assert_eq!(banked.rows, want.rows, "banked path diverges for {q:?}");
        // Block fetches ride the same gather loop as cubes: any width
        // must agree, and account for the same blocks.
        let par = QueryEngine::new(&idx)
            .with_spatial(SpatialExec::banked(&wh, &bank))
            .with_threads(3)
            .execute(&q)
            .unwrap();
        assert_eq!(par.rows, want.rows, "parallel banked path diverges for {q:?}");
        assert_eq!(
            par.stats.blocks_from_cache + par.stats.blocks_from_disk,
            banked.stats.blocks_from_cache + banked.stats.blocks_from_disk
        );
        let scanned = QueryEngine::new(&idx)
            .with_spatial(SpatialExec::scan_only(&wh))
            .execute(&q)
            .unwrap();
        assert_eq!(scanned.rows, want.rows, "scan-only path diverges for {q:?}");
    }

    #[test]
    fn viewport_aligned_box_matches_naive() {
        // Exactly cells (1,1)..(2,2): all interior, no boundary.
        let b = sgrid().cell_bbox(cell(1, 1)).unwrap().union(&sgrid().cell_bbox(cell(2, 2)).unwrap());
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31"))).within(b);
        assert_spatial_matches_naive("sp1", q);
    }

    #[test]
    fn viewport_ragged_box_matches_naive() {
        // Cuts through cells on every side: interior core + boundary ring.
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-10"), d("2021-03-20")))
            .within(BBox::new(300, 700, 3300, 3700))
            .group(GroupDim::Country)
            .group(GroupDim::Date(Granularity::Day));
        assert_spatial_matches_naive("sp2", q);
    }

    #[test]
    fn viewport_sliver_inside_one_cell_matches_naive() {
        // Strictly inside cell (0,0): boundary-only cover, pure scan.
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-02-28")))
            .within(BBox::new(100, 100, 400, 900))
            .updates(UpdateType::NEW_OR_UPDATE.to_vec())
            .group(GroupDim::UpdateType);
        assert_spatial_matches_naive("sp3", q);
    }

    #[test]
    fn viewport_with_filters_and_month_grouping_matches_naive() {
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-15"), d("2021-03-31")))
            .within(BBox::new(0, 1000, 4000, 2999))
            .countries(vec![CountryId(0), CountryId(2)])
            .group(GroupDim::Date(Granularity::Month))
            .group(GroupDim::ElementType);
        assert_spatial_matches_naive("sp4", q);
    }

    #[test]
    fn bbox_without_spatial_context_errors() {
        let records = spatial_dataset();
        let (_dir, idx) = build_index("sp-noctx", &records);
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")))
            .within(BBox::new(0, 0, 4000, 4000));
        assert!(matches!(
            QueryEngine::new(&idx).execute(&q),
            Err(QueryError::NoSpatialContext)
        ));
    }

    #[test]
    fn banked_viewport_uses_blocks_and_confines_reads_to_owning_bands() {
        let records = spatial_dataset();
        let (_dir, idx, wh, bank) = build_spatial("sp-conf", &records);
        // Whole column 1, aligned: interior cells all route to band 1.
        let b = sgrid().cell_bbox(cell(0, 1)).unwrap().union(&sgrid().cell_bbox(cell(3, 1)).unwrap());
        let before: Vec<u64> =
            bank.stores().iter().map(|s| s.file().stats().snapshot().reads).collect();
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31"))).within(b);
        let got = QueryEngine::new(&idx)
            .with_spatial(SpatialExec::banked(&wh, &bank))
            .execute(&q)
            .unwrap();
        assert!(
            got.stats.blocks_from_disk + got.stats.blocks_from_cache > 0,
            "aligned viewport must be served from blocks, got {:?}",
            got.stats
        );
        // Full months in range: month roll-ups beat 90 day blocks.
        assert!(
            got.stats.blocks_from_disk + got.stats.blocks_from_cache < 90,
            "expected month roll-ups, got {:?}",
            got.stats
        );
        let after: Vec<u64> =
            bank.stores().iter().map(|s| s.file().stats().snapshot().reads).collect();
        for (i, (b0, b1)) in before.iter().zip(after.iter()).enumerate() {
            if i == 1 {
                assert!(b1 > b0, "owning band must be read");
            } else {
                assert_eq!(b1, b0, "band {i} read outside the viewport's column");
            }
        }
    }

    #[test]
    fn marked_empty_cell_days_need_no_scan() {
        // Every day reached the bank, so a (cell, day) without a block is
        // provably empty: an aligned viewport must be answered from blocks
        // alone, with the empty holes skipped rather than scanned.
        let records = spatial_dataset();
        let (_dir, idx, wh, bank) = build_spatial("sp-marked", &records);
        let b = sgrid().cell_bbox(cell(1, 1)).unwrap().union(&sgrid().cell_bbox(cell(2, 2)).unwrap());
        // Ragged end: March 1–20 is below month granularity, so the plan
        // descends to day blocks there — where the holes live.
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-20"))).within(b);
        let got = QueryEngine::new(&idx)
            .with_spatial(SpatialExec::banked(&wh, &bank))
            .execute(&q)
            .unwrap();
        assert_eq!(got.stats.scan_days, 0, "marked days must not scan: {:?}", got.stats);
        assert_eq!(got.stats.scan_rows, 0);
        assert!(got.stats.empty_days > 0, "the sparse dataset has empty cell-days");
        assert_eq!(got.rows, naive_execute(&records, &q, None).rows);
    }

    #[test]
    fn unpublished_days_fall_back_to_warehouse_scans() {
        // The bank never saw February: its days are unmarked, so the
        // planner must scan them from the warehouse — and the merged rows
        // must still match the oracle exactly.
        let records = spatial_dataset();
        let dir = TempDir::new("query-sp-gap");
        let schema = CubeSchema::tiny();
        let idx = TemporalIndex::create(
            &dir.path().join("index"),
            schema,
            4,
            CacheConfig::disabled(),
            IoCostModel::free(),
        )
        .unwrap();
        let wh = Warehouse::create(&dir.path().join("wh"), IoCostModel::free(), 64).unwrap();
        let bank =
            SpatialBank::create(&dir.path().join("bank"), 4, sgrid(), schema, IoCostModel::free(), 64)
                .unwrap();
        let mut by_day: std::collections::BTreeMap<Date, Vec<UpdateRecord>> = Default::default();
        for r in &records {
            by_day.entry(r.date).or_default().push(*r);
        }
        for (day, recs) in &by_day {
            let cube = DataCube::from_records(schema, recs.iter()).unwrap();
            idx.ingest_day(*day, &cube).unwrap();
            for r in recs {
                wh.insert(r).unwrap();
            }
            if day.month() != 2 {
                bank.publish_day(*day, recs).unwrap();
            }
        }
        wh.flush().unwrap();

        let b = sgrid().cell_bbox(cell(1, 1)).unwrap().union(&sgrid().cell_bbox(cell(2, 2)).unwrap());
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31"))).within(b);
        let got = QueryEngine::new(&idx)
            .with_spatial(SpatialExec::banked(&wh, &bank))
            .execute(&q)
            .unwrap();
        assert!(got.stats.scan_days > 0, "unmarked days must scan: {:?}", got.stats);
        assert!(got.stats.scan_rows > 0);
        assert_eq!(got.rows, naive_execute(&records, &q, None).rows);
    }

    #[test]
    fn scan_only_ablation_reports_scan_rows_and_no_blocks() {
        let records = spatial_dataset();
        let (_dir, idx, wh, _bank) = build_spatial("sp-abl", &records);
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")))
            .within(BBox::new(500, 500, 3500, 3500));
        let got = QueryEngine::new(&idx)
            .with_spatial(SpatialExec::scan_only(&wh))
            .execute(&q)
            .unwrap();
        assert!(got.stats.scan_rows > 0);
        assert_eq!(got.stats.blocks_from_disk, 0);
        assert_eq!(got.stats.blocks_from_cache, 0);
    }

    #[test]
    fn country_filter_touches_only_owning_shards() {
        let records = dataset();
        let n = 4;
        let (_dir, sharded) = build_sharded("route", &records, n);
        let target = CountryId(1);
        let owner = rased_index::shard_for(target, n);
        let before: Vec<u64> =
            (0..n).map(|i| sharded.shard(i).unwrap().file().stats().snapshot().reads).collect();
        let q = AnalysisQuery::over(DateRange::new(d("2021-01-01"), d("2021-03-31")))
            .countries(vec![target]);
        let res = QueryEngine::over_shards(&sharded).execute(&q).unwrap();
        assert!(!res.rows.is_empty());
        for i in 0..n {
            let delta =
                sharded.shard(i).unwrap().file().stats().snapshot().reads - before[i];
            if i == owner {
                assert!(delta > 0, "owning shard must be read");
            } else {
                assert_eq!(delta, 0, "shard {i} must not be touched by a pushed-down filter");
            }
        }
    }

    /// A cube the cache holds but the pinned snapshot does not — published
    /// and warmed after the pin — must not be planned: fetching it at that
    /// snapshot finds nothing (`PlanRace`).
    #[test]
    fn plan_ignores_cached_cubes_newer_than_the_snapshot() {
        let dir = TempDir::new("query-plan-pin");
        let schema = CubeSchema::tiny();
        let idx =
            TemporalIndex::create(dir.path(), schema, 4, CacheConfig { slots: 8 }, IoCostModel::free())
                .unwrap();
        // Sunday 2021-01-03 .. Friday 01-08; Saturday 01-09 closes the week.
        for day in DateRange::new(d("2021-01-03"), d("2021-01-08")).days() {
            idx.ingest_day(day, &DataCube::zeroed(schema)).unwrap();
        }
        let snap = idx.snapshot();
        idx.ingest_day(d("2021-01-09"), &DataCube::zeroed(schema)).unwrap();
        idx.warm_cache().unwrap();
        let week = Period::Week(d("2021-01-03"));
        assert!(idx.cache().contains(week) && !snap.contains(week));
        let range = DateRange::new(d("2021-01-03"), d("2021-01-09"));
        let plan = QueryEngine::new(&idx).plan(&idx, &snap, range);
        for c in &plan.cubes {
            assert!(c.source == CubeSource::Empty || snap.contains(c.period), "planned {}", c.period);
        }
    }
}
