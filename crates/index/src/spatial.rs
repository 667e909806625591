//! [`SpatialBank`]: GeoBlocks-style pre-aggregated spatial blocks.
//!
//! The temporal index answers "how many updates in window W?" from one
//! page; a *viewport* query ("…inside this bbox?") would otherwise fall
//! back to scanning warehouse sample rows. The bank closes that gap: for
//! every grid cell with data it materializes a [`SparseBlock`] per day —
//! and a month roll-up when a month closes — keyed in the same
//! epoch-versioned catalog machinery as the temporal store
//! ([`CubeKey::regional`]), so blocks inherit its WAL atomicity and
//! snapshot isolation wholesale.
//!
//! ## Region confinement
//!
//! Blocks are sharded by **longitude band** ([`spatial_shard_for`]): each
//! shard is an independent [`TemporalIndex`] with its own WAL and epoch
//! stream, and a day's publish touches only the shards whose cells saw
//! data. The dashboard stamps viewport responses with the epochs of
//! exactly the bands its cover touches — a publish in one region never
//! evicts another region's cached tiles.
//!
//! ## Missing block: provably empty, or scan fallback
//!
//! The bank is an *accelerator*, not the source of truth — but it can
//! still prove absence. Every publish commits a tiny day marker to a
//! *separate* registry store (not a band, so no band epoch moves and no
//! viewport tile is evicted): a (cell, day) with no block on a *marked*
//! day provably has no rows, and the planner skips it outright. Only an
//! *unmarked* day — history the bank never saw — falls back to a
//! warehouse scan, which is exact either way. The marker commits strictly
//! *after* the band units: a crash between the two loses acceleration
//! (extra scans), never rows. Every block is stored, at its encoded size,
//! whatever its cell count. Ingest orders warehouse flush → cube commit →
//! bank publish *last*, so the warehouse is always at least as new as any
//! marker.

use crate::cache::CacheConfig;
use crate::partition;
use crate::routing::spatial_shard_for;
use crate::store::{CatalogVersion, CubeKey, FetchOutcome, IndexError, TemporalIndex};
use rased_cube::{CubeSchema, SparseBlock};
use rased_geo::{CellId, GridSpec, Point};
use rased_osm_model::UpdateRecord;
use rased_storage::sync::Mutex;
use rased_storage::{IoCostModel, LruCache, PageId};
use rased_temporal::{Date, Period};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What one bank publish did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpatialPublishReport {
    /// Per-(cell, day) blocks written.
    pub day_blocks: usize,
    /// Per-(cell, month) roll-up blocks written.
    pub month_blocks: usize,
    /// Catalog bindings removed (monthly rebuild only).
    pub tombstones: usize,
    /// Bank shards that published a unit (and bumped their epoch).
    pub shards_touched: usize,
}

/// Decoded blocks by (bank shard, key), each tagged with the id of the
/// record it was read from.
type BlockCache = LruCache<(usize, CubeKey), (PageId, Arc<SparseBlock>)>;

/// The spatial block bank: N longitude-band shards of per-cell
/// pre-aggregated blocks over one [`GridSpec`].
pub struct SpatialBank {
    grid: GridSpec,
    schema: CubeSchema,
    shards: Vec<TemporalIndex>,
    /// Day-marker registry: one tiny block per fully-published day. A
    /// separate store so marker commits never bump a band epoch (bumping
    /// one would evict that band's cached viewport tiles for no reason).
    marker: TemporalIndex,
    /// Record-tagged block cache, shared across bank shards. A leaf lock:
    /// probes and inserts are memcpy-bounded and never held across I/O.
    blocks: Mutex<BlockCache>,
    cache_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn bank_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("spatial-{i:03}"))
}

/// Region code of day markers in the registry store. The registry holds
/// only markers, so the code just needs to be stable; `u32::MAX` also maps
/// to no grid cell, so a marker key that ever leaked into band-oriented
/// code could not alias a block.
const MARKER_REGION: u32 = u32::MAX;

fn marker_key(day: Date) -> CubeKey {
    CubeKey::regional(Period::Day(day), MARKER_REGION)
}

impl SpatialBank {
    /// Create a fresh bank under `dir`: one [`TemporalIndex`] per shard
    /// with no cube cache (the bank runs its own record-tagged block cache
    /// of `cache_blocks` entries).
    pub fn create(
        dir: &Path,
        shards: usize,
        grid: GridSpec,
        schema: CubeSchema,
        model: IoCostModel,
        cache_blocks: usize,
    ) -> Result<SpatialBank, IndexError> {
        Self::build(dir, shards, grid, schema, model, cache_blocks, |d, s, m| {
            TemporalIndex::create(d, s, 3, CacheConfig::disabled(), m)
        })
    }

    /// Open an existing bank; `shards` and `grid` must match creation
    /// (persisted by `rased-core`'s manifest). Each shard recovers
    /// independently.
    pub fn open(
        dir: &Path,
        shards: usize,
        grid: GridSpec,
        schema: CubeSchema,
        model: IoCostModel,
        cache_blocks: usize,
    ) -> Result<SpatialBank, IndexError> {
        Self::build(dir, shards, grid, schema, model, cache_blocks, |d, s, m| {
            TemporalIndex::open(d, s, 3, CacheConfig::disabled(), m)
        })
    }

    fn build(
        dir: &Path,
        shards: usize,
        grid: GridSpec,
        schema: CubeSchema,
        model: IoCostModel,
        cache_blocks: usize,
        mk: impl Fn(&Path, CubeSchema, IoCostModel) -> Result<TemporalIndex, IndexError>,
    ) -> Result<SpatialBank, IndexError> {
        let shards = partition::open_each(shards, |i| mk(&bank_dir(dir, i), schema, model))?;
        let marker = mk(&dir.join("marker"), schema, model)?;
        Ok(SpatialBank {
            grid,
            schema,
            shards,
            marker,
            blocks: Mutex::new_named(LruCache::new(), "index.spatial_block_cache"),
            cache_cap: cache_blocks,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The grid every block is addressed against.
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// The cube schema blocks are encoded under.
    pub fn schema(&self) -> CubeSchema {
        self.schema
    }

    /// Number of longitude-band shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard stores, in band order (exposes I/O statistics).
    pub fn stores(&self) -> &[TemporalIndex] {
        &self.shards
    }

    /// The day-marker registry's store (exposes I/O statistics).
    pub fn marker_store(&self) -> &TemporalIndex {
        &self.marker
    }

    /// The band shard owning `cell`.
    pub fn shard_of(&self, cell: CellId) -> usize {
        spatial_shard_for(cell, self.grid.cols(), self.shards.len())
    }

    /// The lattice key of `cell`'s block for `period`.
    pub fn key_for(&self, cell: CellId, period: Period) -> CubeKey {
        CubeKey::regional(period, self.grid.code(cell) + 1)
    }

    /// Pin shard `i`'s catalog version.
    pub fn snapshot(&self, shard: usize) -> Option<Arc<CatalogVersion>> {
        self.shards.get(shard).map(|s| s.snapshot())
    }

    /// Pin every shard's catalog version, in band order.
    pub fn snapshots(&self) -> Vec<Arc<CatalogVersion>> {
        partition::snapshots(&self.shards)
    }

    /// Per-band epoch vector — the dashboard's viewport cache stamp.
    pub fn epochs(&self) -> Vec<u64> {
        partition::epochs(&self.shards)
    }

    /// Total materialized blocks across shards.
    pub fn block_count(&self) -> usize {
        self.shards.iter().map(|s| s.cube_count()).sum()
    }

    /// Block-cache `(hits, misses)`.
    pub fn cache_counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Fsync every band and the day-marker registry.
    pub fn sync(&self) -> Result<(), IndexError> {
        partition::sync(&self.shards)?;
        self.marker.sync()
    }

    /// Pin the day-marker registry's catalog version. Pair with
    /// [`SpatialBank::day_published`] for a consistent view across one
    /// query's whole plan.
    pub fn marker_snapshot(&self) -> Arc<CatalogVersion> {
        self.marker.snapshot()
    }

    /// True when `day` was fully published to the bank under `snap` (a
    /// registry snapshot): every cell the day's records touched has its
    /// block, so a (cell, day) *without* one provably has no rows and
    /// needs no warehouse scan.
    pub fn day_published(&self, snap: &CatalogVersion, day: Date) -> bool {
        snap.contains_key(marker_key(day))
    }

    /// True when `cell` has a block for `period` in `snap` (shard-local
    /// snapshot — the planner's existence probe).
    pub fn has_block(&self, snap: &CatalogVersion, cell: CellId, period: Period) -> bool {
        snap.contains_key(self.key_for(cell, period))
    }

    /// Fetch `cell`'s block for `period` as bound by `snap` (which must be
    /// shard `shard`'s snapshot), through the record-tagged block cache.
    /// `None` when not materialized — the caller falls back to a warehouse
    /// scan for that (cell, period).
    pub fn fetch_block(
        &self,
        shard: usize,
        snap: &CatalogVersion,
        cell: CellId,
        period: Period,
    ) -> Result<Option<Arc<SparseBlock>>, IndexError> {
        Ok(self.fetch_block_traced(shard, snap, cell, period)?.map(|(b, _)| b))
    }

    /// [`SpatialBank::fetch_block`], also reporting whether the block came
    /// from the block cache or disk — the per-query statistics feed.
    pub fn fetch_block_traced(
        &self,
        shard: usize,
        snap: &CatalogVersion,
        cell: CellId,
        period: Period,
    ) -> Result<Option<(Arc<SparseBlock>, FetchOutcome)>, IndexError> {
        let key = self.key_for(cell, period);
        let Some(page) = snap.page_of(key) else {
            return Ok(None);
        };
        if self.cache_cap > 0 {
            let cached = {
                let mut c = self.blocks.lock();
                c.get(&(shard, key)).filter(|(tag, _)| *tag == page).map(|(_, b)| Arc::clone(b))
            };
            if let Some(b) = cached {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some((b, FetchOutcome::Cache)));
            }
        }
        let Some(store) = self.shards.get(shard) else {
            return Ok(None);
        };
        let Some((pg, bytes)) = store.fetch_block_at(snap, key)? else {
            return Ok(None);
        };
        let block = Arc::new(SparseBlock::from_bytes(self.schema, &bytes)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if self.cache_cap > 0 {
            let mut c = self.blocks.lock();
            // A newer tag (post-publish reader got here first) must not be
            // clobbered by this older snapshot's copy. Record ids are
            // offsets in an append-only file, so a newer record's id is
            // always larger.
            if c.peek(&(shard, key)).is_none_or(|(tag, _)| *tag <= pg) {
                c.insert((shard, key), (pg, Arc::clone(&block)));
                while c.len() > self.cache_cap {
                    if c.pop_lru().is_none() {
                        break;
                    }
                }
            }
        }
        Ok(Some((block, FetchOutcome::Disk)))
    }

    /// Read a block bypassing the cache (roll-up construction).
    fn read_block(
        &self,
        shard: usize,
        snap: &CatalogVersion,
        key: CubeKey,
    ) -> Result<Option<SparseBlock>, IndexError> {
        let Some(store) = self.shards.get(shard) else {
            return Ok(None);
        };
        match store.fetch_block_at(snap, key)? {
            Some((_, bytes)) => Ok(Some(SparseBlock::from_bytes(self.schema, &bytes)?)),
            None => Ok(None),
        }
    }

    /// Group `records` into per-cell sparse blocks. Records outside the
    /// grid extent are dropped (the default grid covers the globe, so this
    /// arises only with a deliberately narrowed grid; those records stay
    /// reachable through the warehouse).
    fn blocks_by_cell(
        &self,
        records: &[UpdateRecord],
    ) -> Result<BTreeMap<CellId, SparseBlock>, IndexError> {
        let mut by_cell: BTreeMap<CellId, Vec<&UpdateRecord>> = BTreeMap::new();
        for r in records {
            if let Some(cell) = self.grid.cell_of(Point::new(r.lat7, r.lon7)) {
                by_cell.entry(cell).or_default().push(r);
            }
        }
        let mut out = BTreeMap::new();
        for (cell, recs) in by_cell {
            out.insert(cell, SparseBlock::from_records(self.schema, recs.iter().copied())?);
        }
        Ok(out)
    }

    /// Publish one day's blocks, built from the day's *original* records
    /// (no zone expansion — geography is explicit in the key). On a
    /// month-closing day, every band holding day blocks of that month also
    /// gets its cells' month roll-up blocks in the same unit. Only bands
    /// with something to publish commit (and bump their epoch).
    pub fn publish_day(
        &self,
        day: Date,
        records: &[UpdateRecord],
    ) -> Result<SpatialPublishReport, IndexError> {
        let mut report = SpatialPublishReport::default();
        let n = self.shards.len();
        let mut units: Vec<Vec<(CubeKey, Option<Vec<u8>>)>> = (0..n).map(|_| Vec::new()).collect();
        let mut staged: Vec<BTreeMap<u32, SparseBlock>> = (0..n).map(|_| BTreeMap::new()).collect();

        for (cell, block) in self.blocks_by_cell(records)? {
            let s = self.shard_of(cell);
            let key = self.key_for(cell, Period::Day(day));
            if let (Some(unit), Some(st)) = (units.get_mut(s), staged.get_mut(s)) {
                unit.push((key, Some(block.to_bytes())));
                st.insert(key.region, block);
                report.day_blocks += 1;
            }
        }

        if day == day.month_end() {
            let month = Period::month_of(day);
            for s in 0..n {
                let snap = match self.shards.get(s) {
                    Some(store) => store.snapshot(),
                    None => continue,
                };
                // Every region with a day block this month — committed or
                // staged right now — gets a month roll-up.
                let mut regions: BTreeSet<u32> =
                    staged.get(s).map(|m| m.keys().copied().collect()).unwrap_or_default();
                for key in snap.keys() {
                    if !key.is_world() && matches!(key.period, Period::Day(d) if month.contains(d)) {
                        regions.insert(key.region);
                    }
                }
                for region in regions {
                    let mut sum = SparseBlock::empty(self.schema);
                    for d in month.range().days() {
                        if d == day {
                            if let Some(b) = staged.get(s).and_then(|m| m.get(&region)) {
                                sum.merge_from(b)?;
                            }
                        } else if let Some(b) =
                            self.read_block(s, &snap, CubeKey::regional(Period::Day(d), region))?
                        {
                            sum.merge_from(&b)?;
                        }
                    }
                    if let Some(unit) = units.get_mut(s) {
                        unit.push((CubeKey::regional(month, region), Some(sum.to_bytes())));
                        report.month_blocks += 1;
                    }
                }
            }
        }

        for (store, unit) in self.shards.iter().zip(units) {
            if !unit.is_empty() {
                store.put_blocks(unit)?;
                report.shards_touched += 1;
            }
        }
        // Day marker strictly last: present only once every band unit is
        // durable, so a marked day's blocks are complete.
        self.marker
            .put_blocks(vec![(marker_key(day), Some(SparseBlock::empty(self.schema).to_bytes()))])?;
        Ok(report)
    }

    /// Replace a month's blocks with ones rebuilt from the refined
    /// records: restage every refined (cell, day), rebuild month roll-ups,
    /// and tombstone committed in-month blocks the refinement no longer
    /// produces. Bands with no stake in the month are skipped entirely —
    /// their epochs (and the viewport tiles stamped with them) survive.
    pub fn rebuild_month(
        &self,
        year: i32,
        month: u32,
        by_day: &BTreeMap<Date, Vec<UpdateRecord>>,
    ) -> Result<SpatialPublishReport, IndexError> {
        let mut report = SpatialPublishReport::default();
        let month_period = Period::Month(year, month);
        let n = self.shards.len();
        let mut units: Vec<Vec<(CubeKey, Option<Vec<u8>>)>> = (0..n).map(|_| Vec::new()).collect();
        let mut monthly: Vec<BTreeMap<u32, SparseBlock>> = (0..n).map(|_| BTreeMap::new()).collect();
        let mut restaged: Vec<BTreeSet<CubeKey>> = (0..n).map(|_| BTreeSet::new()).collect();

        for (d, records) in by_day {
            debug_assert!(month_period.contains(*d), "{d} outside {month_period}");
            for (cell, block) in self.blocks_by_cell(records)? {
                let s = self.shard_of(cell);
                let key = self.key_for(cell, Period::Day(*d));
                if let (Some(unit), Some(seen), Some(sums)) =
                    (units.get_mut(s), restaged.get_mut(s), monthly.get_mut(s))
                {
                    unit.push((key, Some(block.to_bytes())));
                    seen.insert(key);
                    report.day_blocks += 1;
                    match sums.get_mut(&key.region) {
                        Some(sum) => sum.merge_from(&block)?,
                        None => {
                            sums.insert(key.region, block);
                        }
                    }
                }
            }
        }

        for (s, store) in self.shards.iter().enumerate() {
            let snap = store.snapshot();
            let mut unit = units.get_mut(s).map(std::mem::take).unwrap_or_default();
            let seen = restaged.get(s);
            // Tombstone committed in-month keys (day or month level) that
            // the refinement did not restage; restaged month keys are
            // replaced below instead.
            for key in snap.keys() {
                if key.is_world() {
                    continue;
                }
                let in_month = match key.period {
                    Period::Day(d) => month_period.contains(d),
                    p => p == month_period,
                };
                if !in_month {
                    continue;
                }
                let replaced = match key.period {
                    Period::Day(_) => seen.is_some_and(|set| set.contains(&key)),
                    _ => monthly.get(s).is_some_and(|m| m.contains_key(&key.region)),
                };
                if !replaced {
                    unit.push((key, None));
                    report.tombstones += 1;
                }
            }
            if let Some(sums) = monthly.get(s) {
                for (region, sum) in sums {
                    unit.push((CubeKey::regional(month_period, *region), Some(sum.to_bytes())));
                    report.month_blocks += 1;
                }
            }
            if !unit.is_empty() {
                store.put_blocks(unit)?;
                report.shards_touched += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;
    use rased_geo::BBox;
    use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateType};

    fn rec(day: &str, lat7: i32, lon7: i32) -> UpdateRecord {
        UpdateRecord {
            element_type: ElementType::Way,
            update_type: UpdateType::Unclassified,
            country: CountryId(1),
            road_type: RoadTypeId(0),
            date: day.parse().unwrap(),
            lat7,
            lon7,
            changeset: ChangesetId(1),
        }
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    /// 4×8 grid over a small square extent: cell width 250, height 500.
    fn grid() -> GridSpec {
        GridSpec::new(BBox::new(0, 0, 2000, 2000), 4, 8)
    }

    fn bank(dir: &Path, shards: usize) -> SpatialBank {
        SpatialBank::create(dir, shards, grid(), CubeSchema::tiny(), IoCostModel::free(), 64)
            .expect("create bank")
    }

    #[test]
    fn publish_day_routes_blocks_to_owning_bands_only() {
        let dir = TempDir::new("bank-routing");
        let b = bank(dir.path(), 4);
        // Two points in the far-west band, one in the far-east band.
        let records =
            vec![rec("2021-03-02", 100, 10), rec("2021-03-02", 900, 40), rec("2021-03-02", 100, 1990)];
        let before = b.epochs();
        let report = b.publish_day(d("2021-03-02"), &records).expect("publish");
        let after = b.epochs();
        assert_eq!(report.day_blocks, 3, "three distinct cells");
        assert_eq!(report.shards_touched, 2);
        assert_eq!(report.month_blocks, 0, "not a month end");
        let touched: Vec<usize> =
            (0..4).filter(|&i| after.get(i) > before.get(i)).collect();
        assert_eq!(touched, vec![0, 3], "only the west and east bands publish");

        // Fetch round-trips through the bank cache.
        let west = b.grid().cell_of(Point::new(100, 10)).unwrap();
        let s = b.shard_of(west);
        let snap = b.snapshot(s).unwrap();
        let block = b.fetch_block(s, &snap, west, Period::Day(d("2021-03-02"))).expect("fetch").expect("block");
        assert_eq!(block.total(), 1);
        let (h0, m0) = b.cache_counters();
        assert_eq!((h0, m0), (0, 1));
        let again = b.fetch_block(s, &snap, west, Period::Day(d("2021-03-02"))).expect("fetch").expect("block");
        assert_eq!(*again, *block);
        assert_eq!(b.cache_counters(), (1, 1), "second fetch hits the block cache");
        // A cell that saw no data has no block — scan fallback.
        let empty_cell = b.grid().cell_of(Point::new(1900, 10)).unwrap();
        assert!(b
            .fetch_block(s, &snap, empty_cell, Period::Day(d("2021-03-02")))
            .expect("fetch")
            .is_none());
    }

    #[test]
    fn month_close_rolls_up_per_cell_blocks() {
        let dir = TempDir::new("bank-rollup");
        let b = bank(dir.path(), 2);
        // Two cells, data on scattered days across February 2021.
        let days = ["2021-02-03", "2021-02-10", "2021-02-28"];
        for day in days {
            b.publish_day(d(day), &[rec(day, 100, 10), rec(day, 100, 1990)]).expect("publish");
        }
        let west = b.grid().cell_of(Point::new(100, 10)).unwrap();
        let east = b.grid().cell_of(Point::new(100, 1990)).unwrap();
        for cell in [west, east] {
            let s = b.shard_of(cell);
            let snap = b.snapshot(s).unwrap();
            let month =
                b.fetch_block(s, &snap, cell, Period::Month(2021, 2)).expect("fetch").expect("month block");
            assert_eq!(month.total(), 3, "one update per published day");
            // Day blocks survive alongside the roll-up.
            assert!(b.has_block(&snap, cell, Period::Day(d("2021-02-10"))));
        }
    }

    #[test]
    fn rebuild_month_restages_and_tombstones() {
        let dir = TempDir::new("bank-rebuild");
        let b = bank(dir.path(), 2);
        for day in ["2021-03-05", "2021-03-20", "2021-03-31"] {
            b.publish_day(d(day), &[rec(day, 100, 10)]).expect("publish");
        }
        // The east band holds a February block: state, but no stake in March.
        b.publish_day(d("2021-02-10"), &[rec("2021-02-10", 100, 1990)]).expect("publish");
        let cell = b.grid().cell_of(Point::new(100, 10)).unwrap();
        let s = b.shard_of(cell);
        let east = b.shard_of(b.grid().cell_of(Point::new(100, 1990)).unwrap());
        assert_ne!(s, east);
        // Refined crawl: Mar 5 keeps two records, Mar 20 drops out.
        let mut by_day = BTreeMap::new();
        by_day.insert(d("2021-03-05"), vec![rec("2021-03-05", 100, 10), rec("2021-03-05", 110, 12)]);
        by_day.insert(d("2021-03-31"), vec![rec("2021-03-31", 100, 10)]);
        let before = b.epochs();
        let report = b.rebuild_month(2021, 3, &by_day).expect("rebuild");
        let after = b.epochs();
        assert_eq!(report.tombstones, 1, "Mar 20's block must be tombstoned");
        assert_eq!(report.shards_touched, 1);
        assert!(after.get(s) > before.get(s), "the band holding March republishes");
        assert_eq!(after.get(east), before.get(east), "no stake in March: the epoch must hold");

        let snap = b.snapshot(s).unwrap();
        assert!(!b.has_block(&snap, cell, Period::Day(d("2021-03-20"))));
        let day5 = b.fetch_block(s, &snap, cell, Period::Day(d("2021-03-05"))).expect("fetch").expect("block");
        assert_eq!(day5.total(), 2);
        let month =
            b.fetch_block(s, &snap, cell, Period::Month(2021, 3)).expect("fetch").expect("month");
        assert_eq!(month.total(), 3, "rebuilt roll-up excludes the dropped day");
    }

    #[test]
    fn day_markers_prove_publishes_without_touching_band_epochs() {
        let dir = TempDir::new("bank-marker");
        let b = bank(dir.path(), 4);
        let before = b.epochs();
        // An east-band publish marks the day; band epochs move only for
        // the east band, and the marker registry is not a band at all.
        b.publish_day(d("2021-03-02"), &[rec("2021-03-02", 100, 1990)]).expect("publish");
        let snap = b.marker_snapshot();
        assert!(b.day_published(&snap, d("2021-03-02")));
        assert!(!b.day_published(&snap, d("2021-03-03")), "unpublished day is unmarked");
        let after = b.epochs();
        assert_eq!(before.len(), after.len(), "marker adds no band");
        for i in 0..3 {
            assert_eq!(before[i], after[i], "band {i} epoch moved on a marker-only path");
        }
        // A publish with no spatial records still marks the day: "the
        // crawl ran and this day is empty" is exactly what the planner
        // needs to skip its scans.
        b.publish_day(d("2021-03-03"), &[]).expect("publish empty");
        let snap = b.marker_snapshot();
        assert!(b.day_published(&snap, d("2021-03-03")));
        // Pinned snapshots are stable: the pre-publish snapshot still
        // denies days marked after it was taken.
        assert!(!b.day_published(&b.marker_snapshot(), d("2021-03-04")));
        // Markers survive reopen alongside the blocks.
        b.sync().expect("sync");
        drop(b);
        let b = SpatialBank::open(dir.path(), 4, grid(), CubeSchema::tiny(), IoCostModel::free(), 64)
            .expect("open");
        let snap = b.marker_snapshot();
        assert!(b.day_published(&snap, d("2021-03-02")));
        assert!(b.day_published(&snap, d("2021-03-03")));
        assert!(!b.day_published(&snap, d("2021-03-04")));
        assert_eq!(b.block_count(), 1, "markers are not counted as data blocks");
    }

    #[test]
    fn bank_reopens_with_blocks_intact() {
        let dir = TempDir::new("bank-reopen");
        {
            let b = bank(dir.path(), 2);
            b.publish_day(d("2021-01-04"), &[rec("2021-01-04", 100, 10)]).expect("publish");
            b.sync().expect("sync");
        }
        let b = SpatialBank::open(dir.path(), 2, grid(), CubeSchema::tiny(), IoCostModel::free(), 64)
            .expect("open");
        let cell = b.grid().cell_of(Point::new(100, 10)).unwrap();
        let s = b.shard_of(cell);
        let snap = b.snapshot(s).unwrap();
        let block =
            b.fetch_block(s, &snap, cell, Period::Day(d("2021-01-04"))).expect("fetch").expect("block");
        assert_eq!(block.total(), 1);
        assert_eq!(b.block_count(), 1);
    }
}
