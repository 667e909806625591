//! [`TemporalIndex`]: the cube store and its maintenance procedures (§VI-A).
//!
//! ## Write path: append-then-commit
//!
//! The store is copy-on-write and epoch-versioned so streaming ingest can
//! run concurrently with serving:
//!
//! * Every write unit (`put`, `ingest_day`, `rebuild_month`) *stages* its
//!   cubes as records appended to the store's [`RecordFile`] (`cubes.rec`),
//!   each at its encoded length — published records are never rewritten.
//!   A record's id is its byte offset. Until the unit commits, its records
//!   are unreachable orphans.
//! * Commit is one atomic step: sync the record file, append a checksummed
//!   entry of the unit's `Period → (offset, length)` bindings to the WAL
//!   (`wal.log`), then swap in a new [`CatalogVersion`] with a bumped
//!   epoch. Readers that pinned the previous version keep resolving the
//!   old records; a crash between stage and commit loses nothing but
//!   orphan bytes.
//! * A binding can also be a *tombstone*: `rebuild_month` removes the
//!   daily cube of any in-month day the refined crawl produced no records
//!   for, so stale pre-refinement counts cannot survive inside roll-ups.
//! * `open()` loads the last catalog checkpoint (`catalog.bin`) and
//!   replays the WAL, discarding a torn or corrupt tail — an interrupted
//!   unit is rolled back wholesale, never half-applied. A WAL entry that
//!   points past the record file's end (the file lost a suffix the log
//!   kept) ends trusted history the same way. The checkpoint carries the
//!   epoch, so epochs are monotonic across restarts.
//! * `sync()` checkpoints the catalog (write-temp + atomic rename) and
//!   resets the WAL.
//! * A day unit may carry a *durable watermark* — the warehouse row count
//!   that was flushed before the unit committed. Recovery hands the last
//!   committed watermark back to the system, which trims the warehouse to
//!   it: a day present in the index then always has its sample rows too.
//!
//! Publishing surgically invalidates exactly the replaced periods in the
//! cube cache (version-tagged; see [`CubeCache`]) and cancels in-flight
//! single-flight fetches keyed by the dead records.

use crate::cache::{CacheConfig, CubeCache};
use crate::planner::LevelPlanner;
use crate::wal;
use rased_cube::{CubeError, CubeSchema, CubeView, DataCube, DimSelection};
use rased_storage::sync::{Mutex, RwLock};
use rased_storage::{
    FlightGroup, IoCostModel, IoSnapshot, IoStats, PageId, RecordFile, StorageError, WordHashMap,
    WordHashState,
};
use rased_temporal::{Date, Granularity, Period};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index-level error.
#[derive(Debug)]
pub enum IndexError {
    Storage(StorageError),
    Cube(CubeError),
    /// Maintenance needed a child cube that is not materialized.
    MissingChild { parent: Period, child: Period },
    /// The catalog sidecar file is unreadable.
    BadCatalog(String),
    /// A level that the index was configured without.
    LevelDisabled(Granularity),
    /// The store was written in another on-disk format version; it does
    /// not open (rebuild it from its data).
    StoreVersion { found: u32, expected: u32 },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Storage(e) => write!(f, "{e}"),
            IndexError::Cube(e) => write!(f, "{e}"),
            IndexError::MissingChild { parent, child } => {
                write!(f, "cannot build {parent}: child cube {child} missing")
            }
            IndexError::BadCatalog(m) => write!(f, "bad catalog: {m}"),
            IndexError::LevelDisabled(g) => write!(f, "index level `{g}` is disabled"),
            IndexError::StoreVersion { found, expected } => write!(
                f,
                "store format version {found} is not readable by this build (version {expected}); \
                 rebuild the store from its data"
            ),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

impl From<CubeError> for IndexError {
    fn from(e: CubeError) -> Self {
        IndexError::Cube(e)
    }
}

/// Where a fetched cube came from — feeds per-query statistics (§VIII
/// measures disk cubes vs. cached cubes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    Cache,
    Disk,
}

/// What a cube probe found: the cached cube, or the stored bytes.
enum Probed {
    Cached(Arc<DataCube>),
    Read(Arc<[u8]>),
}

/// What one daily-ingest maintenance run did (mirrors the I/O accounting of
/// §VI-A: 1 write on plain days, up to 8/6/13 I/Os at week/month/year
/// boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceReport {
    /// Cubes written (daily + any roll-ups built).
    pub cubes_written: usize,
    /// Cubes read to build roll-ups.
    pub cubes_read: usize,
    /// Cube operations attributed per level: `[daily, weekly, monthly,
    /// yearly]`. The daily slot is the day-cube write; each coarser slot is
    /// the incremental cost of building that roll-up (child reads + one
    /// write) — the unit in which §VI-A quotes its 1 / 8 / 6 / 13 bounds.
    pub ops_by_level: [usize; 4],
    /// Physical I/O delta for the run.
    pub io: IoSnapshot,
}

impl MaintenanceReport {
    /// Total cube-level I/O operations (reads + writes), the unit the paper
    /// counts.
    pub fn total_ops(&self) -> usize {
        self.cubes_written + self.cubes_read
    }
}

/// The region half of a cube key: 0 is the whole world (the temporal
/// index's classic keys); `1 + cell_code` addresses one grid cell of the
/// spatial bank's pre-aggregated blocks. The offset keeps cell (0, 0)
/// distinct from the world.
pub(crate) const WORLD_REGION: u32 = 0;

/// A lattice coordinate: one node of the (time × space) hierarchy. The
/// pure-temporal store only ever uses [`CubeKey::world`] keys, so every
/// `Period`-taking API on [`TemporalIndex`] is sugar over a world key; the
/// spatial bank stores its per-cell blocks under regional keys in the same
/// catalog/WAL machinery and inherits its crash atomicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CubeKey {
    pub period: Period,
    pub region: u32,
}

impl CubeKey {
    /// The whole-world key for `period` — the classic temporal-index key.
    pub fn world(period: Period) -> CubeKey {
        CubeKey { period, region: WORLD_REGION }
    }

    /// The key for `period` restricted to a spatial region (a grid cell
    /// code offset by 1; see [`WORLD_REGION`]).
    pub(crate) fn regional(period: Period, region: u32) -> CubeKey {
        CubeKey { period, region }
    }

    /// True for whole-world keys.
    pub(crate) fn is_world(&self) -> bool {
        self.region == WORLD_REGION
    }
}

impl fmt::Display for CubeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_world() {
            write!(f, "{}", self.period)
        } else {
            write!(f, "{}@r{}", self.period, self.region)
        }
    }
}

/// Where a key's encoding lives: the record's byte offset in the store's
/// record file (its id), and its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    at: PageId,
    len: u32,
}

/// One immutable published version of the cube-key → page catalog.
///
/// Readers clone the `Arc` once ([`TemporalIndex::snapshot`]) and resolve
/// every page through it for the whole plan + execute of a query, so they
/// can never observe a half-published unit: a concurrent commit swaps in a
/// *new* version and never mutates this one.
#[derive(Debug)]
pub struct CatalogVersion {
    epoch: u64,
    map: WordHashMap<CubeKey, Loc>,
}

impl CatalogVersion {
    /// The publish counter this version was installed at. Monotonically
    /// increasing across the index's whole history: the checkpoint
    /// persists it, and `open()` resumes at checkpoint epoch + replayed
    /// units — an external consumer comparing epochs across a restart
    /// never sees it go backwards.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The page holding `period`'s whole-world cube in this version.
    pub fn page(&self, period: Period) -> Option<PageId> {
        self.page_of(CubeKey::world(period))
    }

    /// The page bound to an arbitrary lattice key in this version.
    pub(crate) fn page_of(&self, key: CubeKey) -> Option<PageId> {
        self.loc(key).map(|l| l.at)
    }

    fn loc(&self, key: CubeKey) -> Option<Loc> {
        self.map.get(&key).copied()
    }

    /// True when `period`'s whole-world cube is materialized.
    pub fn contains(&self, period: Period) -> bool {
        self.contains_key(CubeKey::world(period))
    }

    /// True when the lattice key is materialized in this version.
    pub fn contains_key(&self, key: CubeKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Number of materialized cubes/blocks (all regions).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no cube is materialized.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every catalogued whole-world period (unordered).
    pub fn periods(&self) -> Vec<Period> {
        self.map.keys().filter(|k| k.is_world()).map(|k| k.period).collect()
    }

    /// Every catalogued lattice key, regional ones included (unordered).
    pub fn keys(&self) -> Vec<CubeKey> {
        self.map.keys().copied().collect()
    }

    /// Every whole-world (period, page) binding (unordered) — the cube
    /// cache's warm-set domain.
    pub fn entries(&self) -> Vec<(Period, PageId)> {
        self.map.iter().filter(|(k, _)| k.is_world()).map(|(k, l)| (k.period, l.at)).collect()
    }
}

/// WAL record kinds — provenance only; replay applies the bindings
/// regardless of which operation produced them. Kind 0, a single put, is
/// written only by unit tests.
const UNIT_DAY: u8 = 1;
const UNIT_MONTH: u8 = 2;
const UNIT_BLOCK: u8 = 3;

/// An uncommitted write unit: records already appended (copy-on-write), the
/// catalog bindings they will install, none of it visible to readers.
/// A `None` location is a tombstone — commit removes the key's binding.
/// `mark` is the warehouse durable row count to publish with the unit.
struct WriteUnit {
    kind: u8,
    a: i32,
    b: u32,
    delta: Vec<(CubeKey, Option<Loc>)>,
    staged: HashMap<CubeKey, Option<Loc>>,
    mark: Option<u64>,
}

impl WriteUnit {
    fn new(kind: u8, a: i32, b: u32) -> WriteUnit {
        WriteUnit { kind, a, b, delta: Vec::new(), staged: HashMap::new(), mark: None }
    }
}

/// Sentinel offset marking a tombstone in WAL records (a real record id
/// can never reach it — the record file would be 16 EiB).
const TOMBSTONE: u64 = u64::MAX;

/// Sentinel for "no durable watermark recorded" in the catalog checkpoint
/// and in [`TemporalIndex::durable_mark`]'s backing atomic.
const NO_MARK: u64 = u64::MAX;

/// The callback [`TemporalIndex::set_publish_hook`] registers: invoked with
/// each newly published epoch.
pub(crate) type PublishHook = Arc<dyn Fn(u64) + Send + Sync>;

/// The hierarchical temporal index: one record per cube in an append-only
/// record file, an epoch-versioned key → record catalog, a cube cache, and
/// the maintenance procedures.
pub struct TemporalIndex {
    schema: CubeSchema,
    levels: u8,
    file: Arc<RecordFile>,
    catalog: RwLock<Arc<CatalogVersion>>,
    /// Serializes commits so WAL order equals publish order: held across
    /// the record append *and* the catalog swap.
    wal: Mutex<wal::Wal>,
    cache: CubeCache,
    /// Coalesces concurrent cold fetches of the same record: one physical
    /// read of the encoding's bytes, which every waiter then folds or
    /// decodes. Keyed by record id (not period) — two epochs of the same
    /// period are different records and must never coalesce.
    flights: FlightGroup<u64, Arc<[u8]>>,
    catalog_path: PathBuf,
    published_units: AtomicU64,
    invalidations: AtomicU64,
    /// Last committed warehouse watermark ([`NO_MARK`] = none recorded).
    /// Written under the WAL mutex, checkpointed by `sync()`.
    durable_mark: AtomicU64,
    /// Callback invoked with the new epoch after every published unit, once
    /// the WAL and catalog locks have dropped. The serving tier registers
    /// its response-cache sweep here; the hook is cloned out of the mutex
    /// before it runs, so it may take arbitrary downstream locks.
    publish_hook: Mutex<Option<PublishHook>>,
}

impl fmt::Debug for TemporalIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemporalIndex")
            .field("schema", &self.schema)
            .field("levels", &self.levels)
            .field("cubes", &self.catalog.read().len())
            .field("epoch", &self.catalog.read().epoch())
            .finish_non_exhaustive()
    }
}

impl TemporalIndex {
    /// Create a fresh index under `dir`.
    ///
    /// `levels` enables 1 (daily only) through 4 (…+ yearly) granularities —
    /// the Figure 8 experiment varies exactly this. The temporal shards,
    /// the spatial bank's bands and its day-marker registry are all this
    /// one store: no encoding under `schema`, cube or block, is longer than
    /// a dense cube, which bounds every record.
    pub fn create(
        dir: &Path,
        schema: CubeSchema,
        levels: u8,
        cache: CacheConfig,
        model: IoCostModel,
    ) -> Result<TemporalIndex, IndexError> {
        assert!((1..=4).contains(&levels), "levels must be 1..=4");
        std::fs::create_dir_all(dir).map_err(StorageError::from)?;
        let file = RecordFile::create(&dir.join(RECORDS), schema.cube_bytes(), model)?;
        let catalog_path = dir.join("catalog.bin");
        // Write the empty checkpoint and an empty WAL up front: a process
        // killed right after create must reopen as a valid empty index. The
        // watermark starts at zero — an empty index accounts for no rows —
        // so a crash before the first marked commit trims stragglers away.
        save_catalog(&catalog_path, &WordHashMap::default(), 0, Some(0), file.stats())?;
        let mut log = wal::Wal::open_append(&dir.join("wal.log"), Arc::clone(file.stats()))
            .map_err(StorageError::from)?;
        log.reset().map_err(StorageError::from)?;
        Ok(TemporalIndex {
            schema,
            levels,
            file: Arc::new(file),
            catalog: RwLock::new_named(
                Arc::new(CatalogVersion { epoch: 0, map: WordHashMap::default() }),
                "index.catalog",
            ),
            wal: Mutex::new_named(log, "index.wal"),
            cache: CubeCache::new(cache),
            flights: FlightGroup::new(4, "index.cube_flight_map", "index.cube_flight_slot"),
            catalog_path,
            published_units: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            durable_mark: AtomicU64::new(0),
            publish_hook: Mutex::new_named(None, "index.publish_hook"),
        })
    }

    /// Reopen an index created earlier: load the catalog checkpoint, then
    /// replay committed WAL units on top. A torn or corrupt WAL tail — a
    /// crash mid-commit — is truncated away, and so is every unit from the
    /// first one binding a record past the record file's end or longer
    /// than a dense cube; records staged by uncommitted units are
    /// unreachable orphans and simply never referenced. The epoch resumes
    /// at checkpoint epoch + replayed units (monotonic across restarts);
    /// the durable watermark is the last one committed.
    pub fn open(
        dir: &Path,
        schema: CubeSchema,
        levels: u8,
        cache: CacheConfig,
        model: IoCostModel,
    ) -> Result<TemporalIndex, IndexError> {
        assert!((1..=4).contains(&levels), "levels must be 1..=4");
        // The catalog first: it carries the format version, so a store
        // from another format fails as such, not as a missing file.
        let catalog_path = dir.join("catalog.bin");
        let (mut map, base_epoch, mut mark) = load_catalog(&catalog_path)?;
        let file = RecordFile::open(&dir.join(RECORDS), schema.cube_bytes(), model)?;

        let wal_path = dir.join("wal.log");
        let (records, total_len) = wal::replay(&wal_path).map_err(StorageError::from)?;
        let mut applied: u64 = 0;
        let mut good_end: u64 = 0;
        for rec in records {
            // A unit that fails to decode — or that binds a record past the
            // file's end or longer than the maximum — marks the end of
            // trustworthy history. Tombstones bind no record and are exempt.
            let Ok((entries, unit_mark)) = decode_unit(&rec.payload) else { break };
            if entries.iter().any(|(_, loc)| loc.is_some_and(|l| !file.holds(l.at, l.len as usize))) {
                break;
            }
            for (p, loc) in entries {
                match loc {
                    Some(l) => {
                        map.insert(p, l);
                    }
                    None => {
                        map.remove(&p);
                    }
                }
            }
            if unit_mark.is_some() {
                mark = unit_mark;
            }
            applied += 1;
            good_end = rec.end_offset;
        }
        if good_end < total_len {
            wal::truncate(&wal_path, good_end, file.stats()).map_err(StorageError::from)?;
        }
        let log = wal::Wal::open_append(&wal_path, Arc::clone(file.stats())).map_err(StorageError::from)?;

        Ok(TemporalIndex {
            schema,
            levels,
            file: Arc::new(file),
            catalog: RwLock::new_named(
                Arc::new(CatalogVersion { epoch: base_epoch + applied, map }),
                "index.catalog",
            ),
            wal: Mutex::new_named(log, "index.wal"),
            cache: CubeCache::new(cache),
            flights: FlightGroup::new(4, "index.cube_flight_map", "index.cube_flight_slot"),
            catalog_path,
            published_units: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            durable_mark: AtomicU64::new(mark.unwrap_or(NO_MARK)),
            publish_hook: Mutex::new_named(None, "index.publish_hook"),
        })
    }

    /// The cube schema.
    pub fn schema(&self) -> CubeSchema {
        self.schema
    }

    /// Enabled level count (1..=4).
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// The cube cache.
    pub fn cache(&self) -> &CubeCache {
        &self.cache
    }

    /// The backing record file (exposes I/O statistics, syncs included:
    /// the store's WAL and checkpoint syncs are charged to it too).
    pub fn file(&self) -> &Arc<RecordFile> {
        &self.file
    }

    /// Pin the current catalog version. Everything resolved through the
    /// returned snapshot — planning and fetching alike — observes one
    /// consistent epoch, no matter how many units publish meanwhile.
    pub fn snapshot(&self) -> Arc<CatalogVersion> {
        Arc::clone(&self.catalog.read())
    }

    /// The current epoch (bumped once per published unit).
    pub fn epoch(&self) -> u64 {
        self.catalog.read().epoch()
    }

    /// Units published since this handle was opened.
    pub fn published_units(&self) -> u64 {
        self.published_units.load(Ordering::Relaxed)
    }

    /// Register (replacing any previous) a callback run after every
    /// published unit with the new catalog epoch. It fires after the WAL
    /// and catalog locks drop, and is not held while running — downstream
    /// caches can take their own locks freely. Derived-cache owners (the
    /// dashboard's response cache) use it to retire entries keyed by
    /// superseded epochs.
    pub fn set_publish_hook(&self, hook: PublishHook) {
        *self.publish_hook.lock() = Some(hook);
    }

    /// Stale cache entries surgically invalidated by publishes.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// The warehouse row count recorded by the last committed unit that
    /// carried one ([`TemporalIndex::ingest_day_marked`]); a fresh index
    /// starts at `Some(0)`. `None` only on a pre-watermark checkpoint
    /// (no trim evidence). Every row below the watermark was flushed before
    /// the unit became durable, so on reopen the system trims the
    /// warehouse back to it — index presence then implies warehouse
    /// presence, which is what makes skip-if-indexed resume correct.
    pub fn durable_mark(&self) -> Option<u64> {
        match self.durable_mark.load(Ordering::SeqCst) {
            NO_MARK => None,
            m => Some(m),
        }
    }

    /// True when a cube for `period` is materialized.
    pub fn has(&self, period: Period) -> bool {
        self.catalog.read().contains(period)
    }

    /// Every catalogued period (unordered).
    pub fn periods(&self) -> Vec<Period> {
        self.catalog.read().periods()
    }

    /// Number of materialized cubes.
    pub fn cube_count(&self) -> usize {
        self.catalog.read().len()
    }

    /// Bytes of cube storage: the record file's length, superseded and
    /// orphaned records included.
    pub fn storage_bytes(&self) -> u64 {
        self.file.len()
    }

    /// The date range covered by daily cubes, if any data is present.
    pub fn coverage(&self) -> Option<(Date, Date)> {
        let snap = self.snapshot();
        let mut days = snap.map.keys().filter_map(|k| match k {
            CubeKey { period: Period::Day(d), region: WORLD_REGION } => Some(*d),
            _ => None,
        });
        let first = days.next()?;
        let (min, max) = days.fold((first, first), |(lo, hi), d| (lo.min(d), hi.max(d)));
        Some((min, max))
    }

    fn check_level(&self, period: Period) -> Result<(), IndexError> {
        let g = period.granularity();
        if g.level() > self.levels {
            return Err(IndexError::LevelDisabled(g));
        }
        Ok(())
    }

    /// Append `cube` as a staged record and note the binding in `unit`.
    /// Nothing becomes visible until the unit commits.
    fn stage(&self, unit: &mut WriteUnit, period: Period, cube: &DataCube) -> Result<(), IndexError> {
        self.check_level(period)?;
        self.stage_raw(unit, CubeKey::world(period), cube.to_bytes())
    }

    /// Append pre-encoded bytes as a staged record under an arbitrary
    /// lattice key: one write of exactly the encoding.
    fn stage_raw(&self, unit: &mut WriteUnit, key: CubeKey, bytes: Vec<u8>) -> Result<(), IndexError> {
        let len = u32::try_from(bytes.len())
            .map_err(|_| StorageError::RecordTooLarge { len: bytes.len(), max: self.file.max_record() })?;
        let page = self.file.append(&bytes)?;
        let loc = Some(Loc { at: page, len });
        unit.delta.push((key, loc));
        unit.staged.insert(key, loc);
        Ok(())
    }

    /// Record that `period` has no cube in the unit's post-state: commit
    /// removes its catalog binding, and roll-ups built by this unit treat
    /// it as empty (the staged tombstone shadows the committed record).
    fn stage_tombstone(&self, unit: &mut WriteUnit, period: Period) {
        self.stage_tombstone_key(unit, CubeKey::world(period));
    }

    fn stage_tombstone_key(&self, unit: &mut WriteUnit, key: CubeKey) {
        unit.delta.push((key, None));
        unit.staged.insert(key, None);
    }

    /// Publish a unit: durable records → WAL entry → catalog swap. The WAL
    /// mutex is held across the append *and* the swap so log order equals
    /// publish order; the catalog write lock nests inside it (upward in
    /// rank). Invalidation runs after both locks drop.
    fn commit_unit(&self, unit: WriteUnit) -> Result<(), IndexError> {
        if unit.delta.is_empty() {
            return Ok(());
        }
        // Every record a WAL entry references must be durable before the
        // entry that publishes it.
        self.file.sync()?;
        let payload = encode_unit(&unit);
        let mut stale: Vec<(CubeKey, Option<PageId>, PageId)> = Vec::new();
        let new_epoch;
        {
            let mut log = self.wal.lock();
            log.append(&payload).map_err(StorageError::from)?;
            if let Some(m) = unit.mark {
                self.durable_mark.store(m, Ordering::SeqCst);
            }
            let mut cat = self.catalog.write();
            let mut map = cat.map.clone();
            for &(k, loc) in &unit.delta {
                match loc {
                    Some(loc) => {
                        if let Some(old) = map.insert(k, loc) {
                            if old.at != loc.at {
                                stale.push((k, Some(loc.at), old.at));
                            }
                        }
                    }
                    None => {
                        if let Some(old) = map.remove(&k) {
                            stale.push((k, None, old.at));
                        }
                    }
                }
            }
            new_epoch = cat.epoch + 1;
            *cat = Arc::new(CatalogVersion { epoch: new_epoch, map });
        }
        for (key, new_page, old_page) in stale {
            // Drop the superseded cached cube (tag-checked so a copy of the
            // new version is spared; a tombstone drops unconditionally) and
            // cancel any in-flight read of the dead record so a stalled miss
            // can't resurrect it. The cube cache holds whole-world cubes
            // only; regional blocks are cached by their owner (the spatial
            // bank), which keys by record tag and self-corrects on mismatch.
            if key.is_world() {
                match new_page {
                    Some(new_page) => {
                        self.cache.invalidate_stale(key.period, new_page);
                    }
                    None => self.cache.invalidate(key.period),
                }
            }
            self.flights.cancel(&old_page.0);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        self.published_units.fetch_add(1, Ordering::Relaxed);
        // Notify derived caches of the epoch bump. The hook is cloned out of
        // its mutex (a temporary — never held across the call) so it can
        // take serving-tier locks without nesting under any index lock.
        let hook = { self.publish_hook.lock().clone() };
        if let Some(hook) = hook {
            hook(new_epoch);
        }
        Ok(())
    }

    /// Publish a batch of pre-encoded blocks — and/or tombstones (`None`
    /// bytes) — under arbitrary lattice keys as **one atomic unit**: one
    /// WAL record, one epoch bump, all-or-nothing on crash. This is the
    /// spatial bank's write path; temporal levels are still enforced per
    /// key.
    pub(crate) fn put_blocks(&self, blocks: Vec<(CubeKey, Option<Vec<u8>>)>) -> Result<(), IndexError> {
        let mut unit = WriteUnit::new(UNIT_BLOCK, 0, 0);
        for (key, bytes) in blocks {
            self.check_level(key.period)?;
            match bytes {
                Some(bytes) => self.stage_raw(&mut unit, key, bytes)?,
                None => self.stage_tombstone_key(&mut unit, key),
            }
        }
        self.commit_unit(unit)
    }

    /// The encoded bytes bound to `key` in `snap` — exactly as many as
    /// were stored, read in one go — with the record's id, or `None` when
    /// the key is not materialized in that version. Bypasses the cube
    /// cache; block callers run their own record-tagged cache.
    pub fn fetch_block_at(
        &self,
        snap: &CatalogVersion,
        key: CubeKey,
    ) -> Result<Option<(PageId, Vec<u8>)>, IndexError> {
        let Some(loc) = snap.loc(key) else {
            return Ok(None);
        };
        Ok(Some((loc.at, self.read_exact(loc)?)))
    }

    /// Every catalogued lattice key (unordered, regional keys included).
    pub fn keys(&self) -> Vec<CubeKey> {
        self.catalog.read().keys()
    }

    /// Fetch the cube for `period` at the current epoch. Convenience over
    /// [`TemporalIndex::fetch_at`] for callers without a pinned snapshot.
    pub fn fetch(&self, period: Period) -> Result<Option<(Arc<DataCube>, FetchOutcome)>, IndexError> {
        let snap = self.snapshot();
        self.fetch_at(&snap, period)
    }

    /// Fetch the cube for `period` as bound by `snap`, consulting the
    /// version-tagged cache first. Returns the cube and where it came
    /// from, or `None` when not materialized in that version.
    pub fn fetch_at(
        &self,
        snap: &CatalogVersion,
        period: Period,
    ) -> Result<Option<(Arc<DataCube>, FetchOutcome)>, IndexError> {
        Ok(match self.probe(snap, period)? {
            None => None,
            Some(Probed::Cached(cube)) => Some((cube, FetchOutcome::Cache)),
            Some(Probed::Read(bytes)) => {
                Some((Arc::new(DataCube::from_bytes(self.schema, &bytes)?), FetchOutcome::Disk))
            }
        })
    }

    /// Fold the cells of `period`'s cube (as bound by `snap`) that `sel`
    /// selects into `visit`, and say where the cube came from; `None` when
    /// it is not materialized in that version. A cache hit folds the
    /// cached cube; a miss folds the stored bytes in place, never building
    /// a cube.
    pub fn fold_at(
        &self,
        snap: &CatalogVersion,
        period: Period,
        sel: &DimSelection,
        visit: impl FnMut(usize, usize, usize, usize, u64),
    ) -> Result<Option<FetchOutcome>, IndexError> {
        Ok(match self.probe(snap, period)? {
            None => None,
            Some(Probed::Cached(cube)) => {
                cube.for_each_selected(sel, visit);
                Some(FetchOutcome::Cache)
            }
            Some(Probed::Read(bytes)) => {
                CubeView::parse(self.schema, &bytes)?.for_each_selected(sel, visit);
                Some(FetchOutcome::Disk)
            }
        })
    }

    /// The cached cube for `period` at `snap`'s version, or else its
    /// stored bytes. Concurrent misses of one *record* coalesce into one
    /// physical read whose bytes every caller shares; each still counts as
    /// `Disk`, since each did miss the cache. Records are immutable once
    /// published, so a retry after a publish-driven cancellation always
    /// reads correct bytes.
    fn probe(&self, snap: &CatalogVersion, period: Period) -> Result<Option<Probed>, IndexError> {
        let Some(loc) = snap.loc(CubeKey::world(period)) else {
            return Ok(None);
        };
        if let Some(cube) = self.cache.get(period, loc.at) {
            return Ok(Some(Probed::Cached(cube)));
        }
        let bytes = self.flights.run(loc.at.0, || self.read_exact(loc).map(Arc::from))?;
        Ok(Some(Probed::Read(bytes)))
    }

    /// Fetch bypassing and not touching the cache (used by maintenance and
    /// cache warming itself).
    pub fn fetch_uncached(&self, period: Period) -> Result<Option<Arc<DataCube>>, IndexError> {
        let Some(loc) = self.snapshot().loc(CubeKey::world(period)) else {
            return Ok(None);
        };
        self.read_cube(loc).map(Some)
    }

    /// The encoding stored at `loc`: one read of exactly its length.
    fn read_exact(&self, loc: Loc) -> Result<Vec<u8>, IndexError> {
        let mut buf = vec![0u8; loc.len as usize];
        self.file.read(loc.at, &mut buf)?;
        Ok(buf)
    }

    fn read_cube(&self, loc: Loc) -> Result<Arc<DataCube>, IndexError> {
        Ok(Arc::new(DataCube::from_bytes(self.schema, &self.read_exact(loc)?)?))
    }

    /// Resolve `period` for roll-up building: the unit's own staged records
    /// shadow the committed catalog, so a roll-up aggregates the very data
    /// its unit is publishing.
    fn fetch_for_build(
        &self,
        unit: &WriteUnit,
        period: Period,
    ) -> Result<Option<Arc<DataCube>>, IndexError> {
        // A staged binding — record *or* tombstone — shadows the committed
        // catalog; only an untouched period falls through to it.
        let key = CubeKey::world(period);
        let loc = match unit.staged.get(&key) {
            Some(&staged) => staged,
            None => self.catalog.read().loc(key),
        };
        match loc {
            Some(loc) => self.read_cube(loc).map(Some),
            None => Ok(None),
        }
    }

    /// Daily maintenance (§VI-A): store `cube` as the daily cube for `day`,
    /// then build the parent weekly / monthly / yearly cubes whenever `day`
    /// closes such a period. The day *and* its roll-ups publish together
    /// as one atomic unit — readers see all of them or none.
    ///
    /// On a plain day this costs exactly 1 cube write. At a week boundary
    /// the weekly cube is built by reading the 7 daily children (≤ 8 ops);
    /// at a month boundary the monthly cube reads its ≤ 4 weekly + ≤ 3 daily
    /// children (≤ 6 extra ops… [paper's figures]); December 31 additionally
    /// builds the yearly cube from 12 monthly children (13 ops).
    pub fn ingest_day(&self, day: Date, cube: &DataCube) -> Result<MaintenanceReport, IndexError> {
        self.ingest_day_unit(day, cube, None)
    }

    /// [`TemporalIndex::ingest_day`] plus a durable watermark: `mark` is
    /// the warehouse row count the caller flushed *before* this call, and
    /// it becomes visible through [`TemporalIndex::durable_mark`] exactly
    /// when the unit commits — committed-day-implies-durable-rows is the
    /// invariant the streaming resume check leans on.
    pub fn ingest_day_marked(
        &self,
        day: Date,
        cube: &DataCube,
        mark: u64,
    ) -> Result<MaintenanceReport, IndexError> {
        self.ingest_day_unit(day, cube, Some(mark))
    }

    fn ingest_day_unit(
        &self,
        day: Date,
        cube: &DataCube,
        mark: Option<u64>,
    ) -> Result<MaintenanceReport, IndexError> {
        let io_before = self.file.stats().snapshot();
        let mut report = MaintenanceReport::default();
        let mut unit = WriteUnit::new(UNIT_DAY, day.days(), 0);
        unit.mark = mark;

        self.stage(&mut unit, Period::Day(day), cube)?;
        report.cubes_written += 1;
        report.ops_by_level[0] += 1;

        // Week closes on Saturday (weeks start Sunday).
        if self.levels >= 2 && day.succ().is_week_start() {
            let before = report.total_ops();
            report = self.roll_up(&mut unit, Period::week_of(day), report)?;
            report.ops_by_level[1] += report.total_ops() - before;
        }
        if self.levels >= 3 && day == day.month_end() {
            let before = report.total_ops();
            report = self.roll_up(&mut unit, Period::month_of(day), report)?;
            report.ops_by_level[2] += report.total_ops() - before;
        }
        if self.levels >= 4 && day == day.year_end() {
            let before = report.total_ops();
            report = self.roll_up(&mut unit, Period::year_of(day), report)?;
            report.ops_by_level[3] += report.total_ops() - before;
        }

        self.commit_unit(unit)?;
        report.io = self.file.stats().snapshot().since(&io_before);
        Ok(report)
    }

    /// Build one parent cube by summing its children and stage it into the
    /// unit.
    fn roll_up(
        &self,
        unit: &mut WriteUnit,
        parent: Period,
        mut report: MaintenanceReport,
    ) -> Result<MaintenanceReport, IndexError> {
        let mut sum = DataCube::zeroed(self.schema);
        report = self.sum_children(unit, parent, &mut sum, report)?;
        self.stage(unit, parent, &sum)?;
        report.cubes_written += 1;
        Ok(report)
    }

    /// Merge every materialized descendant of `parent` into `sum` (staged
    /// records of the current unit shadow committed ones). A missing *day*
    /// means no data that day (ingestion invariant). A missing coarser
    /// child does NOT mean its span is empty: its roll-up only fires when
    /// its closing day is ingested, so a gap day at a period boundary
    /// leaves the child unmaterialized while its days hold data — recurse
    /// into those instead of assuming zero.
    fn sum_children(
        &self,
        unit: &WriteUnit,
        parent: Period,
        sum: &mut DataCube,
        mut report: MaintenanceReport,
    ) -> Result<MaintenanceReport, IndexError> {
        for child in parent.children() {
            match self.fetch_for_build(unit, child)? {
                Some(cube) => {
                    report.cubes_read += 1;
                    sum.merge_from(&cube)?;
                }
                None if child.granularity() != Granularity::Day => {
                    report = self.sum_children(unit, child, sum, report)?;
                }
                None => {} // no data that day
            }
        }
        Ok(report)
    }

    /// Monthly rebuild (§VI-A): the monthly crawler re-derives that month's
    /// daily cubes with refined update types; replace them, clear any stale
    /// `Unclassified` counts, and rebuild every ancestor cube that covers
    /// the month — all published as one atomic unit, so a concurrent query
    /// never sees refined days blended with stale roll-ups.
    ///
    /// `daily` maps each day of the month to its re-classified cube; a
    /// materialized day absent from the map is *tombstoned* — the refined
    /// crawl produced no records for it, so its old coarse cube is removed
    /// and the rebuilt roll-ups exclude it (keeping it would fold stale
    /// pre-refinement counts back into the week/month/year cubes).
    pub fn rebuild_month(
        &self,
        year: i32,
        month: u32,
        daily: &HashMap<Date, DataCube>,
    ) -> Result<MaintenanceReport, IndexError> {
        let io_before = self.file.stats().snapshot();
        let mut report = MaintenanceReport::default();
        let month_period = Period::Month(year, month);
        let mut unit = WriteUnit::new(UNIT_MONTH, year, month);

        for (day, cube) in daily {
            debug_assert!(month_period.contains(*day), "{day} outside {month_period}");
            self.stage(&mut unit, Period::Day(*day), cube)?;
            report.cubes_written += 1;
        }
        // Tombstone every in-month day that is materialized in the
        // committed catalog but absent from the refined set.
        {
            let committed = self.snapshot();
            let mut day = month_period.start();
            while day <= month_period.end() {
                if !daily.contains_key(&day) && committed.contains(Period::Day(day)) {
                    self.stage_tombstone(&mut unit, Period::Day(day));
                }
                day = day.succ();
            }
        }

        // Rebuild every weekly cube overlapping the month — including weeks
        // that straddle a month boundary. A straddling week is not a child
        // of this month, but it aggregates some of the daily cubes just
        // replaced; skipping it would leave stale pre-refinement counts
        // that the level optimizer could serve. Straddling weeks that were
        // never materialized (e.g. the trailing week when the next month is
        // not ingested yet) are left alone.
        if self.levels >= 2 {
            let mut week = Period::week_of(month_period.start());
            while week.start() <= month_period.end() {
                if week.within(month_period.range()) || self.has(week) {
                    report = self.roll_up(&mut unit, week, report)?;
                }
                week = week.succ();
            }
        }
        if self.levels >= 3 {
            report = self.roll_up(&mut unit, month_period, report)?;
        }
        // Refresh the year cube if it was already materialized.
        if self.levels >= 4 && self.has(Period::Year(year)) {
            report = self.roll_up(&mut unit, Period::Year(year), report)?;
        }
        // An adjacent month's cube also aggregates the straddling weeks'
        // days — but only through its *day* children, which were not
        // touched, so it stays consistent.

        self.commit_unit(unit)?;
        report.io = self.file.stats().snapshot().since(&io_before);
        Ok(report)
    }

    /// Re-warm the cache per the recency policy from the current catalog.
    pub fn warm_cache(&self) -> Result<(), IndexError> {
        let snap = self.snapshot();
        // `entries` come from `snap`, so every period has its length there.
        self.cache.warm(&snap.entries(), |period, page| {
            let len = snap.loc(CubeKey::world(period)).map_or(0, |l| l.len);
            self.read_cube(Loc { at: page, len })
        })
    }

    /// Checkpoint the catalog sidecar (write-temp + atomic rename) and
    /// reset the WAL. Serialized against commits via the WAL mutex so no
    /// published unit can fall between the checkpoint and the reset.
    pub fn sync(&self) -> Result<(), IndexError> {
        self.file.sync()?;
        let mut log = self.wal.lock();
        let snap = Arc::clone(&self.catalog.read());
        save_catalog(&self.catalog_path, &snap.map, snap.epoch(), self.durable_mark(), self.file.stats())?;
        log.reset().map_err(StorageError::from)?;
        Ok(())
    }
}

/// Run `f` with a [`LevelPlanner`] probing this index's catalog and cache.
///
/// A convenience over building the probe closures by hand at every call
/// site (the planner borrows its probes, so it cannot be returned from a
/// method that owns them).
pub fn with_planner<T>(index: &TemporalIndex, f: impl FnOnce(&LevelPlanner<'_>) -> T) -> T {
    let snap = index.snapshot();
    let exists = |p: Period| snap.contains(p);
    let cached = |p: Period| snap.contains(p) && index.cache().contains(p);
    let planner = LevelPlanner::new(index.levels(), &exists, &cached);
    f(&planner)
}

/// The record file's name inside a store directory.
const RECORDS: &str = "cubes.rec";

// --- WAL unit payloads -----------------------------------------------------
// Payload: kind u8 | a i32 | b u32 | entry count u32, then per entry the
// same 25-byte layout as the catalog sidecar:
//   granularity u8 | a i32 | b u32 | region u32 | offset u64 | len u32
// An offset of `TOMBSTONE` (u64::MAX) removes the binding instead of
// installing one. An optional 8-byte trailer after the entries is the
// unit's durable warehouse watermark; units without one omit it.

const ENTRY_BYTES: usize = 25;

fn encode_unit(unit: &WriteUnit) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + unit.delta.len() * ENTRY_BYTES + 8);
    out.push(unit.kind);
    out.extend_from_slice(&unit.a.to_le_bytes());
    out.extend_from_slice(&unit.b.to_le_bytes());
    out.extend_from_slice(&(unit.delta.len() as u32).to_le_bytes());
    for &(k, loc) in &unit.delta {
        encode_entry(&mut out, k, loc);
    }
    if let Some(mark) = unit.mark {
        out.extend_from_slice(&mark.to_le_bytes());
    }
    out
}

type DecodedUnit = (Vec<(CubeKey, Option<Loc>)>, Option<u64>);

fn decode_unit(payload: &[u8]) -> Result<DecodedUnit, IndexError> {
    let bad = |m: &str| IndexError::BadCatalog(format!("wal record: {m}"));
    let n = rased_storage::bytes::read_u32_le(payload, 9).ok_or_else(|| bad("short header"))? as usize;
    let mut entries = Vec::with_capacity(n.min(4096));
    for i in 0..n {
        entries.push(decode_entry(payload, 13 + i * ENTRY_BYTES).ok_or_else(|| bad("truncated entries"))??);
    }
    // The watermark trailer is present exactly when 8 more bytes follow
    // the entries (the CRC framing already vouches for the byte count).
    let mark = rased_storage::bytes::read_u64_le(payload, 13 + n * ENTRY_BYTES);
    Ok((entries, mark))
}

fn encode_entry(out: &mut Vec<u8>, key: CubeKey, loc: Option<Loc>) {
    let (g, a, b) = encode_period(key.period);
    out.push(g);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    out.extend_from_slice(&key.region.to_le_bytes());
    out.extend_from_slice(&loc.map_or(TOMBSTONE, |l| l.at.0).to_le_bytes());
    out.extend_from_slice(&loc.map_or(0, |l| l.len).to_le_bytes());
}

/// Decode one 25-byte entry at `off` (`None` location = tombstone). Outer
/// `None` = short buffer; inner `Err` = well-framed but invalid (bad
/// granularity tag).
fn decode_entry(bytes: &[u8], off: usize) -> Option<Result<(CubeKey, Option<Loc>), IndexError>> {
    let g = *bytes.get(off)?;
    let a = rased_storage::bytes::read_u32_le(bytes, off + 1)? as i32;
    let b = rased_storage::bytes::read_u32_le(bytes, off + 5)?;
    let region = rased_storage::bytes::read_u32_le(bytes, off + 9)?;
    let page = rased_storage::bytes::read_u64_le(bytes, off + 13)?;
    let len = rased_storage::bytes::read_u32_le(bytes, off + 21)?;
    let loc = (page != TOMBSTONE).then_some(Loc { at: PageId(page), len });
    Some(decode_period(g, a, b).map(|p| (CubeKey { period: p, region }, loc)))
}

// --- catalog sidecar -------------------------------------------------------
// Format v5: magic (8) + epoch (u64) + durable mark (u64, u64::MAX = none)
// + entry count (u64), then per entry:
//   granularity u8 | a i32 | b u32 | region u32 | offset u64 | len u32
// where (a, b) encode the period: Day/Week → (start-days, 0);
// Month → (year, month); Year → (year, 0), `region` is the spatial half
// of the key (0 = world), and (offset, len) locate the stored encoding in
// the record file. The magic's last byte is the format version; an older
// store fails to open with `IndexError::StoreVersion` rather than
// misreading.

const CATALOG_MAGIC: &[u8; 8] = b"RASEDCT5";
const CATALOG_VERSION: u32 = 5;
const CATALOG_HEADER: usize = 32;

/// The format version a catalog file declares: the digit after its
/// `RASEDCT` magic, when it has one.
fn catalog_version(bytes: &[u8]) -> Option<u32> {
    match bytes.get(..8)? {
        [b'R', b'A', b'S', b'E', b'D', b'C', b'T', d] if d.is_ascii_digit() => Some(u32::from(d - b'0')),
        _ => None,
    }
}

fn encode_period(p: Period) -> (u8, i32, u32) {
    match p {
        Period::Day(d) => (0, d.days(), 0),
        Period::Week(d) => (1, d.days(), 0),
        Period::Month(y, m) => (2, y, m),
        Period::Year(y) => (3, y, 0),
    }
}

fn decode_period(g: u8, a: i32, b: u32) -> Result<Period, IndexError> {
    match g {
        0 => Ok(Period::Day(Date::from_days(a))),
        1 => Ok(Period::Week(Date::from_days(a))),
        2 => Ok(Period::Month(a, b)),
        3 => Ok(Period::Year(a)),
        _ => Err(IndexError::BadCatalog(format!("bad granularity tag {g}"))),
    }
}

fn save_catalog(
    path: &Path,
    catalog: &WordHashMap<CubeKey, Loc>,
    epoch: u64,
    mark: Option<u64>,
    stats: &IoStats,
) -> Result<(), IndexError> {
    let mut out = Vec::with_capacity(CATALOG_HEADER + catalog.len() * ENTRY_BYTES);
    out.extend_from_slice(CATALOG_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&mark.unwrap_or(NO_MARK).to_le_bytes());
    out.extend_from_slice(&(catalog.len() as u64).to_le_bytes());
    for (k, loc) in catalog {
        encode_entry(&mut out, *k, Some(*loc));
    }
    // Write-temp + rename: the checkpoint is replaced atomically, so a
    // crash mid-save can never leave a half-written catalog.bin.
    let tmp = path.with_extension("bin.tmp");
    (|| {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })()
    .map_err(StorageError::from)?;
    stats.record_sync();
    Ok(())
}

/// A catalog file's contents: the key → location map, its epoch and the
/// durable row mark.
type LoadedCatalog = (WordHashMap<CubeKey, Loc>, u64, Option<u64>);

fn load_catalog(path: &Path) -> Result<LoadedCatalog, IndexError> {
    let bytes = std::fs::read(path).map_err(StorageError::from)?;
    if let Some(found) = catalog_version(&bytes).filter(|&v| v != CATALOG_VERSION) {
        return Err(IndexError::StoreVersion { found, expected: CATALOG_VERSION });
    }
    if bytes.len() < CATALOG_HEADER || !bytes.starts_with(CATALOG_MAGIC) {
        return Err(IndexError::BadCatalog("missing or corrupt header".into()));
    }
    let truncated = || IndexError::BadCatalog("truncated entries".into());
    let epoch = rased_storage::bytes::read_u64_le(&bytes, 8).ok_or_else(truncated)?;
    let mark = match rased_storage::bytes::read_u64_le(&bytes, 16).ok_or_else(truncated)? {
        NO_MARK => None,
        m => Some(m),
    };
    let count = rased_storage::bytes::read_u64_le(&bytes, 24).ok_or_else(truncated)? as usize;
    let body = bytes.get(CATALOG_HEADER..).ok_or_else(truncated)?;
    if count.checked_mul(ENTRY_BYTES).is_none_or(|need| body.len() < need) {
        return Err(truncated());
    }
    let mut catalog = WordHashMap::with_capacity_and_hasher(count, WordHashState);
    for i in 0..count {
        // A checkpoint holds live bindings only; a tombstone would be a no-op.
        if let (key, Some(loc)) = decode_entry(body, i * ENTRY_BYTES).ok_or_else(truncated)?? {
            catalog.insert(key, loc);
        }
    }
    Ok((catalog, epoch, mark))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;
    use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};

    const UNIT_PUT: u8 = 0;

    impl TemporalIndex {
        /// Write (or supersede) the cube for `period` as a single atomic unit.
        pub(crate) fn put(&self, period: Period, cube: &DataCube) -> Result<(), IndexError> {
            let mut unit = WriteUnit::new(UNIT_PUT, 0, 0);
            self.stage(&mut unit, period, cube)?;
            self.commit_unit(unit)
        }
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn rec(day: &str, country: u16, utype: UpdateType) -> UpdateRecord {
        UpdateRecord {
            element_type: ElementType::Way,
            update_type: utype,
            country: CountryId(country),
            road_type: RoadTypeId(0),
            date: day.parse().unwrap(),
            lat7: 0,
            lon7: 0,
            changeset: ChangesetId(1),
        }
    }

    fn day_cube(schema: CubeSchema, day: &str, n: usize) -> DataCube {
        let records: Vec<UpdateRecord> =
            (0..n).map(|i| rec(day, (i % 4) as u16, UpdateType::Create)).collect();
        DataCube::from_records(schema, &records).unwrap()
    }

    /// A fresh index; the returned [`TempDir`] must outlive it.
    fn index(tag: &str, levels: u8) -> (TempDir, TemporalIndex) {
        let dir = TempDir::new(&format!("index-{tag}"));
        let idx = TemporalIndex::create(
            dir.path(),
            CubeSchema::tiny(),
            levels,
            CacheConfig::disabled(),
            IoCostModel::free(),
        )
        .unwrap();
        (dir, idx)
    }

    #[test]
    fn put_fetch_roundtrip() {
        let (_dir, idx) = index("roundtrip", 4);
        let cube = day_cube(idx.schema(), "2021-05-05", 10);
        idx.put(Period::Day(d("2021-05-05")), &cube).unwrap();
        let (got, outcome) = idx.fetch(Period::Day(d("2021-05-05"))).unwrap().unwrap();
        assert_eq!(*got, cube);
        assert_eq!(outcome, FetchOutcome::Disk);
        assert!(idx.fetch(Period::Day(d("2021-05-06"))).unwrap().is_none());
    }

    #[test]
    fn plain_day_costs_one_write() {
        let (_dir, idx) = index("plain", 4);
        // 2021-06-02 is a Wednesday, mid-month.
        let report = idx.ingest_day(d("2021-06-02"), &day_cube(idx.schema(), "2021-06-02", 5)).unwrap();
        assert_eq!(report.cubes_written, 1);
        assert_eq!(report.cubes_read, 0);
        assert_eq!(report.io.writes, 1);
        assert_eq!(report.io.reads, 0);
    }

    #[test]
    fn week_boundary_builds_weekly_cube() {
        let (_dir, idx) = index("week", 4);
        // Week of Sunday 2021-06-06 .. Saturday 2021-06-12.
        let mut last = MaintenanceReport::default();
        for i in 0..7 {
            let day = d("2021-06-06").add_days(i);
            last = idx.ingest_day(day, &day_cube(idx.schema(), &day.to_string(), 2)).unwrap();
        }
        // Saturday run: 1 daily write + 7 reads + 1 weekly write = 9 ops
        // (the paper quotes ≤ 8 because it reads only the 6 *previous*
        // cubes, reusing the in-memory cube for the day itself; we count
        // conservatively).
        assert_eq!(last.cubes_written, 2);
        assert_eq!(last.cubes_read, 7);
        let week = idx.fetch(Period::Week(d("2021-06-06"))).unwrap().unwrap().0;
        assert_eq!(week.total(), 14);
    }

    #[test]
    fn gap_on_week_closing_day_does_not_lose_data_in_month_roll_up() {
        let (_dir, idx) = index("gapweek", 4);
        // Feb 2021: weeks (Sun..Sat) fully inside are 02-07..13, 14..20,
        // 21..27. Skip Saturday 02-27 — the 02-21 week's roll-up never
        // fires, so the month roll-up (at 02-28) must fall back to that
        // week's daily cubes instead of treating the span as empty.
        let mut day = d("2021-02-01");
        while day <= d("2021-02-28") {
            if day != d("2021-02-27") {
                idx.ingest_day(day, &day_cube(idx.schema(), &day.to_string(), 1)).unwrap();
            }
            day = day.succ();
        }
        assert!(!idx.has(Period::Week(d("2021-02-21"))), "gap day must leave the week unbuilt");
        let month = idx.fetch(Period::Month(2021, 2)).unwrap().unwrap().0;
        assert_eq!(month.total(), 27, "month must include the unrolled week's days");
    }

    #[test]
    fn month_and_year_boundaries_roll_up() {
        let (_dir, idx) = index("year", 4);
        // Ingest all of 2021 with 1 update per day.
        let mut day = d("2021-01-01");
        while day <= d("2021-12-31") {
            idx.ingest_day(day, &day_cube(idx.schema(), &day.to_string(), 1)).unwrap();
            day = day.succ();
        }
        let month = idx.fetch(Period::Month(2021, 2)).unwrap().unwrap().0;
        assert_eq!(month.total(), 28);
        let year = idx.fetch(Period::Year(2021)).unwrap().unwrap().0;
        assert_eq!(year.total(), 365);
        // Consistency: month cubes sum to the year cube.
        let mut sum = DataCube::zeroed(idx.schema());
        for m in 1..=12 {
            sum.merge_from(&idx.fetch(Period::Month(2021, m)).unwrap().unwrap().0).unwrap();
        }
        assert_eq!(sum, *year);
    }

    #[test]
    fn flat_index_skips_roll_ups() {
        let (_dir, idx) = index("flat", 1);
        for i in 0..31 {
            let day = d("2021-01-01").add_days(i);
            let r = idx.ingest_day(day, &day_cube(idx.schema(), &day.to_string(), 1)).unwrap();
            assert_eq!(r.cubes_written, 1, "flat index must never roll up");
        }
        assert!(!idx.has(Period::Week(d("2021-01-03"))));
        assert!(!idx.has(Period::Month(2021, 1)));
        // And putting a coarse cube explicitly is rejected.
        let err = idx.put(Period::Month(2021, 1), &DataCube::zeroed(idx.schema())).unwrap_err();
        assert!(matches!(err, IndexError::LevelDisabled(Granularity::Month)));
    }

    #[test]
    fn mid_period_dataset_start_tolerated() {
        let (_dir, idx) = index("midstart", 4);
        // Start ingesting on Dec 29 (Wednesday); the year boundary roll-up
        // must not fail on the 360 missing days.
        for i in 0..3 {
            let day = d("2021-12-29").add_days(i);
            idx.ingest_day(day, &day_cube(idx.schema(), &day.to_string(), 2)).unwrap();
        }
        let year = idx.fetch(Period::Year(2021)).unwrap().unwrap().0;
        assert_eq!(year.total(), 6);
    }

    #[test]
    fn rebuild_month_refines_update_types() {
        let (_dir, idx) = index("rebuild", 4);
        // Daily ingest: coarse Unclassified updates.
        let schema = idx.schema();
        let mut day = d("2021-03-01");
        while day <= d("2021-03-31") {
            let records =
                vec![rec(&day.to_string(), 0, UpdateType::Unclassified), rec(&day.to_string(), 0, UpdateType::Create)];
            idx.ingest_day(day, &DataCube::from_records(schema, &records).unwrap()).unwrap();
            day = day.succ();
        }
        let month_before = idx.fetch(Period::Month(2021, 3)).unwrap().unwrap().0;
        let un = UpdateType::Unclassified.index();
        assert_eq!(month_before.get(1, 0, 0, un), 31);

        // Monthly crawler: each Unclassified becomes Geometry.
        let mut refined = HashMap::new();
        let mut day = d("2021-03-01");
        while day <= d("2021-03-31") {
            let records =
                vec![rec(&day.to_string(), 0, UpdateType::Geometry), rec(&day.to_string(), 0, UpdateType::Create)];
            refined.insert(day, DataCube::from_records(schema, &records).unwrap());
            day = day.succ();
        }
        idx.rebuild_month(2021, 3, &refined).unwrap();

        let month_after = idx.fetch(Period::Month(2021, 3)).unwrap().unwrap().0;
        assert_eq!(month_after.get(1, 0, 0, un), 0, "unclassified gone");
        assert_eq!(month_after.get(1, 0, 0, UpdateType::Geometry.index()), 31);
        // Totals preserved.
        assert_eq!(month_after.total(), month_before.total());
    }

    #[test]
    fn rebuild_refreshes_straddling_weeks() {
        // Regression: the week of 2021-02-28 covers Mar 1-6; a March
        // rebuild must refresh it even though it is not a child of March,
        // or queries planned through it would see stale coarse counts.
        let (_dir, idx) = index("straddle", 4);
        let schema = idx.schema();
        let mut day = d("2021-02-25");
        while day <= d("2021-03-31") {
            let records = vec![rec(&day.to_string(), 0, UpdateType::Unclassified)];
            idx.ingest_day(day, &DataCube::from_records(schema, &records).unwrap()).unwrap();
            day = day.succ();
        }
        let mut refined = HashMap::new();
        let mut day = d("2021-03-01");
        while day <= d("2021-03-31") {
            let records = vec![rec(&day.to_string(), 0, UpdateType::Geometry)];
            refined.insert(day, DataCube::from_records(schema, &records).unwrap());
            day = day.succ();
        }
        idx.rebuild_month(2021, 3, &refined).unwrap();

        let week = idx.fetch(Period::Week(d("2021-02-28"))).unwrap().unwrap().0;
        let un = UpdateType::Unclassified.index();
        let geo = UpdateType::Geometry.index();
        // Feb 28 stays coarse (its month was not refined); Mar 1-6 refined.
        assert_eq!(week.get(1, 0, 0, un), 1, "Feb 28 still unclassified");
        assert_eq!(week.get(1, 0, 0, geo), 6, "Mar 1-6 refined to geometry");
    }

    #[test]
    fn rebuild_refreshes_year_cube() {
        let (_dir, idx) = index("rebuild-year", 4);
        let schema = idx.schema();
        let mut day = d("2021-01-01");
        while day <= d("2021-12-31") {
            let records = vec![rec(&day.to_string(), 0, UpdateType::Unclassified)];
            idx.ingest_day(day, &DataCube::from_records(schema, &records).unwrap()).unwrap();
            day = day.succ();
        }
        let mut refined = HashMap::new();
        let mut day = d("2021-07-01");
        while day <= d("2021-07-31") {
            let records = vec![rec(&day.to_string(), 0, UpdateType::Metadata)];
            refined.insert(day, DataCube::from_records(schema, &records).unwrap());
            day = day.succ();
        }
        idx.rebuild_month(2021, 7, &refined).unwrap();
        let year = idx.fetch(Period::Year(2021)).unwrap().unwrap().0;
        assert_eq!(year.get(1, 0, 0, UpdateType::Metadata.index()), 31);
        assert_eq!(year.get(1, 0, 0, UpdateType::Unclassified.index()), 365 - 31);
    }

    #[test]
    fn rebuild_month_tombstones_days_dropped_by_refinement() {
        let (_dir, idx) = index("tombstone", 4);
        let schema = idx.schema();
        // Coarse daily ingest: every day of March 2021 has one update.
        let mut day = d("2021-03-01");
        while day <= d("2021-03-31") {
            let records = vec![rec(&day.to_string(), 0, UpdateType::Unclassified)];
            idx.ingest_day(day, &DataCube::from_records(schema, &records).unwrap()).unwrap();
            day = day.succ();
        }
        // The refined crawl keeps everything except Mar 10 and Mar 20 —
        // e.g. their records all turned out to be non-road edits.
        let mut refined = HashMap::new();
        let mut day = d("2021-03-01");
        while day <= d("2021-03-31") {
            if day != d("2021-03-10") && day != d("2021-03-20") {
                let records = vec![rec(&day.to_string(), 0, UpdateType::Geometry)];
                refined.insert(day, DataCube::from_records(schema, &records).unwrap());
            }
            day = day.succ();
        }
        idx.rebuild_month(2021, 3, &refined).unwrap();

        assert!(!idx.has(Period::Day(d("2021-03-10"))), "dropped day must lose its cube");
        assert!(!idx.has(Period::Day(d("2021-03-20"))), "dropped day must lose its cube");
        assert!(idx.has(Period::Day(d("2021-03-11"))));
        // The stale coarse counts must not survive inside any roll-up.
        let month = idx.fetch(Period::Month(2021, 3)).unwrap().unwrap().0;
        assert_eq!(month.total(), 29, "roll-up must exclude the tombstoned days");
        assert_eq!(month.get(1, 0, 0, UpdateType::Unclassified.index()), 0);
        let week = idx.fetch(Period::Week(d("2021-03-07"))).unwrap().unwrap().0;
        assert_eq!(week.total(), 6, "week containing Mar 10 drops its day");
    }

    #[test]
    fn tombstones_survive_wal_replay_and_checkpoint() {
        let dir = TempDir::new("index-tombstone-replay");
        let schema = CubeSchema::tiny();
        let build = |sync: bool| {
            let idx =
                TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap();
            let mut day = d("2021-03-01");
            while day <= d("2021-03-31") {
                let records = vec![rec(&day.to_string(), 0, UpdateType::Unclassified)];
                idx.ingest_day(day, &DataCube::from_records(schema, &records).unwrap()).unwrap();
                day = day.succ();
            }
            let mut refined = HashMap::new();
            refined.insert(
                d("2021-03-05"),
                DataCube::from_records(schema, &[rec("2021-03-05", 0, UpdateType::Geometry)]).unwrap(),
            );
            idx.rebuild_month(2021, 3, &refined).unwrap();
            if sync {
                idx.sync().unwrap();
            }
        };
        for sync in [false, true] {
            // `false`: the tombstones live only in the WAL; `true`: only in
            // the checkpoint (the WAL was reset). Both must reopen to the
            // same single surviving day.
            build(sync);
            let idx = TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                .unwrap();
            assert!(idx.has(Period::Day(d("2021-03-05"))), "sync={sync}");
            assert!(!idx.has(Period::Day(d("2021-03-10"))), "sync={sync}: tombstone must replay");
            assert_eq!(
                idx.fetch(Period::Month(2021, 3)).unwrap().unwrap().0.total(),
                1,
                "sync={sync}"
            );
        }
    }

    #[test]
    fn epoch_is_monotonic_across_restarts() {
        let dir = TempDir::new("index-epoch-mono");
        let schema = CubeSchema::tiny();
        let mut last_epoch = 0;
        for round in 0..3u32 {
            let idx = if round == 0 {
                TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap()
            } else {
                TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap()
            };
            assert_eq!(idx.epoch(), last_epoch, "round {round}: epoch must resume, not reset");
            for i in 0..4 {
                let day = d("2021-01-04").add_days((round * 4 + i) as i32);
                idx.ingest_day(day, &day_cube(schema, &day.to_string(), 1)).unwrap();
            }
            last_epoch = idx.epoch();
            assert_eq!(last_epoch, (round as u64 + 1) * 4);
            // Round 0 crashes dirty (WAL only), later rounds checkpoint:
            // both paths must preserve the epoch.
            if round > 0 {
                idx.sync().unwrap();
            }
        }
    }

    #[test]
    fn durable_mark_survives_replay_and_checkpoint() {
        let dir = TempDir::new("index-mark");
        let schema = CubeSchema::tiny();
        {
            let idx =
                TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap();
            assert_eq!(idx.durable_mark(), Some(0), "a fresh index accounts for no rows");
            idx.ingest_day_marked(d("2021-01-04"), &day_cube(schema, "2021-01-04", 1), 17).unwrap();
            idx.ingest_day_marked(d("2021-01-05"), &day_cube(schema, "2021-01-05", 1), 43).unwrap();
            // A unit without a mark (put / rebuild) must not clobber it.
            idx.put(Period::Day(d("2021-01-06")), &day_cube(schema, "2021-01-06", 1)).unwrap();
            assert_eq!(idx.durable_mark(), Some(43));
            // no sync: the marks live only in the WAL
        }
        {
            let idx =
                TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap();
            assert_eq!(idx.durable_mark(), Some(43), "mark must replay from the WAL");
            idx.sync().unwrap();
        }
        let idx =
            TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
        assert_eq!(idx.durable_mark(), Some(43), "mark must load from the checkpoint");
    }

    #[test]
    fn cache_serves_warm_cubes() {
        let dir = TempDir::new("index-cache");
        let idx = TemporalIndex::create(
            dir.path(),
            CubeSchema::tiny(),
            4,
            CacheConfig { slots: 8 },
            IoCostModel::free(),
        )
        .unwrap();
        for i in 0..10 {
            let day = d("2021-01-01").add_days(i);
            idx.ingest_day(day, &day_cube(idx.schema(), &day.to_string(), 1)).unwrap();
        }
        idx.warm_cache().unwrap();
        // The most recent daily cubes are warm.
        let (_, outcome) = idx.fetch(Period::Day(d("2021-01-10"))).unwrap().unwrap();
        assert_eq!(outcome, FetchOutcome::Cache);
        // An old cube is not.
        let (_, outcome) = idx.fetch(Period::Day(d("2021-01-01"))).unwrap().unwrap();
        assert_eq!(outcome, FetchOutcome::Disk);
    }

    #[test]
    fn put_overwrite_invalidates_cache() {
        let dir = TempDir::new("index-inval");
        let idx = TemporalIndex::create(
            dir.path(),
            CubeSchema::tiny(),
            4,
            CacheConfig { slots: 8 },
            IoCostModel::free(),
        )
        .unwrap();
        let p = Period::Day(d("2021-01-01"));
        idx.put(p, &day_cube(idx.schema(), "2021-01-01", 1)).unwrap();
        idx.warm_cache().unwrap();
        assert!(idx.cache().contains(p));
        idx.put(p, &day_cube(idx.schema(), "2021-01-01", 9)).unwrap();
        assert!(!idx.cache().contains(p), "stale cube must be dropped");
        assert_eq!(idx.fetch(p).unwrap().unwrap().0.total(), 9);
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = TempDir::new("index-persist");
        let schema = CubeSchema::tiny();
        {
            let idx =
                TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap();
            for i in 0..14 {
                let day = d("2021-01-03").add_days(i);
                idx.ingest_day(day, &day_cube(schema, &day.to_string(), 3)).unwrap();
            }
            idx.sync().unwrap();
        }
        let idx =
            TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
        assert!(idx.has(Period::Week(d("2021-01-03"))));
        assert_eq!(idx.fetch(Period::Week(d("2021-01-10"))).unwrap().unwrap().0.total(), 21);
        assert_eq!(idx.coverage(), Some((d("2021-01-03"), d("2021-01-16"))));
    }

    #[test]
    fn open_rejects_corrupt_catalog() {
        let dir = TempDir::new("index-badcat");
        let schema = CubeSchema::tiny();
        {
            let idx =
                TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap();
            idx.sync().unwrap();
        }
        std::fs::write(dir.file("catalog.bin"), b"garbage").unwrap();
        assert!(matches!(
            TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free()),
            Err(IndexError::BadCatalog(_))
        ));
    }

    #[test]
    fn reopen_replays_unsynced_units() {
        // Publication must survive on the WAL alone: no sync() before the
        // handle is dropped (simulating a crash after commits).
        let dir = TempDir::new("index-replay");
        let schema = CubeSchema::tiny();
        {
            let idx =
                TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap();
            for i in 0..10 {
                let day = d("2021-01-03").add_days(i);
                idx.ingest_day(day, &day_cube(schema, &day.to_string(), 2)).unwrap();
            }
        }
        let idx =
            TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
        assert_eq!(idx.coverage(), Some((d("2021-01-03"), d("2021-01-12"))));
        assert!(idx.has(Period::Week(d("2021-01-03"))));
        assert_eq!(idx.fetch(Period::Week(d("2021-01-03"))).unwrap().unwrap().0.total(), 14);
        assert_eq!(idx.epoch(), 10, "epoch resumes at the replayed unit count");
    }

    #[test]
    fn torn_wal_tail_is_discarded_on_open() {
        let dir = TempDir::new("index-torn");
        let schema = CubeSchema::tiny();
        {
            let idx =
                TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap();
            idx.put(Period::Day(d("2021-01-01")), &day_cube(schema, "2021-01-01", 1)).unwrap();
            idx.put(Period::Day(d("2021-01-02")), &day_cube(schema, "2021-01-02", 2)).unwrap();
        }
        // Tear the second unit's record mid-payload.
        let wal_path = dir.file("wal.log");
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let idx =
            TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
        assert!(idx.has(Period::Day(d("2021-01-01"))));
        assert!(!idx.has(Period::Day(d("2021-01-02"))), "torn unit must be rolled back");
        // The tail was truncated: a second reopen sees the same state.
        drop(idx);
        let idx =
            TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
        assert_eq!(idx.cube_count(), 1);
    }

    #[test]
    fn orphan_staged_pages_are_ignored_on_reopen() {
        let dir = TempDir::new("index-orphan");
        let schema = CubeSchema::tiny();
        {
            let idx =
                TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
                    .unwrap();
            idx.put(Period::Day(d("2021-01-01")), &day_cube(schema, "2021-01-01", 1)).unwrap();
            // A staged-but-never-committed record (crash between stage and
            // commit): appended to the file, absent from WAL and catalog.
            // A whole cube's encoding, then a torn one.
            let orphan = day_cube(schema, "2021-01-02", 5).to_bytes();
            idx.file().append(&orphan).unwrap();
            idx.file().append(orphan.get(..orphan.len() / 2).unwrap()).unwrap();
            idx.file().sync().unwrap();
        }
        let idx =
            TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
        assert_eq!(idx.cube_count(), 1, "orphan bytes must not become a cube");
        assert_eq!(idx.fetch(Period::Day(d("2021-01-01"))).unwrap().unwrap().0.total(), 1);
        assert!(!idx.has(Period::Day(d("2021-01-02"))));
        // New records land past the orphans and read back whole.
        let end = idx.storage_bytes();
        idx.put(Period::Day(d("2021-01-02")), &day_cube(schema, "2021-01-02", 3)).unwrap();
        assert_eq!(idx.snapshot().page(Period::Day(d("2021-01-02"))), Some(PageId(end)));
        assert_eq!(idx.fetch(Period::Day(d("2021-01-02"))).unwrap().unwrap().0.total(), 3);
    }

    #[test]
    fn snapshot_pins_pre_publish_version() {
        let (_dir, idx) = index("snap", 4);
        let p = Period::Day(d("2021-01-01"));
        idx.put(p, &day_cube(idx.schema(), "2021-01-01", 3)).unwrap();
        let snap = idx.snapshot();
        idx.put(p, &day_cube(idx.schema(), "2021-01-01", 8)).unwrap();
        let old = idx.fetch_at(&snap, p).unwrap().unwrap().0;
        assert_eq!(old.total(), 3, "pinned snapshot must keep seeing its version");
        let new = idx.fetch(p).unwrap().unwrap().0;
        assert_eq!(new.total(), 8);
        assert!(idx.epoch() > snap.epoch());
    }

    #[test]
    fn open_rejects_an_older_store_version() {
        let dir = TempDir::new("index-v3");
        let schema = CubeSchema::tiny();
        TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
            .unwrap();
        // A hand-written v3 checkpoint: epoch 7, no mark, one 21-byte entry
        // (granularity, a, b, region, page) with no length field.
        let mut v3 = b"RASEDCT3".to_vec();
        for field in [7u64, u64::MAX, 1] {
            v3.extend_from_slice(&field.to_le_bytes());
        }
        v3.push(0);
        v3.extend_from_slice(&d("2021-01-01").days().to_le_bytes());
        v3.extend_from_slice(&[0; 8]);
        v3.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(dir.file("catalog.bin"), v3).unwrap();
        match TemporalIndex::open(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free()) {
            Err(IndexError::StoreVersion { found: 3, expected: 5 }) => {}
            other => panic!("expected a store-version error, got {other:?}"),
        }
    }

    #[test]
    fn a_miss_reads_exactly_the_stored_bytes() {
        let dir = TempDir::new("index-exact");
        let model = IoCostModel { seek_micros: 10, bytes_per_sec: 1_000_000 };
        let schema = CubeSchema::tiny();
        let idx = TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), model).unwrap();
        let p = Period::Day(d("2021-01-01"));
        let cube = day_cube(schema, "2021-01-01", 6);
        idx.put(p, &cube).unwrap();
        let stored = cube.to_bytes().len() as u64;
        assert!(stored < schema.cube_bytes() as u64, "four non-zero cells store sparse");
        assert_eq!(idx.storage_bytes(), stored, "the record file holds the encoding and nothing else");
        let before = idx.file().stats().snapshot();
        let sel = DimSelection::all(schema);
        let mut total = 0;
        let outcome = idx.fold_at(&idx.snapshot(), p, &sel, |_, _, _, _, v| total += v).unwrap();
        assert_eq!((outcome, total), (Some(FetchOutcome::Disk), 6));
        assert_eq!(*idx.fetch(p).unwrap().unwrap().0, cube);
        let io = idx.file().stats().snapshot().since(&before);
        assert_eq!((io.reads, io.bytes_read), (2, 2 * stored));
        assert_eq!(io.modeled, model.cost(stored) * 2, "one seek plus the stored bytes, per read");
    }

    /// N threads miss one cold page together: one physical read, and every
    /// thread folds the leader's bytes into the oracle's answer. The test
    /// thread leads the flight and reads only once all N have joined it.
    #[test]
    fn a_cold_stampede_reads_once_and_every_fold_is_exact() {
        const N: usize = 6;
        let (_dir, idx) = index("stampede", 4);
        let schema = idx.schema();
        let p = Period::Day(d("2021-01-01"));
        let cube = day_cube(schema, "2021-01-01", 9);
        idx.put(p, &cube).unwrap();
        let snap = idx.snapshot();
        let sel = DimSelection::all(schema).with_countries(&[CountryId(1), CountryId(2)]);
        let mut want = Vec::new();
        cube.for_each_selected(&sel, |et, c, r, u, v| want.push((et, c, r, u, v)));
        let loc = snap.loc(CubeKey::world(p)).unwrap();
        let before = idx.file().stats().snapshot();
        let barrier = std::sync::Barrier::new(N + 1);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                idx.flights.run(loc.at.0, || {
                    // Registered before anyone passes the barrier; held
                    // open until every follower has joined (bounded, so a
                    // miss path that never joins fails instead of hanging).
                    barrier.wait();
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while idx.flights.followers(&loc.at.0) < N && std::time::Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    idx.read_exact(loc).map(Arc::from)
                })
            });
            let followers: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let mut got = Vec::new();
                        let outcome = idx
                            .fold_at(&snap, p, &sel, |et, c, r, u, v| got.push((et, c, r, u, v)))
                            .unwrap();
                        (outcome, got)
                    })
                })
                .collect();
            leader.join().unwrap().unwrap();
            for f in followers {
                assert_eq!(f.join().unwrap(), (Some(FetchOutcome::Disk), want.clone()));
            }
        });
        assert_eq!(idx.file().stats().snapshot().since(&before).reads, 1, "one read for the stampede");
    }

    #[test]
    fn publish_counts_units_and_invalidations() {
        let (_dir, idx) = index("counters", 4);
        let p = Period::Day(d("2021-01-01"));
        idx.put(p, &day_cube(idx.schema(), "2021-01-01", 1)).unwrap();
        assert_eq!((idx.published_units(), idx.invalidations()), (1, 0));
        idx.put(p, &day_cube(idx.schema(), "2021-01-01", 2)).unwrap();
        assert_eq!(idx.published_units(), 2);
        assert_eq!(idx.invalidations(), 1, "one replaced binding, one invalidation");
    }
}
