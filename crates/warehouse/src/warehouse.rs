//! [`Warehouse`]: the indexed UpdateList table for sample queries.

use crate::heap::{HeapFile, RowId};
use rased_geo::{BBox, GridIndex, Point};
use rased_osm_model::{ChangesetId, UpdateRecord};
use rased_storage::sync::{Mutex, RwLock};
use rased_storage::{DiskHashIndex, IoCostModel, IoSnapshot, StorageError};
use std::fmt;
use std::path::{Path, PathBuf};

/// Warehouse-level error.
#[derive(Debug)]
pub enum WarehouseError {
    Storage(StorageError),
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WarehouseError {}

impl From<StorageError> for WarehouseError {
    fn from(e: StorageError) -> Self {
        WarehouseError::Storage(e)
    }
}

/// The sample-update warehouse: heap file + hash index on `ChangesetID` +
/// grid spatial index on (lat, lon), exactly the two indexes §VI-B calls
/// for.
///
/// The changeset index is a persistent extendible hash
/// ([`DiskHashIndex`]) — reopening never rescans the heap for it. The
/// spatial grid is memory-resident and rebuilt with one heap scan on open
/// (its cells are position-derived, so persistence would only save that
/// single scan).
///
/// All methods take `&self`: the streaming write path appends rows while
/// sample queries run. Each component sits behind its own lock, and
/// [`Warehouse::insert`] takes them one at a time — a concurrent reader can
/// briefly see a row in the heap that the indexes don't reference yet
/// (sampling is best-effort by contract), but never a dangling index entry.
/// Lock order where nesting is unavoidable: `spatial` before `heap`
/// ([`Warehouse::sample_region_filtered`] resolves rows while walking grid
/// cells); ranks live in `lint.toml`.
pub struct Warehouse {
    /// Heap path; the changeset index lives in `.hx`/`.dir` sidecars.
    /// Kept so [`Warehouse::truncate_rows`] can recreate the sidecars.
    path: PathBuf,
    model: IoCostModel,
    heap: Mutex<HeapFile>,
    by_changeset: Mutex<DiskHashIndex>,
    spatial: RwLock<GridIndex<RowId>>,
}

impl fmt::Debug for Warehouse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Warehouse")
            .field("rows", &self.heap.lock().row_count())
            .finish_non_exhaustive()
    }
}

impl Warehouse {
    /// Create a fresh warehouse at `path` (plus `path.hx`/`.dir` sidecars
    /// for the changeset hash index).
    pub fn create(path: &Path, model: IoCostModel, pool_pages: usize) -> Result<Warehouse, WarehouseError> {
        Ok(Warehouse {
            path: path.to_path_buf(),
            model,
            heap: Mutex::new_named(HeapFile::create(path, model, pool_pages)?, "warehouse.heap"),
            by_changeset: Mutex::new_named(
                DiskHashIndex::create(&path.with_extension("hx"), model)?,
                "warehouse.by_changeset",
            ),
            spatial: RwLock::new_named(GridIndex::world_default(), "warehouse.spatial"),
        })
    }

    /// Reopen an existing warehouse: the persistent changeset index opens
    /// directly; the spatial grid is rebuilt with one scan. The changeset
    /// index's directory sidecar is rewritten in place on every flush, so
    /// a crash can leave it torn or behind the heap: when it does not open,
    /// or counts other than the heap's rows, the index is rebuilt from
    /// that same scan.
    pub fn open(path: &Path, model: IoCostModel, pool_pages: usize) -> Result<Warehouse, WarehouseError> {
        let heap = HeapFile::open(path, model, pool_pages)?;
        let hx = path.with_extension("hx");
        let kept = DiskHashIndex::open(&hx, model).ok().filter(|ix| ix.len() == heap.row_count());
        let (by_changeset, spatial) = match kept {
            Some(ix) => (ix, index_rows(&heap, None)?),
            None => {
                let mut fresh = DiskHashIndex::create(&hx, model)?;
                let grid = index_rows(&heap, Some(&mut fresh))?;
                fresh.sync()?;
                (fresh, grid)
            }
        };
        Ok(Warehouse {
            path: path.to_path_buf(),
            model,
            heap: Mutex::new_named(heap, "warehouse.heap"),
            by_changeset: Mutex::new_named(by_changeset, "warehouse.by_changeset"),
            spatial: RwLock::new_named(spatial, "warehouse.spatial"),
        })
    }

    /// Drop every row at or beyond `keep` and rebuild both indexes from
    /// the surviving heap, returning the number of rows dropped (0 is a
    /// no-op that touches nothing). Two callers, both rare: crash repair
    /// on open (trim back to the durable watermark the cube index
    /// recorded) and the ingest write path rolling back a day whose
    /// publish failed. The trimmed heap is flushed before this returns,
    /// so the repair itself survives a second crash.
    ///
    /// The changeset hash index has no delete path, so it is recreated
    /// from one heap scan; the spatial grid is rebuilt the same way. The
    /// heap and by_changeset locks are held across the rebuild (upward
    /// order); the spatial grid is swapped in afterwards under a short
    /// write guard — no I/O while readers are held off. In the gap a
    /// region sample may return a stale `RowId` past the cut, which the
    /// heap resolves to `None` (sampling is best-effort by contract); both
    /// callers run on the single writer path, so no insert races the swap.
    pub fn truncate_rows(&self, keep: u64) -> Result<u64, WarehouseError> {
        let (dropped, grid) = {
            let mut heap = self.heap.lock();
            let before = heap.row_count();
            if keep >= before {
                return Ok(0);
            }
            heap.truncate_rows(keep)?;
            heap.flush()?;
            let mut by_changeset = self.by_changeset.lock();
            let mut fresh = DiskHashIndex::create(&self.path.with_extension("hx"), self.model)?;
            let grid = index_rows(&heap, Some(&mut fresh))?;
            fresh.sync()?;
            *by_changeset = fresh;
            (before - keep, grid)
        };
        *self.spatial.write() = grid;
        Ok(dropped)
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.heap.lock().row_count()
    }

    /// Physical I/O counters of the backing heap file — reads that missed
    /// the buffer pool, with their modeled latency. Lets callers charge
    /// warehouse scans the same way index cube fetches are charged.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.heap.lock().file().stats().snapshot()
    }

    /// Visit every row in append order (the row-scan access path; also how
    /// the system recounts network sizes on reopen). Holds the heap lock for
    /// the whole scan — appends wait, readers of the indexes do not.
    pub fn scan(&self, visit: impl FnMut(RowId, &UpdateRecord)) -> Result<(), WarehouseError> {
        Ok(self.heap.lock().scan(visit)?)
    }

    /// Insert one update record. Each lock is taken and released in turn —
    /// never nested, so the write path cannot rank against the read paths.
    pub fn insert(&self, record: &UpdateRecord) -> Result<RowId, WarehouseError> {
        let rid = {
            let mut heap = self.heap.lock();
            heap.append(record)?
        };
        {
            let mut by_changeset = self.by_changeset.lock();
            by_changeset.insert(record.changeset.raw(), rid.0)?;
        }
        self.spatial.write().insert(Point::new(record.lat7, record.lon7), rid);
        Ok(rid)
    }

    /// Bulk insert. One heap-lock acquisition for the rows, then the
    /// indexes; a reader interleaving with the batch sees a prefix.
    pub fn insert_batch<'a>(
        &self,
        records: impl IntoIterator<Item = &'a UpdateRecord>,
    ) -> Result<u64, WarehouseError> {
        let mut n = 0u64;
        let mut rids = Vec::new();
        {
            let mut heap = self.heap.lock();
            for r in records {
                rids.push((heap.append(r)?, r.changeset.raw(), Point::new(r.lat7, r.lon7)));
                n += 1;
            }
        }
        {
            let mut by_changeset = self.by_changeset.lock();
            for &(rid, cs, _) in &rids {
                by_changeset.insert(cs, rid.0)?;
            }
        }
        let mut spatial = self.spatial.write();
        for &(rid, _, p) in &rids {
            spatial.insert(p, rid);
        }
        Ok(n)
    }

    /// Rewrite stored rows' update types from refined records (monthly
    /// refinement, §V): each refined record upgrades one stored row with
    /// the same identity — everything but the update type. Rows the
    /// refinement does not mention keep their daily-crawl types, refined
    /// records matching no row are dropped, and re-running with the same
    /// input is a no-op (the multiset of types per identity is unchanged).
    /// Identity never moves a row spatially or across changesets, so the
    /// grid and hash indexes stay valid untouched. Returns the number of
    /// rows rewritten.
    pub fn refine_types(&self, refined: &[UpdateRecord]) -> Result<usize, WarehouseError> {
        use rased_osm_model::UpdateType;
        type Ident = (
            rased_temporal::Date,
            ChangesetId,
            rased_osm_model::ElementType,
            rased_osm_model::CountryId,
            rased_osm_model::RoadTypeId,
            i32,
            i32,
        );
        fn ident(r: &UpdateRecord) -> Ident {
            (r.date, r.changeset, r.element_type, r.country, r.road_type, r.lat7, r.lon7)
        }
        let mut pool: std::collections::HashMap<Ident, Vec<UpdateType>> =
            std::collections::HashMap::new();
        for r in refined {
            pool.entry(ident(r)).or_default().push(r.update_type);
        }
        let mut heap = self.heap.lock();
        let mut changes: Vec<(RowId, UpdateRecord)> = Vec::new();
        heap.scan(|rid, r| {
            if let Some(types) = pool.get_mut(&ident(r)) {
                if let Some(t) = types.pop() {
                    if t != r.update_type {
                        let mut nr = *r;
                        nr.update_type = t;
                        changes.push((rid, nr));
                    }
                }
            }
        })?;
        Ok(heap.rewrite(&changes)?)
    }

    /// Persist buffered rows and the changeset index directory.
    pub fn flush(&self) -> Result<(), WarehouseError> {
        self.heap.lock().flush()?;
        self.by_changeset.lock().sync()?;
        Ok(())
    }

    /// All updates of one changeset (hash-index lookup; §IV-B uses this to
    /// hand a sample off to a changeset viewer).
    pub fn by_changeset(&self, id: ChangesetId) -> Result<Vec<UpdateRecord>, WarehouseError> {
        let rids = {
            let by_changeset = self.by_changeset.lock();
            by_changeset.get(id.raw())?
        };
        let mut out = Vec::with_capacity(rids.len());
        let heap = self.heap.lock();
        for rid in rids {
            if let Some(rec) = heap.get(RowId(rid))? {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Up to `limit` updates inside a region (spatial-index lookup) — the
    /// sample-update query with its default N = 100.
    pub fn sample_region(&self, bbox: &BBox, limit: usize) -> Result<Vec<UpdateRecord>, WarehouseError> {
        let rids = self.spatial.read().sample(bbox, limit);
        let mut out = Vec::with_capacity(rids.len());
        let heap = self.heap.lock();
        for rid in rids {
            if let Some(rec) = heap.get(rid)? {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Visit *every* row inside a region (spatial-index walk, no limit) —
    /// unlike the samplers, this is exhaustive: the viewport analysis
    /// path's scan fallback, exact for cells the spatial bank has not
    /// materialized. Same lock order as
    /// [`Warehouse::sample_region_filtered`]: `spatial` before `heap`.
    pub fn scan_region(
        &self,
        bbox: &BBox,
        mut visit: impl FnMut(&UpdateRecord),
    ) -> Result<(), WarehouseError> {
        let mut err: Option<StorageError> = None;
        let spatial = self.spatial.read();
        let heap = self.heap.lock();
        spatial.query(bbox, &mut |_, rid| {
            if err.is_some() {
                return;
            }
            match heap.get(*rid) {
                Ok(Some(rec)) => visit(&rec),
                Ok(None) => {}
                Err(e) => err = Some(e),
            }
        });
        match err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Up to `limit` updates inside a region that also satisfy `pred` —
    /// sampling scoped to an analysis query's filters.
    pub fn sample_region_filtered(
        &self,
        bbox: &BBox,
        limit: usize,
        mut pred: impl FnMut(&UpdateRecord) -> bool,
    ) -> Result<Vec<UpdateRecord>, WarehouseError> {
        let mut out = Vec::new();
        let mut err: Option<StorageError> = None;
        // Nested acquisition: grid cells are walked under the spatial read
        // guard while rows resolve through the heap — "warehouse:spatial"
        // ranks below "warehouse:heap" for exactly this path.
        let spatial = self.spatial.read();
        let heap = self.heap.lock();
        spatial.query(bbox, &mut |_, rid| {
            if out.len() >= limit || err.is_some() {
                return;
            }
            match heap.get(*rid) {
                Ok(Some(rec)) if pred(&rec) => out.push(rec),
                Ok(_) => {}
                Err(e) => err = Some(e),
            }
        });
        match err {
            Some(e) => Err(e.into()),
            None => Ok(out),
        }
    }
}

/// One heap scan into a fresh spatial grid, also inserting every row into
/// `by_changeset` when one is given (an index being rebuilt).
fn index_rows(
    heap: &HeapFile,
    mut by_changeset: Option<&mut DiskHashIndex>,
) -> Result<GridIndex<RowId>, WarehouseError> {
    let mut grid = GridIndex::world_default();
    let mut err: Option<StorageError> = None;
    heap.scan(|rid, rec| {
        if err.is_some() {
            return;
        }
        if let Some(ix) = by_changeset.as_deref_mut() {
            if let Err(e) = ix.insert(rec.changeset.raw(), rid.0) {
                err = Some(e);
                return;
            }
        }
        grid.insert(Point::new(rec.lat7, rec.lon7), rid);
    })?;
    match err {
        Some(e) => Err(e.into()),
        None => Ok(grid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;
    use rased_osm_model::{CountryId, ElementType, RoadTypeId, UpdateType};

    fn rec(i: u64, lat7: i32, lon7: i32) -> UpdateRecord {
        UpdateRecord {
            element_type: ElementType::Way,
            update_type: UpdateType::Create,
            country: CountryId((i % 5) as u16),
            road_type: RoadTypeId(0),
            date: rased_temporal::Date::from_days(18_000),
            lat7,
            lon7,
            changeset: ChangesetId(i / 3 + 1), // three updates per changeset
        }
    }

    /// A warehouse of `n` rows; the returned [`TempDir`] must outlive it.
    fn filled(tag: &str, n: u64) -> (TempDir, Warehouse) {
        let dir = TempDir::new(&format!("wh-{tag}"));
        let w = Warehouse::create(&dir.file("wh.pg"), IoCostModel::free(), 16).unwrap();
        for i in 0..n {
            let lat = (i as i32 % 1_000) * 100_000; // 0°..~10° in 0.01° steps
            let lon = (i as i32 % 500) * 200_000;
            w.insert(&rec(i, lat, lon)).unwrap();
        }
        (dir, w)
    }

    #[test]
    fn changeset_lookup() {
        let (_dir, w) = filled("changeset", 30);
        let got = w.by_changeset(ChangesetId(2)).unwrap();
        assert_eq!(got.len(), 3, "changeset 2 holds updates 3,4,5");
        assert!(got.iter().all(|r| r.changeset == ChangesetId(2)));
        assert!(w.by_changeset(ChangesetId(999)).unwrap().is_empty());
    }

    #[test]
    fn refine_types_upgrades_matching_rows_in_place() {
        let (_dir, w) = filled("refine", 700); // spans disk pages + in-memory tail
        // Refine every third row to Geometry; identity fields unchanged.
        let refined: Vec<UpdateRecord> = (0..700u64)
            .filter(|i| i % 3 == 0)
            .map(|i| {
                let lat = (i as i32 % 1_000) * 100_000;
                let lon = (i as i32 % 500) * 200_000;
                UpdateRecord { update_type: UpdateType::Geometry, ..rec(i, lat, lon) }
            })
            .collect();
        let n = w.refine_types(&refined).unwrap();
        assert_eq!(n, refined.len());
        let mut geometry = 0usize;
        let mut create = 0usize;
        w.scan(|_, r| match r.update_type {
            UpdateType::Geometry => geometry += 1,
            UpdateType::Create => create += 1,
            _ => unreachable!("no other type was written"),
        })
        .unwrap();
        assert_eq!((geometry, create), (refined.len(), 700 - refined.len()));
        // Indexes still resolve the rewritten rows, with the new type.
        let got = w.by_changeset(ChangesetId(1)).unwrap(); // updates 0,1,2
        assert_eq!(got.iter().filter(|r| r.update_type == UpdateType::Geometry).count(), 1);
        // Idempotent: a second run changes nothing.
        assert_eq!(w.refine_types(&refined).unwrap(), 0);
        // Refined records with no matching row are dropped.
        let stranger = UpdateRecord {
            changeset: ChangesetId(9_999_999),
            ..rec(0, 1, 1)
        };
        assert_eq!(w.refine_types(&[stranger]).unwrap(), 0);
        // And everything survives flush + reopen.
        w.flush().unwrap();
        let path = w.path.clone();
        drop(w);
        let w2 = Warehouse::open(&path, IoCostModel::free(), 16).unwrap();
        let mut geometry2 = 0usize;
        w2.scan(|_, r| {
            if r.update_type == UpdateType::Geometry {
                geometry2 += 1;
            }
        })
        .unwrap();
        assert_eq!(geometry2, geometry);
    }

    #[test]
    fn region_sampling_respects_limit_and_bbox() {
        let (_dir, w) = filled("region", 2000);
        let bbox = BBox::from_deg(0.0, 0.0, 5.0, 5.0);
        let sample = w.sample_region(&bbox, 100).unwrap();
        assert_eq!(sample.len(), 100, "default N = 100");
        for r in &sample {
            assert!(bbox.contains(Point::new(r.lat7, r.lon7)));
        }
        // A region with nothing in it.
        let empty = w.sample_region(&BBox::from_deg(-80.0, -170.0, -75.0, -160.0), 100).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn scan_region_is_exhaustive() {
        let (_dir, w) = filled("scanregion", 2000);
        let bbox = BBox::from_deg(0.0, 0.0, 5.0, 5.0);
        let mut via_scan = 0u64;
        w.scan_region(&bbox, |r| {
            assert!(bbox.contains(Point::new(r.lat7, r.lon7)));
            via_scan += 1;
        })
        .unwrap();
        // Oracle: full heap scan with the same containment predicate.
        let mut want = 0u64;
        w.scan(|_, r| {
            if bbox.contains(Point::new(r.lat7, r.lon7)) {
                want += 1;
            }
        })
        .unwrap();
        assert_eq!(via_scan, want);
        assert!(via_scan > 100, "must exceed any sampler limit to prove exhaustiveness");
    }

    #[test]
    fn filtered_sampling() {
        let (_dir, w) = filled("filtered", 500);
        let bbox = BBox::world();
        let only_c2 = w
            .sample_region_filtered(&bbox, 50, |r| r.country == CountryId(2))
            .unwrap();
        assert!(!only_c2.is_empty());
        assert!(only_c2.len() <= 50);
        assert!(only_c2.iter().all(|r| r.country == CountryId(2)));
    }

    #[test]
    fn truncate_rows_rebuilds_both_indexes_without_duplicates() {
        let dir = TempDir::new("wh-truncate");
        let path = dir.file("wh.pg");
        let w = Warehouse::create(&path, IoCostModel::free(), 16).unwrap();
        for i in 0..60 {
            w.insert(&rec(i, 10_000_000 + i as i32, 20_000_000)).unwrap();
        }
        w.flush().unwrap();
        // Drop the last 30 rows (changesets 11..=20, since rec groups 3
        // updates per changeset).
        assert_eq!(w.truncate_rows(30).unwrap(), 30);
        assert_eq!(w.row_count(), 30);
        assert_eq!(w.by_changeset(ChangesetId(10)).unwrap().len(), 3);
        assert!(w.by_changeset(ChangesetId(11)).unwrap().is_empty(), "dropped rows must leave the hash index");
        assert_eq!(w.sample_region(&BBox::world(), 1000).unwrap().len(), 30);
        // Re-inserting the same rows (the re-enqueue path) must not
        // produce duplicate index entries for reused row ids.
        for i in 30..60 {
            w.insert(&rec(i, 10_000_000 + i as i32, 20_000_000)).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(w.by_changeset(ChangesetId(11)).unwrap().len(), 3);
        assert_eq!(w.sample_region(&BBox::world(), 1000).unwrap().len(), 60);
        // The repair state is durable: reopen sees the same picture.
        drop(w);
        let w = Warehouse::open(&path, IoCostModel::free(), 16).unwrap();
        assert_eq!(w.row_count(), 60);
        assert_eq!(w.by_changeset(ChangesetId(15)).unwrap().len(), 3);
        // Truncating past the end is a no-op.
        assert_eq!(w.truncate_rows(1000).unwrap(), 0);
    }

    /// The changeset index's directory sidecar is rewritten in place, so a
    /// crash can leave any prefix of it. Cut it at every byte: the
    /// warehouse still opens, and every changeset lookup equals a heap
    /// scan.
    #[test]
    fn a_torn_changeset_directory_is_rebuilt_on_open() {
        let dir = TempDir::new("wh-torn-dir");
        let path = dir.file("wh.pg");
        {
            let w = Warehouse::create(&path, IoCostModel::free(), 16).unwrap();
            for i in 0..900 {
                w.insert(&rec(i, 10_000_000 + i as i32, 20_000_000)).unwrap();
            }
            w.flush().unwrap();
        }
        let sidecar = path.with_extension("dir");
        let whole = std::fs::read(&sidecar).unwrap();
        assert!(whole.len() > 17 + 8, "900 rows split the directory past one slot");
        let pristine: Vec<(std::path::PathBuf, Vec<u8>)> = ["pg", "hx", "dir"]
            .iter()
            .map(|ext| {
                let p = path.with_extension(ext);
                let bytes = std::fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        for cut in 0..=whole.len() {
            for (p, bytes) in &pristine {
                std::fs::write(p, bytes).unwrap();
            }
            std::fs::write(&sidecar, &whole[..cut]).unwrap();
            let w = Warehouse::open(&path, IoCostModel::free(), 16)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: open failed: {e}"));
            let mut oracle: std::collections::BTreeMap<ChangesetId, Vec<UpdateRecord>> =
                std::collections::BTreeMap::new();
            w.scan(|_, r| oracle.entry(r.changeset).or_default().push(*r)).unwrap();
            assert_eq!(oracle.values().map(Vec::len).sum::<usize>(), 900);
            for (cs, want) in &oracle {
                let mut got = w.by_changeset(*cs).unwrap();
                got.sort_by_key(|r| r.lat7);
                assert_eq!(&got, want, "cut at byte {cut}: changeset {cs:?} diverges from the heap");
            }
        }
    }

    #[test]
    fn reopen_rebuilds_indexes() {
        let dir = TempDir::new("wh-reopen");
        let path = dir.file("wh.pg");
        {
            let w = Warehouse::create(&path, IoCostModel::free(), 16).unwrap();
            for i in 0..100 {
                w.insert(&rec(i, 10_000_000 + i as i32, 20_000_000)).unwrap();
            }
            w.flush().unwrap();
        }
        let w = Warehouse::open(&path, IoCostModel::free(), 16).unwrap();
        assert_eq!(w.row_count(), 100);
        assert_eq!(w.by_changeset(ChangesetId(1)).unwrap().len(), 3);
        let all = w.sample_region(&BBox::world(), 1000).unwrap();
        assert_eq!(all.len(), 100);
    }
}
