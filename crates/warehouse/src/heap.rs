//! [`HeapFile`]: fixed-width update records packed into 8 KB pages.

use rased_osm_model::{UpdateRecord, UPDATE_RECORD_BYTES};
use rased_storage::{BufferPool, IoCostModel, PageFile, PageId, StorageError};
use std::path::Path;
use std::sync::Arc;

/// Heap page size. 8 KB matches the PostgreSQL default, which matters for
/// the Fig. 10 comparison: the baseline scans the same pages a real DBMS
/// would.
pub const HEAP_PAGE_BYTES: usize = 8192;

/// Records per page (full records only; the page tail is padding).
pub(crate) const ROWS_PER_PAGE: usize = HEAP_PAGE_BYTES / UPDATE_RECORD_BYTES;

/// Ordinal of a row in the heap (dense, append-order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl RowId {
    fn page(self) -> PageId {
        PageId(self.0 / ROWS_PER_PAGE as u64)
    }

    fn slot(self) -> usize {
        (self.0 % ROWS_PER_PAGE as u64) as usize
    }
}

/// An append-only heap file of [`UpdateRecord`]s.
///
/// Appends accumulate in an in-memory tail page that is written once when
/// full (bulk loads cost one physical write per page, not per row). Call
/// [`HeapFile::flush`] before dropping to persist a partial tail — rows in
/// an unflushed tail are lost on reopen.
pub struct HeapFile {
    file: Arc<PageFile>,
    pool: BufferPool,
    row_count: u64,
    tail: Vec<u8>,
    tail_rows: usize,
    /// True when the current partial tail has been written to disk (so the
    /// next flush overwrites instead of appending).
    tail_on_disk: bool,
}

impl HeapFile {
    /// Create a fresh heap file; `pool_pages` sizes the read cache.
    pub fn create(path: &Path, model: IoCostModel, pool_pages: usize) -> Result<HeapFile, StorageError> {
        let file = Arc::new(PageFile::create(path, HEAP_PAGE_BYTES, model)?);
        Ok(HeapFile {
            pool: BufferPool::new(Arc::clone(&file), pool_pages),
            file,
            row_count: 0,
            tail: vec![0u8; HEAP_PAGE_BYTES],
            tail_rows: 0,
            tail_on_disk: false,
        })
    }

    /// Reopen an existing heap file. The row count is derived from the page
    /// count and a scan of the final page (a slot of zero bytes decodes to
    /// a row with changeset 0 — a pattern real rows cannot produce because
    /// changeset ids start at 1).
    pub fn open(path: &Path, model: IoCostModel, pool_pages: usize) -> Result<HeapFile, StorageError> {
        let file = Arc::new(PageFile::open(path, model)?);
        let pages = file.page_count();
        let mut row_count = 0u64;
        let mut tail = vec![0u8; HEAP_PAGE_BYTES];
        let mut tail_rows = 0usize;
        let mut tail_on_disk = false;
        if pages > 0 {
            let last = PageId(pages - 1);
            let data = file.read_page_vec(last)?;
            let used = data
                .chunks_exact(UPDATE_RECORD_BYTES)
                .take(ROWS_PER_PAGE)
                .take_while(|record| record.iter().any(|&b| b != 0))
                .count();
            row_count = (pages - 1) * ROWS_PER_PAGE as u64 + used as u64;
            if used < ROWS_PER_PAGE {
                // Partial tail: keep editing it in memory.
                tail.copy_from_slice(&data);
                tail_rows = used;
                tail_on_disk = true;
            }
        }
        Ok(HeapFile {
            pool: BufferPool::new(Arc::clone(&file), pool_pages),
            file,
            row_count,
            tail,
            tail_rows,
            tail_on_disk,
        })
    }

    /// Number of rows stored (including unflushed tail rows).
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Number of pages on disk.
    pub fn page_count(&self) -> u64 {
        self.file.page_count()
    }

    /// The backing page file (I/O stats live there).
    pub fn file(&self) -> &Arc<PageFile> {
        &self.file
    }

    /// The read cache.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// First row held in the in-memory tail buffer.
    fn tail_first_row(&self) -> u64 {
        self.row_count - self.tail_rows as u64
    }

    /// Append one record, returning its row id.
    pub fn append(&mut self, record: &UpdateRecord) -> Result<RowId, StorageError> {
        let rid = RowId(self.row_count);
        // The tail is flushed the moment it fills, so a free slot exists
        // unless the tail buffer is not page-sized.
        let Some(slot) = self.tail.chunks_exact_mut(UPDATE_RECORD_BYTES).nth(self.tail_rows) else {
            return Err(StorageError::WrongBufferSize { expected: HEAP_PAGE_BYTES, got: self.tail.len() });
        };
        slot.copy_from_slice(&record.encode());
        self.tail_rows += 1;
        self.row_count += 1;
        if self.tail_rows == ROWS_PER_PAGE {
            self.write_tail()?;
            self.tail.fill(0);
            self.tail_rows = 0;
            self.tail_on_disk = false;
        }
        Ok(rid)
    }

    fn write_tail(&mut self) -> Result<(), StorageError> {
        if self.tail_on_disk {
            let page = PageId(self.file.page_count() - 1);
            self.file.write_page(page, &self.tail)?;
        } else {
            self.file.append_page(&self.tail)?;
            self.tail_on_disk = true;
        }
        Ok(())
    }

    /// Persist a partial tail page (no-op when the tail is empty or full
    /// pages were already written).
    pub fn flush(&mut self) -> Result<(), StorageError> {
        if self.tail_rows > 0 {
            self.write_tail()?;
        }
        self.file.sync()
    }

    /// Drop every row at or beyond `keep` (no-op when `keep >= row_count`).
    /// The crash-repair path: the warehouse is trimmed back to the durable
    /// watermark recorded with the last committed cube unit. If the cut
    /// lands mid-page, the boundary page's surviving prefix becomes the
    /// in-memory tail again (call [`HeapFile::flush`] to persist it); the
    /// read cache is cleared because page ids past the cut get reused.
    pub fn truncate_rows(&mut self, keep: u64) -> Result<(), StorageError> {
        if keep >= self.row_count {
            return Ok(());
        }
        let keep_full_pages = keep / ROWS_PER_PAGE as u64;
        let rem = (keep % ROWS_PER_PAGE as u64) as usize;
        let mut new_tail = vec![0u8; HEAP_PAGE_BYTES];
        if rem > 0 {
            // The boundary page starts at a page-aligned row, so it is
            // either the current in-memory tail or a full page on disk.
            let src = if keep_full_pages * ROWS_PER_PAGE as u64 == self.tail_first_row() {
                std::mem::take(&mut self.tail)
            } else {
                self.file.read_page_vec(PageId(keep_full_pages))?
            };
            let prefix = rem * UPDATE_RECORD_BYTES;
            for (d, s) in new_tail.iter_mut().zip(src.iter()).take(prefix) {
                *d = *s;
            }
        }
        self.file.truncate_pages(keep_full_pages)?;
        self.pool.clear();
        self.tail = new_tail;
        self.tail_rows = rem;
        self.tail_on_disk = false;
        self.row_count = keep;
        Ok(())
    }

    /// Overwrite existing rows in place. Batched: one read-modify-write
    /// per touched disk page; tail rows are patched in memory (the next
    /// [`HeapFile::flush`] persists them). Row ids at or beyond the heap
    /// are ignored. Returns the number of rows rewritten.
    ///
    /// Callers must not move a row spatially or across changesets — the
    /// grid and hash indexes reference rows by id and are not updated
    /// here. The monthly-refinement path only upgrades update types.
    pub fn rewrite(&mut self, changes: &[(RowId, UpdateRecord)]) -> Result<usize, StorageError> {
        let mut by_page: std::collections::BTreeMap<PageId, Vec<(usize, UpdateRecord)>> =
            std::collections::BTreeMap::new();
        let mut done = 0usize;
        for (rid, rec) in changes {
            if rid.0 >= self.row_count {
                continue;
            }
            if rid.0 >= self.tail_first_row() {
                let slot = (rid.0 - self.tail_first_row()) as usize;
                let start = slot * UPDATE_RECORD_BYTES;
                if let Some(dst) = self.tail.get_mut(start..start + UPDATE_RECORD_BYTES) {
                    dst.copy_from_slice(&rec.encode());
                    done += 1;
                }
                continue;
            }
            by_page.entry(rid.page()).or_default().push((rid.slot(), *rec));
        }
        let touched_disk = !by_page.is_empty();
        for (page, slots) in by_page {
            let mut data = self.file.read_page_vec(page)?;
            for (slot, rec) in slots {
                let start = slot * UPDATE_RECORD_BYTES;
                if let Some(dst) = data.get_mut(start..start + UPDATE_RECORD_BYTES) {
                    dst.copy_from_slice(&rec.encode());
                    done += 1;
                }
            }
            self.file.write_page(page, &data)?;
        }
        if touched_disk {
            // Page ids keep their meaning but contents changed; drop any
            // cached copies rather than tracking them individually.
            self.pool.clear();
        }
        Ok(done)
    }

    /// Read one row.
    pub fn get(&self, rid: RowId) -> Result<Option<UpdateRecord>, StorageError> {
        if rid.0 >= self.row_count {
            return Ok(None);
        }
        if rid.0 >= self.tail_first_row() {
            let slot = (rid.0 - self.tail_first_row()) as usize;
            let chunk = record_chunk(&self.tail, slot)?;
            return Ok(UpdateRecord::decode(chunk));
        }
        let page = self.pool.read(rid.page())?;
        let chunk = record_chunk(page.as_slice(), rid.slot())?;
        Ok(UpdateRecord::decode(chunk))
    }

    /// Visit every row in append order: sequential page reads through the
    /// pool (the physical access path of the row-scan baseline), then the
    /// in-memory tail.
    pub fn scan(&self, mut visit: impl FnMut(RowId, &UpdateRecord)) -> Result<(), StorageError> {
        let full_rows = self.tail_first_row();
        let mut rid = 0u64;
        let full_pages = full_rows.div_ceil(ROWS_PER_PAGE as u64);
        for p in 0..full_pages {
            let page = self.pool.read(PageId(p))?;
            for slot in 0..ROWS_PER_PAGE {
                if rid >= full_rows {
                    break;
                }
                let chunk = record_chunk(page.as_slice(), slot)?;
                if let Some(rec) = UpdateRecord::decode(chunk) {
                    visit(RowId(rid), &rec);
                }
                rid += 1;
            }
        }
        for slot in 0..self.tail_rows {
            let chunk = record_chunk(&self.tail, slot)?;
            if let Some(rec) = UpdateRecord::decode(chunk) {
                visit(RowId(rid), &rec);
            }
            rid += 1;
        }
        Ok(())
    }
}

/// The fixed-size record slice at `slot` in `buf`, bounds-checked: a slot
/// beyond the buffer means a corrupt page or tail and surfaces as an error
/// instead of a panic on the request path.
fn record_chunk(buf: &[u8], slot: usize) -> Result<&[u8; UPDATE_RECORD_BYTES], StorageError> {
    slot.checked_mul(UPDATE_RECORD_BYTES)
        .and_then(|start| buf.get(start..start.checked_add(UPDATE_RECORD_BYTES)?))
        .and_then(|c| <&[u8; UPDATE_RECORD_BYTES]>::try_from(c).ok())
        .ok_or(StorageError::WrongBufferSize {
            expected: (slot + 1) * UPDATE_RECORD_BYTES,
            got: buf.len(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;
    use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateType};

    fn rec(i: u64) -> UpdateRecord {
        UpdateRecord {
            element_type: ElementType::ALL[(i % 3) as usize],
            update_type: UpdateType::ALL[(i % 5) as usize],
            country: CountryId((i % 7) as u16),
            road_type: RoadTypeId((i % 11) as u16),
            date: rased_temporal::Date::from_days(18_000 + i as i32),
            lat7: (i as i32) * 1000,
            lon7: -(i as i32) * 500,
            changeset: ChangesetId(i + 1), // ids start at 1 (see HeapFile::open)
        }
    }

    #[test]
    fn append_and_get_across_pages() {
        let dir = TempDir::new("heap-basic");
        let mut h = HeapFile::create(&dir.file("heap.pg"), IoCostModel::free(), 8).unwrap();
        let mut rids = Vec::new();
        for i in 0..700u64 {
            // spans multiple pages (292 rows per 8 KB page)
            rids.push(h.append(&rec(i)).unwrap());
        }
        assert_eq!(h.row_count(), 700);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap().unwrap(), rec(i as u64), "row {i}");
        }
        assert_eq!(h.get(RowId(700)).unwrap(), None);
    }

    #[test]
    fn bulk_load_writes_one_page_per_page() {
        let dir = TempDir::new("heap-bulk");
        let mut h = HeapFile::create(&dir.file("heap.pg"), IoCostModel::free(), 8).unwrap();
        let before = h.file().stats().snapshot();
        for i in 0..(3 * ROWS_PER_PAGE as u64) {
            h.append(&rec(i)).unwrap();
        }
        let d = h.file().stats().snapshot().since(&before);
        assert_eq!(d.writes, 3, "exactly one physical write per full page");
    }

    #[test]
    fn scan_visits_all_rows_in_order_including_tail() {
        let dir = TempDir::new("heap-scan");
        let mut h = HeapFile::create(&dir.file("heap.pg"), IoCostModel::free(), 8).unwrap();
        for i in 0..400u64 {
            h.append(&rec(i)).unwrap();
        }
        let mut seen = Vec::new();
        h.scan(|rid, r| seen.push((rid.0, r.changeset.raw()))).unwrap();
        assert_eq!(seen.len(), 400);
        for (i, (rid, cs)) in seen.iter().enumerate() {
            assert_eq!(*rid, i as u64);
            assert_eq!(*cs, i as u64 + 1);
        }
    }

    #[test]
    fn reopen_recovers_flushed_tail() {
        let dir = TempDir::new("heap-reopen");
        let path = dir.file("heap.pg");
        {
            let mut h = HeapFile::create(&path, IoCostModel::free(), 8).unwrap();
            for i in 0..300u64 {
                h.append(&rec(i)).unwrap();
            }
            h.flush().unwrap();
        }
        let mut h = HeapFile::open(&path, IoCostModel::free(), 8).unwrap();
        assert_eq!(h.row_count(), 300);
        assert_eq!(h.get(RowId(299)).unwrap().unwrap(), rec(299));
        // Appending after reopen continues the tail page.
        let rid = h.append(&rec(300)).unwrap();
        assert_eq!(rid, RowId(300));
        assert_eq!(h.get(rid).unwrap().unwrap(), rec(300));
        h.flush().unwrap();
        let h2 = HeapFile::open(&path, IoCostModel::free(), 8).unwrap();
        assert_eq!(h2.row_count(), 301);
    }

    #[test]
    fn reopen_exact_page_boundary() {
        let dir = TempDir::new("heap-boundary");
        let path = dir.file("heap.pg");
        let n = ROWS_PER_PAGE as u64; // exactly one full page
        {
            let mut h = HeapFile::create(&path, IoCostModel::free(), 8).unwrap();
            for i in 0..n {
                h.append(&rec(i)).unwrap();
            }
            h.flush().unwrap();
        }
        let mut h = HeapFile::open(&path, IoCostModel::free(), 8).unwrap();
        assert_eq!(h.row_count(), n);
        let rid = h.append(&rec(n)).unwrap();
        assert_eq!(rid.0, n);
        h.flush().unwrap();
        assert_eq!(h.page_count(), 2);
    }

    #[test]
    fn unflushed_tail_is_lost_on_reopen() {
        let dir = TempDir::new("heap-lost");
        let path = dir.file("heap.pg");
        {
            let mut h = HeapFile::create(&path, IoCostModel::free(), 8).unwrap();
            for i in 0..10u64 {
                h.append(&rec(i)).unwrap();
            }
            // no flush
        }
        let h = HeapFile::open(&path, IoCostModel::free(), 8).unwrap();
        assert_eq!(h.row_count(), 0, "documented: unflushed tail does not survive");
    }

    #[test]
    fn truncate_rows_mid_page_keeps_exact_prefix() {
        let dir = TempDir::new("heap-trunc-mid");
        let path = dir.file("heap.pg");
        let n = 2 * ROWS_PER_PAGE as u64 + 50; // 2 full pages + tail
        let mut h = HeapFile::create(&path, IoCostModel::free(), 8).unwrap();
        for i in 0..n {
            h.append(&rec(i)).unwrap();
        }
        h.flush().unwrap();
        // Cut mid-way through page 1.
        let keep = ROWS_PER_PAGE as u64 + 7;
        h.truncate_rows(keep).unwrap();
        assert_eq!(h.row_count(), keep);
        assert_eq!(h.get(RowId(keep - 1)).unwrap().unwrap(), rec(keep - 1));
        assert_eq!(h.get(RowId(keep)).unwrap(), None);
        // Appends continue from the cut, and the state survives a flush +
        // reopen (dropped pages must not resurrect).
        assert_eq!(h.append(&rec(keep)).unwrap(), RowId(keep));
        h.flush().unwrap();
        let h2 = HeapFile::open(&path, IoCostModel::free(), 8).unwrap();
        assert_eq!(h2.row_count(), keep + 1);
        let mut seen = 0u64;
        h2.scan(|rid, r| {
            assert_eq!((rid.0, *r), (seen, rec(seen)));
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, keep + 1);
    }

    #[test]
    fn truncate_rows_boundary_and_zero() {
        let dir = TempDir::new("heap-trunc-edge");
        let path = dir.file("heap.pg");
        let mut h = HeapFile::create(&path, IoCostModel::free(), 8).unwrap();
        for i in 0..(ROWS_PER_PAGE as u64 + 10) {
            h.append(&rec(i)).unwrap();
        }
        h.flush().unwrap();
        // Cut exactly at the page boundary: no partial tail survives.
        h.truncate_rows(ROWS_PER_PAGE as u64).unwrap();
        assert_eq!(h.row_count(), ROWS_PER_PAGE as u64);
        assert_eq!(h.page_count(), 1);
        // Cut inside the (now in-memory) reconstruction down to 3 rows.
        h.truncate_rows(3).unwrap();
        assert_eq!(h.row_count(), 3);
        assert_eq!(h.get(RowId(2)).unwrap().unwrap(), rec(2));
        // Cut to zero.
        h.truncate_rows(0).unwrap();
        h.flush().unwrap();
        assert_eq!(h.row_count(), 0);
        let h2 = HeapFile::open(&path, IoCostModel::free(), 8).unwrap();
        assert_eq!(h2.row_count(), 0);
    }

    #[test]
    fn empty_heap() {
        let dir = TempDir::new("heap-empty");
        let path = dir.file("heap.pg");
        {
            let _ = HeapFile::create(&path, IoCostModel::free(), 8).unwrap();
        }
        let h = HeapFile::open(&path, IoCostModel::free(), 8).unwrap();
        assert_eq!(h.row_count(), 0);
        let mut n = 0;
        h.scan(|_, _| n += 1).unwrap();
        assert_eq!(n, 0);
    }
}
