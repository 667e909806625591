//! [`PageFile`]: a file of fixed-size pages with explicit allocation.

use crate::stats::{IoCostModel, IoStats};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a page within a [`PageFile`] (zero-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Storage-level error.
#[derive(Debug)]
pub enum StorageError {
    Io(io::Error),
    /// The file header is missing or does not match this format/version.
    BadHeader(String),
    /// A page id at or beyond the allocation watermark.
    PageOutOfBounds { page: PageId, page_count: u64 },
    /// A buffer whose length does not equal the page size.
    WrongBufferSize { expected: usize, got: usize },
    /// A record read reaching past the end of its [`crate::RecordFile`].
    RecordOutOfBounds { at: PageId, len: usize, end: u64 },
    /// A record longer than its [`crate::RecordFile`] accepts.
    RecordTooLarge { len: usize, max: usize },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::BadHeader(m) => write!(f, "bad page-file header: {m}"),
            StorageError::PageOutOfBounds { page, page_count } => {
                write!(f, "page {page} out of bounds (page count {page_count})")
            }
            StorageError::WrongBufferSize { expected, got } => {
                write!(f, "buffer size {got} does not match page size {expected}")
            }
            StorageError::RecordOutOfBounds { at, len, end } => {
                write!(f, "record of {len} bytes at offset {} runs past the end ({end})", at.0)
            }
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds the {max}-byte maximum")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

const MAGIC: &[u8; 8] = b"RASEDPG1";
/// Fixed-size header region before page 0. Kept separate from the page grid
/// so multi-megabyte cube pages don't waste a page on the header.
const HEADER_BYTES: u64 = 4096;

/// A file of fixed-size pages.
///
/// * Pages are allocated with [`PageFile::allocate`] and addressed by
///   [`PageId`]; reads of unallocated pages are rejected.
/// * All physical operations are positioned (`pread`/`pwrite`), so the file
///   is shared freely across threads; the allocation watermark is atomic.
/// * Every physical read/write is recorded in the attached [`IoStats`] with
///   the configured [`IoCostModel`].
pub struct PageFile {
    file: File,
    // (Debug derived manually below to avoid dumping raw fds.)
    page_size: usize,
    page_count: AtomicU64,
    stats: Arc<IoStats>,
    model: IoCostModel,
}

impl fmt::Debug for PageFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageFile")
            .field("page_size", &self.page_size)
            .field("page_count", &self.page_count())
            .finish_non_exhaustive()
    }
}

impl PageFile {
    /// Create a new page file (truncating any existing one).
    pub fn create(path: &Path, page_size: usize, model: IoCostModel) -> Result<PageFile, StorageError> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let pf = PageFile {
            file,
            page_size,
            page_count: AtomicU64::new(0),
            stats: Arc::new(IoStats::new()),
            model,
        };
        pf.write_header()?;
        Ok(pf)
    }

    /// Open an existing page file, validating its header.
    pub fn open(path: &Path, model: IoCostModel) -> Result<PageFile, StorageError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut header = [0u8; 24];
        file.read_exact_at(&mut header, 0)
            .map_err(|e| StorageError::BadHeader(format!("short header: {e}")))?;
        if &header[0..8] != MAGIC {
            return Err(StorageError::BadHeader("wrong magic".into()));
        }
        let corrupt = || StorageError::BadHeader("truncated header fields".into());
        let page_size = crate::bytes::read_u64_le(&header, 8).ok_or_else(corrupt)? as usize;
        let page_count = crate::bytes::read_u64_le(&header, 16).ok_or_else(corrupt)?;
        if page_size == 0 {
            return Err(StorageError::BadHeader("zero page size".into()));
        }
        Ok(PageFile {
            file,
            page_size,
            page_count: AtomicU64::new(page_count),
            stats: Arc::new(IoStats::new()),
            model,
        })
    }

    fn write_header(&self) -> Result<(), StorageError> {
        let mut header = [0u8; 24];
        header[0..8].copy_from_slice(MAGIC);
        header[8..16].copy_from_slice(&(self.page_size as u64).to_le_bytes());
        header[16..24].copy_from_slice(&self.page_count.load(Ordering::SeqCst).to_le_bytes());
        self.file.write_all_at(&header, 0)?;
        Ok(())
    }

    /// The fixed page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of allocated pages.
    #[inline]
    pub fn page_count(&self) -> u64 {
        self.page_count.load(Ordering::SeqCst)
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn offset_of(&self, page: PageId) -> u64 {
        HEADER_BYTES + page.0 * self.page_size as u64
    }

    fn check_bounds(&self, page: PageId) -> Result<(), StorageError> {
        let count = self.page_count();
        if page.0 >= count {
            return Err(StorageError::PageOutOfBounds { page, page_count: count });
        }
        Ok(())
    }

    /// Allocate a fresh zeroed page and return its id.
    pub fn allocate(&self) -> Result<PageId, StorageError> {
        let id = PageId(self.page_count.fetch_add(1, Ordering::SeqCst));
        // Extend the file so reads of the new page succeed.
        let zeros = vec![0u8; self.page_size];
        self.file.write_all_at(&zeros, self.offset_of(id))?;
        self.stats.record_write(self.page_size as u64, &self.model);
        self.write_header()?;
        Ok(id)
    }

    /// Read a full page into `buf` (must be exactly one page long).
    pub fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        if buf.len() != self.page_size {
            return Err(StorageError::WrongBufferSize { expected: self.page_size, got: buf.len() });
        }
        self.check_bounds(page)?;
        self.file.read_exact_at(buf, self.offset_of(page))?;
        self.stats.record_read(self.page_size as u64, &self.model);
        Ok(())
    }

    /// Read a full page into a fresh buffer.
    pub fn read_page_vec(&self, page: PageId) -> Result<Vec<u8>, StorageError> {
        let mut buf = vec![0u8; self.page_size];
        self.read_page(page, &mut buf)?;
        Ok(buf)
    }

    /// Write a full page (must be exactly one page long).
    pub fn write_page(&self, page: PageId, buf: &[u8]) -> Result<(), StorageError> {
        if buf.len() != self.page_size {
            return Err(StorageError::WrongBufferSize { expected: self.page_size, got: buf.len() });
        }
        self.check_bounds(page)?;
        self.file.write_all_at(buf, self.offset_of(page))?;
        self.stats.record_write(self.page_size as u64, &self.model);
        Ok(())
    }

    /// Allocate and immediately write a page.
    pub fn append_page(&self, buf: &[u8]) -> Result<PageId, StorageError> {
        if buf.len() != self.page_size {
            return Err(StorageError::WrongBufferSize { expected: self.page_size, got: buf.len() });
        }
        let id = PageId(self.page_count.fetch_add(1, Ordering::SeqCst));
        self.file.write_all_at(buf, self.offset_of(id))?;
        self.stats.record_write(self.page_size as u64, &self.model);
        self.write_header()?;
        Ok(id)
    }

    /// Shrink the file to its first `keep` pages (no-op when `keep` is at
    /// or beyond the current count). Dropped ids become unallocated again:
    /// bounds checks reject them and future [`PageFile::allocate`] calls
    /// reuse them — callers holding caches keyed by `PageId` must drop any
    /// entries past the cut. The shrink is synced before returning so a
    /// crash cannot resurrect the dropped pages.
    pub fn truncate_pages(&self, keep: u64) -> Result<(), StorageError> {
        let current = self.page_count.load(Ordering::SeqCst);
        if keep >= current {
            return Ok(());
        }
        self.page_count.store(keep, Ordering::SeqCst);
        self.file.set_len(HEADER_BYTES + keep * self.page_size as u64)?;
        self.write_header()?;
        self.sync_file()
    }

    /// Flush file contents and metadata to stable storage.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.write_header()?;
        self.sync_file()
    }

    fn sync_file(&self) -> Result<(), StorageError> {
        self.file.sync_all()?;
        self.stats.record_sync();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;

    #[test]
    fn create_write_read_roundtrip() {
        let dir = TempDir::new("pagefile");
        let path = dir.file("a.pg");
        let pf = PageFile::create(&path, 128, IoCostModel::free()).unwrap();
        let p0 = pf.allocate().unwrap();
        let p1 = pf.allocate().unwrap();
        assert_eq!((p0, p1), (PageId(0), PageId(1)));

        let data: Vec<u8> = (0..128).map(|i| i as u8).collect();
        pf.write_page(p1, &data).unwrap();
        assert_eq!(pf.read_page_vec(p1).unwrap(), data);
        // Fresh pages read back zeroed.
        assert_eq!(pf.read_page_vec(p0).unwrap(), vec![0u8; 128]);
    }

    #[test]
    fn reopen_preserves_pages() {
        let dir = TempDir::new("pagefile");
        let path = dir.file("b.pg");
        let data = vec![7u8; 64];
        {
            let pf = PageFile::create(&path, 64, IoCostModel::free()).unwrap();
            let p = pf.append_page(&data).unwrap();
            assert_eq!(p, PageId(0));
            pf.sync().unwrap();
        }
        let pf = PageFile::open(&path, IoCostModel::free()).unwrap();
        assert_eq!(pf.page_size(), 64);
        assert_eq!(pf.page_count(), 1);
        assert_eq!(pf.read_page_vec(PageId(0)).unwrap(), data);
    }

    #[test]
    fn open_rejects_corrupt_header() {
        let dir = TempDir::new("pagefile");
        let path = dir.file("c.pg");
        std::fs::write(&path, b"definitely not a page file").unwrap();
        match PageFile::open(&path, IoCostModel::free()) {
            Err(StorageError::BadHeader(_)) => {}
            other => panic!("expected BadHeader, got {other:?}"),
        }
        // Too-short file.
        let path2 = dir.file("d.pg");
        std::fs::write(&path2, b"x").unwrap();
        assert!(matches!(PageFile::open(&path2, IoCostModel::free()), Err(StorageError::BadHeader(_))));
    }

    #[test]
    fn bounds_and_size_checks() {
        let dir = TempDir::new("pagefile");
        let path = dir.file("e.pg");
        let pf = PageFile::create(&path, 32, IoCostModel::free()).unwrap();
        pf.allocate().unwrap();
        assert!(matches!(
            pf.read_page_vec(PageId(5)),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        assert!(matches!(
            pf.write_page(PageId(0), &[0u8; 31]),
            Err(StorageError::WrongBufferSize { .. })
        ));
        let mut small = [0u8; 16];
        assert!(matches!(
            pf.read_page(PageId(0), &mut small),
            Err(StorageError::WrongBufferSize { .. })
        ));
    }

    #[test]
    fn stats_count_physical_io() {
        let dir = TempDir::new("pagefile");
        let path = dir.file("f.pg");
        let model = IoCostModel { seek_micros: 100, bytes_per_sec: 0 };
        let pf = PageFile::create(&path, 16, model).unwrap();
        let base = pf.stats().snapshot();
        let p = pf.allocate().unwrap(); // one write (zero-fill)
        pf.write_page(p, &[1u8; 16]).unwrap();
        pf.read_page_vec(p).unwrap();
        pf.sync().unwrap();
        let d = pf.stats().snapshot().since(&base);
        assert_eq!(d.writes, 2);
        assert_eq!(d.reads, 1);
        assert_eq!(d.syncs, 1);
        assert_eq!(d.bytes_read, 16);
        assert_eq!(d.modeled, std::time::Duration::from_micros(300));
    }

    #[test]
    fn truncate_pages_drops_the_suffix_and_survives_reopen() {
        let dir = TempDir::new("pagefile");
        let path = dir.file("t.pg");
        let pf = PageFile::create(&path, 32, IoCostModel::free()).unwrap();
        for i in 0..5u8 {
            pf.append_page(&[i; 32]).unwrap();
        }
        pf.truncate_pages(2).unwrap();
        assert_eq!(pf.page_count(), 2);
        assert_eq!(pf.read_page_vec(PageId(1)).unwrap(), vec![1u8; 32]);
        assert!(matches!(
            pf.read_page_vec(PageId(2)),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        // Reallocation reuses the dropped ids and reads back zeroed.
        assert_eq!(pf.allocate().unwrap(), PageId(2));
        assert_eq!(pf.read_page_vec(PageId(2)).unwrap(), vec![0u8; 32]);
        pf.truncate_pages(2).unwrap();
        drop(pf);
        let pf = PageFile::open(&path, IoCostModel::free()).unwrap();
        assert_eq!(pf.page_count(), 2);
        // Truncating to >= the count is a no-op.
        pf.truncate_pages(10).unwrap();
        assert_eq!(pf.page_count(), 2);
    }

    #[test]
    fn concurrent_appends_get_distinct_pages() {
        let dir = TempDir::new("pagefile");
        let path = dir.file("g.pg");
        let pf = Arc::new(PageFile::create(&path, 8, IoCostModel::free()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let pf = Arc::clone(&pf);
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for _ in 0..25 {
                    ids.push(pf.append_page(&[t; 8]).unwrap());
                }
                ids
            }));
        }
        let mut all: Vec<PageId> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 100, "page ids must be unique");
        assert_eq!(pf.page_count(), 100);
    }
}
