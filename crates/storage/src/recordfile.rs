//! [`RecordFile`]: an append-only file of byte-addressed records.
//!
//! Records are written back to back, each in one positioned write, and a
//! record's id is its byte offset (a [`PageId`], so caches and catalogs
//! keyed by page ids carry over unchanged). There is no header and no
//! record count: the file's length is its durable end. Nothing in the file
//! says where one record stops and the next starts — the owner's catalog
//! holds each record's `(offset, length)`, and bytes no catalog entry
//! reaches (a write whose commit never landed) are orphans that are simply
//! never read.

use crate::pagefile::{PageId, StorageError};
use crate::stats::{IoCostModel, IoStats};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An append-only file of variable-length records, each addressed by its
/// byte offset.
///
/// * [`RecordFile::append`] reserves the next `len` bytes atomically, so
///   concurrent appends get disjoint ranges, and writes them in one
///   `pwrite`. Offsets only grow: a later record always has a larger id.
/// * [`RecordFile::read`] is one `pread` of exactly the requested length.
/// * No record may exceed `max_record` bytes, fixed by the owner at create
///   and open; recovery treats a catalog entry past the end or longer than
///   that as the end of trusted history ([`RecordFile::holds`]).
/// * Every physical read, write and sync is recorded in the attached
///   [`IoStats`] with the configured [`IoCostModel`].
pub struct RecordFile {
    file: File,
    /// Bytes reserved by appends so far: the file length once every
    /// in-flight append has landed.
    end: AtomicU64,
    max_record: usize,
    stats: Arc<IoStats>,
    model: IoCostModel,
}

impl fmt::Debug for RecordFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordFile")
            .field("len", &self.len())
            .field("max_record", &self.max_record)
            .finish_non_exhaustive()
    }
}

impl RecordFile {
    /// Create an empty record file (truncating any existing one).
    pub fn create(path: &Path, max_record: usize, model: IoCostModel) -> Result<RecordFile, StorageError> {
        let file = OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(RecordFile::with(file, 0, max_record, model))
    }

    /// Open an existing record file; its end is its current length.
    pub fn open(path: &Path, max_record: usize, model: IoCostModel) -> Result<RecordFile, StorageError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let end = file.metadata()?.len();
        Ok(RecordFile::with(file, end, max_record, model))
    }

    fn with(file: File, end: u64, max_record: usize, model: IoCostModel) -> RecordFile {
        RecordFile { file, end: AtomicU64::new(end), max_record, stats: Arc::new(IoStats::new()), model }
    }

    /// Bytes in the file (orphans included).
    #[inline]
    pub fn len(&self) -> u64 {
        self.end.load(Ordering::SeqCst)
    }

    /// True when nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The longest record this file accepts.
    pub fn max_record(&self) -> usize {
        self.max_record
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// True when a record of `len` bytes at `at` lies wholly inside the
    /// file and is no longer than `max_record` — what a catalog entry must
    /// satisfy to be trusted on recovery.
    pub fn holds(&self, at: PageId, len: usize) -> bool {
        len <= self.max_record && at.0.checked_add(len as u64).is_some_and(|stop| stop <= self.len())
    }

    /// Append one record in one write; its id is the offset it landed at.
    pub fn append(&self, bytes: &[u8]) -> Result<PageId, StorageError> {
        if bytes.len() > self.max_record {
            return Err(StorageError::RecordTooLarge { len: bytes.len(), max: self.max_record });
        }
        let at = self.end.fetch_add(bytes.len() as u64, Ordering::SeqCst);
        self.file.write_all_at(bytes, at)?;
        self.stats.record_write(bytes.len() as u64, &self.model);
        Ok(PageId(at))
    }

    /// Read the `buf.len()` bytes at `at`: one physical read, charged as
    /// one operation of that many bytes (one modeled seek plus the
    /// transfer).
    pub fn read(&self, at: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        if !self.holds(at, buf.len()) {
            return Err(StorageError::RecordOutOfBounds { at, len: buf.len(), end: self.len() });
        }
        self.file.read_exact_at(buf, at.0)?;
        self.stats.record_read(buf.len() as u64, &self.model);
        Ok(())
    }

    /// Read up to `max_record` bytes from `at`, stopping at the end of the
    /// file as it stands on disk (an append still in flight past it is not
    /// waited for): the record there plus whatever follows it. A decoder
    /// reads its record and ignores the rest. This exists only for
    /// `benchmark/src/trace.rs`, whose page-read probe holds an id without
    /// its length, until that probe reads exact lengths; everything else
    /// reads exact lengths through [`RecordFile::read`].
    pub fn read_page_vec(&self, at: PageId) -> Result<Vec<u8>, StorageError> {
        let end = self.file.metadata()?.len();
        if at.0 >= end {
            return Err(StorageError::RecordOutOfBounds { at, len: 0, end });
        }
        let mut buf = vec![0u8; (end - at.0).min(self.max_record as u64) as usize];
        self.read(at, &mut buf)?;
        Ok(buf)
    }

    /// Flush every appended record to stable storage.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        self.stats.record_sync();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;

    #[test]
    fn records_pack_back_to_back_and_ids_are_offsets() {
        let dir = TempDir::new("recordfile");
        let path = dir.file("r.rec");
        let rf = RecordFile::create(&path, 64, IoCostModel::free()).unwrap();
        let a = rf.append(b"hello").unwrap();
        let b = rf.append(&[7u8; 20]).unwrap();
        let c = rf.append(b"").unwrap();
        assert_eq!((a, b, c), (PageId(0), PageId(5), PageId(25)));
        assert_eq!(rf.len(), 25);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 25, "no padding, no header");
        let mut buf = [0u8; 20];
        rf.read(b, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 20]);
    }

    #[test]
    fn reopen_resumes_at_the_file_length() {
        let dir = TempDir::new("recordfile");
        let path = dir.file("r.rec");
        {
            let rf = RecordFile::create(&path, 16, IoCostModel::free()).unwrap();
            rf.append(b"abc").unwrap();
            rf.sync().unwrap();
        }
        let rf = RecordFile::open(&path, 16, IoCostModel::free()).unwrap();
        assert_eq!(rf.len(), 3);
        assert_eq!(rf.append(b"de").unwrap(), PageId(3));
        let mut buf = [0u8; 5];
        rf.read(PageId(0), &mut buf).unwrap();
        assert_eq!(&buf, b"abcde");
    }

    #[test]
    fn bounds_and_size_checks() {
        let dir = TempDir::new("recordfile");
        let rf = RecordFile::create(&dir.file("r.rec"), 8, IoCostModel::free()).unwrap();
        rf.append(&[1u8; 8]).unwrap();
        assert!(matches!(rf.append(&[0u8; 9]), Err(StorageError::RecordTooLarge { len: 9, max: 8 })));
        assert!(rf.holds(PageId(0), 8));
        assert!(!rf.holds(PageId(1), 8), "past the end");
        assert!(!rf.holds(PageId(u64::MAX), 1), "offset overflow");
        assert!(matches!(
            rf.read(PageId(4), &mut [0u8; 5]),
            Err(StorageError::RecordOutOfBounds { end: 8, .. })
        ));
        assert!(matches!(rf.read_page_vec(PageId(8)), Err(StorageError::RecordOutOfBounds { .. })));
    }

    #[test]
    fn read_page_vec_reads_at_most_one_max_record_and_stops_at_eof() {
        let dir = TempDir::new("recordfile");
        let rf = RecordFile::create(&dir.file("r.rec"), 4, IoCostModel::free()).unwrap();
        rf.append(b"ab").unwrap();
        rf.append(b"cdef").unwrap();
        assert_eq!(rf.read_page_vec(PageId(0)).unwrap(), b"abcd");
        assert_eq!(rf.read_page_vec(PageId(4)).unwrap(), b"ef");
    }

    #[test]
    fn stats_count_one_op_per_append_read_and_sync() {
        let dir = TempDir::new("recordfile");
        let model = IoCostModel { seek_micros: 100, bytes_per_sec: 1_000_000 };
        let rf = RecordFile::create(&dir.file("r.rec"), 64, model).unwrap();
        let base = rf.stats().snapshot();
        let at = rf.append(&[3u8; 40]).unwrap();
        rf.sync().unwrap();
        rf.read(at, &mut [0u8; 10]).unwrap();
        let d = rf.stats().snapshot().since(&base);
        assert_eq!((d.writes, d.bytes_written), (1, 40));
        assert_eq!((d.reads, d.bytes_read), (1, 10));
        assert_eq!(d.syncs, 1);
        // Two seeks, plus 40 and 10 bytes at 1 MB/s.
        assert_eq!(d.modeled, std::time::Duration::from_micros(100 + 40 + 100 + 10));
    }

    #[test]
    fn concurrent_appends_get_disjoint_ranges() {
        let dir = TempDir::new("recordfile");
        let rf = Arc::new(RecordFile::create(&dir.file("r.rec"), 8, IoCostModel::free()).unwrap());
        let handles: Vec<_> = (1..=4u8)
            .map(|t| {
                let rf = Arc::clone(&rf);
                std::thread::spawn(move || {
                    (0..25).map(|_| (rf.append(&vec![t; t as usize]).unwrap(), t)).collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<(PageId, u8)> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        assert_eq!(rf.len(), 25 * (1 + 2 + 3 + 4));
        for (at, t) in all {
            let mut buf = vec![0u8; t as usize];
            rf.read(at, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == t), "record at {at} was overwritten");
        }
    }
}
