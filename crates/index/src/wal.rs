//! Commit log for catalog publishes (the "manifest/WAL" of the write path).
//!
//! A publish unit (one `put`, `ingest_day`, or `rebuild_month`) stages its
//! cube records with copy-on-write appends and then commits by writing a
//! single checksummed record here. The record carries the full set of
//! `Period → (offset, length)` bindings the unit installs, so replay is a
//! pure catalog-map operation: staged cube records that never reached a
//! committed log record are orphans and are simply never referenced again.
//! Every sync is charged to the owning store's [`IoStats`].
//!
//! Framing is `[crc32 u32 LE][len u32 LE][payload]`. The CRC covers the
//! payload only; `len` is validated against both the CRC and a hard cap so a
//! torn tail (crash mid-append) is detected and truncated on open rather
//! than misparsed. Records after the first invalid byte are discarded — the
//! log is an ordered history, so nothing after a tear can be trusted.

use rased_storage::IoStats;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Upper bound on a single record payload; a unit is at most one month of
/// days plus roll-ups, far under this. Guards replay against a corrupt
/// length field demanding a huge allocation.
const MAX_PAYLOAD: u32 = 1 << 20;

/// Append-only writer over the commit log.
#[derive(Debug)]
pub(crate) struct Wal {
    path: PathBuf,
    file: File,
    stats: Arc<IoStats>,
}

impl Wal {
    /// Open the log for appending, creating it if missing.
    pub(crate) fn open_append(path: &Path, stats: Arc<IoStats>) -> io::Result<Wal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal { path: path.to_path_buf(), file, stats })
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_data()?;
        self.stats.record_sync();
        Ok(())
    }

    /// Append one framed record and flush it to stable storage.
    pub(crate) fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.sync()
    }

    /// Discard every record (after a successful catalog checkpoint).
    pub(crate) fn reset(&mut self) -> io::Result<()> {
        // An append-mode handle cannot be rewound portably; reopen truncating.
        self.file = OpenOptions::new().write(true).create(true).truncate(true).open(&self.path)?;
        self.sync()?;
        let file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        self.file = file;
        Ok(())
    }
}

/// One record recovered by [`replay`], with the log offset one past its end.
#[derive(Debug)]
pub(crate) struct ReplayedRecord {
    pub(crate) payload: Vec<u8>,
    pub(crate) end_offset: u64,
}

/// Read every intact record from the log. Returns the records and the total
/// file length; a torn or corrupt tail simply ends the record list early
/// (callers truncate to the last good record's `end_offset`).
pub(crate) fn replay(path: &Path) -> io::Result<(Vec<ReplayedRecord>, u64)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    }
    let total = bytes.len() as u64;
    let mut records = Vec::new();
    let mut at = 0usize;
    while at + 8 <= bytes.len() {
        let crc = match rased_storage::bytes::read_u32_le(&bytes, at) {
            Some(v) => v,
            None => break,
        };
        let len = match rased_storage::bytes::read_u32_le(&bytes, at + 4) {
            Some(v) => v,
            None => break,
        };
        if len > MAX_PAYLOAD {
            break;
        }
        let start = at + 8;
        let end = start + len as usize;
        let Some(payload) = bytes.get(start..end) else {
            break; // torn tail: the payload never fully landed
        };
        if crc32(payload) != crc {
            break; // corrupt record: stop trusting the log here
        }
        records.push(ReplayedRecord { payload: payload.to_vec(), end_offset: end as u64 });
        at = end;
    }
    Ok((records, total))
}

/// Truncate the log to `len` bytes, discarding a torn tail found by replay.
pub(crate) fn truncate(path: &Path, len: u64, stats: &IoStats) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()?;
    stats.record_sync();
    Ok(())
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-free.
///
/// Std has no checksum; this bit-at-a-time form is ~8 shifts per byte,
/// plenty for WAL records that are a few hundred bytes each.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let dir = TempDir::new("wal");
        let path = dir.file("wal.log");
        let mut wal = Wal::open_append(&path, Arc::default()).unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"second record").unwrap();
        let (records, total) = replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].payload, b"first");
        assert_eq!(records[1].payload, b"second record");
        assert_eq!(records[1].end_offset, total);
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let dir = TempDir::new("wal");
        let (records, total) = replay(&dir.file("absent.log")).unwrap();
        assert!(records.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_truncation_point() {
        let dir = TempDir::new("wal");
        let path = dir.file("wal.log");
        let mut wal = Wal::open_append(&path, Arc::default()).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta!").unwrap();
        let full = std::fs::read(&path).unwrap();
        let first_end = 8 + 5;
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (records, total) = replay(&path).unwrap();
            assert_eq!(total, cut as u64);
            let expect = if cut >= full.len() {
                2
            } else if cut >= 2 * first_end {
                2
            } else if cut >= first_end {
                1
            } else {
                0
            };
            assert_eq!(records.len(), expect, "cut at byte {cut}");
        }
    }

    #[test]
    fn corrupt_byte_invalidates_record_and_suffix() {
        let dir = TempDir::new("wal");
        let path = dir.file("wal.log");
        let mut wal = Wal::open_append(&path, Arc::default()).unwrap();
        wal.append(b"aaaa").unwrap();
        wal.append(b"bbbb").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte in the first record: both records must go —
        // nothing after a corrupt record can be trusted.
        bytes[9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (records, _) = replay(&path).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn reset_empties_the_log_and_allows_new_appends() {
        let dir = TempDir::new("wal");
        let path = dir.file("wal.log");
        let mut wal = Wal::open_append(&path, Arc::default()).unwrap();
        wal.append(b"old").unwrap();
        wal.reset().unwrap();
        let (records, total) = replay(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(total, 0);
        wal.append(b"new").unwrap();
        let (records, _) = replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"new");
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let dir = TempDir::new("wal");
        let path = dir.file("wal.log");
        let mut frame = Vec::new();
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        frame.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &frame).unwrap();
        let (records, _) = replay(&path).unwrap();
        assert!(records.is_empty());
    }
}
