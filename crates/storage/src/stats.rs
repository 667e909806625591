//! Physical-I/O accounting and the deterministic I/O cost model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Thread-safe physical I/O counters, attached to a [`crate::PageFile`] or
/// a [`crate::RecordFile`].
///
/// "Modeled time" is the I/O latency the configured [`IoCostModel`] assigns
/// to the operations performed — a simulated wall clock that stands in for
/// the spinning-disk testbed of the paper's evaluation. Syncs (`fsync` /
/// `fdatasync`) are counted beside the reads and writes but carry no
/// modeled cost: the model prices transfers, and a sync's price is the
/// device's, which the wall clock measures.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    syncs: AtomicU64,
    modeled_micros: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> IoStats {
        IoStats::default()
    }

    pub(crate) fn record_read(&self, bytes: u64, model: &IoCostModel) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.modeled_micros.fetch_add(model.micros(bytes), Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, bytes: u64, model: &IoCostModel) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.modeled_micros.fetch_add(model.micros(bytes), Ordering::Relaxed);
    }

    /// Count one flush to stable storage. Public so a file the owner syncs
    /// itself (a commit log, a checkpoint) is charged to the same counters.
    pub fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            modeled: Duration::from_micros(self.modeled_micros.load(Ordering::Relaxed)),
        }
    }
}

/// An immutable copy of [`IoStats`]; subtract two to get the I/O performed
/// by one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Flushes to stable storage.
    pub syncs: u64,
    /// Accumulated modeled I/O latency.
    pub modeled: Duration,
}

impl IoSnapshot {
    /// Counter deltas `self - earlier` (saturating, for safety under races).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            syncs: self.syncs.saturating_sub(earlier.syncs),
            modeled: self.modeled.saturating_sub(earlier.modeled),
        }
    }
}

/// Accumulate one operation's I/O delta into a running total (per-query
/// statistics summed over stores, maintenance reports summed over shards).
impl std::ops::AddAssign for IoSnapshot {
    fn add_assign(&mut self, delta: IoSnapshot) {
        self.reads += delta.reads;
        self.writes += delta.writes;
        self.bytes_read += delta.bytes_read;
        self.bytes_written += delta.bytes_written;
        self.syncs += delta.syncs;
        self.modeled = self.modeled.saturating_add(delta.modeled);
    }
}

/// Deterministic I/O latency model: every physical operation costs one seek
/// plus transfer time at a fixed bandwidth.
///
/// Defaults approximate the paper's 2014-era testbed disk. The model is a
/// documented substitution (DESIGN.md §1): it never sleeps — the cost is
/// accumulated into [`IoStats`] and reported as "modeled time".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCostModel {
    /// Fixed per-operation latency in microseconds (seek + rotation).
    pub seek_micros: u64,
    /// Sustained transfer bandwidth in bytes per second. Zero means
    /// "infinitely fast transfer" (only seeks cost).
    pub bytes_per_sec: u64,
}

impl IoCostModel {
    /// A 7200 rpm hard disk: 5 ms seek, 150 MB/s transfer.
    pub fn hdd() -> IoCostModel {
        IoCostModel { seek_micros: 5_000, bytes_per_sec: 150_000_000 }
    }

    /// No modeled cost (counters only).
    pub fn free() -> IoCostModel {
        IoCostModel { seek_micros: 0, bytes_per_sec: 0 }
    }

    /// Modeled cost of transferring `bytes`, in microseconds.
    pub fn micros(&self, bytes: u64) -> u64 {
        let transfer =
            bytes.saturating_mul(1_000_000).checked_div(self.bytes_per_sec).unwrap_or(0);
        self.seek_micros + transfer
    }

    /// Modeled cost as a [`Duration`].
    pub fn cost(&self, bytes: u64) -> Duration {
        Duration::from_micros(self.micros(bytes))
    }
}

impl Default for IoCostModel {
    fn default() -> Self {
        IoCostModel::hdd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_model_costs() {
        let m = IoCostModel::hdd();
        // A 4 MB cube page: 5 ms seek + ~28 ms transfer.
        let c = m.micros(4 << 20);
        assert_eq!(c, 5_000 + (4 << 20) * 1_000_000 / 150_000_000);
        assert!(c > 30_000 && c < 40_000, "{c}");
        // Seek dominates small reads.
        assert_eq!(m.micros(0), 5_000);
    }

    #[test]
    fn free_model_is_zero() {
        let m = IoCostModel::free();
        assert_eq!(m.micros(1 << 30), 0);
        assert_eq!(m.cost(12345), Duration::ZERO);
    }

    #[test]
    fn stats_accumulate_and_diff() {
        let s = IoStats::new();
        let m = IoCostModel { seek_micros: 10, bytes_per_sec: 1_000_000 };
        s.record_read(1_000_000, &m); // 10 + 1_000_000 µs
        let a = s.snapshot();
        assert_eq!(a.reads, 1);
        assert_eq!(a.bytes_read, 1_000_000);
        assert_eq!(a.modeled, Duration::from_micros(1_000_010));

        s.record_write(500, &m);
        s.record_sync();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.reads, 0);
        assert_eq!(d.writes, 1);
        assert_eq!(d.syncs, 1);
        assert_eq!(d.bytes_written, 500);
        // 10 µs seek + 500 µs transfer at 1 MB/s; the sync is free.
        assert_eq!(d.modeled, Duration::from_micros(510));
        // Deltas sum back to the total.
        let mut total = a;
        total += d;
        assert_eq!(total, b);
    }

    #[test]
    fn overflow_resistant_transfer_cost() {
        let m = IoCostModel { seek_micros: 0, bytes_per_sec: 1 };
        // bytes * 1e6 would overflow u64 for huge byte counts; must saturate,
        // not wrap.
        assert!(m.micros(u64::MAX / 2) > 0);
    }
}
