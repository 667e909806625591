//! [`BufferPool`]: a sharded LRU page cache over a [`PageFile`].

use crate::flight::{mix, FlightGroup};
use crate::lru::LruCache;
use crate::pagefile::{PageFile, PageId, StorageError};
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hit/miss counters for a buffer pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Most shards a pool will spread its capacity over.
const MAX_SHARDS: usize = 16;
/// Minimum per-shard page budget before another shard is worth having.
const PAGES_PER_SHARD: usize = 8;

/// How many shards a cache of `capacity` entries gets: one per
/// `PAGES_PER_SHARD` entries, between 1 and `MAX_SHARDS`. Small pools get a
/// single shard, which keeps their eviction behavior *globally* LRU —
/// several unit tests (and the zero/1-slot experimental configurations)
/// rely on that.
pub(crate) fn shards_for(capacity: usize) -> usize {
    (capacity / PAGES_PER_SHARD).clamp(1, MAX_SHARDS)
}

/// A fixed-capacity LRU cache of pages, write-through.
///
/// Pages are shared as `Arc<Vec<u8>>`, so a reader keeps its page alive even
/// if the pool evicts it concurrently. Write-through keeps the pool trivially
/// crash-consistent (the paper's cubes are written once per maintenance run,
/// so delayed write-back would buy nothing).
///
/// Concurrency: the page map is split into shards (by multiplicative hash of
/// the page number), each under its own named mutex, so the parallel
/// executor's workers don't serialize behind one pool-wide lock; capacity is
/// divided across shards. Misses go through a [`FlightGroup`], so N threads
/// missing the same page perform exactly one physical read — the others
/// block on the in-flight slot and share the `Arc`.
pub struct BufferPool {
    file: Arc<PageFile>,
    capacity: usize,
    shards: Vec<Shard>,
    flights: FlightGroup<u64, Arc<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct Shard {
    /// This shard's slice of the pool capacity.
    cap: usize,
    pages: Mutex<LruCache<u64, Arc<Vec<u8>>>>,
}

impl BufferPool {
    /// Create a pool over `file` holding at most `capacity` pages.
    /// Capacity zero is legal: every access is a miss (useful as the
    /// "no caching" experimental configuration).
    pub fn new(file: Arc<PageFile>, capacity: usize) -> BufferPool {
        BufferPool::with_shards(file, capacity, shards_for(capacity))
    }

    /// Like [`BufferPool::new`] with an explicit shard count (clamped to at
    /// least 1). Capacity is split evenly across shards, the remainder going
    /// to the first shards.
    pub fn with_shards(file: Arc<PageFile>, capacity: usize, shards: usize) -> BufferPool {
        let n = shards.max(1);
        let shards = (0..n)
            .map(|i| Shard {
                cap: capacity / n + usize::from(i < capacity % n),
                pages: Mutex::new_named(LruCache::new(), "storage.buffer_pool"),
            })
            .collect();
        BufferPool {
            file,
            capacity,
            shards,
            flights: FlightGroup::new(n, "storage.page_flight_map", "storage.page_flight_slot"),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The underlying page file.
    pub fn file(&self) -> &Arc<PageFile> {
        &self.file
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards the capacity is spread over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[expect(clippy::indexing_slicing, reason = "i is reduced mod shards.len(), which with_shards keeps >= 1")]
    fn shard(&self, key: u64) -> &Shard {
        let i = (mix(key) as usize) % self.shards.len();
        &self.shards[i]
    }

    /// Read a page through the cache.
    pub fn read(&self, page: PageId) -> Result<Arc<Vec<u8>>, StorageError> {
        let shard = self.shard(page.0);
        {
            let mut pages = shard.pages.lock();
            if let Some(data) = pages.get(&page.0) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(data));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.fetch(page, shard)
    }

    /// The coalesced miss path: whoever wins the flight performs the one
    /// physical read and admits the page; everyone else shares the `Arc`.
    /// (The pre-flight recheck catches the race where another thread
    /// completed the same miss between our lookup and the flight.)
    fn fetch(&self, page: PageId, shard: &Shard) -> Result<Arc<Vec<u8>>, StorageError> {
        self.flights.run(page.0, || {
            if let Some(data) = shard.pages.lock().get(&page.0) {
                return Ok(Arc::clone(data));
            }
            let data = Arc::new(self.file.read_page_vec(page)?);
            self.admit(page, Arc::clone(&data));
            Ok(data)
        })
    }

    /// Write a page through the cache (updates the cached copy and the file).
    pub fn write(&self, page: PageId, data: Vec<u8>) -> Result<(), StorageError> {
        self.file.write_page(page, &data)?;
        self.admit(page, Arc::new(data));
        Ok(())
    }

    /// Pre-load a page into the cache without counting a hit or miss — the
    /// cache *warming* step of the paper's caching strategy (§VII-A).
    pub fn prefetch(&self, page: PageId) -> Result<(), StorageError> {
        let shard = self.shard(page.0);
        let already = shard.pages.lock().contains(&page.0);
        if !already {
            self.fetch(page, shard)?;
        }
        Ok(())
    }

    /// True when the page is currently cached (no LRU update).
    pub fn contains(&self, page: PageId) -> bool {
        self.shard(page.0).pages.lock().contains(&page.0)
    }

    /// Surgically drop one page: the cached copy (if any) is removed and an
    /// in-flight miss for the page is cancelled so its followers re-resolve
    /// rather than adopt a read of superseded bytes. Used by the write path
    /// when a publish rewrites a page. Returns true when a cached copy was
    /// actually evicted.
    pub fn invalidate(&self, page: PageId) -> bool {
        let removed = self.shard(page.0).pages.lock().remove(&page.0).is_some();
        self.flights.cancel(&page.0);
        removed
    }

    /// Drop every cached page.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.pages.lock().clear();
        }
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.pages.lock().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn admit(&self, page: PageId, data: Arc<Vec<u8>>) {
        let shard = self.shard(page.0);
        if shard.cap == 0 {
            return;
        }
        let mut pages = shard.pages.lock();
        pages.insert(page.0, data);
        while pages.len() > shard.cap {
            if pages.pop_lru().is_none() {
                break;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoCostModel;
    use dettest::TempDir;
    use std::sync::Barrier;

    fn pool(capacity: usize) -> (TempDir, BufferPool, Arc<PageFile>) {
        let dir = TempDir::new("buffer");
        let pf = Arc::new(PageFile::create(&dir.file("pool.pg"), 8, IoCostModel::free()).unwrap());
        for i in 0..10u8 {
            pf.append_page(&[i; 8]).unwrap();
        }
        (dir, BufferPool::new(Arc::clone(&pf), capacity), pf)
    }

    #[test]
    fn hit_after_miss() {
        let (_dir, pool, pf) = pool(4);
        let before = pf.stats().snapshot();
        let a = pool.read(PageId(3)).unwrap();
        assert_eq!(**a, vec![3u8; 8]);
        let b = pool.read(PageId(3)).unwrap();
        assert_eq!(a, b);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Only one physical read happened.
        assert_eq!(pf.stats().snapshot().since(&before).reads, 1);
    }

    #[test]
    fn lru_evicts_coldest() {
        let (_dir, pool, _pf) = pool(3);
        // Capacity 3 stays on one shard, so eviction is globally LRU.
        assert_eq!(pool.shard_count(), 1);
        for p in [0u64, 1, 2] {
            pool.read(PageId(p)).unwrap();
        }
        pool.read(PageId(0)).unwrap(); // refresh page 0
        pool.read(PageId(3)).unwrap(); // evicts page 1 (coldest)
        assert!(pool.contains(PageId(0)));
        assert!(!pool.contains(PageId(1)));
        assert!(pool.contains(PageId(2)));
        assert!(pool.contains(PageId(3)));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn sharded_pool_respects_total_capacity() {
        let (_dir, _pool, pf) = pool(4);
        let pool = BufferPool::with_shards(pf, 6, 4);
        assert_eq!(pool.shard_count(), 4);
        for p in 0..10u64 {
            pool.read(PageId(p)).unwrap();
        }
        // Per-shard budgets are 2,2,1,1 — never exceeded, so the pool holds
        // at most 6 pages however the hash spread the keys.
        assert!(pool.len() <= 6, "len {} exceeds capacity", pool.len());
        let stats = pool.stats();
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.evictions as usize, 10 - pool.len());
    }

    #[test]
    fn zero_capacity_never_caches() {
        let (_dir, pool, _pf) = pool(0);
        pool.read(PageId(1)).unwrap();
        pool.read(PageId(1)).unwrap();
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert!(pool.is_empty());
    }

    #[test]
    fn write_through_updates_cache_and_disk() {
        let (_dir, pool, pf) = pool(4);
        pool.write(PageId(2), vec![9u8; 8]).unwrap();
        // Cached copy present: no physical read needed.
        let before = pf.stats().snapshot();
        assert_eq!(**pool.read(PageId(2)).unwrap(), vec![9u8; 8]);
        assert_eq!(pf.stats().snapshot().since(&before).reads, 0);
        // And the file sees it too.
        assert_eq!(pf.read_page_vec(PageId(2)).unwrap(), vec![9u8; 8]);
    }

    #[test]
    fn prefetch_counts_neither_hit_nor_miss() {
        let (_dir, pool, _pf) = pool(4);
        pool.prefetch(PageId(5)).unwrap();
        assert!(pool.contains(PageId(5)));
        assert_eq!(pool.stats(), PoolStats { hits: 0, misses: 0, evictions: 0 });
        pool.read(PageId(5)).unwrap();
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn clear_empties_pool() {
        let (_dir, pool, _pf) = pool(4);
        pool.read(PageId(0)).unwrap();
        assert_eq!(pool.len(), 1);
        pool.clear();
        assert!(pool.is_empty());
    }

    #[test]
    fn invalidate_drops_cached_copy_and_forces_reread() {
        let (_dir, pool, pf) = pool(4);
        pool.read(PageId(2)).unwrap();
        assert!(pool.contains(PageId(2)));
        // Rewrite the page behind the pool's back, then invalidate.
        pf.write_page(PageId(2), &[0xAB; 8]).unwrap();
        assert!(pool.invalidate(PageId(2)), "cached copy was evicted");
        assert!(!pool.contains(PageId(2)));
        // Next read faults the fresh bytes in.
        assert_eq!(**pool.read(PageId(2)).unwrap(), vec![0xAB; 8]);
        // Invalidating an uncached page reports false and is harmless.
        assert!(!pool.invalidate(PageId(7)));
    }

    #[test]
    fn bad_page_propagates_error() {
        let (_dir, pool, _pf) = pool(4);
        assert!(pool.read(PageId(999)).is_err());
    }

    /// Regression test for the duplicate-physical-read bug: the old miss
    /// path fetched outside the lock with no coalescing, so N threads
    /// missing the same cold page all called `read_page_vec`. With
    /// single-flight, 8 simultaneous misses must produce exactly 1 read.
    #[test]
    fn concurrent_miss_performs_one_physical_read() {
        let (_dir, pool, pf) = pool(4);
        let before = pf.stats().snapshot();
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(scope.spawn(|| {
                    barrier.wait();
                    pool.read(PageId(6)).unwrap()
                }));
            }
            for h in handles {
                assert_eq!(**h.join().unwrap(), vec![6u8; 8]);
            }
        });
        let delta = pf.stats().snapshot().since(&before);
        assert_eq!(delta.reads, 1, "stampede must coalesce to one physical read");
        // Every thread either missed (and was coalesced) or arrived after
        // the admit and hit; none performed a second read.
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 8);
        assert!(stats.misses >= 1);
        assert!(pool.contains(PageId(6)));
    }
}
