//! The cube cache (§VII-A).
//!
//! RASED preloads "some of the very recent data cubes" so queries over
//! recent windows hit memory. Given `N` slots, the warm set is the most
//! recent ⌊αN⌋ daily, ⌊βN⌋ weekly, ⌊γN⌋ monthly and ⌊θN⌋ yearly cubes, at
//! the paper's deployed ratios (α, β, γ, θ) = (0.40, 0.35, 0.20, 0.05). The
//! ratios trade aggregation granularity against covered time span. Reads
//! never admit: the warm set changes only on [`CubeCache::warm`], so
//! nothing is ever evicted between two warms.
//!
//! Concurrency: like the storage-layer buffer pool, the cache is split
//! into hash-picked shards — one named mutex per shard — so the parallel
//! executor's workers don't serialize behind a single cache-wide lock.
//! Shards come one per 8 slots, at most 16: contention is capped at
//! 16-way, and a small cache is not split into more locks than it has
//! cubes worth contending for.
//!
//! Versioning: the store is copy-on-write — republishing a period binds it
//! to a fresh page, never rewriting the old one — so every cached cube is
//! tagged with the [`PageId`] it was read from. A reader pinned to a
//! catalog snapshot asks for (period, page) and only a tag-exact entry
//! hits; page ids grow monotonically, so a smaller tag is provably stale
//! (dropped on sight) while a larger tag belongs to a newer epoch (kept
//! for current readers, a miss for the old snapshot).

use rased_cube::DataCube;
use rased_storage::sync::Mutex;
use rased_storage::PageId;
use rased_temporal::{Granularity, Period};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache sizing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Capacity in slots; one slot holds one cube (the paper's 2 GB default
    /// is ≈ 500 paper-scale cubes).
    pub slots: usize,
}

impl CacheConfig {
    /// The paper's deployment: 2 GB ≈ 500 slots.
    pub fn paper_default() -> CacheConfig {
        CacheConfig { slots: 500 }
    }

    /// A disabled cache (the "no caching" experimental variants).
    pub fn disabled() -> CacheConfig {
        CacheConfig { slots: 0 }
    }
}

/// The paper's per-level ratios (α, β, γ, θ), in [`Granularity::ALL`] order.
const LEVEL_RATIOS: [f64; 4] = [0.40, 0.35, 0.20, 0.05];

/// Most shards a cache will spread its slots over.
const MAX_SHARDS: usize = 16;
/// Minimum per-shard slot budget before another shard is worth having.
const SLOTS_PER_SHARD: usize = 8;

/// In-memory cube cache with hit/miss accounting.
pub struct CubeCache {
    config: CacheConfig,
    shards: Vec<CacheShard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct CacheShard {
    cubes: Mutex<HashMap<Period, (PageId, Arc<DataCube>)>>,
}

impl CubeCache {
    /// Create an empty cache.
    pub fn new(config: CacheConfig) -> CubeCache {
        let n = (config.slots / SLOTS_PER_SHARD).clamp(1, MAX_SHARDS);
        let shards = (0..n)
            .map(|_| CacheShard { cubes: Mutex::new_named(HashMap::new(), "index.cube_cache") })
            .collect();
        CubeCache { config, shards, hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    /// The configured capacity in slots.
    pub fn slots(&self) -> usize {
        self.config.slots
    }

    /// Number of shards the slots are spread over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard pick: granularity and start date, multiplicative
    /// mix. (Deliberately not `RandomState`: shard placement must be
    /// reproducible run to run.)
    #[expect(clippy::indexing_slicing, reason = "i is reduced mod shards.len(), which new() keeps >= 1")]
    fn shard(&self, period: &Period) -> &CacheShard {
        let date = period.start();
        let raw = ((period.granularity() as u64) << 32)
            ^ ((date.year() as u64) << 16)
            ^ ((date.month() as u64) << 8)
            ^ (date.day() as u64);
        let mixed = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let i = ((mixed ^ (mixed >> 32)) as usize) % self.shards.len();
        &self.shards[i]
    }

    /// How many slots the recency policy grants each granularity.
    ///
    /// Floors can leave unused slots; they are handed to the finest level
    /// (daily), which the paper's ratios favor anyway.
    pub fn level_quota(&self) -> [usize; 4] {
        let n = self.config.slots;
        let mut q = LEVEL_RATIOS.map(|r| (r * n as f64).floor() as usize);
        let used: usize = q.iter().sum();
        q[0] += n.saturating_sub(used);
        q
    }

    /// Replace the warm set per the recency policy: for each level, the
    /// most recent `quota` periods from `available` (every catalogued
    /// period of that level with its current page binding, any order).
    ///
    /// `load` fetches a cube from disk; it is only called for (period,
    /// page) pairs not already cached at that exact version.
    pub fn warm<E>(
        &self,
        available: &[(Period, PageId)],
        mut load: impl FnMut(Period, PageId) -> Result<Arc<DataCube>, E>,
    ) -> Result<(), E> {
        let quota = self.level_quota();
        let mut want: Vec<(Period, PageId)> = Vec::new();
        for (level, &q) in Granularity::ALL.iter().zip(quota.iter()) {
            if q == 0 {
                continue;
            }
            let mut of_level: Vec<(Period, PageId)> =
                available.iter().copied().filter(|(p, _)| p.granularity() == *level).collect();
            of_level.sort_unstable_by_key(|(p, _)| std::cmp::Reverse(p.start()));
            want.extend(of_level.into_iter().take(q));
        }
        // Load missing cubes before swapping in the new warm set, so a load
        // error leaves the old set intact.
        let mut fresh: Vec<(Period, PageId, Arc<DataCube>)> = Vec::with_capacity(want.len());
        for &(p, page) in &want {
            let cached = {
                let cubes = self.shard(&p).cubes.lock();
                cubes.get(&p).filter(|(tag, _)| *tag == page).map(|(_, c)| Arc::clone(c))
            };
            let cube = match cached {
                Some(c) => c,
                None => load(p, page)?,
            };
            fresh.push((p, page, cube));
        }
        // Swap shard by shard (one lock at a time — same-class locks must
        // never be held together).
        for shard in &self.shards {
            shard.cubes.lock().clear();
        }
        for (p, page, c) in fresh {
            self.shard(&p).cubes.lock().insert(p, (page, c));
        }
        Ok(())
    }

    /// Look up the cube for `period` *at page version `current`*, updating
    /// hit/miss counters.
    ///
    /// A cached entry with a smaller tag predates `current` and can never
    /// be valid again (pages are never rewritten): it is dropped. A larger
    /// tag means a newer version was published after the caller pinned its
    /// snapshot — the entry stays (it serves current readers) but this
    /// caller misses and reads its own version from disk.
    pub fn get(&self, period: Period, current: PageId) -> Option<Arc<DataCube>> {
        let found = {
            let mut cubes = self.shard(&period).cubes.lock();
            match cubes.get(&period) {
                Some((tag, cube)) if *tag == current => Some(Arc::clone(cube)),
                Some((tag, _)) => {
                    if *tag < current {
                        cubes.remove(&period);
                    }
                    None
                }
                None => None,
            }
        };
        match found {
            Some(cube) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(cube)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// True when the period is cached at any version (no counter update) —
    /// the level optimizer probes with this. Planning is advisory: a
    /// version mismatch at fetch time costs one extra read, never
    /// correctness.
    pub fn contains(&self, period: Period) -> bool {
        self.shard(&period).cubes.lock().contains_key(&period)
    }

    /// Invalidate one period unconditionally (any cached version).
    pub fn invalidate(&self, period: Period) {
        self.shard(&period).cubes.lock().remove(&period);
    }

    /// Surgical invalidation on publish: drop the cached cube for `period`
    /// unless it is already the copy for `current` (the page just
    /// published). Returns true when a stale entry was removed.
    pub fn invalidate_stale(&self, period: Period, current: PageId) -> bool {
        let mut cubes = self.shard(&period).cubes.lock();
        if cubes.get(&period).is_some_and(|(tag, _)| *tag != current) {
            cubes.remove(&period);
            return true;
        }
        false
    }

    /// Number of cubes currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.cubes.lock().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rased_cube::CubeSchema;
    use rased_temporal::Date;

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn cube() -> Arc<DataCube> {
        Arc::new(DataCube::zeroed(CubeSchema::tiny()))
    }

    const P0: PageId = PageId(0);

    fn days(n: i64) -> Vec<(Period, PageId)> {
        (0..n).map(|i| (Period::Day(d("2021-01-01").add_days(i as i32)), PageId(i as u64))).collect()
    }

    /// A cache of `slots` warmed with `entries` (each test below sizes
    /// `slots` so the level quotas keep every entry).
    fn warmed(slots: usize, entries: &[(Period, PageId)]) -> CubeCache {
        let c = CubeCache::new(CacheConfig { slots });
        c.warm(entries, |_, _| -> Result<_, ()> { Ok(cube()) }).unwrap();
        c
    }

    #[test]
    fn quota_split_matches_ratios_and_fills_remainder() {
        let c = CubeCache::new(CacheConfig { slots: 100 });
        assert_eq!(c.level_quota(), [40, 35, 20, 5]);
        // 10 slots: floors are [4,3,2,0], remainder 1 goes to daily.
        let c = CubeCache::new(CacheConfig { slots: 10 });
        assert_eq!(c.level_quota(), [5, 3, 2, 0]);
    }

    #[test]
    fn warm_takes_most_recent_per_level() {
        // 10 slots: quotas [5, 3, 2, 0].
        let c = CubeCache::new(CacheConfig { slots: 10 });
        let mut avail = days(10);
        for (i, week) in ["2021-01-03", "2021-01-10", "2021-01-17", "2021-01-24"].iter().enumerate() {
            avail.push((Period::Week(d(week)), PageId(20 + i as u64)));
        }
        for m in 1..=3 {
            avail.push((Period::Month(2021, m), PageId(30 + m as u64)));
        }
        avail.push((Period::Year(2021), PageId(40)));
        let mut loads = 0;
        c.warm(&avail, |_, _| -> Result<_, ()> {
            loads += 1;
            Ok(cube())
        })
        .unwrap();
        assert_eq!(loads, 10);
        // Five most recent days, three most recent weeks, two most recent
        // months, no year.
        assert!(c.contains(Period::Day(d("2021-01-10"))));
        assert!(c.contains(Period::Day(d("2021-01-06"))));
        assert!(!c.contains(Period::Day(d("2021-01-05"))));
        assert!(c.contains(Period::Week(d("2021-01-24"))));
        assert!(c.contains(Period::Week(d("2021-01-10"))));
        assert!(!c.contains(Period::Week(d("2021-01-03"))));
        assert!(c.contains(Period::Month(2021, 3)));
        assert!(c.contains(Period::Month(2021, 2)));
        assert!(!c.contains(Period::Month(2021, 1)));
        assert!(!c.contains(Period::Year(2021)));
    }

    #[test]
    fn reads_do_not_admit() {
        let c = CubeCache::new(CacheConfig { slots: 4 });
        assert!(c.get(Period::Day(d("2021-06-01")), P0).is_none());
        assert!(c.is_empty(), "a miss must not admit");
        assert_eq!(c.counters(), (0, 1));
    }

    #[test]
    fn warm_set_spans_shards() {
        // 32 slots: 4 shards; quotas [14, 11, 6, 1], so of 100 days the 14
        // most recent are warm, each served from its own shard at its tag.
        let c = warmed(32, &days(100));
        assert!(c.shard_count() > 1);
        assert_eq!(c.len(), 14);
        for (p, page) in days(100) {
            assert_eq!(c.get(p, page).is_some(), page.0 >= 86, "{p}");
        }
    }

    #[test]
    fn zero_slot_cache_stays_empty() {
        let c = CubeCache::new(CacheConfig::disabled());
        let mut loads = 0;
        c.warm(&days(4), |_, _| -> Result<_, ()> {
            loads += 1;
            Ok(cube())
        })
        .unwrap();
        assert!(c.is_empty());
        assert_eq!(loads, 0);
    }

    #[test]
    fn invalidate_removes_entry() {
        let p = Period::Month(2021, 3);
        let c = warmed(10, &[(p, P0)]);
        assert!(c.contains(p));
        c.invalidate(p);
        assert!(!c.contains(p));
    }

    #[test]
    fn version_tags_gate_hits() {
        let p = Period::Day(d("2021-01-01"));
        let c = warmed(4, &[(p, PageId(3))]);
        // Exact version hits.
        assert!(c.get(p, PageId(3)).is_some());
        // A reader whose snapshot binds a *newer* page sees the cached copy
        // as provably stale: dropped, miss.
        assert!(c.get(p, PageId(7)).is_none());
        assert!(!c.contains(p), "older-tagged entry must be evicted on sight");
        // A newer cached copy survives an old-snapshot reader's miss.
        let c = warmed(4, &[(p, PageId(7))]);
        assert!(c.get(p, PageId(3)).is_none());
        assert!(c.contains(p), "newer entry must be kept for current readers");
        assert!(c.get(p, PageId(7)).is_some());
    }

    #[test]
    fn rewarm_reloads_only_a_changed_binding() {
        let (a, b) = (Period::Day(d("2021-01-01")), Period::Day(d("2021-01-02")));
        let c = warmed(4, &[(a, PageId(3)), (b, PageId(4))]);
        let mut loaded = Vec::new();
        c.warm(&[(a, PageId(3)), (b, PageId(9))], |p, page| -> Result<_, ()> {
            loaded.push((p, page));
            Ok(cube())
        })
        .unwrap();
        assert_eq!(loaded, vec![(b, PageId(9))], "a tag-exact entry is reused, a stale one reloaded");
        assert!(c.get(b, PageId(9)).is_some());
    }

    #[test]
    fn invalidate_stale_spares_the_current_version() {
        let p = Period::Day(d("2021-01-01"));
        let c = warmed(4, &[(p, PageId(4))]);
        assert!(!c.invalidate_stale(p, PageId(4)), "current copy must survive");
        assert!(c.contains(p));
        assert!(c.invalidate_stale(p, PageId(8)));
        assert!(!c.contains(p));
        assert!(!c.invalidate_stale(p, PageId(8)), "no entry, nothing removed");
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let p = Period::Day(d("2021-01-01"));
        let c = CubeCache::new(CacheConfig { slots: 2 });
        assert!(c.get(p, P0).is_none());
        c.warm(&[(p, P0)], |_, _| -> Result<_, ()> { Ok(cube()) }).unwrap();
        assert!(c.get(p, P0).is_some());
        assert!(c.get(Period::Day(d("2021-01-02")), P0).is_none());
        assert_eq!(c.counters(), (1, 2));
        // `contains` must not perturb the counters.
        let _ = c.contains(p);
        assert_eq!(c.counters(), (1, 2));
    }

    #[test]
    fn warm_error_leaves_cache_unchanged() {
        let c = warmed(2, &days(2));
        assert_eq!(c.len(), 2);
        let r = c.warm(&days(4), |p, _| {
            if p == Period::Day(d("2021-01-04")) {
                Err("boom")
            } else {
                Ok(cube())
            }
        });
        assert!(r.is_err());
        assert_eq!(c.len(), 2, "failed warm must not clobber the warm set");
    }
}
