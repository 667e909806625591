//! [`ResponseCache`] — the epoch-keyed full-response cache.
//!
//! The RASED workload is Zipf by construction: millions of users mostly
//! refresh the same handful of country/period dashboard tiles. Yet until
//! this module existed every hit re-planned the query, re-ran it over the
//! cube index, and re-serialized the JSON. The epoch-versioned catalog
//! (see `rased_index::TemporalIndex`) makes whole-response caching
//! trivially correct: a response rendered under catalog epoch `E` is a
//! pure function of `(endpoint, normalized params, E)`, so keying the
//! cache by that triple makes staleness *structurally impossible* — a
//! publish bumps the epoch, lookups move to new keys, and the old entries
//! become unreachable garbage that [`ResponseCache::invalidate_shard`]
//! sweeps out.
//!
//! With the country-sharded store (`rased_index::ShardedIndex`) the
//! "epoch" in the key generalizes to a *composite stamp*: a sorted list
//! of `(shard, epoch)` pairs covering exactly the shards the response
//! read ([`RespKey::with_stamp`]). A publish on shard `S` then calls
//! [`ResponseCache::invalidate_shard`]`(S, e)` and sweeps only entries
//! whose stamp includes an older epoch *of that shard* — a
//! country-filtered tile keyed to shard 2 survives a publish that only
//! touched shard 0. A monolithic (1-shard) store is the single-entry
//! stamp `[(0, epoch)]`, nothing more.
//!
//! Viewport (`bbox=`) responses read the *spatial* hierarchy — bank
//! blocks and warehouse rows of the viewport's cover cells — never the
//! country cubes, so their stamps live in a disjoint id namespace:
//! [`SPATIAL_STAMP_BASE`]`| band` at the band's publish epoch. A bank
//! publish that lands records in longitude band `b` sweeps exactly the
//! tiles whose cover touches `b`; viewports over other regions, and every
//! temporal tile, stay hot.
//!
//! What is cached is the *wire form*: pre-serialized status line, headers
//! and body, built by the same [`crate::http::response_head`] the cold path
//! uses, so a cached response is byte-identical to a fresh render by
//! construction (the property suite in `tests/respcache_props.rs` proves
//! it end to end). A hit is a memcpy out of the event loop; only misses
//! reach a worker thread, and concurrent misses for one key are coalesced
//! through a [`FlightGroup`] so a stampede on a cold tile renders once.
//!
//! Bounds: the cache is sharded (fixed 8 ways, deterministic hash) and
//! each shard is LRU-bounded by both bytes and entries — budgets come
//! from `ServerConfig::response_cache_bytes` / `_entries`. Per-entry
//! `requests` / `last_accessed` counters ride inside the entry as relaxed
//! atomics (the LRU map hands out `&V` only) and surface, along with the
//! aggregate hit/miss/eviction/invalidation counters, in the
//! `response_cache` section of `GET /api/metrics`.

use crate::http::response_head;
use crate::json::Json;
use rased_storage::sync::Mutex;
use rased_storage::{FlightGroup, LruCache};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The stamp-id namespace for *spatial* bands: a viewport tile rendered
/// from the spatial bank's longitude band `b` is stamped
/// `(SPATIAL_STAMP_BASE | b, band_epoch)`. Temporal index shards use the
/// low id space directly, so the two hierarchies share one invalidation
/// mechanism without colliding — a cube publish on index shard 2 sweeps
/// stamp id 2, a bank publish on band 2 sweeps stamp id `0x8002`, and
/// neither touches the other's tiles.
pub const SPATIAL_STAMP_BASE: u16 = 0x8000;

/// Shard count. Fixed and small: the cache lock is held for a hash-map
/// probe and an LRU splice, so contention is already light; 8 shards keep
/// 8 event-loop-facing workers from serializing in the worst case.
const SHARDS: usize = 8;

/// A cache key: request path + canonicalized query + the composite
/// *stamp* — the sorted `(shard, epoch)` pairs the response was rendered
/// under. A monolithic store stamps every response `[(0, epoch)]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RespKey {
    path: String,
    params: String,
    stamp: Vec<(u16, u64)>,
}

impl RespKey {
    /// Build a key with the query string *normalized*: parameters are
    /// decoded, sorted by name (then value), and re-encoded, so
    /// `?a=1&b=2` and `?b=2&a=1` — or `%61=1` — land on one cache line.
    /// The stamp is canonicalized the same way (sorted, deduplicated) so
    /// equal read sets land on one cache line regardless of the order
    /// the caller enumerated the shards in.
    pub fn with_stamp(path: &str, query: &str, mut stamp: Vec<(u16, u64)>) -> RespKey {
        let mut params = crate::parse_query_string(query);
        params.sort();
        let mut canon = String::new();
        for (k, v) in &params {
            if !canon.is_empty() {
                canon.push('&');
            }
            canon.push_str(&crate::form_urlencode(k));
            canon.push('=');
            canon.push_str(&crate::form_urlencode(v));
        }
        stamp.sort_unstable();
        stamp.dedup();
        RespKey { path: path.to_string(), params: canon, stamp }
    }

    /// The `(shard, epoch)` pairs this key was rendered under.
    pub fn stamp(&self) -> &[(u16, u64)] {
        &self.stamp
    }

    /// Heap bytes the key owns (its buffers' capacities).
    fn heap_bytes(&self) -> usize {
        self.path.capacity()
            + self.params.capacity()
            + self.stamp.capacity() * std::mem::size_of::<(u16, u64)>()
    }

    /// Display form for metrics: `path?params @ epoch` for the scalar
    /// form, `path?params @ s:e+s:e` for a multi-shard stamp. Spatial
    /// bands display as `g<band>` rather than their raw namespaced id.
    fn display(&self) -> String {
        let at = match self.stamp.as_slice() {
            [(0, e)] => format!("{e}"),
            pairs => {
                let mut s = String::new();
                for (shard, e) in pairs {
                    if !s.is_empty() {
                        s.push('+');
                    }
                    if *shard >= SPATIAL_STAMP_BASE {
                        s.push_str(&format!("g{}:{e}", shard - SPATIAL_STAMP_BASE));
                    } else {
                        s.push_str(&format!("{shard}:{e}"));
                    }
                }
                s
            }
        };
        if self.params.is_empty() {
            format!("{} @ {at}", self.path)
        } else {
            format!("{}?{} @ {at}", self.path, self.params)
        }
    }
}

/// A pre-serialized response. The body is shared (`Arc`) so cloning out
/// of the cache is O(1); the head exists in both `Connection:` variants
/// because the keep-alive decision is per-connection, not per-render.
#[derive(Debug, Clone)]
pub struct CachedResponse {
    status: u16,
    head_keep: Arc<Vec<u8>>,
    head_close: Arc<Vec<u8>>,
    body: Arc<Vec<u8>>,
}

impl CachedResponse {
    /// Pre-serialize a rendered response (no extra headers — cacheable
    /// routes never emit `Retry-After` and friends).
    pub fn new(status: u16, content_type: &str, body: Vec<u8>) -> CachedResponse {
        let keep = response_head(status, content_type, body.len(), true, &[]);
        let close = response_head(status, content_type, body.len(), false, &[]);
        CachedResponse {
            status,
            head_keep: Arc::new(keep.into_bytes()),
            head_close: Arc::new(close.into_bytes()),
            body: Arc::new(body),
        }
    }

    /// The response status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The response body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Append the full wire form (head + body) for the given keep-alive
    /// decision — byte-identical to `http::write_response` on the same
    /// inputs.
    pub fn write_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        let head = if keep_alive { &self.head_keep } else { &self.head_close };
        out.extend_from_slice(head);
        out.extend_from_slice(&self.body);
    }

    /// Bytes this response pins in the cache: its buffers' capacities,
    /// not their lengths — a body rendered into a doubling `String` can
    /// hold nearly twice what it says.
    fn cost(&self) -> usize {
        self.head_keep.capacity() + self.head_close.capacity() + self.body.capacity()
    }
}

/// One cached entry plus its usage stats. The stats are relaxed atomics
/// because the LRU map only hands out shared references.
#[derive(Debug)]
struct Entry {
    resp: CachedResponse,
    /// Times this entry served a hit.
    requests: AtomicU64,
    /// Logical tick (cache-wide lookup counter) of the last hit.
    last_accessed: AtomicU64,
    cost: usize,
}

#[derive(Default)]
struct Shard {
    lru: LruCache<RespKey, Entry>,
    /// Sum of `Entry::cost` over the shard.
    bytes: usize,
}

/// A row of the `top` array in the metrics section.
struct TopEntry {
    key: String,
    requests: u64,
    last_accessed: u64,
    bytes: usize,
}

/// The sharded, LRU-bounded, epoch-keyed response cache.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    /// Concurrent misses on one key render once; followers clone.
    flights: FlightGroup<RespKey, CachedResponse>,
    /// Byte budget per shard (total / SHARDS, min 1).
    shard_bytes: usize,
    /// Entry budget per shard (total / SHARDS, min 1).
    shard_entries: usize,
    /// Logical clock: bumped once per lookup, stamps `last_accessed`.
    tick: AtomicU64,
    /// Per-stamp-id invalidation floors, keyed by stamp id so the sparse
    /// spatial namespace ([`SPATIAL_STAMP_BASE`]`| band`) costs one map
    /// entry instead of a 32k-slot vector. An entry stamped `(s, e)` with
    /// `e < floors[s]` is dead; `insert` refuses such keys so a render
    /// that straddles an invalidation sweep cannot resurrect a stale
    /// epoch. A strict leaf lock (rank `dashboard:floors`): held for a
    /// map probe only, never across a cache-shard lock.
    floors: Mutex<BTreeMap<u16, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ResponseCache {
    /// A cache bounded by `max_bytes` of wire bytes and `max_entries`
    /// entries (both split evenly across shards).
    pub fn new(max_bytes: usize, max_entries: usize) -> ResponseCache {
        ResponseCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new_named(Shard::default(), "dashboard.respcache_shard"))
                .collect(),
            flights: FlightGroup::new(
                SHARDS,
                "dashboard.respcache_flight.map",
                "dashboard.respcache_flight.slot",
            ),
            shard_bytes: (max_bytes / SHARDS).max(1),
            shard_entries: (max_entries / SHARDS).max(1),
            tick: AtomicU64::new(0),
            floors: Mutex::new_named(BTreeMap::new(), "dashboard.respcache_floors"),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Deterministic shard placement (same fold hash family as
    /// `FlightGroup`, so placement is reproducible across runs).
    #[expect(clippy::indexing_slicing, reason = "i is reduced mod shards.len(), which new() keeps >= 1")]
    fn shard(&self, key: &RespKey) -> &Mutex<Shard> {
        struct Fold(u64);
        impl Hasher for Fold {
            fn finish(&self) -> u64 {
                self.0
            }
            fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 =
                        (self.0.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
                }
            }
        }
        let mut h = Fold(0);
        key.hash(&mut h);
        let mut x = h.finish();
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        let i = (x as usize) % self.shards.len();
        &self.shards[i]
    }

    /// Look up a key, counting a hit or a miss and touching the entry's
    /// recency and usage stats.
    pub fn lookup(&self, key: &RespKey) -> Option<CachedResponse> {
        let now = self.tick.fetch_add(1, Relaxed) + 1;
        let shard = self.shard(key);
        let mut guard = shard.lock();
        match guard.lru.get(key) {
            Some(entry) => {
                entry.requests.fetch_add(1, Relaxed);
                entry.last_accessed.store(now, Relaxed);
                let resp = entry.resp.clone();
                drop(guard);
                self.hits.fetch_add(1, Relaxed);
                Some(resp)
            }
            None => {
                drop(guard);
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Render through the cache with single-flight coalescing: concurrent
    /// misses on `key` run `render` once; everyone gets the same bytes.
    /// Only `200` responses are inserted — errors stay cold so a
    /// transient failure is retried, not pinned.
    pub fn render_through(
        &self,
        key: &RespKey,
        mut render: impl FnMut() -> (u16, &'static str, Vec<u8>),
    ) -> CachedResponse {
        let result: Result<CachedResponse, Infallible> = self.flights.run(key.clone(), || {
            // A racing leader may have inserted while we queued for the
            // flight slot; serving that copy keeps the stampede at one
            // render without a second lookup on the hot path.
            if let Some(resp) = self.peek(key) {
                return Ok(resp);
            }
            let (status, content_type, body) = render();
            let resp = CachedResponse::new(status, content_type, body);
            if status == 200 {
                self.insert(key, &resp);
            }
            Ok(resp)
        });
        match result {
            Ok(resp) => resp,
            Err(never) => match never {},
        }
    }

    /// Look up without touching stats or recency (flight-leader recheck).
    fn peek(&self, key: &RespKey) -> Option<CachedResponse> {
        let shard = self.shard(key);
        let guard = shard.lock();
        guard.lru.peek(key).map(|e| e.resp.clone())
    }

    /// True when any `(shard, epoch)` pair of `stamp` is below that
    /// shard's invalidation floor.
    fn is_dead(&self, stamp: &[(u16, u64)]) -> bool {
        let floors = self.floors.lock();
        stamp.iter().any(|&(shard, epoch)| epoch < floors.get(&shard).copied().unwrap_or(0))
    }

    /// Insert a rendered response, evicting LRU entries past the shard's
    /// byte/entry budgets. Refused (a no-op) when any epoch in the key's
    /// stamp is already below its shard's invalidation floor or the
    /// response alone exceeds the shard budget.
    pub fn insert(&self, key: &RespKey, resp: &CachedResponse) {
        if self.is_dead(&key.stamp) {
            return;
        }
        // The stored copy is what stays pinned (a clone holds exactly its
        // bytes, whatever spare capacity the caller's key carried).
        let stored = key.clone();
        let cost = resp.cost() + stored.heap_bytes();
        if cost > self.shard_bytes {
            return;
        }
        let now = self.tick.load(Relaxed);
        let entry = Entry {
            resp: resp.clone(),
            requests: AtomicU64::new(0),
            last_accessed: AtomicU64::new(now),
            cost,
        };
        let mut evicted = 0u64;
        {
            let shard = self.shard(key);
            let mut guard = shard.lock();
            if let Some(old) = guard.lru.insert(stored, entry) {
                guard.bytes = guard.bytes.saturating_sub(old.cost);
            }
            guard.bytes += cost;
            while guard.bytes > self.shard_bytes || guard.lru.len() > self.shard_entries {
                match guard.lru.pop_lru() {
                    Some((_, old)) => {
                        guard.bytes = guard.bytes.saturating_sub(old.cost);
                        evicted += 1;
                    }
                    None => break,
                }
            }
        }
        self.insertions.fetch_add(1, Relaxed);
        self.evictions.fetch_add(evicted, Relaxed);
    }

    /// Drop every entry whose stamp reads index shard `index_shard` at an
    /// epoch older than `epoch`, and raise that shard's insertion floor.
    /// Driven by the catalog publish hook; the sweep is surgical twice
    /// over — entries already re-rendered at the new epoch survive, and
    /// so do entries that never read the published shard at all (a
    /// country tile pinned to another shard stays hot across this
    /// publish).
    pub fn invalidate_shard(&self, index_shard: u16, epoch: u64) {
        {
            let mut floors = self.floors.lock();
            let floor = floors.entry(index_shard).or_insert(0);
            *floor = (*floor).max(epoch);
        }
        let mut swept = 0u64;
        for shard in &self.shards {
            let mut guard = shard.lock();
            let mut dead: Vec<RespKey> = Vec::new();
            guard.lru.for_each(|k, _| {
                if k.stamp.iter().any(|&(s, e)| s == index_shard && e < epoch) {
                    dead.push(k.clone());
                }
            });
            for key in dead {
                if let Some(old) = guard.lru.remove(&key) {
                    guard.bytes = guard.bytes.saturating_sub(old.cost);
                    swept += 1;
                }
            }
        }
        self.invalidations.fetch_add(swept, Relaxed);
    }

    /// Cache hits served so far.
    pub fn hits_total(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses_total(&self) -> u64 {
        self.misses.load(Relaxed)
    }

    /// Entries swept by epoch invalidation so far.
    pub fn invalidations_total(&self) -> u64 {
        self.invalidations.load(Relaxed)
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().lru.len()).sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cached wire bytes across all shards.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().bytes).sum()
    }

    /// Write the `/api/metrics` section into an open JSON object:
    ///
    /// ```json
    /// "response_cache": {"enabled":true,"entries":N,"bytes":N,
    ///   "capacity_bytes":N,"capacity_entries":N,
    ///   "hits":N,"misses":N,"insertions":N,"evictions":N,
    ///   "invalidations":N,"min_epoch":N,"floors":[N,…],
    ///   "top":[{"key":"/api/analysis?… @ E","requests":N,
    ///           "last_accessed":N,"bytes":N},…]}
    /// ```
    ///
    /// `top` lists up to 8 entries by hit count (ties broken by key, so
    /// the order is deterministic) — the bossphorus-style per-entry view
    /// an operator reads to see *which* tiles are hot.
    pub fn write_section(&self, j: &mut Json) {
        let mut top: Vec<TopEntry> = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock();
            guard.lru.for_each(|k, e| {
                top.push(TopEntry {
                    key: k.display(),
                    requests: e.requests.load(Relaxed),
                    last_accessed: e.last_accessed.load(Relaxed),
                    bytes: e.cost,
                });
            });
        }
        top.sort_by(|a, b| b.requests.cmp(&a.requests).then_with(|| a.key.cmp(&b.key)));
        top.truncate(8);

        j.key("response_cache").begin_object();
        j.key("enabled").boolean(true);
        j.kv_uint("entries", self.len() as u64);
        j.kv_uint("bytes", self.bytes() as u64);
        j.kv_uint("capacity_bytes", (self.shard_bytes * SHARDS) as u64);
        j.kv_uint("capacity_entries", (self.shard_entries * SHARDS) as u64);
        j.kv_uint("hits", self.hits_total());
        j.kv_uint("misses", self.misses_total());
        j.kv_uint("insertions", self.insertions.load(Relaxed));
        j.kv_uint("evictions", self.evictions.load(Relaxed));
        j.kv_uint("invalidations", self.invalidations_total());
        let floors = { self.floors.lock().clone() };
        j.kv_uint("min_epoch", floors.get(&0).copied().unwrap_or(0));
        // Dense arrays per hierarchy: `floors[i]` is temporal index shard
        // `i`'s floor, `spatial_floors[b]` is band `b`'s.
        let dense = |j: &mut Json, name: &str, ids: &dyn Fn(&u16) -> Option<usize>| {
            j.key(name).begin_array();
            let last = floors.keys().filter_map(ids).max();
            if let Some(last) = last {
                for i in 0..=last {
                    let floor = floors
                        .iter()
                        .find(|(k, _)| ids(k) == Some(i))
                        .map(|(_, &f)| f)
                        .unwrap_or(0);
                    j.uint(floor);
                }
            }
            j.end_array();
        };
        dense(j, "floors", &|k| (*k < SPATIAL_STAMP_BASE).then_some(*k as usize));
        dense(j, "spatial_floors", &|k| {
            (*k >= SPATIAL_STAMP_BASE).then(|| (*k - SPATIAL_STAMP_BASE) as usize)
        });
        j.key("top").begin_array();
        for t in &top {
            j.begin_object();
            j.kv_string("key", &t.key);
            j.kv_uint("requests", t.requests);
            j.kv_uint("last_accessed", t.last_accessed);
            j.kv_uint("bytes", t.bytes as u64);
            j.end_object();
        }
        j.end_array();
        j.end_object();
    }
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .field("hits", &self.hits_total())
            .field("misses", &self.misses_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(body: &str) -> CachedResponse {
        CachedResponse::new(200, "application/json", body.as_bytes().to_vec())
    }

    /// A key as a monolithic store stamps it: shard 0 at `epoch`.
    fn scalar(path: &str, query: &str, epoch: u64) -> RespKey {
        RespKey::with_stamp(path, query, vec![(0, epoch)])
    }

    #[test]
    fn key_normalization_collapses_param_order_and_encoding() {
        let a = scalar("/api/analysis", "b=2&a=1", 7);
        let b = scalar("/api/analysis", "a=1&b=2", 7);
        let c = scalar("/api/analysis", "%61=1&b=2", 7);
        assert_eq!(a, b);
        assert_eq!(a, c);
        // Different epoch → different key: that *is* the invalidation.
        assert_ne!(a, scalar("/api/analysis", "a=1&b=2", 8));
    }

    #[test]
    fn cached_bytes_match_write_response_exactly() {
        let body = b"{\"ok\":true}".to_vec();
        let cached = CachedResponse::new(200, "application/json", body.clone());
        for keep in [true, false] {
            let mut want = Vec::new();
            crate::http::write_response(&mut want, 200, "application/json", &body, keep, &[])
                .unwrap();
            let mut got = Vec::new();
            cached.write_into(&mut got, keep);
            assert_eq!(got, want, "keep_alive={keep}");
        }
    }

    #[test]
    fn lookup_counts_hits_misses_and_per_entry_stats() {
        let cache = ResponseCache::new(1 << 20, 64);
        let key = scalar("/api/sample", "limit=5", 1);
        assert!(cache.lookup(&key).is_none());
        cache.insert(&key, &resp("hello"));
        assert!(cache.lookup(&key).is_some());
        assert!(cache.lookup(&key).is_some());
        assert_eq!(cache.hits_total(), 2);
        assert_eq!(cache.misses_total(), 1);
        let mut j = Json::new();
        j.begin_object();
        cache.write_section(&mut j);
        j.end_object();
        let json = j.finish();
        assert!(json.contains("\"requests\":2"), "{json}");
        assert!(json.contains("\"hits\":2,\"misses\":1"), "{json}");
    }

    #[test]
    fn invalidation_sweeps_only_older_epochs() {
        let cache = ResponseCache::new(1 << 20, 64);
        let old = scalar("/api/analysis", "a=1", 1);
        let new = scalar("/api/analysis", "a=1", 2);
        cache.insert(&old, &resp("old"));
        cache.insert(&new, &resp("new"));
        cache.invalidate_shard(0, 2);
        assert!(cache.lookup(&old).is_none(), "epoch-1 entry must be swept");
        assert!(cache.lookup(&new).is_some(), "epoch-2 entry must survive");
        assert_eq!(cache.invalidations_total(), 1);
        // The floor also blocks late inserts of dead epochs (a render that
        // straddled the sweep).
        cache.insert(&old, &resp("zombie"));
        assert!(cache.lookup(&old).is_none());
    }

    #[test]
    fn stamp_order_and_duplicates_do_not_split_keys() {
        let a = RespKey::with_stamp("/api/analysis", "a=1", vec![(2, 9), (0, 7)]);
        let b = RespKey::with_stamp("/api/analysis", "a=1", vec![(0, 7), (2, 9), (2, 9)]);
        assert_eq!(a, b);
    }

    #[test]
    fn invalidate_shard_spares_entries_on_other_shards() {
        let cache = ResponseCache::new(1 << 20, 64);
        // Three tiles: one pinned to shard 0, one to shard 2, one fanned
        // out across both.
        let s0 = RespKey::with_stamp("/api/analysis", "c=de", vec![(0, 5)]);
        let s2 = RespKey::with_stamp("/api/analysis", "c=fr", vec![(2, 8)]);
        let fan = RespKey::with_stamp("/api/analysis", "", vec![(0, 5), (2, 8)]);
        cache.insert(&s0, &resp("de"));
        cache.insert(&s2, &resp("fr"));
        cache.insert(&fan, &resp("all"));
        // A publish on shard 0 (epoch 5 → 6) must kill exactly the keys
        // that *read* shard 0 below epoch 6.
        cache.invalidate_shard(0, 6);
        assert!(cache.lookup(&s0).is_none(), "shard-0 tile must be swept");
        assert!(cache.lookup(&fan).is_none(), "fan-out tile read shard 0, must be swept");
        assert!(cache.lookup(&s2).is_some(), "shard-2 tile never read shard 0, must survive");
        assert_eq!(cache.invalidations_total(), 2);
        // The per-shard floor blocks late inserts of dead stamps only.
        cache.insert(&s0, &resp("zombie"));
        assert!(cache.lookup(&s0).is_none());
        let s2b = RespKey::with_stamp("/api/analysis", "c=es", vec![(2, 8)]);
        cache.insert(&s2b, &resp("es"));
        assert!(cache.lookup(&s2b).is_some(), "shard-2 floor untouched, insert must land");
    }

    #[test]
    fn floors_metric_reports_per_shard_state() {
        let cache = ResponseCache::new(1 << 20, 64);
        cache.invalidate_shard(2, 9);
        cache.invalidate_shard(0, 4);
        let mut j = Json::new();
        j.begin_object();
        cache.write_section(&mut j);
        j.end_object();
        let json = j.finish();
        assert!(json.contains("\"min_epoch\":4"), "{json}");
        assert!(json.contains("\"floors\":[4,0,9]"), "{json}");
        assert!(json.contains("\"spatial_floors\":[]"), "{json}");
    }

    #[test]
    fn spatial_band_invalidation_is_confined_to_its_hierarchy() {
        let cache = ResponseCache::new(1 << 20, 64);
        let band = |b: u16| SPATIAL_STAMP_BASE | b;
        // Two viewport tiles in different bands, one temporal tile whose
        // scalar stamp id (2) numerically matches one of the bands.
        let west = RespKey::with_stamp("/api/analysis", "bbox=a", vec![(band(2), 5)]);
        let east = RespKey::with_stamp("/api/analysis", "bbox=b", vec![(band(3), 7)]);
        let cube = RespKey::with_stamp("/api/analysis", "c=de", vec![(2, 5)]);
        cache.insert(&west, &resp("west"));
        cache.insert(&east, &resp("east"));
        cache.insert(&cube, &resp("cube"));
        // A bank publish on band 2 sweeps the band-2 viewport only.
        cache.invalidate_shard(band(2), 6);
        assert!(cache.lookup(&west).is_none(), "band-2 tile must be swept");
        assert!(cache.lookup(&east).is_some(), "band-3 tile must survive");
        assert!(cache.lookup(&cube).is_some(), "temporal shard 2 is a different id space");
        // And the reverse: a cube publish on index shard 2 spares viewports.
        cache.invalidate_shard(2, 6);
        assert!(cache.lookup(&cube).is_none());
        assert!(cache.lookup(&east).is_some());
        // The band floor blocks zombie inserts without a 32k-slot table.
        cache.insert(&west, &resp("zombie"));
        assert!(cache.lookup(&west).is_none());
    }

    #[test]
    fn spatial_floors_metric_and_display_use_band_numbers() {
        let cache = ResponseCache::new(1 << 20, 64);
        let key = RespKey::with_stamp("/api/analysis", "bbox=x", vec![(SPATIAL_STAMP_BASE | 1, 9)]);
        cache.insert(&key, &resp("tile"));
        assert!(cache.lookup(&key).is_some());
        cache.invalidate_shard(SPATIAL_STAMP_BASE | 1, 9);
        let mut j = Json::new();
        j.begin_object();
        cache.write_section(&mut j);
        j.end_object();
        let json = j.finish();
        assert!(json.contains("\"spatial_floors\":[0,9]"), "{json}");
        assert!(json.contains("g1:9"), "band display form, got {json}");
    }

    #[test]
    fn byte_and_entry_budgets_evict_lru() {
        // Tiny budget: each shard holds ~1 small entry.
        let cache = ResponseCache::new(SHARDS * 400, SHARDS);
        let mut keys = Vec::new();
        for i in 0..64 {
            let key = scalar("/api/analysis", &format!("q={i}"), 1);
            cache.insert(&key, &resp(&format!("body-{i}")));
            keys.push(key);
        }
        assert!(cache.len() <= SHARDS, "entry budget exceeded: {}", cache.len());
        assert!(cache.bytes() <= SHARDS * 400, "byte budget exceeded: {}", cache.bytes());
    }

    /// The budget bounds what the entries pin — buffer capacities plus
    /// key bytes — not the lengths their bodies report.
    #[test]
    fn byte_budget_bounds_buffer_capacities() {
        let budget = SHARDS * 4096;
        let cache = ResponseCache::new(budget, 1 << 20);
        for i in 0..256 {
            let mut body = Vec::with_capacity(1500);
            body.extend_from_slice(format!("{{\"i\":{i}}}").as_bytes());
            let key = scalar("/api/analysis", &format!("q={i}"), 1);
            cache.insert(&key, &CachedResponse::new(200, "application/json", body));
        }
        let mut pinned = 0;
        for shard in &cache.shards {
            shard.lock().lru.for_each(|k, e| {
                let r = &e.resp;
                pinned += r.head_keep.capacity() + r.head_close.capacity() + r.body.capacity();
                pinned += k.heap_bytes();
            });
        }
        assert!(cache.len() > SHARDS, "the budget still holds entries: {}", cache.len());
        assert!(pinned <= budget, "entries pin {pinned} B past the {budget} B budget");
        assert_eq!(pinned, cache.bytes());
    }

    #[test]
    fn oversized_response_is_not_cached() {
        let cache = ResponseCache::new(SHARDS * 100, 64);
        let key = scalar("/api/analysis", "big=1", 1);
        cache.insert(&key, &resp(&"x".repeat(4096)));
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn render_through_coalesces_and_caches_200s_only() {
        let cache = ResponseCache::new(1 << 20, 64);
        let key = scalar("/api/analysis", "q=1", 1);
        let mut renders = 0;
        let r = cache.render_through(&key, || {
            renders += 1;
            (200, "application/json", b"ok".to_vec())
        });
        assert_eq!(r.status(), 200);
        assert_eq!(renders, 1);
        assert!(cache.lookup(&key).is_some());

        let err_key = scalar("/api/analysis", "q=bad", 1);
        let r = cache.render_through(&err_key, || (400, "text/plain", b"bad".to_vec()));
        assert_eq!(r.status(), 400);
        assert!(cache.lookup(&err_key).is_none(), "non-200 must stay cold");
    }
}
