//! Storage engine for RASED (§VI).
//!
//! The paper stores every data cube in "one disk page" of ~4 MB and reasons
//! about query cost in *number of cubes retrieved from disk* (§VII). This
//! crate provides that abstraction:
//!
//! * [`RecordFile`] — an append-only file of byte-addressed records, one
//!   per stored cube or block, packed with no padding (the index stores);
//! * [`PageFile`] — a file of fixed-size pages with explicit allocation,
//!   positioned reads/writes, and a persistent header (the warehouse heap
//!   and hash index);
//! * [`IoStats`] — exact physical-I/O counters (reads, writes, bytes,
//!   syncs);
//! * [`IoCostModel`] — a deterministic latency model (seek + transfer)
//!   accumulated alongside the counters. On a modern dev box the OS page
//!   cache hides the disk/memory asymmetry that Figures 7, 9 and 10 of the
//!   paper measure; the model restores it reproducibly. Raw counters are
//!   always reported too, so no result depends on trusting the model.
//! * [`BufferPool`] — a sharded LRU page cache with hit/miss accounting and
//!   single-flight miss coalescing, used by the warehouse and the row-scan
//!   baseline (the cube index has its own level-aware cache per §VII-A);
//! * [`LruCache`] / [`FlightGroup`] — the concurrency-grade building
//!   blocks behind both caches: an O(1) recency list and a
//!   leader/follower in-flight-miss coalescer, reused by `rased-index`;
//! * [`DiskHashIndex`] — a persistent extendible hash index (the
//!   warehouse's ChangesetID index, §VI-B);
//! * [`WordHasher`] — the one deterministic hash for program-derived keys
//!   (maps and shard picks); client-chosen keys keep `RandomState`.

mod buffer;
pub mod bytes;
mod flight;
mod hash;
mod hash_index;
mod lru;
mod pagefile;
mod recordfile;
mod stats;
pub mod sync;

pub use buffer::{BufferPool, PoolStats};
pub use flight::FlightGroup;
pub use hash::{shard_of, WordHashMap, WordHashState, WordHasher};
pub use hash_index::DiskHashIndex;
pub use lru::LruCache;
pub use pagefile::{PageFile, PageId, StorageError};
pub use recordfile::RecordFile;
pub use stats::{IoCostModel, IoStats, IoSnapshot};
