//! Plumbing shared by the two partitioned facades.
//!
//! [`crate::ShardedIndex`] (country shards) and [`crate::SpatialBank`]
//! (longitude bands) are both a `Vec<TemporalIndex>` in slot order behind
//! a router. Everything that is just "the same thing on every partition"
//! — opening them, reading the epoch vector, pinning snapshots, syncing —
//! lives here once; the facades keep only what differs (routing, the
//! commit protocol, their caches).

use crate::store::{CatalogVersion, IndexError, TemporalIndex};
use std::sync::Arc;

/// Create or open partitions `0..n` (at least one), in slot order.
pub(crate) fn open_each(
    n: usize,
    open: impl Fn(usize) -> Result<TemporalIndex, IndexError>,
) -> Result<Vec<TemporalIndex>, IndexError> {
    (0..n.max(1)).map(open).collect()
}

/// The epoch vector, indexed by slot — the fine-grained response-cache
/// stamp: a publish on partition `i` moves only entry `i`.
pub(crate) fn epochs(stores: &[TemporalIndex]) -> Vec<u64> {
    stores.iter().map(|s| s.epoch()).collect()
}

/// Pin every partition's catalog version, in slot order.
pub(crate) fn snapshots(stores: &[TemporalIndex]) -> Vec<Arc<CatalogVersion>> {
    stores.iter().map(|s| s.snapshot()).collect()
}

/// Fsync every partition.
pub(crate) fn sync(stores: &[TemporalIndex]) -> Result<(), IndexError> {
    stores.iter().try_for_each(|s| s.sync())
}
