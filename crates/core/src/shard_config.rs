//! [`ShardConfig`] — knobs for the country-sharded cube store.
//!
//! Lives in `rased-core` next to [`crate::ExecConfig`] for the same
//! reason: every front end (CLI `--shards`, dashboard `serve`, tests, the
//! bench harness) should share one vocabulary for "how many partitions
//! does this system's cube store have". Unlike `ExecConfig`, the shard
//! count is *structural*: it shapes the on-disk layout, so
//! [`crate::RasedConfig::save`] persists it and reopening with a
//! different count is an error.

/// Configuration for the country-sharded cube store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of independent `TemporalIndex` shards the country space is
    /// partitioned across. `1` (the default) keeps the classic monolithic
    /// store — and an on-disk layout bit-compatible with it. `0` is
    /// normalized to `1`.
    pub shards: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig { shards: 1 }
    }
}

impl ShardConfig {
    /// The effective shard count (at least 1).
    pub fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_monolithic() {
        assert_eq!(ShardConfig::default().effective_shards(), 1);
    }

    #[test]
    fn zero_normalizes_to_one() {
        assert_eq!(ShardConfig { shards: 0 }.effective_shards(), 1);
    }
}
