//! Shard routing: the single home of every placement function.
//!
//! Three subsystems must agree, byte for byte, on where data lives — the
//! ingest splitter ([`crate::ShardedIndex`]), the query router
//! (`rased-query` predicate pushdown), and the dashboard's response-cache
//! stamper (`rased-dashboard` event loop). A disagreement is silent
//! corruption: a query scattered to the wrong shard returns zeros, and a
//! cache stamp covering the wrong shard serves stale tiles after a
//! publish. Every assignment function therefore lives *here* and nowhere
//! else; callers re-export rather than re-derive.
//!
//! This module is the lock-rank table's `index:shard_router` slot (rank 17
//! in `lint.toml`): routing is pure arithmetic and takes no locks, so it
//! can be called from any rank, including inside the dashboard event loop.

use rased_geo::CellId;
use rased_osm_model::CountryId;
use rased_temporal::Date;

/// The shard owning `country`'s cells when the store is split `shards`
/// ways. This is *the* assignment function: ingest splitting, query
/// routing, and response-cache stamping must all agree on it.
pub fn shard_for(country: CountryId, shards: usize) -> usize {
    country.index() % shards.max(1)
}

/// The shard that always commits `day` (possibly with an all-zero cube)
/// and commits it last, carrying the durable row watermark. Keyed by the
/// *month* ordinal, so every day of a calendar month shares one marker
/// shard: a publish unit is at most one month of days, and its one marker
/// commit lands after every other shard's part of the unit. Round-robin
/// by month so no single shard accumulates every bookkeeping cube.
pub fn marker_shard(day: Date, shards: usize) -> usize {
    let month = i64::from(day.year()) * 12 + i64::from(day.month()) - 1;
    month.rem_euclid(shards.max(1) as i64) as usize
}

/// The spatial-bank shard owning grid cell `cell` when the bank is split
/// `shards` ways over a grid `cols` columns wide: contiguous longitude
/// bands, so a viewport (an axis-aligned box, hence a contiguous column
/// range) touches a contiguous — and minimal — run of shards. A publish
/// of cells in one band bumps only that band's epoch; viewport tiles over
/// other bands stay cached.
pub fn spatial_shard_for(cell: CellId, cols: u32, shards: usize) -> usize {
    let shards = shards.max(1);
    let cols = cols.max(1) as usize;
    ((cell.col as usize).min(cols - 1) * shards) / cols
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn country_routing_is_total_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for c in 0..600u16 {
                let s = shard_for(CountryId(c), shards);
                assert!(s < shards);
            }
        }
        // Zero shards is clamped, never a division by zero.
        assert_eq!(shard_for(CountryId(5), 0), 0);
        assert_eq!(marker_shard(Date::new(2021, 1, 1).unwrap(), 0), 0);
    }

    #[test]
    fn a_month_has_one_marker_and_months_rotate() {
        for shards in [1usize, 2, 3, 4] {
            let mut markers = Vec::new();
            for month in 1..=12 {
                let first = Date::new(2021, month, 1).unwrap();
                let m = marker_shard(first, shards);
                assert!(m < shards);
                let mut day = first;
                while day <= first.month_end() {
                    assert_eq!(marker_shard(day, shards), m, "{day} leaves its month's marker");
                    day = day.succ();
                }
                markers.push(m);
            }
            // Consecutive months rotate through every shard, across a year
            // boundary too.
            for (i, pair) in markers.windows(2).enumerate() {
                assert_eq!(pair[1], (pair[0] + 1) % shards, "month {} does not rotate", i + 2);
            }
            let dec = marker_shard(Date::new(2020, 12, 31).unwrap(), shards);
            assert_eq!(marker_shard(Date::new(2021, 1, 1).unwrap(), shards), (dec + 1) % shards);
        }
    }

    #[test]
    fn spatial_bands_are_contiguous_and_cover_all_shards() {
        let cols = 16u32;
        for shards in [1usize, 2, 4, 7] {
            let mut last = 0usize;
            let mut seen = vec![false; shards];
            for col in 0..cols as u16 {
                let s = spatial_shard_for(CellId { row: 3, col }, cols, shards);
                assert!(s < shards);
                assert!(s >= last, "bands must be monotone in column");
                last = s;
                if let Some(slot) = seen.get_mut(s) {
                    *slot = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "every shard owns some band at n={shards}");
        }
        // Row never matters: a band is a full column strip.
        for row in 0..40u16 {
            assert_eq!(
                spatial_shard_for(CellId { row, col: 9 }, cols, 4),
                spatial_shard_for(CellId { row: 0, col: 9 }, cols, 4)
            );
        }
        // An out-of-grid column clamps instead of indexing past the bands.
        assert_eq!(spatial_shard_for(CellId { row: 0, col: 999 }, cols, 4), 3);
    }
}
