//! Query and result types.

use rased_geo::BBox;
use rased_osm_model::{CountryId, ElementType, RoadTypeId, UpdateType};
use rased_storage::IoSnapshot;
use rased_temporal::{Date, DateRange, Granularity, Period};
use std::time::Duration;

/// A dimension to group on. `Date` carries the grouping granularity —
/// "daily changes" time series group on `Date(Day)`, yearly roll-ups on
/// `Date(Year)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupDim {
    ElementType,
    Country,
    RoadType,
    UpdateType,
    Date(Granularity),
}

/// Report raw counts or percentages (§IV-A: "absolute numbers or
/// percentages of the country's road network size").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueMode {
    Count,
    /// Percentage of the per-country road-network size ([`NetworkSizes`]);
    /// rows without a country in their group key fall back to percentage of
    /// the query's grand total.
    Percentage,
}

/// Per-country road-network sizes (element counts), indexed by
/// [`CountryId`]. Used as the denominator for [`ValueMode::Percentage`].
#[derive(Debug, Clone, Default)]
pub struct NetworkSizes {
    sizes: Vec<u64>,
}

impl NetworkSizes {
    /// Build from a dense per-country vector.
    pub fn new(sizes: Vec<u64>) -> NetworkSizes {
        NetworkSizes { sizes }
    }

    /// The network size for a country (0 when unknown).
    pub fn get(&self, c: CountryId) -> u64 {
        self.sizes.get(c.index()).copied().unwrap_or(0)
    }
}

/// An analysis query: the SQL signature of §IV-A as a value.
///
/// `None` filters mean "no constraint on this attribute".
#[derive(Debug, Clone)]
pub struct AnalysisQuery {
    pub range: DateRange,
    pub element_types: Option<Vec<ElementType>>,
    pub countries: Option<Vec<CountryId>>,
    pub road_types: Option<Vec<RoadTypeId>>,
    pub update_types: Option<Vec<UpdateType>>,
    /// Spatial filter: keep only updates whose (lat, lon) falls inside
    /// this box (border-inclusive). `None` = no spatial constraint. This
    /// is the dashboard's viewport drill-down; the engine answers it from
    /// the spatial block bank where materialized, warehouse scans where
    /// not.
    pub bbox: Option<BBox>,
    pub group_by: Vec<GroupDim>,
    pub value: ValueMode,
}

impl AnalysisQuery {
    /// A query over `range` with no filters, no grouping, counting.
    pub fn over(range: DateRange) -> AnalysisQuery {
        AnalysisQuery {
            range,
            element_types: None,
            countries: None,
            road_types: None,
            update_types: None,
            bbox: None,
            group_by: Vec::new(),
            value: ValueMode::Count,
        }
    }

    /// Restrict to the given element types.
    pub fn elements(mut self, e: impl Into<Vec<ElementType>>) -> Self {
        self.element_types = Some(e.into());
        self
    }

    /// Restrict to the given countries.
    pub fn countries(mut self, c: impl Into<Vec<CountryId>>) -> Self {
        self.countries = Some(c.into());
        self
    }

    /// Restrict to the given road types.
    pub fn roads(mut self, r: impl Into<Vec<RoadTypeId>>) -> Self {
        self.road_types = Some(r.into());
        self
    }

    /// Restrict to the given update types.
    pub fn updates(mut self, u: impl Into<Vec<UpdateType>>) -> Self {
        self.update_types = Some(u.into());
        self
    }

    /// Restrict to updates inside `b` (viewport drill-down).
    pub fn within(mut self, b: BBox) -> Self {
        self.bbox = Some(b);
        self
    }

    /// Add a grouping dimension (in addition to any already set).
    pub fn group(mut self, dim: GroupDim) -> Self {
        if !self.group_by.contains(&dim) {
            self.group_by.push(dim);
        }
        self
    }

    /// Report percentages instead of counts.
    pub fn percentage(mut self) -> Self {
        self.value = ValueMode::Percentage;
        self
    }

    /// The date grouping granularity, if any.
    pub fn date_granularity(&self) -> Option<Granularity> {
        self.group_by.iter().find_map(|d| match d {
            GroupDim::Date(g) => Some(*g),
            _ => None,
        })
    }
}

/// The group-by key of one result row: `Some` exactly for grouped
/// dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct GroupKey {
    pub element_type: Option<ElementType>,
    pub country: Option<CountryId>,
    pub road_type: Option<RoadTypeId>,
    pub update_type: Option<UpdateType>,
    pub date: Option<Period>,
}

// The packed form of a `GroupKey`: one `u128` whose integer order is the
// key's derived `Ord`. Fields sit most significant first in declaration
// order, each `None` as 0 and `Some(x)` as 1 + x's rank, so comparing the
// integers compares field by field. A period is a presence bit, its
// variant (2 bits, declaration order) and a 64-bit payload: sign-flipped
// day or year numbers, or a month's sign-flipped year above its month
// number. Every `GroupKey` packs, including out-of-calendar periods.
const ELEMENT_SHIFT: u32 = 105; // 2 bits
const COUNTRY_SHIFT: u32 = 88; // 17 bits
const ROAD_SHIFT: u32 = 71; // 17 bits
const UPDATE_SHIFT: u32 = 67; // 4 bits
const DATE_SOME: u128 = 1 << 66; // then 2 variant bits, then the payload

/// An `i32` as a `u32` of the same order.
fn flip(x: i32) -> u128 {
    (x as u32 ^ 0x8000_0000) as u128
}

fn unflip(bits: u128) -> i32 {
    (bits as u32 ^ 0x8000_0000) as i32
}

/// The `width`-bit field at `shift`, as 1 + rank; `None` for 0.
fn rank(bits: u128, shift: u32, width: u32) -> Option<usize> {
    (((bits >> shift) & ((1 << width) - 1)) as usize).checked_sub(1)
}

impl GroupKey {
    /// The key as one integer: equal keys pack equal, and the integers
    /// order as the keys do. The aggregator hashes and sorts these.
    pub fn pack(&self) -> u128 {
        let date = match self.date {
            None => 0,
            Some(p) => {
                DATE_SOME
                    | match p {
                        Period::Day(d) => flip(d.days()),
                        Period::Week(d) => 1 << 64 | flip(d.days()),
                        Period::Month(y, m) => 2 << 64 | flip(y) << 32 | m as u128,
                        Period::Year(y) => 3 << 64 | flip(y),
                    }
            }
        };
        let some = |x: Option<usize>, shift: u32| x.map_or(0, |i| (i as u128 + 1) << shift);
        some(self.element_type.map(ElementType::index), ELEMENT_SHIFT)
            | some(self.country.map(|c| c.0 as usize), COUNTRY_SHIFT)
            | some(self.road_type.map(|r| r.0 as usize), ROAD_SHIFT)
            | some(self.update_type.map(UpdateType::index), UPDATE_SHIFT)
            | date
    }

    /// Inverse of [`GroupKey::pack`]. Bits no key packs to decode to an
    /// unspecified key.
    pub fn unpack(bits: u128) -> GroupKey {
        let date = (bits & DATE_SOME != 0).then(|| match (bits >> 64) & 3 {
            0 => Period::Day(Date::from_days(unflip(bits))),
            1 => Period::Week(Date::from_days(unflip(bits))),
            2 => Period::Month(unflip(bits >> 32), bits as u32),
            _ => Period::Year(unflip(bits)),
        });
        GroupKey {
            element_type: rank(bits, ELEMENT_SHIFT, 2).and_then(ElementType::from_index),
            country: rank(bits, COUNTRY_SHIFT, 17).map(|c| CountryId(c as u16)),
            road_type: rank(bits, ROAD_SHIFT, 17).map(|r| RoadTypeId(r as u16)),
            update_type: rank(bits, UPDATE_SHIFT, 4).and_then(UpdateType::from_index),
            date,
        }
    }
}

/// One output row.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    pub key: GroupKey,
    /// Raw matched-update count.
    pub count: u64,
    /// The reported value: `count` under [`ValueMode::Count`], the
    /// percentage under [`ValueMode::Percentage`].
    pub value: f64,
}

/// Execution metrics for one query — the quantities Figures 7, 9 and 10
/// report.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Cubes served from the cube cache.
    pub cubes_from_cache: usize,
    /// Cubes read from disk.
    pub cubes_from_disk: usize,
    /// Days covered for free because no cube exists (no data).
    pub empty_days: usize,
    /// Spatial blocks served from the bank's block cache (viewport path).
    pub blocks_from_cache: usize,
    /// Spatial blocks read from disk (viewport path).
    pub blocks_from_disk: usize,
    /// (cell, day) pairs with no materialized block, answered by a
    /// warehouse scan instead (viewport path).
    pub scan_days: usize,
    /// Warehouse rows visited by viewport scan fallbacks and boundary
    /// cells (0 when the whole answer came from blocks).
    pub scan_rows: u64,
    /// Physical I/O performed (reads/bytes and modeled latency).
    pub io: IoSnapshot,
    /// Wall-clock execution time (planning + fetch + aggregate).
    pub wall: Duration,
    /// Catalog epoch the query was pinned to for its whole plan + execute.
    /// Results reflect exactly the publishes committed up to this epoch.
    pub epoch: u64,
    /// Modeled I/O latency on the *critical path*: with a parallel
    /// executor, disk fetches on different workers overlap, so the modeled
    /// response time charges only the worker with the most disk fetches
    /// (sequential execution degenerates to the full modeled total).
    pub io_critical: Duration,
}

impl QueryStats {
    /// Wall time plus the total modeled I/O latency — the "as if on the
    /// paper's disk" response time of a strictly serial device, used to
    /// reproduce Figures 7/9/10.
    pub fn modeled_total(&self) -> Duration {
        self.wall + self.io.modeled
    }

    /// Wall time plus the critical-path modeled I/O latency — the response
    /// time when workers overlap their fetches (Figure 11's currency). For
    /// a sequential run this equals [`QueryStats::modeled_total`] up to
    /// I/O attributable to concurrent queries.
    pub fn modeled_response(&self) -> Duration {
        self.wall + self.io_critical
    }
}

/// A complete query answer.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    pub rows: Vec<ResultRow>,
    pub stats: QueryStats,
}

impl QueryResult {
    /// Total matched updates across all rows.
    pub fn total_count(&self) -> u64 {
        self.rows.iter().map(|r| r.count).sum()
    }

    /// Rows sorted by value, descending (the dashboard's default ordering).
    pub fn sorted_desc(mut self) -> QueryResult {
        self.rows.sort_by(|a, b| b.value.total_cmp(&a.value).then(a.key.cmp(&b.key)));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rased_temporal::Date;

    fn range() -> DateRange {
        DateRange::new(Date::new(2021, 1, 1).unwrap(), Date::new(2021, 12, 31).unwrap())
    }

    #[test]
    fn builder_composes() {
        let q = AnalysisQuery::over(range())
            .countries(vec![CountryId(1), CountryId(2)])
            .updates(UpdateType::NEW_OR_UPDATE.to_vec())
            .group(GroupDim::Country)
            .group(GroupDim::ElementType)
            .group(GroupDim::Country) // duplicate ignored
            .percentage();
        assert_eq!(q.group_by.len(), 2);
        assert_eq!(q.value, ValueMode::Percentage);
        assert_eq!(q.countries.as_deref(), Some(&[CountryId(1), CountryId(2)][..]));
        assert_eq!(q.date_granularity(), None);
        let q2 = q.group(GroupDim::Date(Granularity::Day));
        assert_eq!(q2.date_granularity(), Some(Granularity::Day));
    }

    #[test]
    fn network_sizes_lookup() {
        let s = NetworkSizes::new(vec![10, 20]);
        assert_eq!(s.get(CountryId(1)), 20);
        assert_eq!(s.get(CountryId(9)), 0);
    }

    #[test]
    fn result_sorting() {
        let mk = |c: u16, count: u64| ResultRow {
            key: GroupKey { country: Some(CountryId(c)), ..GroupKey::default() },
            count,
            value: count as f64,
        };
        let r = QueryResult { rows: vec![mk(1, 5), mk(2, 50), mk(3, 20)], stats: QueryStats::default() };
        let sorted = r.sorted_desc();
        let order: Vec<u64> = sorted.rows.iter().map(|r| r.count).collect();
        assert_eq!(order, [50, 20, 5]);
        assert_eq!(sorted.total_count(), 75);
    }
}
