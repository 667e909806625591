//! Record-at-a-time aggregation: the semantics oracle and the streaming
//! aggregator reused by the row-scan DBMS baseline.

use crate::model::{
    AnalysisQuery, GroupDim, GroupKey, NetworkSizes, QueryResult, QueryStats, ResultRow, ValueMode,
};
use rased_geo::Point;
use rased_osm_model::{CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};
use rased_temporal::Period;
use std::collections::HashMap;

/// A streaming aggregator implementing the exact query semantics on raw
/// `UpdateList` rows. Feed it records in any order, then [`RecordAggregator::finish`].
///
/// This is both the test oracle ([`naive_execute`]) and the execution core
/// of the row-scan DBMS baseline (Fig. 10): a full-table scan pushes every
/// row through here.
pub struct RecordAggregator<'a> {
    q: &'a AnalysisQuery,
    sizes: Option<&'a NetworkSizes>,
    groups: HashMap<GroupKey, u64>,
}

impl<'a> RecordAggregator<'a> {
    /// Start an aggregation for `q`.
    pub fn new(q: &'a AnalysisQuery, sizes: Option<&'a NetworkSizes>) -> RecordAggregator<'a> {
        RecordAggregator { q, sizes, groups: HashMap::new() }
    }

    /// Offer one record; filtered and grouped per the query.
    pub fn push(&mut self, r: &UpdateRecord) {
        let q = self.q;
        if !q.range.contains(r.date) {
            return;
        }
        if let Some(f) = &q.element_types {
            if !f.contains(&r.element_type) {
                return;
            }
        }
        if let Some(f) = &q.countries {
            if !f.contains(&r.country) {
                return;
            }
        }
        if let Some(f) = &q.road_types {
            if !f.contains(&r.road_type) {
                return;
            }
        }
        if let Some(f) = &q.update_types {
            if !f.contains(&r.update_type) {
                return;
            }
        }
        if let Some(b) = &q.bbox {
            if !b.contains(Point::new(r.lat7, r.lon7)) {
                return;
            }
        }
        let mut key = GroupKey::default();
        for dim in &q.group_by {
            match dim {
                GroupDim::ElementType => key.element_type = Some(r.element_type),
                GroupDim::Country => key.country = Some(r.country),
                GroupDim::RoadType => key.road_type = Some(r.road_type),
                GroupDim::UpdateType => key.update_type = Some(r.update_type),
                GroupDim::Date(g) => key.date = Some(Period::containing(*g, r.date)),
            }
        }
        *self.groups.entry(key).or_insert(0) += 1;
    }

    /// Merge one pre-aggregated cube/block cell: its coordinates projected
    /// onto the query's grouped dimensions, under the date group it was
    /// planned for. The engine's cube and block folds both land here, so
    /// the two paths cannot build different keys. The cell already passed
    /// the dimension filters via [`rased_cube::DimSelection`], and the
    /// spatial/temporal filters are implied by which cubes and blocks
    /// were planned — no per-record re-filtering is possible or needed.
    pub fn push_cell(
        &mut self,
        date: Option<Period>,
        et: usize,
        c: usize,
        r: usize,
        u: usize,
        n: u64,
    ) {
        if n == 0 {
            return;
        }
        let mut key = GroupKey { date, ..GroupKey::default() };
        for dim in &self.q.group_by {
            match dim {
                GroupDim::ElementType => key.element_type = ElementType::from_index(et),
                GroupDim::Country => key.country = Some(CountryId(c as u16)),
                GroupDim::RoadType => key.road_type = Some(RoadTypeId(r as u16)),
                GroupDim::UpdateType => key.update_type = UpdateType::from_index(u),
                GroupDim::Date(_) => {} // already in `date`
            }
        }
        *self.groups.entry(key).or_insert(0) += n;
    }

    /// An empty aggregator for the same query — a gather worker's private
    /// partial, merged back with [`RecordAggregator::absorb`].
    pub fn fork(&self) -> RecordAggregator<'a> {
        RecordAggregator::new(self.q, self.sizes)
    }

    /// Add a partial's groups into this one. Addition commutes, so the
    /// final rows do not depend on how the work was partitioned.
    pub fn absorb(&mut self, part: RecordAggregator<'a>) {
        for (key, n) in part.groups {
            *self.groups.entry(key).or_insert(0) += n;
        }
    }

    /// Produce the final rows (sorted by key; stats left default for the
    /// caller to fill).
    pub fn finish(self) -> QueryResult {
        let grand_total: u64 = self.groups.values().sum();
        let mut rows: Vec<ResultRow> = self
            .groups
            .into_iter()
            .map(|(key, count)| ResultRow {
                key,
                count,
                value: match self.q.value {
                    ValueMode::Count => count as f64,
                    ValueMode::Percentage => percentage_value(count, &key, self.sizes, grand_total),
                },
            })
            .collect();
        rows.sort_by_key(|r| r.key);
        QueryResult { rows, stats: QueryStats::default() }
    }
}

/// Percentage semantics: per-country network size when the row has a
/// country and sizes are known; otherwise percent of the query's grand
/// total.
fn percentage_value(
    count: u64,
    key: &GroupKey,
    sizes: Option<&NetworkSizes>,
    grand_total: u64,
) -> f64 {
    let denom = match (key.country, sizes) {
        (Some(c), Some(s)) => {
            let n = s.get(c);
            if n > 0 {
                n
            } else {
                grand_total
            }
        }
        _ => grand_total,
    };
    if denom == 0 {
        0.0
    } else {
        count as f64 * 100.0 / denom as f64
    }
}

/// Evaluate `q` over `records` by direct scan.
pub fn naive_execute(
    records: &[UpdateRecord],
    q: &AnalysisQuery,
    sizes: Option<&NetworkSizes>,
) -> QueryResult {
    let mut agg = RecordAggregator::new(q, sizes);
    for r in records {
        agg.push(r);
    }
    agg.finish()
}
