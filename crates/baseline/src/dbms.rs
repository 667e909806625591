//! [`DbmsBaseline`]: full-scan row-store execution of analysis queries.

use rased_query::{AnalysisQuery, NetworkSizes, QueryResult, RecordAggregator};
use rased_storage::StorageError;
use rased_warehouse::HeapFile;
use std::time::Instant;

/// The row-scan DBMS baseline (Fig. 10's PostgreSQL).
///
/// Executes an [`AnalysisQuery`] by scanning the entire heap file through
/// its buffer pool and hash-aggregating — the plan a row store is forced
/// into by the multi-attribute `GROUP BY` of the paper's query signature.
/// For fairness with the paper's setup, size the heap's pool to the same
/// 2 GB the paper granted PostgreSQL.
pub struct DbmsBaseline<'a> {
    heap: &'a HeapFile,
    sizes: Option<&'a NetworkSizes>,
}

impl<'a> DbmsBaseline<'a> {
    /// A baseline scanning `heap`.
    pub fn new(heap: &'a HeapFile) -> DbmsBaseline<'a> {
        DbmsBaseline { heap, sizes: None }
    }

    /// Provide per-country network sizes for percentage queries.
    pub fn with_network_sizes(mut self, sizes: &'a NetworkSizes) -> Self {
        self.sizes = Some(sizes);
        self
    }

    /// Execute by full scan + hash aggregation.
    pub fn execute(&self, q: &AnalysisQuery) -> Result<QueryResult, StorageError> {
        let start = Instant::now();
        let io_before = self.heap.file().stats().snapshot();

        let mut agg = RecordAggregator::new(q, self.sizes);
        self.heap.scan(|_, record| agg.push(record))?;
        let mut result = agg.finish();

        result.stats.io = self.heap.file().stats().snapshot().since(&io_before);
        result.stats.wall = start.elapsed();
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;
    use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};
    use rased_query::{naive_execute, GroupDim};
    use rased_storage::IoCostModel;
    use rased_temporal::{Date, DateRange};

    fn records(n: u64) -> Vec<UpdateRecord> {
        (0..n)
            .map(|i| UpdateRecord {
                element_type: ElementType::ALL[(i % 3) as usize],
                update_type: UpdateType::ALL[(i % 5) as usize],
                country: CountryId((i % 6) as u16),
                road_type: RoadTypeId((i % 4) as u16),
                date: Date::new(2021, 1, 1).unwrap().add_days((i % 365) as i32),
                lat7: 0,
                lon7: 0,
                changeset: ChangesetId(i + 1),
            })
            .collect()
    }

    /// A flushed heap of `recs`; the returned [`TempDir`] must outlive it.
    fn heap(tag: &str, recs: &[UpdateRecord], pool_pages: usize) -> (TempDir, HeapFile) {
        let dir = TempDir::new(&format!("dbms-{tag}"));
        let mut h = HeapFile::create(&dir.file("h.pg"), IoCostModel::free(), pool_pages).unwrap();
        for r in recs {
            h.append(r).unwrap();
        }
        h.flush().unwrap();
        (dir, h)
    }

    #[test]
    fn matches_naive_oracle() {
        let recs = records(5000);
        let (_dir, h) = heap("oracle", &recs, 64);
        let q = rased_query::AnalysisQuery::over(DateRange::new(
            Date::new(2021, 2, 1).unwrap(),
            Date::new(2021, 10, 31).unwrap(),
        ))
        .countries(vec![CountryId(0), CountryId(3)])
        .group(GroupDim::Country)
        .group(GroupDim::UpdateType);
        let got = DbmsBaseline::new(&h).execute(&q).unwrap();
        let want = naive_execute(&recs, &q, None);
        assert_eq!(got.rows, want.rows);
    }

    #[test]
    fn scan_cost_is_window_independent() {
        // The defining behaviour of Fig. 10: pages read do not depend on
        // the query window.
        let recs = records(20_000);
        let (_dir, h) = heap("constcost", &recs, 0); // no pool: every scan hits disk
        let narrow = rased_query::AnalysisQuery::over(DateRange::new(
            Date::new(2021, 6, 1).unwrap(),
            Date::new(2021, 6, 2).unwrap(),
        ));
        let wide = rased_query::AnalysisQuery::over(DateRange::new(
            Date::new(2021, 1, 1).unwrap(),
            Date::new(2021, 12, 31).unwrap(),
        ));
        let a = DbmsBaseline::new(&h).execute(&narrow).unwrap();
        let b = DbmsBaseline::new(&h).execute(&wide).unwrap();
        assert_eq!(a.stats.io.reads, b.stats.io.reads);
        assert!(a.stats.io.reads > 0);
        assert!(b.total_count() > a.total_count());
    }

    #[test]
    fn warm_pool_avoids_rereads() {
        let recs = records(2000);
        let (_dir, h) = heap("pool", &recs, 1024); // pool bigger than the relation
        let q = rased_query::AnalysisQuery::over(DateRange::new(
            Date::new(2021, 1, 1).unwrap(),
            Date::new(2021, 12, 31).unwrap(),
        ));
        let first = DbmsBaseline::new(&h).execute(&q).unwrap();
        let second = DbmsBaseline::new(&h).execute(&q).unwrap();
        assert!(first.stats.io.reads > 0);
        assert_eq!(second.stats.io.reads, 0, "relation fits in the 'buffer'");
        assert_eq!(first.rows, second.rows);
    }
}
