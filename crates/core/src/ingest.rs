//! The ingestion pipeline: crawl a dataset's files into the system.

use crate::system::{Rased, RasedError};
use rased_collector::{CrawlStats, DailyCrawler, MonthlyCrawler};
use rased_cube::DataCube;
use rased_osm_gen::Dataset;
use rased_osm_model::{ChangesetMeta, CountryResolver, UpdateRecord};
use rased_osm_xml::ChangesetReader;
use rased_temporal::{Date, DateRange, Period};
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// What an ingestion run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestReport {
    /// Days ingested through the daily crawler.
    pub days: usize,
    /// Months refined through the monthly crawler.
    pub months: usize,
    /// Daily-crawler statistics (coarse update types).
    pub daily: CrawlStats,
    /// Monthly-crawler statistics (refined update types).
    pub monthly: CrawlStats,
    /// Total cube maintenance operations (reads + writes).
    pub maintenance_ops: usize,
}

impl Rased {
    /// Ingest a generated [`Dataset`]: replay the daily crawler over every
    /// day (building daily cubes and warehouse rows, §V/§VI-A), then the
    /// monthly crawler over every complete month (refining update types and
    /// rebuilding that month's cubes), and finally warm the cube cache.
    pub fn ingest_dataset(&self, dataset: &Dataset) -> Result<IngestReport, RasedError> {
        let atlas = dataset.atlas();
        let report = self.ingest_files(
            &atlas,
            dataset.config.range,
            |day| dataset.paths.diff(day),
            |day| dataset.paths.changesets(day),
            |y, m| dataset.paths.history(y, m),
        )?;
        Ok(report)
    }

    /// Ingest from arbitrary file layout (the CLI uses this for datasets on
    /// disk without the in-memory [`Dataset`] handle).
    ///
    /// Daily crawling (XML parsing + changeset joins) fans out across a
    /// small thread pool — days are independent — while cube maintenance
    /// and warehouse appends stay sequential in date order, so results are
    /// bit-identical to a serial run.
    pub fn ingest_files(
        &self,
        resolver: &(dyn CountryResolver + Sync),
        range: DateRange,
        diff_path: impl Fn(Date) -> std::path::PathBuf + Sync,
        changesets_path: impl Fn(Date) -> std::path::PathBuf + Sync,
        history_path: impl Fn(i32, u32) -> std::path::PathBuf,
    ) -> Result<IngestReport, RasedError> {
        let mut report = IngestReport::default();

        // --- daily pipeline ------------------------------------------------
        let days: Vec<Date> = range.days().collect();
        let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        // Cloned so the parallel parse borrows no part of `self` while the
        // sequential apply mutates it. The table is a few KB.
        let road_table = self.road_table.clone();
        for chunk in days.chunks(parallelism.max(1) * 4) {
            // Parse this chunk's files in parallel...
            type Parsed = Result<(Vec<rased_osm_model::UpdateRecord>, CrawlStats), RasedError>;
            let parsed: Vec<Parsed> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunk
                    .iter()
                    .map(|&day| {
                        let diff_path = &diff_path;
                        let changesets_path = &changesets_path;
                        let road_table = &road_table;
                        scope.spawn(move || -> Parsed {
                            let diff = BufReader::new(File::open(diff_path(day))?);
                            let changesets =
                                BufReader::new(File::open(changesets_path(day))?);
                            let crawler = DailyCrawler::new(resolver, road_table);
                            Ok(crawler.crawl(diff, changesets)?)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(RasedError::Io(std::io::Error::other(
                                "crawler thread panicked",
                            )))
                        })
                    })
                    .collect()
            });
            // ...then ingest sequentially in date order.
            for (day, parsed) in chunk.iter().zip(parsed) {
                let (records, stats) = parsed?;
                report.daily += stats;
                report.maintenance_ops += self.apply_day(*day, &records)?;
                report.days += 1;
            }
        }

        // --- monthly refinement ---------------------------------------------
        // Only months fully inside the range have a complete full-history
        // dump; refine those.
        for month in range.periods_within(rased_temporal::Granularity::Month) {
            let Period::Month(y, m) = month else { continue };
            let (by_day, stats) =
                self.crawl_month(resolver, &history_path(y, m), &changesets_path, y, m)?;
            report.monthly += stats;
            report.maintenance_ops += self.apply_month(y, m, &by_day)?;
            report.months += 1;
        }

        self.index.warm_cache()?;
        self.sync()?;
        Ok(report)
    }

    /// Crawl one month's full-history dump (plus its days' changeset files)
    /// into refined per-day records. Shared by the batch path above and
    /// the streaming [`crate::IngestController`].
    pub(crate) fn crawl_month(
        &self,
        resolver: &dyn CountryResolver,
        history_path: &Path,
        changesets_path: impl Fn(Date) -> PathBuf,
        y: i32,
        m: u32,
    ) -> Result<(HashMap<Date, Vec<UpdateRecord>>, CrawlStats), RasedError> {
        let history = BufReader::new(File::open(history_path)?);
        let mut metas: Vec<ChangesetMeta> = Vec::new();
        for day in Period::Month(y, m).range().days() {
            let reader = ChangesetReader::new(BufReader::new(File::open(changesets_path(day))?));
            for meta in reader {
                metas.push(meta.map_err(rased_collector::CollectError::from)?);
            }
        }
        let crawler = MonthlyCrawler::new(resolver, &self.road_table);
        Ok(crawler.crawl(history, metas, y, m)?)
    }

    /// Publish one day: expand zones, build the daily cube, append + flush
    /// the warehouse rows, then commit the cube (and its roll-ups) as one
    /// unit carrying the flushed row count as its durable watermark.
    /// Returns the cube maintenance ops performed. Shared by the batch
    /// path above and the streaming [`crate::IngestController`].
    ///
    /// Ordering is the crash-safety contract: warehouse rows become
    /// durable *before* the cube unit that implies them, so a day present
    /// in the index always has its sample rows — which is what lets the
    /// streaming resume check skip already-indexed days. If the cube
    /// commit fails after the rows went in, they are truncated back out
    /// so a retry (or re-enqueue) cannot double-insert them.
    pub(crate) fn apply_day(
        &self,
        day: Date,
        records: &[rased_osm_model::UpdateRecord],
    ) -> Result<usize, RasedError> {
        // Zones (§VI-A): cubes and network sizes credit containing
        // zones too; the warehouse keeps only the original rows.
        let expanded = self.config.zones.expand_all(records);
        let cube = DataCube::from_records(self.config.schema, &expanded)
            .map_err(rased_index::IndexError::from)?;
        let base = self.warehouse.row_count();
        let published = self
            .warehouse
            .insert_batch(records)
            .map_err(RasedError::from)
            .and_then(|_| Ok(self.warehouse.flush()?))
            .and_then(|()| {
                Ok(self.index.ingest_day_marked(day, &cube, self.warehouse.row_count())?)
            });
        match published {
            Ok(maint) => {
                // Bank blocks publish strictly last: a crash here leaves the
                // day on the warehouse-scan fallback path, never a block for
                // a day the index lacks. Blocks are built from the
                // *original* records — geography is explicit in the cell
                // key, so no zone expansion (viewport counts attribute to
                // the actual country, matching the warehouse rows the scan
                // fallback would return).
                self.bank.publish_day(day, records)?;
                self.track_network(&expanded);
                Ok(maint.total_ops())
            }
            Err(e) => {
                // Roll the partial day back; if even that fails the
                // reopen-time trim to the durable watermark (still `base`)
                // repairs it.
                let _ = self.warehouse.truncate_rows(base);
                Err(e)
            }
        }
    }

    /// Publish one month's refinement: rebuild the month's daily cubes from
    /// refined records and commit the rebuild as one unit.
    pub(crate) fn apply_month(
        &self,
        y: i32,
        m: u32,
        by_day: &HashMap<Date, Vec<rased_osm_model::UpdateRecord>>,
    ) -> Result<usize, RasedError> {
        let mut cubes: HashMap<Date, DataCube> = HashMap::new();
        for (day, records) in by_day {
            let expanded = self.config.zones.expand_all(records);
            cubes.insert(
                *day,
                DataCube::from_records(self.config.schema, &expanded)
                    .map_err(rased_index::IndexError::from)?,
            );
        }
        let maint = self.index.rebuild_month(y, m, &cubes)?;
        // The warehouse rows keep the refined types too — otherwise a
        // viewport query's scan fallback (and §IV-B sample drill-downs)
        // would disagree with the rebuilt cubes and blocks.
        let flat: Vec<rased_osm_model::UpdateRecord> =
            by_day.values().flat_map(|rs| rs.iter().copied()).collect();
        self.warehouse.refine_types(&flat)?;
        // Refine the bank's blocks last (original records, same as
        // `apply_day`); only bands with a stake in the month republish.
        let refined: std::collections::BTreeMap<Date, Vec<rased_osm_model::UpdateRecord>> =
            by_day.iter().map(|(d, rs)| (*d, rs.clone())).collect();
        self.bank.rebuild_month(y, m, &refined)?;
        Ok(maint.total_ops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RasedConfig;
    use dettest::TempDir;
    use rased_cube::CubeSchema;
    use rased_osm_gen::DatasetConfig;
    use rased_osm_model::UpdateType;
    use rased_query::{naive_execute, AnalysisQuery, GroupDim};

    fn small_dataset(dir: &TempDir) -> Dataset {
        let mut cfg = DatasetConfig::small(21);
        cfg.range = DateRange::new(
            Date::new(2021, 1, 1).unwrap(),
            Date::new(2021, 2, 28).unwrap(),
        );
        cfg.sim.daily_edits_mean = 30.0;
        cfg.seed_nodes_per_country = 12;
        Dataset::generate(&dir.file("osm"), cfg).unwrap()
    }

    fn system_for(dir: &TempDir, dataset: &Dataset) -> Rased {
        let schema = CubeSchema::new(
            dataset.config.world.n_countries,
            dataset.config.sim.n_road_types,
        );
        let config = RasedConfig::new(dir.file("system")).with_schema(schema);
        Rased::create(config).unwrap()
    }

    #[test]
    fn end_to_end_counts_match_ground_truth() {
        let dir = TempDir::new("core-e2e");
        let dataset = small_dataset(&dir);
        let rased = system_for(&dir, &dataset);
        let report = rased.ingest_dataset(&dataset).unwrap();
        assert_eq!(report.days, 59);
        assert_eq!(report.months, 2, "Jan + Feb are complete months");
        assert_eq!(report.daily.emitted as usize, dataset.truth.len());
        assert_eq!(report.daily.skipped_not_road, 0, "simulator only makes roads");

        // After monthly refinement, the index must agree exactly with the
        // ground truth (exact update types) on a grouped query.
        let q = AnalysisQuery::over(dataset.config.range)
            .group(GroupDim::Country)
            .group(GroupDim::ElementType)
            .group(GroupDim::UpdateType);
        let got = rased.query(&q).unwrap();
        let want = naive_execute(&dataset.truth, &q, None);
        assert_eq!(got.rows, want.rows);
        // Refinement removed every Unclassified count.
        assert!(got
            .rows
            .iter()
            .all(|r| r.key.update_type != Some(UpdateType::Unclassified)));
    }

    #[test]
    fn viewport_query_matches_ground_truth() {
        let dir = TempDir::new("core-vp");
        let dataset = small_dataset(&dir);
        let rased = system_for(&dir, &dataset);
        rased.ingest_dataset(&dataset).unwrap();
        let atlas = dataset.atlas();
        // One country's box (boundary-heavy cover) and a wide box spanning
        // several countries (interior cells served from bank blocks).
        let one = atlas.countries()[0].polygon;
        let all = atlas.countries().iter().fold(one, |b, z| b.union(&z.polygon));
        for bbox in [one, all] {
            let q = AnalysisQuery::over(dataset.config.range)
                .within(bbox)
                .group(GroupDim::UpdateType)
                .group(GroupDim::Country);
            let got = rased.query(&q).unwrap();
            let want = naive_execute(&dataset.truth, &q, None);
            assert_eq!(got.rows, want.rows, "viewport {bbox:?} diverged from ground truth");
        }
    }

    #[test]
    fn warehouse_holds_every_update() {
        let dir = TempDir::new("core-wh");
        let dataset = small_dataset(&dir);
        let rased = system_for(&dir, &dataset);
        rased.ingest_dataset(&dataset).unwrap();
        assert_eq!(rased.warehouse().row_count() as usize, dataset.truth.len());

        // Changeset drill-down returns the same rows the truth holds.
        let cs = dataset.truth[0].changeset;
        let expect = dataset.truth.iter().filter(|r| r.changeset == cs).count();
        assert_eq!(rased.by_changeset(cs).unwrap().len(), expect);
    }

    #[test]
    fn sample_region_returns_located_updates() {
        let dir = TempDir::new("core-sample");
        let dataset = small_dataset(&dir);
        let rased = system_for(&dir, &dataset);
        rased.ingest_dataset(&dataset).unwrap();
        let atlas = dataset.atlas();
        let zone = &atlas.countries()[0];
        let bbox = zone.polygon;
        let sample = rased.sample_region(&bbox, 50).unwrap();
        assert!(!sample.is_empty());
        for r in &sample {
            assert!(bbox.contains(rased_geo::Point::new(r.lat7, r.lon7)));
        }
    }

    #[test]
    fn query_scoped_sampling_respects_filters() {
        use rased_osm_model::ElementType;
        let dir = TempDir::new("core-scoped");
        let dataset = small_dataset(&dir);
        let rased = system_for(&dir, &dataset);
        rased.ingest_dataset(&dataset).unwrap();
        let q = AnalysisQuery::over(dataset.config.range)
            .elements(vec![ElementType::Node])
            .updates(vec![UpdateType::Create]);
        let bbox = rased_geo::BBox::world();
        let samples = rased.sample_for_query(&q, &bbox, 40).unwrap();
        assert!(!samples.is_empty());
        assert!(samples.len() <= 40);
        for r in &samples {
            assert_eq!(r.element_type, ElementType::Node);
            assert_eq!(r.update_type, UpdateType::Create);
            assert!(dataset.config.range.contains(r.date));
        }
        // A window before the data matches nothing.
        let empty_q = AnalysisQuery::over(DateRange::new(
            Date::new(2019, 1, 1).unwrap(),
            Date::new(2019, 12, 31).unwrap(),
        ));
        assert!(rased.sample_for_query(&empty_q, &bbox, 10).unwrap().is_empty());
    }

    /// The fsyncs of one published day on a 2-shard index and a 4-band
    /// bank, with records in both cube shards and every band: each store
    /// that commits a unit syncs its record file, then its WAL entry —
    /// two cube shards, four bands, then the day-marker registry, 7 × 2 —
    /// after the warehouse heap's one flush. A checkpoint then syncs each
    /// of those seven stores' record file, catalog and WAL reset (7 × 3),
    /// plus the heap once more.
    #[test]
    fn one_published_day_costs_a_pinned_number_of_syncs() {
        use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId};
        let dir = TempDir::new("core-syncs");
        let mut config = RasedConfig::new(dir.file("system")).with_schema(CubeSchema::new(4, 3));
        config.shard.shards = 2;
        config.spatial.shards = 4;
        let rased = Rased::create(config).unwrap();
        let day = Date::new(2021, 6, 2).unwrap();
        // Countries 0..4 reach both cube shards; longitudes span all bands.
        let records: Vec<UpdateRecord> = (0..8)
            .map(|i| UpdateRecord {
                element_type: ElementType::Way,
                update_type: UpdateType::Create,
                country: CountryId(i % 4),
                road_type: RoadTypeId(0),
                date: day,
                lat7: 0,
                lon7: (i32::from(i) - 4) * 440_000_000,
                changeset: ChangesetId(u64::from(i)),
            })
            .collect();
        let syncs = |r: &Rased| -> u64 {
            let bank = r.spatial_bank();
            r.index()
                .stores()
                .iter()
                .chain(bank.stores())
                .chain([bank.marker_store()])
                .map(|s| s.file().stats().snapshot().syncs)
                .sum::<u64>()
                + r.warehouse().io_snapshot().syncs
        };
        let before = syncs(&rased);
        rased.apply_day(day, &records).unwrap();
        let bank = rased.spatial_bank();
        assert!(rased.index().epochs().iter().all(|&e| e == 1), "both cube shards commit");
        assert!(bank.epochs().iter().all(|&e| e == 1), "every band commits");
        let published = syncs(&rased);
        assert_eq!(published - before, 1 + 7 * 2, "warehouse flush, then 7 stores × (records + WAL)");
        rased.sync().unwrap();
        assert_eq!(syncs(&rased) - published, 7 * 3 + 1, "7 stores × (records + catalog + WAL), heap");
    }

    #[test]
    fn reopen_preserves_query_results() {
        let dir = TempDir::new("core-reopen");
        let dataset = small_dataset(&dir);
        let schema = CubeSchema::new(
            dataset.config.world.n_countries,
            dataset.config.sim.n_road_types,
        );
        let config = RasedConfig::new(dir.file("system")).with_schema(schema);
        let q = AnalysisQuery::over(dataset.config.range).group(GroupDim::Country).percentage();
        let before = {
            let rased = Rased::create(config.clone()).unwrap();
            rased.ingest_dataset(&dataset).unwrap();
            rased.query(&q).unwrap()
        };
        let reopened = Rased::open(config).unwrap();
        let after = reopened.query(&q).unwrap();
        assert_eq!(before.rows, after.rows);
    }
}
