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
    /// small thread pool — days are independent — while publishing stays
    /// sequential in date order, so results are bit-identical to a serial
    /// run. Each calendar month's days (clipped to `range`) publish as one
    /// unit through [`Rased::apply_days`]: one warehouse flush and one
    /// commit per store for the whole month, so a crash loses at most the
    /// month in flight, and resume re-applies it. At most one month of
    /// parsed records is held at a time.
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
        for month in days.chunk_by(|a, b| (a.year(), a.month()) == (b.year(), b.month())) {
            let mut unit: Vec<(Date, Vec<UpdateRecord>)> = Vec::with_capacity(month.len());
            for chunk in month.chunks(parallelism.max(1) * 4) {
                // Parse this chunk's files in parallel...
                type Parsed = Result<(Vec<UpdateRecord>, CrawlStats), RasedError>;
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
                for (day, parsed) in chunk.iter().zip(parsed) {
                    let (records, stats) = parsed?;
                    report.daily += stats;
                    unit.push((*day, records));
                }
            }
            // ...then publish the month as one unit, in date order.
            let refs: Vec<(Date, &[UpdateRecord])> =
                unit.iter().map(|(d, rs)| (*d, rs.as_slice())).collect();
            report.maintenance_ops += self.apply_days(&refs)?;
            report.days += unit.len();
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

    /// Publish one day: the one-day unit of [`Rased::apply_days`]. The
    /// streaming [`crate::IngestController`] publishes each day this way.
    pub(crate) fn apply_day(&self, day: Date, records: &[UpdateRecord]) -> Result<usize, RasedError> {
        self.apply_days(&[(day, records)])
    }

    /// Publish a run of days — increasing, within one calendar month — as
    /// one unit: append all the days' warehouse rows and flush them once,
    /// build each day's cube (zones expanded) and commit every cube shard's
    /// part of the run (marker shard last, carrying the flushed row count
    /// as its durable watermark), then publish the run's bank blocks, day
    /// markers last. Returns the cube maintenance ops performed.
    ///
    /// Ordering is the crash-safety contract: warehouse rows become
    /// durable *before* the cube units that imply them, so a day present
    /// in the index always has its sample rows — which is what lets the
    /// resume check skip already-indexed days. If the cube commit fails
    /// after the rows went in, they are truncated back out so a retry (or
    /// re-enqueue) cannot double-insert them. A crash loses the whole
    /// unit or none of it, as far as `has(Day)` tells.
    pub(crate) fn apply_days(&self, days: &[(Date, &[UpdateRecord])]) -> Result<usize, RasedError> {
        // Zones (§VI-A): cubes and network sizes credit containing
        // zones too; the warehouse keeps only the original rows.
        let expanded: Vec<Vec<UpdateRecord>> =
            days.iter().map(|&(_, records)| self.config.zones.expand_all(records)).collect();
        let schema = self.config.schema;
        let base = self.warehouse.row_count();
        let published = days
            .iter()
            .try_for_each(|&(_, records)| self.warehouse.insert_batch(records).map(drop))
            .and_then(|()| self.warehouse.flush())
            .map_err(RasedError::from)
            .and_then(|()| {
                // Each day's cube is built as the index stages it, so one
                // cube is held at a time, not the whole unit's.
                let cubes = days
                    .iter()
                    .zip(&expanded)
                    .map(|(&(day, _), zoned)| Ok((day, DataCube::from_records(schema, zoned)?)));
                Ok(self.index.ingest_days(cubes, Some(self.warehouse.row_count()))?)
            });
        match published {
            Ok(maint) => {
                // Bank blocks publish strictly last: a crash here leaves the
                // days on the warehouse-scan fallback path, never a block
                // for a day the index lacks. Blocks are built from the
                // *original* records — geography is explicit in the cell
                // key, so no zone expansion (viewport counts attribute to
                // the actual country, matching the warehouse rows the scan
                // fallback would return).
                self.bank.publish_days(days)?;
                for zoned in &expanded {
                    self.track_network(zoned);
                }
                Ok(maint.total_ops())
            }
            Err(e) => {
                // Roll the partial unit back; if even that fails the
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

    /// The 2-shard × 4-band system of the sync-count tests below.
    fn two_by_four(dir: &TempDir) -> Rased {
        let mut config = RasedConfig::new(dir.file("system")).with_schema(CubeSchema::new(4, 3));
        config.shard.shards = 2;
        config.spatial.shards = 4;
        Rased::create(config).unwrap()
    }

    /// Eight records of `day`: countries 0..4 reach both cube shards, and
    /// longitudes span all four bands.
    fn spread_records(day: Date) -> Vec<UpdateRecord> {
        use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId};
        (0..8)
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
            .collect()
    }

    /// Every fsync the system's stores and warehouse heap have counted.
    fn syncs(r: &Rased) -> u64 {
        let bank = r.spatial_bank();
        r.index()
            .stores()
            .iter()
            .chain(bank.stores())
            .chain([bank.marker_store()])
            .map(|s| s.file().stats().snapshot().syncs)
            .sum::<u64>()
            + r.warehouse().io_snapshot().syncs
    }

    /// A whole month published as one unit costs what one day costs in
    /// [`one_published_day_costs_a_pinned_number_of_syncs`]: one warehouse
    /// flush, then records + WAL once per store, whatever the day count.
    #[test]
    fn a_month_unit_costs_the_syncs_of_one_day() {
        let dir = TempDir::new("core-unit-syncs");
        let rased = two_by_four(&dir);
        let july: Vec<(Date, Vec<UpdateRecord>)> = Period::Month(2021, 7)
            .range()
            .days()
            .map(|d| (d, spread_records(d)))
            .collect();
        let unit: Vec<(Date, &[UpdateRecord])> = july.iter().map(|(d, r)| (*d, r.as_slice())).collect();
        assert_eq!(unit.len(), 31);
        let before = syncs(&rased);
        rased.apply_days(&unit).unwrap();
        let bank = rased.spatial_bank();
        assert!(rased.index().epochs().iter().all(|&e| e == 1), "each cube shard commits once");
        assert!(bank.epochs().iter().all(|&e| e == 1), "each band commits once");
        assert_eq!(bank.marker_store().epoch(), 1, "the registry commits once");
        assert_eq!(syncs(&rased) - before, 1 + 7 * 2, "warehouse flush, then 7 stores × (records + WAL)");
        assert!(unit.iter().all(|(d, _)| rased.index().has(Period::Day(*d))));
        assert_eq!(rased.warehouse().row_count(), 31 * 8);
    }

    /// Batch ingest publishes a month per unit: over two months each store
    /// publishes at most once per month unit, plus once per refinement.
    #[test]
    fn batch_ingest_publishes_one_unit_per_month() {
        let dir = TempDir::new("core-units");
        let dataset = small_dataset(&dir);
        let mut config = RasedConfig::new(dir.file("system")).with_schema(CubeSchema::new(
            dataset.config.world.n_countries,
            dataset.config.sim.n_road_types,
        ));
        config.shard.shards = 2;
        config.spatial.shards = 4;
        let rased = Rased::create(config).unwrap();
        let report = rased.ingest_dataset(&dataset).unwrap();
        assert_eq!((report.days, report.months), (59, 2));
        let bank = rased.spatial_bank();
        let stores = rased.index().stores().iter().chain(bank.stores()).chain([bank.marker_store()]);
        for (i, store) in stores.enumerate() {
            let units = store.published_units();
            assert!(units <= 2 + 2, "store {i} published {units} units for 2 month units + 2 refinements");
        }
        assert_eq!(bank.marker_store().published_units(), 2, "one registry unit per month");
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
