//! Country-sharded cube store: N independent [`TemporalIndex`] instances
//! behind one facade.
//!
//! RASED's unit of interest is the (country, road-type) pair, so the
//! country dimension is the natural partitioning axis: every cube cell
//! belongs to exactly one country (zone ids live in the same dimension),
//! which makes the split *exact* — a cube sharded by country and merged
//! back is bit-identical to the original. Each shard owns a full private
//! stack (WAL, catalog, buffer pool, cube cache, epoch stream), so:
//!
//! * a publish on one shard bumps only that shard's epoch — response-cache
//!   entries keyed by a composite epoch stamp stay valid for untouched
//!   shards;
//! * a torn WAL tail in one shard is truncated by that shard's own
//!   recovery and never blocks the others from serving;
//! * country-filtered queries route to the owning shards only (predicate
//!   pushdown in `rased-query`), and unfiltered queries scatter across all
//!   shards and merge partial aggregates deterministically.
//!
//! ## Unit-commit protocol
//!
//! A publish unit is a run of days within one calendar month: one day on
//! the live path, up to the whole month in batch ingest. Each day's full
//! cube is split into per-shard sub-cubes, and each shard stages its
//! splits of every day of the unit, with their roll-ups, as **one** WAL
//! unit. Shards whose splits are all-zero for the whole unit are skipped
//! entirely (no WAL append, no epoch bump — this is what keeps
//! invalidation scoped). One deterministic **marker shard** per month
//! (round-robin by month ordinal, [`marker_shard`], so every day of a unit
//! shares it and zero-day bookkeeping spreads evenly) always commits,
//! with a zero cube for each day where its split is empty, and commits
//! *last*, carrying the durable row watermark. The global "is this day
//! ingested?" question is therefore answered by the marker shard alone: if
//! the process crashes mid-unit, the marker commit is missing, resume
//! re-applies every day of the unit, and the per-shard replays are
//! idempotent. A crash loses at most the one unit in flight.
//!
//! Cross-shard visibility is *per-shard atomic, per-unit eventually
//! consistent*: a reader scattering during a publish may see the unit on
//! some shards and not yet on others (bounded to the single in-flight
//! unit). Single-country queries never observe tearing — all of a
//! country's cells live in one shard.

use crate::cache::CacheConfig;
use crate::partition;
use crate::routing::{marker_shard, shard_for};
use crate::store::{IndexError, MaintenanceReport, TemporalIndex};
use rased_cube::{CubeSchema, DataCube};
use rased_osm_model::CountryId;
use rased_storage::IoCostModel;
use rased_temporal::{Date, Period};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Directory of shard `i` under `dir`. A single-shard store lives at `dir`
/// itself so the on-disk layout (and WAL path) stays bit-compatible with a
/// plain [`TemporalIndex`]; multi-shard stores use `dir/shard-NNN`.
fn shard_dir(dir: &Path, shards: usize, i: usize) -> PathBuf {
    if shards <= 1 {
        dir.to_path_buf()
    } else {
        dir.join(format!("shard-{i:03}"))
    }
}

/// Split `cube` into per-shard sub-cubes by the country dimension. Shards
/// with no non-zero cell get `None` — the caller uses that to skip the
/// shard's commit entirely. Exact: the non-`None` parts merge back to
/// `cube`.
fn split_cube(cube: &DataCube, shards: usize) -> Vec<Option<DataCube>> {
    let schema = cube.schema();
    let mut parts: Vec<Option<DataCube>> = (0..shards).map(|_| None).collect();
    for et in 0..schema.n_element_types() {
        for c in 0..schema.n_countries() {
            let dst = shard_for(CountryId(c as u16), shards);
            for r in 0..schema.n_road_types() {
                for u in 0..schema.n_update_types() {
                    let v = cube.get(et, c, r, u);
                    if v != 0 {
                        if let Some(slot) = parts.get_mut(dst) {
                            slot.get_or_insert_with(|| DataCube::zeroed(schema))
                                .set(et, c, r, u, v);
                        }
                    }
                }
            }
        }
    }
    parts
}

fn merge_report(into: &mut MaintenanceReport, r: MaintenanceReport) {
    into.cubes_written += r.cubes_written;
    into.cubes_read += r.cubes_read;
    for (a, b) in into.ops_by_level.iter_mut().zip(r.ops_by_level.iter()) {
        *a += *b;
    }
    into.io += r.io;
}

/// N independent per-country-partition [`TemporalIndex`] stores behind the
/// single-store ingest/maintenance API. See the module docs for the
/// sharding model; see `rased-query` for scatter-gather execution over
/// [`ShardedIndex::stores`].
pub struct ShardedIndex {
    shards: Vec<TemporalIndex>,
    schema: CubeSchema,
    levels: u8,
}

impl ShardedIndex {
    /// Create a fresh sharded store under `dir`. `shards == 1` produces a
    /// layout bit-compatible with `TemporalIndex::create(dir, ..)`. The
    /// cube-cache budget is divided evenly across shards (each shard gets
    /// at least one slot if caching is enabled at all).
    pub fn create(
        dir: &Path,
        shards: usize,
        schema: CubeSchema,
        levels: u8,
        cache: CacheConfig,
        model: IoCostModel,
    ) -> Result<ShardedIndex, IndexError> {
        Self::build(dir, shards, schema, levels, cache, model, TemporalIndex::create)
    }

    /// Open an existing sharded store. `shards` must match the count the
    /// store was created with (persisted by `rased-core`'s manifest); each
    /// shard recovers independently — a torn WAL tail in one shard is
    /// truncated there and never blocks the others.
    pub fn open(
        dir: &Path,
        shards: usize,
        schema: CubeSchema,
        levels: u8,
        cache: CacheConfig,
        model: IoCostModel,
    ) -> Result<ShardedIndex, IndexError> {
        Self::build(dir, shards, schema, levels, cache, model, TemporalIndex::open)
    }

    fn build(
        dir: &Path,
        shards: usize,
        schema: CubeSchema,
        levels: u8,
        cache: CacheConfig,
        model: IoCostModel,
        mk: impl Fn(&Path, CubeSchema, u8, CacheConfig, IoCostModel) -> Result<TemporalIndex, IndexError>,
    ) -> Result<ShardedIndex, IndexError> {
        let n = shards.max(1);
        let per_shard_cache =
            CacheConfig { slots: if cache.slots == 0 { 0 } else { (cache.slots / n).max(1) } };
        let shards = partition::open_each(n, |i| {
            mk(&shard_dir(dir, n, i), schema, levels, per_shard_cache, model)
        })?;
        Ok(ShardedIndex { shards, schema, levels })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// All shard stores, in shard order — the scatter-gather executor
    /// plans each independently against its own catalog snapshot.
    pub fn stores(&self) -> &[TemporalIndex] {
        &self.shards
    }

    /// Shard `i`'s store.
    pub fn shard(&self, i: usize) -> Option<&TemporalIndex> {
        self.shards.get(i)
    }

    /// The cube schema (identical across shards).
    pub fn schema(&self) -> CubeSchema {
        self.schema
    }

    /// Hierarchy depth (identical across shards).
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Composite epoch: the **sum** of per-shard epochs. Monotonic (each
    /// term is), equal to the single-store epoch at one shard, and bumps
    /// exactly when any shard publishes — the coarse key old single-epoch
    /// consumers keep using.
    pub fn epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.epoch()).sum()
    }

    /// The composite epoch *vector*, indexed by shard — the fine-grained
    /// response-cache stamp: a publish on shard `i` moves only entry `i`.
    pub fn epochs(&self) -> Vec<u64> {
        partition::epochs(&self.shards)
    }

    /// Total units published across all shards since open.
    pub fn published_units(&self) -> u64 {
        self.shards.iter().map(|s| s.published_units()).sum()
    }

    /// Total surgical cache invalidations across all shards.
    pub fn invalidations(&self) -> u64 {
        self.shards.iter().map(|s| s.invalidations()).sum()
    }

    /// The highest durable row watermark across shards. Marks ride each
    /// unit's marker commit (which lands last), so this is the watermark
    /// of the last *fully* committed unit.
    pub fn durable_mark(&self) -> Option<u64> {
        self.shards.iter().filter_map(|s| s.durable_mark()).max()
    }

    /// True when `period` is materialized. For days this consults the
    /// day's marker shard only — the one store that commits its unit
    /// *last* — so a half-committed unit (crash between shard commits)
    /// reads as absent and resume re-applies it. Coarser periods exist if
    /// any shard holds them.
    pub fn has(&self, period: Period) -> bool {
        match period {
            Period::Day(d) => {
                let m = marker_shard(d, self.shards.len());
                self.shards.get(m).is_some_and(|s| s.has(period))
            }
            _ => self.shards.iter().any(|s| s.has(period)),
        }
    }

    /// Union of materialized periods across shards, deduplicated, sorted.
    pub fn periods(&self) -> Vec<Period> {
        let mut set = BTreeSet::new();
        for s in &self.shards {
            set.extend(s.periods());
        }
        set.into_iter().collect()
    }

    /// Total physically materialized cubes (a period materialized on k
    /// shards counts k times — this is the storage-side number).
    pub fn cube_count(&self) -> usize {
        self.shards.iter().map(|s| s.cube_count()).sum()
    }

    /// Total bytes across all shard record files.
    pub fn storage_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.storage_bytes()).sum()
    }

    /// Earliest/latest materialized day across shards.
    pub fn coverage(&self) -> Option<(Date, Date)> {
        let mut acc: Option<(Date, Date)> = None;
        for s in &self.shards {
            if let Some((lo, hi)) = s.coverage() {
                acc = Some(match acc {
                    None => (lo, hi),
                    Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                });
            }
        }
        acc
    }

    /// Aggregate cube-cache counters `(hits, misses)` across shards.
    pub fn cache_counters(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for s in &self.shards {
            let (h, m) = s.cache().counters();
            hits += h;
            misses += m;
        }
        (hits, misses)
    }

    /// Total cube-cache slots across shards.
    pub fn cache_slots(&self) -> usize {
        self.shards.iter().map(|s| s.cache().slots()).sum()
    }

    /// Merge-read `period` across shards, bypassing caches. `None` when no
    /// shard materializes it; otherwise the exact sum of the shard cubes
    /// (bit-identical to the unsharded cube for split-ingested data).
    pub fn fetch_uncached(&self, period: Period) -> Result<Option<Arc<DataCube>>, IndexError> {
        let mut acc: Option<DataCube> = None;
        for s in &self.shards {
            if let Some(cube) = s.fetch_uncached(period)? {
                match acc.as_mut() {
                    Some(a) => a.merge_from(&cube)?,
                    None => acc = Some(DataCube::clone(&cube)),
                }
            }
        }
        Ok(acc.map(Arc::new))
    }

    /// Ingest one day's full cube: split by country, commit non-empty
    /// splits, marker shard last. The one-day case of
    /// [`Self::ingest_days`]; see the module docs for the protocol.
    pub fn ingest_day(&self, day: Date, cube: &DataCube) -> Result<MaintenanceReport, IndexError> {
        self.ingest_days([Ok((day, cube))], None)
    }

    /// [`Self::ingest_day`] carrying a durable row watermark; the mark
    /// rides the marker shard's (final) commit, so it is durable only once
    /// the whole day is.
    pub fn ingest_day_marked(
        &self,
        day: Date,
        cube: &DataCube,
        rows: u64,
    ) -> Result<MaintenanceReport, IndexError> {
        self.ingest_days([Ok((day, cube))], Some(rows))
    }

    /// Publish a run of days — strictly increasing, all in one calendar
    /// month — as one unit per shard: each shard stages its splits of
    /// every day (the marker shard a zero cube where its split is empty)
    /// with their roll-ups, the shards holding data commit, and the
    /// month's marker shard commits last carrying `mark`, the durable row
    /// watermark. Each day's cube is taken from `days` only when it is
    /// staged, so a caller building cubes lazily holds one at a time. Days
    /// of other months would have other marker shards, and no single
    /// commit could then be the last one for all of them, so such a run is
    /// refused with [`IndexError::UnitSpan`] before anything commits.
    pub fn ingest_days<C: Borrow<DataCube>>(
        &self,
        days: impl IntoIterator<Item = Result<(Date, C), IndexError>>,
        mark: Option<u64>,
    ) -> Result<MaintenanceReport, IndexError> {
        let n = self.shards.len();
        let zero = DataCube::zeroed(self.schema);
        let mut units: Vec<_> = self.shards.iter().map(|s| Some(s.begin_days())).collect();
        // The run's first day and the last one staged.
        let mut run: Option<(Date, Date)> = None;
        for next in days {
            let (day, cube) = next?;
            let first = match run {
                None => day,
                Some((first, last)) if last < day && Period::month_of(first).contains(day) => first,
                Some((first, _)) => return Err(IndexError::UnitSpan { first, last: day }),
            };
            run = Some((first, day));
            let marker = marker_shard(first, n);
            for (i, part) in split_cube(cube.borrow(), n).into_iter().enumerate() {
                let part = match part.as_ref() {
                    Some(p) => p,
                    None if i == marker => &zero,
                    None => continue,
                };
                if let (Some(shard), Some(Some(unit))) = (self.shards.get(i), units.get_mut(i)) {
                    shard.stage_day(unit, day, part)?;
                }
            }
        }
        let Some((first, _)) = run else {
            return Ok(MaintenanceReport::default());
        };
        let marker = marker_shard(first, n);
        let marker_unit = units.get_mut(marker).and_then(Option::take);
        let mut report = MaintenanceReport::default();
        for (shard, unit) in self.shards.iter().zip(units) {
            if let Some(unit) = unit.filter(|u| !u.is_empty()) {
                merge_report(&mut report, shard.commit_days(unit, None)?);
            }
        }
        if let (Some(shard), Some(unit)) = (self.shards.get(marker), marker_unit) {
            merge_report(&mut report, shard.commit_days(unit, mark)?);
        }
        Ok(report)
    }

    /// Replace a month's days with `daily` (refinement), split per shard.
    ///
    /// Each shard's refined map holds its non-zero splits plus — on the
    /// month's marker shard — an explicit zero cube, mirroring the ingest
    /// protocol so `has(Day)` stays marker-answerable. A shard whose map
    /// is empty *and* which materializes no day of the month is skipped
    /// entirely: a `rebuild_month` call on it would still stage zero
    /// week cubes and bump its epoch, defeating per-shard invalidation
    /// scoping.
    pub fn rebuild_month(
        &self,
        year: i32,
        month: u32,
        daily: &HashMap<Date, DataCube>,
    ) -> Result<MaintenanceReport, IndexError> {
        let n = self.shards.len();
        let mut maps: Vec<HashMap<Date, DataCube>> = (0..n).map(|_| HashMap::new()).collect();
        for (d, cube) in daily {
            let marker = marker_shard(*d, n);
            for (i, part) in split_cube(cube, n).into_iter().enumerate() {
                let part = match part {
                    Some(p) => Some(p),
                    None if i == marker => Some(DataCube::zeroed(self.schema)),
                    None => None,
                };
                if let (Some(p), Some(map)) = (part, maps.get_mut(i)) {
                    map.insert(*d, p);
                }
            }
        }
        let month_days: Vec<Date> = match Date::new(year, month, 1) {
            Ok(_) => Period::Month(year, month).range().days().collect(),
            Err(_) => Vec::new(),
        };
        let mut report = MaintenanceReport::default();
        for (shard, map) in self.shards.iter().zip(maps.iter()) {
            let touched =
                !map.is_empty() || month_days.iter().any(|d| shard.has(Period::Day(*d)));
            if touched {
                merge_report(&mut report, shard.rebuild_month(year, month, map)?);
            }
        }
        Ok(report)
    }

    /// Warm every shard's cube cache.
    pub fn warm_cache(&self) -> Result<(), IndexError> {
        for s in &self.shards {
            s.warm_cache()?;
        }
        Ok(())
    }

    /// Fsync every shard.
    pub fn sync(&self) -> Result<(), IndexError> {
        partition::sync(&self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::{Rng, TempDir};

    fn cube_from(rng: &mut Rng, schema: CubeSchema, density: u64) -> DataCube {
        let mut c = DataCube::zeroed(schema);
        for et in 0..schema.n_element_types() {
            for co in 0..schema.n_countries() {
                for r in 0..schema.n_road_types() {
                    for u in 0..schema.n_update_types() {
                        if rng.below(density) == 0 {
                            c.set(et, co, r, u, 1 + rng.below(50));
                        }
                    }
                }
            }
        }
        c
    }

    fn sharded(dir: &Path, n: usize) -> ShardedIndex {
        ShardedIndex::create(
            dir,
            n,
            CubeSchema::tiny(),
            4,
            CacheConfig { slots: 8 },
            IoCostModel::free(),
        )
        .expect("create")
    }

    #[test]
    fn split_is_exact_and_skips_empty_shards() {
        let schema = CubeSchema::tiny();
        let mut rng = Rng::new(7);
        let cube = cube_from(&mut rng, schema, 3);
        for n in [1, 2, 3, 4, 7] {
            let parts = split_cube(&cube, n);
            assert_eq!(parts.len(), n);
            let mut merged = DataCube::zeroed(schema);
            for p in parts.iter().flatten() {
                merged.merge_from(p).expect("merge");
            }
            assert_eq!(merged, cube, "split/merge must round-trip at n={n}");
            // Ownership: every non-zero cell of part i belongs to shard i.
            for (i, p) in parts.iter().enumerate() {
                let Some(p) = p else { continue };
                for et in 0..schema.n_element_types() {
                    for c in 0..schema.n_countries() {
                        for r in 0..schema.n_road_types() {
                            for u in 0..schema.n_update_types() {
                                if p.get(et, c, r, u) != 0 {
                                    assert_eq!(shard_for(CountryId(c as u16), n), i);
                                }
                            }
                        }
                    }
                }
            }
        }
        // A cube touching only country 0 splits to exactly one shard.
        let mut solo = DataCube::zeroed(schema);
        solo.set(0, 0, 0, 0, 9);
        let parts = split_cube(&solo, 4);
        assert_eq!(parts.iter().filter(|p| p.is_some()).count(), 1);
    }

    /// Three stores fed the same 45 days (one of them all-zero), then one
    /// month refinement: a bare [`TemporalIndex`], a 1-shard facade and a
    /// 3-shard facade. The sharded store must merge back to the single
    /// one, and the 1-shard facade — which takes the same split/marker
    /// path as any other count — must leave *byte-identical* record and WAL
    /// files to the bare store: no workload runs N=1, so this is its proof.
    #[test]
    fn merged_fetch_matches_single_store() {
        let schema = CubeSchema::tiny();
        let mut rng = Rng::new(42);
        let bare_dir = TempDir::new("shard-bare");
        let single_dir = TempDir::new("shard-single");
        let sharded_dir = TempDir::new("shard-multi");
        let bare = TemporalIndex::create(
            bare_dir.path(),
            schema,
            4,
            CacheConfig { slots: 8 },
            IoCostModel::free(),
        )
        .expect("create");
        let single = sharded(single_dir.path(), 1);
        let multi = sharded(sharded_dir.path(), 3);
        let start = Date::new(2021, 3, 1).expect("date");
        let mut cubes = Vec::new();
        for off in 0..45 {
            let cube =
                if off == 10 { DataCube::zeroed(schema) } else { cube_from(&mut rng, schema, 4) };
            let day = start.add_days(off);
            bare.ingest_day(day, &cube).expect("bare ingest");
            single.ingest_day(day, &cube).expect("single ingest");
            multi.ingest_day(day, &cube).expect("sharded ingest");
            cubes.push((day, cube));
        }
        for (day, cube) in &cubes {
            let a = single.fetch_uncached(Period::Day(*day)).expect("fetch").expect("day");
            let b = multi.fetch_uncached(Period::Day(*day)).expect("fetch").expect("day");
            assert_eq!(*a, *cube);
            assert_eq!(*a, *b, "merged day cube diverges at {day:?}");
            assert!(multi.has(Period::Day(*day)));
        }
        // Roll-ups merge too (day 1..=45 closes several weeks + March).
        let march = Period::Month(2021, 3);
        let a = single.fetch_uncached(march).expect("fetch").expect("month");
        let b = multi.fetch_uncached(march).expect("fetch").expect("month");
        assert_eq!(*a, *b, "merged month roll-up diverges");
        assert_eq!(single.coverage(), multi.coverage());
        assert_eq!(single.epoch(), 45, "one publish per day at one shard");

        // Refine March down to one day. (One, because a unit stages its
        // days in `HashMap` order: with more, record order inside the unit
        // is unspecified even between two bare stores.)
        let refined = HashMap::from([(start, cube_from(&mut rng, schema, 4))]);
        bare.rebuild_month(2021, 3, &refined).expect("bare rebuild");
        single.rebuild_month(2021, 3, &refined).expect("single rebuild");
        multi.rebuild_month(2021, 3, &refined).expect("sharded rebuild");
        let a = single.fetch_uncached(march).expect("fetch").expect("month");
        let b = multi.fetch_uncached(march).expect("fetch").expect("month");
        assert_eq!(*a, *b, "rebuilt month roll-up diverges");
        assert_eq!(single.epoch(), bare.epoch());
        for file in ["cubes.rec", "wal.log"] {
            let want = std::fs::read(bare_dir.path().join(file)).expect("read bare");
            let got = std::fs::read(single_dir.path().join(file)).expect("read single");
            assert!(!want.is_empty(), "{file} must hold the 46 units");
            assert!(got == want, "1-shard {file} diverges from the bare store's");
        }
    }

    /// A month published as one unit holds exactly what its days published
    /// one by one hold, commits once per shard with the marker shard last,
    /// and carries the mark; a run that is not increasing days of one
    /// month is refused before anything is staged.
    #[test]
    fn a_month_unit_equals_its_days_one_by_one() {
        let schema = CubeSchema::tiny();
        let mut rng = Rng::new(11);
        let one_dir = TempDir::new("shard-days-one");
        let unit_dir = TempDir::new("shard-days-unit");
        let by_day = sharded(one_dir.path(), 3);
        let by_unit = sharded(unit_dir.path(), 3);
        let start = Date::new(2021, 5, 1).expect("date");
        let days: Vec<(Date, DataCube)> =
            (0..31).map(|off| (start.add_days(off), cube_from(&mut rng, schema, 4))).collect();
        for (day, cube) in &days {
            by_day.ingest_day(*day, cube).expect("ingest day");
        }
        let order = Arc::new(rased_storage::sync::Mutex::new(Vec::new()));
        for (i, store) in by_unit.stores().iter().enumerate() {
            let order = Arc::clone(&order);
            store.set_publish_hook(Arc::new(move |_| order.lock().push(i)));
        }
        by_unit.ingest_days(days.iter().map(|(d, c)| Ok((*d, c))), Some(7)).expect("ingest unit");
        let marker = marker_shard(start, 3);
        let want: Vec<usize> = (0..3).filter(|&i| i != marker).chain([marker]).collect();
        assert_eq!(*order.lock(), want, "one commit per shard, marker last");
        assert_eq!(by_unit.epochs(), vec![1, 1, 1]);
        assert_eq!(by_unit.durable_mark(), Some(7));
        let mut want = by_day.periods();
        let mut got = by_unit.periods();
        want.sort_by_key(|p| (p.granularity().level(), p.start()));
        got.sort_by_key(|p| (p.granularity().level(), p.start()));
        assert_eq!(got, want);
        for p in want {
            let a = by_day.fetch_uncached(p).expect("fetch").expect("cube");
            let b = by_unit.fetch_uncached(p).expect("fetch").expect("cube");
            assert_eq!(*a, *b, "{p} diverges between the unit and its days");
        }

        let june = Date::new(2021, 6, 1).expect("date");
        let cube = DataCube::zeroed(schema);
        for bad in [
            vec![(june.pred(), &cube), (june, &cube)],
            vec![(june.succ(), &cube), (june, &cube)],
            vec![(june, &cube), (june, &cube)],
        ] {
            let err = by_unit.ingest_days(bad.into_iter().map(Ok), None).expect_err("refused");
            assert!(matches!(err, IndexError::UnitSpan { .. }), "{err}");
        }
        assert_eq!(by_unit.epochs(), vec![1, 1, 1], "a refused run publishes nothing");
    }

    #[test]
    fn publish_touches_only_owning_shards() {
        let schema = CubeSchema::tiny();
        let dir = TempDir::new("shard-scope");
        let idx = sharded(dir.path(), 4);
        // Day whose marker shard is known; cube touches only country 1.
        let day = Date::new(2021, 6, 2).expect("date");
        let marker = marker_shard(day, 4);
        let owner = shard_for(CountryId(1), 4);
        let mut cube = DataCube::zeroed(schema);
        cube.set(0, 1, 0, 0, 5);
        let before = idx.epochs();
        idx.ingest_day(day, &cube).expect("ingest");
        let after = idx.epochs();
        for (i, (b, a)) in before.iter().zip(after.iter()).enumerate() {
            if i == owner || i == marker {
                assert!(a > b, "shard {i} should have published");
            } else {
                assert_eq!(a, b, "shard {i} must stay untouched");
            }
        }
        assert_eq!(idx.epoch(), after.iter().sum::<u64>());
    }

    #[test]
    fn reopen_round_trips_at_every_count() {
        let schema = CubeSchema::tiny();
        let mut rng = Rng::new(9);
        for n in [1usize, 2, 5] {
            let dir = TempDir::new("shard-reopen");
            let day = Date::new(2021, 1, 4).expect("date");
            let cube = cube_from(&mut rng, schema, 2);
            let epochs;
            {
                let idx = sharded(dir.path(), n);
                idx.ingest_day(day, &cube).expect("ingest");
                idx.sync().expect("sync");
                epochs = idx.epochs();
            }
            let idx = ShardedIndex::open(
                dir.path(),
                n,
                schema,
                4,
                CacheConfig { slots: 8 },
                IoCostModel::free(),
            )
            .expect("open");
            assert_eq!(idx.epochs(), epochs, "epochs survive reopen at n={n}");
            let got = idx.fetch_uncached(Period::Day(day)).expect("fetch").expect("day");
            assert_eq!(*got, cube);
        }
    }

    #[test]
    fn rebuild_month_skips_untouched_shards() {
        let schema = CubeSchema::tiny();
        let dir = TempDir::new("shard-rebuild");
        let idx = sharded(dir.path(), 4);
        // Ingest March with data only in country 1's shard.
        let start = Date::new(2021, 3, 1).expect("date");
        for off in 0..31 {
            let mut cube = DataCube::zeroed(schema);
            cube.set(0, 1, 0, 0, 3);
            idx.ingest_day(start.add_days(off), &cube).expect("ingest");
        }
        let owner = shard_for(CountryId(1), 4);
        let before = idx.epochs();
        // Refine one day, still only country 1.
        let mut refined = HashMap::new();
        let mut cube = DataCube::zeroed(schema);
        cube.set(0, 1, 0, 0, 8);
        refined.insert(start, cube);
        idx.rebuild_month(2021, 3, &refined).expect("rebuild");
        let after = idx.epochs();
        let mut silent = 0;
        for (i, (b, a)) in before.iter().zip(after.iter()).enumerate() {
            // March's marker shard materialized zero day-cubes, so it is
            // "touched" and legitimately republishes (tombstones); only
            // shards with no March state at all must stay silent.
            let has_march_state = i == owner || i == marker_shard(start, 4);
            if !has_march_state {
                assert_eq!(a, b, "shard {i} must not publish on rebuild");
                silent += 1;
            }
        }
        assert!(silent > 0, "no shard was checked for silence: the test is vacuous");
        assert!(after.get(owner) > before.get(owner), "owner must republish");
        let got = idx.fetch_uncached(Period::Day(start)).expect("fetch").expect("day");
        assert_eq!(got.get(0, 1, 0, 0), 8);
        // Non-refined days were tombstoned by the rebuild.
        assert!(!idx.has(Period::Day(start.add_days(1))));
    }
}
