//! Randomized executor-equivalence coverage (dettest): for arbitrary
//! schemas, datasets, cache configurations and queries, the parallel
//! executor at every thread count must return rows byte-identical to the
//! sequential executor, which in turn must match the `naive_execute`
//! oracle over the raw records — and the cube-touch accounting
//! (cache + disk, empty days) must agree between the execution modes.

use dettest::{det_proptest, Rng, TempDir};
use rased_cube::{CubeSchema, DataCube};
use rased_index::{CacheConfig, TemporalIndex};
use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};
use rased_query::{naive_execute, AnalysisQuery, GroupDim, NetworkSizes, QueryEngine};
use rased_storage::IoCostModel;
use rased_temporal::{Date, DateRange, Granularity};
use std::collections::HashMap;

/// Pseudo-random records over `span` days starting at `start`; some days
/// are deliberately skipped so plans contain genuinely empty days.
fn dataset(rng: &mut Rng, schema: CubeSchema, start: Date, span: u64) -> Vec<UpdateRecord> {
    let mut out = Vec::new();
    for day in 0..span {
        if rng.below(5) == 0 {
            continue; // gap day: never materialized
        }
        let date = start.add_days(day as i32);
        for _ in 0..(1 + rng.below(10)) {
            out.push(UpdateRecord {
                element_type: ElementType::ALL[rng.below(ElementType::ALL.len() as u64) as usize],
                update_type: UpdateType::ALL[rng.below(UpdateType::ALL.len() as u64) as usize],
                country: CountryId(rng.below(schema.n_countries() as u64) as u16),
                road_type: RoadTypeId(rng.below(schema.n_road_types() as u64) as u16),
                date,
                lat7: 0,
                lon7: 0,
                changeset: ChangesetId(rng.below(u64::MAX)),
            });
        }
    }
    out
}

/// Ingest into a fresh 4-level index under `dir` with the given cache.
fn build_index(
    dir: &TempDir,
    schema: CubeSchema,
    cache: CacheConfig,
    records: &[UpdateRecord],
) -> TemporalIndex {
    let idx = TemporalIndex::create(dir.path(), schema, 4, cache, IoCostModel::free())
        .expect("create index");
    let mut by_day: HashMap<Date, Vec<&UpdateRecord>> = HashMap::new();
    for r in records {
        by_day.entry(r.date).or_default().push(r);
    }
    let mut days: Vec<_> = by_day.keys().copied().collect();
    days.sort();
    for day in days {
        let cube = DataCube::from_records(schema, by_day[&day].iter().copied()).expect("cube");
        idx.ingest_day(day, &cube).expect("ingest");
    }
    idx
}

/// Maybe pick a non-empty subset of `all` (None = no filter). Subsets may
/// include ids outside the schema to exercise empty selections.
fn maybe_subset<T: Copy>(rng: &mut Rng, all: &[T]) -> Option<Vec<T>> {
    if rng.below(2) == 0 {
        return None;
    }
    let k = 1 + rng.below(all.len() as u64) as usize;
    let mut picked = Vec::with_capacity(k);
    for _ in 0..k {
        picked.push(all[rng.below(all.len() as u64) as usize]);
    }
    Some(picked)
}

/// A random query over (roughly) the dataset's window, with random
/// filters, grouping, and value mode.
fn random_query(rng: &mut Rng, schema: CubeSchema, start: Date, span: u64) -> AnalysisQuery {
    // Range may under- and overshoot the data on either side.
    let a = start.add_days(rng.below(span + 6) as i32 - 3);
    let b = start.add_days(rng.below(span + 6) as i32 - 3);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut q = AnalysisQuery::over(DateRange::new(lo, hi));

    if let Some(e) = maybe_subset(rng, &ElementType::ALL) {
        q = q.elements(e);
    }
    let countries: Vec<CountryId> = (0..schema.n_countries() as u16 + 2).map(CountryId).collect();
    if let Some(c) = maybe_subset(rng, &countries) {
        q = q.countries(c);
    }
    let roads: Vec<RoadTypeId> = (0..schema.n_road_types() as u16).map(RoadTypeId).collect();
    if let Some(r) = maybe_subset(rng, &roads) {
        q = q.roads(r);
    }
    if let Some(u) = maybe_subset(rng, &UpdateType::ALL) {
        q = q.updates(u);
    }
    for dim in [GroupDim::ElementType, GroupDim::Country, GroupDim::RoadType, GroupDim::UpdateType] {
        if rng.below(3) == 0 {
            q = q.group(dim);
        }
    }
    if rng.below(3) == 0 {
        let g = [Granularity::Day, Granularity::Week, Granularity::Month, Granularity::Year]
            [rng.below(4) as usize];
        q = q.group(GroupDim::Date(g));
    }
    if rng.below(3) == 0 {
        q = q.percentage();
    }
    q
}

fn check_equivalence(seed: u64, span: u64, n_countries: usize, n_road_types: usize, cache_mode: u8) {
    let mut rng = Rng::new(seed);
    let schema = CubeSchema::new(n_countries, n_road_types);
    let start = Date::new(2021, 1, 1).expect("date").add_days(rng.below(45) as i32);
    let records = dataset(&mut rng, schema, start, span);
    if records.is_empty() {
        return; // every day skipped: nothing to compare
    }

    let cache = match cache_mode {
        0 => CacheConfig::disabled(),
        1 => CacheConfig { slots: 8 },
        _ => CacheConfig { slots: 12 },
    };
    let dir = TempDir::new("parallel-props");
    let idx = build_index(&dir, schema, cache, &records);
    if cache_mode >= 1 {
        idx.warm_cache().expect("warm");
    }

    let sizes = if rng.below(2) == 0 {
        Some(NetworkSizes::new((0..n_countries as u64).map(|c| 500 + c * 250).collect()))
    } else {
        None
    };
    let q = random_query(&mut rng, schema, start, span);

    let want = naive_execute(&records, &q, sizes.as_ref());
    let mut engine = QueryEngine::new(&idx);
    if let Some(s) = &sizes {
        engine = engine.with_network_sizes(s.clone());
    }
    let seq = engine.execute(&q).expect("sequential execute");
    assert_eq!(seq.rows, want.rows, "sequential != oracle for {q:?} (seed {seed})");

    let seq_touched = seq.stats.cubes_from_cache + seq.stats.cubes_from_disk;
    for threads in [1usize, 2, 4, 7] {
        let mut engine = QueryEngine::new(&idx).with_threads(threads);
        if let Some(s) = &sizes {
            engine = engine.with_network_sizes(s.clone());
        }
        let par = engine.execute(&q).expect("parallel execute");
        assert_eq!(
            par.rows, seq.rows,
            "threads={threads} diverged from sequential for {q:?} (seed {seed})"
        );
        // Cube-touch accounting: every execution mode runs the same plan,
        // so the cache + disk totals may not differ.
        assert_eq!(
            par.stats.cubes_from_cache + par.stats.cubes_from_disk,
            seq_touched,
            "threads={threads} touched a different cube count (seed {seed})"
        );
        assert_eq!(
            par.stats.empty_days, seq.stats.empty_days,
            "threads={threads} settled different empty days (seed {seed})"
        );
    }
}

det_proptest! {
    #![det_config(cases = 24)]

    #[test]
    fn parallel_matches_sequential_matches_oracle(
        seed in 0u64..u64::MAX,
        span in 5u64..70,
        n_countries in 2usize..6,
        n_road_types in 2usize..5,
        cache_mode in 0u8..3,
    ) {
        check_equivalence(seed, span, n_countries, n_road_types, cache_mode);
    }
}

/// Fixed-seed regression pin: one concrete instance exercised at every
/// thread count, so a planner/executor change that breaks equivalence
/// fails deterministically even if the property sampler drifts.
#[test]
fn pinned_instance_stays_equivalent() {
    check_equivalence(0x00C0_FFEE_D15E_A5E5, 45, 4, 3, 1);
    check_equivalence(0x0BAD_5EED_0BAD_5EED, 62, 5, 4, 2);
}
