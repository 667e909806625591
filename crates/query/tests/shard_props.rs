//! Randomized shard-equivalence coverage (dettest): for arbitrary
//! schemas, datasets, cache configurations and queries, the scatter-gather
//! engine over a [`ShardedIndex`] at every shard count must return rows
//! byte-identical to the single-store engine (which `parallel_props`
//! already pins to the `naive_execute` oracle) — at every thread count,
//! with cube-touch totals stable across thread counts within a shard
//! count. A second property drives concurrent publishes into the sharded
//! store while queries run, proving snapshot isolation holds per shard and
//! the quiescent store converges back to single-store equality.

use dettest::{det_proptest, Rng, TempDir};
use rased_cube::{CubeSchema, DataCube};
use rased_index::{CacheConfig, ShardedIndex, TemporalIndex};
use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};
use rased_query::{naive_execute, AnalysisQuery, GroupDim, QueryEngine};
use rased_storage::IoCostModel;
use rased_temporal::{Date, DateRange, Granularity};
use std::collections::HashMap;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Pseudo-random records over `span` days starting at `start`, with gap
/// days so plans contain genuinely empty days.
fn dataset(rng: &mut Rng, schema: CubeSchema, start: Date, span: u64) -> Vec<UpdateRecord> {
    let mut out = Vec::new();
    for day in 0..span {
        if rng.below(5) == 0 {
            continue;
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

/// Group records by day in ingest order (sorted dates).
fn by_day(records: &[UpdateRecord]) -> Vec<(Date, Vec<&UpdateRecord>)> {
    let mut map: HashMap<Date, Vec<&UpdateRecord>> = HashMap::new();
    for r in records {
        map.entry(r.date).or_default().push(r);
    }
    let mut days: Vec<_> = map.into_iter().collect();
    days.sort_by_key(|(d, _)| *d);
    days
}

fn build_single(
    dir: &TempDir,
    schema: CubeSchema,
    cache: CacheConfig,
    records: &[UpdateRecord],
) -> TemporalIndex {
    let idx = TemporalIndex::create(dir.path(), schema, 4, cache, IoCostModel::free())
        .expect("create index");
    for (day, recs) in by_day(records) {
        let cube = DataCube::from_records(schema, recs.iter().copied()).expect("cube");
        idx.ingest_day(day, &cube).expect("ingest");
    }
    idx
}

fn build_sharded(
    dir: &TempDir,
    shards: usize,
    schema: CubeSchema,
    cache: CacheConfig,
    records: &[UpdateRecord],
) -> ShardedIndex {
    let idx = ShardedIndex::create(dir.path(), shards, schema, 4, cache, IoCostModel::free())
        .expect("create sharded index");
    for (day, recs) in by_day(records) {
        let cube = DataCube::from_records(schema, recs.iter().copied()).expect("cube");
        idx.ingest_day(day, &cube).expect("ingest");
    }
    idx
}

/// Maybe pick a non-empty subset of `all` (None = no filter).
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

/// A random query biased toward country filters (half the cases), since
/// predicate pushdown is the code path under test.
fn random_query(rng: &mut Rng, schema: CubeSchema, start: Date, span: u64) -> AnalysisQuery {
    let a = start.add_days(rng.below(span + 6) as i32 - 3);
    let b = start.add_days(rng.below(span + 6) as i32 - 3);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut q = AnalysisQuery::over(DateRange::new(lo, hi));

    let countries: Vec<CountryId> = (0..schema.n_countries() as u16 + 2).map(CountryId).collect();
    if let Some(c) = maybe_subset(rng, &countries) {
        q = q.countries(c);
    }
    if let Some(e) = maybe_subset(rng, &ElementType::ALL) {
        q = q.elements(e);
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

fn check_shard_equivalence(seed: u64, span: u64, n_countries: usize, cache_mode: u8) {
    let mut rng = Rng::new(seed);
    let schema = CubeSchema::new(n_countries, 3);
    let start = Date::new(2021, 1, 1).expect("date").add_days(rng.below(45) as i32);
    let records = dataset(&mut rng, schema, start, span);
    if records.is_empty() {
        return;
    }
    let cache = match cache_mode {
        0 => CacheConfig::disabled(),
        1 => CacheConfig { slots: 8 },
        _ => CacheConfig { slots: 16 },
    };

    let single_dir = TempDir::new("shard-props-single");
    let single = build_single(&single_dir, schema, cache, &records);
    if cache_mode == 1 {
        single.warm_cache().expect("warm");
    }
    let queries: Vec<AnalysisQuery> =
        (0..3).map(|_| random_query(&mut rng, schema, start, span)).collect();
    let want: Vec<_> = queries
        .iter()
        .map(|q| QueryEngine::new(&single).execute(q).expect("single execute"))
        .collect();
    // Ground the whole chain: single-store rows equal the raw-record oracle.
    for (q, w) in queries.iter().zip(&want) {
        assert_eq!(w.rows, naive_execute(&records, q, None).rows, "single != oracle (seed {seed})");
    }

    for shards in SHARD_COUNTS {
        let dir = TempDir::new(&format!("shard-props-{shards}"));
        let sharded = build_sharded(&dir, shards, schema, cache, &records);
        if cache_mode == 1 {
            sharded.warm_cache().expect("warm");
        }
        // A day publishes one unit per touched shard, so the summed epoch
        // equals the single store's only at one shard; above that it can
        // only grow.
        if shards == 1 {
            assert_eq!(sharded.epoch(), single.epoch(), "1-shard epoch must match single store");
        } else {
            assert!(sharded.epoch() >= single.epoch(), "shards can't publish fewer units");
        }
        for (q, w) in queries.iter().zip(&want) {
            let mut touched = None;
            for threads in [1usize, 2, 4, 7] {
                let res = QueryEngine::over_shards(&sharded)
                    .with_threads(threads)
                    .execute(q)
                    .expect("sharded execute");
                assert_eq!(
                    res.rows, w.rows,
                    "{shards} shards × {threads} threads diverged for {q:?} (seed {seed})"
                );
                // Cube-touch totals are a per-shard-count invariant: the
                // cache/disk split may shift, the total may not.
                let total = res.stats.cubes_from_cache + res.stats.cubes_from_disk;
                match touched {
                    None => touched = Some(total),
                    Some(t) => assert_eq!(
                        t, total,
                        "{shards} shards: thread count changed cube touches (seed {seed})"
                    ),
                }
            }
        }
    }
}

det_proptest! {
    #![det_config(cases = 12)]

    #[test]
    fn sharded_rows_match_single_store_at_every_count(
        seed in 0u64..u64::MAX,
        span in 5u64..70,
        n_countries in 2usize..8,
        cache_mode in 0u8..3,
    ) {
        check_shard_equivalence(seed, span, n_countries, cache_mode);
    }
}

/// Fixed-seed regression pin, exercised at every shard and thread count.
#[test]
fn pinned_instance_stays_equivalent() {
    check_shard_equivalence(0x5AADED_C0FFEE, 45, 5, 1);
    check_shard_equivalence(0x0BAD_5EED_5AADED, 62, 7, 2);
}

/// Queries racing publishes: readers over a sharded store must never
/// error, every result must equal the oracle of *some* day prefix (per
/// the marker-last commit protocol, a pinned snapshot set observes a
/// prefix of whole days when each query's countries land on one shard —
/// exercised here by filtering to a single country), and once ingest
/// quiesces the store must equal the never-raced single store.
#[test]
fn concurrent_publish_preserves_prefix_isolation() {
    let schema = CubeSchema::new(4, 3);
    let start = Date::new(2021, 3, 1).expect("date");
    let mut rng = Rng::new(0xFEED_FACE_CAFE);
    let records = dataset(&mut rng, schema, start, 40);
    let days = by_day(&records);
    let cubes: Vec<(Date, DataCube)> = days
        .iter()
        .map(|(d, recs)| {
            (*d, DataCube::from_records(schema, recs.iter().copied()).expect("cube"))
        })
        .collect();

    // Per-prefix oracles for a single-country probe query.
    let probe = AnalysisQuery::over(DateRange::new(start, start.add_days(39)))
        .countries(vec![CountryId(1)])
        .group(GroupDim::Date(Granularity::Day));
    let oracles: Vec<Vec<rased_query::ResultRow>> = (0..=days.len())
        .map(|k| {
            let prefix: Vec<UpdateRecord> = days[..k]
                .iter()
                .flat_map(|(_, recs)| recs.iter().map(|r| (*r).clone()))
                .collect();
            naive_execute(&prefix, &probe, None).rows
        })
        .collect();

    let dir = TempDir::new("shard-props-race");
    let sharded = ShardedIndex::create(
        dir.path(),
        4,
        schema,
        4,
        CacheConfig { slots: 8 },
        IoCostModel::free(),
    )
    .expect("create");

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for (day, cube) in &cubes {
                sharded.ingest_day(*day, cube).expect("ingest");
                sharded.warm_cache().expect("warm");
            }
        });
        let mut seen_prefixes = 0usize;
        for _ in 0..200 {
            let res = QueryEngine::over_shards(&sharded)
                .with_threads(2)
                .execute(&probe)
                .expect("query under publish must not error");
            // CountryId(1) lives wholly on one shard: its rows advance
            // through exact day prefixes of the publish order.
            let hit = oracles.iter().position(|rows| *rows == res.rows);
            assert!(
                hit.is_some(),
                "mid-publish result is not any day-prefix oracle ({} rows)",
                res.rows.len()
            );
            seen_prefixes = seen_prefixes.max(hit.unwrap_or(0));
        }
        writer.join().expect("writer");
        assert!(seen_prefixes <= days.len());
    });

    // Quiescent: the raced store equals a never-raced single store.
    let single_dir = TempDir::new("shard-props-race-single");
    let single = build_single(&single_dir, schema, CacheConfig { slots: 8 }, &records);
    for q in [
        probe.clone(),
        AnalysisQuery::over(DateRange::new(start, start.add_days(39))).group(GroupDim::Country),
    ] {
        let a = QueryEngine::over_shards(&sharded).execute(&q).expect("sharded");
        let b = QueryEngine::new(&single).execute(&q).expect("single");
        assert_eq!(a.rows, b.rows, "quiescent sharded store diverges from single store");
    }
}
