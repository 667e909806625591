//! Randomized lattice-equivalence coverage (dettest): for arbitrary
//! datasets with scattered coordinates, arbitrary grids, bank shard
//! counts, viewports and query shapes, the three executions of a bbox
//! query must agree byte-for-byte:
//!
//! 1. the banked viewport path (spatial blocks + scan fallbacks),
//! 2. the grid-scan ablation (one exhaustive warehouse region scan),
//! 3. the record-at-a-time oracle ([`naive_execute`]),
//!
//! and the agreement must survive running the engine over a sharded cube
//! store at any shard × thread count. A second property pins that adding
//! a spatial context changes nothing for pure-temporal queries, and a
//! fixed case pins that a cell too dense for any small page is banked
//! like any other.

use dettest::{det_proptest, Rng, TempDir};
use rased_cube::{CubeSchema, DataCube};
use rased_geo::{BBox, GridSpec, Point};
use rased_index::{CacheConfig, ShardedIndex, SpatialBank, TemporalIndex};
use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};
use rased_query::{naive_execute, AnalysisQuery, GroupDim, QueryEngine, SpatialExec};
use rased_storage::IoCostModel;
use rased_temporal::{Date, DateRange, Granularity, Period};
use rased_warehouse::Warehouse;
use std::collections::BTreeMap;

/// Grid extent side (tenth-microdegrees); all records land inside it.
const EXT: i64 = 8000;

fn dataset(rng: &mut Rng, schema: CubeSchema, start: Date, span: u64) -> Vec<UpdateRecord> {
    let mut out = Vec::new();
    for day in 0..span {
        if rng.below(5) == 0 {
            continue; // gap days, so plans contain scans over nothing
        }
        let date = start.add_days(day as i32);
        for _ in 0..(1 + rng.below(8)) {
            out.push(UpdateRecord {
                element_type: ElementType::ALL[rng.below(ElementType::ALL.len() as u64) as usize],
                update_type: UpdateType::ALL[rng.below(UpdateType::ALL.len() as u64) as usize],
                country: CountryId(rng.below(schema.n_countries() as u64) as u16),
                road_type: RoadTypeId(rng.below(schema.n_road_types() as u64) as u16),
                date,
                lat7: rng.below(EXT as u64 + 1) as i32,
                lon7: rng.below(EXT as u64 + 1) as i32,
                changeset: ChangesetId(rng.below(u64::MAX)),
            });
        }
    }
    out
}

/// Half the time a cell-aligned box (interior-heavy covers), half the time
/// two arbitrary corners that may hang past the grid extent (clipping +
/// boundary cells).
fn random_viewport(rng: &mut Rng, grid: &GridSpec) -> BBox {
    if rng.below(2) == 0 {
        let corner = |r: &mut Rng| {
            (r.below(EXT as u64 + 2001) as i32 - 1000, r.below(EXT as u64 + 2001) as i32 - 1000)
        };
        let (a_lat, a_lon) = corner(rng);
        let (b_lat, b_lon) = corner(rng);
        BBox::new(a_lat, a_lon, b_lat, b_lon)
    } else {
        let cover = grid.cover(&BBox::new(0, 0, EXT as i32, EXT as i32));
        let cells = cover.interior;
        let a = cells[rng.below(cells.len() as u64) as usize];
        let b = cells[rng.below(cells.len() as u64) as usize];
        let ab = grid.cell_bbox(a).expect("occupied cell");
        ab.union(&grid.cell_bbox(b).expect("occupied cell"))
    }
}

fn maybe_subset<T: Copy>(rng: &mut Rng, all: &[T]) -> Option<Vec<T>> {
    if rng.below(2) == 0 || all.is_empty() {
        return None;
    }
    let k = 1 + rng.below(all.len() as u64) as usize;
    Some((0..k).map(|_| all[rng.below(all.len() as u64) as usize]).collect())
}

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
    if let Some(u) = maybe_subset(rng, &UpdateType::ALL) {
        q = q.updates(u);
    }
    for dim in [GroupDim::ElementType, GroupDim::Country, GroupDim::RoadType, GroupDim::UpdateType]
    {
        if rng.below(3) == 0 {
            q = q.group(dim);
        }
    }
    if rng.below(3) == 0 {
        let g = [Granularity::Day, Granularity::Week, Granularity::Month, Granularity::Year]
            [rng.below(4) as usize];
        q = q.group(GroupDim::Date(g));
    }
    q
}

struct SpatialFixture {
    _dir: TempDir,
    single: TemporalIndex,
    sharded: ShardedIndex,
    warehouse: Warehouse,
    bank: SpatialBank,
}

fn build(
    rng: &mut Rng,
    schema: CubeSchema,
    grid: GridSpec,
    bank_shards: usize,
    records: &[UpdateRecord],
) -> SpatialFixture {
    let dir = TempDir::new("lattice-props");
    let single = TemporalIndex::create(
        &dir.path().join("single"),
        schema,
        4,
        CacheConfig::disabled(),
        IoCostModel::free(),
    )
    .expect("create single");
    let cube_shards = 1 + rng.below(4) as usize;
    let sharded = ShardedIndex::create(
        &dir.path().join("sharded"),
        cube_shards,
        schema,
        4,
        CacheConfig::disabled(),
        IoCostModel::free(),
    )
    .expect("create sharded");
    let warehouse =
        Warehouse::create(&dir.path().join("wh"), IoCostModel::free(), 64).expect("create wh");
    let bank = SpatialBank::create(
        &dir.path().join("bank"),
        bank_shards,
        grid,
        schema,
        IoCostModel::free(),
        1 + rng.below(32) as usize,
    )
    .expect("create bank");

    let mut days: BTreeMap<Date, Vec<UpdateRecord>> = BTreeMap::new();
    for r in records {
        days.entry(r.date).or_default().push(*r);
    }
    for (day, recs) in &days {
        let cube = DataCube::from_records(schema, recs.iter()).expect("cube");
        single.ingest_day(*day, &cube).expect("ingest single");
        sharded.ingest_day(*day, &cube).expect("ingest sharded");
        for r in recs {
            warehouse.insert(r).expect("wh insert");
        }
        bank.publish_day(*day, recs).expect("bank publish");
    }
    warehouse.flush().expect("wh flush");
    SpatialFixture { _dir: dir, single, sharded, warehouse, bank }
}

fn check_lattice_equivalence(seed: u64, span: u64, bank_shards: usize, rows: u32, cols: u32) {
    let mut rng = Rng::new(seed);
    let schema = CubeSchema::new(4, 3);
    let grid = GridSpec::new(BBox::new(0, 0, EXT as i32, EXT as i32), rows, cols);
    let start = Date::new(2021, 1, 1).expect("date").add_days(rng.below(45) as i32);
    let records = dataset(&mut rng, schema, start, span);
    if records.is_empty() {
        return;
    }
    let fx = build(&mut rng, schema, grid, bank_shards, &records);

    for _ in 0..3 {
        let q = random_query(&mut rng, schema, start, span).within(random_viewport(&mut rng, &grid));
        let want = naive_execute(&records, &q, None);
        let banked = QueryEngine::new(&fx.single)
            .with_spatial(SpatialExec::banked(&fx.warehouse, &fx.bank))
            .execute(&q)
            .expect("banked execute");
        assert_eq!(banked.rows, want.rows, "banked != oracle (seed {seed}) for {q:?}");
        let scanned = QueryEngine::new(&fx.single)
            .with_spatial(SpatialExec::scan_only(&fx.warehouse))
            .execute(&q)
            .expect("scan-only execute");
        assert_eq!(scanned.rows, want.rows, "grid-scan != oracle (seed {seed}) for {q:?}");
        for threads in [1usize, 3] {
            let over = QueryEngine::over_shards(&fx.sharded)
                .with_threads(threads)
                .with_spatial(SpatialExec::banked(&fx.warehouse, &fx.bank))
                .execute(&q)
                .expect("sharded spatial execute");
            assert_eq!(
                over.rows, want.rows,
                "sharded engine diverged at {threads} threads (seed {seed}) for {q:?}"
            );
        }
    }
}

fn check_temporal_unaffected(seed: u64, span: u64) {
    let mut rng = Rng::new(seed);
    let schema = CubeSchema::new(4, 3);
    let grid = GridSpec::new(BBox::new(0, 0, EXT as i32, EXT as i32), 3, 3);
    let start = Date::new(2021, 1, 1).expect("date");
    let records = dataset(&mut rng, schema, start, span);
    if records.is_empty() {
        return;
    }
    let fx = build(&mut rng, schema, grid, 2, &records);
    for _ in 0..3 {
        let q = random_query(&mut rng, schema, start, span); // no bbox
        let plain = QueryEngine::new(&fx.single).execute(&q).expect("plain");
        let ctx = QueryEngine::new(&fx.single)
            .with_spatial(SpatialExec::banked(&fx.warehouse, &fx.bank))
            .execute(&q)
            .expect("with context");
        assert_eq!(ctx.rows, plain.rows, "spatial context changed temporal rows (seed {seed})");
        assert_eq!(ctx.stats.blocks_from_disk + ctx.stats.blocks_from_cache, 0);
        assert_eq!(ctx.stats.scan_rows, 0, "temporal query must not scan the warehouse");
    }
}

/// One cell sees 1 400 distinct (element, country, road, update) cells in
/// a day — an encoding of 16 820 B, over the 16 KiB a bank page once held.
/// The block is stored, its day and month are marked and rolled up, and a
/// viewport over the cell is answered from blocks alone, equal to the
/// grid scan and the oracle.
#[test]
fn a_dense_cell_is_banked_marked_and_exact() {
    let schema = CubeSchema::new(20, 10);
    let grid = GridSpec::new(BBox::new(0, 0, EXT as i32, EXT as i32), 2, 2);
    let (busy, quiet) = (Date::new(2021, 1, 31).expect("date"), Date::new(2021, 1, 12).expect("date"));
    let rec = |date: Date, et: usize, c: u16, r: u16, u: usize, lat7: i32| UpdateRecord {
        element_type: ElementType::ALL[et],
        update_type: UpdateType::ALL[u],
        country: CountryId(c),
        road_type: RoadTypeId(r),
        date,
        lat7,
        lon7: 1000,
        changeset: ChangesetId(u64::from(c) * 100 + u64::from(r)),
    };
    let mut records = vec![rec(quiet, 1, 3, 2, 0, 1000), rec(busy, 0, 0, 0, 1, 7000)];
    for et in 0..3 {
        for c in 0..20 {
            for r in 0..10 {
                for u in 0..5 {
                    records.push(rec(busy, et, c, r, u, 1000));
                }
            }
        }
    }
    records.truncate(2 + 1_400);
    let fx = build(&mut Rng::new(0xDE45E), schema, grid, 2, &records);

    let cell = grid.cell_of(Point::new(1000, 1000)).expect("cell");
    let shard = fx.bank.shard_of(cell);
    let snap = fx.bank.snapshot(shard).expect("snapshot");
    let block = fx
        .bank
        .fetch_block(shard, &snap, cell, Period::Day(busy))
        .expect("fetch")
        .expect("the dense day's block is stored");
    assert_eq!(block.len(), 1_400);
    assert!(block.to_bytes().len() > 16 * 1024, "the encoding outgrows a 16 KiB page");
    assert!(fx.bank.has_block(&snap, cell, Period::Month(2021, 1)), "month rolled up");
    assert!(fx.bank.day_published(&fx.bank.marker_snapshot(), busy), "the dense day is marked");

    let viewport = grid.cell_bbox(cell).expect("cell bbox");
    for q in [
        AnalysisQuery::over(DateRange::single(busy)),
        AnalysisQuery::over(DateRange::new(quiet, busy)).group(GroupDim::Country),
        AnalysisQuery::over(DateRange::new(quiet, busy)).group(GroupDim::UpdateType).group(GroupDim::RoadType),
    ] {
        let q = q.within(viewport);
        let want = naive_execute(&records, &q, None);
        let banked = QueryEngine::new(&fx.single)
            .with_spatial(SpatialExec::banked(&fx.warehouse, &fx.bank))
            .execute(&q)
            .expect("banked execute");
        let scanned = QueryEngine::new(&fx.single)
            .with_spatial(SpatialExec::scan_only(&fx.warehouse))
            .execute(&q)
            .expect("scan-only execute");
        assert_eq!(banked.rows, want.rows, "banked != oracle for {q:?}");
        assert_eq!(scanned.rows, want.rows, "grid-scan != oracle for {q:?}");
        assert_eq!(banked.stats.scan_rows, 0, "a marked, banked cell needs no scan: {q:?}");
        assert!(banked.stats.blocks_from_disk + banked.stats.blocks_from_cache > 0);
    }
}

det_proptest! {
    #![det_config(cases = 8)]

    #[test]
    fn banked_scan_only_and_oracle_agree(
        seed in 0u64..1_000_000,
        span in 35u64..75,
        bank_shards in 1usize..5,
        rows in 2u32..6,
        cols in 2u32..6,
    ) {
        check_lattice_equivalence(seed, span, bank_shards, rows, cols);
    }

    #[test]
    fn temporal_queries_ignore_spatial_context(seed in 0u64..1_000_000, span in 30u64..60) {
        check_temporal_unaffected(seed, span);
    }
}
