//! Microbenches for the individual subsystems: cube build and roll-up,
//! level planning, XML parsing, the daily crawler, and warehouse lookups.
//! These back the in-text performance assertions (e.g. the "30 minutes,
//! dominated by scanning the UpdateList" daily maintenance).

use rased_bench::harness::{Harness, Throughput};
use rased_bench::{RecordSynth, Workload};
use rased_core::{CubeSchema, DataCube};
use rased_index::{LevelPlanner, PlannerKind};
use rased_osm_model::{CountryId, RoadTypeTable};
use rased_temporal::{Date, DateRange, Period};

fn bench_cube(c: &mut Harness) {
    let w = Workload::years(1, 5_000, 0x01);
    let mut synth = RecordSynth::new(&w);
    let records = synth.day(w.range.start());

    let mut group = c.benchmark_group("cube");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("build_from_records", |b| {
        b.iter(|| DataCube::from_records(w.schema, &records).expect("build"))
    });

    let cube = DataCube::from_records(w.schema, &records).expect("build");
    group.bench_function("merge", |b| {
        b.iter(|| {
            let mut acc = DataCube::zeroed(w.schema);
            acc.merge_from(&cube).expect("merge");
            acc
        })
    });
    group.bench_function("serialize_roundtrip", |b| {
        b.iter(|| {
            let bytes = cube.to_bytes();
            DataCube::from_bytes(w.schema, &bytes).expect("decode")
        })
    });
    group.finish();
}

fn bench_planner(c: &mut Harness) {
    let exists = |_: Period| true;
    let cached = |p: Period| p.start().day() < 8;
    let planner = LevelPlanner::new(4, &exists, &cached);
    let range = DateRange::new(
        Date::new(2006, 1, 1).expect("valid"),
        Date::new(2021, 12, 31).expect("valid"),
    );
    let mut group = c.benchmark_group("planner");
    group.bench_function("dp_16y", |b| b.iter(|| planner.plan(range, PlannerKind::ExactDp)));
    group.bench_function("greedy_16y", |b| b.iter(|| planner.plan(range, PlannerKind::Greedy)));
    group.finish();
}

fn bench_xml(c: &mut Harness) {
    use rased_osm_gen::{EditSimulator, SimConfig, WorldAtlas, WorldConfig};
    use rased_osm_xml::{DiffReader, DiffWriter};

    let atlas = WorldAtlas::generate(&WorldConfig { n_countries: 10, activity_skew: 1.0, seed: 3 });
    let mut sim = EditSimulator::new(
        &atlas,
        SimConfig { daily_edits_mean: 2_000.0, seed: 4, ..SimConfig::default() },
    );
    sim.seed_world(50, Date::new(2020, 12, 31).expect("valid"));
    let out = sim.step_day(Date::new(2021, 1, 1).expect("valid"));
    let mut writer = DiffWriter::new(Vec::new()).expect("writer");
    for (a, e) in &out.changes {
        writer.write(*a, e).expect("write");
    }
    let bytes = writer.finish().expect("finish");

    let mut group = c.benchmark_group("osm_xml");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("parse_daily_diff", |b| {
        b.iter(|| {
            let n = DiffReader::new(bytes.as_slice()).map(|r| r.expect("change")).fold(0usize, |acc, _| acc + 1);
            assert_eq!(n, out.changes.len());
            n
        })
    });
    group.finish();
}

fn bench_collector(c: &mut Harness) {
    use rased_collector::DailyCrawler;
    use rased_osm_gen::{EditSimulator, SimConfig, WorldAtlas, WorldConfig};
    use rased_osm_model::CountryResolver;
    use rased_osm_xml::{ChangesetWriter, DiffWriter};

    // One realistic day of diff + changeset bytes.
    let atlas = WorldAtlas::generate(&WorldConfig { n_countries: 20, activity_skew: 1.0, seed: 9 });
    let mut sim = EditSimulator::new(
        &atlas,
        SimConfig { daily_edits_mean: 2_000.0, seed: 10, ..SimConfig::default() },
    );
    sim.seed_world(40, Date::new(2020, 12, 31).expect("valid"));
    let out = sim.step_day(Date::new(2021, 1, 1).expect("valid"));
    let diff_bytes = {
        let mut w = DiffWriter::new(Vec::new()).expect("writer");
        for (a, e) in &out.changes {
            w.write(*a, e).expect("write");
        }
        w.finish().expect("finish")
    };
    let cs_bytes = {
        let mut w = ChangesetWriter::new(Vec::new()).expect("writer");
        for m in &out.changesets {
            w.write(m).expect("write");
        }
        w.finish().expect("finish")
    };
    let table = sim.road_table().clone();
    // Sanity: the crawl really emits the day's updates.
    let resolver: &dyn CountryResolver = &atlas;
    let crawler = DailyCrawler::new(resolver, &table);
    let (records, _) = crawler.crawl(diff_bytes.as_slice(), cs_bytes.as_slice()).expect("crawl");
    assert_eq!(records.len(), out.changes.len());

    let mut group = c.benchmark_group("collector");
    group.throughput(Throughput::Elements(out.changes.len() as u64));
    group.bench_function("daily_crawl", |b| {
        b.iter(|| {
            let crawler = DailyCrawler::new(resolver, &table);
            crawler.crawl(diff_bytes.as_slice(), cs_bytes.as_slice()).expect("crawl")
        })
    });
    group.finish();
}

fn bench_warehouse(c: &mut Harness) {
    use rased_geo::BBox;
    use rased_storage::IoCostModel;
    use rased_warehouse::Warehouse;

    let dir = rased_bench::bench_dir("crit-wh");
    let w = Workload::years(1, 2_000, 0x05);
    let mut synth = RecordSynth::new(&w);
    let warehouse =
        Warehouse::create(&dir.file("wh.pg"), IoCostModel::free(), 1024).expect("create");
    let mut some_changeset = None;
    for day in w.range.days().take(30) {
        for r in synth.day(day) {
            some_changeset.get_or_insert(r.changeset);
            warehouse.insert(&r).expect("insert");
        }
    }
    let cs = some_changeset.expect("records inserted");

    let mut group = c.benchmark_group("warehouse");
    group.bench_function("by_changeset", |b| {
        b.iter(|| warehouse.by_changeset(cs).expect("lookup"))
    });
    let bbox = BBox::from_deg(-30.0, -90.0, 30.0, 90.0);
    group.bench_function("sample_region_100", |b| {
        b.iter(|| warehouse.sample_region(&bbox, 100).expect("sample"))
    });
    group.finish();
}

fn bench_selection(c: &mut Harness) {
    use rased_cube::DimSelection;
    let schema = CubeSchema::new(60, 40);
    let w = Workload::years(1, 20_000, 0x06);
    let mut synth = RecordSynth::new(&w);
    let cube = DataCube::from_records(schema, &synth.day(w.range.start())).expect("build");

    let mut group = c.benchmark_group("aggregation");
    let all = DimSelection::all(schema);
    group.bench_function("sum_all_cells", |b| b.iter(|| cube.sum_selected(&all)));
    let narrow = DimSelection::all(schema).with_countries(&[CountryId(0), CountryId(1)]);
    group.bench_function("sum_two_countries", |b| b.iter(|| cube.sum_selected(&narrow)));
    group.finish();

    // Road-type resolution (tag → id) — hot in the crawlers.
    let table = RoadTypeTable::paper_scale();
    let mut group = c.benchmark_group("taxonomy");
    group.bench_function("road_type_lookup", |b| {
        b.iter(|| table.by_value("residential").expect("known value"))
    });
    group.finish();
}

fn main() {
    let mut h = Harness::from_env();
    bench_cube(&mut h);
    bench_planner(&mut h);
    bench_xml(&mut h);
    bench_collector(&mut h);
    bench_warehouse(&mut h);
    bench_selection(&mut h);
}
