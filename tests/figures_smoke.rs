//! Small-scale continuous verification of the paper's figure *shapes*, so
//! `cargo test` guards the claims the full harness binaries measure:
//!
//! * Fig. 8 — a 4-level index costs only slightly more dense pages than
//!   flat, and its packed records a small fraction of them;
//! * Fig. 9 — RASED-F ≫ RASED-O ≫ RASED in disk fetches;
//! * Fig. 10 — the DBMS scan cost is window-independent and larger than
//!   RASED's touched pages;
//! * Fig. 7 — growing the cache monotonically (weakly) reduces disk fetches.

use rased_baseline::{DbmsBaseline, RasedVariant};
use rased_bench::{build_heap, build_index, one_cell_query, Workload};
use rased_core::{CacheConfig, CubeSchema, IoCostModel, QueryEngine, TemporalIndex};
use rased_temporal::{Date, DateRange};

mod common;
use common::tmpdir;

fn small_workload() -> Workload {
    let mut w = Workload::years(2, 60, 0x57A0);
    w.schema = CubeSchema::new(10, 6);
    w
}

/// Fig. 8's "4-level ≈ 1.15× flat" is a claim about dense pages, one per
/// cube, so the ratio is taken on that basis: materialized cubes × a dense
/// cube's bytes. Packed records shrink daily cubes far more than roll-ups
/// (a roll-up holds the union of its children's non-zero cells), so the
/// packed 4-level store is ~1.95× the packed flat one, while the packed
/// store as a whole is a small fraction of even the flat dense pages.
#[test]
fn fig8_shape_extra_levels_are_cheap() {
    let w = small_workload();
    let dir = tmpdir("fig8");
    let flat =
        build_index(&dir.join("l1"), &w, 1, CacheConfig::disabled(), IoCostModel::free()).unwrap();
    let full =
        build_index(&dir.join("l4"), &w, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
    let dense = |index: &TemporalIndex| (index.cube_count() * w.schema.cube_bytes()) as u64;
    let ratio = dense(&full) as f64 / dense(&flat) as f64;
    assert!(
        (1.0..1.30).contains(&ratio),
        "4-level/flat dense-page ratio {ratio} outside the paper's neighborhood"
    );
    // Measured: 950 428 B packed against 5 274 896 B of flat dense pages
    // (0.18); the packed flat store is 486 652 B (0.09).
    assert!(
        full.storage_bytes() * 5 <= dense(&flat),
        "packed 4-level store ({} B) is over a fifth of the flat dense pages ({} B)",
        full.storage_bytes(),
        dense(&flat)
    );
}

#[test]
fn fig9_shape_each_component_helps() {
    let w = small_workload();
    let dir = tmpdir("fig9");
    build_index(&dir.join("index"), &w, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
    let range = DateRange::new(Date::new(2021, 1, 1).unwrap(), w.range.end());
    let query = one_cell_query(range);

    let mut disk = Vec::new();
    for variant in RasedVariant::ALL {
        let index = TemporalIndex::open(
            &dir.join("index"),
            w.schema,
            variant.levels(),
            variant.cache(64),
            IoCostModel::free(),
        )
        .unwrap();
        index.warm_cache().unwrap();
        let result = QueryEngine::new(&index).execute(&query).unwrap();
        disk.push(result.stats.cubes_from_disk);
    }
    let (f, o, full) = (disk[0], disk[1], disk[2]);
    assert!(f >= 300, "flat must fetch ~a year of daily cubes, got {f}");
    assert!(o <= f / 20, "hierarchy must collapse fetches: F={f}, O={o}");
    assert!(full < o, "cache must remove further fetches: O={o}, RASED={full}");
}

#[test]
fn fig10_shape_dbms_cost_is_constant_rased_is_not() {
    let w = small_workload();
    let dir = tmpdir("fig10");
    build_index(&dir.join("index"), &w, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
    let heap = build_heap(&dir.join("heap.pg"), &w, IoCostModel::free(), 0).unwrap();
    let index = TemporalIndex::open(
        &dir.join("index"),
        w.schema,
        4,
        CacheConfig::disabled(),
        IoCostModel::free(),
    )
    .unwrap();
    let engine = QueryEngine::new(&index);
    let dbms = DbmsBaseline::new(&heap);

    let short = one_cell_query(DateRange::new(w.range.end().add_days(-30), w.range.end()));
    let long = one_cell_query(w.range);

    let dbms_short = dbms.execute(&short).unwrap().stats.io.reads;
    let dbms_long = dbms.execute(&long).unwrap().stats.io.reads;
    assert_eq!(dbms_short, dbms_long, "row scan must read every page either way");

    let rased_short = engine.execute(&short).unwrap().stats.io.reads;
    let rased_long = engine.execute(&long).unwrap().stats.io.reads;
    assert!(rased_short <= 31 + 5);
    assert!(rased_long < dbms_long, "RASED must touch fewer pages than a full scan");
    assert!(rased_short <= rased_long);
    // Both answers agree, of course.
    assert_eq!(
        engine.execute(&long).unwrap().rows,
        dbms.execute(&long).unwrap().rows
    );
}

#[test]
fn fig7_shape_more_cache_never_more_disk() {
    let w = small_workload();
    let dir = tmpdir("fig7");
    build_index(&dir.join("index"), &w, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
    let query = one_cell_query(DateRange::new(w.range.end().add_days(-180), w.range.end()));

    let mut last_disk = usize::MAX;
    for slots in [0usize, 8, 32, 128, 512] {
        let index = TemporalIndex::open(
            &dir.join("index"),
            w.schema,
            4,
            CacheConfig { slots },
            IoCostModel::free(),
        )
        .unwrap();
        index.warm_cache().unwrap();
        let disk = QueryEngine::new(&index).execute(&query).unwrap().stats.cubes_from_disk;
        assert!(
            disk <= last_disk,
            "disk fetches rose from {last_disk} to {disk} at {slots} slots"
        );
        last_disk = disk;
    }
    assert_eq!(last_disk, 0, "a 512-slot cache must fully absorb a recent 6-month query");
}
