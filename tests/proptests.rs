//! Workspace-level property tests (dettest): arbitrary-content XML
//! roundtrips, cube algebra over random record sets, and engine-vs-oracle
//! equivalence on randomized queries.

use dettest::{
    bools, det_proptest, just, one_of, option_of, string_from, vec_of, Rng, Strategy,
};
use rased_core::{AnalysisQuery, CubeSchema, DataCube, DimSelection, GroupDim};
use rased_cube::{CubeError, CubeView, SparseBlock, BLOCK_HEADER_BYTES};
use rased_osm_model::{
    ChangesetId, CountryId, Element, ElementId, ElementType, Node, RoadTypeId, Tags, UpdateRecord,
    UpdateType, UserId, Version, VersionInfo, Way,
};
use rased_osm_xml::{DiffAction, DiffReader, DiffWriter, PlanetReader, PlanetWriter};
use rased_query::naive_execute;
use rased_temporal::{Date, DateRange, Granularity};

// --- generators -------------------------------------------------------------

/// Printable ASCII (the `[ -~]` class) plus XML-hostile multibyte chars.
const TAG_ALPHABET: &str = concat!(
    " !\"#$%&'()*+,-./0123456789:;<=>?@",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`",
    "abcdefghijklmnopqrstuvwxyz{|}~",
    "äöü€<>&\"'",
);

fn any_tag_string() -> impl Strategy<Value = String> {
    // Printable-ish strings including XML-hostile characters.
    string_from(TAG_ALPHABET, 0..=24)
}

fn any_tags() -> impl Strategy<Value = Tags> {
    vec_of((string_from("abcdefghijklmnopqrstuvwxyz_:", 1..=10), any_tag_string()), 0..5)
        .prop_map(Tags::from_pairs)
}

fn any_info() -> impl Strategy<Value = VersionInfo> {
    (1u32..50, 15_000i32..20_000, 1u64..1_000_000, 0u64..5_000, bools()).prop_map(
        |(v, days, cs, uid, visible)| VersionInfo {
            version: Version(v),
            date: Date::from_days(days),
            changeset: ChangesetId(cs),
            user: UserId(uid),
            visible,
        },
    )
}

fn any_element() -> impl Strategy<Value = Element> {
    let node = (
        1i64..1_000_000,
        any_info(),
        -900_000_000i32..900_000_000,
        -1_800_000_000i32..1_800_000_000,
        any_tags(),
    )
        .prop_map(|(id, info, lat7, lon7, tags)| {
            Element::Node(Node { id: ElementId(id), info, lat7, lon7, tags })
        });
    let way = (1i64..1_000_000, any_info(), vec_of(1i64..1_000_000, 0..8), any_tags()).prop_map(
        |(id, info, nodes, tags)| {
            Element::Way(Way {
                id: ElementId(id),
                info,
                nodes: nodes.into_iter().map(ElementId).collect(),
                tags,
            })
        },
    );
    one_of(vec![node.boxed(), way.boxed()])
}

fn any_record() -> impl Strategy<Value = UpdateRecord> {
    (0usize..3, 0u16..6, 0u16..5, 0usize..5, 18_000i32..18_100, 1u64..500).prop_map(
        |(et, c, r, u, days, cs)| UpdateRecord {
            element_type: ElementType::from_index(et).expect("in range"),
            update_type: UpdateType::from_index(u).expect("in range"),
            country: CountryId(c),
            road_type: RoadTypeId(r),
            date: Date::from_days(days),
            lat7: 0,
            lon7: 0,
            changeset: ChangesetId(cs),
        },
    )
}

/// Optional per-dimension filters for a [`DimSelection`] over a 6 × 5
/// schema: (element types, countries, road types, update types).
type SelSpec = (Option<Vec<usize>>, Option<Vec<u16>>, Option<Vec<u16>>, Option<Vec<usize>>);

fn any_selection() -> impl Strategy<Value = SelSpec> {
    (
        option_of(vec_of(0usize..3, 1..3)),
        option_of(vec_of(0u16..6, 1..4)),
        option_of(vec_of(0u16..5, 1..4)),
        option_of(vec_of(0usize..5, 1..4)),
    )
}

fn selection(schema: CubeSchema, (ets, cs, rs, us): &SelSpec) -> DimSelection {
    let mut sel = DimSelection::all(schema);
    if let Some(ets) = ets {
        let ets: Vec<ElementType> = ets.iter().filter_map(|&i| ElementType::from_index(i)).collect();
        sel = sel.with_element_types(&ets);
    }
    if let Some(cs) = cs {
        sel = sel.with_countries(&cs.iter().map(|&c| CountryId(c)).collect::<Vec<_>>());
    }
    if let Some(rs) = rs {
        sel = sel.with_road_types(&rs.iter().map(|&r| RoadTypeId(r)).collect::<Vec<_>>());
    }
    if let Some(us) = us {
        let us: Vec<UpdateType> = us.iter().filter_map(|&u| UpdateType::from_index(u)).collect();
        sel = sel.with_update_types(&us);
    }
    sel
}

type Cell = (usize, usize, usize, usize, u64);

fn cube_cells(cube: &DataCube, sel: &DimSelection) -> Vec<Cell> {
    let mut out = Vec::new();
    cube.for_each_selected(sel, |et, c, r, u, v| out.push((et, c, r, u, v)));
    out
}

fn view_cells(view: &CubeView<'_>, sel: &DimSelection) -> Vec<Cell> {
    let mut out = Vec::new();
    view.for_each_selected(sel, |et, c, r, u, v| out.push((et, c, r, u, v)));
    out
}

// --- properties ---------------------------------------------------------------

det_proptest! {
    #![det_config(cases = 64)]

    #[test]
    fn planet_roundtrip_arbitrary_elements(elements in vec_of(any_element(), 0..20)) {
        let mut w = PlanetWriter::new(Vec::new()).expect("writer");
        for e in &elements {
            w.write(e).expect("write");
        }
        let bytes = w.finish().expect("finish");
        let got: Vec<Element> = PlanetReader::new(bytes.as_slice())
            .map(|r| r.expect("parse"))
            .collect();
        assert_eq!(got, elements);
    }

    #[test]
    fn diff_roundtrip_arbitrary_actions(
        changes in vec_of((one_of(vec![
            just(DiffAction::Create).boxed(),
            just(DiffAction::Modify).boxed(),
            just(DiffAction::Delete).boxed(),
        ]), any_element()), 0..20)
    ) {
        let mut w = DiffWriter::new(Vec::new()).expect("writer");
        for (a, e) in &changes {
            w.write(*a, e).expect("write");
        }
        let bytes = w.finish().expect("finish");
        let got: Vec<(DiffAction, Element)> = DiffReader::new(bytes.as_slice())
            .map(|r| r.expect("parse"))
            .collect();
        assert_eq!(got, changes);
    }

    #[test]
    fn cube_build_distributes_over_partition(
        records in vec_of(any_record(), 0..200),
        split in 0usize..200,
    ) {
        let schema = CubeSchema::new(6, 5);
        let split = split.min(records.len());
        let whole = DataCube::from_records(schema, &records).expect("build");
        let mut parts = DataCube::from_records(schema, &records[..split]).expect("build");
        let rest = DataCube::from_records(schema, &records[split..]).expect("build");
        parts.merge_from(&rest).expect("merge");
        assert_eq!(whole, parts);
    }

    /// The cube codec: any cube round-trips through whichever encoding
    /// `to_bytes` picks (the smaller), the borrowed view folds exactly the
    /// cells the owned cube folds, and corrupted bytes decode to a cube or
    /// a typed error, never a panic. 0..1200 records over 450 cells spans
    /// both encodings (sparse below 300 non-zero cells).
    #[test]
    fn cube_serialization_roundtrip(
        records in vec_of(any_record(), 0..1200),
        sel in any_selection(),
        noise in vec_of((0usize..4096, 0u8..=255), 0..6),
        cut in option_of(0usize..4096),
    ) {
        let schema = CubeSchema::new(6, 5);
        let cube = DataCube::from_records(schema, &records).expect("build");
        assert_eq!(cube.total(), records.len() as u64);
        let bytes = cube.to_bytes();
        let nnz = cube.cells().iter().filter(|&&v| v != 0).count();
        let sparse_len = BLOCK_HEADER_BYTES + 12 * nnz;
        assert_eq!(bytes.len(), sparse_len.min(schema.cube_bytes()), "the smaller encoding");
        assert_eq!(&DataCube::from_bytes(schema, &bytes).expect("decode"), &cube);

        let view = CubeView::parse(schema, &bytes).expect("view");
        assert_eq!(view.is_sparse(), sparse_len < schema.cube_bytes());
        let sel = selection(schema, &sel);
        assert_eq!(view_cells(&view, &sel), cube_cells(&cube, &sel));

        let mut bad = bytes.clone();
        for (at, b) in noise {
            let len = bad.len();
            if let Some(x) = bad.get_mut(at % len) {
                *x = b;
            }
        }
        if let Some(cut) = cut {
            bad.truncate(cut);
        }
        let owned = DataCube::from_bytes(schema, &bad);
        match (CubeView::parse(schema, &bad), &owned) {
            (Ok(view), Ok(owned)) => assert_eq!(view_cells(&view, &sel), cube_cells(owned, &sel)),
            (Err(CubeError::Corrupt(_) | CubeError::SchemaMismatch), Err(e)) => {
                assert!(matches!(e, CubeError::Corrupt(_) | CubeError::SchemaMismatch), "{e:?}");
            }
            (view, owned) => panic!("view {view:?} and owned decoder {owned:?} disagree"),
        }
        if let Ok(block) = SparseBlock::from_bytes(schema, &bad) {
            let owned = owned.expect("a valid block is a valid cube");
            let mut cells = Vec::new();
            block.for_each_selected(&sel, |et, c, r, u, v| cells.push((et, c, r, u, v)));
            assert_eq!(cells, cube_cells(&owned, &sel));
        }
    }

    #[test]
    fn record_binary_roundtrip(r in any_record()) {
        let bytes = r.encode();
        assert_eq!(UpdateRecord::decode(&bytes), Some(r));
    }
}

/// The size rule at its boundary on a 4 320-cell schema (3 × 24 × 12 × 5):
/// dense is 16 + 8 · 4 320 = 34 576 B, sparse 20 + 12 · n, so 2 879
/// non-zero cells store sparse and 2 880 dense.
#[test]
fn cube_encoding_switches_at_the_density_boundary() {
    let schema = CubeSchema::new(24, 12);
    assert_eq!((schema.cell_count(), schema.cube_bytes()), (4320, 34_576));
    let all = DimSelection::all(schema);
    for (nnz, len, sparse) in [(2879, 34_568, true), (2880, 34_576, false)] {
        let mut cube = DataCube::zeroed(schema);
        for i in 0..nnz {
            let (et, c, r, u) = schema.coords_of(i * 3 / 2);
            cube.set(et, c, r, u, i as u64 + 1);
        }
        let bytes = cube.to_bytes();
        assert_eq!(bytes.len(), len, "nnz {nnz}");
        let view = CubeView::parse(schema, &bytes).expect("view");
        assert_eq!(view.is_sparse(), sparse, "nnz {nnz}");
        assert_eq!(view_cells(&view, &all), cube_cells(&cube, &all));
        assert_eq!(DataCube::from_bytes(schema, &bytes).expect("decode"), cube);
    }
}

// A heavier property: engine == oracle over an index built from random
// records. Build cost makes per-case indexing slow, so the index is built
// once per test run over a fixed record set and the *queries* are random.
#[test]
fn engine_matches_oracle_on_random_queries() {
    use rased_core::{CacheConfig, IoCostModel, QueryEngine, TemporalIndex};
    use std::collections::HashMap;

    let schema = CubeSchema::new(6, 5);
    // Deterministic random records spanning ~100 days.
    let mut rng = Rng::new(0xD5EED_0BAC1E);
    let records: Vec<UpdateRecord> = vec_of(any_record(), 3000usize).sample(&mut rng);

    let dir = dettest::TempDir::new("prop-engine");
    let index = TemporalIndex::create(dir.path(), schema, 4, CacheConfig::disabled(), IoCostModel::free())
        .expect("create");
    let mut by_day: HashMap<Date, Vec<UpdateRecord>> = HashMap::new();
    for r in &records {
        by_day.entry(r.date).or_default().push(*r);
    }
    let mut days: Vec<Date> = by_day.keys().copied().collect();
    days.sort();
    for day in days {
        let cube = DataCube::from_records(schema, &by_day[&day]).expect("cube");
        index.ingest_day(day, &cube).expect("ingest");
    }
    let engine = QueryEngine::new(&index);

    let query_strategy = (
        18_000i32..18_100,
        0i32..120,
        option_of(vec_of(0u16..6, 1..3)),
        option_of(vec_of(0usize..5, 1..3)),
        bools(),
        option_of(one_of(vec![
            just(Granularity::Day).boxed(),
            just(Granularity::Week).boxed(),
            just(Granularity::Month).boxed(),
        ])),
    );
    for _ in 0..50 {
        let (start, span, countries, updates, group_country, date_g) =
            query_strategy.sample(&mut rng);
        let a = Date::from_days(start);
        let mut q = AnalysisQuery::over(DateRange::new(a, a.add_days(span)));
        if let Some(cs) = countries {
            q = q.countries(cs.into_iter().map(CountryId).collect::<Vec<_>>());
        }
        if let Some(us) = updates {
            q = q.updates(
                us.into_iter().filter_map(UpdateType::from_index).collect::<Vec<_>>(),
            );
        }
        if group_country {
            q = q.group(GroupDim::Country);
        }
        if let Some(g) = date_g {
            q = q.group(GroupDim::Date(g));
        }
        let got = engine.execute(&q).expect("query");
        let want = naive_execute(&records, &q, None);
        assert_eq!(got.rows, want.rows, "{q:?}");
    }
}
