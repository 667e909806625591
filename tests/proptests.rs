//! Workspace-level property tests (dettest): arbitrary-content XML
//! roundtrips, cube algebra over random record sets, and engine-vs-oracle
//! equivalence on randomized queries.

use dettest::{
    bools, det_proptest, just, one_of, option_of, string_from, vec_of, Rng, Strategy,
};
use rased_core::{
    AnalysisQuery, CubeSchema, DataCube, DimSelection, GroupDim, GroupKey, NetworkSizes, Period,
    QueryResult, Rased, RasedConfig, ResultRow, ValueMode,
};
use rased_cube::{CubeError, CubeView, SparseBlock, BLOCK_HEADER_BYTES};
use rased_osm_model::{
    ChangesetId, CountryId, Element, ElementId, ElementType, Node, RoadTypeId, Tags, UpdateRecord,
    UpdateType, UserId, Version, VersionInfo, Way,
};
use rased_osm_xml::{DiffAction, DiffReader, DiffWriter, PlanetReader, PlanetWriter};
use rased_dashboard::json::Json;
use rased_dashboard::result_to_json;
use rased_query::{naive_execute, RecordAggregator};
use std::collections::BTreeMap;
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

// --- cold-miss equivalences ---------------------------------------------------
//
// The aggregator, the sparse fold and the row writer are shared by the
// engine and the oracle, so each is checked against an independent
// reference here: a `BTreeMap<GroupKey, u64>`, a `coords_of` fold over the
// selection's lists, and the renderer as it was before rows were written
// without `fmt`.

fn any_date() -> impl Strategy<Value = Date> {
    one_of(vec![
        just(Date::MIN).boxed(),
        just(Date::MAX).boxed(),
        (Date::MIN.days()..=Date::MAX.days()).prop_map(Date::from_days).boxed(),
        (18_000i32..18_800).prop_map(Date::from_days).boxed(),
    ])
}

fn any_period() -> impl Strategy<Value = Period> {
    one_of(vec![
        any_date().prop_map(Period::Day).boxed(),
        any_date().prop_map(Period::Week).boxed(),
        (1600i32..=9999, 1u32..=12).prop_map(|(y, m)| Period::Month(y, m)).boxed(),
        (i32::MIN..=i32::MAX, 0u32..=u32::MAX).prop_map(|(y, m)| Period::Month(y, m)).boxed(),
        (-999i32..=999, 0u32..=20).prop_map(|(y, m)| Period::Month(y, m)).boxed(),
        (1600i32..=9999).prop_map(Period::Year).boxed(),
        (i32::MIN..=i32::MAX).prop_map(Period::Year).boxed(),
        (-999i32..=999).prop_map(Period::Year).boxed(),
    ])
}

fn any_group_key() -> impl Strategy<Value = GroupKey> {
    (
        option_of(0usize..3),
        option_of(one_of(vec![(0u16..8).boxed(), (0u16..=u16::MAX).boxed()])),
        option_of(one_of(vec![(0u16..8).boxed(), (0u16..=u16::MAX).boxed()])),
        option_of(0usize..5),
        option_of(any_period()),
    )
        .prop_map(|(et, c, r, u, date)| GroupKey {
            element_type: et.and_then(ElementType::from_index),
            country: c.map(CountryId),
            road_type: r.map(RoadTypeId),
            update_type: u.and_then(UpdateType::from_index),
            date,
        })
}

fn any_group_dim() -> impl Strategy<Value = GroupDim> {
    one_of(vec![
        just(GroupDim::ElementType).boxed(),
        just(GroupDim::Country).boxed(),
        just(GroupDim::RoadType).boxed(),
        just(GroupDim::UpdateType).boxed(),
        just(GroupDim::Date(Granularity::Day)).boxed(),
        just(GroupDim::Date(Granularity::Week)).boxed(),
        just(GroupDim::Date(Granularity::Month)).boxed(),
        just(GroupDim::Date(Granularity::Year)).boxed(),
    ])
}

/// One aggregator call: a record, or a cell `(date, et, c, r, u, n)`.
#[derive(Debug, Clone)]
enum AggOp {
    Push(UpdateRecord),
    Cell(Option<Period>, usize, usize, usize, usize, u64),
}

fn any_agg_op() -> impl Strategy<Value = AggOp> {
    one_of(vec![
        any_record().prop_map(AggOp::Push).boxed(),
        (
            option_of(any_period()),
            (0usize..3, 0usize..6),
            (0usize..5, 0usize..5),
            0u64..4,
        )
            .prop_map(|(date, (et, c), (r, u), n)| AggOp::Cell(date, et, c, r, u, n))
            .boxed(),
    ])
}

/// The aggregator's semantics, written independently: filter, project
/// onto the grouped fields (the last `Date` listed wins), count in a
/// `BTreeMap`, and derive each row's value from the finished totals.
fn reference_rows(q: &AnalysisQuery, sizes: &NetworkSizes, ops: &[(usize, AggOp)]) -> Vec<ResultRow> {
    let mut groups: BTreeMap<GroupKey, u64> = BTreeMap::new();
    let grouped = |dim: fn(&GroupDim) -> bool| q.group_by.iter().any(dim);
    let date_group = q.group_by.iter().rev().find_map(|d| match d {
        GroupDim::Date(g) => Some(*g),
        _ => None,
    });
    for (_, op) in ops {
        let (key, n) = match *op {
            AggOp::Push(r) => {
                let keep = q.range.contains(r.date)
                    && q.countries.as_ref().is_none_or(|f| f.contains(&r.country));
                if !keep {
                    continue;
                }
                let key = GroupKey {
                    element_type: grouped(|d| *d == GroupDim::ElementType).then_some(r.element_type),
                    country: grouped(|d| *d == GroupDim::Country).then_some(r.country),
                    road_type: grouped(|d| *d == GroupDim::RoadType).then_some(r.road_type),
                    update_type: grouped(|d| *d == GroupDim::UpdateType).then_some(r.update_type),
                    date: date_group.map(|g| Period::containing(g, r.date)),
                };
                (key, 1)
            }
            AggOp::Cell(date, et, c, r, u, n) => {
                if n == 0 {
                    continue;
                }
                let key = GroupKey {
                    element_type: ElementType::from_index(et)
                        .filter(|_| grouped(|d| *d == GroupDim::ElementType)),
                    country: grouped(|d| *d == GroupDim::Country).then_some(CountryId(c as u16)),
                    road_type: grouped(|d| *d == GroupDim::RoadType).then_some(RoadTypeId(r as u16)),
                    update_type: UpdateType::from_index(u)
                        .filter(|_| grouped(|d| *d == GroupDim::UpdateType)),
                    date,
                };
                (key, n)
            }
        };
        *groups.entry(key).or_insert(0) += n;
    }
    let total: u64 = groups.values().sum();
    groups
        .into_iter()
        .map(|(key, count)| {
            let value = match q.value {
                ValueMode::Count => count as f64,
                ValueMode::Percentage => {
                    let denom = match key.country.map(|c| sizes.get(c)) {
                        Some(n) if n > 0 => n,
                        _ => total,
                    };
                    if denom == 0 {
                        0.0
                    } else {
                        count as f64 * 100.0 / denom as f64
                    }
                }
            };
            ResultRow { key, count, value }
        })
        .collect()
}

/// A dimension size, often just past one 64-bit bitmap word.
fn any_cardinality() -> impl Strategy<Value = usize> {
    one_of(vec![(1usize..80).boxed(), (62usize..=66).boxed()])
}

/// A coordinate (reduced modulo the dimension size), often near the
/// bitmap's word boundary.
fn any_coord() -> impl Strategy<Value = usize> {
    one_of(vec![(0usize..90).boxed(), (60usize..68).boxed()])
}

/// Every stored cell the selection contains, decoded with `coords_of` and
/// tested against the selection's sorted lists.
fn coords_of_fold(cube: &DataCube, sel: &DimSelection) -> Vec<Cell> {
    let schema = cube.schema();
    cube.cells()
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0)
        .filter_map(|(i, &v)| {
            let (et, c, r, u) = schema.coords_of(i);
            let selected = sel.element_types().contains(&et)
                && sel.countries().contains(&c)
                && sel.road_types().contains(&r)
                && sel.update_types().contains(&u);
            selected.then_some((et, c, r, u, v))
        })
        .collect()
}

/// The JSON string literal of `s`, one character at a time.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn reference_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// `result_to_json` before rows were written without `fmt`.
fn reference_render(system: &Rased, result: &QueryResult) -> String {
    let rows: Vec<String> = result
        .rows
        .iter()
        .map(|row| {
            let mut fields = Vec::new();
            if let Some(d) = row.key.date {
                fields.push(format!("\"date\":{}", reference_escape(&d.to_string())));
            }
            if let Some(c) = row.key.country {
                let name = system.countries().name(c).unwrap_or("?");
                fields.push(format!("\"country\":{}", reference_escape(name)));
            }
            if let Some(e) = row.key.element_type {
                fields.push(format!("\"element\":{}", reference_escape(e.xml_name())));
            }
            if let Some(r) = row.key.road_type {
                let value = system.roads().value(r).unwrap_or("?");
                fields.push(format!("\"road\":{}", reference_escape(value)));
            }
            if let Some(u) = row.key.update_type {
                fields.push(format!("\"update\":{}", reference_escape(u.label())));
            }
            fields.push(format!("\"count\":{}", row.count));
            fields.push(format!("\"value\":{}", reference_number(row.value)));
            format!("{{{}}}", fields.join(","))
        })
        .collect();
    let s = &result.stats;
    format!(
        "{{\"rows\":[{}],\"stats\":{{\"cubes_from_cache\":{},\"cubes_from_disk\":{},\
         \"empty_days\":{},\"blocks_from_cache\":{},\"blocks_from_disk\":{},\"scan_days\":{},\
         \"scan_rows\":{},\"physical_reads\":{},\"modeled_io_micros\":{},\
         \"io_critical_micros\":{},\"wall_micros\":{}}}}}",
        rows.join(","),
        s.cubes_from_cache,
        s.cubes_from_disk,
        s.empty_days,
        s.blocks_from_cache,
        s.blocks_from_disk,
        s.scan_days,
        s.scan_rows,
        s.io.reads,
        s.io.modeled.as_micros() as u64,
        s.io_critical.as_micros() as u64,
        s.wall.as_micros() as u64,
    )
}

fn any_value() -> impl Strategy<Value = f64> {
    one_of(vec![
        (0u64..1_000_000).prop_map(|n| n as f64).boxed(),
        (0u64..1_000, 1u64..997).prop_map(|(n, d)| n as f64 * 100.0 / d as f64).boxed(),
        (0u64..=u64::MAX).prop_map(f64::from_bits).boxed(),
    ])
}

/// Printable ASCII plus every character JSON must escape.
const NAME_ALPHABET: &str = "abc XYZ-_.,'0123456789\"\\\n\r\t\u{1}\u{1f}äöü€";

det_proptest! {
    #![det_config(cases = 64)]

    #[test]
    fn cold_group_key_packing_round_trips_and_preserves_order(
        keys in vec_of(any_group_key(), 2..16)
    ) {
        for a in &keys {
            assert_eq!(GroupKey::unpack(a.pack()), *a, "{a:?}");
            for b in &keys {
                assert_eq!(a.pack().cmp(&b.pack()), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn cold_aggregator_matches_a_btreemap_reference(
        ops in vec_of((0usize..4, any_agg_op()), 0..80),
        group_by in vec_of(any_group_dim(), 0..5),
        countries in option_of(vec_of(0u16..6, 1..4)),
        (start, span, percentage) in (18_000i32..18_100, 0i32..120, bools()),
    ) {
        let a = Date::from_days(start);
        let mut q = AnalysisQuery::over(DateRange::new(a, a.add_days(span)));
        q.group_by = group_by;
        if let Some(cs) = countries {
            q = q.countries(cs.into_iter().map(CountryId).collect::<Vec<_>>());
        }
        if percentage {
            q = q.percentage();
        }
        let sizes = NetworkSizes::new(vec![0, 40, 7, 0, 1_000, 3]);
        // Slot 0 is the aggregator itself; 1..=3 are forked partials,
        // absorbed at the end as the parallel gather does.
        let mut agg = RecordAggregator::new(&q, Some(&sizes));
        let mut parts: Vec<RecordAggregator<'_>> = (0..3).map(|_| agg.fork()).collect();
        for (slot, op) in &ops {
            let target = match slot.checked_sub(1) {
                Some(p) => &mut parts[p],
                None => &mut agg,
            };
            match *op {
                AggOp::Push(r) => target.push(&r),
                AggOp::Cell(date, et, c, r, u, n) => target.push_cell(date, et, c, r, u, n),
            }
        }
        for part in parts {
            agg.absorb(part);
        }
        assert_eq!(agg.finish().rows, reference_rows(&q, &sizes, &ops), "{q:?}");
    }

    #[test]
    fn cold_sparse_fold_matches_a_coords_of_fold(
        (n_countries, n_roads) in (any_cardinality(), any_cardinality()),
        records in vec_of((0usize..3, any_coord(), any_coord(), 0usize..5), 0..300),
        sel in (
            option_of(vec_of(0usize..3, 1..3)),
            option_of(vec_of(any_coord().prop_map(|c| c as u16), 1..12)),
            option_of(vec_of(any_coord().prop_map(|c| c as u16), 1..12)),
            option_of(vec_of(0usize..5, 1..4)),
        ),
    ) {
        let schema = CubeSchema::new(n_countries, n_roads);
        let records: Vec<UpdateRecord> = records
            .into_iter()
            .map(|(et, c, r, u)| UpdateRecord {
                element_type: ElementType::ALL[et],
                update_type: UpdateType::ALL[u],
                country: CountryId((c % n_countries) as u16),
                road_type: RoadTypeId((r % n_roads) as u16),
                date: Date::from_days(18_000),
                lat7: 0,
                lon7: 0,
                changeset: ChangesetId(1),
            })
            .collect();
        let sel = selection(schema, &sel);
        let cube = DataCube::from_records(schema, &records).expect("cube");
        let want = coords_of_fold(&cube, &sel);
        let block = SparseBlock::from_records(schema, &records).expect("block");
        let mut got = Vec::new();
        block.for_each_selected(&sel, |et, c, r, u, v| got.push((et, c, r, u, v)));
        assert_eq!(got, want);
        let bytes = cube.to_bytes();
        let view = CubeView::parse(schema, &bytes).expect("view");
        assert_eq!(view_cells(&view, &sel), want, "sparse view: {}", view.is_sparse());
    }

    #[test]
    fn cold_json_names_escape_as_the_char_reference(
        names in vec_of(string_from(NAME_ALPHABET, 0..=16), 1..8)
    ) {
        // The row writer escapes names through the same routine.
        let mut j = Json::new();
        j.begin_array();
        for name in &names {
            j.string(name);
        }
        j.end_array();
        let want: Vec<String> = names.iter().map(|n| reference_escape(n)).collect();
        assert_eq!(j.finish(), format!("[{}]", want.join(",")));
    }

    #[test]
    fn cold_result_to_json_matches_the_reference_renderer(
        rows in vec_of((any_group_key(), 0u64..=u64::MAX, any_value()), 0..40),
        stats in vec_of(0u64..=u64::MAX / 1_000_000, 10..=10),
    ) {
        let dir = dettest::TempDir::new("prop-render");
        let system = Rased::create(
            RasedConfig::new(dir.path()).with_schema(CubeSchema::new(6, 5)),
        )
        .expect("create");
        let mut result = QueryResult {
            rows: rows
                .into_iter()
                .map(|(key, count, value)| ResultRow { key, count, value })
                .collect(),
            stats: Default::default(),
        };
        let s = &mut result.stats;
        s.cubes_from_cache = stats[0] as usize;
        s.cubes_from_disk = stats[1] as usize;
        s.empty_days = stats[2] as usize;
        s.blocks_from_cache = stats[3] as usize;
        s.blocks_from_disk = stats[4] as usize;
        s.scan_days = stats[5] as usize;
        s.scan_rows = stats[6];
        s.io.reads = stats[7];
        s.io.modeled = std::time::Duration::from_nanos(stats[8]);
        s.wall = std::time::Duration::from_nanos(stats[9]);
        assert_eq!(result_to_json(&system, &result), reference_render(&system, &result));
    }
}
