//! Epoch isolation under concurrent refinement (dettest): while
//! `rebuild_month` publishes successive refinements of a month, every
//! concurrently executing query — sequential and parallel alike — must
//! return rows equal to a record-scan oracle evaluated at *some* published
//! version. A blend (refined days served with a stale roll-up, or half a
//! month's days swapped) matches no version's oracle and fails.

use dettest::{det_proptest, Rng, TempDir};
use rased_cube::{CubeSchema, DataCube};
use rased_index::{CacheConfig, TemporalIndex};
use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};
use rased_query::{naive_execute, AnalysisQuery, GroupDim, QueryEngine};
use rased_storage::IoCostModel;
use rased_temporal::{Date, DateRange, Granularity, Period};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Successive `rebuild_month` publications racing the readers.
const REFINEMENTS: usize = 3;

fn record(
    rng: &mut Rng,
    schema: CubeSchema,
    date: Date,
    update_type: UpdateType,
) -> UpdateRecord {
    UpdateRecord {
        element_type: ElementType::ALL[rng.below(ElementType::ALL.len() as u64) as usize],
        update_type,
        country: CountryId(rng.below(schema.n_countries() as u64) as u16),
        road_type: RoadTypeId(rng.below(schema.n_road_types() as u64) as u16),
        date,
        lat7: 0,
        lon7: 0,
        changeset: ChangesetId(rng.below(1 << 40)),
    }
}

fn check_isolation(seed: u64, threads: usize) {
    let mut rng = Rng::new(seed);
    let schema = CubeSchema::new(3 + rng.below(3) as usize, 3);
    // Feb 20 .. Apr 5 2021: March gets refined, the flanks never change —
    // the window also crosses month-straddling weeks, the roll-ups most
    // easily served stale.
    let start = Date::new(2021, 2, 20).unwrap();
    let end = Date::new(2021, 4, 5).unwrap();
    let march = Period::Month(2021, 3);

    // Version 0: March arrives coarse (all Unclassified), the flanks with
    // final types. Each refinement v rewrites every March record's type.
    let mut v0: Vec<UpdateRecord> = Vec::new();
    let mut day = start;
    while day <= end {
        let n = 1 + rng.below(5);
        for _ in 0..n {
            let t = if march.contains(day) {
                UpdateType::Unclassified
            } else {
                UpdateType::ALL[rng.below(UpdateType::ALL.len() as u64) as usize]
            };
            v0.push(record(&mut rng, schema, day, t));
        }
        day = day.succ();
    }

    // version_records[v] is the full record set at publish version v;
    // refined[v - 1] is the per-day cube map rebuild v publishes.
    let mut version_records: Vec<Vec<UpdateRecord>> = vec![v0.clone()];
    let mut refined: Vec<HashMap<Date, DataCube>> = Vec::new();
    for _ in 1..=REFINEMENTS {
        let recs: Vec<UpdateRecord> = v0
            .iter()
            .map(|r| {
                let mut r = *r;
                if march.contains(r.date) {
                    r.update_type =
                        UpdateType::ALL[rng.below(UpdateType::ALL.len() as u64) as usize];
                }
                r
            })
            .collect();
        let mut by_day: HashMap<Date, Vec<&UpdateRecord>> = HashMap::new();
        for r in recs.iter().filter(|r| march.contains(r.date)) {
            by_day.entry(r.date).or_default().push(r);
        }
        refined.push(
            by_day
                .into_iter()
                .map(|(d, rs)| {
                    (d, DataCube::from_records(schema, rs.iter().copied()).unwrap())
                })
                .collect(),
        );
        version_records.push(recs);
    }

    let dir = TempDir::new("epoch-iso");
    let idx = TemporalIndex::create(
        dir.path(),
        schema,
        4,
        // The writer re-warms before every refinement, so March's month,
        // weeks and last days sit in the cache as each one publishes: a
        // missed invalidation or a hit at the wrong page tag would serve
        // stale data and break the oracle match.
        CacheConfig { slots: 16 },
        IoCostModel::free(),
    )
    .unwrap();
    let mut by_day: HashMap<Date, Vec<&UpdateRecord>> = HashMap::new();
    for r in &v0 {
        by_day.entry(r.date).or_default().push(r);
    }
    let mut days: Vec<Date> = by_day.keys().copied().collect();
    days.sort();
    for d in days {
        let cube = DataCube::from_records(schema, by_day[&d].iter().copied()).unwrap();
        idx.ingest_day(d, &cube).unwrap();
    }
    let e0 = idx.epoch();

    let q = AnalysisQuery::over(DateRange::new(start, end))
        .group(GroupDim::UpdateType)
        .group(GroupDim::Date(Granularity::Month));
    let oracles: Vec<_> =
        version_records.iter().map(|rs| naive_execute(rs, &q, None).rows).collect();

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for daily in &refined {
                idx.warm_cache().expect("warm");
                idx.rebuild_month(2021, 3, daily).expect("rebuild_month");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            s.spawn(|| {
                let engine = QueryEngine::new(&idx).with_threads(threads);
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let res = engine.execute(&q).expect("query");
                    let v = (res.stats.epoch - e0) as usize;
                    assert!(v <= REFINEMENTS, "epoch {v} outside published history");
                    assert_eq!(
                        res.rows, oracles[v],
                        "rows diverge from the record-scan oracle at pinned version {v} \
                         (threads={threads}, seed={seed})"
                    );
                    if finished {
                        break;
                    }
                }
            });
        }
    });

    // Settled state is the last refinement.
    let final_rows = QueryEngine::new(&idx).execute(&q).expect("final query").rows;
    assert_eq!(final_rows, oracles[REFINEMENTS]);
    assert_eq!(idx.epoch(), e0 + REFINEMENTS as u64);
}

det_proptest! {
    #![det_config(cases = 8)]

    #[test]
    fn queries_racing_rebuild_month_pin_one_epoch(
        seed in 0u64..u64::MAX,
        parallel in 0u8..2,
    ) {
        check_isolation(seed, if parallel == 0 { 1 } else { 4 });
    }
}

/// Fixed-seed pins at both mandated thread counts.
#[test]
fn pinned_isolation_instances() {
    check_isolation(0x15_0C_A7_ED_15_0C_A7_ED, 1);
    check_isolation(0xE9_0C_41_50_1A_71_0A_01, 4);
}
