//! Cache-equivalence property suite (dettest): the epoch-keyed response
//! cache must be *invisible* except for speed.
//!
//! Shape: two live servers over ONE system — server A with the response
//! cache on, server B with it off (B renders everything cold). A random
//! sequence of API requests is interleaved with ingest-driven publish
//! epoch bumps that change the answers mid-sequence. Invariants, checked
//! on every request:
//!
//! 1. **Equivalence** — A's answer equals B's cold render at the same
//!    epoch (byte-for-byte where the body is deterministic; modulo the
//!    volatile per-request `stats` object for `/api/analysis`).
//! 2. **Hit identity** — an immediate repeat on A, with the query
//!    parameters *shuffled and re-encoded*, is byte-identical to the
//!    first answer, volatile stats included: same epoch + same normalized
//!    params ⇒ the very same cached bytes.
//! 3. **Staleness safety** — requests issued after an epoch bump get the
//!    new epoch's answer (checked by 1: B always renders fresh).
//!
//! Replay any failure with `DETTEST_SEED=<printed seed>`.

mod common;

use common::{tmpdir, HttpClient, TempDir, TestServer};
use dettest::{det_proptest, just, vec_of, weighted, Strategy};
use rased_core::{CubeSchema, DataCube, Rased, RasedConfig, ServerConfig};
use rased_osm_model::{
    ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType,
};
use rased_temporal::Date;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    /// `GET /api/analysis` over a window that covers the bump days.
    Analysis { s: u8, len: u8, group: u8 },
    /// `GET /api/sample` with a small limit.
    Sample { limit: u8 },
    /// `GET /api/meta` (uncached; must still agree).
    Meta,
    /// Publish one more day: bumps the catalog epoch, fires the
    /// cache-invalidation hook, and changes in-window analysis answers.
    Bump { seed: u8 },
}

fn any_op() -> impl Strategy<Value = Op> {
    weighted(vec![
        (
            5,
            (0u8..6, 0u8..4, 0u8..4)
                .prop_map(|(s, len, group)| Op::Analysis { s, len, group })
                .boxed(),
        ),
        (2, (1u8..5).prop_map(|limit| Op::Sample { limit }).boxed()),
        (1, just(Op::Meta).boxed()),
        (2, (0u8..8).prop_map(|seed| Op::Bump { seed }).boxed()),
    ])
}

fn day_records(day: Date, seed: usize) -> Vec<UpdateRecord> {
    (0..(1 + seed % 5))
        .map(|j| UpdateRecord {
            element_type: ElementType::ALL[(seed + j) % 3],
            update_type: UpdateType::ALL[(seed * 7 + j) % 5],
            country: CountryId(((seed + j) % 4) as u16),
            road_type: RoadTypeId((j % 3) as u16),
            date: day,
            lat7: 0,
            lon7: 0,
            changeset: ChangesetId((seed * 10 + j) as u64 + 1),
        })
        .collect()
}

/// A tiny system with a couple of weeks pre-published, ingested straight
/// through the index (no XML pipeline — keeps each case cheap).
fn seed_system(tag: &str) -> (TempDir, Arc<Rased>) {
    let dir = tmpdir(&format!("respcache-{tag}"));
    let schema = CubeSchema::tiny();
    let config = RasedConfig {
        io_model: rased_core::IoCostModel::free(), // wall-clock, not simulated HDD
        ..RasedConfig::new(dir.join("sys")).with_schema(schema)
    };
    let system = Rased::create(config).unwrap();
    let start = Date::new(2021, 1, 1).unwrap();
    for i in 0..14 {
        let day = start.add_days(i);
        let cube = DataCube::from_records(schema, &day_records(day, i as usize)).unwrap();
        system.index().ingest_day(day, &cube).unwrap();
    }
    (dir, Arc::new(system))
}

/// The deterministic part of a response body: everything before the
/// per-request execution stats (`"stats":{...,"wall_micros":N}` varies).
fn stable_part(body: &str) -> &str {
    match body.find(",\"stats\":") {
        Some(i) => &body[..i],
        None => body,
    }
}

/// Pull `"name":N` out of a flat JSON document (first occurrence).
fn parse_uint_field(json: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("{name} not in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {name} in {json}"))
}

det_proptest! {
    #![det_config(cases = 16)]

    #[test]
    fn cached_responses_are_byte_identical_to_cold_renders(
        ops in vec_of(any_op(), 1..24)
    ) {
        let (_dir, system) = seed_system("equiv");
        // A: cache on (the only cache-on server — it owns the publish
        // hook). B: cache off — every answer is a cold render.
        let ts_a = TestServer::start(
            Arc::clone(&system),
            ServerConfig { workers: 2, ..ServerConfig::default() },
        );
        let ts_b = TestServer::start(
            Arc::clone(&system),
            ServerConfig { workers: 2, response_cache: false, ..ServerConfig::default() },
        );
        let mut a = HttpClient::connect(ts_a.addr).unwrap();
        let mut b = HttpClient::connect(ts_b.addr).unwrap();

        let schema = CubeSchema::tiny();
        let mut bump_day = Date::new(2021, 2, 1).unwrap();
        let mut cacheable_requests = 0u64;
        let mut cached_before_bump = false;
        let mut bumps_after_caching = 0u64;

        for op in &ops {
            match op {
                Op::Analysis { s, len, group } => {
                    let start = 1 + (s % 6);
                    let end = 1 + (len % 4) * 7;
                    let group = ["country", "update", "element", "day"][*group as usize % 4];
                    // Windows reach into March so every Bump changes them.
                    let p1 = format!(
                        "/api/analysis?start=2021-01-{start:02}&end=2021-03-{end:02}&group={group}"
                    );
                    let p2 = format!(
                        "/api/analysis?group={group}&end=2021-03-{end:02}&start=2021-01-{start:02}"
                    );
                    // The cache admits a key on its second render.
                    a.get(&p1).unwrap();
                    let ra = a.get(&p1).unwrap();
                    let rb = b.get(&p1).unwrap();
                    assert_eq!(ra.status, rb.status, "{p1}");
                    assert_eq!(
                        stable_part(&ra.body),
                        stable_part(&rb.body),
                        "cached tier diverged from cold render on {p1}"
                    );
                    // Same key, shuffled params: must be the same bytes,
                    // volatile stats and all.
                    let ra2 = a.get(&p2).unwrap();
                    assert_eq!(
                        ra2.body, ra.body,
                        "param-shuffled repeat was not a byte-identical hit on {p2}"
                    );
                    cacheable_requests += 2;
                    cached_before_bump = true;
                }
                Op::Sample { limit } => {
                    let p = format!(
                        "/api/sample?min_lat=-90&min_lon=-180&max_lat=90&max_lon=180&limit={limit}"
                    );
                    a.get(&p).unwrap();
                    let ra = a.get(&p).unwrap();
                    let rb = b.get(&p).unwrap();
                    assert_eq!(ra.status, rb.status, "{p}");
                    assert_eq!(ra.body, rb.body, "sample bytes diverged on {p}");
                    let ra2 = a.get(&p).unwrap();
                    assert_eq!(ra2.body, ra.body, "sample repeat was not byte-identical on {p}");
                    cacheable_requests += 1;
                    cached_before_bump = true;
                }
                Op::Meta => {
                    let ra = a.get("/api/meta").unwrap();
                    let rb = b.get("/api/meta").unwrap();
                    assert_eq!((ra.status, &ra.body), (rb.status, &rb.body), "meta diverged");
                }
                Op::Bump { seed } => {
                    let cube =
                        DataCube::from_records(schema, &day_records(bump_day, *seed as usize))
                            .unwrap();
                    system.index().ingest_day(bump_day, &cube).unwrap();
                    bump_day = bump_day.add_days(1);
                    if cached_before_bump {
                        bumps_after_caching += 1;
                    }
                }
            }
        }

        // Epilogue: one fixed in-window query — after any mix of bumps the
        // cached tier and the cold tier must agree on the *current* epoch.
        let p = "/api/analysis?start=2021-01-01&end=2021-03-28&group=country";
        let ra = a.get(p).unwrap();
        let rb = b.get(p).unwrap();
        assert_eq!(ra.status, 200, "{}", ra.body);
        assert_eq!(
            stable_part(&ra.body),
            stable_part(&rb.body),
            "post-bump answers diverged"
        );

        // The cache actually participated: every cacheable repeat was a
        // hit (the default budgets never evict in a sequence this small),
        // and publish bumps swept the stale epochs.
        let m = a.get("/api/metrics").unwrap();
        let section_at = m.body.find("\"response_cache\"").expect("response_cache section");
        let section = &m.body[section_at..];
        assert!(section.contains("\"enabled\":true"), "{}", m.body);
        if cacheable_requests > 0 {
            assert!(
                parse_uint_field(section, "hits") >= cacheable_requests / 2,
                "repeats did not hit: {}",
                m.body
            );
        }
        if bumps_after_caching > 0 {
            assert!(
                parse_uint_field(section, "invalidations") >= 1,
                "publish bumps never invalidated: {}",
                m.body
            );
        }
        let mb = b.get("/api/metrics").unwrap();
        assert!(
            mb.body.contains("\"response_cache\":{\"enabled\":false}"),
            "cache-off server reports a cache: {}",
            mb.body
        );

        // Close the keep-alive clients first so the drain sees EOF rather
        // than waiting out the idle read timeout.
        drop(a);
        drop(b);
        ts_a.stop().unwrap();
        ts_b.stop().unwrap();
    }
}
