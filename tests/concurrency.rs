//! Concurrency: the dashboard serves many analysts at once, so the index +
//! engine must answer concurrent queries consistently (shared `&self`,
//! internal locking only) — and the serving tier above them must hold its
//! worker-pool bound under concurrent keep-alive load and drain cleanly on
//! shutdown.

mod common;

use common::{tmpdir, HttpClient, TempDir, TestServer};
use rased_core::{
    AnalysisQuery, CacheConfig, CubeSchema, DataCube, GroupDim, IoCostModel, QueryEngine, Rased,
    RasedConfig, ServerConfig, TemporalIndex,
};
use rased_osm_gen::{Dataset, DatasetConfig};
use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};
use rased_temporal::{Date, DateRange};
use std::sync::Arc;
use std::time::Duration;

fn build(tag: &str, cache: CacheConfig) -> (TempDir, TemporalIndex, DateRange) {
    let dir = tmpdir(&format!("conc-{tag}"));
    let schema = CubeSchema::tiny();
    let index =
        TemporalIndex::create(dir.path(), schema, 4, cache, IoCostModel::free()).unwrap();
    let start = Date::new(2021, 1, 1).unwrap();
    let end = Date::new(2021, 6, 30).unwrap();
    for (i, day) in DateRange::new(start, end).days().enumerate() {
        let records: Vec<UpdateRecord> = (0..10)
            .map(|j| UpdateRecord {
                element_type: ElementType::ALL[(i + j) % 3],
                update_type: UpdateType::ALL[(i * 7 + j) % 5],
                country: CountryId(((i + j) % 4) as u16),
                road_type: RoadTypeId((j % 3) as u16),
                date: day,
                lat7: 0,
                lon7: 0,
                changeset: ChangesetId((i * 10 + j) as u64 + 1),
            })
            .collect();
        index.ingest_day(day, &DataCube::from_records(schema, &records).unwrap()).unwrap();
    }
    (dir, index, DateRange::new(start, end))
}

#[test]
fn concurrent_queries_agree_with_serial_answers() {
    let (_dir, index, range) = build("queries", CacheConfig::disabled());
    let queries: Vec<AnalysisQuery> = vec![
        AnalysisQuery::over(range).group(GroupDim::Country),
        AnalysisQuery::over(range).group(GroupDim::UpdateType),
        AnalysisQuery::over(DateRange::new(range.start().add_days(40), range.end()))
            .elements(vec![ElementType::Way])
            .group(GroupDim::ElementType),
        AnalysisQuery::over(range).group(GroupDim::Date(rased_temporal::Granularity::Month)),
    ];
    // Serial ground answers.
    let engine = QueryEngine::new(&index);
    let expected: Vec<_> = queries.iter().map(|q| engine.execute(q).unwrap().rows).collect();

    // 8 threads × 20 iterations of mixed queries.
    std::thread::scope(|scope| {
        for t in 0..8 {
            let queries = &queries;
            let expected = &expected;
            let index = &index;
            scope.spawn(move || {
                let engine = QueryEngine::new(index);
                for i in 0..20 {
                    let k = (t + i) % queries.len();
                    let got = engine.execute(&queries[k]).unwrap();
                    assert_eq!(got.rows, expected[k], "thread {t} iter {i} query {k}");
                }
            });
        }
    });
}

#[test]
fn concurrent_queries_racing_rewarm_and_republish_stay_consistent() {
    // The warm set changes only when a writer republishes and re-warms,
    // so that is the churn readers must survive: 8 readers race a thread
    // that re-ingests the window's last day — 2021-06-30 closes June, so
    // the June roll-up is republished with it — with a different cube
    // each round, then re-warms. Every answer must be the one its pinned
    // epoch names, never a cube cached for another version.
    const ROUNDS: u64 = 40;
    let (_dir, index, range) = build("rewarm", CacheConfig { slots: 16 });
    index.warm_cache().unwrap();
    let schema = index.schema();
    let last = range.end();
    // Version v holds 10 + v records on the last day (version 0 is what
    // `build` ingested: 10).
    let last_day = |v: u64| {
        let records: Vec<UpdateRecord> = (0..10 + v)
            .map(|j| UpdateRecord {
                element_type: ElementType::Way,
                update_type: UpdateType::Create,
                country: CountryId((j % 4) as u16),
                road_type: RoadTypeId(0),
                date: last,
                lat7: 0,
                lon7: 0,
                changeset: ChangesetId(10_000 + j),
            })
            .collect();
        DataCube::from_records(schema, &records).unwrap()
    };
    let q = AnalysisQuery::over(range).group(GroupDim::Country);
    let base = QueryEngine::new(&index).execute(&q).unwrap().total_count();
    let e0 = index.epoch();
    let done = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (index, q, done) = (&index, &q, &done);
            scope.spawn(move || {
                let engine = QueryEngine::new(index);
                loop {
                    let finished = done.load(std::sync::atomic::Ordering::Acquire);
                    let res = engine.execute(q).unwrap();
                    let v = res.stats.epoch - e0;
                    assert!(v <= ROUNDS, "epoch {v} outside published history");
                    assert_eq!(res.total_count(), base + v, "answer diverges at pinned version {v}");
                    if finished {
                        break;
                    }
                }
            });
        }
        for v in 1..=ROUNDS {
            index.ingest_day(last, &last_day(v)).unwrap();
            index.warm_cache().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
    });
    assert_eq!(index.epoch(), e0 + ROUNDS, "one publish per re-ingest");
    let (hits, _) = index.cache().counters();
    assert!(hits > 0, "readers were served from the warm set");
}

#[test]
fn queries_concurrent_with_ingest_see_complete_days() {
    // RASED ingests offline, but a dashboard query racing a daily ingest
    // must still see internally-consistent cubes (never a torn one).
    let (_dir, index, range) = build("ingest-race", CacheConfig::disabled());
    let schema = index.schema();
    let more_days: Vec<Date> =
        DateRange::new(Date::new(2021, 7, 1).unwrap(), Date::new(2021, 8, 31).unwrap())
            .days()
            .collect();

    std::thread::scope(|scope| {
        let index_ref = &index;
        // Writer: ingest two more months.
        let writer = scope.spawn(move || {
            for day in &more_days {
                let records = vec![UpdateRecord {
                    element_type: ElementType::Node,
                    update_type: UpdateType::Create,
                    country: CountryId(0),
                    road_type: RoadTypeId(0),
                    date: *day,
                    lat7: 0,
                    lon7: 0,
                    changeset: ChangesetId(999),
                }];
                index_ref
                    .ingest_day(*day, &DataCube::from_records(schema, &records).unwrap())
                    .unwrap();
            }
        });
        // Readers: query the already-ingested window; the answer must be
        // stable throughout.
        let q = AnalysisQuery::over(range);
        let expected = QueryEngine::new(&index).execute(&q).unwrap().total_count();
        for _ in 0..4 {
            let q = q.clone();
            scope.spawn(move || {
                let engine = QueryEngine::new(index_ref);
                for _ in 0..30 {
                    assert_eq!(engine.execute(&q).unwrap().total_count(), expected);
                }
            });
        }
        writer.join().unwrap();
    });

    // After the race, the new days are queryable too.
    let q2 = AnalysisQuery::over(DateRange::new(
        Date::new(2021, 7, 1).unwrap(),
        Date::new(2021, 8, 31).unwrap(),
    ));
    assert_eq!(QueryEngine::new(&index).execute(&q2).unwrap().total_count(), 62);
}

// ---------------------------------------------------------------------------
// Live-server stress: the serving tier, not just the engine, under load.
// ---------------------------------------------------------------------------

fn demo_system(tag: &str) -> (TempDir, Arc<Rased>) {
    let dir = tmpdir(&format!("conc-{tag}"));
    let mut cfg = DatasetConfig::small(59);
    cfg.range = DateRange::new(Date::new(2021, 1, 1).unwrap(), Date::new(2021, 1, 31).unwrap());
    cfg.sim.daily_edits_mean = 20.0;
    cfg.seed_nodes_per_country = 8;
    let ds = Dataset::generate(&dir.join("osm"), cfg).unwrap();
    let schema = CubeSchema::new(ds.config.world.n_countries, ds.config.sim.n_road_types);
    let system =
        Rased::create(RasedConfig::new(dir.join("sys")).with_schema(schema)).unwrap();
    system.ingest_dataset(&ds).unwrap();
    (dir, Arc::new(system))
}

/// The ISSUE's acceptance stress: 8 workers, 16 keep-alive clients × 25
/// requests over mixed endpoints. Every response must be well-formed and
/// consistent, the pool bound must hold (observed via `/api/metrics`), and
/// graceful shutdown must drain in-flight work and join every worker.
#[test]
fn live_server_stress_keep_alive_pool_bound_and_graceful_drain() {
    const CLIENTS: usize = 16;
    const REQUESTS: usize = 25;
    const WORKERS: usize = 8;

    let (_dir, system) = demo_system("stress");
    let config = ServerConfig {
        workers: WORKERS,
        queue_depth: 64,
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let ts = TestServer::start(system, config);

    // One canonical answer per endpoint for consistency checks.
    let paths = [
        "/api/meta",
        "/api/analysis?start=2021-01-01&end=2021-01-31&group=country",
        "/",
        "/api/sample?min_lat=-90&min_lon=-180&max_lat=90&max_lon=180&limit=3",
        "/api/analysis?start=2021-01-10&end=2021-01-20&group=update",
    ];
    let mut canonical: Vec<String> = Vec::new();
    {
        let mut c = HttpClient::connect(ts.addr).unwrap();
        for p in paths {
            let r = c.get(p).unwrap();
            assert_eq!(r.status, 200, "{p}: {}", r.body);
            canonical.push(r.body);
        }
    }
    let canonical = Arc::new(canonical);

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let canonical = Arc::clone(&canonical);
            let addr = ts.addr;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                for i in 0..REQUESTS {
                    let k = (t + i) % (paths.len() + 1);
                    if k == paths.len() {
                        // Mixed in: the metrics endpoint itself, asserting
                        // the pool bound from *inside* the storm. The event
                        // loop keeps many connections open, but the number
                        // of threads doing real work never exceeds the pool.
                        let r = client.get("/api/metrics").expect("metrics");
                        assert_eq!(r.status, 200);
                        let max_busy = parse_uint_field(&r.body, "max_busy");
                        assert!(
                            max_busy <= WORKERS as u64,
                            "pool bound violated: max_busy={max_busy} > {WORKERS}: {}",
                            r.body
                        );
                    } else {
                        let r = client.get(paths[k]).expect(paths[k]);
                        assert_eq!(r.status, 200, "client {t} iter {i} {}", paths[k]);
                        // The query *answers* must be identical under
                        // concurrency (read-only system); execution stats
                        // (wall time, cache mix) legitimately vary.
                        assert_eq!(
                            stable_part(&r.body),
                            stable_part(&canonical[k]),
                            "client {t} iter {i} {}",
                            paths[k]
                        );
                    }
                }
            });
        }
    });

    // Graceful shutdown with one request *in flight*: the request must be
    // answered completely (zero dropped), then all workers join.
    let accepted_before = ts.server.metrics().accepted();
    let mut straggler = HttpClient::connect(ts.addr).unwrap();
    // Connection made; wait until the acceptor has taken it so it is
    // in-flight (queued or handled) when shutdown begins.
    while ts.server.metrics().accepted() <= accepted_before {
        std::thread::sleep(Duration::from_millis(1));
    }
    let server = Arc::clone(&ts.server);
    let stopper = std::thread::spawn(move || ts.stop());
    let r = straggler.get("/api/meta").expect("in-flight request must be drained, not dropped");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, canonical[0]);
    stopper.join().unwrap().unwrap();

    // Post-mortem telemetry: every accepted connection completed, nothing
    // left active, the pool bound held throughout, and all stress requests
    // were answered successfully.
    let m = server.metrics();
    assert_eq!(m.active(), 0, "connections left open after join");
    assert_eq!(m.completed(), m.accepted(), "accepted connections were dropped");
    assert!(m.max_busy_workers() <= WORKERS as u64, "max_busy {}", m.max_busy_workers());
    let expected_min = (CLIENTS * REQUESTS + paths.len() + 1) as u64;
    assert!(
        m.requests_in_class(2) >= expected_min,
        "expected ≥{expected_min} 2xx requests, got {}",
        m.requests_in_class(2)
    );
    assert_eq!(m.requests_in_class(5), 0, "server errors under stress");
}

/// Overload must degrade to *cheap* 503s, not latency collapse — and one
/// greedy client must not starve everyone else (PR 6 admission control).
///
/// Shape: per-client cap 1, global shed threshold 2. A greedy "client"
/// opens 6 connections sharing one `X-Forwarded-For` identity and hammers
/// the expensive endpoint, so at most one greedy request is ever admitted;
/// the overlap sheds at the client cap. A polite client with its own
/// identity therefore always finds global headroom (greedy holds ≤ 1 of 2
/// slots), so *every* polite request — expensive ones included — must
/// succeed mid-storm. That is per-client fairness as a hard assertion, not
/// a statistical one.
#[test]
fn overload_sheds_cheap_503s_and_never_starves_polite_clients() {
    const GREEDY_CONNS: usize = 6;
    const GREEDY_REQUESTS: usize = 10;

    let (_dir, system) = demo_system("overload");
    let config = ServerConfig {
        workers: 4,
        queue_depth: 64,
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        max_active_per_client: 1,
        shed_threshold: 2,
        trust_forwarded_for: true,
        // The storm repeats one expensive query; with the response cache on
        // every repeat would be a cache hit that bypasses admission and no
        // shed would ever fire. This test is about the *miss* path.
        response_cache: false,
        ..ServerConfig::default()
    };
    let ts = TestServer::start(system, config);
    // Expensive enough that greedy requests overlap in time.
    let slow = "/api/analysis?start=2021-01-01&end=2021-01-31&group=country,road,update,day";

    // A shed is answered inline by the event loop, before any query work:
    // ~1 ms here, ~13 ms at worst with both cores taken by a build. 250 ms
    // is two orders above that and well below a queued execution.
    let shed_bound = Duration::from_millis(250);
    std::thread::scope(|scope| {
        let mut greedy_threads = Vec::new();
        for _ in 0..GREEDY_CONNS {
            let addr = ts.addr;
            greedy_threads.push(scope.spawn(move || {
                let mut ok = 0usize;
                let mut shed = 0usize;
                let mut client = HttpClient::connect(addr).expect("connect");
                for _ in 0..GREEDY_REQUESTS {
                    let t0 = std::time::Instant::now();
                    let r = client
                        .get_with_headers(slow, &[("X-Forwarded-For", "198.51.100.1")])
                        .expect("greedy request");
                    match r.status {
                        200 => ok += 1,
                        503 => {
                            shed += 1;
                            // The shed path must answer fast — a cheap
                            // rejection, not a queued execution.
                            assert!(
                                t0.elapsed() < shed_bound,
                                "503 took {:?} — shed path is not cheap",
                                t0.elapsed()
                            );
                            assert!(r.header("retry-after").is_some(), "503 without Retry-After");
                        }
                        other => panic!("unexpected status {other}: {}", r.body),
                    }
                }
                (ok, shed)
            }));
        }

        // Polite client, distinct identity: cheap and expensive requests
        // interleaved, all while the greedy storm runs. Every one must be
        // served — greedy can hold at most 1 of the 2 global slots.
        let mut polite = HttpClient::connect(ts.addr).expect("connect polite");
        let polite_id = [("X-Forwarded-For", "198.51.100.2")];
        for i in 0..15 {
            let path = match i % 3 {
                0 => "/api/metrics",
                1 => "/api/meta",
                _ => slow,
            };
            let r = polite.get_with_headers(path, &polite_id).expect("polite request");
            assert_eq!(r.status, 200, "polite client starved on {path}: {}", r.body);
            if path == "/api/metrics" {
                // The pool keeps capacity for cheap endpoints: worker
                // threads never exceed the configured pool size.
                assert!(parse_uint_field(&r.body, "max_busy") <= 4);
            }
        }

        let (mut served, mut shed) = (0usize, 0usize);
        for t in greedy_threads {
            let (ok, s) = t.join().expect("greedy thread");
            served += ok;
            shed += s;
        }
        assert_eq!(served + shed, GREEDY_CONNS * GREEDY_REQUESTS);
        assert!(served > 0, "greedy client fully locked out — cap should allow 1 in flight");
        assert!(
            shed > 0,
            "no sheds: 6 overlapping single-identity connections never hit the cap of 1"
        );
    });

    // Post-mortem via /api/metrics: the shed counters are visible to an
    // operator, and the admission high-watermark proves the threshold held.
    let mut c = HttpClient::connect(ts.addr).unwrap();
    let m = c.get("/api/metrics").unwrap();
    assert_eq!(m.status, 200);
    let shed_client_cap = parse_uint_field(&m.body, "shed_client_cap");
    let shed_overload = parse_uint_field(&m.body, "shed_overload");
    assert!(shed_client_cap > 0, "per-client sheds not observable: {}", m.body);
    // admission.max_active counts *admitted* expensive requests only; with
    // a global threshold of 2 it can never exceed 2.
    let admission_at = m.body.find("\"admission\"").expect("admission section");
    let max_admitted = parse_uint_field(&m.body[admission_at..], "max_active");
    assert!(
        max_admitted <= 2,
        "admitted high-watermark {max_admitted} exceeds shed threshold: {}",
        m.body
    );
    let _ = shed_overload; // may legitimately be 0 in this shape
    drop(c); // EOF the keep-alive conn so the drain doesn't wait out the idle timeout
    ts.stop().unwrap();
}

/// Keep-alive requests pipelined across a publish epoch bump must each get
/// the bytes of *their* epoch: cached bytes before the bump, freshly
/// rendered (and re-cached) bytes after — never a stale mix.
#[test]
fn keep_alive_requests_across_epoch_bump_get_per_epoch_bytes() {
    let (dir, system) = demo_system("epoch-bump");
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let ts = TestServer::start(Arc::clone(&system), config);
    let q = "/api/analysis?start=2021-01-01&end=2021-12-31&group=country";

    let mut client = HttpClient::connect(ts.addr).unwrap();
    // The cache admits a key on its second render: warm it first.
    assert_eq!(client.get(q).unwrap().status, 200);
    let a1 = client.get(q).unwrap();
    assert_eq!(a1.status, 200);
    let a2 = client.get(q).unwrap();
    // A cache hit freezes the *entire* body, volatile stats included: the
    // repeat must be byte-identical, not merely equivalent.
    assert_eq!(a1.body, a2.body, "repeat at the same epoch must be a byte-identical hit");

    // Publish more data (a disjoint later window): every commit bumps the
    // catalog epoch and fires the cache-invalidation hook.
    let mut cfg = DatasetConfig::small(61);
    cfg.range = DateRange::new(Date::new(2021, 2, 1).unwrap(), Date::new(2021, 2, 14).unwrap());
    cfg.sim.daily_edits_mean = 20.0;
    cfg.seed_nodes_per_country = 8;
    let ds2 = Dataset::generate(&dir.join("osm2"), cfg).unwrap();
    system.ingest_dataset(&ds2).unwrap();

    // Same keep-alive connection, same path: the answer must be the new
    // epoch's, and repeats at the new epoch must again be identical hits.
    let b1 = client.get(q).unwrap();
    assert_eq!(b1.status, 200);
    assert_ne!(
        stable_part(&a1.body),
        stable_part(&b1.body),
        "post-publish answer still serves pre-publish rows"
    );
    let b2 = client.get(q).unwrap();
    assert_eq!(b1.body, b2.body, "repeat at the new epoch must be a byte-identical hit");

    // The cache observed all of it: hits at two epochs, and invalidations
    // from the publish hook. Parse inside the response_cache section (the
    // ingest section has fields with the same names).
    let m = client.get("/api/metrics").unwrap();
    let cache_at = m.body.find("\"response_cache\"").expect("response_cache section");
    let section = &m.body[cache_at..];
    assert!(parse_uint_field(section, "hits") >= 2, "expected ≥2 cache hits: {}", m.body);
    assert!(
        parse_uint_field(section, "invalidations") >= 1,
        "publish hook never invalidated: {}",
        m.body
    );
    drop(client); // EOF the keep-alive conn so the drain doesn't wait out the idle timeout
    ts.stop().unwrap();
}

/// The deterministic part of a response body: everything before the
/// per-request execution stats (`"stats":{...,"wall_micros":N}` varies).
fn stable_part(body: &str) -> &str {
    match body.find(",\"stats\":") {
        Some(i) => &body[..i],
        None => body,
    }
}

/// Pull `"name":N` out of a flat JSON document.
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
