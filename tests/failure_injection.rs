//! Failure injection across crate boundaries: corrupt files, truncated
//! pages, malformed XML, and hostile configurations must surface as typed
//! errors — never panics, hangs, or silent misdata.

use rased_core::{CubeSchema, Rased, RasedConfig};
use rased_index::{CacheConfig, IndexError, TemporalIndex};
use rased_osm_gen::{Dataset, DatasetConfig};
use rased_osm_xml::{DiffReader, PlanetReader};
use rased_storage::{IoCostModel, PageFile, StorageError};
use rased_temporal::{Date, DateRange, Period};

mod common;
use common::tmpdir;


#[test]
fn corrupt_cube_page_is_reported_not_misread() {
    let dir = tmpdir("corrupt-cube");
    let schema = CubeSchema::tiny();
    let index =
        TemporalIndex::create(&dir, schema, 4, CacheConfig::disabled(), IoCostModel::free())
            .unwrap();
    let day: Date = "2021-06-01".parse().unwrap();
    index
        .ingest_day(day, &rased_core::DataCube::zeroed(schema))
        .unwrap();
    index.sync().unwrap();
    drop(index);

    // Stomp the cube page's magic through the page file.
    {
        let pf = PageFile::open(&dir.join("cubes.pg"), IoCostModel::free()).unwrap();
        let mut page = pf.read_page_vec(rased_storage::PageId(0)).unwrap();
        page[0..8].copy_from_slice(b"GARBAGE!");
        pf.write_page(rased_storage::PageId(0), &page).unwrap();
        pf.sync().unwrap();
    }

    let index =
        TemporalIndex::open(&dir, schema, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
    match index.fetch(Period::Day(day)) {
        Err(IndexError::Cube(_)) => {}
        other => panic!("expected cube corruption error, got {other:?}"),
    }
}

#[test]
fn truncated_page_file_is_reported() {
    let dir = tmpdir("truncated-pg");
    let path = dir.join("t.pg");
    {
        let pf = PageFile::create(&path, 4096, IoCostModel::free()).unwrap();
        pf.append_page(&[7u8; 4096]).unwrap();
        pf.sync().unwrap();
    }
    // Chop the file mid-page.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();

    let pf = PageFile::open(&path, IoCostModel::free()).unwrap();
    match pf.read_page_vec(rased_storage::PageId(0)) {
        Err(StorageError::Io(_)) => {}
        other => panic!("expected I/O error on truncated page, got {other:?}"),
    }
}

#[test]
fn malformed_xml_never_panics() {
    let hostile = [
        "",
        "<",
        "<osm",
        "<osm><node/></osm>",                       // node missing required attrs
        "<osm><node id='1'></osm>",                 // tag soup
        "<osmChange><modify><node id='1' lat='x' lon='0' version='1' timestamp='2020-01-01T00:00:00Z' changeset='1'/></modify></osmChange>",
        "<?xml version='1.0'?><!-- only a comment -->",
        "<osm>&unknown;</osm>",
        "<osm><way id='1' version='1' timestamp='9999-99-99T00:00:00Z' changeset='1'/></osm>",
    ];
    for doc in hostile {
        // Both readers must terminate with Ok(None) or Err — never hang or
        // panic. (Iterator form caps at a generous bound to catch loops.)
        let mut planet = PlanetReader::new(doc.as_bytes());
        for _ in 0..100 {
            match planet.next_element() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
        let mut diff = DiffReader::new(doc.as_bytes());
        for _ in 0..100 {
            match diff.next_change() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }
}

#[test]
fn ingest_with_missing_files_fails_cleanly() {
    let dir = tmpdir("missing-files");
    let mut cfg = DatasetConfig::small(61);
    cfg.range = DateRange::new(Date::new(2021, 1, 1).unwrap(), Date::new(2021, 1, 10).unwrap());
    cfg.sim.daily_edits_mean = 10.0;
    let ds = Dataset::generate(&dir.join("osm"), cfg).unwrap();

    // Delete one diff file.
    std::fs::remove_file(ds.paths.diff(Date::new(2021, 1, 5).unwrap())).unwrap();

    let schema = CubeSchema::new(ds.config.world.n_countries, ds.config.sim.n_road_types);
    let system =
        Rased::create(RasedConfig::new(dir.join("sys")).with_schema(schema)).unwrap();
    let err = system.ingest_dataset(&ds).unwrap_err();
    assert!(err.to_string().contains("I/O"), "{err}");
}

#[test]
fn schema_mismatch_on_reopen_is_detected() {
    let dir = tmpdir("schema-mismatch");
    let schema = CubeSchema::new(8, 4);
    {
        let index =
            TemporalIndex::create(&dir, schema, 4, CacheConfig::disabled(), IoCostModel::free())
                .unwrap();
        index
            .ingest_day("2021-01-01".parse().unwrap(), &rased_core::DataCube::zeroed(schema))
            .unwrap();
        index.sync().unwrap();
    }
    // Reopen claiming a different schema: fetch must fail, not misdecode.
    let wrong = CubeSchema::new(9, 4);
    let index =
        TemporalIndex::open(&dir, wrong, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
    let day: Date = "2021-01-01".parse().unwrap();
    assert!(index.fetch(Period::Day(day)).is_err());
}

#[test]
fn cache_capacity_zero_and_warm_on_empty_index() {
    let dir = tmpdir("empty-warm");
    let schema = CubeSchema::tiny();
    let index = TemporalIndex::create(
        &dir,
        schema,
        4,
        CacheConfig { slots: 0 },
        IoCostModel::free(),
    )
    .unwrap();
    // Warming an empty index with a zero-slot cache is a no-op, not a crash.
    index.warm_cache().unwrap();
    assert!(index.cache().is_empty());
    assert_eq!(index.coverage(), None);
}

#[test]
fn queries_on_empty_system_return_empty() {
    let dir = tmpdir("empty-system");
    let system = Rased::create(RasedConfig::new(&*dir)).unwrap();
    let q = rased_core::AnalysisQuery::over(DateRange::new(
        Date::new(2020, 1, 1).unwrap(),
        Date::new(2020, 12, 31).unwrap(),
    ));
    let result = system.query(&q).unwrap();
    assert!(result.rows.is_empty());
    assert_eq!(result.stats.empty_days, 366);
    let samples = system
        .sample_region(&rased_geo::BBox::world(), 10)
        .unwrap();
    assert!(samples.is_empty());
}

// ---------------------------------------------------------------------------
// HTTP failure injection: hostile clients against the live serving tier.
// ---------------------------------------------------------------------------

mod http_hostile {
    use super::common::{self, read_response, tmpdir};
    use common::TestServer;
    use rased_core::{Rased, RasedConfig, ServerConfig};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn empty_system(tag: &str) -> (common::TempDir, Arc<Rased>) {
        let dir = tmpdir(&format!("fail-http-{tag}"));
        let system = Rased::create(RasedConfig::new(dir.join("sys"))).unwrap();
        (dir, Arc::new(system))
    }

    fn hostile_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_depth: 8,
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_secs(2),
            max_request_line_bytes: 1024,
            max_header_bytes: 4096,
            max_body_bytes: 1024,
            ..ServerConfig::default()
        }
    }

    /// Slowloris: a client that trickles half a header block and stalls is
    /// reaped by the read timeout — answered 408 and disconnected, without
    /// hanging a worker.
    #[test]
    fn slowloris_is_reaped_by_read_timeout() {
        let (_dir, system) = empty_system("slowloris");
        let ts = TestServer::start(system, hostile_config());

        let started = Instant::now();
        let stream = TcpStream::connect(ts.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Half a request, then silence.
        write!(&stream, "GET /api/meta HTTP/1.1\r\nHost: slow").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let r = read_response(&mut reader).expect("server must answer 408, not hang");
        assert_eq!(r.status, 408);
        assert_eq!(r.header("connection"), Some("close"));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "reaping took {:?}",
            started.elapsed()
        );

        let server = Arc::clone(&ts.server);
        ts.stop().unwrap();
        assert!(server.metrics().timeouts_total() >= 1, "timeout not counted");
    }

    /// An idle keep-alive connection (no bytes at all) is closed silently
    /// when the read timeout expires — no 408 for a request that never
    /// started.
    #[test]
    fn idle_connection_expires_silently() {
        let (_dir, system) = empty_system("idle");
        let ts = TestServer::start(system, hostile_config());

        let stream = TcpStream::connect(ts.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // The server closes without writing anything.
        let err = read_response(&mut reader).expect_err("no response for an idle close");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        ts.stop().unwrap();
    }

    /// A body larger than the cap is rejected 413 from the declared
    /// Content-Length alone — the server never buffers the payload.
    #[test]
    fn oversized_body_is_413() {
        let (_dir, system) = empty_system("bigbody");
        let ts = TestServer::start(system, hostile_config());

        let stream = TcpStream::connect(ts.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(
            &stream,
            "POST /api/meta HTTP/1.1\r\nHost: t\r\nContent-Length: 1000000\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let r = read_response(&mut reader).unwrap();
        assert_eq!(r.status, 413);
        assert_eq!(r.header("connection"), Some("close"));
        ts.stop().unwrap();
    }

    /// Malformed requests get typed 4xx responses — never panics or hangs.
    #[test]
    fn malformed_requests_get_typed_4xx() {
        let (_dir, system) = empty_system("malformed");
        let ts = TestServer::start(system, hostile_config());

        let cases: Vec<(Vec<u8>, u16)> = vec![
            (b"GARBAGE\r\n\r\n".to_vec(), 400),
            (b"GET / HTTP/1.1\r\nNoColon\r\n\r\n".to_vec(), 400),
            (b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(), 400),
            (b"GET / HTTP/3.0\r\n\r\n".to_vec(), 505),
            // Request line beyond the 1 KiB cap → 431.
            (format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4096)).into_bytes(), 431),
            // Header block beyond the 4 KiB cap → 431.
            (
                format!("GET / HTTP/1.1\r\n{}\r\n", "X-Flood: yyyyyyyyyyyyyyyyyyyy\r\n".repeat(400))
                    .into_bytes(),
                431,
            ),
        ];
        for (bytes, want) in cases {
            let stream = TcpStream::connect(ts.addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            (&stream).write_all(&bytes).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let r = read_response(&mut reader).unwrap();
            assert_eq!(r.status, want, "{:?}...", &bytes[..bytes.len().min(40)]);
        }
        ts.stop().unwrap();
    }

    /// Stalled clients park in the event loop, not on pool threads: with a
    /// single worker, several simultaneous slowloris connections must not
    /// delay a healthy request, and the busy-worker watermark must never
    /// exceed the pool size. (Under the old thread-per-connection tier each
    /// stall pinned the only worker for a full read timeout, serializing
    /// everyone else behind ~1.2 s of reaping.)
    #[test]
    fn stalled_clients_do_not_pin_workers() {
        let (_dir, system) = empty_system("noworkerpin");
        let config = ServerConfig { workers: 1, ..hostile_config() };
        let ts = TestServer::start(system, config);

        let mut stalled = Vec::new();
        for _ in 0..4 {
            let s = TcpStream::connect(ts.addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            write!(&s, "GET /api/meta HTTP/1.1\r\nHost: sl").unwrap();
            stalled.push(s);
        }
        std::thread::sleep(Duration::from_millis(50));

        // A healthy request must be answered while all four still stall —
        // well inside the 300 ms it takes to reap even *one* of them.
        let t0 = Instant::now();
        let r = common::http_get(ts.addr, "/api/meta").unwrap();
        assert_eq!(r.status, 200);
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "healthy request waited {:?} behind stalled clients",
            t0.elapsed()
        );

        // Every stalled client is still reaped with its own 408.
        for s in stalled {
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let r = read_response(&mut reader).expect("stalled client must get 408");
            assert_eq!(r.status, 408);
        }

        let server = Arc::clone(&ts.server);
        ts.stop().unwrap();
        let m = server.metrics();
        assert!(m.timeouts_total() >= 4, "stalls not reaped: {}", m.timeouts_total());
        assert!(m.max_busy_workers() <= 1, "pool bound broken: {}", m.max_busy_workers());
    }

    /// Graceful shutdown drains parked connections deterministically: a
    /// connection parked mid-request is answered 408, an idle one closes
    /// silently, and `stop()` returns once every connection is gone —
    /// bounded by the read timeout, never hanging on parked sockets.
    #[test]
    fn graceful_shutdown_drains_parked_connections() {
        let (_dir, system) = empty_system("drainpark");
        let ts = TestServer::start(system, hostile_config());

        // Parked in Reading with nothing buffered: must close silently.
        let idle = TcpStream::connect(ts.addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Parked in Reading mid-request: must be answered 408.
        let stalled = TcpStream::connect(ts.addr).unwrap();
        stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(&stalled, "GET /api/meta HTTP/1.1\r\nHost: park").unwrap();

        // Wait until both are inside the loop, then stop.
        let deadline = Instant::now() + Duration::from_secs(5);
        while ts.server.metrics().accepted() < 2 {
            assert!(Instant::now() < deadline, "acceptor stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let server = Arc::clone(&ts.server);
        let t0 = Instant::now();
        ts.stop().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown hung {:?} on parked connections",
            t0.elapsed()
        );

        // The stalled client got its deterministic 408 …
        let mut reader = BufReader::new(stalled.try_clone().unwrap());
        let r = read_response(&mut reader).expect("parked mid-request must get 408 on drain");
        assert_eq!(r.status, 408);
        // … the idle one a silent close …
        let mut reader = BufReader::new(idle.try_clone().unwrap());
        let err = read_response(&mut reader).expect_err("idle park must close silently");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        // … and the books balance.
        let m = server.metrics();
        assert_eq!(m.active(), 0, "connections left open after drain");
        assert_eq!(m.completed(), m.accepted(), "parked connections were leaked");
    }

    /// Backpressure: with 1 worker (held by a stalled client) and a queue
    /// of 1 (occupied), the next connection is rejected 503 + Retry-After
    /// instead of spawning a thread or queueing unboundedly.
    #[test]
    fn queue_full_gets_503_with_retry_after() {
        let (_dir, system) = empty_system("queuefull");
        let config = ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(5),
            ..hostile_config()
        };
        let ts = TestServer::start(system, config);
        let wait_accepted = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while ts.server.metrics().accepted() < n {
                assert!(Instant::now() < deadline, "acceptor stalled");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // A: occupies the only worker (stalls inside read_request).
        let a = TcpStream::connect(ts.addr).unwrap();
        wait_accepted(1);
        // The worker must have *popped* A off the queue before B arrives,
        // or B-then-C ordering is not deterministic. Give it a beat.
        std::thread::sleep(Duration::from_millis(100));
        // B: fills the queue slot.
        let _b = TcpStream::connect(ts.addr).unwrap();
        wait_accepted(2);
        // C: queue full → immediate 503.
        let c = TcpStream::connect(ts.addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let r = read_response(&mut reader).unwrap();
        assert_eq!(r.status, 503);
        assert!(r.header("retry-after").is_some(), "503 without Retry-After");

        // A can still complete its request: load-shedding never broke the
        // connections already admitted.
        write!(&a, "GET /api/meta HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut reader = BufReader::new(a.try_clone().unwrap());
        let r = read_response(&mut reader).unwrap();
        assert_eq!(r.status, 200);

        let server = Arc::clone(&ts.server);
        ts.stop().unwrap();
        assert!(server.metrics().queue_full_total() >= 1);
    }

    // -----------------------------------------------------------------------
    // Event-loop wakes: the idle loop blocks in one readiness wait, so a
    // reply that is ready must wake it. Server deadlines (30 s) sit far
    // beyond the clients' 2 s read timeout: a missed wake fails fast
    // instead of being rescued by a connection deadline.
    // -----------------------------------------------------------------------

    fn wake_server(tag: &str) -> (TestServer, common::TempDir) {
        let (dir, system) = empty_system(tag);
        let config = ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        (TestServer::start(system, config), dir)
    }

    /// A keep-alive client with a 2 s read timeout. Drop it before `stop`:
    /// the drain would otherwise wait out its 30 s idle deadline.
    fn wake_client(ts: &TestServer) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(ts.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    /// A keep-alive `GET /api/analysis` over the first `days` days of 2021.
    /// Each new `nonce`
    /// is a distinct cache key, so a worker renders it; the empty system
    /// answers with `"empty_days":<days>`, which names the reply.
    fn analysis(days: u32, nonce: usize) -> String {
        format!("GET /api/analysis?start=2021-01-01&end=2021-01-{days:02}&cb={nonce} HTTP/1.1\r\nHost: t\r\n\r\n")
    }

    /// 200 distinct misses (each delivered by its worker's completion wake)
    /// then 200 repeats of one tile (hits answered inline), back to back on
    /// one keep-alive connection: every one is answered.
    #[test]
    fn misses_then_hits_on_one_connection_are_all_answered() {
        let (ts, _dir) = wake_server("wake-seq");
        let (stream, mut reader) = wake_client(&ts);
        for i in 0..400 {
            // Requests 200.. repeat request 0's tile.
            (&stream).write_all(analysis(31, if i < 200 { i } else { 0 }).as_bytes()).unwrap();
            let r = read_response(&mut reader)
                .unwrap_or_else(|e| panic!("request {i} unanswered (lost wake?): {e}"));
            assert_eq!(r.status, 200, "request {i}: {}", r.body);
        }
        let cache = ts.server.response_cache().expect("cache on by default");
        assert_eq!((cache.misses_total(), cache.hits_total()), (200, 200));
        drop((stream, reader));
        ts.stop().unwrap();
    }

    /// A miss, a hit and a miss pipelined in one `write`: the second and
    /// third requests are already in the connection's buffer when the
    /// first reply drains, so they must be served from it — no `POLLIN`
    /// will ever announce them — and in order.
    #[test]
    fn pipelined_miss_hit_miss_in_one_write_are_answered_in_order() {
        let (ts, _dir) = wake_server("wake-pipe");
        let (stream, mut reader) = wake_client(&ts);
        (&stream).write_all(analysis(20, 0).as_bytes()).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);

        let batch = [analysis(10, 1), analysis(20, 0), analysis(30, 2)].concat();
        (&stream).write_all(batch.as_bytes()).unwrap();
        for days in [10, 20, 30] {
            let r = read_response(&mut reader)
                .unwrap_or_else(|e| panic!("pipelined {days}-day request unanswered: {e}"));
            assert_eq!(r.status, 200);
            let named = format!("\"empty_days\":{days},");
            assert!(r.body.contains(&named), "out of order: {}", r.body);
        }
        let cache = ts.server.response_cache().expect("cache on by default");
        assert_eq!((cache.misses_total(), cache.hits_total()), (3, 1));
        drop((stream, reader));
        ts.stop().unwrap();
    }

    /// A single miss on an otherwise idle server: the loop is blocked with
    /// only the listener and the wake socket to watch while the worker
    /// renders, so only the completion wake can deliver the reply.
    #[test]
    fn idle_server_answers_a_single_miss_promptly() {
        let (ts, _dir) = wake_server("wake-idle");
        std::thread::sleep(Duration::from_millis(100));
        let (stream, mut reader) = wake_client(&ts);
        let t0 = Instant::now();
        (&stream).write_all(analysis(31, 7).as_bytes()).unwrap();
        let r = read_response(&mut reader).expect("miss unanswered: lost completion wake");
        assert_eq!(r.status, 200);
        assert!(t0.elapsed() < Duration::from_secs(1), "miss took {:?}", t0.elapsed());
        drop((stream, reader));
        ts.stop().unwrap();
    }

    /// A client that asks for far more than the socket buffers hold and
    /// never reads parks in `Writing`, where `POLLOUT` never fires: the
    /// wait's timeout must track the write deadline, not only read ones,
    /// so the connection is reaped `write_timeout` after its last progress.
    #[test]
    fn stalled_reader_is_reaped_at_write_timeout() {
        let (_dir, system) = empty_system("stalled-reader");
        let write_timeout = Duration::from_secs(1);
        let pages = 40_000;
        let config = ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(30),
            write_timeout,
            max_keep_alive_requests: pages + 1,
            ..ServerConfig::default()
        };
        let ts = TestServer::start(system, config);
        let server = Arc::clone(&ts.server);
        let m = server.metrics();

        // 40 000 dashboard pages (~130 MB), never read. The writer gets a
        // clone; this handle keeps the socket open until the server reaps it.
        let stream = TcpStream::connect(ts.addr).unwrap();
        let batch = "GET / HTTP/1.1\r\nHost: t\r\n\r\n".repeat(pages);
        let writer = {
            let stream = stream.try_clone().unwrap();
            // Blocks once the server stops reading; fails when it is reaped.
            std::thread::spawn(move || {
                let _ = (&stream).write_all(batch.as_bytes());
            })
        };

        // Each answered request is the connection's last write progress.
        let deadline = Instant::now() + Duration::from_secs(20);
        while m.active() == 0 {
            assert!(Instant::now() < deadline, "connection never opened");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (mut answered, mut last_progress) = (0, Instant::now());
        while m.active() > 0 {
            assert!(Instant::now() < deadline, "stalled reader never reaped");
            std::thread::sleep(Duration::from_millis(1));
            if m.requests_total() != answered {
                answered = m.requests_total();
                last_progress = Instant::now();
            }
        }
        let reaped_after = last_progress.elapsed();
        writer.join().unwrap();
        assert!((answered as usize) < pages, "every page fit in the socket buffers");
        assert!(
            reaped_after.abs_diff(write_timeout) <= Duration::from_millis(250),
            "reaped {reaped_after:?} after the last write progress, write_timeout {write_timeout:?}"
        );
        ts.stop().unwrap();
    }
}
