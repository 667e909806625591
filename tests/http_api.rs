//! Integration tests for the dashboard HTTP serving tier: a live server
//! (bounded worker pool + keep-alive), raw HTTP/1.1 requests, statuses,
//! JSON bodies, the `/api/metrics` telemetry endpoint, and deterministic
//! graceful shutdown.

mod common;

use common::{http_get, HttpClient, TempDir, TestServer};
use rased_core::{CubeSchema, Rased, RasedConfig, ServerConfig};
use rased_osm_gen::{Dataset, DatasetConfig};
use rased_temporal::{Date, DateRange};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn demo_system(tag: &str) -> (TempDir, Arc<Rased>) {
    let dir = common::tmpdir(&format!("http-{tag}"));
    let mut cfg = DatasetConfig::small(53);
    cfg.range = DateRange::new(Date::new(2021, 1, 1).unwrap(), Date::new(2021, 1, 31).unwrap());
    cfg.sim.daily_edits_mean = 25.0;
    cfg.seed_nodes_per_country = 10;
    let ds = Dataset::generate(&dir.join("osm"), cfg).unwrap();
    let schema = CubeSchema::new(ds.config.world.n_countries, ds.config.sim.n_road_types);
    let system =
        Rased::create(RasedConfig::new(dir.join("sys")).with_schema(schema)).unwrap();
    system.ingest_dataset(&ds).unwrap();
    (dir, Arc::new(system))
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

#[test]
fn http_endpoints_respond_over_one_keep_alive_connection() {
    let (_dir, system) = demo_system("endpoints");
    let ts = TestServer::start(system, test_config());
    // All requests ride a single keep-alive connection.
    let mut client = HttpClient::connect(ts.addr).unwrap();

    // The dashboard page.
    let r = client.get("/").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("<title>RASED"));
    assert_eq!(r.header("connection"), Some("keep-alive"));

    // Meta endpoint reports coverage and cube counts.
    let r = client.get("/api/meta").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"coverage_start\":\"2021-01-01\""), "{}", r.body);
    assert!(r.body.contains("\"rows\":"));

    // An analysis query grouped by country.
    let r = client
        .get("/api/analysis?start=2021-01-01&end=2021-01-31&group=country,update")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.starts_with("{\"rows\":["), "{}", r.body);
    assert!(r.body.contains("\"country\":"));
    assert!(r.body.contains("\"stats\":"));

    // Country filters accept codes and names.
    let r = client
        .get("/api/analysis?start=2021-01-01&end=2021-01-31&countries=US&group=element")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"element\":\"way\""), "{}", r.body);

    // CSV export of the same query.
    let r = client
        .get("/api/analysis?start=2021-01-01&end=2021-01-31&group=country&format=csv")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.starts_with("date,country,element,road,update,count,value"), "{}", r.body);
    assert!(r.body.lines().count() > 1);

    // Query-scoped sampling.
    let r = client
        .get("/api/sample?min_lat=-90&min_lon=-180&max_lat=90&max_lon=180&limit=5&start=2021-01-01&end=2021-01-31&updates=create")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(!r.body.contains("\"update\":\"delete\""), "{}", r.body);

    // Sampling endpoint.
    let r = client
        .get("/api/sample?min_lat=-90&min_lon=-180&max_lat=90&max_lon=180&limit=5")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"samples\":["));
    assert!(r.body.matches("\"changeset\":").count() <= 5);

    // Telemetry: everything above was served on ONE connection.
    let r = client.get("/api/metrics").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"accepted\":1"), "{}", r.body);
    assert!(r.body.contains("\"/api/analysis\":3"), "{}", r.body);
    assert!(r.body.contains("\"latency_micros\""), "{}", r.body);

    drop(client);
    ts.stop().unwrap();
}

#[test]
fn http_errors_are_reported() {
    let (_dir, system) = demo_system("errors");
    let ts = TestServer::start(system, test_config());

    let r = http_get(ts.addr, "/nope").unwrap();
    assert_eq!(r.status, 404);
    assert_eq!(r.header("connection"), Some("close"));

    // Missing required parameter.
    let r = http_get(ts.addr, "/api/analysis?end=2021-01-31").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("start"), "{}", r.body);

    // Unknown country.
    let r =
        http_get(ts.addr, "/api/analysis?start=2021-01-01&end=2021-01-31&countries=Atlantis")
            .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("Atlantis"));

    // Malformed bbox.
    let r = http_get(ts.addr, "/api/sample?min_lat=x").unwrap();
    assert_eq!(r.status, 400);

    // Non-GET methods are rejected without breaking the connection framing.
    let stream = TcpStream::connect(ts.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write!(&stream, "DELETE /api/meta HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let r = common::read_response(&mut reader).unwrap();
    assert_eq!(r.status, 405);

    ts.stop().unwrap();
}

#[test]
fn connection_close_and_http10_are_honored() {
    let (_dir, system) = demo_system("connclose");
    let ts = TestServer::start(system, test_config());

    // `Connection: close` → the server closes after one response.
    let stream = TcpStream::connect(ts.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(&stream, "GET /api/meta HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut all = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_to_string(&mut all).unwrap(); // returns only because the server closed
    assert!(all.starts_with("HTTP/1.1 200"), "{all}");
    assert!(all.contains("Connection: close"), "{all}");

    // HTTP/1.0 without keep-alive: same close behavior.
    let stream = TcpStream::connect(ts.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(&stream, "GET /api/meta HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
    let mut all = String::new();
    BufReader::new(stream).read_to_string(&mut all).unwrap();
    assert!(all.starts_with("HTTP/1.1 200"), "{all}");
    assert!(all.contains("Connection: close"), "{all}");

    ts.stop().unwrap();
}

#[test]
fn metrics_endpoint_reports_status_classes() {
    let (_dir, system) = demo_system("metrics");
    let ts = TestServer::start(system, test_config());

    assert_eq!(http_get(ts.addr, "/api/meta").unwrap().status, 200);
    assert_eq!(http_get(ts.addr, "/definitely-not-here").unwrap().status, 404);
    let r = http_get(ts.addr, "/api/metrics").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"2xx\":1"), "{}", r.body);
    assert!(r.body.contains("\"4xx\":1"), "{}", r.body);
    assert!(r.body.contains("\"other\":1"), "{}", r.body);
    assert!(r.body.contains("\"max_active\":"), "{}", r.body);

    // After graceful shutdown every accepted connection was completed.
    let server = Arc::clone(&ts.server);
    ts.stop().unwrap();
    assert_eq!(server.metrics().completed(), server.metrics().accepted());
    assert_eq!(server.metrics().active(), 0);
}

/// The fields an operator (or a load harness) reads off `/api/metrics`:
/// per-endpoint latency percentile estimates, the admission-control
/// section, and the cumulative cube-cache counters hit rates derive from.
#[test]
fn metrics_endpoint_serves_percentiles_admission_and_cache() {
    let (_dir, system) = demo_system("metricsfields");
    let ts = TestServer::start(system, test_config());

    // One expensive request so the analysis histogram is non-empty.
    let r = http_get(ts.addr, "/api/analysis?start=2021-01-01&end=2021-01-31&group=update")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    let m = http_get(ts.addr, "/api/metrics").unwrap();
    assert_eq!(m.status, 200);
    // Histogram-derived latency estimates, per endpoint.
    for field in ["\"latency_micros\"", "\"p50_est\"", "\"p99_est\"", "\"p999_est\""] {
        assert!(m.body.contains(field), "missing {field} in {}", m.body);
    }
    // Admission control reports even when disabled (the default config):
    // gauges at zero, caps echoed so operators can see what is in force.
    let adm = m.body.find("\"admission\"").expect("admission section");
    let adm = &m.body[adm..];
    for field in [
        "\"active\"",
        "\"max_active\"",
        "\"clients_active\"",
        "\"per_client_cap\"",
        "\"shed_threshold\"",
        "\"shed_client_cap\"",
        "\"shed_overload\"",
    ] {
        assert!(adm.contains(field), "missing admission {field} in {}", m.body);
    }
    // Cube-cache counters: the analysis above must have touched the cache.
    let cache = m.body.find("\"cache\"").expect("cache section");
    let cache = &m.body[cache..];
    for field in ["\"cube_slots\"", "\"cube_hits\"", "\"cube_misses\""] {
        assert!(cache.contains(field), "missing cache {field} in {}", m.body);
    }
    assert!(
        !cache.contains("\"cube_hits\":0") || !cache.contains("\"cube_misses\":0"),
        "analysis request left no trace in the cube cache: {}",
        m.body
    );

    ts.stop().unwrap();
}

/// The response cache admits a key on its second render; first sightings
/// are rendered, not inserted, and `/api/metrics` counts them as
/// `deferred` beside `insertions`.
#[test]
fn metrics_response_cache_counts_deferred_first_sightings() {
    let (_dir, system) = demo_system("deferred");
    let ts = TestServer::start(system, test_config());
    let mut client = HttpClient::connect(ts.addr).unwrap();
    for q in [
        "/api/analysis?start=2021-01-01&end=2021-01-31&group=update",
        "/api/analysis?start=2021-01-01&end=2021-01-20&group=country",
        "/api/analysis?start=2021-01-01&end=2021-01-31&group=update",
        "/api/analysis?start=2021-01-01&end=2021-01-31&group=update",
    ] {
        assert_eq!(client.get(q).unwrap().status, 200, "{q}");
    }
    let m = client.get("/api/metrics").unwrap();
    let at = m.body.find("\"response_cache\"").expect("response_cache section");
    let section = &m.body[at..];
    let field = |name: &str| {
        let pat = format!("\"{name}\":");
        let from = section.find(&pat).unwrap_or_else(|| panic!("{name} not in {}", m.body));
        section[from + pat.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u64>()
            .unwrap()
    };
    // Two first sightings deferred, the repeat admitted, the third a hit.
    assert_eq!(field("deferred"), 2, "{}", m.body);
    assert_eq!(field("insertions"), 1, "{}", m.body);
    assert_eq!((field("misses"), field("hits")), (3, 1), "{}", m.body);
    drop(client);
    ts.stop().unwrap();
}

/// `POST /api/ingest` is a write surface reachable from the network, so
/// enqueued directories are confined: they must resolve (after symlinks
/// and `..`) under the configured ingest root, and with no root the
/// endpoint refuses outright.
#[test]
fn ingest_endpoint_is_confined_to_the_data_root() {
    let (dir, system) = demo_system("ingestroot");
    let root = dir.join("osm");
    let ingest =
        Arc::new(rased_core::IngestController::start(Arc::clone(&system)).unwrap());
    let ts = TestServer::start_with(Arc::clone(&system), test_config(), |s| {
        s.with_ingest(Arc::clone(&ingest), Some(root.clone()))
    });
    let mut client = HttpClient::connect(ts.addr).unwrap();

    // Absolute paths outside the root are refused before the controller
    // ever sees them.
    let r = client.post("/api/ingest?dir=/etc", "").unwrap();
    assert_eq!(r.status, 403, "{}", r.body);
    // `..` cannot escape: this resolves to the (existing) system dir.
    let escape = format!("/api/ingest?dir={}/../sys", root.display());
    let r = client.post(&escape, "").unwrap();
    assert_eq!(r.status, 403, "{}", r.body);
    // Nonexistent directories are a client error, not an enqueue.
    let r = client.post("/api/ingest?dir=no-such-subdir", "").unwrap();
    assert_eq!(r.status, 400, "{}", r.body);

    // The root itself — absolute via the body, relative via the query —
    // is accepted; the controller skips the already-published days.
    let r = client.post("/api/ingest", &root.display().to_string()).unwrap();
    assert_eq!(r.status, 202, "{}", r.body);
    assert!(r.body.contains("\"status\":\"queued\""), "{}", r.body);
    let r = client.post("/api/ingest?dir=.", "").unwrap();
    assert_eq!(r.status, 202, "{}", r.body);

    drop(client);
    ts.stop().unwrap();

    // Without a configured root the POST surface is disabled entirely,
    // while the read-only status endpoint keeps answering.
    let ts = TestServer::start_with(Arc::clone(&system), test_config(), |s| {
        s.with_ingest(Arc::clone(&ingest), None)
    });
    let mut client = HttpClient::connect(ts.addr).unwrap();
    let r = client.post("/api/ingest", &root.display().to_string()).unwrap();
    assert_eq!(r.status, 403, "{}", r.body);
    assert!(r.body.contains("no ingest root"), "{}", r.body);
    let r = client.get("/api/ingest/status").unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    drop(client);
    ts.stop().unwrap();
    ingest.shutdown();
}

/// Shutdown must not require a sacrificial connection: the stop handle
/// wakes the blocking acceptor deterministically.
#[test]
fn shutdown_without_any_connection_is_prompt() {
    let (_dir, system) = demo_system("shutdown");
    let server =
        Arc::new(rased_dashboard::DashboardServer::bind_with(system, "127.0.0.1:0", test_config()).unwrap());
    let stop = server.stop_handle();
    let thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };
    // Give the acceptor a moment to block in accept(), then stop with NO
    // client connection ever arriving.
    std::thread::sleep(Duration::from_millis(50));
    let started = std::time::Instant::now();
    stop.stop();
    thread.join().expect("serve thread").unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} — acceptor was not woken",
        started.elapsed()
    );
    assert_eq!(server.metrics().active(), 0);
}
