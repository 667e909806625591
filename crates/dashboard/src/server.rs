//! The dashboard's HTTP/1.1 serving tier.
//!
//! Endpoints:
//! * `GET /` — the embedded single-page dashboard;
//! * `GET /api/meta` — dataset coverage, taxonomy sizes, cube statistics;
//! * `GET /api/analysis?...` — run an analysis query (see
//!   [`crate::parse_analysis_query`] for parameters, including the
//!   spatial `bbox=`/`viewport=` drill-down);
//! * `GET /api/sample?min_lat=&min_lon=&max_lat=&max_lon=&limit=` — sample
//!   updates in a region (§IV-B); add `start`/`end` and any analysis
//!   filters to scope the sample to a query;
//! * `GET /api/metrics` — serving-tier telemetry ([`ServerMetrics`]) plus
//!   write-path counters (catalog epoch, published units, cache
//!   invalidations, crawler skip statistics);
//! * `POST /api/ingest?dir=PATH` — enqueue a data directory for streaming
//!   ingestion; `PATH` must resolve under the configured ingest root
//!   (`202` + queue depth; `400`/`403` on bad or out-of-root paths; `503`
//!   when the bounded queue is full or no ingest controller is attached);
//! * `GET /api/ingest/status` — the streaming writer's phase, progress and
//!   last error.
//!
//! Architecture: a single nonblocking *event loop* ([`crate::evloop`])
//! owns the listener and every connection — accepts, request reads,
//! response writes, timeouts — so a slow or hostile client parks as a few
//! kilobytes of buffered state instead of pinning a thread. A bounded
//! worker pool (default one worker per core) executes only the actual
//! work: routing, cube queries, cold renders. Between them sits the
//! epoch-keyed *response cache* ([`crate::respcache`]): repeat GETs of the
//! expensive endpoints at the current catalog epoch are answered straight
//! from the event loop as a memcpy of pre-serialized bytes, and an ingest
//! publish bumps the epoch, which both re-keys lookups and sweeps the dead
//! entries. When the open-connection bound (workers + queue depth) is
//! reached, new connections are rejected immediately with `503` +
//! `Retry-After` — backpressure, never unbounded buffering. Per-request
//! *admission control* ([`crate::admission`]) meters the expensive
//! endpoints on the miss path: a per-client concurrency cap and a global
//! shed threshold both degrade to a cheap-path `503` + `Retry-After`, so
//! overload produces fast rejections (and a responsive `/api/metrics`)
//! instead of latency collapse. Connections are keep-alive with
//! per-request read/write timeouts and parse limits (see
//! [`rased_core::ServerConfig`]); a stalled client is reaped by the event
//! loop's deadline scan, answered `408`, and closed. [`StopHandle::stop`]
//! initiates graceful shutdown: the loop is woken deterministically, stops
//! accepting, in-flight requests drain (each open connection may finish
//! the request it is on, with `Connection: close`), and
//! [`DashboardServer::serve`] returns only after every worker has been
//! joined.
#![expect(clippy::disallowed_types, reason = "the serving tier binds the listener and hands sockets to the event loop")]

use crate::admission::AdmissionControl;
use crate::api::{parse_analysis_query, parse_query_string, result_to_json};
use crate::http::{write_response, Request};
use crate::json::Json;
use crate::metrics::{Endpoint, ServerMetrics};
use crate::respcache::ResponseCache;
use rased_core::{IngestController, Rased, ServerConfig};
use rased_geo::BBox;
use std::borrow::Cow;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `Retry-After` on every `503`, the connection-cap rejection and the
/// admission shed alike.
pub(crate) const RETRY_AFTER_SECS: &str = "1";

/// The dashboard HTTP server.
pub struct DashboardServer {
    pub(crate) system: Arc<Rased>,
    pub(crate) listener: TcpListener,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) admission: AdmissionControl,
    pub(crate) respcache: Option<Arc<ResponseCache>>,
    ingest: Option<Arc<IngestController>>,
    ingest_root: Option<std::path::PathBuf>,
}

/// Requests [`DashboardServer::serve`] to shut down gracefully.
///
/// [`StopHandle::stop`] sets the stop flag and then *wakes the acceptor
/// deterministically* with a loopback connect, so shutdown never waits for
/// a sacrificial client connection.
#[derive(Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
}

impl StopHandle {
    /// Initiate graceful shutdown: stop accepting, drain in-flight
    /// requests, join all workers. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(mut addr) = self.addr {
            // `0.0.0.0` is bindable but not connectable; nudge via loopback.
            if addr.ip().is_unspecified() {
                addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
            }
            let _ = TcpStream::connect(addr);
        }
    }
}

impl DashboardServer {
    /// Bind to `addr` (e.g. `"127.0.0.1:7878"`; port 0 picks a free port),
    /// with the serving knobs from the system's [`ServerConfig`].
    pub fn bind(system: Arc<Rased>, addr: &str) -> std::io::Result<DashboardServer> {
        let config = system.config().server.clone();
        DashboardServer::bind_with(system, addr, config)
    }

    /// Bind with an explicit [`ServerConfig`] (tests tighten timeouts and
    /// shrink pools through this).
    pub fn bind_with(
        system: Arc<Rased>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<DashboardServer> {
        let listener = TcpListener::bind(addr)?;
        let admission = AdmissionControl::new(
            config.effective_max_active_per_client(),
            config.effective_shed_threshold(),
        );
        let respcache = if config.response_cache {
            let cache = Arc::new(ResponseCache::new(
                config.response_cache_bytes,
                config.response_cache_entries,
            ));
            // Invalidation rides the catalog publish hook: every committed
            // unit bumps its partition's epoch and (with no index locks
            // held) sweeps exactly the entries stamped with an older epoch
            // of that partition — tiles pinned to other partitions stay
            // hot. The two hierarchies differ only in stamp namespace: an
            // index shard sweeps id `shard`, a bank band sweeps
            // `SPATIAL_STAMP_BASE | band`, so a cube publish never evicts
            // a viewport tile nor a bank publish a temporal one. `Weak` so
            // a retired server's cache is dropped, not pinned by the
            // index.
            let hierarchies = [
                (system.index().stores(), 0),
                (system.spatial_bank().stores(), crate::respcache::SPATIAL_STAMP_BASE),
            ];
            for (stores, base) in hierarchies {
                for (slot, store) in stores.iter().enumerate() {
                    let weak = Arc::downgrade(&cache);
                    store.set_publish_hook(Arc::new(move |epoch| {
                        if let Some(cache) = weak.upgrade() {
                            cache.invalidate_shard(base | slot as u16, epoch);
                        }
                    }));
                }
            }
            Some(cache)
        } else {
            None
        };
        Ok(DashboardServer {
            system,
            listener,
            stop: Arc::new(AtomicBool::new(false)),
            config,
            metrics: Arc::new(ServerMetrics::new()),
            admission,
            respcache,
            ingest: None,
            ingest_root: None,
        })
    }

    /// Attach a streaming ingest controller; enables `POST /api/ingest` and
    /// `GET /api/ingest/status`. Without one, both answer `503`.
    ///
    /// `data_root` confines the write surface: enqueued directories must
    /// resolve (symlinks included) to somewhere under it, and relative
    /// requests are interpreted against it. With no root, `POST` is
    /// refused outright — status stays readable, but a network client
    /// cannot point the crawler at arbitrary host paths.
    pub fn with_ingest(
        mut self,
        ingest: Arc<IngestController>,
        data_root: Option<std::path::PathBuf>,
    ) -> DashboardServer {
        self.ingest = Some(ingest);
        self.ingest_root = data_root;
        self
    }

    /// The bound address.
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The serving configuration in force.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The live serving-tier counters (also served at `/api/metrics`).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The admission-control state (per-client fair sharing + load
    /// shedding; also served at `/api/metrics`).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// The response cache, when enabled (also served at `/api/metrics`).
    pub fn response_cache(&self) -> Option<&ResponseCache> {
        self.respcache.as_deref()
    }

    /// A handle that shuts the server down gracefully (see [`StopHandle`]).
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle { stop: Arc::clone(&self.stop), addr: self.listener.local_addr().ok() }
    }

    /// Run the serving loop: the nonblocking event loop owns the listener
    /// and every connection while the bounded worker pool executes misses;
    /// on [`StopHandle::stop`] in-flight requests drain and every worker
    /// is joined before returning. See [`crate::evloop`].
    pub fn serve(&self) -> std::io::Result<()> {
        crate::evloop::run(self)
    }

    /// Answer `503` + `Retry-After` on the event-loop thread and close —
    /// the backpressure path must never block behind the pool it is
    /// protecting.
    pub(crate) fn reject_queue_full(&self, stream: TcpStream) {
        self.metrics.queue_full_rejection();
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        self.metrics.record_request(Endpoint::Other, 503, std::time::Duration::ZERO);
        let _ = write_response(
            &mut &stream,
            503,
            "text/plain",
            b"server busy, retry shortly",
            false,
            &[("Retry-After", RETRY_AFTER_SECS)],
        );
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// The admission-control identity of a request's client: the first
    /// `X-Forwarded-For` address when the config trusts the header (behind
    /// a proxy, or a load harness simulating many users), else the peer IP.
    pub(crate) fn client_id(&self, req: &Request, peer: Option<&str>) -> String {
        if self.config.trust_forwarded_for {
            if let Some(first) = req
                .header("x-forwarded-for")
                .and_then(|ff| ff.split(',').next())
                .map(str::trim)
                .filter(|s| !s.is_empty())
            {
                return first.to_string();
            }
        }
        peer.unwrap_or("unknown").to_string()
    }

    /// Dispatch one well-formed request to its endpoint.
    pub(crate) fn route(&self, req: &Request) -> (u16, &'static str, Cow<'static, str>) {
        let (path, query) = req.path_and_query();
        // The write path is the one non-GET surface; everything else keeps
        // the blanket 405.
        if req.method == "POST" && path == "/api/ingest" {
            return self.ingest_enqueue(req, query);
        }
        if req.method != "GET" {
            return (405, "text/plain", Cow::from("method not allowed"));
        }
        let params = parse_query_string(query);
        let system = &self.system;
        match path {
            "/" | "/index.html" => (200, "text/html; charset=utf-8", Cow::from(DASHBOARD_HTML)),
            "/api/meta" => (200, "application/json", Cow::from(meta_json(system))),
            "/api/metrics" => (200, "application/json", Cow::from(self.metrics_json())),
            "/api/ingest" => (405, "text/plain", Cow::from("use POST to enqueue a directory")),
            "/api/ingest/status" => self.ingest_status(),
            "/api/analysis" => match parse_analysis_query(system, &params) {
                Ok(q) => match system.query(&q) {
                    Ok(result) => {
                        let format = params
                            .iter()
                            .find(|(k, _)| k == "format")
                            .map(|(_, v)| v.as_str())
                            .unwrap_or("json");
                        match format {
                            "csv" => {
                                (200, "text/csv", Cow::from(crate::charts::csv(system, &result)))
                            }
                            _ => (
                                200,
                                "application/json",
                                Cow::from(result_to_json(system, &result)),
                            ),
                        }
                    }
                    Err(e) => (500, "text/plain", Cow::from(e.to_string())),
                },
                Err(e) => (400, "text/plain", Cow::from(e.to_string())),
            },
            "/api/sample" => match sample_json(system, &params) {
                Ok(body) => (200, "application/json", Cow::from(body)),
                Err(e) => (400, "text/plain", Cow::from(e.0)),
            },
            _ => (404, "text/plain", Cow::from("not found")),
        }
    }

    /// `POST /api/ingest`: enqueue a data directory for streaming
    /// ingestion. The directory comes from the `dir` query parameter or the
    /// request body (plain text), and must resolve under the configured
    /// ingest root (see [`DashboardServer::with_ingest`]) — `403` outside
    /// it or when no root is configured, `400` when it does not exist.
    /// `202` on success; `503` when the bounded queue pushes back.
    fn ingest_enqueue(&self, req: &Request, query: &str) -> (u16, &'static str, Cow<'static, str>) {
        let Some(ctl) = &self.ingest else {
            return (503, "text/plain", Cow::from("ingest is not enabled on this server"));
        };
        let params = parse_query_string(query);
        let dir = params
            .iter()
            .find(|(k, _)| k == "dir")
            .map(|(_, v)| v.clone())
            .or_else(|| {
                let body = String::from_utf8_lossy(&req.body);
                let trimmed = body.trim();
                if trimmed.is_empty() {
                    None
                } else {
                    Some(trimmed.to_string())
                }
            });
        let Some(dir) = dir else {
            return (
                400,
                "text/plain",
                Cow::from("missing data directory (`dir` query parameter or request body)"),
            );
        };
        let Some(root) = &self.ingest_root else {
            return (
                403,
                "text/plain",
                Cow::from("no ingest root configured; enqueueing over HTTP is disabled"),
            );
        };
        // Canonicalize both sides so `..` segments and symlinks cannot
        // escape the root, then require the request to stay inside it.
        let Ok(root) = root.canonicalize() else {
            return (503, "text/plain", Cow::from("ingest root is not accessible"));
        };
        let requested = std::path::PathBuf::from(dir);
        let requested = if requested.is_absolute() { requested } else { root.join(requested) };
        let Ok(resolved) = requested.canonicalize() else {
            return (400, "text/plain", Cow::from("data directory does not exist"));
        };
        if !resolved.starts_with(&root) {
            return (
                403,
                "text/plain",
                Cow::from("data directory is outside the configured ingest root"),
            );
        }
        match ctl.enqueue(resolved) {
            Ok(depth) => {
                let mut j = Json::new();
                j.begin_object();
                j.kv_string("status", "queued");
                j.kv_uint("queue_depth", depth as u64);
                j.end_object();
                (202, "application/json", Cow::from(j.finish()))
            }
            Err(_) => (503, "text/plain", Cow::from("ingest queue is full, retry shortly")),
        }
    }

    /// `GET /api/ingest/status`: the streaming writer's state machine.
    fn ingest_status(&self) -> (u16, &'static str, Cow<'static, str>) {
        let Some(ctl) = &self.ingest else {
            return (503, "text/plain", Cow::from("ingest is not enabled on this server"));
        };
        let s = ctl.status();
        let mut j = Json::new();
        j.begin_object();
        j.kv_string("phase", s.phase.as_str());
        j.kv_uint("queued", s.queued as u64);
        match &s.current {
            Some(dir) => j.kv_string("current", dir),
            None => j.key("current").null(),
        };
        j.kv_uint("days_published", s.days_published);
        j.kv_uint("months_published", s.months_published);
        j.kv_uint("jobs_done", s.jobs_done);
        j.kv_uint("retries", s.retries);
        match &s.last_error {
            Some(e) => j.kv_string("last_error", e),
            None => j.key("last_error").null(),
        };
        j.kv_uint("epoch", self.system.index().epoch());
        j.end_object();
        (200, "application/json", Cow::from(j.finish()))
    }

    /// The `/api/metrics` document: serving-tier counters plus the write
    /// path — catalog epoch, publish/invalidation counts, and the crawler
    /// skip statistics when a streaming controller is attached.
    fn metrics_json(&self) -> String {
        let mut j = Json::new();
        j.begin_object();
        self.metrics.write_sections(&mut j);
        self.admission.write_section(&mut j);
        // The cube-cache counters the load harness derives hit rates from:
        // cumulative, so per-epoch rates are deltas between polls.
        let index = self.system.index();
        j.key("cache").begin_object();
        let (hits, misses) = index.cache_counters();
        j.kv_uint("cube_slots", index.cache_slots() as u64);
        j.kv_uint("cube_hits", hits);
        j.kv_uint("cube_misses", misses);
        j.end_object();
        // Per-shard view of the cube store: one row per `TemporalIndex`
        // partition, so an operator can see skew (hot countries piling
        // onto one shard) and verify that a publish moved exactly one
        // shard's epoch.
        j.key("shards").begin_array();
        for shard in index.stores() {
            let (s_hits, s_misses) = shard.cache().counters();
            j.begin_object();
            j.kv_uint("cubes", shard.cube_count() as u64);
            j.kv_uint("epoch", shard.epoch());
            j.kv_uint("published_units", shard.published_units());
            j.kv_uint("invalidations", shard.invalidations());
            j.kv_uint("cache_hits", s_hits);
            j.kv_uint("cache_misses", s_misses);
            j.kv_uint("storage_bytes", shard.storage_bytes());
            j.end_object();
        }
        j.end_array();
        // The spatial bank: one row of counters for the viewport path —
        // per-band epochs (bumped only by publishes that land records in
        // that longitude band) and the pre-aggregated block cache.
        let bank = self.system.spatial_bank();
        j.key("spatial").begin_object();
        let (b_hits, b_misses) = bank.cache_counters();
        j.kv_uint("bands", bank.shard_count() as u64);
        j.kv_uint("blocks", bank.block_count() as u64);
        j.kv_uint("block_cache_hits", b_hits);
        j.kv_uint("block_cache_misses", b_misses);
        j.key("band_epochs").begin_array();
        for e in bank.epochs() {
            j.uint(e);
        }
        j.end_array();
        j.end_object();
        j.key("ingest").begin_object();
        j.kv_uint("epoch", index.epoch());
        j.kv_uint("published_units", index.published_units());
        j.kv_uint("invalidations", index.invalidations());
        match &self.ingest {
            Some(ctl) => {
                let s = ctl.status();
                j.kv_string("phase", s.phase.as_str());
                j.kv_uint("queued", s.queued as u64);
                j.kv_uint("days_published", s.days_published);
                j.kv_uint("months_published", s.months_published);
                j.kv_uint("retries", s.retries);
                match &s.last_error {
                    Some(e) => j.kv_string("last_error", e),
                    None => j.key("last_error").null(),
                };
                j.key("crawl").begin_object();
                for (name, cs) in [("daily", &s.daily), ("monthly", &s.monthly)] {
                    j.key(name).begin_object();
                    j.kv_uint("emitted", cs.emitted);
                    j.kv_uint("skipped_not_road", cs.skipped_not_road);
                    j.kv_uint("skipped_no_changeset", cs.skipped_no_changeset);
                    j.kv_uint("skipped_no_country", cs.skipped_no_country);
                    j.end_object();
                }
                j.end_object();
            }
            None => {
                j.key("phase").null();
            }
        }
        j.end_object();
        match &self.respcache {
            Some(cache) => cache.write_section(&mut j),
            None => {
                j.key("response_cache").begin_object();
                j.key("enabled").boolean(false);
                j.end_object();
            }
        }
        j.end_object();
        j.finish()
    }
}

fn meta_json(system: &Rased) -> String {
    let mut j = Json::new();
    j.begin_object();
    j.kv_string("system", "RASED");
    match system.index().coverage() {
        Some((lo, hi)) => {
            j.kv_string("coverage_start", &lo.to_string());
            j.kv_string("coverage_end", &hi.to_string());
        }
        None => {
            j.key("coverage_start").null();
            j.key("coverage_end").null();
        }
    }
    j.kv_uint("cubes", system.index().cube_count() as u64);
    j.kv_uint("rows", system.warehouse().row_count());
    j.kv_uint("countries", system.countries().len() as u64);
    j.kv_uint("road_types", system.roads().len() as u64);
    j.kv_uint("index_levels", system.index().levels() as u64);
    j.kv_uint("cache_slots", system.index().cache_slots() as u64);
    j.kv_uint("index_shards", system.index().shard_count() as u64);
    j.end_object();
    j.finish()
}

fn sample_json(system: &Rased, params: &[(String, String)]) -> Result<String, crate::ApiError> {
    let get = |k: &str| params.iter().find(|(pk, _)| pk == k).map(|(_, v)| v.as_str());
    let coord = |k: &str| -> Result<f64, crate::ApiError> {
        get(k)
            .ok_or_else(|| crate::ApiError(format!("missing `{k}`")))?
            .parse()
            .map_err(|_| crate::ApiError(format!("bad `{k}`")))
    };
    let bbox = BBox::from_deg(coord("min_lat")?, coord("min_lon")?, coord("max_lat")?, coord("max_lon")?);
    let limit: usize = match get("limit") {
        Some(l) => l.parse().map_err(|_| crate::ApiError("bad `limit`".into()))?,
        None => 100, // the paper's default N
    };
    // With a time window present, scope the sample to the full analysis
    // query (filters included) — §IV-B's "sample representing a query".
    let has_window = get("start").is_some() && get("end").is_some();
    let records = if has_window {
        let q = parse_analysis_query(system, params)?;
        system.sample_for_query(&q, &bbox, limit).map_err(|e| crate::ApiError(e.to_string()))?
    } else {
        system.sample_region(&bbox, limit).map_err(|e| crate::ApiError(e.to_string()))?
    };
    let mut j = Json::new();
    j.begin_object();
    j.key("samples").begin_array();
    for r in &records {
        j.begin_object();
        j.kv_string("element", r.element_type.xml_name());
        j.kv_string("update", r.update_type.label());
        j.kv_string("date", &r.date.to_string());
        j.key("lat").number(r.lat());
        j.key("lon").number(r.lon());
        j.kv_string("country", system.countries().name(r.country).unwrap_or("?"));
        j.kv_string("road", system.roads().value(r.road_type).unwrap_or("?"));
        j.kv_uint("changeset", r.changeset.raw());
        j.end_object();
    }
    j.end_array();
    j.end_object();
    Ok(j.finish())
}

/// The embedded single-page dashboard. Plain HTML + fetch; renders the
/// analysis API as a sortable table and CSS bar chart.
const DASHBOARD_HTML: &str = r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>RASED — OSM Road Network Updates</title>
<style>
  body { font-family: system-ui, sans-serif; margin: 2rem; max-width: 1000px; }
  h1 { font-size: 1.4rem; } .muted { color: #666; }
  input, select, button { margin: 0.2rem; padding: 0.3rem; }
  table { border-collapse: collapse; margin-top: 1rem; width: 100%; }
  th, td { border: 1px solid #ccc; padding: 0.3rem 0.6rem; text-align: left; }
  td.num { text-align: right; font-variant-numeric: tabular-nums; }
  .bar { background: #4a90d9; height: 0.8rem; display: inline-block; }
  #stats { margin-top: 0.6rem; font-size: 0.85rem; color: #444; }
</style>
</head>
<body>
<h1>RASED <span class="muted">— monitoring road network updates in OSM</span></h1>
<div>
  <label>start <input id="start" value="2021-01-01"></label>
  <label>end <input id="end" value="2021-03-31"></label>
  <label>group <select id="group" multiple size="3">
    <option value="country" selected>country</option>
    <option value="element">element</option>
    <option value="road">road</option>
    <option value="update">update</option>
    <option value="month">month</option>
  </select></label>
  <label>countries <input id="countries" placeholder="US,DE (blank = all)"></label>
  <label>updates <input id="updates" placeholder="create,update"></label>
  <button onclick="run()">Run query</button>
</div>
<div id="stats"></div>
<table id="out"><thead></thead><tbody></tbody></table>
<script>
async function run() {
  const g = Array.from(document.getElementById('group').selectedOptions).map(o => o.value).join(',');
  const p = new URLSearchParams({
    start: document.getElementById('start').value,
    end: document.getElementById('end').value,
  });
  if (g) p.set('group', g);
  const cs = document.getElementById('countries').value.trim();
  if (cs) p.set('countries', cs);
  const us = document.getElementById('updates').value.trim();
  if (us) p.set('updates', us);
  const res = await fetch('/api/analysis?' + p.toString());
  if (!res.ok) { document.getElementById('stats').textContent = await res.text(); return; }
  const data = await res.json();
  const rows = data.rows.sort((a, b) => b.value - a.value);
  const cols = ['date','country','element','road','update'].filter(c => rows.some(r => c in r));
  const thead = document.querySelector('#out thead');
  thead.innerHTML = '<tr>' + cols.map(c => `<th>${c}</th>`).join('') + '<th>count</th><th></th></tr>';
  const max = rows.length ? rows[0].value : 1;
  document.querySelector('#out tbody').innerHTML = rows.slice(0, 200).map(r =>
    '<tr>' + cols.map(c => `<td>${r[c] ?? ''}</td>`).join('') +
    `<td class="num">${r.count.toLocaleString()}</td>` +
    `<td><span class="bar" style="width:${(r.value / max) * 200}px"></span></td></tr>`
  ).join('');
  const s = data.stats;
  document.getElementById('stats').textContent =
    `${rows.length} groups · ${s.cubes_from_cache} cubes from cache, ${s.cubes_from_disk} from disk, ` +
    `${s.empty_days} empty days · wall ${s.wall_micros} µs · modeled I/O ${s.modeled_io_micros} µs`;
}
run();
</script>
</body>
</html>
"#;
