//! The nonblocking serving front: accept/read/write event loop.
//!
//! A single thread owns the listener and every connection in nonblocking
//! mode, so a slow reader or a slowloris writer costs a few kilobytes of
//! buffered state, never a thread: the worker pool bounds *work*, not
//! *connections*. A connection is just a few buffers and a state tag:
//!
//! ```text
//!            bytes in                complete request
//!  Reading ───────────► (parse) ──┬─────────────────► Executing (worker)
//!     ▲                           │ cache hit / shed / parse error
//!     │ response flushed,         ▼
//!     └────────────────────── Writing ──► closed (Connection: close,
//!        keep-alive                        timeout, error, or EOF)
//! ```
//!
//! * **Reading** — request bytes accumulate in `inbuf`, and whenever new
//!   ones arrive the buffer goes straight through [`read_request`]: a
//!   request is dispatched, a typed error (a provable limit violation
//!   included) is answered, and [`HttpError::Incomplete`] means wait for
//!   more bytes — unless the client has half-closed, when it is final.
//!   The loop knows nothing about HTTP framing itself.
//! * **Executing** — the parsed request rides a bounded bridge to the
//!   worker pool, which does only real work: routing, cube queries, cold
//!   renders (coalesced and cached through
//!   [`crate::respcache::ResponseCache`] for the expensive GETs). Cache
//!   *hits* never get here — the loop answers them inline as a memcpy of
//!   pre-serialized bytes. Admission sheds are answered inline too.
//! * **Writing** — response bytes drain as the socket accepts them; a
//!   client that stops reading parks here until `write_timeout` reaps it.
//!
//! Backpressure: at most `workers + queue_depth` connections are open at
//! once (each holds at most one in-flight job, so the job queue is
//! bounded by the same number); beyond that, new connections get an
//! immediate `503` + `Retry-After`. Idle or stalled readers are answered
//! `408` (silently closed when no request bytes arrived) after
//! `read_timeout`.
//!
//! Shutdown: [`crate::StopHandle::stop`] sets the flag and nudges the
//! listener; the loop stops accepting, lets every open connection finish
//! the request it is on (`Connection: close` is forced), reaps the rest
//! by timeout, closes the job bridge, and returns once no connection
//! remains — the worker scope joins every thread before `serve` returns.
//!
//! The loop polls with a short sleep only when an iteration made no
//! progress; under load it spins productively without sleeping.

use crate::admission::Permit;
use crate::http::{read_request, write_response, HttpError, Limits, Request};
use crate::metrics::Endpoint;
use crate::respcache::{CachedResponse, RespKey, SPATIAL_STAMP_BASE};
use crate::server::{DashboardServer, RETRY_AFTER_SECS};
use rased_core::TemporalIndex;
use rased_storage::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Sleep per idle iteration. Short enough that timeout precision and
/// shutdown latency stay well under test tolerances; long enough that an
/// idle server burns ~no CPU.
const POLL_SLEEP: Duration = Duration::from_micros(500);

/// Per-iteration read chunk.
const SCRATCH_BYTES: usize = 16 * 1024;

/// What a connection is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// A worker is rendering the response.
    Executing,
    /// Draining response bytes to the socket.
    Writing,
}

/// One open connection: a socket, two buffers, and a state tag.
struct Conn {
    stream: TcpStream,
    /// Peer IP (admission-control identity fallback).
    peer: Option<String>,
    /// Unparsed request bytes (pipelined requests queue here).
    inbuf: Vec<u8>,
    /// `inbuf.len()` when the parser last found it incomplete: no point
    /// parsing again until more bytes (or EOF) arrive.
    parsed_len: usize,
    /// Response bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    outpos: usize,
    state: ConnState,
    /// Requests dispatched on this connection (keep-alive budget).
    served: usize,
    /// Last byte of socket progress in either direction.
    last_activity: Instant,
    close_after_write: bool,
    /// The client half-closed its sending side.
    eof: bool,
    /// Marked for reaping at the end of the iteration.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let peer = stream.peer_addr().ok().map(|a| a.ip().to_string());
        Conn {
            stream,
            peer,
            inbuf: Vec::new(),
            parsed_len: 0,
            outbuf: Vec::new(),
            outpos: 0,
            state: ConnState::Reading,
            served: 0,
            last_activity: Instant::now(),
            close_after_write: false,
            eof: false,
            dead: false,
        }
    }
}

/// A parsed request in flight to the worker pool.
struct Job<'a> {
    conn_id: usize,
    req: Request,
    keep: bool,
    endpoint: Endpoint,
    start: Instant,
    /// Admission slot, held for the duration of the render only.
    permit: Option<Permit<'a>>,
    /// Present for cacheable requests: render through the response cache.
    cache_key: Option<RespKey>,
}

/// A rendered response on its way back to the event loop.
struct Completion {
    conn_id: usize,
    endpoint: Endpoint,
    start: Instant,
    keep: bool,
    resp: CachedResponse,
}

/// The two-way queue between the event loop and the worker pool. Bounded
/// implicitly: every open connection holds at most one in-flight job, and
/// open connections are capped.
struct Bridge<'a> {
    jobs: Mutex<JobQueue<'a>>,
    jobs_ready: Condvar,
    done: Mutex<Vec<Completion>>,
}

struct JobQueue<'a> {
    queue: VecDeque<Job<'a>>,
    closed: bool,
}

impl<'a> Bridge<'a> {
    fn new() -> Bridge<'a> {
        Bridge {
            jobs: Mutex::new_named(
                JobQueue { queue: VecDeque::new(), closed: false },
                "dashboard.evloop_jobs",
            ),
            jobs_ready: Condvar::new(),
            done: Mutex::new_named(Vec::new(), "dashboard.evloop_done"),
        }
    }

    fn submit(&self, job: Job<'a>) {
        let mut jobs = self.jobs.lock();
        jobs.queue.push_back(job);
        drop(jobs);
        self.jobs_ready.notify_one();
    }

    /// Blocks until a job arrives; `None` once closed and drained.
    fn next_job(&self) -> Option<Job<'a>> {
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(job) = jobs.queue.pop_front() {
                return Some(job);
            }
            if jobs.closed {
                return None;
            }
            jobs = self.jobs_ready.wait(jobs);
        }
    }

    fn close(&self) {
        self.jobs.lock().closed = true;
        self.jobs_ready.notify_all();
    }

    fn finish(&self, completion: Completion) {
        self.done.lock().push(completion);
    }

    fn drain_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.done.lock())
    }
}

/// Run the serving tier: worker pool + event loop, joined before return.
pub(crate) fn run(server: &DashboardServer) -> std::io::Result<()> {
    server.listener.set_nonblocking(true)?;
    let workers = server.config.effective_workers();
    let bridge = Bridge::new();
    let result = std::thread::scope(|scope| {
        for _ in 0..workers {
            let bridge = &bridge;
            scope.spawn(move || worker_loop(server, bridge));
        }
        let result = event_loop(server, &bridge);
        // Retire the pool; the scope joins every worker before returning.
        bridge.close();
        result
    });
    let _ = server.listener.set_nonblocking(false);
    result
}

/// A worker: execute jobs (through the response cache when keyed) until
/// the bridge closes. Only render time counts as "busy".
fn worker_loop<'a>(server: &'a DashboardServer, bridge: &Bridge<'a>) {
    while let Some(job) = bridge.next_job() {
        server.metrics.worker_busy();
        let resp = execute(server, &job);
        let Job { conn_id, endpoint, start, keep, permit, .. } = job;
        // The permit covers the render only; release before hand-off so a
        // slow-draining client cannot sit on admission capacity.
        drop(permit);
        server.metrics.worker_idle();
        bridge.finish(Completion { conn_id, endpoint, start, keep, resp });
    }
}

fn execute(server: &DashboardServer, job: &Job<'_>) -> CachedResponse {
    let render = || {
        let (status, content_type, body) = server.route(&job.req);
        (status, content_type, body.into_owned().into_bytes())
    };
    match (&job.cache_key, &server.respcache) {
        (Some(key), Some(cache)) => cache.render_through(key, render),
        _ => {
            let (status, content_type, body) = render();
            CachedResponse::new(status, content_type, body)
        }
    }
}

fn event_loop<'a>(server: &'a DashboardServer, bridge: &Bridge<'a>) -> std::io::Result<()> {
    let limits = Limits::from_config(&server.config);
    let cap = server.config.effective_workers() + server.config.queue_depth.max(1);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0usize;
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    loop {
        let stopped = server.stop.load(Ordering::SeqCst);
        let mut progress = false;

        // 1. Accept everything pending. When stopped, accepted sockets
        //    (the shutdown nudge, or clients racing it) are dropped
        //    uncounted.
        loop {
            match server.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if stopped {
                        continue;
                    }
                    server.metrics.connection_accepted();
                    if live >= cap {
                        server.reject_queue_full(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        // Keep the accepted/completed books balanced.
                        server.metrics.connection_opened();
                        server.metrics.connection_closed();
                        continue;
                    }
                    server.metrics.connection_opened();
                    let conn = Conn::new(stream);
                    match free.pop() {
                        Some(id) => {
                            if let Some(slot) = conns.get_mut(id) {
                                *slot = Some(conn);
                            }
                        }
                        None => conns.push(Some(conn)),
                    }
                    live += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    if stopped {
                        break;
                    }
                    return Err(e);
                }
            }
        }

        // 2. Deliver finished renders: record, then queue wire bytes —
        //    record-before-write is preserved because the socket write
        //    strictly follows.
        for done in bridge.drain_completions() {
            progress = true;
            let Some(conn) = conns.get_mut(done.conn_id).and_then(|slot| slot.as_mut()) else {
                continue;
            };
            server.metrics.record_request(done.endpoint, done.resp.status(), done.start.elapsed());
            done.resp.write_into(&mut conn.outbuf, done.keep);
            conn.close_after_write = !done.keep;
            conn.state = ConnState::Writing;
            conn.last_activity = Instant::now();
        }

        // 3. Service every connection, then reap the dead.
        for id in 0..conns.len() {
            let Some(conn) = conns.get_mut(id).and_then(|slot| slot.as_mut()) else {
                continue;
            };
            progress |= service(server, bridge, id, conn, &limits, &mut scratch);
            if conn.dead {
                let _ = conn.stream.shutdown(Shutdown::Both);
                server.metrics.connection_closed();
                if let Some(slot) = conns.get_mut(id) {
                    *slot = None;
                }
                free.push(id);
                live -= 1;
                progress = true;
            }
        }

        if stopped && live == 0 {
            return Ok(());
        }
        if !progress {
            // lint: allow(nonblocking, "bounded poll backoff: POLL_SLEEP is 500us, taken only when no socket or completion made progress")
            std::thread::sleep(POLL_SLEEP);
        }
    }
}

/// Drive one connection as far as it will go without blocking. Returns
/// whether anything happened.
fn service<'a>(
    server: &'a DashboardServer,
    bridge: &Bridge<'a>,
    id: usize,
    conn: &mut Conn,
    limits: &Limits,
    scratch: &mut [u8],
) -> bool {
    let mut progress = check_deadline(server, conn);
    loop {
        if conn.dead {
            return true;
        }
        let before = progress_marks(conn);
        match conn.state {
            ConnState::Reading => read_step(server, bridge, id, conn, limits, scratch),
            ConnState::Executing => {} // a worker owns it; nothing to drive
            ConnState::Writing => write_step(conn),
        }
        if progress_marks(conn) == before {
            return progress;
        }
        progress = true;
    }
}

/// Everything a step can move; unchanged marks mean the connection is
/// waiting on the socket or a worker.
fn progress_marks(conn: &Conn) -> (ConnState, usize, usize, usize, usize, bool, bool) {
    (
        conn.state,
        conn.inbuf.len(),
        conn.parsed_len,
        conn.outbuf.len(),
        conn.outpos,
        conn.eof,
        conn.dead,
    )
}

/// Apply read/write deadlines: a stalled request is answered `408`, an
/// idle keep-alive connection or a stalled reader is closed silently.
fn check_deadline(server: &DashboardServer, conn: &mut Conn) -> bool {
    match conn.state {
        ConnState::Reading if conn.last_activity.elapsed() > server.config.read_timeout => {
            server.metrics.timeout();
            if conn.inbuf.is_empty() {
                // Idle keep-alive expiry: close silently.
                conn.dead = true;
            } else {
                // Mid-request stall: answer 408 and close.
                server.metrics.record_request(Endpoint::Other, 408, Duration::ZERO);
                let _ = write_response(
                    &mut conn.outbuf,
                    408,
                    "text/plain",
                    b"request timed out",
                    false,
                    &[],
                );
                conn.inbuf.clear();
                conn.close_after_write = true;
                conn.state = ConnState::Writing;
            }
            true
        }
        ConnState::Writing if conn.last_activity.elapsed() > server.config.write_timeout => {
            // A client that stopped draining its response: drop it.
            conn.dead = true;
            true
        }
        _ => false,
    }
}

fn read_step<'a>(
    server: &'a DashboardServer,
    bridge: &Bridge<'a>,
    id: usize,
    conn: &mut Conn,
    limits: &Limits,
    scratch: &mut [u8],
) {
    // Parse before reading more: pipelined requests already buffered must
    // make progress even when the socket is quiet.
    if conn.inbuf.len() > conn.parsed_len || conn.eof {
        parse_and_dispatch(server, bridge, id, conn, limits);
        return;
    }
    match conn.stream.read(scratch) {
        Ok(0) => conn.eof = true,
        Ok(n) => {
            conn.inbuf.extend_from_slice(scratch.get(..n).unwrap_or(&[]));
            conn.last_activity = Instant::now();
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
            ) => {}
        Err(_) => conn.dead = true,
    }
}

/// Run the buffered bytes through the parser: dispatch a complete request,
/// answer a typed error, or — while the client may still send more — leave
/// an incomplete one buffered.
fn parse_and_dispatch<'a>(
    server: &'a DashboardServer,
    bridge: &Bridge<'a>,
    id: usize,
    conn: &mut Conn,
    limits: &Limits,
) {
    let mut rest = conn.inbuf.as_slice();
    match read_request(&mut rest, limits) {
        // Nothing but (at most) a stray CRLF so far.
        Ok(None) | Err(HttpError::Incomplete(_)) if !conn.eof => {
            conn.parsed_len = conn.inbuf.len();
        }
        Ok(None) => conn.dead = true,
        Ok(Some(req)) => {
            let consumed = conn.inbuf.len() - rest.len();
            conn.inbuf.drain(..consumed);
            conn.parsed_len = 0;
            dispatch(server, bridge, id, conn, req);
        }
        Err(e) => {
            // Framing is unknown after a parse error: answer (when
            // possible) and close.
            match e.status() {
                Some(status) => {
                    server.metrics.record_request(Endpoint::Other, status, Duration::ZERO);
                    let _ = write_response(
                        &mut conn.outbuf,
                        status,
                        "text/plain",
                        e.message().as_bytes(),
                        false,
                        &[],
                    );
                    conn.inbuf.clear();
                    conn.close_after_write = true;
                    conn.state = ConnState::Writing;
                }
                None => conn.dead = true,
            }
        }
    }
}

/// Route one parsed request: cache hit and admission shed are answered
/// inline; everything else becomes a worker job.
fn dispatch<'a>(
    server: &'a DashboardServer,
    bridge: &Bridge<'a>,
    id: usize,
    conn: &mut Conn,
    req: Request,
) {
    let start = Instant::now();
    let (path, query) = req.path_and_query();
    let endpoint = Endpoint::classify(path);
    conn.served += 1;
    // Drain in-flight work on shutdown, but take no new requests on this
    // connection afterwards.
    let keep = req.keep_alive()
        && conn.served < server.config.max_keep_alive_requests
        && !server.stop.load(Ordering::SeqCst);

    // The response cache covers the expensive GETs only: their bodies are
    // pure functions of (path, params, stamp). The cheap endpoints either
    // embed volatile state (`/api/metrics`, `/api/meta`'s live row count)
    // or are too cheap to be worth a cache line.
    let cache_key = match &server.respcache {
        Some(_) if req.method == "GET" && endpoint.is_expensive() => {
            Some(RespKey::with_stamp(path, query, cache_stamp(server, path, query)))
        }
        _ => None,
    };
    if let (Some(key), Some(cache)) = (&cache_key, &server.respcache) {
        if let Some(resp) = cache.lookup(key) {
            // Hit: a memcpy on the event loop; no worker, no admission.
            server.metrics.record_request(endpoint, resp.status(), start.elapsed());
            resp.write_into(&mut conn.outbuf, keep);
            conn.close_after_write = !keep;
            conn.state = ConnState::Writing;
            return;
        }
    }

    // Admission meters the miss path: a shed answers a cheap 503 and
    // keeps the connection alive — rejection is per *request*.
    let permit = if endpoint.is_expensive() {
        let client = server.client_id(&req, conn.peer.as_deref());
        match server.admission.try_admit(&client) {
            Ok(p) => Some(p),
            Err(shed) => {
                server.metrics.record_request(endpoint, 503, start.elapsed());
                let _ = write_response(
                    &mut conn.outbuf,
                    503,
                    "text/plain",
                    shed.reason().as_bytes(),
                    keep,
                    &[("Retry-After", RETRY_AFTER_SECS)],
                );
                conn.close_after_write = !keep;
                conn.state = ConnState::Writing;
                return;
            }
        }
    } else {
        None
    };
    conn.state = ConnState::Executing;
    bridge.submit(Job { conn_id: id, req, keep, endpoint, start, permit, cache_key });
}

/// The one stamp mechanism: the partitions a render reads, as sorted
/// `(base | slot, epoch)` pairs at each partition's current publish epoch.
/// `base` is the hierarchy's id namespace — `0` for the index's country
/// shards, [`SPATIAL_STAMP_BASE`] for the bank's longitude bands — and the
/// publish hooks ([`DashboardServer::bind_with`]) sweep by the same ids.
fn stamp(
    stores: &[TemporalIndex],
    base: u16,
    slots: impl Iterator<Item = usize>,
) -> Vec<(u16, u64)> {
    let mut slots: Vec<usize> = slots.collect();
    slots.sort_unstable();
    slots.dedup();
    slots
        .into_iter()
        .filter_map(|slot| stores.get(slot).map(|store| (base | slot as u16, store.epoch())))
        .collect()
}

/// The composite stamp for a request. Routing only chooses *which*
/// partitions [`stamp`] covers, and narrows only by a filter the render
/// honours — a tile stamped narrower than what its render read would
/// survive a publish that changes it:
///
/// * `/api/analysis` with `bbox=`/`viewport=` reads the *spatial*
///   hierarchy and never the country cubes: it stamps the bands owning the
///   viewport's cover cells — interior *and* boundary, since boundary
///   cells are answered by warehouse scans whose rows change exactly when
///   a publish lands records in those cells. A cube-only publish keeps
///   every viewport tile; a bank publish in one region keeps every other
///   region's. An unparseable box stamps every band: the render answers
///   400, which the cache refuses to store, so the stamp only has to be a
///   *safe* lookup key.
/// * A `countries=` filter of resolvable names stamps only the owning
///   index shards — the scatter-gather planner's predicate pushdown — on
///   `/api/analysis`, and on `/api/sample` when a `start`+`end` window
///   scopes the sample to the query. A windowless sample ignores
///   `countries`, so it stamps like an unfiltered request.
/// * Anything else stamps the full index epoch vector.
fn cache_stamp(server: &DashboardServer, path: &str, query: &str) -> Vec<(u16, u64)> {
    let params = crate::parse_query_string(query);
    let find = |k: &str| params.iter().find(|(pk, _)| pk == k).map(|(_, v)| v.as_str());
    let analysis = path == "/api/analysis";
    if let Some(raw) = find("bbox").or_else(|| find("viewport")).filter(|_| analysis) {
        let bank = server.system.spatial_bank();
        let stores = bank.stores();
        return match crate::api::parse_bbox(raw) {
            Ok(bbox) => {
                let cover = bank.grid().cover(&bbox);
                let cells = cover.interior.iter().chain(cover.boundary.iter());
                stamp(stores, SPATIAL_STAMP_BASE, cells.map(|&cell| bank.shard_of(cell)))
            }
            Err(_) => stamp(stores, SPATIAL_STAMP_BASE, 0..stores.len()),
        };
    }
    let stores = server.system.index().stores();
    let honoured = analysis || (find("start").is_some() && find("end").is_some());
    let countries = find("countries").filter(|_| honoured);
    match countries.and_then(|list| routed_shards(server, list, stores.len())) {
        Some(owned) => stamp(stores, 0, owned.into_iter()),
        None => stamp(stores, 0, 0..stores.len()),
    }
}

/// The index shards owning every country of a `countries=` list — `None`
/// when it names a country the registry can't resolve (the render will
/// fail; the full stamp is the safe key).
fn routed_shards(server: &DashboardServer, list: &str, n: usize) -> Option<Vec<usize>> {
    let registry = server.system.countries();
    list.split(',').map(|name| Some(rased_core::shard_for(registry.resolve(name)?, n))).collect()
}

fn write_step(conn: &mut Conn) {
    if conn.outpos >= conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
        if conn.close_after_write {
            conn.dead = true;
        } else {
            conn.state = ConnState::Reading;
            // Idle clock restarts now: the next request's read window
            // begins when the previous response finished.
            conn.last_activity = Instant::now();
        }
        return;
    }
    let chunk = conn.outbuf.get(conn.outpos..).unwrap_or(&[]);
    match conn.stream.write(chunk) {
        Ok(0) => conn.dead = true,
        Ok(n) => {
            conn.outpos += n;
            conn.last_activity = Instant::now();
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
            ) => {}
        Err(_) => conn.dead = true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;
    use rased_core::{Rased, RasedConfig, ServerConfig};
    use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType};
    use std::sync::Arc;

    /// A bound server over a fresh system; the returned [`TempDir`] must
    /// outlive it.
    fn test_server(tag: &str, shards: usize) -> (TempDir, DashboardServer) {
        let dir = TempDir::new(&format!("evloop-{tag}"));
        let mut config = RasedConfig::new(dir.path());
        config.shard = rased_core::ShardConfig { shards };
        let system = Arc::new(Rased::create(config).expect("create"));
        let server = DashboardServer::bind_with(system, "127.0.0.1:0", ServerConfig::default())
            .expect("bind");
        (dir, server)
    }

    fn rec(lon_deg: f64) -> UpdateRecord {
        UpdateRecord {
            element_type: ElementType::Way,
            update_type: UpdateType::Create,
            country: CountryId(1),
            road_type: RoadTypeId(0),
            date: "2021-03-02".parse().unwrap(),
            lat7: 0,
            lon7: (lon_deg * 1e7) as i32,
            changeset: ChangesetId(1),
        }
    }

    /// The regression the routing module exists to prevent: the ingest
    /// splitter (where `ShardedIndex` physically places a country's
    /// cubes) and the dashboard's cache stamper (which shard a
    /// country-filtered tile is keyed to) must agree for *every* country
    /// — a disagreement means a publish bumps one shard's epoch while the
    /// stale tile sits keyed to another, and the dashboard serves
    /// pre-publish numbers forever.
    #[test]
    fn country_tiles_are_stamped_where_the_index_placed_them() {
        let dir = TempDir::new("evloop-routing");
        let mut config = RasedConfig::new(dir.path());
        config.shard = rased_core::ShardConfig { shards: 3 };
        let system = Arc::new(Rased::create(config).expect("create"));
        let server =
            DashboardServer::bind_with(Arc::clone(&system), "127.0.0.1:0", ServerConfig::default())
                .expect("bind");
        let index = system.index();
        let schema = index.schema();
        let mut day: rased_core::Date = "2021-01-01".parse().unwrap();
        for c in 0..schema.n_countries().min(system.countries().len()) {
            // Publish a day whose cube touches only country `c`; the
            // splitter commits it to exactly one store.
            let mut cube = rased_core::DataCube::zeroed(schema);
            cube.set(0, c, 0, 0, 7);
            index.ingest_day(day, &cube).expect("ingest");
            // `has(Day)` is true on the owning shard and on the day's
            // marker shard (which always commits a bookkeeping cube);
            // the *data* holder is whatever remains.
            let marker = rased_core::marker_shard(day, 3);
            let holders: Vec<usize> = index
                .stores()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.has(rased_core::Period::Day(day)))
                .map(|(i, _)| i)
                .collect();
            let name = system.countries().name(rased_osm_model::CountryId(c as u16)).unwrap();
            let stamp = cache_stamp(
                &server,
                "/api/analysis",
                &format!("start=2021-01-01&end=2021-12-31&countries={name}"),
            );
            assert_eq!(stamp.len(), 1, "{name}: filtered tile must stamp one shard");
            let stamped = stamp.first().map(|&(s, _)| s as usize).unwrap_or(usize::MAX);
            assert!(
                holders.contains(&stamped),
                "{name}: cache stamp ({stamped}) must point at a shard holding the data \
                 (holders {holders:?})"
            );
            assert!(
                holders.iter().all(|&h| h == stamped || h == marker),
                "{name}: solo cube leaked beyond its owner and the marker \
                 (holders {holders:?}, marker {marker})"
            );
            day = day.succ();
        }
        // And the spatial hierarchy: the core config's band assignment
        // (what `rased serve` persists) and the bank's own routing (what
        // publishes and viewport fetches use) agree for every grid cell.
        let bank = system.spatial_bank();
        let grid = bank.grid();
        for row in 0..grid.rows() as u16 {
            for col in 0..grid.cols() as u16 {
                let cell = rased_geo::CellId { row, col };
                assert_eq!(
                    system.config().spatial.assign(cell),
                    bank.shard_of(cell),
                    "cell ({row},{col})"
                );
            }
        }
    }

    /// A stamp may only narrow by a filter the render honours. A
    /// windowless `/api/sample` renders through `Rased::sample_region`,
    /// which ignores `countries=`: stamped with the owning shard alone, its
    /// tile would survive a publish landing another country's rows in the
    /// box whenever that day's marker is a different shard.
    #[test]
    fn sample_tiles_narrow_only_by_filters_the_render_honours() {
        let (_dir, server) = test_server("sample", 3);
        let name = server.system.countries().name(CountryId(1)).unwrap();
        let boxed = "min_lat=-10&min_lon=-10&max_lat=10&max_lon=10";
        let windowless = cache_stamp(&server, "/api/sample", &format!("{boxed}&countries={name}"));
        assert_eq!(windowless.len(), 3, "unhonoured filter must not narrow: {windowless:?}");
        // With a window the sample is scoped to the query, filter included.
        let windowed = cache_stamp(
            &server,
            "/api/sample",
            &format!("{boxed}&countries={name}&start=2021-01-01&end=2021-12-31"),
        );
        assert_eq!(windowed, cache_stamp(&server, "/api/analysis", &format!("countries={name}")));
        assert_eq!(windowed.len(), 1);
        // Nor does a sample read the spatial hierarchy, whatever it carries.
        let stray = cache_stamp(&server, "/api/sample", &format!("{boxed}&bbox=-10,100,10,170"));
        assert!(stray.iter().all(|&(s, _)| s < SPATIAL_STAMP_BASE), "{stray:?}");
    }

    #[test]
    fn viewport_stamps_cover_only_their_bands() {
        let (_dir, server) = test_server("stamp", 1);
        // Default spatial config: 4 longitude bands over the world grid.
        // A west-quadrant box and an east-quadrant box land on different
        // bands; both stamps live entirely in the spatial namespace.
        let stamp = |q: &str| cache_stamp(&server, "/api/analysis", q);
        let west = stamp("start=2021-01-01&end=2021-03-31&bbox=-10,-170,10,-100");
        let east = stamp("start=2021-01-01&end=2021-03-31&viewport=-10,100,10,170");
        for stamp in [&west, &east] {
            assert!(!stamp.is_empty());
            assert!(stamp.iter().all(|&(s, _)| s >= SPATIAL_STAMP_BASE), "{stamp:?}");
        }
        assert!(
            west.iter().all(|w| east.iter().all(|e| e.0 != w.0)),
            "disjoint quadrants must stamp disjoint bands: {west:?} vs {east:?}"
        );
        // No bbox → the temporal stamp, untouched by the spatial namespace.
        let plain = stamp("start=2021-01-01&end=2021-03-31");
        assert!(!plain.is_empty());
        assert!(plain.iter().all(|&(s, _)| s < SPATIAL_STAMP_BASE), "{plain:?}");
        // An unparseable box falls back to every band — safe, never stale.
        let bad = stamp("bbox=not-a-box");
        assert_eq!(bad.len(), server.system.spatial_bank().shard_count());
    }

    #[test]
    fn spatial_publish_evicts_only_the_touched_regions_tiles() {
        let (_dir, server) = test_server("confine", 1);
        let cache = server.response_cache().expect("cache on by default");
        let key = |q: &str| {
            RespKey::with_stamp("/api/analysis", q, cache_stamp(&server, "/api/analysis", q))
        };
        let west_q = "start=2021-01-01&end=2021-03-31&bbox=-10,-170,10,-100";
        let east_q = "start=2021-01-01&end=2021-03-31&bbox=-10,100,10,170";
        let plain_q = "start=2021-01-01&end=2021-03-31";
        let tile = CachedResponse::new(200, "application/json", b"{}".to_vec());
        for q in [west_q, east_q, plain_q] {
            cache.insert(&key(q), &tile);
            assert!(cache.lookup(&key(q)).is_some(), "{q}");
        }
        // Publish a day whose records all sit in the west quadrant. The
        // bank's publish hook must sweep the west tile and nothing else.
        let records = vec![rec(-160.0), rec(-120.0)];
        server
            .system
            .spatial_bank()
            .publish_day("2021-03-02".parse().unwrap(), &records)
            .expect("publish");
        assert!(cache.lookup(&key(west_q)).is_none(), "west tile must be re-keyed and swept");
        assert!(cache.lookup(&key(east_q)).is_some(), "east tile must survive a west publish");
        assert!(cache.lookup(&key(plain_q)).is_some(), "temporal tile never reads the bank");
        // The fresh west stamp carries the bumped band epoch, so the next
        // render lands on a new key rather than resurrecting the old one.
        let swept = cache.lookup(&key(west_q));
        assert!(swept.is_none());
    }
}
