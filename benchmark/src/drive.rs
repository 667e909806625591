//! The closed-loop driver and the window statistics.
//!
//! Every loop is closed: a client sends its next request only after the
//! previous reply arrived (a dashboard tab waits for its tiles). With two
//! connections an open loop would build no queue, so queueing claims are
//! out of scope here.

use crate::client::{json_str, json_uint, Client};
use crate::config::*;
use crate::requests::{Kind, Stream};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub const WARM: u8 = 0;
pub const MEASURE: u8 = 1;
pub const STOP: u8 = 2;

/// Shared between the main thread and the client threads.
pub struct Control {
    pub phase: AtomicU8,
    /// Set by the main thread just before it flips the phase to `MEASURE`.
    pub window_start: OnceLock<Instant>,
    /// `ingest_live`: offset (into the vocabulary range) of the newest
    /// published day; the reader's window follows it.
    pub frontier: AtomicI64,
}

impl Control {
    pub fn new(frontier: i64) -> Control {
        Control {
            phase: AtomicU8::new(WARM),
            window_start: OnceLock::new(),
            frontier: AtomicI64::new(frontier),
        }
    }
}

/// What one client thread brings back.
#[derive(Default)]
pub struct ClientLog {
    /// `(completion ns since window start, latency ns)` of every 2xx
    /// response to a request sent inside the timed window.
    pub samples: Vec<(u64, u64)>,
    /// Requests sent inside the timed window.
    pub attempted: u64,
    /// Of those: non-2xx answers, transport errors and stale reads.
    pub failed: u64,
    /// Every `CHECK_EVERY`-th `/api/analysis` target with the body it got.
    pub checks: Vec<(String, String)>,
    /// First few failures, verbatim, for the report.
    pub notes: Vec<String>,
}

impl ClientLog {
    fn note(&mut self, text: String) {
        if self.notes.len() < 5 {
            self.notes.push(text);
        }
    }
}

/// One closed-loop client: runs until the phase says stop. `think` pauses
/// `USER_THINK_US` before every request (user sessions). `follow` makes the
/// stream's window track `ctl.frontier` (the `ingest_live` reader), in which
/// case responses are not kept for the oracle check — the data moves under
/// them.
pub fn run_client(
    addr: SocketAddr,
    mut stream: Stream,
    ctl: &Control,
    think: bool,
    follow: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = Client::connect(addr).ok();
    let mut frontier = ctl.frontier.load(Ordering::Relaxed);
    if follow {
        stream.set_frontier(frontier);
    }
    let mut pause = rased_osm_gen::rng::Rng::new(0x7417 ^ stream.client() as u64);
    let mut analyses = 0u64;
    loop {
        let phase = ctl.phase.load(Ordering::Acquire);
        if phase == STOP {
            break;
        }
        if think {
            let (lo, hi) = USER_THINK_US;
            std::thread::sleep(Duration::from_micros(lo + pause.below(hi - lo + 1)));
        }
        if follow {
            let now = ctl.frontier.load(Ordering::Relaxed);
            if now != frontier {
                frontier = now;
                stream.set_frontier(now);
            }
        }
        let req = stream.next_request();
        let t0 = Instant::now();
        let outcome = match client.as_mut() {
            Some(c) => c.get(&req.target),
            None => Err(std::io::Error::other("not connected")),
        };
        let t1 = Instant::now();
        if phase == MEASURE {
            log.attempted += 1;
        }
        match outcome {
            Ok(status) if (200..300).contains(&status) => {
                if phase != MEASURE {
                    continue;
                }
                let Some(start) = ctl.window_start.get() else {
                    continue;
                };
                log.samples.push((
                    t1.duration_since(*start).as_nanos() as u64,
                    t1.duration_since(t0).as_nanos() as u64,
                ));
                if req.kind == Kind::Analysis && !follow {
                    analyses += 1;
                    if analyses.is_multiple_of(CHECK_EVERY) {
                        if let Some(c) = client.as_ref() {
                            log.checks.push((req.target, c.body_str().to_string()));
                        }
                    }
                }
            }
            Ok(status) => {
                if phase == MEASURE {
                    log.failed += 1;
                    log.note(format!("{status} for {}", req.target));
                }
            }
            Err(e) => {
                if phase == MEASURE {
                    log.failed += 1;
                    log.note(format!("transport error for {}: {e}", req.target));
                }
                client = Client::connect(addr).ok();
                if client.is_none() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
    log
}

/// What the `ingest_live` writer thread saw.
pub struct StreamOutcome {
    pub log: ClientLog,
    pub days: u64,
    pub months: u64,
    /// Freshness probes sent, and how many of them asked for a tile the
    /// previous probe had left in the response cache.
    pub probes: u64,
    pub probes_of_cached_tile: u64,
    /// `POST` sent → drain observed.
    pub elapsed: Duration,
}

/// The `ingest_live` writer: `POST` the live dataset directory, then poll
/// `/api/ingest/status` until the job is done. Every time the status
/// reports a newer day it moves the shared frontier and reloads the daily
/// tile of that day's week (weeks counted from the first streamed day). The
/// tile carries no nonce, so on six publishes of seven the previous probe
/// left it in the response cache: a publish that fails to invalidate it
/// serves the old body, and a reply without the newest day is a stale read.
pub fn run_ingest_stream(
    addr: SocketAddr,
    dir: &str,
    first_day: rased_core::Date,
    base_days: i64,
    ctl: &Control,
    deadline: Duration,
) -> Result<StreamOutcome, String> {
    let mut log = ClientLog::default();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let started = Instant::now();
    let target = format!("/api/ingest?dir={}", rased_dashboard::form_urlencode(dir));
    log.attempted += 1;
    match client.post(&target) {
        Ok(202) => {}
        Ok(status) => {
            return Err(format!(
                "POST /api/ingest answered {status}: {}",
                client.body_str()
            ))
        }
        Err(e) => return Err(format!("POST /api/ingest: {e}")),
    }
    let (mut days, mut months) = (0u64, 0u64);
    let (mut probes, mut probes_of_cached_tile) = (0u64, 0u64);
    let mut last_tile = String::new();
    loop {
        if started.elapsed() > deadline {
            return Err(format!(
                "stream not drained after {deadline:?} ({days} days published)"
            ));
        }
        std::thread::sleep(STATUS_POLL);
        log.attempted += 1;
        let status = client
            .get("/api/ingest/status")
            .map_err(|e| format!("status poll: {e}"))?;
        let seen = Instant::now();
        if status != 200 {
            log.failed += 1;
            log.note(format!("/api/ingest/status answered {status}"));
            continue;
        }
        let body = client.body_str().to_string();
        if let Some(err) = json_str(&body, "last_error") {
            return Err(format!("ingest failed: {err}"));
        }
        months = json_uint(&body, "months_published").unwrap_or(months);
        let now_days = json_uint(&body, "days_published").unwrap_or(days);
        if now_days > days {
            days = now_days;
            ctl.frontier
                .store(base_days + days as i64 - 1, Ordering::Relaxed);
            let newest = first_day.add_days(days as i32 - 1);
            let week = first_day.add_days((days as i32 - 1) / 7 * 7);
            log.attempted += 1;
            let probe = format!(
                "/api/analysis?start={week}&end={}&group=day",
                week.add_days(6)
            );
            probes += 1;
            probes_of_cached_tile += (probe == last_tile) as u64;
            let row = format!("\"date\":\"{}\"", rased_core::Period::Day(newest));
            match client.get(&probe) {
                Ok(200) if client.body_str().contains(&row) => {}
                Ok(200) => {
                    log.failed += 1;
                    log.note(format!(
                        "stale read: {newest} published but absent from its week's tile"
                    ));
                }
                Ok(status) => {
                    log.failed += 1;
                    log.note(format!("{status} for {probe}"));
                }
                Err(e) => return Err(format!("freshness probe: {e}")),
            }
            last_tile = probe;
        }
        if json_uint(&body, "jobs_done").unwrap_or(0) >= 1 {
            return Ok(StreamOutcome {
                log,
                days,
                months,
                probes,
                probes_of_cached_tile,
                elapsed: seen.duration_since(started),
            });
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Throughput and latency of one timed window: each is the median over the
/// window's equal sub-windows of that sub-window's own value.
pub struct WindowStats {
    pub req_per_s: f64,
    /// The median, whatever `p50_us` reports (`dashboard.transport_us` is
    /// measured from it).
    pub p50_us: f64,
    /// The percentile `p50_us` reports (p50, or p80 on `ingest_live`).
    pub mid_us: f64,
    /// The percentile `p99_us` reports (p99, or p95 on `ingest_live`).
    pub tail_us: f64,
    pub samples: usize,
    pub min_sub_window_samples: usize,
}

pub fn window_stats(
    samples: &[(u64, u64)],
    window: Duration,
    sub_windows: usize,
    (mid, tail): (f64, f64),
) -> WindowStats {
    let sub_ns = (window.as_nanos() as u64 / sub_windows as u64).max(1);
    let mut subs: Vec<Vec<u64>> = vec![Vec::new(); sub_windows];
    for &(done, lat) in samples {
        if let Some(sub) = subs.get_mut((done / sub_ns) as usize) {
            sub.push(lat);
        }
    }
    for sub in &mut subs {
        sub.sort_unstable();
    }
    let sub_s = sub_ns as f64 / 1e9;
    let over =
        |f: &dyn Fn(&Vec<u64>) -> f64| median_f64(&mut subs.iter().map(f).collect::<Vec<_>>());
    WindowStats {
        req_per_s: over(&|s| s.len() as f64 / sub_s),
        p50_us: over(&|s| percentile(s, 50.0) as f64 / 1e3),
        mid_us: over(&|s| percentile(s, mid) as f64 / 1e3),
        tail_us: over(&|s| percentile(s, tail) as f64 / 1e3),
        samples: subs.iter().map(Vec::len).sum(),
        min_sub_window_samples: subs.iter().map(Vec::len).min().unwrap_or(0),
    }
}
