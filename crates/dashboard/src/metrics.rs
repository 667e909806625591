//! [`ServerMetrics`] — lock-free serving-tier telemetry.
//!
//! A long-running public dashboard is operated by its numbers: connection
//! throughput, status mix, rejection/timeout counts, and latency shape.
//! Everything here is a relaxed atomic — recording a request is a handful
//! of `fetch_add`s, cheap enough to run on every request — and the whole
//! struct serializes to the JSON served at `GET /api/metrics`.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Upper bucket bounds (µs) of the request-latency histogram; an implicit
/// overflow bucket catches everything slower.
pub const LATENCY_BUCKETS_MICROS: [u64; 10] =
    [100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000];

/// The endpoints tracked individually; everything else lands in `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Root,
    Meta,
    Analysis,
    Sample,
    Metrics,
    Ingest,
    IngestStatus,
    Other,
}

impl Endpoint {
    /// All tracked endpoints, in serialization order.
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Root,
        Endpoint::Meta,
        Endpoint::Analysis,
        Endpoint::Sample,
        Endpoint::Metrics,
        Endpoint::Ingest,
        Endpoint::IngestStatus,
        Endpoint::Other,
    ];

    /// Classify a request path.
    pub fn classify(path: &str) -> Endpoint {
        match path {
            "/" | "/index.html" => Endpoint::Root,
            "/api/meta" => Endpoint::Meta,
            "/api/analysis" => Endpoint::Analysis,
            "/api/sample" => Endpoint::Sample,
            "/api/metrics" => Endpoint::Metrics,
            "/api/ingest" => Endpoint::Ingest,
            "/api/ingest/status" => Endpoint::IngestStatus,
            _ => Endpoint::Other,
        }
    }

    /// Whether this endpoint runs a query over the cube index — the class
    /// admission control meters. Everything else is "cheap": constant-ish
    /// work that must stay served even when the query tier saturates.
    pub fn is_expensive(self) -> bool {
        matches!(self, Endpoint::Analysis | Endpoint::Sample)
    }

    /// The label used in the metrics JSON.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Root => "/",
            Endpoint::Meta => "/api/meta",
            Endpoint::Analysis => "/api/analysis",
            Endpoint::Sample => "/api/sample",
            Endpoint::Metrics => "/api/metrics",
            Endpoint::Ingest => "/api/ingest",
            Endpoint::IngestStatus => "/api/ingest/status",
            Endpoint::Other => "other",
        }
    }
}

/// Serving-tier counters. All methods are `&self` and thread-safe.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted off the listener.
    accepted: AtomicU64,
    /// Connections currently inside a worker (gauge).
    active: AtomicU64,
    /// High-watermark of `active` — proves the pool bound held.
    max_active: AtomicU64,
    /// Connections fully handled and closed.
    completed: AtomicU64,
    /// Worker threads currently executing a job (gauge). Under the event
    /// loop this — not `active` — is what proves "a parked connection does
    /// not pin a worker": `active` counts open connections, `busy_workers`
    /// counts threads actually burning CPU on a render.
    busy_workers: AtomicU64,
    /// High-watermark of `busy_workers` — proves the pool bound held.
    max_busy_workers: AtomicU64,
    /// Connections rejected with 503 because the queue was full.
    queue_full_rejections: AtomicU64,
    /// Read/write timeouts (slowloris reaps, stalled clients, idle expiry).
    timeouts: AtomicU64,
    /// Requests answered, by status class (index 0 = 1xx … 4 = 5xx).
    status_classes: [AtomicU64; 5],
    /// Requests answered, by endpoint (indexed like [`Endpoint::ALL`]).
    endpoints: [AtomicU64; 8],
    /// Latency histogram counts; last slot is the overflow bucket.
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_MICROS.len() + 1],
    /// Sum of request latencies in µs (mean = total / requests).
    latency_total_micros: AtomicU64,
}

impl ServerMetrics {
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// A connection was accepted off the listener (it may still be queued).
    pub fn connection_accepted(&self) {
        self.accepted.fetch_add(1, Relaxed);
    }

    /// The serving tier started handling a connection.
    pub fn connection_opened(&self) {
        let now = self.active.fetch_add(1, Relaxed) + 1;
        self.max_active.fetch_max(now, Relaxed);
    }

    /// The serving tier finished with a connection.
    pub fn connection_closed(&self) {
        self.active.fetch_sub(1, Relaxed);
        self.completed.fetch_add(1, Relaxed);
    }

    /// A worker thread picked up a job (render, query, ingest).
    pub fn worker_busy(&self) {
        let now = self.busy_workers.fetch_add(1, Relaxed) + 1;
        self.max_busy_workers.fetch_max(now, Relaxed);
    }

    /// A worker thread finished its job.
    pub fn worker_idle(&self) {
        self.busy_workers.fetch_sub(1, Relaxed);
    }

    /// Worker threads executing a job right now.
    pub fn busy_workers(&self) -> u64 {
        self.busy_workers.load(Relaxed)
    }

    /// High-watermark of concurrently busy worker threads.
    pub fn max_busy_workers(&self) -> u64 {
        self.max_busy_workers.load(Relaxed)
    }

    /// A connection was answered 503 because the queue was full.
    pub fn queue_full_rejection(&self) {
        self.queue_full_rejections.fetch_add(1, Relaxed);
    }

    /// A socket timeout fired.
    pub fn timeout(&self) {
        self.timeouts.fetch_add(1, Relaxed);
    }

    /// A request was answered with `status` after `latency`.
    pub fn record_request(&self, endpoint: Endpoint, status: u16, latency: Duration) {
        let class = (status / 100).clamp(1, 5) as usize - 1;
        let ei = Endpoint::ALL.iter().position(|e| *e == endpoint).unwrap_or(Endpoint::ALL.len() - 1);
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bi = LATENCY_BUCKETS_MICROS
            .iter()
            .position(|&le| micros <= le)
            .unwrap_or(LATENCY_BUCKETS_MICROS.len());
        for counter in [self.status_classes.get(class), self.endpoints.get(ei), self.latency_buckets.get(bi)]
            .into_iter()
            .flatten()
        {
            counter.fetch_add(1, Relaxed);
        }
        self.latency_total_micros.fetch_add(micros, Relaxed);
    }

    /// Connections accepted so far (tests use this to sequence shutdown).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Relaxed)
    }

    /// Connections currently being handled.
    pub fn active(&self) -> u64 {
        self.active.load(Relaxed)
    }

    /// High-watermark of concurrently handled connections.
    pub fn max_active(&self) -> u64 {
        self.max_active.load(Relaxed)
    }

    /// Connections fully handled.
    pub fn completed(&self) -> u64 {
        self.completed.load(Relaxed)
    }

    /// Total requests answered (sum over status classes).
    pub fn requests_total(&self) -> u64 {
        self.status_classes.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// Requests answered in the given status class (2 → 2xx).
    pub fn requests_in_class(&self, class: u16) -> u64 {
        let i = (class.clamp(1, 5) - 1) as usize;
        self.status_classes.get(i).map_or(0, |c| c.load(Relaxed))
    }

    /// Timeouts observed.
    pub fn timeouts_total(&self) -> u64 {
        self.timeouts.load(Relaxed)
    }

    /// 503 queue-full rejections observed.
    pub fn queue_full_total(&self) -> u64 {
        self.queue_full_rejections.load(Relaxed)
    }

    /// Estimate the `p`-th latency percentile (0 < p ≤ 1) in µs from the
    /// histogram, by nearest rank: the estimate is the upper bound of the
    /// bucket containing rank `⌈p·N⌉`. A rank landing in the overflow
    /// bucket reports the last finite bound — a *lower* bound on the true
    /// value, still useful as "at least this slow". Zero requests → 0.
    ///
    /// The histogram is relaxed atomics, so a read racing writers may see a
    /// momentarily inconsistent set of buckets; for telemetry that skew is
    /// at most one bucket and self-corrects on the next poll.
    pub fn latency_percentile_est_micros(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self.latency_buckets.iter().map(|c| c.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, count) in counts.iter().enumerate() {
            cum += count;
            if cum >= rank {
                return LATENCY_BUCKETS_MICROS
                    .get(i)
                    .or(LATENCY_BUCKETS_MICROS.last())
                    .copied()
                    .unwrap_or(0);
            }
        }
        LATENCY_BUCKETS_MICROS.last().copied().unwrap_or(0)
    }

    /// The (p50, p99, p999) latency estimates in µs (see
    /// [`ServerMetrics::latency_percentile_est_micros`]).
    pub fn latency_percentiles_est(&self) -> (u64, u64, u64) {
        (
            self.latency_percentile_est_micros(0.50),
            self.latency_percentile_est_micros(0.99),
            self.latency_percentile_est_micros(0.999),
        )
    }

    /// The `/api/metrics` document. Schema (all counters cumulative since
    /// server start):
    ///
    /// ```json
    /// {
    ///   "connections": {"accepted":N,"active":N,"max_active":N,"completed":N,
    ///                   "queue_full_rejections":N,"timeouts":N},
    ///   "workers": {"busy":N,"max_busy":N},
    ///   "requests": {"total":N,"status":{"1xx":N,...,"5xx":N}},
    ///   "endpoints": {"/":N,"/api/meta":N,...,"other":N},
    ///   "latency_micros": {"total":N,"p50_est":N,"p99_est":N,"p999_est":N,
    ///     "buckets":[{"le":100,"count":N},...,{"le":null,"count":N}]},
    ///   "sync": {"poison_recoveries":N}
    /// }
    /// ```
    ///
    /// `sync.poison_recoveries` counts lock acquisitions (process-wide)
    /// that recovered a lock poisoned by a panicking holder — panics a
    /// poison-transparent lock survives must be visible, not silent.
    pub fn to_json(&self) -> String {
        let mut j = Json::new();
        j.begin_object();
        self.write_sections(&mut j);
        j.end_object();
        j.finish()
    }

    /// Write the metrics keys into an already-open JSON object — the server
    /// composes this with a write-path `ingest` section at `/api/metrics`.
    pub fn write_sections(&self, j: &mut Json) {
        j.key("connections").begin_object();
        j.kv_uint("accepted", self.accepted());
        j.kv_uint("active", self.active());
        j.kv_uint("max_active", self.max_active());
        j.kv_uint("completed", self.completed());
        j.kv_uint("queue_full_rejections", self.queue_full_total());
        j.kv_uint("timeouts", self.timeouts_total());
        j.end_object();

        j.key("workers").begin_object();
        j.kv_uint("busy", self.busy_workers());
        j.kv_uint("max_busy", self.max_busy_workers());
        j.end_object();

        j.key("requests").begin_object();
        j.kv_uint("total", self.requests_total());
        j.key("status").begin_object();
        for class in 1u16..=5 {
            j.kv_uint(&format!("{class}xx"), self.requests_in_class(class));
        }
        j.end_object();
        j.end_object();

        j.key("endpoints").begin_object();
        for (e, n) in Endpoint::ALL.iter().zip(&self.endpoints) {
            j.kv_uint(e.label(), n.load(Relaxed));
        }
        j.end_object();

        j.key("latency_micros").begin_object();
        j.kv_uint("total", self.latency_total_micros.load(Relaxed));
        let (p50, p99, p999) = self.latency_percentiles_est();
        j.kv_uint("p50_est", p50);
        j.kv_uint("p99_est", p99);
        j.kv_uint("p999_est", p999);
        j.key("buckets").begin_array();
        for (i, count) in self.latency_buckets.iter().enumerate() {
            j.begin_object();
            match LATENCY_BUCKETS_MICROS.get(i) {
                Some(&le) => j.key("le").uint(le),
                None => j.key("le").null(),
            };
            j.kv_uint("count", count.load(Relaxed));
            j.end_object();
        }
        j.end_array();
        j.end_object();

        j.key("sync").begin_object();
        j.kv_uint("poison_recoveries", rased_storage::sync::poison_recoveries_total());
        j.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_serialize() {
        let m = ServerMetrics::new();
        m.connection_accepted();
        m.connection_opened();
        m.record_request(Endpoint::Meta, 200, Duration::from_micros(250));
        m.record_request(Endpoint::Other, 404, Duration::from_millis(2));
        m.connection_closed();
        m.timeout();
        m.queue_full_rejection();

        assert_eq!(m.accepted(), 1);
        assert_eq!(m.active(), 0);
        assert_eq!(m.max_active(), 1);
        assert_eq!(m.completed(), 1);
        assert_eq!(m.requests_total(), 2);
        assert_eq!(m.requests_in_class(2), 1);
        assert_eq!(m.requests_in_class(4), 1);

        let json = m.to_json();
        assert!(json.contains("\"accepted\":1"), "{json}");
        assert!(json.contains("\"2xx\":1"), "{json}");
        assert!(json.contains("\"/api/meta\":1"), "{json}");
        assert!(json.contains("\"le\":100"), "{json}");
        assert!(json.contains("\"le\":null"), "{json}");
        assert!(json.contains("\"sync\":{\"poison_recoveries\":"), "{json}");
    }

    #[test]
    fn worker_gauge_tracks_busy_and_watermark() {
        let m = ServerMetrics::new();
        m.worker_busy();
        m.worker_busy();
        m.worker_idle();
        assert_eq!(m.busy_workers(), 1);
        assert_eq!(m.max_busy_workers(), 2);
        m.worker_idle();
        let json = m.to_json();
        assert!(json.contains("\"workers\":{\"busy\":0,\"max_busy\":2}"), "{json}");
    }

    #[test]
    fn percentiles_are_zero_with_no_requests() {
        let m = ServerMetrics::new();
        assert_eq!(m.latency_percentiles_est(), (0, 0, 0));
    }

    #[test]
    fn percentiles_pin_known_histogram_fills() {
        let m = ServerMetrics::new();
        // 90 requests at 250 µs (≤500 bucket), 9 at 2 ms (≤5000), 1 at
        // 70 ms (≤100_000): N=100, so p50 rank 50 → 500, p99 rank 99 →
        // 5000, p999 rank 100 → 100_000.
        for _ in 0..90 {
            m.record_request(Endpoint::Analysis, 200, Duration::from_micros(250));
        }
        for _ in 0..9 {
            m.record_request(Endpoint::Analysis, 200, Duration::from_millis(2));
        }
        m.record_request(Endpoint::Analysis, 200, Duration::from_millis(70));
        assert_eq!(m.latency_percentiles_est(), (500, 5_000, 100_000));
    }

    #[test]
    fn percentile_in_overflow_reports_last_finite_bound() {
        let m = ServerMetrics::new();
        m.record_request(Endpoint::Root, 200, Duration::from_micros(80)); // ≤100
        m.record_request(Endpoint::Root, 200, Duration::from_secs(60)); // overflow
        // p50 rank 1 → first bucket; p99/p999 rank 2 → overflow, clamped to
        // the last finite bound (a lower bound on the truth).
        assert_eq!(m.latency_percentile_est_micros(0.50), 100);
        assert_eq!(m.latency_percentile_est_micros(0.99), 5_000_000);
        assert_eq!(m.latency_percentile_est_micros(0.999), 5_000_000);
    }

    #[test]
    fn single_request_pins_every_percentile_to_its_bucket() {
        let m = ServerMetrics::new();
        m.record_request(Endpoint::Sample, 200, Duration::from_micros(700)); // ≤1000
        assert_eq!(m.latency_percentiles_est(), (1_000, 1_000, 1_000));
    }

    #[test]
    fn percentile_fields_serialize() {
        let m = ServerMetrics::new();
        m.record_request(Endpoint::Root, 200, Duration::from_micros(50));
        let json = m.to_json();
        assert!(json.contains("\"p50_est\":100"), "{json}");
        assert!(json.contains("\"p99_est\":100"), "{json}");
        assert!(json.contains("\"p999_est\":100"), "{json}");
    }

    #[test]
    fn latency_buckets_are_cumulative_histogram_slots() {
        let m = ServerMetrics::new();
        // 250 µs lands in the ≤500 bucket, 2 ms in ≤5000, 10 s in overflow.
        m.record_request(Endpoint::Root, 200, Duration::from_micros(250));
        m.record_request(Endpoint::Root, 200, Duration::from_millis(2));
        m.record_request(Endpoint::Root, 200, Duration::from_secs(10));
        assert_eq!(m.latency_buckets[1].load(Relaxed), 1);
        assert_eq!(m.latency_buckets[3].load(Relaxed), 1);
        assert_eq!(m.latency_buckets[LATENCY_BUCKETS_MICROS.len()].load(Relaxed), 1);
    }
}
