//! The pinned configuration. These are constants, not flags: two runs are
//! comparable only when every one of them is equal, so the only inputs a run
//! takes are `--workload`, `--seed` and `--trace`.

use std::time::Duration;

/// Default `--seed`. Every generated input (dataset files and request
/// streams) is a pure function of the seed.
pub const DEFAULT_SEED: u64 = 20_210_101;
/// The timed window of the read workloads, in seconds: `run_seconds` in
/// `BENCHMARK.json`. The driver passes it back as `--seconds`; any other
/// value is refused, because a run over another window is another workload.
pub const RUN_SECONDS: u64 = 10;

pub const COUNTRIES: usize = 24;
pub const ROAD_TYPES: usize = 12;
/// Mean edits/day of the 2021 dataset the three read workloads serve
/// (≈22 k updates, ≈2.7 s set-up, ≈0.6 GB scratch on the 2-core box).
pub const READ_EDITS_PER_DAY: f64 = 60.0;
/// Mean edits/day of both `ingest_live` datasets (2020-10-01…12-31 batch-
/// ingested by set-up, then the whole of 2021 streamed: 365 daily publishes
/// and 12 monthly refinements, ≈4–6 s). Every update costs a
/// 16 KiB spatial page, so this also sets the bytes the stream dirties:
/// 365 days at 150/day write ≈1.0 GB, under the kernel's background
/// write-back threshold on the 15 GB box. At 300/day (≈2.3 GB) the stream
/// crosses into dirty-page throttling and its rate swings 35–54 days/s
/// between identical runs.
pub const LIVE_EDITS_PER_DAY: f64 = 150.0;

pub const INDEX_SHARDS: usize = 2;
pub const CUBE_CACHE_SLOTS: usize = 64;
pub const SERVER_WORKERS: usize = 2;
/// Closed-loop keep-alive client threads. `nproc` is 2 on the reference
/// box: never more client threads or connections than cores.
pub const CLIENTS: usize = 2;

pub const WARMUP: Duration = Duration::from_secs(2);
/// The timed window is split into this many equal sub-windows; throughput
/// and latency percentiles are medians over them.
pub const SUB_WINDOWS: usize = 5;
/// Samples a sub-window needs for its p99 to have ten samples beyond it.
/// The three read workloads clear it with room to spare; `ingest_live`'s one
/// reader cannot, so its tail is pinned at p95 (`Workload::window_shape`)
/// rather than left to flip between percentiles from run to run.
pub const P99_MIN_SAMPLES: usize = 1000;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Every n-th `/api/analysis` response is checked against the oracle.
pub const CHECK_EVERY: u64 = 50;
/// Requests replayed in-process by the traced run.
pub const REPLAY_REQUESTS: usize = 2000;
/// Think time of a dashboard user session (the `dash_hot` clients and the
/// `ingest_live` reader) between a reply and the next request: uniform in
/// this range, in µs. The event loop backs off with a 500 µs sleep after
/// any iteration without progress, and a response-cache hit is served in a
/// few µs — so whether a back-to-back client's next request lands before
/// the loop dozes off is a race. Which side wins depends on thread
/// placement and flips between runs (20 k req/s at a 10 µs median, or 3 k
/// req/s at 650 µs, from the same binary; a back-to-back `ingest_live`
/// reader gave 640 µs or 1300 µs). With a think time the loop is always
/// asleep when a request arrives: one regime, the one a tab that reloads on
/// a timer sees. Drawing it at random keeps a client from phase-locking
/// onto the loop's sleep period. The cold workloads run back to back: each
/// of their requests waits for a worker and the loop's next wake either
/// way, and with the think time their median sits on the seam between one
/// loop sleep and two (`viewport`: 0.95–1.2 ms with the machine's state,
/// against 1.30–1.34 ms back to back).
pub const USER_THINK_US: (u64, u64) = (200, 800);
/// `ingest_live` status poll period.
pub const STATUS_POLL: Duration = Duration::from_millis(10);
/// Free space required under the scratch root before set-up starts.
pub const MIN_FREE_BYTES: u64 = 4 << 30;
