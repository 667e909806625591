//! [`IngestController`]: the streaming write path.
//!
//! The batch pipeline ([`Rased::ingest_files`]) assumes a complete dataset
//! on disk and exclusive use of the system. This controller instead drives
//! ingestion *while the system serves queries*: data directories are
//! enqueued (`POST /api/ingest`, `serve --follow`), and one writer thread
//! drains the queue, crawling and publishing one day at a time. Every
//! publish is a crash-safe unit in the index (staged pages + one WAL
//! commit), so a crash mid-stream loses at most the in-flight day.
//!
//! The writer is *resumable*: a day already present in the index (from a
//! prior run, or replayed from the WAL after a crash) is skipped, so
//! re-enqueueing the same directory is idempotent and the natural way to
//! tail a growing dataset. A day whose files do not exist yet cleanly ends
//! the job — the next enqueue picks up from there. Transient I/O errors on
//! a unit retry a fixed number of times with fixed backoff (deterministic
//! constants — no clocks, no jitter); persistent ones fail the job and park
//! the state machine in [`IngestPhase::Failed`] until the next job.

use crate::system::{Rased, RasedError};
use rased_collector::{CrawlStats, DailyCrawler};
use rased_osm_gen::Dataset;
use rased_osm_model::UpdateRecord;
use rased_storage::sync::{Condvar, Mutex};
use rased_temporal::{Date, Period};
use std::collections::{HashSet, VecDeque};
use std::fs::File;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How many data directories may wait in the queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 16;

/// Attempts per unit before the job fails (1 initial + retries).
const UNIT_ATTEMPTS: u32 = 3;

/// Backoff between attempts: `UNIT_BACKOFF × attempt`. A fixed constant —
/// the writer is the only sleeper and determinism matters more than
/// congestion avoidance inside a single-writer process.
const UNIT_BACKOFF: Duration = Duration::from_millis(20);

/// Where the writer's state machine is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPhase {
    /// No job in hand; waiting on the queue.
    #[default]
    Idle,
    /// Loading a job's manifest and deciding which days are pending.
    Scanning,
    /// Parsing a unit's files (daily diff + changesets, or monthly history).
    Crawling,
    /// Committing a unit (cube publish + warehouse append).
    Publishing,
    /// The last job died (see `last_error`); the next job resets this.
    Failed,
}

impl IngestPhase {
    /// Stable lowercase name for APIs and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            IngestPhase::Idle => "idle",
            IngestPhase::Scanning => "scanning",
            IngestPhase::Crawling => "crawling",
            IngestPhase::Publishing => "publishing",
            IngestPhase::Failed => "failed",
        }
    }
}

/// A point-in-time snapshot of the writer's progress.
#[derive(Debug, Clone, Default)]
pub struct IngestStatus {
    /// Current state-machine phase.
    pub phase: IngestPhase,
    /// Data directories waiting behind the current job.
    pub queued: usize,
    /// Directory the writer is working on, if any.
    pub current: Option<String>,
    /// Days published (streaming units) since the controller started.
    pub days_published: u64,
    /// Months refined since the controller started.
    pub months_published: u64,
    /// Jobs fully drained.
    pub jobs_done: u64,
    /// Unit attempts that failed and were retried.
    pub retries: u64,
    /// Error that failed the most recent job, if any.
    pub last_error: Option<String>,
    /// Daily-crawler statistics (includes per-element skip reasons).
    pub daily: CrawlStats,
    /// Monthly-crawler statistics.
    pub monthly: CrawlStats,
}

/// Enqueue rejection: the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ingest queue is full")
    }
}

impl std::error::Error for QueueFull {}

struct Inner {
    system: Arc<Rased>,
    queue: Mutex<VecDeque<PathBuf>>,
    wake: Condvar,
    status: Mutex<IngestStatus>,
    stop: AtomicBool,
    capacity: usize,
}

impl Inner {
    fn set_phase(&self, phase: IngestPhase) {
        self.status.lock().phase = phase;
    }

    fn with_status(&self, f: impl FnOnce(&mut IngestStatus)) {
        f(&mut self.status.lock());
    }
}

/// Owns the writer thread; dropped or [`IngestController::shutdown`], it
/// stops the writer at the next unit boundary and joins it.
pub struct IngestController {
    inner: Arc<Inner>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for IngestController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestController")
            .field("status", &self.status())
            .finish_non_exhaustive()
    }
}

impl IngestController {
    /// Spawn the writer thread over `system` with the default queue bound.
    pub fn start(system: Arc<Rased>) -> io::Result<IngestController> {
        Self::with_capacity(system, DEFAULT_QUEUE_CAPACITY)
    }

    /// Spawn the writer thread with an explicit queue bound.
    pub fn with_capacity(system: Arc<Rased>, capacity: usize) -> io::Result<IngestController> {
        let inner = Arc::new(Inner {
            system,
            queue: Mutex::new_named(VecDeque::new(), "core.ingest_queue"),
            wake: Condvar::new(),
            status: Mutex::new_named(IngestStatus::default(), "core.ingest_status"),
            stop: AtomicBool::new(false),
            capacity: capacity.max(1),
        });
        let worker = Arc::clone(&inner);
        let handle =
            std::thread::Builder::new().name("rased-ingest".into()).spawn(move || run(&worker))?;
        Ok(IngestController { inner, writer: Mutex::new_named(Some(handle), "core.ingest_writer") })
    }

    /// Enqueue a data directory (must hold a `dataset.manifest`). Returns
    /// the queue length after the push, or [`QueueFull`] — the caller
    /// (HTTP handler) turns that into backpressure, never blocking.
    pub fn enqueue(&self, dir: PathBuf) -> Result<usize, QueueFull> {
        let mut q = self.inner.queue.lock();
        if q.len() >= self.inner.capacity {
            return Err(QueueFull);
        }
        q.push_back(dir);
        let depth = q.len();
        drop(q);
        self.inner.wake.notify_one();
        Ok(depth)
    }

    /// Snapshot the writer's progress.
    pub fn status(&self) -> IngestStatus {
        let queued = self.inner.queue.lock().len();
        let mut s = self.inner.status.lock().clone();
        s.queued = queued;
        s
    }

    /// Stop the writer at the next unit boundary and join it. Idempotent.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.wake.notify_all();
        let handle = self.writer.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for IngestController {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The writer loop: pop a directory, stream it in, repeat.
fn run(inner: &Inner) {
    // Months this process already refined: rebuild_month is idempotent on
    // content, so after a restart each month is refined at most once more.
    let mut refined: HashSet<(i32, u32)> = HashSet::new();
    loop {
        let job = {
            let mut q = inner.queue.lock();
            loop {
                if inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                let (guard, _) = inner.wake.wait_timeout(q, Duration::from_millis(25));
                q = guard;
            }
        };
        inner.with_status(|s| {
            s.phase = IngestPhase::Scanning;
            s.current = Some(job.display().to_string());
            s.last_error = None;
        });
        match ingest_job(inner, &job, &mut refined) {
            Ok(()) => inner.with_status(|s| {
                s.phase = IngestPhase::Idle;
                s.current = None;
                s.jobs_done += 1;
            }),
            Err(e) => inner.with_status(|s| {
                s.phase = IngestPhase::Failed;
                s.current = None;
                s.last_error = Some(e.to_string());
            }),
        }
    }
}

/// Stream one data directory into the system: publish each pending day as
/// its own crash-safe unit, then refine every complete, fully-published
/// month.
fn ingest_job(
    inner: &Inner,
    root: &Path,
    refined: &mut HashSet<(i32, u32)>,
) -> Result<(), RasedError> {
    let dataset = Dataset::load_manifest(root)
        .map_err(|e| RasedError::Io(io::Error::new(io::ErrorKind::InvalidData, e.to_string())))?;
    let atlas = dataset.atlas();
    let sys = &inner.system;

    for day in dataset.config.range.days() {
        if inner.stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        if sys.index().has(Period::Day(day)) {
            // Resumable: published by a prior run or recovered from the
            // WAL. Skipping on index presence alone is sound because
            // `apply_day` flushes the warehouse *before* committing the
            // cube unit (and `Rased::open` trims any rows past the last
            // committed watermark), so an indexed day always has its
            // sample rows too.
            continue;
        }
        if !dataset.paths.diff(day).exists() {
            // The generator hasn't produced this day yet: end the job
            // cleanly. `serve --follow` re-enqueues as data appears.
            break;
        }
        inner.set_phase(IngestPhase::Crawling);
        let (records, stats) = retry_unit(inner, || crawl_day(sys, &atlas, &dataset, day))?;
        inner.with_status(|s| s.daily += stats);
        inner.set_phase(IngestPhase::Publishing);
        // The publish itself is not retried: `apply_day` commits the cube
        // unit atomically, and a failure after the commit must not publish
        // the day twice. A failure *before* the commit rolls the day's
        // warehouse rows back out, so the WAL makes "retry by
        // re-enqueueing" safe in either half.
        sys.apply_day(day, &records)?;
        inner.with_status(|s| s.days_published += 1);
    }

    for (y, m) in dataset.months() {
        if inner.stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let month = Period::Month(y, m);
        if refined.contains(&(y, m)) || !month.within(dataset.config.range) {
            continue;
        }
        // Refinement needs every day of the month published and the
        // full-history dump present.
        if !month.range().days().all(|d| sys.index().has(Period::Day(d)))
            || !dataset.paths.history(y, m).exists()
        {
            continue;
        }
        inner.set_phase(IngestPhase::Crawling);
        let (by_day, stats) = retry_unit(inner, || {
            let paths = &dataset.paths;
            sys.crawl_month(&atlas, &paths.history(y, m), |day| paths.changesets(day), y, m)
        })?;
        inner.with_status(|s| s.monthly += stats);
        inner.set_phase(IngestPhase::Publishing);
        sys.apply_month(y, m, &by_day)?;
        refined.insert((y, m));
        inner.with_status(|s| s.months_published += 1);
    }

    sys.index().warm_cache()?;
    sys.sync()?;
    Ok(())
}

/// Crawl one day's diff + changeset files into records.
fn crawl_day(
    sys: &Rased,
    atlas: &rased_osm_gen::WorldAtlas,
    dataset: &Dataset,
    day: Date,
) -> Result<(Vec<UpdateRecord>, CrawlStats), RasedError> {
    let diff = BufReader::new(File::open(dataset.paths.diff(day))?);
    let changesets = BufReader::new(File::open(dataset.paths.changesets(day))?);
    let crawler = DailyCrawler::new(atlas, sys.roads());
    Ok(crawler.crawl(diff, changesets)?)
}

/// Run one unit, retrying transient I/O failures with fixed backoff.
fn retry_unit<T>(
    inner: &Inner,
    mut unit: impl FnMut() -> Result<T, RasedError>,
) -> Result<T, RasedError> {
    let mut attempt = 1u32;
    loop {
        match unit() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < UNIT_ATTEMPTS && is_transient(&e) => {
                inner.with_status(|s| s.retries += 1);
                std::thread::sleep(UNIT_BACKOFF * attempt);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Is this worth retrying? I/O and storage errors may be transient (a file
/// mid-write by the generator, a full disk freed up); parse errors are not.
fn is_transient(e: &RasedError) -> bool {
    matches!(e, RasedError::Io(_) | RasedError::Index(_) | RasedError::Warehouse(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RasedConfig;
    use dettest::TempDir;
    use rased_cube::CubeSchema;
    use rased_osm_gen::DatasetConfig;
    use rased_query::{naive_execute, AnalysisQuery, GroupDim};
    use rased_temporal::DateRange;

    /// A generated dataset and an empty system beside it; the returned
    /// [`TempDir`] must outlive both.
    fn dataset_and_system(tag: &str) -> (TempDir, Dataset, Arc<Rased>) {
        let mut cfg = DatasetConfig::small(31);
        cfg.range = DateRange::new(
            Date::new(2021, 1, 1).unwrap(),
            Date::new(2021, 1, 31).unwrap(),
        );
        cfg.sim.daily_edits_mean = 20.0;
        cfg.seed_nodes_per_country = 10;
        let root = TempDir::new(&format!("ictl-{tag}"));
        let dataset = Dataset::generate(&root.file("osm"), cfg).unwrap();
        let schema = CubeSchema::new(
            dataset.config.world.n_countries,
            dataset.config.sim.n_road_types,
        );
        let config = RasedConfig::new(root.file("system")).with_schema(schema);
        let system = Arc::new(Rased::create(config).unwrap());
        (root, dataset, system)
    }

    fn wait_idle(ctl: &IngestController) -> IngestStatus {
        for _ in 0..2000 {
            let s = ctl.status();
            if s.queued == 0 && matches!(s.phase, IngestPhase::Idle | IngestPhase::Failed) {
                return s;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("controller never drained: {:?}", ctl.status());
    }

    #[test]
    fn streams_a_dataset_to_the_same_answer_as_batch_ingest() {
        let (_root, dataset, sys) = dataset_and_system("stream");
        let ctl = IngestController::start(Arc::clone(&sys)).unwrap();
        ctl.enqueue(dataset.paths.root.clone()).unwrap();
        let status = wait_idle(&ctl);
        assert_eq!(status.phase, IngestPhase::Idle, "err: {:?}", status.last_error);
        assert_eq!(status.days_published, 31);
        assert_eq!(status.months_published, 1);
        assert_eq!(status.jobs_done, 1);
        assert_eq!(status.daily.emitted as usize, dataset.truth.len());

        let q = AnalysisQuery::over(dataset.config.range)
            .group(GroupDim::Country)
            .group(GroupDim::UpdateType);
        let got = sys.query(&q).unwrap();
        let want = naive_execute(&dataset.truth, &q, None);
        assert_eq!(got.rows, want.rows);
        ctl.shutdown();
    }

    #[test]
    fn re_enqueueing_the_same_directory_is_idempotent() {
        let (_root, dataset, sys) = dataset_and_system("idem");
        let ctl = IngestController::start(Arc::clone(&sys)).unwrap();
        ctl.enqueue(dataset.paths.root.clone()).unwrap();
        wait_idle(&ctl);
        let rows = sys.warehouse().row_count();
        let epoch = sys.index().epoch();
        ctl.enqueue(dataset.paths.root.clone()).unwrap();
        let status = wait_idle(&ctl);
        assert_eq!(status.jobs_done, 2);
        assert_eq!(status.days_published, 31, "no day published twice");
        assert_eq!(sys.warehouse().row_count(), rows, "no duplicate rows");
        assert_eq!(sys.index().epoch(), epoch, "no new publishes");
        ctl.shutdown();
    }

    #[test]
    fn bad_directory_parks_the_machine_in_failed() {
        let (root, _dataset, sys) = dataset_and_system("badjob");
        let ctl = IngestController::start(Arc::clone(&sys)).unwrap();
        let empty = root.file("empty");
        std::fs::create_dir_all(&empty).unwrap();
        ctl.enqueue(empty).unwrap();
        let status = wait_idle(&ctl);
        assert_eq!(status.phase, IngestPhase::Failed);
        assert!(status.last_error.is_some());
        ctl.shutdown();
    }

    #[test]
    fn queue_rejects_beyond_capacity() {
        let (_root, _dataset, sys) = dataset_and_system("cap");
        // Capacity 2; the writer is busy failing the first bogus dir, but
        // enqueue never blocks either way.
        let ctl = IngestController::with_capacity(sys, 2).unwrap();
        let mut accepted = 0;
        let mut rejected = 0;
        for i in 0..20 {
            match ctl.enqueue(PathBuf::from(format!("/nonexistent/{i}"))) {
                Ok(_) => accepted += 1,
                Err(QueueFull) => rejected += 1,
            }
        }
        assert!(accepted >= 2);
        assert!(rejected > 0, "a bounded queue must push back");
        ctl.shutdown();
    }
}
