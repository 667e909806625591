//! Set-up: scratch directory, seeded datasets, batch ingest, server bind.
//!
//! One [`Env`] is one fully set-up system under test: generated OSM files,
//! a created and batch-ingested [`Rased`], and the real [`DashboardServer`]
//! event loop bound on loopback in this process. Everything on disk lives
//! under one RAII [`Scratch`] directory.

use crate::config::*;
use crate::Workload;
use rased_core::{
    CacheConfig, CubeSchema, Date, DateRange, IngestController, Rased, RasedConfig, ServerConfig,
    ShardConfig,
};
use rased_dashboard::{DashboardServer, StopHandle};
use rased_osm_gen::{Dataset, DatasetConfig};
use std::error::Error;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// A scratch directory removed on drop — every exit path of `main` unwinds
/// through it, so nothing is left behind whether the run passes, fails its
/// checks, or errors out.
pub struct Scratch {
    path: PathBuf,
}

static SCRATCH_SEQ: AtomicU32 = AtomicU32::new(0);
const SCRATCH_PREFIX: &str = "rased-bench-";
const SCRATCH_MARKER: &str = ".rased-bench-scratch";

impl Scratch {
    /// `$RASED_BENCH_DIR`, else `benchmark/out/scratch` under the current
    /// directory (the checkout root): the benchmark reads and writes only
    /// inside its checkout unless told otherwise.
    pub fn root() -> PathBuf {
        match std::env::var_os("RASED_BENCH_DIR") {
            Some(dir) => PathBuf::from(dir),
            None => PathBuf::from("benchmark/out/scratch"),
        }
    }

    /// A fresh directory under `root`, which must exist.
    pub fn new(root: &Path) -> Res<Scratch> {
        // A killed run cannot unwind; reap what it left. Only a directory
        // this benchmark made is touched: named `rased-bench-<pid>-<seq>`,
        // holding the marker file, its pid gone from this pid namespace.
        for entry in std::fs::read_dir(root)?.flatten() {
            let name = entry.file_name();
            let pid = name
                .to_str()
                .and_then(|n| n.strip_prefix(SCRATCH_PREFIX)?.split('-').next())
                .and_then(|pid| pid.parse::<u32>().ok());
            let ours = entry.path().join(SCRATCH_MARKER).is_file();
            if let (Some(pid), true) = (pid, ours) {
                if !Path::new("/proc").join(pid.to_string()).exists() {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{SCRATCH_PREFIX}{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        std::fs::write(path.join(SCRATCH_MARKER), b"")?;
        Ok(Scratch {
            path: path.canonicalize()?,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Refuse to start when the scratch file system cannot hold a run. `std`
/// has no `statvfs`, so this asks `df`; where `df` is missing the check is
/// skipped (reported as `None`).
pub fn free_bytes(root: &Path) -> Option<u64> {
    let out = std::process::Command::new("df")
        .arg("-Pk")
        .arg(root)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Flush every dirty page the set-ups left behind (`sync(1)`; `std` has no
/// `sync(2)`). Every commit of the write path fsyncs, and on ext4 an fsync
/// waits for whatever else the journal holds — without this the timed
/// window pays for the torn-down set-ups' writes, by an amount that varies
/// from run to run.
pub fn settle_disk() {
    let _ = std::process::Command::new("sync").status();
}

/// The commit under test: `$RASED_BENCH_COMMIT`, else `git rev-parse`, else
/// `unknown` (the driver's checkout is not a git repository).
pub fn commit() -> String {
    if let Ok(c) = std::env::var("RASED_BENCH_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Total length of every regular file under `path` (exact byte count, not
/// allocated blocks, so it repeats for equal inputs).
pub fn tree_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    let Ok(dir) = std::fs::read_dir(path) else {
        return 0;
    };
    dir.flatten().map(|e| tree_bytes(&e.path())).sum()
}

/// FNV-1a, the digest `inputs_digest` is made of.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every file under `dir`, in sorted path order, names included.
    pub fn write_tree(&mut self, dir: &Path) -> Res<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            if path.is_dir() {
                self.write_tree(&path)?;
            } else {
                self.write(
                    path.file_name()
                        .map(|n| n.as_encoded_bytes())
                        .unwrap_or_default(),
                );
                self.write(&std::fs::read(&path)?);
            }
        }
        Ok(())
    }
}

fn date(y: i32, m: u32, d: u32) -> Res<Date> {
    Ok(Date::new(y, m, d)?)
}

fn dataset_config(seed: u64, edits_per_day: f64, range: DateRange) -> DatasetConfig {
    let mut cfg = DatasetConfig::small(seed);
    cfg.world.n_countries = COUNTRIES;
    cfg.sim.n_road_types = ROAD_TYPES;
    cfg.sim.daily_edits_mean = edits_per_day;
    cfg.range = range;
    cfg
}

pub fn schema() -> CubeSchema {
    CubeSchema::new(COUNTRIES, ROAD_TYPES)
}

/// The pinned system configuration over `dir`. Everything not named here is
/// the crate default (spatial grid 32×64 in 4 bands, 256 block-cache slots,
/// modeled-HDD cost model, 4 index levels, `ExecConfig { threads: 1 }`).
pub fn system_config(dir: PathBuf) -> RasedConfig {
    let mut config = RasedConfig::new(dir).with_schema(schema());
    config.shard = ShardConfig {
        shards: INDEX_SHARDS,
    };
    config.cache = CacheConfig {
        slots: CUBE_CACHE_SLOTS,
        ..CacheConfig::paper_default()
    };
    config
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: SERVER_WORKERS,
        max_keep_alive_requests: usize::MAX,
        ..ServerConfig::default()
    }
}

/// One set-up system under test.
pub struct Env {
    pub system: Arc<Rased>,
    pub server: Arc<DashboardServer>,
    pub addr: SocketAddr,
    /// The batch-ingested dataset.
    pub base: Dataset,
    /// `ingest_live` only: the dataset streamed during the timed window.
    pub live: Option<Dataset>,
    /// Days from `base`'s first day to the last day that will ever hold
    /// data (base, plus the live stream once it has drained).
    pub full_range: DateRange,
    /// Wall seconds of the batch `ingest_dataset` alone.
    pub batch_ingest_s: f64,
    ingest: Option<Arc<IngestController>>,
    stop: StopHandle,
    serve: Option<JoinHandle<std::io::Result<()>>>,
    // Declared last: fields drop in order, and the directory must outlive
    // every open file above.
    pub scratch: Scratch,
}

impl Env {
    /// Generate, create, batch-ingest, bind. Returns the environment and the
    /// wall seconds from entry to the server's first answered request.
    pub fn build(workload: Workload, seed: u64, root: &Path) -> Res<(Env, f64)> {
        let started = Instant::now();
        let scratch = Scratch::new(root)?;
        let (base_range, base_edits) = match workload {
            Workload::IngestLive => (
                DateRange::new(date(2020, 10, 1)?, date(2020, 12, 31)?),
                LIVE_EDITS_PER_DAY,
            ),
            _ => (
                DateRange::new(date(2021, 1, 1)?, date(2021, 12, 31)?),
                READ_EDITS_PER_DAY,
            ),
        };
        let base = Dataset::generate(
            &scratch.path().join("osm-base"),
            dataset_config(seed, base_edits, base_range),
        )?;
        let live = match workload {
            Workload::IngestLive => {
                let range = DateRange::new(date(2021, 1, 1)?, date(2021, 12, 31)?);
                Some(Dataset::generate(
                    &scratch.path().join("osm-live"),
                    dataset_config(seed, LIVE_EDITS_PER_DAY, range),
                )?)
            }
            _ => None,
        };
        let full_range = DateRange::new(
            base_range.start(),
            live.as_ref()
                .map_or(base_range.end(), |l| l.config.range.end()),
        );

        let system = Arc::new(Rased::create(system_config(scratch.path().join("system")))?);
        let t_ingest = Instant::now();
        system.ingest_dataset(&base)?;
        let batch_ingest_s = t_ingest.elapsed().as_secs_f64();

        let mut server =
            DashboardServer::bind_with(Arc::clone(&system), "127.0.0.1:0", server_config())?;
        let ingest = match live {
            Some(_) => {
                let ctl = Arc::new(IngestController::start(Arc::clone(&system))?);
                server = server.with_ingest(Arc::clone(&ctl), Some(scratch.path().to_path_buf()));
                Some(ctl)
            }
            None => None,
        };
        let server = Arc::new(server);
        let addr = server.addr()?;
        let stop = server.stop_handle();
        let serve = {
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name("bench-serve".into())
                .spawn(move || server.serve())?
        };
        let env = Env {
            system,
            server,
            addr,
            base,
            live,
            full_range,
            batch_ingest_s,
            ingest,
            stop,
            serve: Some(serve),
            scratch,
        };
        // Set-up ends when the server answers: the first request a user
        // could have made.
        let status = crate::client::Client::connect(addr)?.get("/api/meta")?;
        if status != 200 {
            return Err(format!("first request answered {status}").into());
        }
        Ok((env, started.elapsed().as_secs_f64()))
    }

    /// FNV-1a over every generated dataset file.
    pub fn digest_datasets(&self, fnv: &mut Fnv) -> Res<()> {
        fnv.write_tree(&self.base.paths.root)?;
        if let Some(live) = &self.live {
            fnv.write_tree(&live.paths.root)?;
        }
        Ok(())
    }

    pub fn system_dir(&self) -> PathBuf {
        self.scratch.path().join("system")
    }

    /// Stop the ingest controller and the server, wait for both. Idempotent;
    /// the caller runs it on every path (an `Env` has no `Drop` so that
    /// [`Env::close`] can take it apart). Client connections must be closed
    /// first: shutdown drains open connections.
    pub fn stop(&mut self) -> Res<()> {
        if let Some(ctl) = self.ingest.take() {
            ctl.shutdown();
        }
        self.stop.stop();
        if let Some(handle) = self.serve.take() {
            handle.join().map_err(|_| "serve thread panicked")??;
        }
        Ok(())
    }

    /// Stop everything, drop the system, and hand back the directory (still
    /// on disk) so the traced run can time a reopen.
    pub fn close(mut self) -> Res<Scratch> {
        self.stop()?;
        let Env {
            system,
            server,
            scratch,
            ..
        } = self;
        drop(server);
        drop(system);
        Ok(scratch)
    }
}
