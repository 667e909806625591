//! RASED end-to-end benchmark: one named workload per process, driven over
//! loopback HTTP against the real event loop, measured from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload dash_cold --seed 7 --trace 0
//! ```
//!
//! The run prints every metric by name with its unit, then — as the last
//! line of stdout — one JSON object `{correct, attempted, failed, metrics}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` for what each workload and metric is for.

mod check;
mod client;
mod config;
mod drive;
mod requests;
mod setup;
mod trace;

use config::*;
use drive::{
    median_f64, run_client, run_ingest_stream, window_stats, ClientLog, Control, WindowStats,
};
use requests::{Mix, Stream, Vocab};
use setup::{Env, Fnv, Res, Scratch};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Replay, Samples, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DashHot,
    DashCold,
    Viewport,
    IngestLive,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DashHot,
        Workload::DashCold,
        Workload::Viewport,
        Workload::IngestLive,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DashHot => "dash_hot",
            Workload::DashCold => "dash_cold",
            Workload::Viewport => "viewport",
            Workload::IngestLive => "ingest_live",
        }
    }

    fn mix(self) -> Mix {
        match self {
            Workload::DashHot | Workload::IngestLive => Mix::Hot,
            Workload::DashCold => Mix::Cold,
            Workload::Viewport => Mix::Viewport,
        }
    }

    /// How the timed window is summarised: the number of equal sub-windows
    /// the medians are taken over, and the percentiles `p50_us` and `p99_us`
    /// report. The read workloads run a steady state: ten-second window,
    /// `SUB_WINDOWS` sub-windows, p50 and p99 (`P99_MIN_SAMPLES` per
    /// sub-window). `ingest_live` is fixed work in two phases (daily
    /// publishes, then monthly refinements, the reader faster in the
    /// second), so a median over sub-windows would report whichever phase
    /// the middle one fell into: it is summarised whole. Its single reader
    /// gives ≈3000 samples, so `p99_us` is pinned at p95. And the lower half
    /// of their distribution is set by a scheduling choice the kernel makes
    /// once per run (whether a woken worker preempts the event loop, see
    /// README): the median is 0.69 ms in four runs of five and 0.95–1.1 ms
    /// in the fifth. By p80 four requests of five have waited for the
    /// loop's next wake in either state, and the two are 13–22% apart
    /// instead of 45%: that is what `p50_us` is pinned at.
    fn window_shape(self) -> (usize, (f64, f64)) {
        match self {
            Workload::IngestLive => (1, (80.0, 95.0)),
            _ => (SUB_WINDOWS, (50.0, 99.0)),
        }
    }
}

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("ok_ratio", "ratio"),
    ("ingest_days_per_s", "days/s"),
    ("disk_bytes_per_update", "B/update"),
    ("peak_rss_mb", "MB"),
];

#[derive(Clone, Copy)]
enum Agg {
    /// Median of the samples taken under this name (timings).
    Median,
    /// Mean of the samples (per-query counts).
    Mean,
    /// A single value computed directly.
    Direct,
}

/// `(name, unit, aggregation)` of every per-layer metric; layer = crate.
const PER_LAYER: [(&str, &str, Agg); 46] = [
    ("dashboard.http_parse_us", "us", Agg::Median),
    ("dashboard.api_parse_us", "us", Agg::Median),
    ("dashboard.respcache_probe_us", "us", Agg::Median),
    ("dashboard.frame_us", "us", Agg::Median),
    ("dashboard.transport_us", "us", Agg::Direct),
    ("dashboard.respcache_hit_ratio", "ratio", Agg::Direct),
    ("dashboard.shed_ratio", "ratio", Agg::Direct),
    ("dashboard.respcache_invalidations", "count", Agg::Direct),
    ("dashboard.render_us", "us", Agg::Median),
    ("dashboard.render_bytes", "B", Agg::Mean),
    ("query.execute_us", "us", Agg::Median),
    ("query.viewport_us", "us", Agg::Median),
    ("query.cubes_per_query", "count", Agg::Mean),
    ("query.rows_per_query", "count", Agg::Mean),
    ("query.scan_rows_per_query", "count", Agg::Mean),
    ("query.fold_ns_per_cell", "ns", Agg::Median),
    ("index.plan_us", "us", Agg::Median),
    ("index.fetch_cached_us", "us", Agg::Median),
    ("index.fetch_disk_us", "us", Agg::Median),
    ("index.cube_cache_hit_ratio", "ratio", Agg::Direct),
    ("index.block_fetch_us", "us", Agg::Median),
    ("index.block_cache_hit_ratio", "ratio", Agg::Direct),
    ("index.ingest_day_us", "us", Agg::Median),
    ("index.publish_day_us", "us", Agg::Median),
    ("index.cube_bytes_per_update", "B/update", Agg::Direct),
    ("index.spatial_bytes_per_update", "B/update", Agg::Direct),
    ("cube.decode_us", "us", Agg::Median),
    ("cube.sparse_decode_us", "us", Agg::Median),
    ("cube.from_records_us_per_1k", "us", Agg::Median),
    ("storage.page_read_us", "us", Agg::Median),
    ("storage.reads_per_query", "count", Agg::Mean),
    ("storage.modeled_io_us_per_query", "us", Agg::Mean),
    ("storage.bytes_written_per_update", "B/update", Agg::Direct),
    ("warehouse.scan_region_us", "us", Agg::Median),
    ("warehouse.sample_region_us", "us", Agg::Median),
    ("warehouse.insert_us_per_1k", "us", Agg::Median),
    ("warehouse.bytes_per_update", "B/update", Agg::Direct),
    ("collector.crawl_day_us", "us", Agg::Median),
    ("collector.crawl_month_us", "us", Agg::Median),
    ("collector.parse_mb_per_s", "MB/s", Agg::Median),
    ("core.ingest_day_ms", "ms", Agg::Median),
    ("core.open_s", "s", Agg::Direct),
    ("geo.cover_us", "us", Agg::Median),
    ("trace.overhead_ratio", "ratio", Agg::Direct),
    ("trace.request_us", "us", Agg::Direct),
    ("fail_ratio", "ratio", Agg::Direct),
];

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::DashHot,
        seed: DEFAULT_SEED,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            // The driver passes `run_seconds` back; the window is pinned.
            "--seconds" => {
                let seconds = value("--seconds")?;
                if seconds.parse() != Ok(RUN_SECONDS) {
                    return Err(format!(
                        "--seconds {seconds}: the timed window is pinned at {RUN_SECONDS} s (run_seconds in BENCHMARK.json)"
                    ));
                }
            }
            // `--trace 1` / `--trace 0`; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload =
        workload.ok_or("missing --workload (dash_hot | dash_cold | viewport | ingest_live)")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: rased-benchmark --workload NAME [--seed N] [--trace 0|1] [--seconds {RUN_SECONDS}]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Counters the system keeps anyway (the ones `/api/metrics` serialises),
/// read through their public accessors; per-layer ratios are deltas of two
/// snapshots around the timed window.
#[derive(Clone, Copy, Default)]
struct Counters {
    resp_hits: u64,
    resp_misses: u64,
    resp_invalidations: u64,
    sheds: u64,
    cube_hits: u64,
    cube_misses: u64,
    block_hits: u64,
    block_misses: u64,
    bytes_written: u64,
}

impl Counters {
    fn read(env: &Env) -> Counters {
        let (cube_hits, cube_misses) = env.system.index().cache_counters();
        let (block_hits, block_misses) = env.system.spatial_bank().cache_counters();
        let cache = env.server.response_cache();
        let admission = env.server.admission();
        let stores = env
            .system
            .index()
            .stores()
            .iter()
            .chain(env.system.spatial_bank().stores());
        Counters {
            resp_hits: cache.map_or(0, |c| c.hits_total()),
            resp_misses: cache.map_or(0, |c| c.misses_total()),
            resp_invalidations: cache.map_or(0, |c| c.invalidations_total()),
            sheds: admission.shed_client_cap_total() + admission.shed_overload_total(),
            cube_hits,
            cube_misses,
            block_hits,
            block_misses,
            bytes_written: stores
                .map(|s| s.file().stats().snapshot().bytes_written)
                .sum::<u64>()
                + env.system.warehouse().io_snapshot().bytes_written,
        }
    }
}

impl Counters {
    /// What happened between `earlier` and `self`; `bytes_written` stays the
    /// running total (it is reported per update ever written).
    fn since(&self, earlier: &Counters) -> Counters {
        let d = |now: u64, then: u64| now.saturating_sub(then);
        Counters {
            resp_hits: d(self.resp_hits, earlier.resp_hits),
            resp_misses: d(self.resp_misses, earlier.resp_misses),
            resp_invalidations: d(self.resp_invalidations, earlier.resp_invalidations),
            sheds: d(self.sheds, earlier.sheds),
            cube_hits: d(self.cube_hits, earlier.cube_hits),
            cube_misses: d(self.cube_misses, earlier.cube_misses),
            block_hits: d(self.block_hits, earlier.block_hits),
            block_misses: d(self.block_misses, earlier.block_misses),
            bytes_written: self.bytes_written,
        }
    }
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// What the timed window and the checks after it produced.
struct Measured {
    stats: WindowStats,
    window: Duration,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    checked: usize,
    /// Counter deltas over the timed window.
    counters: Counters,
    /// `ingest_live`: days published per second of the live stream.
    live_days_per_s: Option<f64>,
    warehouse_rows: u64,
    /// Self-check verdicts, `(what, passed)`.
    separation: Vec<(String, bool)>,
    /// Per-layer values of the traced run, and its layer table.
    layers: BTreeMap<&'static str, f64>,
    trace_report: Vec<String>,
}

fn run(args: &Args) -> Res<bool> {
    let workload = args.workload;
    let root = Scratch::root();
    std::fs::create_dir_all(&root)?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# RASED benchmark — workload {}", workload.name());
    println!(
        "# seed {} (default {DEFAULT_SEED}), {RUN_SECONDS} s timed after {} s warm-up, trace {}, nproc {nproc}, commit {}",
        args.seed,
        WARMUP.as_secs(),
        args.trace as u8,
        setup::commit(),
    );
    match setup::free_bytes(&root) {
        Some(free) if free < MIN_FREE_BYTES => {
            return Err(format!(
                "{} has {} MiB free; a run needs {} MiB of scratch",
                root.display(),
                free >> 20,
                MIN_FREE_BYTES >> 20
            )
            .into());
        }
        Some(free) => println!("# scratch {} ({} MiB free)", root.display(), free >> 20),
        None => println!("# scratch {} (free space unknown: no `df`)", root.display()),
    }

    // Set-up, repeated: every repeat is the whole of generate + create +
    // batch ingest + bind + first request, torn down again except the last.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (mut setup_s, mut batch_days_per_s) = (Vec::new(), Vec::new());
    let mut env = None;
    for _ in 0..repeats {
        if let Some(mut old) = env.take() {
            Env::stop(&mut old)?;
        }
        setup::settle_disk();
        let (built, seconds) = Env::build(workload, args.seed, &root)?;
        setup_s.push(seconds);
        batch_days_per_s.push(built.base.config.range.len_days() as f64 / built.batch_ingest_s);
        env = Some(built);
    }
    let mut env = env.ok_or("no set-up ran")?;
    println!("# set-up took {setup_s:.3?} s");
    setup::settle_disk();

    let measured = measure(args, &env);
    let stopped = env.stop();
    let m = measured?;
    stopped?;

    // Disk: exact file lengths under the system directory, after set-up
    // (and after the stream, for `ingest_live`).
    let dir = env.system_dir();
    let rows = m.warehouse_rows.max(1) as f64;
    let (index_b, spatial_b, total_b) = (
        setup::tree_bytes(&dir.join("index")),
        setup::tree_bytes(&dir.join("spatial")),
        setup::tree_bytes(&dir),
    );
    let fail_ratio = m.failed as f64 / m.attempted.max(1) as f64;
    let mut layers = m.layers;
    if args.trace {
        let c = &m.counters;
        layers.extend([
            ("index.cube_bytes_per_update", index_b as f64 / rows),
            ("index.spatial_bytes_per_update", spatial_b as f64 / rows),
            (
                "warehouse.bytes_per_update",
                (total_b - index_b - spatial_b) as f64 / rows,
            ),
            (
                "storage.bytes_written_per_update",
                c.bytes_written as f64 / rows,
            ),
            (
                "dashboard.respcache_hit_ratio",
                ratio(c.resp_hits, c.resp_misses),
            ),
            (
                "dashboard.shed_ratio",
                c.sheds as f64 / m.attempted.max(1) as f64,
            ),
            (
                "dashboard.respcache_invalidations",
                c.resp_invalidations as f64,
            ),
            (
                "index.cube_cache_hit_ratio",
                ratio(c.cube_hits, c.cube_misses),
            ),
            (
                "index.block_cache_hit_ratio",
                ratio(c.block_hits, c.block_misses),
            ),
            ("fail_ratio", fail_ratio),
        ]);
        if let Some(request_us) = layers.get("trace.request_us").copied() {
            layers.insert("dashboard.transport_us", m.stats.p50_us - request_us);
        }
        let scratch = env.close()?;
        layers.insert(
            "core.open_s",
            trace::probe_open(&scratch.path().join("system"))?,
        );
    } else {
        drop(env);
    }

    let end_to_end: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", median_f64(&mut setup_s)),
        ("req_per_s", m.stats.req_per_s),
        ("p50_us", m.stats.mid_us),
        ("p99_us", m.stats.tail_us),
        ("ok_ratio", 1.0 - fail_ratio),
        (
            "ingest_days_per_s",
            m.live_days_per_s
                .unwrap_or_else(|| median_f64(&mut batch_days_per_s)),
        ),
        ("disk_bytes_per_update", total_b as f64 / rows),
        ("peak_rss_mb", peak_rss_mb()),
    ]);

    println!("\n## window");
    let (sub_windows, (mid, tail)) = workload.window_shape();
    println!(
        "timed {:.3} s in {sub_windows} sub-window(s); {} samples ({} in the thinnest sub-window); p50_us reports p{mid}, p99_us reports p{tail}",
        m.window.as_secs_f64(),
        m.stats.samples,
        m.stats.min_sub_window_samples,
    );
    println!(
        "attempted {} failed {} (fail_ratio {fail_ratio:.6}); {} answers checked against the oracle; {} warehouse rows",
        m.attempted, m.failed, m.checked, m.warehouse_rows
    );
    if tail == 99.0 && m.stats.min_sub_window_samples < P99_MIN_SAMPLES {
        println!("  ! a sub-window has fewer than {P99_MIN_SAMPLES} samples: its p99 has under ten samples beyond it");
    }
    for note in &m.notes {
        println!("  ! {note}");
    }
    println!("\n## layer separation");
    for (what, passed) in &m.separation {
        println!("{} {what}", if *passed { "ok  " } else { "FAIL" });
    }
    let valid = m.separation.iter().all(|(_, passed)| *passed);
    if !valid {
        println!("workload INVALID: it no longer isolates the layers it was built to isolate");
    }

    // Every listed metric by name with its unit.
    let table = |title: &str, rows: &[(&'static str, &'static str, Option<f64>)]| {
        println!("\n## {title}");
        for (name, unit, value) in rows {
            match value {
                Some(v) => println!("{name:<36} {v:>16.4} {unit}"),
                None => println!("{name:<36} {:>16} {unit}", "n/a"),
            }
        }
    };
    let finite = |v: Option<&f64>| v.copied().filter(|v| v.is_finite());
    let e2e_rows: Vec<_> = END_TO_END
        .iter()
        .map(|(n, u)| (*n, *u, finite(end_to_end.get(n))))
        .collect();
    let layer_rows: Vec<_> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (*n, *u, finite(layers.get(n))))
        .collect();
    table("end-to-end (untraced window)", &e2e_rows);
    if args.trace {
        println!();
        for line in &m.trace_report {
            println!("{line}");
        }
        table("per-layer (traced run)", &layer_rows);
    }

    // A metric without a value is a probe that no longer reaches its layer:
    // the run fails, it does not report a 0 that reads as an improvement.
    let reported = if args.trace { &layer_rows } else { &e2e_rows };
    let mut body = Vec::new();
    for (name, unit, value) in reported {
        let value = value.ok_or_else(|| format!("no value measured for `{name}`"))?;
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = m.failed == 0 && valid;
    println!();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Warm up, run the timed window, check the answers, and (traced) replay.
fn measure(args: &Args, env: &Env) -> Res<Measured> {
    let workload = args.workload;
    let base_days = env.base.config.range.len_days() as i64;
    let atlas = env.base.atlas();
    let vocab = Arc::new(Vocab::new(&env.system, &atlas, env.full_range));
    let ctl = Control::new(base_days - 1);
    let live = workload == Workload::IngestLive;

    // inputs_digest: the generated files plus the head of every client's
    // request stream (the live reader's is taken at the set-up frontier).
    let mut fnv = Fnv::new();
    env.digest_datasets(&mut fnv)?;
    for client in 0..CLIENTS {
        let mut stream = Stream::new(workload.mix(), args.seed, client, Arc::clone(&vocab));
        stream.set_frontier(base_days - 1);
        for _ in 0..1000 {
            fnv.write(stream.next_request().target.as_bytes());
        }
    }
    println!("# inputs_digest {:016x}", fnv.0);

    let mut before = Counters::default();
    let mut window = Duration::ZERO;
    let mut stream_outcome = None;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| -> Res<Vec<ClientLog>> {
        // One reader beside the writer on `ingest_live`; else two readers.
        let readers = if live { CLIENTS - 1 } else { CLIENTS };
        let handles: Vec<_> = (0..readers)
            .map(|client| {
                let stream = Stream::new(workload.mix(), args.seed, client, Arc::clone(&vocab));
                let stream = if live { stream.always_fresh() } else { stream };
                let ctl = &ctl;
                scope.spawn(move || {
                    run_client(env.addr, stream, ctl, workload.mix() == Mix::Hot, live)
                })
            })
            .collect();
        std::thread::sleep(WARMUP);
        before = Counters::read(env);
        let start = Instant::now();
        let _ = ctl.window_start.set(start);
        ctl.phase.store(drive::MEASURE, Ordering::Release);
        let streamed = match &env.live {
            Some(dataset) => Some(run_ingest_stream(
                env.addr,
                &dataset.paths.root.to_string_lossy(),
                dataset.config.range.start(),
                base_days,
                &ctl,
                Duration::from_secs(150),
            )),
            None => {
                std::thread::sleep(Duration::from_secs(RUN_SECONDS));
                None
            }
        };
        window = start.elapsed();
        ctl.phase.store(drive::STOP, Ordering::Release);
        let mut logs = Vec::new();
        for handle in handles {
            logs.push(handle.join().map_err(|_| "client thread panicked")?);
        }
        if let Some(outcome) = streamed {
            let mut outcome = outcome?;
            window = outcome.elapsed;
            logs.push(std::mem::take(&mut outcome.log));
            stream_outcome = Some(outcome);
        }
        Ok(logs)
    })?;
    let counters = Counters::read(env).since(&before);

    let mut attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    let mut notes: Vec<String> = logs.iter().flat_map(|l| l.notes.iter().cloned()).collect();
    let samples: Vec<(u64, u64)> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let (sub_windows, percentiles) = workload.window_shape();
    let stats = window_stats(&samples, window, sub_windows, percentiles);

    // Answer check, after the window so it cannot disturb it.
    let mut oracle = check::Oracle::new(&env.system)?;
    let mut checked = 0usize;
    let mut wrong = |verdict: Result<(), String>, failed: &mut u64| {
        if let Err(msg) = verdict {
            *failed += 1;
            if notes.len() < 10 {
                notes.push(msg);
            }
        }
    };
    for (target, body) in logs.iter().flat_map(|l| l.checks.iter()) {
        checked += 1;
        wrong(oracle.check(target, body), &mut failed);
    }
    if live {
        // The data moved under the reader, so its answers cannot be
        // compared after the fact; the drained system must still agree with
        // the oracle over fresh temporal and viewport queries.
        let mut client = client::Client::connect(env.addr)?;
        for mix in [Mix::Cold, Mix::Viewport] {
            let mut stream = Stream::new(mix, args.seed, CLIENTS, Arc::clone(&vocab));
            let mut asked = 0;
            while asked < 30 {
                let req = stream.next_request();
                if req.kind != requests::Kind::Analysis {
                    continue;
                }
                asked += 1;
                attempted += 1;
                checked += 1;
                match client.get(&req.target)? {
                    200 => wrong(oracle.check(&req.target, client.body_str()), &mut failed),
                    status => wrong(Err(format!("{status} for {}", req.target)), &mut failed),
                }
            }
        }
    }
    let warehouse_rows = oracle.warehouse_rows() as u64;
    drop(oracle);

    // Layer separation: each workload must still isolate what it was built
    // to isolate, or its numbers mean something else.
    let hit_ratio = ratio(counters.resp_hits, counters.resp_misses);
    let cube_fetches = counters.cube_hits + counters.cube_misses;
    let block_fetches = counters.block_hits + counters.block_misses;
    let mut separation = Vec::new();
    match workload {
        Workload::DashHot => {
            separation.push((
                format!("response-cache hit ratio {hit_ratio:.4} >= 0.8"),
                hit_ratio >= 0.8,
            ));
        }
        Workload::DashCold => {
            separation.push((
                format!("response-cache hit ratio {hit_ratio:.4} <= 0.05"),
                hit_ratio <= 0.05,
            ));
            separation.push((
                format!("dense cube fetches {cube_fetches} > 0, spatial block fetches {block_fetches} == 0"),
                cube_fetches > 0 && block_fetches == 0,
            ));
        }
        Workload::Viewport => {
            separation.push((
                format!("response-cache hit ratio {hit_ratio:.4} <= 0.05"),
                hit_ratio <= 0.05,
            ));
            separation.push((
                format!("spatial block fetches {block_fetches} > 0, dense cube fetches {cube_fetches} == 0"),
                block_fetches > 0 && cube_fetches == 0,
            ));
        }
        Workload::IngestLive => {
            let (Some(stream), Some(live)) = (&stream_outcome, &env.live) else {
                return Err("ingest_live ran without its stream".into());
            };
            let want_days = live.config.range.len_days() as u64;
            let want_months = live.months().len() as u64;
            separation.push((
                format!("streamed {} of {want_days} days", stream.days),
                stream.days == want_days,
            ));
            separation.push((
                format!("refined {} of {want_months} months", stream.months),
                stream.months == want_months,
            ));
            // The stale-read check means something only when it reloads a
            // tile the response cache held before the publish.
            separation.push((
                format!(
                    "{} of {} freshness probes reloaded a cached tile",
                    stream.probes_of_cached_tile, stream.probes
                ),
                stream.probes_of_cached_tile * 2 > stream.probes,
            ));
        }
    }

    let (layers, trace_report) = if args.trace {
        traced(args, env, &vocab)?
    } else {
        Default::default()
    };
    Ok(Measured {
        stats,
        window,
        attempted,
        failed,
        notes,
        checked,
        counters,
        live_days_per_s: stream_outcome.map(|s| s.days as f64 / window.as_secs_f64()),
        warehouse_rows,
        separation,
        layers,
        trace_report,
    })
}

/// The traced run's in-process half: replay, probes, layer table, spans.
fn traced(
    args: &Args,
    env: &Env,
    vocab: &Arc<Vocab>,
) -> Res<(BTreeMap<&'static str, f64>, Vec<String>)> {
    let system: &rased_core::Rased = &env.system;
    let targets = |mix: Mix, n: usize| -> Vec<String> {
        let mut stream = Stream::new(mix, args.seed, 0, Arc::clone(vocab));
        (0..n).map(|_| stream.next_request().target).collect()
    };
    let own = targets(args.workload.mix(), REPLAY_REQUESTS);

    // The same stream twice over a fresh response cache each time: tracer
    // off, then on. The ratio of the two request medians is the overhead.
    let mut scrap = Samples::default();
    let mut untraced = Replay::new(system);
    untraced.run(&own, &mut Tracer::new(false), &mut scrap)?;
    let mut tracer = Tracer::new(true);
    let mut primary = Samples::default();
    let mut replay = Replay::new(system);
    replay.run(&own, &mut tracer, &mut primary)?;
    primary.absorb_spans(&tracer);
    let untraced_us = median_f64(&mut untraced.request_ns) / 1e3;
    let traced_us = median_f64(&mut replay.request_ns) / 1e3;

    let mut report = vec![
        format!(
            "## layers of the in-process request ({} requests, self time = span minus children)",
            own.len()
        ),
        format!(
            "{:<32} {:>8} {:>9} {:>12} {:>12} {:>7}",
            "span", "count", "per req", "median us", "self us", "share"
        ),
    ];
    for row in trace::layer_table(&tracer) {
        report.push(format!(
            "{:<32} {:>8} {:>9.3} {:>12.3} {:>12.3} {:>6.1}%",
            row.name,
            row.count,
            row.per_request,
            row.median_us,
            row.self_median_us,
            row.share * 100.0
        ));
    }
    let out = std::path::Path::new("benchmark/out/trace.json");
    tracer.write_json(out, args.workload.name(), args.seed)?;
    report.push(format!(
        "{} spans written to {}",
        tracer.spans.len(),
        out.display()
    ));

    // Layers this workload's own requests never reach are measured on the
    // other mixes of the same seed, so every per-layer metric has a value.
    let mut other = Samples::default();
    let mut other_tracer = Tracer::new(true);
    let mut other_replay = Replay::new(system);
    for mix in [Mix::Hot, Mix::Cold, Mix::Viewport] {
        if mix != args.workload.mix() {
            other_replay.run(&targets(mix, 300), &mut other_tracer, &mut other)?;
        }
    }
    other.absorb_spans(&other_tracer);

    let pick = |spatial: bool| -> Vec<rased_core::AnalysisQuery> {
        let of = |r: &Replay| -> Vec<_> {
            r.executed
                .iter()
                .filter(|q| q.bbox.is_some() == spatial)
                .take(60)
                .cloned()
                .collect()
        };
        let mine = of(&replay);
        if mine.len() >= 20 {
            mine
        } else {
            of(&other_replay)
        }
    };
    trace::probe_temporal(system, &pick(false), &mut primary)?;
    trace::probe_spatial(system, &pick(true), &mut primary)?;
    trace::probe_write_path(
        env.live.as_ref().unwrap_or(&env.base),
        &env.scratch.path().join("probe"),
        &mut primary,
    )?;

    let mut layers = BTreeMap::new();
    for (name, _, agg) in PER_LAYER {
        let from = if primary.count(name) > 0 {
            &mut primary
        } else {
            &mut other
        };
        let value = match agg {
            Agg::Median => from.median(name),
            Agg::Mean => from.mean(name),
            Agg::Direct => None,
        };
        if let Some(value) = value {
            layers.insert(name, value);
        }
    }
    layers.insert("trace.request_us", untraced_us);
    layers.insert("trace.overhead_ratio", traced_us / untraced_us.max(1e-9));
    Ok((layers, report))
}
