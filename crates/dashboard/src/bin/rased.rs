//! The `rased` CLI: generate a synthetic dataset, ingest it, query it, and
//! serve the dashboard.
//!
//! ```text
//! rased generate --out DIR [--seed N] [--countries N] [--start YYYY-MM-DD] [--end YYYY-MM-DD] [--edits N]
//! rased ingest   --data DIR --system DIR [--shards N] [--verbose]
//! rased query    --system DIR --start YYYY-MM-DD --end YYYY-MM-DD [--group country,element,...]
//!                [--countries US,DE] [--updates create,update] [--value percentage] [--chart bar|table|series]
//!                [--threads N]
//! rased serve    --system DIR [--addr 127.0.0.1:7878] [--workers N] [--queue N]
//!                [--read-timeout-ms N] [--write-timeout-ms N] [--max-body-kb N] [--threads N]
//!                [--max-active-per-client N] [--shed-threshold N] [--trust-forwarded-for]
//!                [--follow DATA_DIR] [--grid-rows N] [--grid-cols N] [--spatial-shards N]
//!                [--spatial-cache-blocks N]
//! rased demo     --dir DIR  (generate + ingest + serve in one step)
//! ```
#![expect(clippy::disallowed_methods, reason = "a CLI reads its arguments")]

use rased_core::{CubeSchema, IngestController, IngestPhase, Rased, RasedConfig, ServerConfig};
use rased_dashboard::{charts, parse_analysis_query, DashboardServer};
use rased_osm_gen::{Dataset, DatasetConfig};
use rased_temporal::{Date, DateRange};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

fn run(args: &[String]) -> Result<(), AnyError> {
    let Some((command, rest)) = args.split_first() else {
        print_usage();
        return Ok(());
    };
    let flags = parse_flags(rest)?;
    match command.as_str() {
        "generate" => generate(&flags),
        "ingest" => ingest(&flags),
        "query" => query(&flags),
        "serve" => serve(&flags),
        "demo" => demo(&flags),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `rased help`)").into()),
    }
}

fn print_usage() {
    println!(
        "rased — scalable monitoring of OSM road-network updates (ICDE 2022 reproduction)\n\n\
         commands:\n\
         \x20 generate --out DIR [--seed N] [--countries N] [--start D] [--end D] [--edits N]\n\
         \x20 ingest   --data DIR --system DIR [--shards N] [--verbose]\n\
         \x20 query    --system DIR --start D --end D [--group country,element,road,update,day,week,month,year]\n\
         \x20          [--countries US,DE] [--updates create,update] [--value percentage] [--chart table|bar|series|choropleth|csv] [--threads N] [--shards N]\n\
         \x20 serve    --system DIR [--addr HOST:PORT] [--workers N] [--queue N] [--shards N]\n\
         \x20          [--read-timeout-ms N] [--write-timeout-ms N] [--max-body-kb N] [--threads N]\n\
         \x20          [--max-active-per-client N] [--shed-threshold N] [--trust-forwarded-for] [--follow DATA_DIR]\n\
         \x20          [--no-response-cache] [--response-cache-mb N] [--response-cache-entries N]\n\
         \x20          [--grid-rows N] [--grid-cols N] [--spatial-shards N] [--spatial-cache-blocks N]\n\
         \x20 demo     --dir DIR [--seed N]"
    );
}

/// Parse `--key value` pairs and bare `--switch`es. A flag followed by
/// another flag (or by nothing) is a valueless switch and stores `""` —
/// so `--verbose` and a bare `--follow` parse instead of demanding a
/// value they don't have.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, AnyError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        let key = arg.strip_prefix("--").ok_or_else(|| format!("expected --flag, got `{arg}`"))?;
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                flags.insert(key.to_string(), v.clone());
                i += 2;
            }
            _ => {
                flags.insert(key.to_string(), String::new());
                i += 1;
            }
        }
    }
    Ok(flags)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, AnyError> {
    flags.get(key).map(|s| s.as_str()).ok_or_else(|| format!("missing --{key}").into())
}

fn generate(flags: &HashMap<String, String>) -> Result<(), AnyError> {
    let out = get(flags, "out")?;
    let mut config = DatasetConfig::small(
        flags.get("seed").map(|s| s.parse()).transpose()?.unwrap_or(7),
    );
    if let Some(n) = flags.get("countries") {
        config.world.n_countries = n.parse()?;
    }
    if let Some(n) = flags.get("edits") {
        config.sim.daily_edits_mean = n.parse()?;
    }
    let start: Date = flags.get("start").map(|s| s.parse()).transpose()?.unwrap_or(config.range.start());
    let end: Date = flags.get("end").map(|s| s.parse()).transpose()?.unwrap_or(config.range.end());
    config.range = DateRange::new(start, end);

    println!(
        "generating {} days over {} countries into {out} ...",
        config.range.len_days(),
        config.world.n_countries
    );
    let dataset = Dataset::generate(std::path::Path::new(out), config)?;
    println!("done: {} ground-truth updates", dataset.truth.len());
    Ok(())
}

fn open_or_create_system(
    dir: &str,
    dataset: Option<&Dataset>,
    flags: &HashMap<String, String>,
) -> Result<Rased, AnyError> {
    // `--threads N` sizes the parallel query executor (0 = all cores);
    // per-process tuning, never persisted in the manifest. So is
    // `--spatial-cache-blocks N`, the bank's block-LRU capacity.
    let threads: Option<usize> = flags.get("threads").map(|s| s.parse()).transpose()?;
    let cache_blocks: Option<usize> =
        flags.get("spatial-cache-blocks").map(|s| s.parse()).transpose()?;
    // `--shards N` partitions the cube store by country; `--grid-rows`,
    // `--grid-cols` and `--spatial-shards` shape the viewport grid and
    // its longitude bands. All structural: they shape the on-disk layout,
    // so they bind at create time and are persisted in the manifest;
    // reopening with a different value is an error rather than a silent
    // re-layout.
    let shards: Option<usize> = flags.get("shards").map(|s| s.parse()).transpose()?;
    let grid_rows: Option<u32> = flags.get("grid-rows").map(|s| s.parse()).transpose()?;
    let grid_cols: Option<u32> = flags.get("grid-cols").map(|s| s.parse()).transpose()?;
    let spatial_shards: Option<usize> =
        flags.get("spatial-shards").map(|s| s.parse()).transpose()?;
    let path = std::path::Path::new(dir);
    if path.join("rased.manifest").exists() {
        let mut config = RasedConfig::load(path)?;
        if let Some(t) = threads {
            config.exec.threads = t;
        }
        if let Some(b) = cache_blocks {
            config.spatial.cache_blocks = b;
        }
        if let Some(s) = shards {
            if s.max(1) != config.shard.effective_shards() {
                return Err(format!(
                    "--shards {s} conflicts with existing store ({} shards); \
                     the shard count is fixed at create time",
                    config.shard.effective_shards()
                )
                .into());
            }
        }
        for (flag, want, have) in [
            ("grid-rows", grid_rows.map(|v| v as usize), config.spatial.grid_rows as usize),
            ("grid-cols", grid_cols.map(|v| v as usize), config.spatial.grid_cols as usize),
            ("spatial-shards", spatial_shards.map(|v| v.max(1)), config.spatial.effective_shards()),
        ] {
            if let Some(want) = want {
                if want != have {
                    return Err(format!(
                        "--{flag} {want} conflicts with existing store ({have}); \
                         spatial layout is fixed at create time"
                    )
                    .into());
                }
            }
        }
        Ok(Rased::open(config)?)
    } else {
        let mut config = RasedConfig::new(path);
        if let Some(ds) = dataset {
            config = config.with_schema(CubeSchema::new(
                ds.config.world.n_countries,
                ds.config.sim.n_road_types,
            ));
        }
        if let Some(t) = threads {
            config.exec.threads = t;
        }
        if let Some(s) = shards {
            config.shard = rased_core::ShardConfig { shards: s.max(1) };
        }
        if let Some(r) = grid_rows {
            config.spatial.grid_rows = r.max(1);
        }
        if let Some(c) = grid_cols {
            config.spatial.grid_cols = c.max(1);
        }
        if let Some(s) = spatial_shards {
            config.spatial.shards = s.max(1);
        }
        if let Some(b) = cache_blocks {
            config.spatial.cache_blocks = b;
        }
        Ok(Rased::create(config)?)
    }
}

fn ingest(flags: &HashMap<String, String>) -> Result<(), AnyError> {
    let data = get(flags, "data")?;
    let system_dir = get(flags, "system")?;
    let dataset = Dataset::load_manifest(std::path::Path::new(data))?;
    let system = open_or_create_system(system_dir, Some(&dataset), flags)?;
    println!("ingesting {} ...", data);
    let report = system.ingest_dataset(&dataset)?;
    println!(
        "ingested {} days, refined {} months: {} daily records ({} skipped), {} monthly records; {} cube maintenance ops",
        report.days,
        report.months,
        report.daily.emitted,
        report.daily.inspected() - report.daily.emitted,
        report.monthly.emitted,
        report.maintenance_ops,
    );
    if flags.contains_key("verbose") {
        for (name, cs) in [("daily", &report.daily), ("monthly", &report.monthly)] {
            println!(
                "  {name} skips: {} not-road, {} no-changeset-bbox, {} no-country",
                cs.skipped_not_road, cs.skipped_no_changeset, cs.skipped_no_country,
            );
        }
    }
    Ok(())
}

fn query(flags: &HashMap<String, String>) -> Result<(), AnyError> {
    let system = open_or_create_system(get(flags, "system")?, None, flags)?;
    // Reuse the HTTP API's parameter vocabulary.
    let params: Vec<(String, String)> =
        flags.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    let q = parse_analysis_query(&system, &params)?;
    let result = system.query(&q)?;

    match flags.get("chart").map(|s| s.as_str()).unwrap_or("table") {
        "bar" => print!("{}", charts::bar_chart(&system, &result, 20, 40)),
        "series" => print!("{}", charts::time_series(&system, &result, 60)),
        "choropleth" => {
            print!("{}", charts::choropleth(&system, &result, system.countries().len()))
        }
        "csv" => print!("{}", charts::csv(&system, &result)),
        _ => print!("{}", charts::table(&system, &result, 30)),
    }
    let s = &result.stats;
    println!(
        "\n{} rows · cubes: {} cached + {} disk (+{} empty days) · wall {:?} · modeled I/O {:?}",
        result.rows.len(),
        s.cubes_from_cache,
        s.cubes_from_disk,
        s.empty_days,
        s.wall,
        s.io.modeled,
    );
    Ok(())
}

/// Build a [`ServerConfig`] from the `serve` flags (defaults otherwise).
fn server_config(flags: &HashMap<String, String>) -> Result<ServerConfig, AnyError> {
    let mut cfg = ServerConfig::default();
    if let Some(n) = flags.get("workers") {
        cfg.workers = n.parse()?;
    }
    if let Some(n) = flags.get("queue") {
        cfg.queue_depth = n.parse()?;
    }
    if let Some(ms) = flags.get("read-timeout-ms") {
        cfg.read_timeout = std::time::Duration::from_millis(ms.parse()?);
    }
    if let Some(ms) = flags.get("write-timeout-ms") {
        cfg.write_timeout = std::time::Duration::from_millis(ms.parse()?);
    }
    // Admission control (0 = disabled): per-client expensive-request cap,
    // global shed threshold, and whether X-Forwarded-For names the client.
    if let Some(n) = flags.get("max-active-per-client") {
        cfg.max_active_per_client = n.parse()?;
    }
    if let Some(n) = flags.get("shed-threshold") {
        cfg.shed_threshold = n.parse()?;
    }
    cfg.trust_forwarded_for = flags.contains_key("trust-forwarded-for");
    // Response cache: on by default; size knobs take effect only while on.
    cfg.response_cache = !flags.contains_key("no-response-cache");
    // Size flags. A product past `usize::MAX` is an error, never a wrapped
    // budget; a zero cache budget would cache nothing, which is what
    // `--no-response-cache` says.
    for (name, unit, slot, is_cache) in [
        ("max-body-kb", 1024, &mut cfg.max_body_bytes, false),
        ("response-cache-mb", 1024 * 1024, &mut cfg.response_cache_bytes, true),
        ("response-cache-entries", 1, &mut cfg.response_cache_entries, true),
    ] {
        let Some(n) = flags.get(name) else { continue };
        *slot = match n.parse::<usize>()?.checked_mul(unit) {
            None => return Err(format!("--{name} {n} overflows").into()),
            Some(0) if is_cache => {
                return Err(format!("--{name} 0 caches nothing; pass --no-response-cache").into())
            }
            Some(v) => v,
        };
    }
    Ok(cfg)
}

fn serve(flags: &HashMap<String, String>) -> Result<(), AnyError> {
    let config = server_config(flags)?;
    let system = Arc::new(open_or_create_system(get(flags, "system")?, None, flags)?);
    let addr = flags.get("addr").map(|s| s.as_str()).unwrap_or("127.0.0.1:7878");

    // `--follow DATA_DIR` (or a bare `--follow` with `--data DIR`): tail the
    // generator's output — whenever the writer goes idle, re-enqueue the
    // directory. The controller skips already-published days, so each pass
    // only picks up what appeared since.
    let follow_dir = match flags.get("follow") {
        Some(v) if !v.is_empty() => Some(v.clone()),
        Some(_) => Some(get(flags, "data")?.to_string()),
        None => None,
    };
    // The followed directory (or `--data`) doubles as the ingest root:
    // POST /api/ingest only accepts directories that resolve under it.
    // Without either flag there is no root and HTTP enqueueing is refused.
    let ingest_root = follow_dir.clone().or_else(|| flags.get("data").cloned());

    // Serving always carries the streaming write path: POST /api/ingest
    // enqueues onto this controller while queries keep running.
    let ingest = Arc::new(IngestController::start(Arc::clone(&system))?);
    let server = DashboardServer::bind_with(Arc::clone(&system), addr, config)?
        .with_ingest(Arc::clone(&ingest), ingest_root.clone().map(std::path::PathBuf::from));
    let addr = server.addr()?;
    println!(
        "RASED dashboard listening on http://{addr} ({} workers, queue depth {})",
        server.config().effective_workers(),
        server.config().queue_depth,
    );
    if server.config().response_cache {
        println!(
            "response cache: {} MiB / {} entries, keyed by publish epoch",
            server.config().response_cache_bytes / (1024 * 1024),
            server.config().response_cache_entries,
        );
    } else {
        println!("response cache: disabled (--no-response-cache)");
    }
    println!("serving-tier telemetry at http://{addr}/api/metrics");
    match &ingest_root {
        Some(root) => println!("POST /api/ingest confined to {root}"),
        None => println!("POST /api/ingest disabled (pass --data or --follow to set a root)"),
    }
    let stop_follow = Arc::new(AtomicBool::new(false));
    let follower = follow_dir.map(|dir| {
        println!("following {dir} for new days");
        let ctl = Arc::clone(&ingest);
        let stop = Arc::clone(&stop_follow);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let s = ctl.status();
                if s.phase == IngestPhase::Idle && s.queued == 0 {
                    // Full queue just means a pass is already pending.
                    let _ = ctl.enqueue(std::path::PathBuf::from(&dir));
                }
                for _ in 0..20 {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }
        })
    });

    let served = server.serve();
    stop_follow.store(true, Ordering::Release);
    if let Some(h) = follower {
        let _ = h.join();
    }
    ingest.shutdown();
    served?;
    let m = server.metrics();
    println!(
        "shut down: {} connections ({} rejected busy, {} timeouts), {} requests",
        m.completed(),
        m.queue_full_total(),
        m.timeouts_total(),
        m.requests_total(),
    );
    Ok(())
}

fn demo(flags: &HashMap<String, String>) -> Result<(), AnyError> {
    let dir = get(flags, "dir")?.to_string();
    let mut all = flags.clone();
    all.insert("out".into(), format!("{dir}/osm"));
    generate(&all)?;
    all.insert("data".into(), format!("{dir}/osm"));
    all.insert("system".into(), format!("{dir}/system"));
    ingest(&all)?;
    serve(&all)
}
