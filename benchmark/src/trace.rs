//! The traced run: spans around the calls into each layer, recorded from
//! the benchmark's side of every public function (spans inside the program
//! are a later change).
//!
//! Three parts, all single-threaded and in-process, all after the timed
//! HTTP window so they cannot disturb it:
//!
//! 1. [`Replay`] re-composes one request out of the public layer calls the
//!    server makes — `read_request`, `parse_analysis_query`,
//!    `RespKey::with_stamp` + `ResponseCache::lookup`, `Rased::query`,
//!    `result_to_json`, `CachedResponse::new` + `write_into` — once with
//!    the tracer off and once with it on, over the same request stream.
//! 2. [`probe_temporal`] / [`probe_spatial`] time the calls the engine
//!    makes internally (plan, fetch, page read, decode, fold, block fetch,
//!    boundary scan) on those same queries.
//! 3. [`probe_write_path`] times the write side on scratch stores.

use crate::drive::median_f64;
use crate::setup::{schema, system_config, tree_bytes, Res};
use rased_collector::{DailyCrawler, MonthlyCrawler};
use rased_core::model::{ChangesetMeta, ElementType, UpdateType};
use rased_core::{
    AnalysisQuery, DataCube, DateRange, DimSelection, GroupDim, GroupKey, IoCostModel, Period,
    PlannerKind, Rased, ShardedIndex, SpatialBank, Warehouse,
};
use rased_cube::SparseBlock;
use rased_dashboard::http::{read_request, Limits};
use rased_dashboard::respcache::SPATIAL_STAMP_BASE;
use rased_dashboard::{
    parse_analysis_query, parse_query_string, result_to_json, CachedResponse, RespKey,
    ResponseCache,
};
use rased_geo::{BBox, CellId};
use rased_index::{with_planner, BlockSource, CubeSource, FetchOutcome, LatticePlanner};
use rased_osm_gen::Dataset;
use rased_osm_xml::ChangesetReader;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span; its id is its index in [`Tracer::spans`].
pub struct Span {
    pub parent: Option<u32>,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Off, `begin`/`end` are a branch each.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            req: self.req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
    }

    fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = self
            .stack
            .pop()
            .and_then(|id| self.spans.get_mut(id as usize))
        {
            span.end_ns = now;
        }
    }

    /// `benchmark/out/trace.json`: every span, flat, parents by id.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> Res<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if id == 0 { "" } else { "," },
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()?;
        Ok(())
    }
}

/// One row of the layer table: a span name's median, count per request and
/// share of the total request time, by self time (span minus children).
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub per_request: f64,
    pub median_us: f64,
    pub self_median_us: f64,
    pub share: f64,
}

pub fn layer_table(tracer: &Tracer) -> Vec<LayerRow> {
    let mut child_ns = vec![0u64; tracer.spans.len()];
    for s in &tracer.spans {
        if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p as usize)) {
            *slot += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let (mut requests, mut request_ns) = (0usize, 0u64);
    for (s, children) in tracer.spans.iter().zip(&child_ns) {
        let total = s.end_ns - s.start_ns;
        if s.parent.is_none() {
            requests += 1;
            request_ns += total;
        }
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(total as f64 / 1e3);
        entry.1.push(total.saturating_sub(*children) as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (mut total, mut own))| LayerRow {
            name,
            count: total.len(),
            per_request: total.len() as f64 / requests.max(1) as f64,
            share: own.iter().sum::<f64>() * 1e3 / request_ns.max(1) as f64,
            median_us: median_f64(&mut total),
            self_median_us: median_f64(&mut own),
        })
        .collect()
}

/// Named sample lists; every per-layer timing ends up as a median of one.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }

    pub fn median(&mut self, name: &str) -> Option<f64> {
        self.0
            .get_mut(name)
            .filter(|v| !v.is_empty())
            .map(|v| median_f64(v))
    }

    pub fn mean(&self, name: &str) -> Option<f64> {
        self.0
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
    }

    /// Every span's duration in µs, under the span's name (span names are
    /// the per-layer metric names).
    pub fn absorb_spans(&mut self, tracer: &Tracer) {
        for s in &tracer.spans {
            self.add(s.name, (s.end_ns - s.start_ns) as f64 / 1e3);
        }
    }
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// The in-process request path, built from public layer calls only.
pub struct Replay<'a> {
    system: &'a Rased,
    cache: ResponseCache,
    limits: Limits,
    wire: Vec<u8>,
    /// Wall ns of each replayed request, measured outside the tracer so the
    /// traced and untraced passes compare like with like.
    pub request_ns: Vec<f64>,
    /// Queries that missed the replay's response cache and executed.
    pub executed: Vec<AnalysisQuery>,
}

impl<'a> Replay<'a> {
    /// A fresh replay with its own empty response cache of the server's
    /// default size, so hit/miss behaviour matches a cold server.
    pub fn new(system: &'a Rased) -> Replay<'a> {
        let config = rased_core::ServerConfig::default();
        Replay {
            system,
            cache: ResponseCache::new(
                config.effective_response_cache_bytes(),
                config.effective_response_cache_entries(),
            ),
            limits: Limits::from_config(&config),
            wire: Vec::new(),
            request_ns: Vec::new(),
            executed: Vec::new(),
        }
    }

    /// The stamp the event loop would key this request under, simplified to
    /// the full epoch vector of the hierarchy it reads.
    fn stamp(&self, spatial: bool) -> Vec<(u16, u64)> {
        if spatial {
            let epochs = self.system.spatial_bank().epochs();
            epochs
                .iter()
                .enumerate()
                .map(|(b, &e)| (SPATIAL_STAMP_BASE | b as u16, e))
                .collect()
        } else {
            let epochs = self.system.index().epochs();
            epochs
                .iter()
                .enumerate()
                .map(|(s, &e)| (s as u16, e))
                .collect()
        }
    }

    pub fn run(
        &mut self,
        targets: &[String],
        tracer: &mut Tracer,
        samples: &mut Samples,
    ) -> Res<()> {
        for (i, target) in targets.iter().enumerate() {
            tracer.req = i as u32;
            let raw = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
            let t = Instant::now();
            tracer.begin("request");
            let outcome = self.handle(raw.as_bytes(), tracer, samples);
            tracer.end();
            self.request_ns.push(t.elapsed().as_nanos() as f64);
            outcome.map_err(|e| format!("replay of {target}: {e}"))?;
        }
        Ok(())
    }

    fn handle(&mut self, raw: &[u8], tr: &mut Tracer, samples: &mut Samples) -> Result<(), String> {
        let system = self.system;
        tr.begin("dashboard.http_parse_us");
        let mut reader = raw;
        let parsed = read_request(&mut reader, &self.limits);
        tr.end();
        let req = parsed.map_err(|e| e.message())?.ok_or("empty request")?;
        let (path, query) = req.path_and_query();

        enum Work {
            Query(AnalysisQuery),
            Sample(BBox, usize),
            Static,
        }
        tr.begin("dashboard.api_parse_us");
        let params = parse_query_string(query);
        let work = match path {
            "/api/analysis" => parse_analysis_query(system, &params)
                .map(Work::Query)
                .map_err(|e| e.to_string()),
            "/api/sample" => {
                let get = |k: &str| {
                    params
                        .iter()
                        .find(|(pk, _)| pk == k)
                        .and_then(|(_, v)| v.parse::<f64>().ok())
                        .unwrap_or(0.0)
                };
                let bbox = BBox::from_deg(
                    get("min_lat"),
                    get("min_lon"),
                    get("max_lat"),
                    get("max_lon"),
                );
                Ok(Work::Sample(bbox, get("limit") as usize))
            }
            _ => Ok(Work::Static),
        };
        tr.end();
        let work = work?;

        let spatial = matches!(&work, Work::Query(q) if q.bbox.is_some());
        let cached = if matches!(work, Work::Static) {
            None
        } else {
            tr.begin("dashboard.respcache_probe_us");
            let key = RespKey::with_stamp(path, query, self.stamp(spatial));
            let hit = self.cache.lookup(&key);
            tr.end();
            Some((key, hit))
        };

        self.wire.clear();
        if let Some((_, Some(resp))) = &cached {
            tr.begin("dashboard.frame_us");
            resp.write_into(&mut self.wire, true);
            tr.end();
            black_box(&self.wire);
            return Ok(());
        }
        let body = match work {
            Work::Query(q) => {
                tr.begin(if spatial {
                    "query.viewport_us"
                } else {
                    "query.execute_us"
                });
                let result = system.query(&q);
                tr.end();
                let result = result.map_err(|e| e.to_string())?;
                let st = &result.stats;
                if spatial {
                    samples.add("query.scan_rows_per_query", st.scan_rows as f64);
                } else {
                    samples.add(
                        "query.cubes_per_query",
                        (st.cubes_from_cache + st.cubes_from_disk) as f64,
                    );
                }
                samples.add("query.rows_per_query", result.rows.len() as f64);
                samples.add("storage.reads_per_query", st.io.reads as f64);
                samples.add(
                    "storage.modeled_io_us_per_query",
                    st.io.modeled.as_micros() as f64,
                );
                tr.begin("dashboard.render_us");
                let body = result_to_json(system, &result);
                tr.end();
                samples.add("dashboard.render_bytes", body.len() as f64);
                self.executed.push(q);
                body
            }
            Work::Sample(bbox, limit) => {
                tr.begin("warehouse.sample_region_us");
                let rows = system.sample_region(&bbox, limit);
                tr.end();
                format!("{{\"samples\":{}}}", rows.map_err(|e| e.to_string())?.len())
            }
            Work::Static => "{\"system\":\"RASED\"}".to_string(),
        };
        tr.begin("dashboard.frame_us");
        let resp = CachedResponse::new(200, "application/json", body.into_bytes());
        resp.write_into(&mut self.wire, true);
        tr.end();
        if let Some((key, _)) = &cached {
            self.cache.insert(key, &resp);
        }
        black_box(&self.wire);
        Ok(())
    }
}

fn selection(q: &AnalysisQuery) -> DimSelection {
    let mut sel = DimSelection::all(schema());
    if let Some(f) = &q.element_types {
        sel = sel.with_element_types(f);
    }
    if let Some(f) = &q.countries {
        sel = sel.with_countries(f);
    }
    if let Some(f) = &q.road_types {
        sel = sel.with_road_types(f);
    }
    if let Some(f) = &q.update_types {
        sel = sel.with_update_types(f);
    }
    sel
}

/// The group key of one cell, as the engine builds it.
fn group_key(
    q: &AnalysisQuery,
    date: Option<Period>,
    et: usize,
    c: usize,
    r: usize,
    u: usize,
) -> GroupKey {
    let mut key = GroupKey {
        date,
        ..GroupKey::default()
    };
    for dim in &q.group_by {
        match dim {
            GroupDim::ElementType => key.element_type = ElementType::from_index(et),
            GroupDim::Country => key.country = Some(rased_core::model::CountryId(c as u16)),
            GroupDim::RoadType => key.road_type = Some(rased_core::model::RoadTypeId(r as u16)),
            GroupDim::UpdateType => key.update_type = UpdateType::from_index(u),
            GroupDim::Date(_) => {}
        }
    }
    key
}

/// Cubes probed per (query, shard): enough to see both fetch outcomes,
/// bounded so a year-long daily plan does not dominate the run.
const CUBES_PER_PLAN: usize = 16;

/// Plan / fetch / page read / decode / fold, on the temporal `queries`.
pub fn probe_temporal(system: &Rased, queries: &[AnalysisQuery], out: &mut Samples) -> Res<()> {
    let index = system.index();
    let shards = index.shard_count();
    for q in queries {
        let sel = selection(q);
        for (slot, store) in index.stores().iter().enumerate() {
            let routed = q.countries.as_ref().is_none_or(|cs| {
                cs.iter()
                    .any(|c| rased_index::shard_for(*c, shards) == slot)
            });
            if !routed {
                continue;
            }
            let snap = store.snapshot();
            let t = Instant::now();
            let plan = with_planner(store, |p| p.plan(q.range, PlannerKind::ExactDp));
            out.add("index.plan_us", us(t));
            // Stride over the plan so both ends of the window (old days on
            // disk, recent ones in the recency cache) are probed.
            let real: Vec<_> = plan
                .cubes
                .iter()
                .filter(|c| c.source != CubeSource::Empty)
                .collect();
            let stride = real.len().div_ceil(CUBES_PER_PLAN).max(1);
            for planned in real.iter().step_by(stride) {
                let t = Instant::now();
                let fetched = store.fetch_at(&snap, planned.period)?;
                let took = us(t);
                let Some((cube, outcome)) = fetched else {
                    continue;
                };
                out.add(
                    match outcome {
                        FetchOutcome::Cache => "index.fetch_cached_us",
                        FetchOutcome::Disk => "index.fetch_disk_us",
                    },
                    took,
                );
                if let Some(page) = snap.page(planned.period) {
                    let t = Instant::now();
                    let bytes = store.file().read_page_vec(page)?;
                    out.add("storage.page_read_us", us(t));
                    let t = Instant::now();
                    let decoded = DataCube::from_bytes(schema(), &bytes)?;
                    out.add("cube.decode_us", us(t));
                    black_box(decoded);
                }
                let date = q
                    .date_granularity()
                    .map(|g| Period::containing(g, planned.period.start()));
                let mut groups: HashMap<GroupKey, u64> = HashMap::new();
                let t = Instant::now();
                cube.for_each_selected(&sel, |et, c, r, u, v| {
                    *groups.entry(group_key(q, date, et, c, r, u)).or_insert(0) += v;
                });
                let ns = t.elapsed().as_nanos() as f64;
                out.add(
                    "query.fold_ns_per_cell",
                    ns / sel.cell_count().max(1) as f64,
                );
                black_box(groups);
            }
        }
    }
    Ok(())
}

const BLOCKS_PER_PLAN: usize = 32;
const SCANS_PER_QUERY: usize = 4;

/// Cover / block fetch / sparse decode / boundary scan / sample, on the
/// `bbox=` `queries`.
pub fn probe_spatial(system: &Rased, queries: &[AnalysisQuery], out: &mut Samples) -> Res<()> {
    let bank = system.spatial_bank();
    let grid = bank.grid();
    for q in queries {
        let Some(bbox) = q.bbox else { continue };
        let t = Instant::now();
        let cover = grid.cover(&bbox);
        out.add("geo.cover_us", us(t));

        let snaps = bank.snapshots();
        let exists = |cell: CellId, period: Period| {
            snaps
                .get(bank.shard_of(cell))
                .is_some_and(|snap| bank.has_block(snap, cell, period))
        };
        let plan = LatticePlanner::new(&exists).plan_viewport(&cover.interior, q.range);
        let blocks: Vec<_> = plan
            .blocks
            .iter()
            .filter(|b| b.source == BlockSource::Block)
            .collect();
        let stride = blocks.len().div_ceil(BLOCKS_PER_PLAN).max(1);
        for b in blocks.iter().step_by(stride) {
            let shard = bank.shard_of(b.cell);
            let (Some(snap), Some(store)) = (snaps.get(shard), bank.stores().get(shard)) else {
                continue;
            };
            let t = Instant::now();
            let block = bank.fetch_block(shard, snap, b.cell, b.period)?;
            out.add("index.block_fetch_us", us(t));
            black_box(block);
            if let Some((_, bytes)) = store.fetch_block_at(snap, bank.key_for(b.cell, b.period))? {
                let t = Instant::now();
                let decoded = SparseBlock::from_bytes(schema(), &bytes)?;
                out.add("cube.sparse_decode_us", us(t));
                black_box(decoded);
            }
        }
        for cell in cover.boundary.iter().take(SCANS_PER_QUERY) {
            let Some(cell_box) = grid.cell_bbox(*cell) else {
                continue;
            };
            let mut rows = 0u64;
            let t = Instant::now();
            system
                .warehouse()
                .scan_region(&cell_box, |r| rows += q.range.contains(r.date) as u64)?;
            out.add("warehouse.scan_region_us", us(t));
            black_box(rows);
        }
        let t = Instant::now();
        let sample = system.warehouse().sample_region(&bbox, 100)?;
        out.add("warehouse.sample_region_us", us(t));
        black_box(sample);
    }
    Ok(())
}

const WRITE_PROBE_DAYS: usize = 12;

/// The write path, stage by stage, on scratch stores under `dir`: crawl one
/// day's / month's files, build a cube, insert into a warehouse, commit a
/// day to a sharded index, publish a day to a bank, and the whole
/// `Rased::ingest_files` of one day.
pub fn probe_write_path(dataset: &Dataset, dir: &Path, out: &mut Samples) -> Res<()> {
    let atlas = dataset.atlas();
    let config = system_config(dir.join("system"));
    let roads = rased_core::model::RoadTypeTable::with_cardinality(config.n_road_types);
    let index = ShardedIndex::create(
        &dir.join("index"),
        config.shard.effective_shards(),
        config.schema,
        config.levels,
        config.cache,
        config.io_model,
    )?;
    let bank = SpatialBank::create(
        &dir.join("spatial"),
        config.spatial.effective_shards(),
        config.spatial.grid(),
        config.schema,
        config.io_model,
        config.spatial.cache_blocks,
    )?;
    let warehouse = Warehouse::create(
        &dir.join("warehouse.pg"),
        IoCostModel::hdd(),
        config.warehouse_pool_pages,
    )?;
    let system = Rased::create(config.clone())?;

    let (mut parsed_bytes, mut parse_s) = (0u64, 0f64);
    let open = |path: std::path::PathBuf| -> Res<BufReader<File>> {
        Ok(BufReader::new(File::open(path)?))
    };
    for day in dataset.config.range.days().take(WRITE_PROBE_DAYS) {
        let (diff, changesets) = (dataset.paths.diff(day), dataset.paths.changesets(day));
        parsed_bytes += tree_bytes(&diff) + tree_bytes(&changesets);
        let crawler = DailyCrawler::new(&atlas, &roads);
        let t = Instant::now();
        let (records, _) = crawler.crawl(open(diff)?, open(changesets)?)?;
        parse_s += t.elapsed().as_secs_f64();
        out.add("collector.crawl_day_us", us(t));
        let per_1k = 1000.0 / records.len().max(1) as f64;

        let t = Instant::now();
        let cube = DataCube::from_records(config.schema, &records)?;
        out.add("cube.from_records_us_per_1k", us(t) * per_1k);

        let t = Instant::now();
        warehouse.insert_batch(&records)?;
        warehouse.flush()?;
        out.add("warehouse.insert_us_per_1k", us(t) * per_1k);

        let t = Instant::now();
        index.ingest_day(day, &cube)?;
        out.add("index.ingest_day_us", us(t));

        let t = Instant::now();
        bank.publish_day(day, &records)?;
        out.add("index.publish_day_us", us(t));

        let t = Instant::now();
        system.ingest_files(
            &atlas,
            DateRange::single(day),
            |d| dataset.paths.diff(d),
            |d| dataset.paths.changesets(d),
            |y, m| dataset.paths.history(y, m),
        )?;
        out.add("core.ingest_day_ms", us(t) / 1e3);
    }
    for (y, m) in dataset.months().into_iter().take(2) {
        let history = dataset.paths.history(y, m);
        if !history.exists() {
            continue;
        }
        let mut metas: Vec<ChangesetMeta> = Vec::new();
        for day in Period::Month(y, m)
            .range()
            .days()
            .filter(|d| dataset.config.range.contains(*d))
        {
            for meta in ChangesetReader::new(open(dataset.paths.changesets(day))?) {
                metas.push(meta?);
            }
        }
        parsed_bytes += tree_bytes(&history);
        let crawler = MonthlyCrawler::new(&atlas, &roads);
        let t = Instant::now();
        let refined = crawler.crawl(open(history)?, metas, y, m)?;
        parse_s += t.elapsed().as_secs_f64();
        out.add("collector.crawl_month_us", us(t));
        black_box(refined);
    }
    out.add(
        "collector.parse_mb_per_s",
        parsed_bytes as f64 / 1e6 / parse_s.max(1e-9),
    );
    Ok(())
}

/// `core.open_s`: reopen the ingested system from disk.
pub fn probe_open(system_dir: &Path) -> Res<f64> {
    let t = Instant::now();
    let system = Rased::open(system_config(system_dir.to_path_buf()))?;
    let took = t.elapsed().as_secs_f64();
    black_box(system.index().cube_count());
    Ok(took)
}
