//! [`Rased`] and its configuration.

use rased_cube::CubeSchema;
use rased_geo::BBox;
use rased_index::{CacheConfig, IndexError, ShardedIndex, SpatialBank};
use rased_osm_model::{ChangesetId, CountryTable, RoadTypeTable, UpdateRecord, ZoneMap};
use rased_query::{AnalysisQuery, NetworkSizes, QueryEngine, QueryError, QueryResult, SpatialExec};
use rased_storage::sync::RwLock;
use rased_storage::IoCostModel;
use rased_warehouse::{Warehouse, WarehouseError};
use std::fmt;
use std::path::PathBuf;

/// System-level error.
#[derive(Debug)]
pub enum RasedError {
    Index(IndexError),
    Warehouse(WarehouseError),
    Query(QueryError),
    Collect(rased_collector::CollectError),
    Io(std::io::Error),
}

impl fmt::Display for RasedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RasedError::Index(e) => write!(f, "index: {e}"),
            RasedError::Warehouse(e) => write!(f, "warehouse: {e}"),
            RasedError::Query(e) => write!(f, "query: {e}"),
            RasedError::Collect(e) => write!(f, "collector: {e}"),
            RasedError::Io(e) => write!(f, "I/O: {e}"),
        }
    }
}

impl std::error::Error for RasedError {}

impl From<IndexError> for RasedError {
    fn from(e: IndexError) -> Self {
        RasedError::Index(e)
    }
}

impl From<WarehouseError> for RasedError {
    fn from(e: WarehouseError) -> Self {
        RasedError::Warehouse(e)
    }
}

impl From<QueryError> for RasedError {
    fn from(e: QueryError) -> Self {
        RasedError::Query(e)
    }
}

impl From<rased_collector::CollectError> for RasedError {
    fn from(e: rased_collector::CollectError) -> Self {
        RasedError::Collect(e)
    }
}

impl From<std::io::Error> for RasedError {
    fn from(e: std::io::Error) -> Self {
        RasedError::Io(e)
    }
}

/// System configuration.
#[derive(Debug, Clone)]
pub struct RasedConfig {
    /// Directory holding the cube index and the warehouse heap.
    pub dir: PathBuf,
    /// Cube dimension cardinalities. Must cover the ingested taxonomies.
    pub schema: CubeSchema,
    /// Index levels, 1 (flat daily) ..= 4 (daily/weekly/monthly/yearly).
    pub levels: u8,
    /// Cube-cache size (§VII-A).
    pub cache: CacheConfig,
    /// I/O cost model applied to all physical page I/O.
    pub io_model: IoCostModel,
    /// Warehouse buffer-pool size in 8 KB pages.
    pub warehouse_pool_pages: usize,
    /// Taxonomy cardinalities for name resolution.
    pub n_countries: usize,
    pub n_road_types: usize,
    /// Zone attribution (§VI-A): updates additionally credited to the zones
    /// containing their country. Default: no zones. The schema's country
    /// dimension must cover the zone ids.
    pub zones: ZoneMap,
    /// Serving-tier knobs (worker pool, queue depth, timeouts, request
    /// limits) consumed by the dashboard's HTTP server. Per-process tuning,
    /// not persisted by [`RasedConfig::save`].
    pub server: crate::ServerConfig,
    /// Query-executor knobs (per-query worker threads). Per-process tuning,
    /// not persisted by [`RasedConfig::save`].
    pub exec: crate::ExecConfig,
    /// Cube-store sharding (country-partitioned stores). *Structural*: it
    /// shapes the on-disk layout, so [`RasedConfig::save`] persists it and
    /// [`RasedConfig::load`] restores it.
    pub shard: crate::ShardConfig,
    /// Spatial block bank (viewport drill-down): warehouse-grid geometry
    /// and longitude-band count are structural (persisted); the block
    /// cache size is per-process tuning.
    pub spatial: crate::SpatialConfig,
}

impl RasedConfig {
    /// Sensible defaults over `dir`: a small schema (60 countries × 40 road
    /// types), 4 levels, paper cache policy with 64 slots, HDD cost model.
    pub fn new(dir: impl Into<PathBuf>) -> RasedConfig {
        RasedConfig {
            dir: dir.into(),
            schema: CubeSchema::new(60, 40),
            levels: 4,
            cache: CacheConfig { slots: 64 },
            io_model: IoCostModel::hdd(),
            warehouse_pool_pages: 4096,
            n_countries: 60,
            n_road_types: 40,
            zones: ZoneMap::none(),
            server: crate::ServerConfig::default(),
            exec: crate::ExecConfig::default(),
            shard: crate::ShardConfig::default(),
            spatial: crate::SpatialConfig::default(),
        }
    }

    /// Enable continent-zone attribution over the full country table: the
    /// schema grows to cover every country *and* zone id.
    pub fn with_continent_zones(self) -> Self {
        let table = CountryTable::full();
        let zones = ZoneMap::continents(&table);
        let n_road_types = self.n_road_types;
        let mut cfg = self.with_schema(CubeSchema::new(table.len(), n_road_types));
        cfg.zones = zones;
        cfg
    }

    /// Override the schema (and taxonomy sizes to match).
    pub fn with_schema(mut self, schema: CubeSchema) -> Self {
        self.n_countries = schema.n_countries();
        self.n_road_types = schema.n_road_types();
        self.schema = schema;
        self
    }

    /// Persist the structural parameters (schema, levels) under `dir` so a
    /// later process can [`RasedConfig::load`] them without knowing how the
    /// system was built. Tuning knobs (cache size, I/O model) are *not*
    /// persisted — they are per-process choices.
    pub(crate) fn save(&self) -> std::io::Result<()> {
        let body = format!(
            "n_countries={}\nn_road_types={}\nlevels={}\nzones={}\nshards={}\nspatial_rows={}\nspatial_cols={}\nspatial_shards={}\n",
            self.schema.n_countries(),
            self.schema.n_road_types(),
            self.levels,
            if self.zones.is_empty() { "none" } else { "continents" },
            self.shard.effective_shards(),
            self.spatial.grid_rows,
            self.spatial.grid_cols,
            self.spatial.effective_shards(),
        );
        std::fs::write(self.dir.join("rased.manifest"), body)
    }

    /// Load the structural parameters persisted by [`RasedConfig::save`],
    /// with defaults for everything else.
    pub fn load(dir: impl Into<PathBuf>) -> std::io::Result<RasedConfig> {
        let dir = dir.into();
        let body = std::fs::read_to_string(dir.join("rased.manifest"))?;
        let mut n_countries = 60usize;
        let mut n_road_types = 40usize;
        let mut levels = 4u8;
        let mut zones_kind = "none";
        // Absent in pre-sharding manifests: those stores are monolithic.
        let mut shards = 1usize;
        let mut spatial = crate::SpatialConfig::default();
        for line in body.lines() {
            if let Some((k, v)) = line.split_once('=') {
                match k {
                    "n_countries" => n_countries = v.parse().map_err(bad_manifest)?,
                    "n_road_types" => n_road_types = v.parse().map_err(bad_manifest)?,
                    "levels" => levels = v.parse().map_err(bad_manifest)?,
                    "zones" if v == "continents" => zones_kind = "continents",
                    "shards" => shards = v.parse().map_err(bad_manifest)?,
                    "spatial_rows" => spatial.grid_rows = v.parse().map_err(bad_manifest)?,
                    "spatial_cols" => spatial.grid_cols = v.parse().map_err(bad_manifest)?,
                    "spatial_shards" => spatial.shards = v.parse().map_err(bad_manifest)?,
                    _ => {}
                }
            }
        }
        let mut config = RasedConfig::new(dir).with_schema(CubeSchema::new(n_countries, n_road_types));
        config.levels = levels;
        config.shard = crate::ShardConfig { shards: shards.max(1) };
        config.spatial = spatial;
        if zones_kind == "continents" {
            config.zones = ZoneMap::continents(&CountryTable::with_cardinality(n_countries));
        }
        Ok(config)
    }
}

fn bad_manifest<E: std::fmt::Display>(e: E) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad manifest value: {e}"))
}

/// Live-element bookkeeping feeding the percentage denominators.
#[derive(Debug, Default)]
pub(crate) struct NetworkState {
    /// Running per-country live-element counts.
    live_counts: Vec<i64>,
    sizes: NetworkSizes,
}

/// The assembled RASED backend.
///
/// Every operation takes `&self`: the streaming ingest path (one writer
/// thread inside [`crate::IngestController`]) runs concurrently with
/// serving, so mutable state lives behind interior locks — the index and
/// warehouse bring their own, and the network-size counters sit in one
/// [`RwLock`] here.
pub struct Rased {
    pub(crate) config: RasedConfig,
    pub(crate) index: ShardedIndex,
    pub(crate) warehouse: Warehouse,
    pub(crate) bank: SpatialBank,
    pub(crate) country_table: CountryTable,
    pub(crate) road_table: RoadTypeTable,
    pub(crate) network: RwLock<NetworkState>,
}

impl fmt::Debug for Rased {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rased")
            .field("cubes", &self.index.cube_count())
            .field("rows", &self.warehouse.row_count())
            .finish_non_exhaustive()
    }
}

impl Rased {
    /// Create a fresh system under `config.dir`.
    pub fn create(config: RasedConfig) -> Result<Rased, RasedError> {
        std::fs::create_dir_all(&config.dir)?;
        config.save()?;
        let index = ShardedIndex::create(
            &config.dir.join("index"),
            config.shard.effective_shards(),
            config.schema,
            config.levels,
            config.cache,
            config.io_model,
        )?;
        let warehouse = Warehouse::create(
            &config.dir.join("warehouse.pg"),
            config.io_model,
            config.warehouse_pool_pages,
        )?;
        let bank = SpatialBank::create(
            &config.dir.join("spatial"),
            config.spatial.effective_shards(),
            config.spatial.grid(),
            config.schema,
            config.io_model,
            config.spatial.cache_blocks,
        )?;
        Ok(Self::assemble(config, index, warehouse, bank))
    }

    /// Reopen an existing system. Each shard recovers independently: a
    /// torn WAL tail in one shard is truncated there without blocking the
    /// others.
    pub fn open(config: RasedConfig) -> Result<Rased, RasedError> {
        let index = ShardedIndex::open(
            &config.dir.join("index"),
            config.shard.effective_shards(),
            config.schema,
            config.levels,
            config.cache,
            config.io_model,
        )?;
        let warehouse = Warehouse::open(
            &config.dir.join("warehouse.pg"),
            config.io_model,
            config.warehouse_pool_pages,
        )?;
        // Crash repair: every committed day unit records the warehouse row
        // count it flushed first, so rows beyond the last committed
        // watermark belong to a unit whose cubes never fully published.
        // Trim them — its days are absent from the index, so the resume
        // path will re-crawl and re-insert them without duplicating rows.
        if let Some(mark) = index.durable_mark() {
            warehouse.truncate_rows(mark)?;
        }
        // Bank blocks publish strictly *after* the cube commit, so the bank
        // never holds a day the index lacks; a crash in between just leaves
        // that day on the warehouse-scan fallback path. Pre-spatial stores
        // have no bank directory — start one empty (blocks backfill as new
        // days publish).
        let spatial_dir = config.dir.join("spatial");
        let bank = if spatial_dir.exists() {
            SpatialBank::open(
                &spatial_dir,
                config.spatial.effective_shards(),
                config.spatial.grid(),
                config.schema,
                config.io_model,
                config.spatial.cache_blocks,
            )?
        } else {
            SpatialBank::create(
                &spatial_dir,
                config.spatial.effective_shards(),
                config.spatial.grid(),
                config.schema,
                config.io_model,
                config.spatial.cache_blocks,
            )?
        };
        let system = Self::assemble(config, index, warehouse, bank);
        system.recount_network_sizes()?;
        system.index.warm_cache()?;
        Ok(system)
    }

    fn assemble(
        config: RasedConfig,
        index: ShardedIndex,
        warehouse: Warehouse,
        bank: SpatialBank,
    ) -> Rased {
        Rased {
            country_table: CountryTable::with_cardinality(config.n_countries),
            road_table: RoadTypeTable::with_cardinality(config.n_road_types),
            network: RwLock::new_named(
                NetworkState {
                    live_counts: vec![0; config.n_countries],
                    sizes: NetworkSizes::default(),
                },
                "core.network",
            ),
            config,
            index,
            warehouse,
            bank,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RasedConfig {
        &self.config
    }

    /// The cube index (a country-sharded store; one shard by default).
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// The sample warehouse.
    pub fn warehouse(&self) -> &Warehouse {
        &self.warehouse
    }

    /// The spatial block bank (viewport drill-down pre-aggregates).
    pub fn spatial_bank(&self) -> &SpatialBank {
        &self.bank
    }

    /// Country id ↔ name table.
    pub fn countries(&self) -> &CountryTable {
        &self.country_table
    }

    /// Road-type id ↔ `highway=*` value table.
    pub fn roads(&self) -> &RoadTypeTable {
        &self.road_table
    }

    /// Per-country network sizes (percentage denominators). A point-in-time
    /// copy: concurrent ingest keeps updating the live counts.
    pub fn network_sizes(&self) -> NetworkSizes {
        self.network.read().sizes.clone()
    }

    /// A query engine bound to this system. The engine owns a copy of the
    /// network sizes taken now, so a query's percentage denominators cannot
    /// shift mid-execution under concurrent ingest.
    pub fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::over_shards(&self.index)
            .with_network_sizes(self.network_sizes())
            .with_threads(self.config.exec.effective_threads())
            .with_spatial(SpatialExec::banked(&self.warehouse, &self.bank))
    }

    /// Execute an analysis query (§IV-A).
    pub fn query(&self, q: &AnalysisQuery) -> Result<QueryResult, RasedError> {
        Ok(self.engine().execute(q)?)
    }

    /// Sample up to `limit` updates in a region (§IV-B; default N = 100).
    pub fn sample_region(&self, bbox: &BBox, limit: usize) -> Result<Vec<UpdateRecord>, RasedError> {
        Ok(self.warehouse.sample_region(bbox, limit)?)
    }

    /// All updates of a changeset (§IV-B's drill-down).
    pub fn by_changeset(&self, id: ChangesetId) -> Result<Vec<UpdateRecord>, RasedError> {
        Ok(self.warehouse.by_changeset(id)?)
    }

    /// Sample up to `limit` updates *representing an analysis query*
    /// (§IV-B: "a sample of N (default = 100) such updates on the map"):
    /// spatially scoped to `bbox`, filtered by the query's window and
    /// dimension filters.
    pub fn sample_for_query(
        &self,
        q: &AnalysisQuery,
        bbox: &BBox,
        limit: usize,
    ) -> Result<Vec<UpdateRecord>, RasedError> {
        let matches = |r: &UpdateRecord| {
            q.range.contains(r.date)
                && q.element_types.as_ref().is_none_or(|f| f.contains(&r.element_type))
                && q.countries.as_ref().is_none_or(|f| f.contains(&r.country))
                && q.road_types.as_ref().is_none_or(|f| f.contains(&r.road_type))
                && q.update_types.as_ref().is_none_or(|f| f.contains(&r.update_type))
        };
        Ok(self.warehouse.sample_region_filtered(bbox, limit, matches)?)
    }

    /// Track live-element deltas for the percentage denominators.
    pub(crate) fn track_network(&self, records: &[UpdateRecord]) {
        use rased_osm_model::UpdateType;
        let mut net = self.network.write();
        for r in records {
            let Some(slot) = net.live_counts.get_mut(r.country.index()) else { continue };
            match r.update_type {
                UpdateType::Create => *slot += 1,
                UpdateType::Delete => *slot -= 1,
                _ => {}
            }
        }
        net.sizes = NetworkSizes::new(net.live_counts.iter().map(|&c| c.max(0) as u64).collect());
    }

    /// Recompute network sizes from the warehouse (used on reopen).
    fn recount_network_sizes(&self) -> Result<(), RasedError> {
        use rased_osm_model::UpdateType;
        let mut counts = vec![0i64; self.config.n_countries];
        self.warehouse.scan(|_, r| {
            if let Some(slot) = counts.get_mut(r.country.index()) {
                match r.update_type {
                    UpdateType::Create => *slot += 1,
                    UpdateType::Delete => *slot -= 1,
                    _ => {}
                }
            }
        })?;
        let mut net = self.network.write();
        net.sizes = NetworkSizes::new(counts.iter().map(|&c| c.max(0) as u64).collect());
        net.live_counts = counts;
        Ok(())
    }

    /// Persist everything (index catalog checkpoint + warehouse tail +
    /// bank catalogs).
    pub fn sync(&self) -> Result<(), RasedError> {
        self.index.sync()?;
        self.warehouse.flush()?;
        self.bank.sync()?;
        Ok(())
    }
}
