//! RASED: the assembled system (§III).
//!
//! [`Rased`] wires the four architecture modules together: Data Collection
//! (the crawlers of `rased-collector`), Storage & Indexing (the cube index
//! of `rased-index` plus the sample warehouse of `rased-warehouse`), and
//! Query Execution (`rased-query`). The User Interface module lives in
//! `rased-dashboard`, a thin client of this crate.
//!
//! ```no_run
//! use rased_core::{Rased, RasedConfig};
//! use rased_osm_gen::{Dataset, DatasetConfig};
//! use rased_query::{AnalysisQuery, GroupDim};
//! use rased_temporal::DateRange;
//!
//! // Generate a synthetic OSM dataset, build RASED over it, query it.
//! let data = std::path::Path::new("/tmp/rased-demo");
//! let dataset = Dataset::generate(&data.join("osm"), DatasetConfig::small(7)).unwrap();
//! let rased = Rased::create(RasedConfig::new(data.join("system"))).unwrap();
//! rased.ingest_dataset(&dataset).unwrap();
//!
//! let q = AnalysisQuery::over(dataset.config.range).group(GroupDim::Country);
//! let result = rased.query(&q).unwrap();
//! println!("{} countries, {} updates", result.rows.len(), result.total_count());
//! ```

mod exec_config;
mod ingest;
mod ingest_controller;
mod server_config;
mod shard_config;
mod spatial_config;
mod system;

pub use exec_config::ExecConfig;
pub use ingest::IngestReport;
pub use ingest_controller::{IngestController, IngestPhase, IngestStatus, QueueFull};
pub use server_config::ServerConfig;
pub use shard_config::ShardConfig;
pub use spatial_config::SpatialConfig;
pub use system::{Rased, RasedConfig, RasedError};

// Re-export the public API surface so downstream users (examples, the
// dashboard, the root crate) can reach every subsystem through one import.
pub use rased_cube::{CubeSchema, DataCube, DimSelection};
pub use rased_index::{
    marker_shard, shard_for, spatial_shard_for, CacheConfig, CubeCache, LevelPlanner,
    MaintenanceReport, PlannerKind, ShardedIndex, SpatialBank, TemporalIndex,
};
pub use rased_osm_model as model;
pub use rased_query::{
    naive_execute, AnalysisQuery, GroupDim, GroupKey, NetworkSizes, QueryEngine, QueryResult,
    QueryStats, ResultRow, ValueMode,
};
pub use rased_storage::{IoCostModel, IoSnapshot};
pub use rased_temporal::{Date, DateRange, Granularity, Period};
pub use rased_warehouse::Warehouse;
