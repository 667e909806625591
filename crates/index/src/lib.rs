//! The hierarchical temporal index of RASED (§VI-A, §VII).
//!
//! The index does not store OSM updates — it stores *pre-computed data
//! cubes* at four temporal granularities (daily, weekly, monthly, yearly)
//! under a dummy root. Three pieces cooperate to answer a query window with
//! as few disk reads as possible:
//!
//! * [`TemporalIndex`] — the cube store: one disk page per cube, a period →
//!   page catalog, and the maintenance procedures (daily roll-up at period
//!   boundaries; monthly rebuild when refined update types arrive).
//! * [`LevelPlanner`] — the level optimizer (§VII-B): an exact dynamic
//!   program that partitions the query window into cubes minimizing
//!   (disk fetches, then total cubes), given what is cached. A greedy
//!   coarsest-first planner is included for ablation.
//! * [`CubeCache`] — the caching strategy (§VII-A): N memory slots split
//!   across levels by the (α, β, γ, θ) ratios, preloaded with each level's
//!   most recent cubes. A plain global-LRU mode exists for ablation.
//! * [`ShardedIndex`] — N independent `TemporalIndex` instances partitioned
//!   by country ([`shard_for`]), each with its own WAL, caches, and epoch
//!   stream; the scatter-gather substrate for `rased-query`.
//! * [`SpatialBank`] — the spatial arm of the lattice: per-grid-cell
//!   pre-aggregated sparse blocks ([`spatial_shard_for`] longitude bands)
//!   keyed in the same catalogs via [`CubeKey::regional`], giving viewport
//!   queries the same page-per-answer economics as temporal ones.

mod cache;
mod partition;
mod planner;
mod routing;
mod shard;
mod spatial;
mod store;
mod wal;

pub use cache::{CacheConfig, CacheStrategy, CubeCache};
pub use planner::{
    BlockSource, CubeSource, LatticePlanner, LevelPlanner, PlannedBlock, PlannedCube, PlannerKind,
    QueryPlan, ViewportPlan,
};
pub use routing::{marker_shard, shard_for, spatial_shard_for};
pub use shard::ShardedIndex;
pub use spatial::{SpatialBank, SpatialPublishReport, BLOCK_PAGE_BYTES};
pub use store::{
    with_planner, CatalogVersion, CubeKey, FetchOutcome, IndexError, MaintenanceReport,
    TemporalIndex, WORLD_REGION,
};
