//! RASED data cubes (§VI-A).
//!
//! Each node of the hierarchical temporal index is a four-dimensional data
//! cube over *ElementType × Country × RoadType × UpdateType*; each cell
//! counts the OSM updates in the node's time window matching those four
//! coordinates. The paper's cubes hold 3 × 300 × 150 × 4 = 540 000
//! pre-computed values (~4 MB) and fit in one disk page.
//!
//! Ours are identical except the UpdateType dimension has a fifth
//! `Unclassified` slot modeling the daily crawler's coarse "update" class
//! before the monthly refinement (see `rased-osm-model` docs), and both
//! taxonomy cardinalities are parameters of [`CubeSchema`] so tests and
//! benchmarks can scale the cube without touching any algorithm.

mod schema;
mod cube;
mod selection;
mod sparse;
mod view;

pub use cube::{CubeError, DataCube, CUBE_HEADER_BYTES};
pub use schema::CubeSchema;
pub use selection::DimSelection;
pub use sparse::{SparseBlock, BLOCK_HEADER_BYTES};
pub use view::CubeView;
