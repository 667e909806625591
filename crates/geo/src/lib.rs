//! Spatial primitives and indexes for RASED.
//!
//! Pure geometry — this crate knows nothing about OSM. It provides:
//!
//! * [`Point`] / [`BBox`] in OSM's 1e-7° fixed-point coordinates, with the
//!   exact containment a changeset-bbox → country lookup needs (§V),
//! * [`GridSpec`] — a uniform grid's cell arithmetic and bbox covers, the
//!   viewport planner's decomposition,
//! * [`GridIndex`] — a uniform grid over points, the warehouse's spatial
//!   index for sample-update queries (§VI-B).

mod bbox;
mod grid;
mod gridspec;

pub use bbox::{BBox, Point};
pub use grid::GridIndex;
pub use gridspec::{CellCover, CellId, GridSpec};
