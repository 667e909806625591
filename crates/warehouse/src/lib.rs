//! The sample-update warehouse (§IV-B, §VI-B).
//!
//! Alongside the cube index, RASED dumps the whole *UpdateList* into "a
//! standard database table indexed by (a) a hash index on ChangesetID …
//! and (b) a spatial index on ⟨Latitude, Longitude⟩". Sample-update queries
//! pick N updates in a region to plot on the map and jump from a sample to
//! its changeset.
//!
//! This crate implements that table: a heap file of fixed-width 28-byte
//! [`UpdateRecord`](rased_osm_model::UpdateRecord) rows over 8 KB pages, read through a [`BufferPool`](rased_storage::BufferPool),
//! with an in-memory hash index (changeset → rows) and a uniform-grid
//! spatial index (lat/lon → rows). The heap file is also the relation the
//! row-scan DBMS baseline (Fig. 10) scans — both systems see the same
//! physical data.

mod heap;
mod warehouse;

pub use heap::{HeapFile, RowId, HEAP_PAGE_BYTES};
pub use warehouse::{Warehouse, WarehouseError};
