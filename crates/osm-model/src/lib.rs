//! OSM conceptual data model and RASED vocabulary.
//!
//! This crate mirrors §II-A of the paper — the OSM element model
//! (nodes / ways / relations with tags and versions), changeset metadata —
//! plus the RASED-specific vocabulary of §III/§V: the dimension taxonomies
//! (countries & zones, road types, update types) and the eight-attribute
//! `UpdateList` tuple ([`UpdateRecord`]) that flows from the Data Collection
//! module into Storage & Indexing:
//!
//! ```text
//! ⟨ElementType, Date, Country, Latitude, Longitude,
//!   RoadType, UpdateType, ChangesetID⟩
//! ```

mod changeset;
mod element;
mod ids;
mod tags;
mod taxonomy;
mod update;
mod zones;

pub use changeset::ChangesetMeta;
pub use element::{Element, ElementType, MemberRef, Node, Relation, VersionInfo, Way};
pub use ids::{ChangesetId, ElementId, UserId, Version};
pub use tags::Tags;
pub use taxonomy::{
    CountryId, CountryResolver, CountryTable, RoadTypeId, RoadTypeTable, COUNTRY_COUNT_FULL,
};
pub use update::{UpdateRecord, UpdateType, UPDATE_RECORD_BYTES};
pub use zones::ZoneMap;
