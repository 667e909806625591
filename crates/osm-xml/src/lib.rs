//! OSM file formats (§II-B), on top of a from-scratch XML subset parser.
//!
//! OSM publishes updates in three families of XML files, all of which RASED
//! crawls:
//!
//! * **Diff** files (`osmChange`): per-minute/hour/day lists of created,
//!   modified, and deleted elements — after-images only.
//! * **Changeset** files: metadata (user, bounding box, comment) for each
//!   changeset.
//! * **Full history** dumps: every version of every element, including
//!   invisible tombstone versions for deletions.
//!
//! This crate implements streaming readers and writers for all three plus
//! the plain planet format. The XML layer ([`xml`]) is a minimal pull
//! parser supporting exactly what these documents need: elements,
//! attributes, character data, comments, XML declarations, and the five
//! predefined entities plus numeric character references.

pub mod xml;

mod coords;
mod formats;

pub use formats::{
    ChangesetReader, ChangesetWriter, DiffAction, DiffReader, DiffWriter, OsmDocError,
    PlanetReader, PlanetWriter,
};
