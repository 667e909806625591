//! The *UpdateList* tuple and update-type vocabulary (§III, §V).

use crate::element::ElementType;
use crate::ids::ChangesetId;
use crate::taxonomy::{CountryId, RoadTypeId};
use rased_temporal::Date;
use std::fmt;

/// Classification of a map update — the fourth cube dimension.
///
/// The paper names four operations: "newly created roads/nodes, deleted
/// roads/nodes, road geometry update, and road metadata update". The daily
/// crawler, however, can only tell *new* from *updated* ("we can only infer
/// whether an update is a new or updated tuple", §V); the refinement into
/// geometry vs. metadata arrives with the monthly full-history crawl. We
/// model that lifecycle explicitly with a fifth variant,
/// [`UpdateType::Unclassified`]: daily cubes hold `Create`/`Delete`/
/// `Unclassified` counts, and the monthly rebuild (§VI-A) replaces
/// `Unclassified` with the `Geometry`/`Metadata` split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum UpdateType {
    /// A newly created element (version 1).
    Create = 0,
    /// A deletion (final, invisible version).
    Delete = 1,
    /// A change to coordinates or member/node lists.
    Geometry = 2,
    /// A change to tags only.
    Metadata = 3,
    /// A modification whose geometry/metadata split is not yet known —
    /// the daily crawler's coarse "update".
    Unclassified = 4,
}

impl UpdateType {
    /// Cube-dimension cardinality (the paper's four classes plus the
    /// pre-refinement `Unclassified` slot; see type docs).
    pub const CARDINALITY: usize = 5;

    /// All update types, in cube-dimension order.
    pub const ALL: [UpdateType; 5] = [
        UpdateType::Create,
        UpdateType::Delete,
        UpdateType::Geometry,
        UpdateType::Metadata,
        UpdateType::Unclassified,
    ];

    /// The set matching the paper's `UpdateType IN [New, Update]` filter:
    /// everything except deletions.
    pub const NEW_OR_UPDATE: [UpdateType; 4] = [
        UpdateType::Create,
        UpdateType::Geometry,
        UpdateType::Metadata,
        UpdateType::Unclassified,
    ];

    /// Cube-dimension index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`UpdateType::index`].
    pub fn from_index(i: usize) -> Option<UpdateType> {
        Self::ALL.get(i).copied()
    }

    /// Short lowercase label used by file formats and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            UpdateType::Create => "create",
            UpdateType::Delete => "delete",
            UpdateType::Geometry => "geometry",
            UpdateType::Metadata => "metadata",
            UpdateType::Unclassified => "update",
        }
    }

    /// Parse a [`UpdateType::label`].
    pub fn from_label(s: &str) -> Option<UpdateType> {
        match s {
            "create" => Some(UpdateType::Create),
            "delete" => Some(UpdateType::Delete),
            "geometry" => Some(UpdateType::Geometry),
            "metadata" => Some(UpdateType::Metadata),
            "update" => Some(UpdateType::Unclassified),
            _ => None,
        }
    }
}

impl fmt::Display for UpdateType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Serialized size of an [`UpdateRecord`] in bytes.
pub const UPDATE_RECORD_BYTES: usize = 28;

/// One row of the *UpdateList* relation — the eight-attribute tuple produced
/// by the Data Collection module (§V) and consumed by Storage & Indexing:
/// `⟨ElementType, Date, Country, Latitude, Longitude, RoadType, UpdateType,
/// ChangesetID⟩`.
///
/// Coordinates are stored in OSM's 1e-7° fixed point. The record is
/// fixed-width (28 bytes, little-endian) so the warehouse heap file and the
/// row-scan baseline can address rows by offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateRecord {
    pub element_type: ElementType,
    pub update_type: UpdateType,
    pub country: CountryId,
    pub road_type: RoadTypeId,
    pub date: Date,
    pub lat7: i32,
    pub lon7: i32,
    pub changeset: ChangesetId,
}

impl UpdateRecord {
    /// Latitude in degrees.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat7 as f64 * 1e-7
    }

    /// Longitude in degrees.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon7 as f64 * 1e-7
    }

    /// Encode into the fixed 28-byte little-endian layout.
    ///
    /// Layout: `etype u8 | utype u8 | country u16 | road u16 | date i32 |
    /// lat7 i32 | lon7 i32 | pad u16 | changeset u64` — fields ordered to
    /// keep the u64 8-byte aligned when records are packed back-to-back.
    pub fn encode(&self) -> [u8; UPDATE_RECORD_BYTES] {
        let mut b = [0u8; UPDATE_RECORD_BYTES];
        b[0] = self.element_type as u8;
        b[1] = self.update_type as u8;
        b[2..4].copy_from_slice(&self.country.0.to_le_bytes());
        b[4..6].copy_from_slice(&self.road_type.0.to_le_bytes());
        b[6..10].copy_from_slice(&self.date.days().to_le_bytes());
        b[10..14].copy_from_slice(&self.lat7.to_le_bytes());
        b[14..18].copy_from_slice(&self.lon7.to_le_bytes());
        // b[18..20] is padding, left zero.
        b[20..28].copy_from_slice(&self.changeset.0.to_le_bytes());
        b
    }

    /// Decode a 28-byte buffer; `None` on malformed discriminants.
    pub fn decode(b: &[u8; UPDATE_RECORD_BYTES]) -> Option<UpdateRecord> {
        let element_type = ElementType::from_index(b[0] as usize)?;
        let update_type = UpdateType::from_index(b[1] as usize)?;
        let country = CountryId(u16::from_le_bytes([b[2], b[3]]));
        let road_type = RoadTypeId(u16::from_le_bytes([b[4], b[5]]));
        let date = Date::from_days(i32::from_le_bytes([b[6], b[7], b[8], b[9]]));
        let lat7 = i32::from_le_bytes([b[10], b[11], b[12], b[13]]);
        let lon7 = i32::from_le_bytes([b[14], b[15], b[16], b[17]]);
        let changeset = ChangesetId(u64::from_le_bytes([
            b[20], b[21], b[22], b[23], b[24], b[25], b[26], b[27],
        ]));
        Some(UpdateRecord {
            element_type,
            update_type,
            country,
            road_type,
            date,
            lat7,
            lon7,
            changeset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UpdateType {
        /// The set matching a plain "Update" filter: modifications of any kind.
        const UPDATE: [UpdateType; 3] =
            [UpdateType::Geometry, UpdateType::Metadata, UpdateType::Unclassified];
    }

    fn sample() -> UpdateRecord {
        UpdateRecord {
            element_type: ElementType::Way,
            update_type: UpdateType::Geometry,
            country: CountryId(42),
            road_type: RoadTypeId(7),
            date: "2021-11-30".parse().unwrap(),
            lat7: 449_700_000,
            lon7: -932_600_000,
            changeset: ChangesetId(123_456_789_012),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = sample();
        let b = r.encode();
        assert_eq!(UpdateRecord::decode(&b), Some(r));
    }

    #[test]
    fn decode_rejects_bad_discriminants() {
        let mut b = sample().encode();
        b[0] = 9; // invalid element type
        assert_eq!(UpdateRecord::decode(&b), None);
        let mut b2 = sample().encode();
        b2[1] = 200; // invalid update type
        assert_eq!(UpdateRecord::decode(&b2), None);
    }

    #[test]
    fn update_type_sets_match_paper_semantics() {
        // "New or Update" excludes exactly Delete.
        assert_eq!(UpdateType::NEW_OR_UPDATE.len(), UpdateType::CARDINALITY - 1);
        assert!(!UpdateType::NEW_OR_UPDATE.contains(&UpdateType::Delete));
        // "Update" excludes Create and Delete.
        assert!(!UpdateType::UPDATE.contains(&UpdateType::Create));
        assert!(!UpdateType::UPDATE.contains(&UpdateType::Delete));
        assert!(UpdateType::UPDATE.contains(&UpdateType::Unclassified));
    }

    #[test]
    fn label_roundtrip() {
        for t in UpdateType::ALL {
            assert_eq!(UpdateType::from_label(t.label()), Some(t));
        }
        assert_eq!(UpdateType::from_label("explode"), None);
    }

    #[test]
    fn index_roundtrip_and_cardinality() {
        for (i, t) in UpdateType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(UpdateType::from_index(i), Some(*t));
        }
        assert_eq!(UpdateType::from_index(UpdateType::CARDINALITY), None);
    }

    #[test]
    fn coordinates_in_degrees() {
        let r = sample();
        assert!((r.lat() - 44.97).abs() < 1e-6);
        assert!((r.lon() + 93.26).abs() < 1e-6);
    }

    #[test]
    fn negative_dates_and_coords_roundtrip() {
        let mut r = sample();
        r.date = "1969-12-25".parse().unwrap(); // negative day count
        r.lat7 = -900_000_000;
        r.lon7 = -1_800_000_000;
        let b = r.encode();
        assert_eq!(UpdateRecord::decode(&b), Some(r));
    }
}
