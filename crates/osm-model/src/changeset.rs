//! Changeset metadata (§II-B).

use crate::ids::{ChangesetId, UserId};
use rased_temporal::Date;

/// Metadata describing one changeset: all updates submitted by one user in
/// one session (at most 24 hours in OSM).
///
/// The daily crawler (§V) uses the bounding box to locate `way` and
/// `relation` updates, whose diffs carry no coordinates: the changeset bbox
/// is mapped to a country and its center point becomes the update's
/// latitude/longitude.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangesetMeta {
    pub id: ChangesetId,
    pub user: UserId,
    /// Day the changeset was opened.
    pub created: Date,
    /// Day the changeset was closed (== `created` for same-day sessions).
    pub closed: Date,
    /// Bounding box in 1e-7° fixed point: `(min_lat7, min_lon7, max_lat7, max_lon7)`.
    /// `None` for changesets with no geographic extent (e.g. tag-only bulk edits).
    pub bbox7: Option<(i32, i32, i32, i32)>,
    /// Number of element changes in the changeset.
    pub num_changes: u32,
    /// Free-form comment supplied by the mapper.
    pub comment: String,
}

impl ChangesetMeta {
    /// The bbox center in 1e-7° fixed point, if a bbox is present.
    pub fn center7(&self) -> Option<(i32, i32)> {
        self.bbox7.map(|(min_lat, min_lon, max_lat, max_lon)| {
            // Average in i64 to avoid overflow near the ±214° limits.
            (
                ((min_lat as i64 + max_lat as i64) / 2) as i32,
                ((min_lon as i64 + max_lon as i64) / 2) as i32,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ChangesetMeta {
        /// The bbox center in degrees.
        fn center_deg(&self) -> Option<(f64, f64)> {
            self.center7().map(|(lat7, lon7)| (lat7 as f64 * 1e-7, lon7 as f64 * 1e-7))
        }
    }

    fn meta(bbox7: Option<(i32, i32, i32, i32)>) -> ChangesetMeta {
        ChangesetMeta {
            id: ChangesetId(99),
            user: UserId(3),
            created: "2020-05-01".parse().unwrap(),
            closed: "2020-05-01".parse().unwrap(),
            bbox7,
            num_changes: 12,
            comment: "add missing residential roads".into(),
        }
    }

    #[test]
    fn center_of_bbox() {
        let m = meta(Some((100, 200, 300, 400)));
        assert_eq!(m.center7(), Some((200, 300)));
        let (lat, lon) = m.center_deg().unwrap();
        assert!((lat - 2e-5).abs() < 1e-12);
        assert!((lon - 3e-5).abs() < 1e-12);
    }

    #[test]
    fn center_handles_extreme_coordinates() {
        // Near the i32 fixed-point extremes, a naive i32 sum would overflow.
        let m = meta(Some((i32::MAX - 10, i32::MAX - 10, i32::MAX, i32::MAX)));
        let (lat7, lon7) = m.center7().unwrap();
        assert_eq!(lat7, i32::MAX - 5);
        assert_eq!(lon7, i32::MAX - 5);
    }

    #[test]
    fn missing_bbox_has_no_center() {
        assert_eq!(meta(None).center7(), None);
        assert_eq!(meta(None).center_deg(), None);
    }
}
