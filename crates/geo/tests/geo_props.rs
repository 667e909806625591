//! Property suite for the geo crate (dettest).
//!
//! The geo crate sits one call away from the request path — the viewport
//! planner decomposes query boxes with [`GridSpec`], the warehouse answers
//! region scans through [`GridIndex`](rased_geo::GridIndex), and the
//! generator's atlas resolves points with [`BBox::contains`] — so its
//! predicates must be *total* (no panic on any input) and *exact* (agree
//! with the naive definition). Two groups:
//!
//! 1. bbox containment / intersection totality and algebraic laws,
//! 2. grid cell ↔ bbox round-trip and cover partition.

use dettest::{det_proptest, Strategy};
use rased_geo::{BBox, GridSpec, Point};

const LAT_LIM: i32 = 900_000_000;
const LON_LIM: i32 = 1_800_000_000;

fn any_point() -> impl Strategy<Value = Point> {
    (-LAT_LIM..=LAT_LIM, -LON_LIM..=LON_LIM).prop_map(|(lat, lon)| Point::new(lat, lon))
}

/// Any box, built from two arbitrary corners (normalization is part of the
/// contract under test).
fn any_bbox() -> impl Strategy<Value = BBox> {
    (any_point(), any_point()).prop_map(|(a, b)| BBox::new(a.lat7, a.lon7, b.lat7, b.lon7))
}

/// A modest box around a corner point, so intersection cases are common.
fn small_bbox() -> impl Strategy<Value = BBox> {
    (any_point(), 0i32..20_000_000, 0i32..20_000_000).prop_map(|(p, h, w)| {
        BBox::new(p.lat7, p.lon7, p.lat7.saturating_add(h), p.lon7.saturating_add(w))
    })
}

det_proptest! {
    #[test]
    fn bbox_is_normalized_and_contains_its_corners(a in any_point(), b in any_point()) {
        let x = BBox::new(a.lat7, a.lon7, b.lat7, b.lon7);
        assert!(x.min_lat7 <= x.max_lat7 && x.min_lon7 <= x.max_lon7);
        assert!(x.contains(Point::new(x.min_lat7, x.min_lon7)));
        assert!(x.contains(Point::new(x.max_lat7, x.max_lon7)));
        assert!(x.contains(x.center()));
    }

    #[test]
    fn intersects_is_symmetric_and_matches_shared_point(a in small_bbox(), b in small_bbox()) {
        assert_eq!(a.intersects(&b), b.intersects(&a));
        // Naive definition: the clipped rectangle is non-empty.
        let shared = a.min_lat7.max(b.min_lat7) <= a.max_lat7.min(b.max_lat7)
            && a.min_lon7.max(b.min_lon7) <= a.max_lon7.min(b.max_lon7);
        assert_eq!(a.intersects(&b), shared);
        if shared {
            // The clip's min corner is in both boxes.
            let p = Point::new(a.min_lat7.max(b.min_lat7), a.min_lon7.max(b.min_lon7));
            assert!(a.contains(p) && b.contains(p));
        }
    }

    #[test]
    fn covers_implies_intersects_and_point_containment(a in any_bbox(), b in small_bbox(), p in any_point()) {
        if a.covers(&b) {
            assert!(a.intersects(&b));
            if b.contains(p) {
                assert!(a.contains(p), "{a:?} covers {b:?} but misses {p}");
            }
        }
        assert!(a.covers(&a));
        let u = a.union(&b);
        assert!(u.covers(&a) && u.covers(&b));
    }

    #[test]
    fn grid_cell_bbox_roundtrip(p in any_point(), rows in 1u32..40, cols in 1u32..40) {
        let spec = GridSpec::new(BBox::world(), rows, cols);
        let cell = spec.cell_of(p).expect("world extent contains every point");
        let b = spec.cell_bbox(cell).expect("occupied cell has a box");
        assert!(b.contains(p), "{p} escaped its cell box {b:?}");
        // Every corner of the cell box maps back to the same cell.
        for corner in [
            Point::new(b.min_lat7, b.min_lon7),
            Point::new(b.min_lat7, b.max_lon7),
            Point::new(b.max_lat7, b.min_lon7),
            Point::new(b.max_lat7, b.max_lon7),
        ] {
            assert_eq!(spec.cell_of(corner), Some(cell), "corner {corner} of {b:?}");
        }
    }

    #[test]
    fn grid_cover_partitions_query_points(q in small_bbox(), p in any_point(), rows in 1u32..24, cols in 1u32..24) {
        let spec = GridSpec::new(BBox::world(), rows, cols);
        let cover = spec.cover(&q);
        // Interior and boundary are disjoint and correctly classified.
        for cell in &cover.interior {
            let b = spec.cell_bbox(*cell).expect("covered cell has a box");
            assert!(q.covers(&b));
            assert!(!cover.boundary.contains(cell));
        }
        for cell in &cover.boundary {
            let b = spec.cell_bbox(*cell).expect("covered cell has a box");
            assert!(q.intersects(&b) && !q.covers(&b));
        }
        // A query point inside the box lies in exactly one covered cell.
        if q.contains(p) {
            let home = spec.cell_of(p).expect("world extent contains every point");
            let hits = cover.interior.iter().chain(cover.boundary.iter())
                .filter(|c| **c == home)
                .count();
            assert_eq!(hits, 1, "{p} in {q:?} covered {hits} times");
        }
    }
}
