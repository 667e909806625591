//! Points and axis-aligned bounding boxes in 1e-7° fixed point.

use std::fmt;

/// A geographic point in OSM's 1e-7° fixed-point representation.
///
/// Fixed point keeps all geometry exact: equality and containment never
/// suffer floating-point edge cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point {
    pub lat7: i32,
    pub lon7: i32,
}

impl Point {
    /// Build from fixed-point coordinates.
    #[inline]
    pub fn new(lat7: i32, lon7: i32) -> Point {
        Point { lat7, lon7 }
    }

    /// Build from degrees.
    #[inline]
    pub fn from_deg(lat: f64, lon: f64) -> Point {
        Point { lat7: (lat * 1e7).round() as i32, lon7: (lon * 1e7).round() as i32 }
    }

    /// Latitude in degrees.
    #[inline]
    pub fn lat(self) -> f64 {
        self.lat7 as f64 * 1e-7
    }

    /// Longitude in degrees.
    #[inline]
    pub fn lon(self) -> f64 {
        self.lon7 as f64 * 1e-7
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.7}, {:.7})", self.lat(), self.lon())
    }
}

/// An axis-aligned bounding box (inclusive on all edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BBox {
    pub min_lat7: i32,
    pub min_lon7: i32,
    pub max_lat7: i32,
    pub max_lon7: i32,
}

impl BBox {
    /// Build from corner coordinates; normalizes swapped bounds.
    pub fn new(min_lat7: i32, min_lon7: i32, max_lat7: i32, max_lon7: i32) -> BBox {
        BBox {
            min_lat7: min_lat7.min(max_lat7),
            min_lon7: min_lon7.min(max_lon7),
            max_lat7: min_lat7.max(max_lat7),
            max_lon7: min_lon7.max(max_lon7),
        }
    }

    /// Build from degree coordinates.
    pub fn from_deg(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> BBox {
        let a = Point::from_deg(min_lat, min_lon);
        let b = Point::from_deg(max_lat, max_lon);
        BBox::new(a.lat7, a.lon7, b.lat7, b.lon7)
    }

    /// The degenerate box covering a single point.
    pub fn of_point(p: Point) -> BBox {
        BBox { min_lat7: p.lat7, min_lon7: p.lon7, max_lat7: p.lat7, max_lon7: p.lon7 }
    }

    /// A box covering the whole globe.
    pub fn world() -> BBox {
        BBox::from_deg(-90.0, -180.0, 90.0, 180.0)
    }

    /// True when `p` lies inside or on the border.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.min_lat7 <= p.lat7
            && p.lat7 <= self.max_lat7
            && self.min_lon7 <= p.lon7
            && p.lon7 <= self.max_lon7
    }

    /// True when the boxes share any point (borders included).
    #[inline]
    pub fn intersects(&self, other: &BBox) -> bool {
        self.min_lat7 <= other.max_lat7
            && other.min_lat7 <= self.max_lat7
            && self.min_lon7 <= other.max_lon7
            && other.min_lon7 <= self.max_lon7
    }

    /// True when `other` lies entirely within `self`.
    #[inline]
    pub fn covers(&self, other: &BBox) -> bool {
        self.min_lat7 <= other.min_lat7
            && other.max_lat7 <= self.max_lat7
            && self.min_lon7 <= other.min_lon7
            && other.max_lon7 <= self.max_lon7
    }

    /// Center point (rounds toward the min corner on odd extents).
    #[inline]
    pub fn center(&self) -> Point {
        Point {
            lat7: ((self.min_lat7 as i64 + self.max_lat7 as i64) / 2) as i32,
            lon7: ((self.min_lon7 as i64 + self.max_lon7 as i64) / 2) as i32,
        }
    }

    /// The box itself, so a rectangular territory reads like a shape:
    /// `benchmark/src/requests.rs` asks an atlas zone for
    /// `zone.polygon.bbox()`.
    pub fn bbox(&self) -> BBox {
        *self
    }

    /// The smallest box covering both inputs.
    pub fn union(&self, other: &BBox) -> BBox {
        BBox {
            min_lat7: self.min_lat7.min(other.min_lat7),
            min_lon7: self.min_lon7.min(other.min_lon7),
            max_lat7: self.max_lat7.max(other.max_lat7),
            max_lon7: self.max_lon7.max(other.max_lon7),
        }
    }

    /// Grow the box to include `p`.
    pub fn expand_to(&mut self, p: Point) {
        self.min_lat7 = self.min_lat7.min(p.lat7);
        self.min_lon7 = self.min_lon7.min(p.lon7);
        self.max_lat7 = self.max_lat7.max(p.lat7);
        self.max_lon7 = self.max_lon7.max(p.lon7);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BBox {
        /// "Area" in squared fixed-point units.
        fn area(&self) -> i128 {
            let h = (self.max_lat7 - self.min_lat7) as i128;
            let w = (self.max_lon7 - self.min_lon7) as i128;
            h * w
        }
    }

    #[test]
    fn point_conversions() {
        let p = Point::from_deg(45.0, -93.5);
        assert_eq!(p.lat7, 450_000_000);
        assert_eq!(p.lon7, -935_000_000);
        assert!((p.lat() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn bbox_normalizes_swapped_corners() {
        let b = BBox::new(10, 20, -10, -20);
        assert_eq!(b, BBox::new(-10, -20, 10, 20));
    }

    #[test]
    fn contains_is_border_inclusive() {
        let b = BBox::new(0, 0, 10, 10);
        assert!(b.contains(Point::new(0, 0)));
        assert!(b.contains(Point::new(10, 10)));
        assert!(b.contains(Point::new(5, 5)));
        assert!(!b.contains(Point::new(11, 5)));
        assert!(!b.contains(Point::new(5, -1)));
    }

    #[test]
    fn intersects_and_covers() {
        let a = BBox::new(0, 0, 10, 10);
        let b = BBox::new(10, 10, 20, 20); // touches at a corner
        let c = BBox::new(11, 11, 20, 20);
        let inner = BBox::new(2, 2, 8, 8);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.covers(&inner));
        assert!(!inner.covers(&a));
        assert!(a.covers(&a));
    }

    #[test]
    fn center_and_union() {
        let a = BBox::new(0, 0, 10, 10);
        assert_eq!(a.center(), Point::new(5, 5));
        let b = BBox::new(-5, 20, 0, 30);
        let u = a.union(&b);
        assert_eq!(u, BBox::new(-5, 0, 10, 30));
    }

    #[test]
    fn center_avoids_overflow_at_extremes() {
        let b = BBox::new(i32::MAX - 2, i32::MAX - 2, i32::MAX, i32::MAX);
        assert_eq!(b.center(), Point::new(i32::MAX - 1, i32::MAX - 1));
    }

    #[test]
    fn expand_and_area() {
        let mut b = BBox::of_point(Point::new(5, 5));
        assert_eq!(b.area(), 0);
        b.expand_to(Point::new(0, 10));
        assert_eq!(b, BBox::new(0, 5, 5, 10));
        assert_eq!(b.area(), 25);
    }
}
