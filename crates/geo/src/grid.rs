//! A uniform grid index over points.
//!
//! This is the warehouse's spatial index (§VI-B): sample-update queries ask
//! for *N updates inside a rectangle*, which a uniform grid answers with a
//! handful of cell scans. Points cluster by country but queries are
//! region-scoped too, so a grid's worst case (all points in one cell) only
//! occurs for queries that would scan those points anyway.
//!
//! The cell geometry itself lives in [`GridSpec`] so the spatial-block bank
//! and the lattice planner share the exact assignment this index uses.

use crate::bbox::{BBox, Point};
use crate::gridspec::GridSpec;

/// A uniform grid over a fixed world extent, mapping points to payloads.
pub struct GridIndex<T> {
    spec: GridSpec,
    cells: Vec<Vec<(Point, T)>>,
    len: usize,
}

impl<T: Copy> GridIndex<T> {
    /// Create a grid of `rows × cols` cells covering `extent`. Dimensions
    /// are clamped into [`GridSpec`]'s supported range rather than
    /// panicking.
    pub fn new(extent: BBox, rows: u32, cols: u32) -> GridIndex<T> {
        GridIndex::from_spec(GridSpec::new(extent, rows, cols))
    }

    /// Create a grid over an existing [`GridSpec`] — the constructor the
    /// warehouse uses so its grid provably shares the bank's geometry.
    pub(crate) fn from_spec(spec: GridSpec) -> GridIndex<T> {
        GridIndex { spec, cells: (0..spec.n_cells()).map(|_| Vec::new()).collect(), len: 0 }
    }

    /// A 256×256 grid over the whole globe — the warehouse default.
    pub fn world_default() -> GridIndex<T> {
        GridIndex::from_spec(GridSpec::world_default())
    }

    /// The cell geometry this index assigns points with.
    #[inline]
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a point. Points outside the extent are rejected with `false`.
    pub fn insert(&mut self, p: Point, payload: T) -> bool {
        let Some(cell) = self.spec.cell_of(p) else { return false };
        match self.cells.get_mut(self.spec.index(cell)) {
            Some(bucket) => {
                bucket.push((p, payload));
                self.len += 1;
                true
            }
            None => false,
        }
    }

    /// Visit every `(point, payload)` inside `q`.
    pub fn query(&self, q: &BBox, visit: &mut impl FnMut(Point, &T)) {
        let cover = self.spec.cover(q);
        for cell in cover.interior.iter().chain(cover.boundary.iter()) {
            for (p, t) in self.cells.get(self.spec.index(*cell)).into_iter().flatten() {
                if q.contains(*p) {
                    visit(*p, t);
                }
            }
        }
    }

    /// Collect up to `limit` payloads inside `q`, in insertion order per cell.
    pub fn sample(&self, q: &BBox, limit: usize) -> Vec<T> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        // A visitor cannot early-exit, so scan cells manually.
        let cover = self.spec.cover(q);
        for cell in cover.interior.iter().chain(cover.boundary.iter()) {
            for (p, t) in self.cells.get(self.spec.index(*cell)).into_iter().flatten() {
                if q.contains(*p) {
                    out.push(*t);
                    if out.len() == limit {
                        return out;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridIndex<usize> {
        GridIndex::new(BBox::new(0, 0, 1000, 1000), 10, 10)
    }

    #[test]
    fn insert_and_query() {
        let mut g = grid();
        assert!(g.insert(Point::new(50, 50), 1));
        assert!(g.insert(Point::new(550, 550), 2));
        assert!(g.insert(Point::new(999, 999), 3));
        assert_eq!(g.len(), 3);

        let mut hits = Vec::new();
        g.query(&BBox::new(0, 0, 600, 600), &mut |_, &i| hits.push(i));
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
    }

    #[test]
    fn rejects_out_of_extent() {
        let mut g = grid();
        assert!(!g.insert(Point::new(-1, 50), 1));
        assert!(!g.insert(Point::new(50, 1001), 2));
        assert!(g.is_empty());
    }

    #[test]
    fn boundary_points_land_in_last_cell() {
        let mut g = grid();
        assert!(g.insert(Point::new(1000, 1000), 9));
        let mut hits = Vec::new();
        g.query(&BBox::new(900, 900, 1000, 1000), &mut |_, &i| hits.push(i));
        assert_eq!(hits, vec![9]);
    }

    #[test]
    fn sample_respects_limit() {
        let mut g = grid();
        for i in 0..20 {
            g.insert(Point::new(10 + i, 10), i as usize);
        }
        let s = g.sample(&BBox::new(0, 0, 1000, 1000), 5);
        assert_eq!(s.len(), 5);
        let all = g.sample(&BBox::new(0, 0, 1000, 1000), 100);
        assert_eq!(all.len(), 20);
        assert!(g.sample(&BBox::new(0, 0, 1000, 1000), 0).is_empty());
    }

    #[test]
    fn query_outside_extent_is_empty() {
        let mut g = grid();
        g.insert(Point::new(500, 500), 1);
        let mut hits = Vec::new();
        g.query(&BBox::new(2000, 2000, 3000, 3000), &mut |_, &i| hits.push(i));
        assert!(hits.is_empty());
    }

    #[test]
    fn matches_naive_on_scattered_points() {
        let mut g = GridIndex::world_default();
        let mut pts = Vec::new();
        let mut state = 12345u64;
        for i in 0..2000usize {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lat = ((state >> 33) as i64 % 1_700_000_000 - 850_000_000) as i32;
            let lon = ((state >> 3) as i64 % 3_500_000_000 - 1_750_000_000) as i32;
            let p = Point::new(lat, lon);
            pts.push((p, i));
            assert!(g.insert(p, i), "{p}");
        }
        let q = BBox::from_deg(-20.0, -90.0, 45.0, 60.0);
        let naive: Vec<usize> = {
            let mut v: Vec<usize> =
                pts.iter().filter(|(p, _)| q.contains(*p)).map(|(_, i)| *i).collect();
            v.sort_unstable();
            v
        };
        let mut got = Vec::new();
        g.query(&q, &mut |_, &i| got.push(i));
        got.sort_unstable();
        assert_eq!(got, naive);
    }

    #[test]
    fn index_agrees_with_its_spec() {
        let mut g = GridIndex::world_default();
        let spec = g.spec();
        let p = Point::from_deg(48.8, 2.3);
        assert!(g.insert(p, 1usize));
        let cell = spec.cell_of(p).unwrap();
        let b = spec.cell_bbox(cell).unwrap();
        // Querying exactly the point's cell box finds it.
        let mut hits = Vec::new();
        g.query(&b, &mut |_, &i| hits.push(i));
        assert_eq!(hits, vec![1]);
    }
}
