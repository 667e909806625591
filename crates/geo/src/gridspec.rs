//! [`GridSpec`]: the pure geometry of a uniform grid, shared by every
//! layer that must agree on cell boundaries.
//!
//! The warehouse's [`GridIndex`](crate::GridIndex) maps points to cells for
//! region sampling; the spatial-block bank (DESIGN.md §15) materializes one
//! pre-aggregated block per (period, cell); the lattice planner decomposes
//! a viewport into interior cells (answerable from blocks) and boundary
//! cells (scanned against the exact query box). All three must use *the
//! same* cell assignment or blocks and scans double-count at cell seams —
//! so the assignment lives here, once, and `GridIndex` is built over it.
//!
//! Cell geometry: `rows × cols` cells over a fixed inclusive extent. Cell
//! heights/widths are `ceil(extent / n)`, and the **last** row/column
//! absorbs the remainder plus the extent's max edge (matching the
//! historical `GridIndex` clamp, so existing warehouse grids keep their
//! point→cell mapping bit-for-bit). Cells near the far edge of an uneven
//! split can be empty; [`GridSpec::cell_bbox`] returns `None` for those
//! and no point ever maps to them.

use crate::bbox::{BBox, Point};

/// One cell of a [`GridSpec`], addressed by row (latitude) and column
/// (longitude).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    pub row: u16,
    pub col: u16,
}

/// The decomposition of a query box into grid cells: `interior` cells lie
/// entirely within the box (whole-cell pre-aggregates apply); `boundary`
/// cells only partially overlap it (rows must be filtered point-by-point).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellCover {
    pub interior: Vec<CellId>,
    pub boundary: Vec<CellId>,
}

impl CellCover {
    /// Total number of cells touched.
    pub fn len(&self) -> usize {
        self.interior.len() + self.boundary.len()
    }

    /// True when the query box misses the grid entirely.
    pub fn is_empty(&self) -> bool {
        self.interior.is_empty() && self.boundary.is_empty()
    }
}

/// Dimensions are capped so a cell code always fits `u32` with room for a
/// reserved sentinel, and a full-extent cover stays enumerable.
const MAX_SIDE: u32 = 4096;

/// A uniform grid over a fixed world extent — geometry only, no payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    extent: BBox,
    rows: u32,
    cols: u32,
    cell_h: i64,
    cell_w: i64,
}

impl GridSpec {
    /// Create a `rows × cols` grid covering `extent`. Dimensions are
    /// clamped into `1..=4096` instead of panicking — the grid is reached
    /// from the request path, where a bad config must degrade, not abort.
    pub fn new(extent: BBox, rows: u32, cols: u32) -> GridSpec {
        let rows = rows.clamp(1, MAX_SIDE);
        let cols = cols.clamp(1, MAX_SIDE);
        let h = (extent.max_lat7 as i64 - extent.min_lat7 as i64).max(1);
        let w = (extent.max_lon7 as i64 - extent.min_lon7 as i64).max(1);
        GridSpec {
            extent,
            rows,
            cols,
            // div_ceil is unstable for signed ints; h and w are positive.
            cell_h: (h + rows as i64 - 1) / rows as i64,
            cell_w: (w + cols as i64 - 1) / cols as i64,
        }
    }

    /// The warehouse default: a 256×256 grid over the whole globe.
    pub fn world_default() -> GridSpec {
        GridSpec::new(BBox::world(), 256, 256)
    }

    /// The grid's world extent.
    #[inline]
    pub fn extent(&self) -> BBox {
        self.extent
    }

    /// Number of rows (latitude direction).
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns (longitude direction).
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Total number of addressable cells (including unreachable remainder
    /// cells of an uneven split).
    #[inline]
    pub(crate) fn n_cells(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// The cell containing `p`, or `None` outside the extent.
    pub fn cell_of(&self, p: Point) -> Option<CellId> {
        if !self.extent.contains(p) {
            return None;
        }
        let r = ((p.lat7 as i64 - self.extent.min_lat7 as i64) / self.cell_h)
            .min(self.rows as i64 - 1) as u16;
        let c = ((p.lon7 as i64 - self.extent.min_lon7 as i64) / self.cell_w)
            .min(self.cols as i64 - 1) as u16;
        Some(CellId { row: r, col: c })
    }

    /// Row-major flat index of `cell` (for `Vec`-backed payload storage).
    #[inline]
    pub fn index(&self, cell: CellId) -> usize {
        cell.row as usize * self.cols as usize + cell.col as usize
    }

    /// Dense `u32` code of `cell` — the spatial half of a lattice cube key.
    #[inline]
    pub fn code(&self, cell: CellId) -> u32 {
        cell.row as u32 * self.cols + cell.col as u32
    }

    /// The inclusive extent of `cell`. `None` for out-of-grid cells and for
    /// the empty remainder cells of an uneven split (no point maps there).
    ///
    /// The returned boxes of all `Some` cells partition the extent exactly:
    /// every extent point lies in exactly one cell box, and that cell is
    /// what [`GridSpec::cell_of`] returns for it.
    pub fn cell_bbox(&self, cell: CellId) -> Option<BBox> {
        if cell.row as u32 >= self.rows || cell.col as u32 >= self.cols {
            return None;
        }
        let lat_lo = self.extent.min_lat7 as i64 + cell.row as i64 * self.cell_h;
        let lon_lo = self.extent.min_lon7 as i64 + cell.col as i64 * self.cell_w;
        let lat_hi = if cell.row as u32 == self.rows - 1 {
            self.extent.max_lat7 as i64
        } else {
            lat_lo + self.cell_h - 1
        };
        let lon_hi = if cell.col as u32 == self.cols - 1 {
            self.extent.max_lon7 as i64
        } else {
            lon_lo + self.cell_w - 1
        };
        let lat_hi = lat_hi.min(self.extent.max_lat7 as i64);
        let lon_hi = lon_hi.min(self.extent.max_lon7 as i64);
        if lat_lo > lat_hi || lon_lo > lon_hi {
            return None; // unreachable remainder cell
        }
        Some(BBox::new(lat_lo as i32, lon_lo as i32, lat_hi as i32, lon_hi as i32))
    }

    /// Decompose `q` into the cells it touches, split into interior cells
    /// (cell box entirely inside `q`) and boundary cells (partial overlap).
    /// Cells outside the extent are dropped — the grid only answers for
    /// points it could have indexed.
    pub fn cover(&self, q: &BBox) -> CellCover {
        let mut out = CellCover::default();
        if !q.intersects(&self.extent) {
            return out;
        }
        let r0 = ((q.min_lat7.max(self.extent.min_lat7) as i64 - self.extent.min_lat7 as i64)
            / self.cell_h)
            .clamp(0, self.rows as i64 - 1) as u16;
        let r1 = ((q.max_lat7.min(self.extent.max_lat7) as i64 - self.extent.min_lat7 as i64)
            / self.cell_h)
            .clamp(0, self.rows as i64 - 1) as u16;
        let c0 = ((q.min_lon7.max(self.extent.min_lon7) as i64 - self.extent.min_lon7 as i64)
            / self.cell_w)
            .clamp(0, self.cols as i64 - 1) as u16;
        let c1 = ((q.max_lon7.min(self.extent.max_lon7) as i64 - self.extent.min_lon7 as i64)
            / self.cell_w)
            .clamp(0, self.cols as i64 - 1) as u16;
        for row in r0..=r1 {
            for col in c0..=c1 {
                let cell = CellId { row, col };
                let Some(b) = self.cell_bbox(cell) else { continue };
                if q.covers(&b) {
                    out.interior.push(cell);
                } else if q.intersects(&b) {
                    out.boundary.push(cell);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GridSpec {
        /// Inverse of [`GridSpec::code`].
        fn cell_from_code(&self, code: u32) -> Option<CellId> {
            let (row, col) = (code / self.cols, code % self.cols);
            if row < self.rows {
                Some(CellId { row: row as u16, col: col as u16 })
            } else {
                None
            }
        }
    }

    #[test]
    fn cell_of_matches_round_trip() {
        let g = GridSpec::new(BBox::new(0, 0, 1000, 1000), 10, 10);
        for p in [Point::new(0, 0), Point::new(999, 1), Point::new(1000, 1000), Point::new(500, 499)] {
            let cell = g.cell_of(p).unwrap();
            let b = g.cell_bbox(cell).unwrap();
            assert!(b.contains(p), "{p} not in its own cell box {b:?}");
        }
        assert_eq!(g.cell_of(Point::new(-1, 0)), None);
        assert_eq!(g.cell_of(Point::new(0, 1001)), None);
    }

    #[test]
    fn uneven_split_remainder_cells_are_none() {
        // Height 10, 9 rows → cell_h = 2 → only rows 0..=5 reachable.
        let g = GridSpec::new(BBox::new(0, 0, 10, 10), 9, 9);
        assert!(g.cell_bbox(CellId { row: 5, col: 0 }).is_some());
        assert_eq!(g.cell_bbox(CellId { row: 8, col: 0 }), None);
        // Every extent point still lands in a valid cell.
        for lat in 0..=10 {
            for lon in 0..=10 {
                let cell = g.cell_of(Point::new(lat, lon)).unwrap();
                assert!(g.cell_bbox(cell).unwrap().contains(Point::new(lat, lon)));
            }
        }
    }

    #[test]
    fn codes_round_trip() {
        let g = GridSpec::new(BBox::new(0, 0, 1000, 1000), 7, 13);
        for row in 0..7u16 {
            for col in 0..13u16 {
                let cell = CellId { row, col };
                assert_eq!(g.cell_from_code(g.code(cell)), Some(cell));
            }
        }
        assert_eq!(g.cell_from_code(7 * 13), None);
    }

    #[test]
    fn cover_splits_interior_and_boundary() {
        let g = GridSpec::new(BBox::new(0, 0, 1000, 1000), 10, 10);
        // Exactly cells (1..=2, 1..=2) interior, ring of boundary around.
        let q = BBox::new(50, 50, 350, 350);
        let cover = g.cover(&q);
        assert_eq!(cover.interior, vec![CellId { row: 1, col: 1 }, CellId { row: 1, col: 2 }, CellId { row: 2, col: 1 }, CellId { row: 2, col: 2 }]);
        assert_eq!(cover.len(), 16); // 4×4 cells touched in total
        for cell in &cover.boundary {
            let b = g.cell_bbox(*cell).unwrap();
            assert!(q.intersects(&b) && !q.covers(&b));
        }
    }

    #[test]
    fn cover_outside_extent_is_empty() {
        let g = GridSpec::new(BBox::new(0, 0, 100, 100), 4, 4);
        assert!(g.cover(&BBox::new(200, 200, 300, 300)).is_empty());
        // Clipped query still covers the touched corner.
        let c = g.cover(&BBox::new(90, 90, 300, 300));
        assert!(!c.is_empty());
    }

    #[test]
    fn dimensions_are_clamped_not_panicking() {
        let g = GridSpec::new(BBox::world(), 0, 1 << 20);
        assert_eq!(g.rows(), 1);
        assert_eq!(g.cols(), MAX_SIDE);
    }
}
