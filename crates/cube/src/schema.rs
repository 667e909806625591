//! [`CubeSchema`]: the dimension cardinalities and cell addressing.

use rased_osm_model::{ElementType, UpdateType};

/// Dimension cardinalities of a data cube.
///
/// ElementType (3) and UpdateType (5) are fixed by the OSM model; countries
/// and road types are taxonomy-table sizes. Two cubes interoperate (merge,
/// compare) iff their schemas are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CubeSchema {
    n_countries: u32,
    n_road_types: u32,
}

impl CubeSchema {
    /// Build a schema; both cardinalities must be non-zero.
    pub fn new(n_countries: usize, n_road_types: usize) -> CubeSchema {
        assert!(n_countries > 0 && n_road_types > 0, "cube dimensions must be non-zero");
        assert!(n_countries <= u16::MAX as usize && n_road_types <= u16::MAX as usize);
        CubeSchema { n_countries: n_countries as u32, n_road_types: n_road_types as u32 }
    }

    /// The paper's deployment scale: all countries + zones × 150 road types.
    /// ≈ 3 × 250 × 150 × 5 cells ≈ 4.5 MB per cube.
    pub fn paper_scale() -> CubeSchema {
        CubeSchema::new(rased_osm_model::COUNTRY_COUNT_FULL, 150)
    }

    /// A small schema for unit tests: 4 countries × 3 road types.
    pub fn tiny() -> CubeSchema {
        CubeSchema::new(4, 3)
    }

    /// Number of element types (first dimension).
    #[inline]
    pub fn n_element_types(&self) -> usize {
        ElementType::CARDINALITY
    }

    /// Number of countries/zones (second dimension).
    #[inline]
    pub fn n_countries(&self) -> usize {
        self.n_countries as usize
    }

    /// Number of road types (third dimension).
    #[inline]
    pub fn n_road_types(&self) -> usize {
        self.n_road_types as usize
    }

    /// Number of update types (fourth dimension).
    #[inline]
    pub fn n_update_types(&self) -> usize {
        UpdateType::CARDINALITY
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.n_element_types() * self.n_countries() * self.n_road_types() * self.n_update_types()
    }

    /// Serialized cube size in bytes (header + u64 cells).
    #[inline]
    pub fn cube_bytes(&self) -> usize {
        crate::cube::CUBE_HEADER_BYTES + self.cell_count() * 8
    }

    /// Flat index of a cell. Layout: `[element][country][road][update]`,
    /// update innermost — the most common query pattern sums a few update
    /// types for fixed other coordinates, which this keeps contiguous.
    #[inline]
    pub(crate) fn cell_index(&self, et: usize, country: usize, road: usize, update: usize) -> usize {
        debug_assert!(et < self.n_element_types());
        debug_assert!(country < self.n_countries());
        debug_assert!(road < self.n_road_types());
        debug_assert!(update < self.n_update_types());
        ((et * self.n_countries() + country) * self.n_road_types() + road) * self.n_update_types()
            + update
    }

    /// Inverse of [`CubeSchema::cell_index`].
    pub fn coords_of(&self, index: usize) -> (usize, usize, usize, usize) {
        let u = index % self.n_update_types();
        let rest = index / self.n_update_types();
        let r = rest % self.n_road_types();
        let rest = rest / self.n_road_types();
        let c = rest % self.n_countries();
        let et = rest / self.n_countries();
        (et, c, r, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_cell_count() {
        let s = CubeSchema::paper_scale();
        // 3 × (countries+zones) × 150 × 5. With the paper's 4-valued
        // UpdateType this would be the quoted 540 000 at 300 countries.
        assert_eq!(
            s.cell_count(),
            3 * rased_osm_model::COUNTRY_COUNT_FULL * 150 * 5
        );
        // One cube still fits in a ~4 MB disk page neighborhood.
        assert!(s.cube_bytes() > 3 << 20 && s.cube_bytes() < 8 << 20, "{}", s.cube_bytes());
    }

    #[test]
    fn index_coords_roundtrip() {
        let s = CubeSchema::new(5, 4);
        let mut seen = std::collections::HashSet::new();
        for et in 0..3 {
            for c in 0..5 {
                for r in 0..4 {
                    for u in 0..5 {
                        let i = s.cell_index(et, c, r, u);
                        assert!(i < s.cell_count());
                        assert!(seen.insert(i), "collision at {i}");
                        assert_eq!(s.coords_of(i), (et, c, r, u));
                    }
                }
            }
        }
        assert_eq!(seen.len(), s.cell_count());
    }

    #[test]
    fn update_dimension_is_innermost() {
        let s = CubeSchema::tiny();
        let base = s.cell_index(1, 2, 1, 0);
        for u in 0..s.n_update_types() {
            assert_eq!(s.cell_index(1, 2, 1, u), base + u);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = CubeSchema::new(0, 5);
    }
}
