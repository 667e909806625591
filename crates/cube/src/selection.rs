//! [`DimSelection`]: which cells of a cube a query touches.
//!
//! A RASED analysis query filters each non-temporal dimension with an `IN`
//! list (or no constraint). A `DimSelection` is that filter resolved against
//! a concrete [`CubeSchema`]: four sorted index lists, one per dimension,
//! each with a membership bitmap built alongside it.

use crate::schema::CubeSchema;
use rased_osm_model::{CountryId, ElementType, RoadTypeId, UpdateType};

/// A resolved per-dimension index selection over one cube schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimSelection {
    schema: CubeSchema,
    element_types: Dim,
    countries: Dim,
    road_types: Dim,
    update_types: Dim,
}

/// One dimension's selection, as a sorted list (the dense fold iterates
/// it) and as a bitmap built with it (the sparse fold's membership test).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Dim {
    list: Vec<usize>,
    bits: Vec<u64>,
}

impl Dim {
    /// Keep the indexes below `cardinality`, sorted and deduplicated.
    fn new(mut list: Vec<usize>, cardinality: usize) -> Dim {
        list.retain(|&i| i < cardinality);
        list.sort_unstable();
        list.dedup();
        let mut bits = vec![0u64; cardinality.div_ceil(64)];
        for &i in &list {
            if let Some(word) = bits.get_mut(i / 64) {
                *word |= 1 << (i % 64);
            }
        }
        Dim { list, bits }
    }

    fn all(cardinality: usize) -> Dim {
        Dim::new((0..cardinality).collect(), cardinality)
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.bits.get(i / 64).is_some_and(|word| word >> (i % 64) & 1 != 0)
    }
}

impl DimSelection {
    /// Select everything.
    pub fn all(schema: CubeSchema) -> DimSelection {
        DimSelection {
            schema,
            element_types: Dim::all(schema.n_element_types()),
            countries: Dim::all(schema.n_countries()),
            road_types: Dim::all(schema.n_road_types()),
            update_types: Dim::all(schema.n_update_types()),
        }
    }

    /// Restrict the element-type dimension.
    pub fn with_element_types(mut self, types: &[ElementType]) -> DimSelection {
        self.element_types =
            Dim::new(types.iter().map(|t| t.index()).collect(), self.schema.n_element_types());
        self
    }

    /// Restrict the country dimension. Ids beyond the schema are dropped.
    pub fn with_countries(mut self, countries: &[CountryId]) -> DimSelection {
        self.countries =
            Dim::new(countries.iter().map(|c| c.index()).collect(), self.schema.n_countries());
        self
    }

    /// Restrict the road-type dimension. Ids beyond the schema are dropped.
    pub fn with_road_types(mut self, roads: &[RoadTypeId]) -> DimSelection {
        self.road_types =
            Dim::new(roads.iter().map(|r| r.index()).collect(), self.schema.n_road_types());
        self
    }

    /// Restrict the update-type dimension.
    pub fn with_update_types(mut self, updates: &[UpdateType]) -> DimSelection {
        self.update_types =
            Dim::new(updates.iter().map(|u| u.index()).collect(), self.schema.n_update_types());
        self
    }

    /// The schema this selection was resolved against.
    pub fn schema(&self) -> CubeSchema {
        self.schema
    }

    /// Selected element-type indexes (sorted).
    pub fn element_types(&self) -> &[usize] {
        &self.element_types.list
    }

    /// Selected country indexes (sorted).
    pub fn countries(&self) -> &[usize] {
        &self.countries.list
    }

    /// Selected road-type indexes (sorted).
    pub fn road_types(&self) -> &[usize] {
        &self.road_types.list
    }

    /// Selected update-type indexes (sorted).
    pub fn update_types(&self) -> &[usize] {
        &self.update_types.list
    }

    /// True when the cell at `(et, country, road, update)` is selected on
    /// every dimension — the membership test sparse encodings filter with
    /// (dense cubes iterate the selection instead; see
    /// `DataCube::for_each_selected`). Four bitmap probes.
    #[inline]
    pub fn contains(&self, et: usize, country: usize, road: usize, update: usize) -> bool {
        self.element_types.contains(et)
            && self.countries.contains(country)
            && self.road_types.contains(road)
            && self.update_types.contains(update)
    }

    /// True when any dimension selects nothing (the query matches no cell).
    pub fn is_empty(&self) -> bool {
        self.element_types.list.is_empty()
            || self.countries.list.is_empty()
            || self.road_types.list.is_empty()
            || self.update_types.list.is_empty()
    }

    /// Number of selected cells.
    pub fn cell_count(&self) -> usize {
        self.element_types.list.len()
            * self.countries.list.len()
            * self.road_types.list.len()
            * self.update_types.list.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_selects_every_cell() {
        let s = CubeSchema::tiny();
        let sel = DimSelection::all(s);
        assert_eq!(sel.cell_count(), s.cell_count());
        assert!(!sel.is_empty());
    }

    #[test]
    fn restrictions_compose() {
        let s = CubeSchema::tiny();
        let sel = DimSelection::all(s)
            .with_element_types(&[ElementType::Way, ElementType::Node])
            .with_countries(&[CountryId(1), CountryId(3), CountryId(1)])
            .with_update_types(&[UpdateType::Create]);
        assert_eq!(sel.element_types(), &[0, 1]);
        assert_eq!(sel.countries(), &[1, 3]); // deduped + sorted
        assert_eq!(sel.road_types().len(), 3); // untouched
        assert_eq!(sel.update_types(), &[0]);
        assert_eq!(sel.cell_count(), (2 * 2 * 3));
    }

    #[test]
    fn out_of_schema_ids_are_dropped() {
        let s = CubeSchema::tiny(); // 4 countries
        let sel = DimSelection::all(s).with_countries(&[CountryId(2), CountryId(99)]);
        assert_eq!(sel.countries(), &[2]);
    }

    #[test]
    fn empty_selection_detected() {
        let s = CubeSchema::tiny();
        let sel = DimSelection::all(s).with_countries(&[CountryId(99)]);
        assert!(sel.is_empty());
        assert_eq!(sel.cell_count(), 0);
    }
}
