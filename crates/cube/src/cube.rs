//! [`DataCube`]: the dense count array plus build, merge, and serialization.

use crate::schema::CubeSchema;
use crate::selection::DimSelection;
use crate::sparse;
use crate::view::CubeView;
use rased_osm_model::UpdateRecord;
use std::fmt;

/// Serialized cube header: magic (8) + n_countries (4) + n_road_types (4).
pub(crate) const CUBE_HEADER_BYTES: usize = 16;
pub(crate) const MAGIC: &[u8; 8] = b"RSCUBE1\0";

/// Cube-level error.
#[derive(Debug, PartialEq, Eq)]
pub enum CubeError {
    /// A record whose country/road id exceeds the schema.
    CoordOutOfRange { dim: &'static str, index: usize, cardinality: usize },
    /// Two cubes with different schemas in one operation.
    SchemaMismatch,
    /// Deserialization failure.
    Corrupt(String),
}

impl fmt::Display for CubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeError::CoordOutOfRange { dim, index, cardinality } => {
                write!(f, "{dim} index {index} out of range (cardinality {cardinality})")
            }
            CubeError::SchemaMismatch => write!(f, "cube schemas differ"),
            CubeError::Corrupt(m) => write!(f, "corrupt cube: {m}"),
        }
    }
}

impl std::error::Error for CubeError {}

/// A dense 4-D count cube (see crate docs for the dimension semantics).
#[derive(Clone, PartialEq, Eq)]
pub struct DataCube {
    schema: CubeSchema,
    cells: Vec<u64>,
}

impl fmt::Debug for DataCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataCube")
            .field("schema", &self.schema)
            .field("total", &self.total())
            .finish_non_exhaustive()
    }
}

impl DataCube {
    /// An all-zero cube.
    pub fn zeroed(schema: CubeSchema) -> DataCube {
        DataCube { schema, cells: vec![0; schema.cell_count()] }
    }

    /// Build a cube by counting records. Fails on the first record whose
    /// coordinates exceed the schema.
    pub fn from_records<'a, I>(schema: CubeSchema, records: I) -> Result<DataCube, CubeError>
    where
        I: IntoIterator<Item = &'a UpdateRecord>,
    {
        let mut cube = DataCube::zeroed(schema);
        for r in records {
            cube.add_record(r)?;
        }
        Ok(cube)
    }

    /// The cube's schema.
    #[inline]
    pub fn schema(&self) -> CubeSchema {
        self.schema
    }

    /// Raw cell slice (cells are `u64` counts, layout per
    /// [`CubeSchema::cell_index`]).
    #[inline]
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// Count one update record.
    pub(crate) fn add_record(&mut self, r: &UpdateRecord) -> Result<(), CubeError> {
        let c = r.country.index();
        if c >= self.schema.n_countries() {
            return Err(CubeError::CoordOutOfRange {
                dim: "country",
                index: c,
                cardinality: self.schema.n_countries(),
            });
        }
        let rt = r.road_type.index();
        if rt >= self.schema.n_road_types() {
            return Err(CubeError::CoordOutOfRange {
                dim: "road type",
                index: rt,
                cardinality: self.schema.n_road_types(),
            });
        }
        let i = self.schema.cell_index(r.element_type.index(), c, rt, r.update_type.index());
        match self.cells.get_mut(i) {
            Some(cell) => {
                *cell += 1;
                Ok(())
            }
            // Unreachable after the dimension checks above; kept total so a
            // schema bug surfaces as a typed error, not an index panic.
            None => Err(CubeError::CoordOutOfRange {
                dim: "cell",
                index: i,
                cardinality: self.schema.cell_count(),
            }),
        }
    }

    /// Read one cell. Out-of-schema coordinates read as 0.
    #[inline]
    pub fn get(&self, et: usize, country: usize, road: usize, update: usize) -> u64 {
        self.cells.get(self.schema.cell_index(et, country, road, update)).copied().unwrap_or(0)
    }

    /// Overwrite one cell. Out-of-schema coordinates are ignored (the
    /// debug assertions in [`CubeSchema::cell_index`] catch misuse in
    /// tests; release builds stay total).
    #[inline]
    pub fn set(&mut self, et: usize, country: usize, road: usize, update: usize, v: u64) {
        let i = self.schema.cell_index(et, country, road, update);
        if let Some(cell) = self.cells.get_mut(i) {
            *cell = v;
        }
    }

    /// Sum of all cells — the total number of updates in the time window.
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Element-wise add `other` into `self` — the roll-up operation that
    /// builds weekly/monthly/yearly cubes from their children (§VI-A:
    /// "reading the six previous cubes and summing up their corresponding
    /// values").
    pub fn merge_from(&mut self, other: &DataCube) -> Result<(), CubeError> {
        if self.schema != other.schema {
            return Err(CubeError::SchemaMismatch);
        }
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += b;
        }
        Ok(())
    }

    /// Visit every selected, *non-zero* cell as
    /// `(element, country, road, update, count)`.
    pub fn for_each_selected<F>(&self, sel: &DimSelection, visit: F)
    where
        F: FnMut(usize, usize, usize, usize, u64),
    {
        fold_dense(self.schema, sel, |i| self.cells.get(i).copied(), visit);
    }

    /// Serialize in the smaller of the two encodings: sparse
    /// ([`SparseBlock`](crate::SparseBlock)'s, 12 bytes per non-zero cell)
    /// when that is shorter than dense ([`CubeSchema::cube_bytes`]), dense
    /// otherwise. On a 4 320-cell schema that is sparse below 2 880
    /// non-zero cells. Sparse entries address cells by `u32`, so a schema
    /// with more cells always stores dense.
    pub fn to_bytes(&self) -> Vec<u8> {
        let nnz = self.cells.iter().filter(|&&v| v != 0).count();
        let addressable = u32::try_from(self.schema.cell_count()).is_ok();
        if addressable && sparse::encoded_len(nnz) < self.schema.cube_bytes() {
            let entries = self.cells.iter().enumerate().filter(|(_, &v)| v != 0);
            return sparse::encode(self.schema, nnz, entries.map(|(i, &v)| (i as u32, v)));
        }
        let mut out = Vec::with_capacity(self.schema.cube_bytes());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.schema.n_countries() as u32).to_le_bytes());
        out.extend_from_slice(&(self.schema.n_road_types() as u32).to_le_bytes());
        for c in &self.cells {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Deserialize either encoding; `expected` guards against reading a
    /// cube written under a different schema. Trailing page padding
    /// beyond the cube is ignored. Validation is [`CubeView::parse`]'s.
    pub fn from_bytes(expected: CubeSchema, bytes: &[u8]) -> Result<DataCube, CubeError> {
        Ok(CubeView::parse(expected, bytes)?.to_cube())
    }

    /// A cube over already-decoded cells (`schema.cell_count()` of them).
    pub(crate) fn from_cells(schema: CubeSchema, cells: Vec<u64>) -> DataCube {
        debug_assert_eq!(cells.len(), schema.cell_count());
        DataCube { schema, cells }
    }
}

/// The one dense fold: iterate the selection in layout order (cache
/// friendly) and visit every selected, non-zero cell; `cell(i)` reads
/// flat cell `i`.
pub(crate) fn fold_dense<F>(
    schema: CubeSchema,
    sel: &DimSelection,
    cell: impl Fn(usize) -> Option<u64>,
    mut visit: F,
) where
    F: FnMut(usize, usize, usize, usize, u64),
{
    debug_assert_eq!(sel.schema(), schema, "selection resolved against another schema");
    for &et in sel.element_types() {
        for &c in sel.countries() {
            for &r in sel.road_types() {
                let base = schema.cell_index(et, c, r, 0);
                for &u in sel.update_types() {
                    let Some(v) = cell(base + u) else { continue };
                    if v != 0 {
                        visit(et, c, r, u, v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateType};

    impl DataCube {
        /// Zero every cell of one update type.
        fn clear_update_type(&mut self, update: usize) {
            let s = self.schema;
            for et in 0..s.n_element_types() {
                for c in 0..s.n_countries() {
                    for r in 0..s.n_road_types() {
                        let i = s.cell_index(et, c, r, update);
                        if let Some(cell) = self.cells.get_mut(i) {
                            *cell = 0;
                        }
                    }
                }
            }
        }
    }

    fn rec(et: ElementType, c: u16, r: u16, u: UpdateType) -> UpdateRecord {
        UpdateRecord {
            element_type: et,
            update_type: u,
            country: CountryId(c),
            road_type: RoadTypeId(r),
            date: "2021-01-01".parse().unwrap(),
            lat7: 0,
            lon7: 0,
            changeset: ChangesetId(1),
        }
    }

    #[test]
    fn build_from_records_counts_cells() {
        let s = CubeSchema::tiny();
        let records = vec![
            rec(ElementType::Way, 0, 1, UpdateType::Create),
            rec(ElementType::Way, 0, 1, UpdateType::Create),
            rec(ElementType::Node, 3, 2, UpdateType::Delete),
        ];
        let cube = DataCube::from_records(s, &records).unwrap();
        assert_eq!(cube.get(1, 0, 1, 0), 2);
        assert_eq!(cube.get(0, 3, 2, 1), 1);
        assert_eq!(cube.total(), 3);
    }

    #[test]
    fn out_of_range_record_rejected() {
        let s = CubeSchema::tiny(); // 4 countries, 3 road types
        let mut cube = DataCube::zeroed(s);
        let bad_country = rec(ElementType::Node, 4, 0, UpdateType::Create);
        assert!(matches!(
            cube.add_record(&bad_country),
            Err(CubeError::CoordOutOfRange { dim: "country", .. })
        ));
        let bad_road = rec(ElementType::Node, 0, 3, UpdateType::Create);
        assert!(matches!(
            cube.add_record(&bad_road),
            Err(CubeError::CoordOutOfRange { dim: "road type", .. })
        ));
    }

    #[test]
    fn merge_is_elementwise_add() {
        let s = CubeSchema::tiny();
        let a = DataCube::from_records(s, &[rec(ElementType::Way, 1, 1, UpdateType::Create)]).unwrap();
        let b = DataCube::from_records(
            s,
            &[rec(ElementType::Way, 1, 1, UpdateType::Create), rec(ElementType::Node, 0, 0, UpdateType::Metadata)],
        )
        .unwrap();
        let mut m = DataCube::zeroed(s);
        m.merge_from(&a).unwrap();
        m.merge_from(&b).unwrap();
        assert_eq!(m.get(1, 1, 1, 0), 2);
        assert_eq!(m.get(0, 0, 0, 3), 1);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn merge_rejects_schema_mismatch() {
        let mut a = DataCube::zeroed(CubeSchema::tiny());
        let b = DataCube::zeroed(CubeSchema::new(10, 10));
        assert_eq!(a.merge_from(&b), Err(CubeError::SchemaMismatch));
    }

    #[test]
    fn serialization_roundtrip() {
        let s = CubeSchema::tiny();
        let cube = DataCube::from_records(
            s,
            &[
                rec(ElementType::Way, 1, 2, UpdateType::Geometry),
                rec(ElementType::Relation, 3, 0, UpdateType::Unclassified),
            ],
        )
        .unwrap();
        let bytes = cube.to_bytes();
        // Two non-zero cells: sparse, exactly because it is smaller.
        assert_eq!(bytes.len(), crate::BLOCK_HEADER_BYTES + 2 * 12);
        assert!(bytes.len() < s.cube_bytes());
        let back = DataCube::from_bytes(s, &bytes).unwrap();
        assert_eq!(back, cube);

        // Page padding beyond the cube is tolerated.
        let mut padded = bytes.clone();
        padded.resize(padded.len() + 100, 0xAA);
        assert_eq!(DataCube::from_bytes(s, &padded).unwrap(), cube);
    }

    #[test]
    fn encoding_is_sparse_exactly_when_smaller() {
        // tiny: 180 cells, dense 1 456 B; sparse 20 + 12·n B is smaller
        // up to n = 119.
        let s = CubeSchema::tiny();
        for (nnz, sparse) in [(0, true), (119, true), (120, false), (180, false)] {
            let mut cube = DataCube::zeroed(s);
            for i in 0..nnz {
                let (et, c, r, u) = s.coords_of(i);
                cube.set(et, c, r, u, i as u64 + 1);
            }
            let bytes = cube.to_bytes();
            let want = if sparse { crate::BLOCK_HEADER_BYTES + nnz * 12 } else { s.cube_bytes() };
            assert_eq!(bytes.len(), want, "nnz={nnz}");
            assert_eq!(DataCube::from_bytes(s, &bytes).unwrap(), cube, "nnz={nnz}");
        }
    }

    #[test]
    fn deserialization_rejects_corruption() {
        let s = CubeSchema::tiny();
        let mut full = DataCube::zeroed(s);
        for i in 0..s.cell_count() {
            let (et, c, r, u) = s.coords_of(i);
            full.set(et, c, r, u, 1);
        }
        let bytes = full.to_bytes();
        assert_eq!(bytes.len(), s.cube_bytes(), "a full cube stays dense");
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(DataCube::from_bytes(s, &bad), Err(CubeError::Corrupt(_))));
        // Truncated.
        assert!(matches!(
            DataCube::from_bytes(s, &bytes[..bytes.len() - 9]),
            Err(CubeError::Corrupt(_))
        ));
        assert!(matches!(DataCube::from_bytes(s, &bytes[..4]), Err(CubeError::Corrupt(_))));
        // Schema mismatch.
        assert_eq!(
            DataCube::from_bytes(CubeSchema::new(9, 9), &bytes).unwrap_err(),
            CubeError::SchemaMismatch
        );
    }

    #[test]
    fn clear_update_type_zeroes_one_slice() {
        let s = CubeSchema::tiny();
        let mut cube = DataCube::from_records(
            s,
            &[
                rec(ElementType::Way, 0, 0, UpdateType::Unclassified),
                rec(ElementType::Way, 0, 0, UpdateType::Create),
            ],
        )
        .unwrap();
        cube.clear_update_type(UpdateType::Unclassified.index());
        assert_eq!(cube.get(1, 0, 0, UpdateType::Unclassified.index()), 0);
        assert_eq!(cube.get(1, 0, 0, UpdateType::Create.index()), 1);
        assert_eq!(cube.total(), 1);
    }
}
