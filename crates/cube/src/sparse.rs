//! [`SparseBlock`]: a sparse pre-aggregated cube for one spatial region.
//!
//! A grid cell sees a tiny slice of the world's updates, so a dense
//! [`DataCube`](crate::DataCube) per (period, cell) would waste a page of
//! mostly-zero `u64`s on every block. A `SparseBlock` stores only the
//! non-zero cells as sorted `(cell_index, count)` pairs against the same
//! [`CubeSchema`] addressing — GeoBlocks-style pre-aggregation sized to
//! its content, typically a few hundred bytes.
//!
//! Blocks are built from *original* update records (no zone expansion —
//! geography is already explicit in the spatial key, so zone roll-ups
//! would double-count under a bbox filter), merged by element-wise add for
//! temporal roll-up, and queried through the same [`DimSelection`]
//! membership the dense path resolves.
//!
//! The encoding is also the one a [`DataCube`](crate::DataCube) is stored
//! in whenever it is the smaller of the two (see `DataCube::to_bytes`).

use crate::cube::CubeError;
use crate::schema::CubeSchema;
use crate::selection::DimSelection;
use crate::view;
use rased_osm_model::UpdateRecord;

/// Serialized header: magic (8) + n_countries (4) + n_road_types (4) +
/// entry count (4).
pub const BLOCK_HEADER_BYTES: usize = 20;
pub(crate) const MAGIC: &[u8; 8] = b"RSBLK1\0\0";
/// Bytes per serialized entry: cell index (u32) + count (u64).
pub(crate) const ENTRY_BYTES: usize = 12;

/// Encoded size of `count` entries.
pub(crate) fn encoded_len(count: usize) -> usize {
    BLOCK_HEADER_BYTES + count * ENTRY_BYTES
}

/// Encode `count` sorted, non-zero `(cell_index, count)` entries.
pub(crate) fn encode(schema: CubeSchema, count: usize, entries: impl Iterator<Item = (u32, u64)>) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(count));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(schema.n_countries() as u32).to_le_bytes());
    out.extend_from_slice(&(schema.n_road_types() as u32).to_le_bytes());
    out.extend_from_slice(&(count as u32).to_le_bytes());
    for (i, v) in entries {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The one sparse fold: visit every entry the selection contains as
/// `(element, country, road, update, count)`. Cost is proportional to the
/// entries, not to the cube.
pub(crate) fn fold<F>(
    schema: CubeSchema,
    entries: impl Iterator<Item = (u32, u64)>,
    sel: &DimSelection,
    mut visit: F,
) where
    F: FnMut(usize, usize, usize, usize, u64),
{
    debug_assert_eq!(sel.schema(), schema, "selection resolved against another schema");
    for (i, v) in entries {
        let (et, c, r, u) = schema.coords_of(i as usize);
        if sel.contains(et, c, r, u) {
            visit(et, c, r, u, v);
        }
    }
}

/// A sparse 4-D count cube: only non-zero cells, sorted by flat index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBlock {
    schema: CubeSchema,
    /// Sorted by cell index, no duplicates, no zero counts.
    entries: Vec<(u32, u64)>,
}

impl SparseBlock {
    /// An empty block.
    pub fn empty(schema: CubeSchema) -> SparseBlock {
        SparseBlock { schema, entries: Vec::new() }
    }

    /// Build by counting records. Fails on the first record whose
    /// coordinates exceed the schema (same contract as
    /// `DataCube::from_records`).
    pub fn from_records<'a, I>(schema: CubeSchema, records: I) -> Result<SparseBlock, CubeError>
    where
        I: IntoIterator<Item = &'a UpdateRecord>,
    {
        let mut counts = std::collections::BTreeMap::new();
        for r in records {
            let c = r.country.index();
            if c >= schema.n_countries() {
                return Err(CubeError::CoordOutOfRange {
                    dim: "country",
                    index: c,
                    cardinality: schema.n_countries(),
                });
            }
            let rt = r.road_type.index();
            if rt >= schema.n_road_types() {
                return Err(CubeError::CoordOutOfRange {
                    dim: "road type",
                    index: rt,
                    cardinality: schema.n_road_types(),
                });
            }
            let i = schema.cell_index(r.element_type.index(), c, rt, r.update_type.index());
            *counts.entry(i as u32).or_insert(0u64) += 1;
        }
        Ok(SparseBlock { schema, entries: counts.into_iter().collect() })
    }

    /// The block's schema.
    #[inline]
    pub fn schema(&self) -> CubeSchema {
        self.schema
    }

    /// Number of non-zero cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the block holds no counts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, v)| v).sum()
    }

    /// Element-wise add `other` into `self` — the temporal roll-up that
    /// builds a month block from its day blocks.
    pub fn merge_from(&mut self, other: &SparseBlock) -> Result<(), CubeError> {
        if self.schema != other.schema {
            return Err(CubeError::SchemaMismatch);
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut a, mut b) = (self.entries.iter().peekable(), other.entries.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, va)), Some(&&(ib, vb))) => {
                    if ia == ib {
                        merged.push((ia, va + vb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, va));
                        a.next();
                    } else {
                        merged.push((ib, vb));
                        b.next();
                    }
                }
                (Some(&&e), None) => {
                    merged.push(e);
                    a.next();
                }
                (None, Some(&&e)) => {
                    merged.push(e);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.entries = merged;
        Ok(())
    }

    /// Visit every selected, non-zero cell as
    /// `(element, country, road, update, count)` — the sparse counterpart
    /// of `DataCube::for_each_selected`.
    pub fn for_each_selected<F>(&self, sel: &DimSelection, visit: F)
    where
        F: FnMut(usize, usize, usize, usize, u64),
    {
        fold(self.schema, self.entries.iter().copied(), sel, visit);
    }

    /// Serialize: header + `len()` 12-byte entries.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(self.schema, self.entries.len(), self.entries.iter().copied())
    }

    /// Deserialize; `expected` guards against reading a block written under
    /// a different schema. Trailing page padding is ignored. Validation is
    /// [`CubeView::parse`](crate::CubeView::parse)'s; a dense cube's bytes
    /// are not a block.
    pub fn from_bytes(expected: CubeSchema, bytes: &[u8]) -> Result<SparseBlock, CubeError> {
        if bytes.get(..8) != Some(MAGIC.as_slice()) {
            return Err(CubeError::Corrupt("bad block magic".into()));
        }
        let entries = view::entries(view::sparse_body(expected, bytes)?).collect();
        Ok(SparseBlock { schema: expected, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DataCube;
    use rased_osm_model::{ChangesetId, CountryId, ElementType, RoadTypeId, UpdateType};

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

    fn sample() -> Vec<UpdateRecord> {
        vec![
            rec(ElementType::Way, 0, 1, UpdateType::Create),
            rec(ElementType::Way, 0, 1, UpdateType::Create),
            rec(ElementType::Node, 3, 2, UpdateType::Delete),
            rec(ElementType::Relation, 2, 0, UpdateType::Metadata),
        ]
    }

    #[test]
    fn matches_dense_cube_on_same_records() {
        let s = CubeSchema::tiny();
        let records = sample();
        let block = SparseBlock::from_records(s, &records).unwrap();
        let dense = DataCube::from_records(s, &records).unwrap();
        assert_eq!(block.total(), dense.total());
        let sel = DimSelection::all(s);
        let mut from_block = Vec::new();
        block.for_each_selected(&sel, |et, c, r, u, v| from_block.push((et, c, r, u, v)));
        let mut from_dense = Vec::new();
        dense.for_each_selected(&sel, |et, c, r, u, v| from_dense.push((et, c, r, u, v)));
        assert_eq!(from_block, from_dense);
    }

    #[test]
    fn selection_filters_cells() {
        let s = CubeSchema::tiny();
        let block = SparseBlock::from_records(s, &sample()).unwrap();
        let sel = DimSelection::all(s)
            .with_countries(&[CountryId(0)])
            .with_update_types(&[UpdateType::Create]);
        let mut seen = Vec::new();
        block.for_each_selected(&sel, |et, c, r, u, v| seen.push((et, c, r, u, v)));
        assert_eq!(seen, vec![(1, 0, 1, 0, 2)]);
    }

    #[test]
    fn merge_is_elementwise_add() {
        let s = CubeSchema::tiny();
        let mut a = SparseBlock::from_records(s, &sample()).unwrap();
        let b = SparseBlock::from_records(
            s,
            &[rec(ElementType::Way, 0, 1, UpdateType::Create), rec(ElementType::Node, 1, 1, UpdateType::Geometry)],
        )
        .unwrap();
        a.merge_from(&b).unwrap();
        assert_eq!(a.total(), 6);
        let sel = DimSelection::all(s).with_countries(&[CountryId(0)]);
        let mut way_creates = 0;
        a.for_each_selected(&sel, |_, _, _, u, v| {
            if u == UpdateType::Create.index() {
                way_creates += v;
            }
        });
        assert_eq!(way_creates, 3);
        assert_eq!(
            a.merge_from(&SparseBlock::empty(CubeSchema::new(9, 9))),
            Err(CubeError::SchemaMismatch)
        );
    }

    #[test]
    fn serialization_roundtrip_and_padding() {
        let s = CubeSchema::tiny();
        let block = SparseBlock::from_records(s, &sample()).unwrap();
        let mut bytes = block.to_bytes();
        assert_eq!(bytes.len(), BLOCK_HEADER_BYTES + block.len() * ENTRY_BYTES);
        assert_eq!(SparseBlock::from_bytes(s, &bytes).unwrap(), block);
        bytes.resize(bytes.len() + 64, 0xAA);
        assert_eq!(SparseBlock::from_bytes(s, &bytes).unwrap(), block);
        // Empty block round-trips too.
        let empty = SparseBlock::empty(s);
        assert_eq!(SparseBlock::from_bytes(s, &empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn deserialization_rejects_corruption() {
        let s = CubeSchema::tiny();
        let bytes = SparseBlock::from_records(s, &sample()).unwrap().to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(SparseBlock::from_bytes(s, &bad), Err(CubeError::Corrupt(_))));
        assert!(matches!(
            SparseBlock::from_bytes(s, &bytes[..bytes.len() - 5]),
            Err(CubeError::Corrupt(_))
        ));
        assert_eq!(
            SparseBlock::from_bytes(CubeSchema::new(9, 9), &bytes).unwrap_err(),
            CubeError::SchemaMismatch
        );
        // Unsorted entries rejected.
        let mut twisted = bytes.clone();
        // Swap the first two entries' index fields.
        let (i0, i1) = (BLOCK_HEADER_BYTES, BLOCK_HEADER_BYTES + ENTRY_BYTES);
        for k in 0..4 {
            twisted.swap(i0 + k, i1 + k);
        }
        assert!(matches!(SparseBlock::from_bytes(s, &twisted), Err(CubeError::Corrupt(_))));
        // Out-of-schema index rejected.
        let mut oob = bytes.clone();
        oob[BLOCK_HEADER_BYTES..BLOCK_HEADER_BYTES + 4]
            .copy_from_slice(&(s.cell_count() as u32).to_le_bytes());
        assert!(matches!(SparseBlock::from_bytes(s, &oob), Err(CubeError::Corrupt(_))));
    }

    #[test]
    fn out_of_range_record_rejected() {
        let s = CubeSchema::tiny();
        assert!(matches!(
            SparseBlock::from_records(s, &[rec(ElementType::Way, 4, 0, UpdateType::Create)]),
            Err(CubeError::CoordOutOfRange { dim: "country", .. })
        ));
        assert!(matches!(
            SparseBlock::from_records(s, &[rec(ElementType::Way, 0, 3, UpdateType::Create)]),
            Err(CubeError::CoordOutOfRange { dim: "road type", .. })
        ));
    }
}
