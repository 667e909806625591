//! [`CubeView`]: a validated, borrowed view of an encoded cube.
//!
//! A cube is stored in whichever of two encodings is smaller (see
//! `DataCube::to_bytes`): dense (`RSCUBE1`, every cell) or sparse
//! (`RSBLK1`, the [`SparseBlock`](crate::SparseBlock) format: non-zero
//! cells only). The view folds either in place, so a cold read never
//! builds an owned cube it would fold once and drop. Both owned decoders
//! validate through [`CubeView::parse`], so the view accepts exactly the
//! bytes they do.

use crate::cube::{self, CubeError, DataCube, CUBE_HEADER_BYTES};
use crate::schema::CubeSchema;
use crate::selection::DimSelection;
use crate::sparse::{self, BLOCK_HEADER_BYTES, ENTRY_BYTES};

/// An encoded cube, validated against a schema, borrowed from its bytes.
#[derive(Debug, Clone, Copy)]
pub struct CubeView<'a> {
    schema: CubeSchema,
    body: Body<'a>,
}

/// The encoded cells past the header.
#[derive(Debug, Clone, Copy)]
enum Body<'a> {
    /// `cell_count` little-endian `u64`s.
    Dense(&'a [u8]),
    /// Sorted `(u32 index, u64 count)` entries, no zero counts.
    Sparse(&'a [u8]),
}

impl<'a> CubeView<'a> {
    /// Validate `bytes` as a cube under `expected`, in either encoding.
    /// Trailing bytes past the encoding (page padding) are ignored.
    pub fn parse(expected: CubeSchema, bytes: &'a [u8]) -> Result<CubeView<'a>, CubeError> {
        let body = match bytes.get(..8) {
            Some(m) if m == cube::MAGIC.as_slice() => Body::Dense(dense_body(expected, bytes)?),
            Some(m) if m == sparse::MAGIC.as_slice() => Body::Sparse(sparse_body(expected, bytes)?),
            Some(_) => return Err(CubeError::Corrupt("bad magic".into())),
            None => return Err(CubeError::Corrupt("short header".into())),
        };
        Ok(CubeView { schema: expected, body })
    }

    /// True when the bytes are the sparse encoding.
    pub fn is_sparse(&self) -> bool {
        matches!(self.body, Body::Sparse(_))
    }

    /// Visit every selected, non-zero cell as
    /// `(element, country, road, update, count)` — the same cells, in the
    /// same order, as `DataCube::for_each_selected` on the decoded cube.
    pub fn for_each_selected<F>(&self, sel: &DimSelection, visit: F)
    where
        F: FnMut(usize, usize, usize, usize, u64),
    {
        match self.body {
            Body::Dense(cells) => cube::fold_dense(self.schema, sel, |i| read_u64(cells, i * 8), visit),
            Body::Sparse(body) => sparse::fold(self.schema, entries(body), sel, visit),
        }
    }

    /// The non-zero cells as sorted `(index, count)` entries.
    pub(crate) fn nonzero(self) -> Vec<(u32, u64)> {
        match self.body {
            Body::Dense(cells) => (0..self.schema.cell_count())
                .filter_map(|i| Some((u32::try_from(i).ok()?, read_u64(cells, i * 8)?)))
                .filter(|&(_, v)| v != 0)
                .collect(),
            Body::Sparse(body) => entries(body).collect(),
        }
    }

    /// Decode into an owned dense cube.
    pub(crate) fn to_cube(self) -> DataCube {
        let mut cells = vec![0u64; self.schema.cell_count()];
        match self.body {
            Body::Dense(body) => {
                for (cell, bytes) in cells.iter_mut().zip(body.chunks_exact(8)) {
                    *cell = read_u64(bytes, 0).unwrap_or(0);
                }
            }
            Body::Sparse(body) => {
                for (i, v) in entries(body) {
                    if let Some(cell) = cells.get_mut(i as usize) {
                        *cell = v;
                    }
                }
            }
        }
        DataCube::from_cells(self.schema, cells)
    }
}

/// Check the schema fields shared by both headers.
fn check_schema(expected: CubeSchema, bytes: &[u8]) -> Result<(), CubeError> {
    let short = || CubeError::Corrupt("short header".into());
    let nc = read_u32(bytes, 8).ok_or_else(short)? as usize;
    let nr = read_u32(bytes, 12).ok_or_else(short)? as usize;
    if nc != expected.n_countries() || nr != expected.n_road_types() {
        return Err(CubeError::SchemaMismatch);
    }
    Ok(())
}

/// A dense cube's cell bytes.
fn dense_body(expected: CubeSchema, bytes: &[u8]) -> Result<&[u8], CubeError> {
    check_schema(expected, bytes)?;
    bytes
        .get(CUBE_HEADER_BYTES..CUBE_HEADER_BYTES + expected.cell_count() * 8)
        .ok_or_else(|| CubeError::Corrupt("truncated cell data".into()))
}

/// A sparse cube's entry bytes, every entry checked: in the schema,
/// strictly ascending, non-zero.
pub(crate) fn sparse_body(expected: CubeSchema, bytes: &[u8]) -> Result<&[u8], CubeError> {
    let corrupt = |m: &str| CubeError::Corrupt(m.into());
    check_schema(expected, bytes)?;
    let count = read_u32(bytes, 16).ok_or_else(|| corrupt("short header"))? as usize;
    let need = count.checked_mul(ENTRY_BYTES).ok_or_else(|| corrupt("entry count overflow"))?;
    let body = bytes
        .get(BLOCK_HEADER_BYTES..BLOCK_HEADER_BYTES.saturating_add(need))
        .ok_or_else(|| corrupt("truncated block entries"))?;
    let mut prev: Option<u32> = None;
    for (i, v) in entries(body) {
        if i as usize >= expected.cell_count() {
            return Err(corrupt("entry index out of schema"));
        }
        if prev.is_some_and(|p| p >= i) {
            return Err(corrupt("entries not strictly sorted"));
        }
        if v == 0 {
            return Err(corrupt("zero count"));
        }
        prev = Some(i);
    }
    Ok(body)
}

/// The `(index, count)` entries of a sparse body.
pub(crate) fn entries(body: &[u8]) -> impl Iterator<Item = (u32, u64)> + '_ {
    body.chunks_exact(ENTRY_BYTES)
        .map(|e| (read_u32(e, 0).unwrap_or(u32::MAX), read_u64(e, 4).unwrap_or(0)))
}

/// Bounds-checked little-endian reads — `None` on a short buffer, so the
/// decoders stay total on the read path.
fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    bytes.get(off..off.checked_add(4)?).and_then(|b| b.try_into().ok()).map(u32::from_le_bytes)
}

fn read_u64(bytes: &[u8], off: usize) -> Option<u64> {
    bytes.get(off..off.checked_add(8)?).and_then(|b| b.try_into().ok()).map(u64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseBlock;

    fn cube_with(schema: CubeSchema, cells: &[(usize, u64)]) -> DataCube {
        let mut c = DataCube::zeroed(schema);
        for &(i, v) in cells {
            let (et, co, r, u) = schema.coords_of(i);
            c.set(et, co, r, u, v);
        }
        c
    }

    fn visits(view: &CubeView<'_>, sel: &DimSelection) -> Vec<(usize, usize, usize, usize, u64)> {
        let mut out = Vec::new();
        view.for_each_selected(sel, |et, c, r, u, v| out.push((et, c, r, u, v)));
        out
    }

    #[test]
    fn both_encodings_fold_like_the_owned_cube() {
        let s = CubeSchema::tiny();
        let sparse = cube_with(s, &[(3, 2), (40, 1), (179, 9)]);
        let dense = cube_with(s, &(0..180).map(|i| (i, i as u64 % 3)).collect::<Vec<_>>());
        let sel = DimSelection::all(s).with_countries(&[rased_osm_model::CountryId(0)]);
        for (cube, want_sparse) in [(sparse, true), (dense, false)] {
            let bytes = cube.to_bytes();
            let view = CubeView::parse(s, &bytes).unwrap();
            assert_eq!(view.is_sparse(), want_sparse);
            let mut want = Vec::new();
            cube.for_each_selected(&sel, |et, c, r, u, v| want.push((et, c, r, u, v)));
            assert_eq!(visits(&view, &sel), want);
            assert_eq!(view.to_cube(), cube);
        }
    }

    #[test]
    fn zero_counts_are_rejected_by_the_view_and_the_owned_decoders() {
        let s = CubeSchema::tiny();
        let mut bytes = SparseBlock::from_records(s, &[]).unwrap().to_bytes();
        // Hand-append one entry (cell 5, count 0) and bump the count.
        bytes.splice(16..20, 1u32.to_le_bytes());
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let zero = CubeError::Corrupt("zero count".into());
        assert_eq!(CubeView::parse(s, &bytes).unwrap_err(), zero);
        assert_eq!(SparseBlock::from_bytes(s, &bytes).unwrap_err(), zero);
        assert_eq!(DataCube::from_bytes(s, &bytes).unwrap_err(), zero);
        // The same entry with a count of 1 is fine.
        bytes.splice(24..32, 1u64.to_le_bytes());
        assert_eq!(CubeView::parse(s, &bytes).unwrap().to_cube().total(), 1);
    }

    #[test]
    fn unknown_magic_and_short_input_are_typed_errors() {
        let s = CubeSchema::tiny();
        assert!(matches!(CubeView::parse(s, b"RSCUBE"), Err(CubeError::Corrupt(_))));
        assert!(matches!(CubeView::parse(s, b"NOTACUBE........"), Err(CubeError::Corrupt(_))));
        assert!(matches!(CubeView::parse(s, b"RSBLK1\0\0\x04\0\0\0"), Err(CubeError::Corrupt(_))));
    }
}
