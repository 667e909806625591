//! Bounds-checked little-endian readers for on-disk structures.
//!
//! Every persistent format in the workspace (page-file headers, hash-index
//! buckets, the cube catalog) decodes fixed-width integers from byte
//! slices. `slice[a..b].try_into().expect("len")` is panic-correct only
//! while every caller pre-validates lengths — a contract corrupted files
//! break. These helpers make the length check part of the read: a short
//! slice yields `None`, which decoders map to their own typed
//! corrupt-input error.

/// Read a `u64` from 8 little-endian bytes at `offset`, if in bounds.
#[inline]
pub fn read_u64_le(buf: &[u8], offset: usize) -> Option<u64> {
    let bytes = buf.get(offset..offset.checked_add(8)?)?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(bytes);
    Some(u64::from_le_bytes(raw))
}

/// Read a `u32` from 4 little-endian bytes at `offset`, if in bounds.
#[inline]
pub fn read_u32_le(buf: &[u8], offset: usize) -> Option<u32> {
    let bytes = buf.get(offset..offset.checked_add(4)?)?;
    let mut raw = [0u8; 4];
    raw.copy_from_slice(bytes);
    Some(u32::from_le_bytes(raw))
}

/// Read a `u16` from 2 little-endian bytes at `offset`, if in bounds.
#[inline]
pub(crate) fn read_u16_le(buf: &[u8], offset: usize) -> Option<u16> {
    let bytes = buf.get(offset..offset.checked_add(2)?)?;
    let mut raw = [0u8; 2];
    raw.copy_from_slice(bytes);
    Some(u16::from_le_bytes(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read an `f64` from 8 little-endian bytes at `offset`, if in bounds.
    #[inline]
    fn read_f64_le(buf: &[u8], offset: usize) -> Option<f64> {
        read_u64_le(buf, offset).map(f64::from_bits)
    }

    #[test]
    fn in_bounds_reads_decode_le() {
        let mut buf = vec![0u8; 16];
        buf[4..12].copy_from_slice(&0xDEAD_BEEF_0102_0304u64.to_le_bytes());
        assert_eq!(read_u64_le(&buf, 4), Some(0xDEAD_BEEF_0102_0304));
        assert_eq!(read_u32_le(&buf, 4), Some(0x0102_0304));
        assert_eq!(read_u16_le(&buf, 4), Some(0x0304));
    }

    #[test]
    fn short_or_overflowing_reads_are_none() {
        let buf = [1u8; 8];
        assert_eq!(read_u64_le(&buf, 1), None);
        assert_eq!(read_u32_le(&buf, 5), None);
        assert_eq!(read_u16_le(&buf, 7), None);
        assert_eq!(read_u64_le(&buf, usize::MAX), None, "offset overflow");
        assert_eq!(read_u64_le(&[], 0), None);
    }

    #[test]
    fn f64_round_trips_bits() {
        let mut buf = vec![0u8; 8];
        buf.copy_from_slice(&1234.5678f64.to_le_bytes());
        assert_eq!(read_f64_le(&buf, 0), Some(1234.5678));
    }
}
