//! Exact text codec for 1e-7° fixed-point coordinates.
//!
//! Coordinates must roundtrip byte-exactly through the XML files — the
//! monthly crawler classifies an update as *geometry* vs. *metadata* by
//! comparing consecutive versions (§V), so a lossy float print would
//! manufacture phantom geometry updates. We therefore format and parse the
//! decimal representation with integer arithmetic only.

/// Format a fixed-point coordinate as a decimal string with exactly seven
/// fractional digits, e.g. `449700000` → `"44.9700000"`.
pub(crate) fn format_fixed7(v7: i32) -> String {
    let neg = v7 < 0;
    let abs = (v7 as i64).unsigned_abs();
    let int = abs / 10_000_000;
    let frac = abs % 10_000_000;
    if neg {
        format!("-{int}.{frac:07}")
    } else {
        format!("{int}.{frac:07}")
    }
}

/// Parse a decimal coordinate string into fixed point. Accepts up to seven
/// fractional digits (more are an error — they could not roundtrip) and an
/// optional sign. `"44.97"` → `449_700_000`.
pub(crate) fn parse_fixed7(s: &str) -> Option<i32> {
    let s = s.trim();
    let (neg, digits) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    if digits.is_empty() {
        return None;
    }
    let (int_part, frac_part) = match digits.split_once('.') {
        Some((i, f)) => (i, f),
        None => (digits, ""),
    };
    if frac_part.len() > 7 || (int_part.is_empty() && frac_part.is_empty()) {
        return None;
    }
    let int: i64 = if int_part.is_empty() {
        0
    } else {
        int_part.parse::<i64>().ok().filter(|_| int_part.bytes().all(|b| b.is_ascii_digit()))?
    };
    let mut frac: i64 = 0;
    for b in frac_part.bytes() {
        if !b.is_ascii_digit() {
            return None;
        }
        frac = frac * 10 + (b - b'0') as i64;
    }
    // Scale the fraction to seven digits.
    for _ in frac_part.len()..7 {
        frac *= 10;
    }
    let v = int.checked_mul(10_000_000)?.checked_add(frac)?;
    let v = if neg { -v } else { v };
    i32::try_from(v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_with_seven_digits() {
        assert_eq!(format_fixed7(449_700_000), "44.9700000");
        assert_eq!(format_fixed7(-932_600_123), "-93.2600123");
        assert_eq!(format_fixed7(0), "0.0000000");
        assert_eq!(format_fixed7(1), "0.0000001");
        assert_eq!(format_fixed7(-1), "-0.0000001");
        assert_eq!(format_fixed7(i32::MIN), "-214.7483648");
    }

    #[test]
    fn parses_various_shapes() {
        assert_eq!(parse_fixed7("44.97"), Some(449_700_000));
        assert_eq!(parse_fixed7("-93.2600123"), Some(-932_600_123));
        assert_eq!(parse_fixed7("90"), Some(900_000_000));
        assert_eq!(parse_fixed7(".5"), Some(5_000_000));
        assert_eq!(parse_fixed7("-.5"), Some(-5_000_000));
        assert_eq!(parse_fixed7("+1.0"), Some(10_000_000));
        assert_eq!(parse_fixed7(" 0.0000000 "), Some(0));
    }

    #[test]
    fn rejects_garbage() {
        for s in ["", "-", ".", "1.2.3", "abc", "1e5", "1.23456789", "9999999999"] {
            assert_eq!(parse_fixed7(s), None, "{s:?}");
        }
    }

    #[test]
    fn roundtrips_exactly() {
        for v in [0, 1, -1, 449_700_000, -932_600_123, 900_000_000, -1_800_000_000, i32::MAX, i32::MIN] {
            assert_eq!(parse_fixed7(&format_fixed7(v)), Some(v), "{v}");
        }
    }
}
