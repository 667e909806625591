//! A minimal JSON writer.
//!
//! The dashboard API only ever *produces* JSON (requests arrive as query
//! strings), so a writer is all we need — no serde dependency.

use std::fmt::Write;

/// Incremental JSON builder producing a compact document.
///
/// The builder tracks separators automatically:
///
/// ```
/// use rased_dashboard::json::Json;
/// let mut j = Json::new();
/// j.begin_object();
/// j.key("name").string("RASED");
/// j.key("cubes").number(42.0);
/// j.key("tags").begin_array();
/// j.string("osm").string("roads");
/// j.end_array();
/// j.end_object();
/// assert_eq!(j.finish(), r#"{"name":"RASED","cubes":42,"tags":["osm","roads"]}"#);
/// ```
#[derive(Debug, Default)]
pub struct Json {
    out: String,
    /// Whether a separator is needed before the next value at each nesting
    /// level.
    need_comma: Vec<bool>,
}

impl Json {
    /// Start an empty document.
    pub fn new() -> Json {
        Json::default()
    }

    fn before_value(&mut self) {
        if let Some(top) = self.need_comma.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
    }

    /// Open `{`.
    pub fn begin_object(&mut self) -> &mut Json {
        self.before_value();
        self.out.push('{');
        self.need_comma.push(false);
        self
    }

    /// Close `}`.
    pub fn end_object(&mut self) -> &mut Json {
        self.need_comma.pop();
        self.out.push('}');
        self
    }

    /// Open `[`.
    pub fn begin_array(&mut self) -> &mut Json {
        self.before_value();
        self.out.push('[');
        self.need_comma.push(false);
        self
    }

    /// Close `]`.
    pub fn end_array(&mut self) -> &mut Json {
        self.need_comma.pop();
        self.out.push(']');
        self
    }

    /// Emit an object key (must be inside an object).
    pub fn key(&mut self, k: &str) -> &mut Json {
        self.before_value();
        // The key's own comma handling is done; the value must not add one.
        if let Some(top) = self.need_comma.last_mut() {
            *top = false;
        }
        write_escaped(&mut self.out, k);
        self.out.push(':');
        if let Some(top) = self.need_comma.last_mut() {
            *top = true;
        }
        // Suppress the comma for the immediately following value.
        self.suppress_next_comma();
        self
    }

    fn suppress_next_comma(&mut self) {
        if let Some(top) = self.need_comma.last_mut() {
            *top = false;
        }
    }

    /// Emit a string value.
    pub fn string(&mut self, s: &str) -> &mut Json {
        self.before_value();
        write_escaped(&mut self.out, s);
        self
    }

    /// Emit a number. Integral values print without a decimal point.
    pub fn number(&mut self, v: f64) -> &mut Json {
        self.before_value();
        write_number(&mut self.out, v);
        self
    }

    /// Emit an unsigned integer exactly.
    pub(crate) fn uint(&mut self, v: u64) -> &mut Json {
        self.before_value();
        write_uint(&mut self.out, v);
        self
    }

    /// Emit `"k":v` for an unsigned integer — the dominant pair shape in
    /// the metrics document.
    pub fn kv_uint(&mut self, k: &str, v: u64) -> &mut Json {
        self.key(k).uint(v)
    }

    /// Emit `"k":"v"`.
    pub fn kv_string(&mut self, k: &str, v: &str) -> &mut Json {
        self.key(k).string(v)
    }

    /// Emit a boolean.
    pub(crate) fn boolean(&mut self, v: bool) -> &mut Json {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Emit `null`.
    pub fn null(&mut self) -> &mut Json {
        self.before_value();
        self.out.push_str("null");
        self
    }

    /// Take the document.
    pub fn finish(self) -> String {
        debug_assert!(self.need_comma.is_empty(), "unbalanced JSON nesting");
        self.out
    }
}

/// Append `s` as a JSON string literal. Most strings need no escape, and
/// those are copied whole.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32); // fmt::Write to String is infallible
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Append a number as [`Json::number`] prints it: integral values as
/// integers (written without `fmt`), the rest in `f64`'s shortest form.
pub(crate) fn write_number(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        write_int(out, v as i64, 0);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Append `v` in decimal.
pub(crate) fn write_uint(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    let len = decimal(v, &mut digits);
    push_ascii(out, &digits, len);
}

/// Append `v` in decimal, zero-padded to `width` characters counting the
/// sign — what `format!("{v:0width$}")` prints.
pub(crate) fn write_int(out: &mut String, v: i64, width: usize) {
    let mut digits = [0u8; 20];
    let len = decimal(v.unsigned_abs(), &mut digits);
    if v < 0 {
        out.push('-');
    }
    for _ in len + usize::from(v < 0)..width {
        out.push('0');
    }
    push_ascii(out, &digits, len);
}

/// Write `v`'s decimal digits into the tail of `buf`; returns how many.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut len = 0;
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        len += 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    len
}

/// Append the last `len` bytes of `buf` (ASCII digits).
fn push_ascii(out: &mut String, buf: &[u8; 20], len: usize) {
    for &b in buf.iter().skip(buf.len() - len) {
        out.push(b as char);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures() {
        let mut j = Json::new();
        j.begin_object();
        j.key("a").begin_array();
        j.uint(1).uint(2);
        j.begin_object();
        j.key("b").boolean(true);
        j.key("c").null();
        j.end_object();
        j.end_array();
        j.key("d").number(1.5);
        j.end_object();
        assert_eq!(j.finish(), r#"{"a":[1,2,{"b":true,"c":null}],"d":1.5}"#);
    }

    #[test]
    fn escaping() {
        let mut j = Json::new();
        j.string("quote \" backslash \\ newline \n control \u{1}");
        assert_eq!(j.finish(), "\"quote \\\" backslash \\\\ newline \\n control \\u0001\"");
    }

    #[test]
    fn integral_numbers_have_no_point() {
        let mut j = Json::new();
        j.begin_array();
        j.number(3.0).number(3.25).uint(u64::MAX);
        j.end_array();
        assert_eq!(j.finish(), format!("[3,3.25,{}]", u64::MAX));
    }

    #[test]
    fn integers_print_as_fmt_does() {
        for v in [0i64, 7, -7, 42, -100, 9999, -9999, 12_345, i64::MAX, i64::MIN] {
            for width in [0, 2, 4, 6] {
                let mut out = String::new();
                write_int(&mut out, v, width);
                assert_eq!(out, format!("{v:0width$}"), "{v} width {width}");
            }
        }
        for v in [0u64, 9, 10, 1 << 40, u64::MAX] {
            let mut out = String::new();
            write_uint(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn empty_containers() {
        let mut j = Json::new();
        j.begin_object();
        j.key("xs").begin_array();
        j.end_array();
        j.end_object();
        assert_eq!(j.finish(), r#"{"xs":[]}"#);
    }
}
