//! A minimal streaming XML pull parser and writer.
//!
//! Supports the subset of XML that OSM documents use: elements with
//! attributes, character data, comments, processing instructions / XML
//! declarations, CDATA is **not** needed and not supported. Entities: the
//! five predefined (`&amp; &lt; &gt; &quot; &apos;`) and numeric character
//! references (`&#nn;`, `&#xhh;`).
//!
//! The parser works over any `BufRead` and never buffers more than one
//! token, so multi-gigabyte planet files stream in constant memory.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Parse error with a byte offset for diagnostics.
#[derive(Debug)]
pub enum XmlError {
    Io(io::Error),
    /// Malformed syntax; the message describes what was expected.
    Syntax { offset: u64, message: String },
    /// Document ended inside a construct.
    UnexpectedEof { offset: u64 },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Io(e) => write!(f, "I/O error: {e}"),
            XmlError::Syntax { offset, message } => write!(f, "XML syntax error at byte {offset}: {message}"),
            XmlError::UnexpectedEof { offset } => write!(f, "unexpected end of document at byte {offset}"),
        }
    }
}

impl std::error::Error for XmlError {}

impl From<io::Error> for XmlError {
    fn from(e: io::Error) -> Self {
        XmlError::Io(e)
    }
}

/// One parsed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name attr="v" ...>` or `<name ... />` (see `self_closing`).
    Start { name: String, attrs: Vec<(String, String)>, self_closing: bool },
    /// `</name>`.
    End { name: String },
    /// Character data between tags, entity-decoded. Whitespace-only text is
    /// skipped by the parser (OSM documents carry no mixed content).
    Text(String),
    /// End of document.
    Eof,
}

/// Streaming pull parser.
pub struct XmlReader<R: BufRead> {
    input: R,
    /// One pushed-back byte (the parser needs 1-byte lookahead).
    peeked: Option<u8>,
    offset: u64,
}

impl<R: BufRead> XmlReader<R> {
    /// Wrap a buffered reader.
    pub fn new(input: R) -> XmlReader<R> {
        XmlReader { input, peeked: None, offset: 0 }
    }

    /// Byte offset of the next unread byte (for error messages).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    fn syntax(&self, message: impl Into<String>) -> XmlError {
        XmlError::Syntax { offset: self.offset, message: message.into() }
    }

    fn eof_err(&self) -> XmlError {
        XmlError::UnexpectedEof { offset: self.offset }
    }

    fn read_byte(&mut self) -> Result<Option<u8>, XmlError> {
        if let Some(b) = self.peeked.take() {
            self.offset += 1;
            return Ok(Some(b));
        }
        let Some(&b) = self.input.fill_buf()?.first() else { return Ok(None) };
        self.input.consume(1);
        self.offset += 1;
        Ok(Some(b))
    }

    fn peek_byte(&mut self) -> Result<Option<u8>, XmlError> {
        if self.peeked.is_none() {
            let Some(&b) = self.input.fill_buf()?.first() else { return Ok(None) };
            self.peeked = Some(b);
            self.input.consume(1);
        }
        Ok(self.peeked)
    }

    /// Pull the next event.
    pub fn next_event(&mut self) -> Result<Event, XmlError> {
        loop {
            // Gather text until '<' or EOF. Bytes accumulate as raw UTF-8
            // and are validated once per token.
            let mut text: Vec<u8> = Vec::new();
            loop {
                match self.peek_byte()? {
                    None => {
                        let text = self.utf8(text)?;
                        return if text.trim().is_empty() {
                            Ok(Event::Eof)
                        } else {
                            Ok(Event::Text(decode_entities(&text).map_err(|m| self.syntax(m))?))
                        };
                    }
                    Some(b'<') => break,
                    Some(b) => {
                        self.read_byte()?; // consume the peeked byte
                        text.push(b);
                    }
                }
            }
            if !text.is_empty() {
                let text = self.utf8(text)?;
                if !text.trim().is_empty() {
                    return Ok(Event::Text(decode_entities(&text).map_err(|m| self.syntax(m))?));
                }
            }
            // At '<'.
            self.read_byte()?; // consume '<'
            match self.peek_byte()?.ok_or_else(|| self.eof_err())? {
                b'?' => {
                    self.skip_until("?>")?;
                    continue;
                }
                b'!' => {
                    // Comment or doctype; OSM uses comments only.
                    self.read_byte()?;
                    if self.peek_byte()? == Some(b'-') {
                        self.read_byte()?;
                        if self.read_byte()?.ok_or_else(|| self.eof_err())? != b'-' {
                            return Err(self.syntax("malformed comment start"));
                        }
                        self.skip_until("-->")?;
                    } else {
                        self.skip_until(">")?;
                    }
                    continue;
                }
                b'/' => {
                    self.read_byte()?; // consume '/'
                    let name = self.read_name()?;
                    self.skip_ws()?;
                    match self.read_byte()? {
                        Some(b'>') => return Ok(Event::End { name }),
                        _ => return Err(self.syntax("expected '>' after end-tag name")),
                    }
                }
                _ => return self.read_start_tag(),
            }
        }
    }

    fn read_start_tag(&mut self) -> Result<Event, XmlError> {
        let name = self.read_name()?;
        if name.is_empty() {
            return Err(self.syntax("empty tag name"));
        }
        let mut attrs = Vec::new();
        loop {
            self.skip_ws()?;
            match self.peek_byte()?.ok_or_else(|| self.eof_err())? {
                b'>' => {
                    self.read_byte()?;
                    return Ok(Event::Start { name, attrs, self_closing: false });
                }
                b'/' => {
                    self.read_byte()?;
                    if self.read_byte()? != Some(b'>') {
                        return Err(self.syntax("expected '>' after '/'"));
                    }
                    return Ok(Event::Start { name, attrs, self_closing: true });
                }
                _ => {
                    let key = self.read_name()?;
                    if key.is_empty() {
                        return Err(self.syntax("expected attribute name"));
                    }
                    self.skip_ws()?;
                    if self.read_byte()? != Some(b'=') {
                        return Err(self.syntax("expected '=' after attribute name"));
                    }
                    self.skip_ws()?;
                    let quote = self.read_byte()?.ok_or_else(|| self.eof_err())?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.syntax("expected quoted attribute value"));
                    }
                    let mut raw: Vec<u8> = Vec::new();
                    loop {
                        let b = self.read_byte()?.ok_or_else(|| self.eof_err())?;
                        if b == quote {
                            break;
                        }
                        raw.push(b);
                    }
                    let raw = self.utf8(raw)?;
                    let value = decode_entities(&raw).map_err(|m| self.syntax(m))?;
                    attrs.push((key, value));
                }
            }
        }
    }

    fn utf8(&self, bytes: Vec<u8>) -> Result<String, XmlError> {
        String::from_utf8(bytes).map_err(|_| self.syntax("invalid UTF-8"))
    }

    /// Read an XML name (letters, digits, `_ - . :`).
    fn read_name(&mut self) -> Result<String, XmlError> {
        let mut name = String::new();
        while let Some(b) = self.peek_byte()? {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                name.push(b as char);
                self.read_byte()?;
            } else {
                break;
            }
        }
        Ok(name)
    }

    fn skip_ws(&mut self) -> Result<(), XmlError> {
        while let Some(b) = self.peek_byte()? {
            if b.is_ascii_whitespace() {
                self.read_byte()?;
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Skip bytes until (and including) the literal `pat`.
    fn skip_until(&mut self, pat: &str) -> Result<(), XmlError> {
        let pat = pat.as_bytes();
        let mut matched = 0usize;
        loop {
            let b = self.read_byte()?.ok_or_else(|| self.eof_err())?;
            if pat.get(matched) == Some(&b) {
                matched += 1;
                if matched == pat.len() {
                    return Ok(());
                }
            } else {
                matched = usize::from(pat.first() == Some(&b));
            }
        }
    }
}

/// Decode the predefined entities and numeric character references.
fn decode_entities(s: &str) -> Result<String, String> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some((text, after)) = rest.split_once('&') {
        out.push_str(text);
        let (ent, tail) = after.split_once(';').ok_or_else(|| "unterminated entity".to_string())?;
        rest = tail;
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                let Some(reference) = ent.strip_prefix('#') else {
                    return Err(format!("unknown entity &{ent};"));
                };
                let code = match reference.strip_prefix(['x', 'X']) {
                    Some(hex) => u32::from_str_radix(hex, 16),
                    None => reference.parse(),
                }
                .map_err(|_| format!("bad character reference &{ent};"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("invalid codepoint &{ent};"))?);
            }
        }
    }
    out.push_str(rest);
    Ok(out)
}

/// Escape text for use inside an attribute value or character data.
pub fn escape(s: &str) -> String {
    if !s.bytes().any(|b| matches!(b, b'&' | b'<' | b'>' | b'"' | b'\'')) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

/// Streaming XML writer with automatic escaping and indentation.
pub struct XmlWriter<W: Write> {
    out: W,
    stack: Vec<String>,
    /// True right after a start tag whose `>` is still unwritten.
    tag_open: bool,
    /// True when character data was written into the current element, so the
    /// closing tag must hug the text instead of being indented.
    in_text: bool,
    pretty: bool,
}

impl<W: Write> XmlWriter<W> {
    /// Create a writer that emits an XML declaration.
    pub fn new(mut out: W, pretty: bool) -> io::Result<XmlWriter<W>> {
        out.write_all(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>")?;
        if pretty {
            out.write_all(b"\n")?;
        }
        Ok(XmlWriter { out, stack: Vec::new(), tag_open: false, in_text: false, pretty })
    }

    fn close_pending(&mut self) -> io::Result<()> {
        if self.tag_open {
            self.out.write_all(b">")?;
            if self.pretty {
                self.out.write_all(b"\n")?;
            }
            self.tag_open = false;
        }
        Ok(())
    }

    fn indent(&mut self) -> io::Result<()> {
        if self.pretty {
            for _ in 0..self.stack.len() {
                self.out.write_all(b"  ")?;
            }
        }
        Ok(())
    }

    /// Open an element; attributes are added with [`XmlWriter::attr`].
    pub fn start(&mut self, name: &str) -> io::Result<()> {
        self.close_pending()?;
        self.indent()?;
        self.out.write_all(b"<")?;
        self.out.write_all(name.as_bytes())?;
        self.stack.push(name.to_string());
        self.tag_open = true;
        Ok(())
    }

    /// Add an attribute to the element just opened.
    ///
    /// # Panics
    /// Panics when no start tag is pending (a programming error).
    pub fn attr(&mut self, key: &str, value: &str) -> io::Result<()> {
        assert!(self.tag_open, "attr() outside a start tag");
        write!(self.out, " {key}=\"{}\"", escape(value))
    }

    /// Close the innermost open element, collapsing `<x></x>` to `<x/>`.
    pub fn end(&mut self) -> io::Result<()> {
        let name = self.stack.pop().ok_or_else(|| io::Error::other("end() with no open element"))?;
        if self.tag_open {
            self.out.write_all(b"/>")?;
            if self.pretty {
                self.out.write_all(b"\n")?;
            }
            self.tag_open = false;
        } else {
            if !self.in_text {
                self.indent()?;
            }
            write!(self.out, "</{name}>")?;
            if self.pretty {
                self.out.write_all(b"\n")?;
            }
        }
        self.in_text = false;
        Ok(())
    }

    /// Write escaped character data inside the current element.
    pub fn text(&mut self, s: &str) -> io::Result<()> {
        if self.tag_open {
            // Close the start tag without the pretty newline so the text
            // roundtrips without acquiring indentation whitespace.
            self.out.write_all(b">")?;
            self.tag_open = false;
        }
        self.in_text = true;
        self.out.write_all(escape(s).as_bytes())
    }

    /// Finish the document; all elements must be closed.
    pub fn finish(mut self) -> io::Result<W> {
        assert!(self.stack.is_empty(), "finish() with unclosed elements: {:?}", self.stack);
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(s: &str) -> Vec<Event> {
        let mut r = XmlReader::new(s.as_bytes());
        let mut out = Vec::new();
        loop {
            let e = r.next_event().unwrap();
            let done = e == Event::Eof;
            out.push(e);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn parses_declaration_comments_and_nesting() {
        let events = parse_all(
            r#"<?xml version="1.0"?>
            <!-- generated -->
            <osm version="0.6">
              <node id="1" lat="44.9" lon="-93.2"/>
            </osm>"#,
        );
        assert_eq!(
            events,
            vec![
                Event::Start { name: "osm".into(), attrs: vec![("version".into(), "0.6".into())], self_closing: false },
                Event::Start {
                    name: "node".into(),
                    attrs: vec![
                        ("id".into(), "1".into()),
                        ("lat".into(), "44.9".into()),
                        ("lon".into(), "-93.2".into()),
                    ],
                    self_closing: true
                },
                Event::End { name: "osm".into() },
                Event::Eof,
            ]
        );
    }

    #[test]
    fn decodes_entities_in_attrs_and_text() {
        let events = parse_all(r#"<t a="x &amp; y &#65;&#x42;">a &lt;b&gt; 'c'</t>"#);
        match &events[0] {
            Event::Start { attrs, .. } => assert_eq!(attrs[0].1, "x & y AB"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(events[1], Event::Text("a <b> 'c'".into()));
    }

    #[test]
    fn single_quoted_attributes() {
        let events = parse_all(r#"<t a='with "double"'/>"#);
        match &events[0] {
            Event::Start { attrs, .. } => assert_eq!(attrs[0].1, r#"with "double""#),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases = [
            "<t a=>",        // missing value
            "<t a=\"x>",     // unterminated value
            "< t/>",          // empty name
            "<t x='1' <",    // garbage in tag
            "<t>&bogus;</t>", // unknown entity
            "<t>&#xZZ;</t>", // bad char ref
        ];
        for c in cases {
            let mut r = XmlReader::new(c.as_bytes());
            let mut failed = false;
            for _ in 0..8 {
                match r.next_event() {
                    Err(_) => {
                        failed = true;
                        break;
                    }
                    Ok(Event::Eof) => break,
                    Ok(_) => {}
                }
            }
            assert!(failed, "expected parse failure for {c:?}");
        }
    }

    #[test]
    fn truncated_document_reports_eof() {
        let mut r = XmlReader::new("<osm><node id=\"1\"".as_bytes());
        r.next_event().unwrap(); // <osm>
        match r.next_event() {
            Err(XmlError::UnexpectedEof { .. }) => {}
            other => panic!("expected EOF error, got {other:?}"),
        }
    }

    #[test]
    fn writer_roundtrips_through_parser() {
        let mut w = XmlWriter::new(Vec::new(), true).unwrap();
        w.start("osm").unwrap();
        w.attr("version", "0.6").unwrap();
        w.start("node").unwrap();
        w.attr("id", "1").unwrap();
        w.attr("name", "a <quoted> & 'odd' \"value\"").unwrap();
        w.end().unwrap();
        w.start("note").unwrap();
        w.text("plain & <text>").unwrap();
        w.end().unwrap();
        w.end().unwrap();
        let bytes = w.finish().unwrap();

        let events = parse_all(std::str::from_utf8(&bytes).unwrap());
        // osm, node, note, text, /note, /osm, eof
        assert_eq!(events.len(), 7);
        match &events[1] {
            Event::Start { attrs, .. } => {
                assert_eq!(attrs[1].1, "a <quoted> & 'odd' \"value\"");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(events.contains(&Event::Text("plain & <text>".into())));
    }

    #[test]
    fn empty_element_collapses() {
        let mut w = XmlWriter::new(Vec::new(), false).unwrap();
        w.start("x").unwrap();
        w.end().unwrap();
        let s = String::from_utf8(w.finish().unwrap()).unwrap();
        assert!(s.ends_with("<x/>"), "{s}");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_rejects_unclosed() {
        let mut w = XmlWriter::new(Vec::new(), false).unwrap();
        w.start("x").unwrap();
        let _ = w.finish();
    }
}
