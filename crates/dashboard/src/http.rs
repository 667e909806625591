//! HTTP/1.1 request parsing with hard limits.
//!
//! [`read_request`] is the only place HTTP framing is known. It enforces
//! the caps in [`Limits`] *while reading* — a hostile client cannot make the
//! server buffer an unbounded request line, header block, or body. Every
//! failure mode is a typed [`HttpError`] carrying the status code the
//! connection handler should answer with; parsing never panics on any byte
//! sequence (see `tests/http_parser.rs` for the property suite).
//!
//! The event loop calls it straight on a connection's buffered bytes, so
//! the parser itself tells "malformed" from "not all here yet": input that
//! ends inside a request is [`HttpError::Incomplete`], which the loop
//! treats as *wait for more bytes* unless the peer has closed — at which
//! point it is the `400` it has always been.

use std::io::{BufRead, Read};

/// HTTP version of a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    Http10,
    Http11,
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, as sent (e.g. `GET`).
    pub method: String,
    /// Origin-form target: path plus optional `?query`.
    pub target: String,
    /// Protocol version (only 1.0 and 1.1 are accepted).
    pub version: HttpVersion,
    /// Headers in arrival order; names are lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes, already read).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Path and query split at the first `?`.
    pub fn path_and_query(&self) -> (&str, &str) {
        match self.target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (self.target.as_str(), ""),
        }
    }

    /// Whether the connection should be kept open after this request:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        let has = |token: &str| conn.split(',').any(|t| t.trim().eq_ignore_ascii_case(token));
        match self.version {
            HttpVersion::Http11 => !has("close"),
            HttpVersion::Http10 => has("keep-alive"),
        }
    }
}

/// Parse-time limits (see `rased_core::ServerConfig` for the knobs).
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum request-line bytes (`431` beyond).
    pub max_request_line_bytes: usize,
    /// Maximum cumulative header bytes (`431` beyond).
    pub max_header_bytes: usize,
    /// Maximum declared body bytes (`413` beyond).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        let c = rased_core::ServerConfig::default();
        Limits::from_config(&c)
    }
}

impl Limits {
    /// The parse-relevant subset of a [`rased_core::ServerConfig`].
    pub fn from_config(c: &rased_core::ServerConfig) -> Limits {
        Limits {
            max_request_line_bytes: c.max_request_line_bytes,
            max_header_bytes: c.max_header_bytes,
            max_body_bytes: c.max_body_bytes,
        }
    }
}

/// A request that could not be read. [`HttpError::status`] maps each case
/// to the response status the handler should send before closing.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request line, header, or body framing (`400`).
    Malformed(String),
    /// Request line longer than the cap (`431`).
    RequestLineTooLong,
    /// Header block larger than the cap (`431`).
    HeadersTooLarge,
    /// Declared `Content-Length` beyond the body cap (`413`).
    BodyTooLarge { declared: u64 },
    /// An `HTTP/x.y` version other than 1.0/1.1 (`505`).
    UnsupportedVersion(String),
    /// A framing feature we do not serve, e.g. chunked uploads (`501`).
    NotImplemented(&'static str),
    /// The input ended inside a request — nothing read so far is wrong,
    /// but more bytes are needed for a verdict. Final only once the peer
    /// has closed (`400`, worded like [`HttpError::Malformed`]).
    Incomplete(&'static str),
    /// Any other I/O failure (no response possible).
    Io(std::io::Error),
}

impl HttpError {
    /// The response status for this error, or `None` when the connection
    /// should be closed without a response.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Malformed(_) | HttpError::Incomplete(_) => Some(400),
            HttpError::RequestLineTooLong | HttpError::HeadersTooLarge => Some(431),
            HttpError::BodyTooLarge { .. } => Some(413),
            HttpError::UnsupportedVersion(_) => Some(505),
            HttpError::NotImplemented(_) => Some(501),
            HttpError::Io(_) => None,
        }
    }

    /// Human-readable body for the error response.
    pub fn message(&self) -> String {
        match self {
            HttpError::Malformed(m) => format!("bad request: {m}"),
            HttpError::Incomplete(m) => format!("bad request: {m}"),
            HttpError::RequestLineTooLong => "request line too long".into(),
            HttpError::HeadersTooLarge => "request header fields too large".into(),
            HttpError::BodyTooLarge { declared } => {
                format!("payload too large ({declared} bytes declared)")
            }
            HttpError::UnsupportedVersion(v) => format!("http version not supported: {v}"),
            HttpError::NotImplemented(what) => format!("not implemented: {what}"),
            HttpError::Io(e) => format!("i/o: {e}"),
        }
    }
}

fn malformed(msg: impl Into<String>) -> HttpError {
    HttpError::Malformed(msg.into())
}

/// Read one `\n`-terminated line into `out` (terminator stripped, along
/// with a trailing `\r`), enforcing `cap` on the line length. Returns the
/// number of raw bytes consumed (0 at EOF).
fn read_line_limited<R: BufRead>(
    r: &mut R,
    cap: usize,
    out: &mut Vec<u8>,
    too_long: fn() -> HttpError,
) -> Result<usize, HttpError> {
    let mut consumed = 0usize;
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if buf.is_empty() {
            if consumed == 0 {
                return Ok(0); // clean EOF before the line
            }
            return Err(HttpError::Incomplete("connection closed mid-line"));
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (buf.get(..=i).unwrap_or(buf), true),
            None => (buf, false),
        };
        let take = chunk.len();
        // Enforce the cap on what we buffer, not on what the client sends:
        // stop reading as soon as the line provably exceeds it.
        if out.len() + take > cap + 2 {
            return Err(too_long());
        }
        out.extend_from_slice(chunk);
        r.consume(take);
        consumed += take;
        if done {
            while matches!(out.last(), Some(b'\n') | Some(b'\r')) {
                out.pop();
            }
            return Ok(consumed);
        }
    }
}

/// Read and parse one request off `r`.
///
/// Returns `Ok(None)` on a clean EOF before any request byte (the client
/// closed an idle connection). All limit violations and syntax errors are
/// typed [`HttpError`]s; the caller answers with [`HttpError::status`] and
/// closes the connection. Input that runs out mid-request is
/// [`HttpError::Incomplete`]; a limit violation is reported as soon as the
/// bytes at hand prove it, never deferred behind missing input.
pub fn read_request<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Option<Request>, HttpError> {
    // Request line; tolerate at most one stray blank line before it
    // (robust against clients that terminate the previous body with CRLF).
    let mut line = Vec::new();
    for _ in 0..2 {
        line.clear();
        let n = read_line_limited(r, limits.max_request_line_bytes, &mut line, || {
            HttpError::RequestLineTooLong
        })?;
        if n == 0 {
            return Ok(None);
        }
        if !line.is_empty() {
            break;
        }
    }
    if line.is_empty() {
        return Err(malformed("empty request line"));
    }
    let line = String::from_utf8(std::mem::take(&mut line))
        .map_err(|_| malformed("request line is not utf-8"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(malformed(format!("bad request line `{line}`"))),
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_graphic()) {
        return Err(malformed("bad method"));
    }
    if !(target.starts_with('/') || target == "*") {
        return Err(malformed(format!("bad request target `{target}`")));
    }
    let version = match version {
        "HTTP/1.1" => HttpVersion::Http11,
        "HTTP/1.0" => HttpVersion::Http10,
        v if v.starts_with("HTTP/") => return Err(HttpError::UnsupportedVersion(v.to_string())),
        v => return Err(malformed(format!("bad http version `{v}`"))),
    };

    // Headers, capped cumulatively.
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let mut raw = Vec::new();
        let budget = limits.max_header_bytes.saturating_sub(header_bytes);
        let n = read_line_limited(r, budget, &mut raw, || HttpError::HeadersTooLarge)?;
        if n == 0 {
            return Err(HttpError::Incomplete("connection closed inside headers"));
        }
        header_bytes += n;
        if raw.is_empty() {
            break; // end of header block
        }
        let text = String::from_utf8(raw).map_err(|_| malformed("header is not utf-8"))?;
        let (name, value) =
            text.split_once(':').ok_or_else(|| malformed(format!("header without colon: `{text}`")))?;
        let name = name.trim();
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req =
        Request { method: method.to_string(), target: target.to_string(), version, headers, body: Vec::new() };

    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::NotImplemented("transfer-encoding"));
    }

    // Body framing: Content-Length only. Multiple conflicting values → 400.
    let mut declared: Option<u64> = None;
    for (k, v) in &req.headers {
        if k == "content-length" {
            let n: u64 = v.parse().map_err(|_| malformed(format!("bad content-length `{v}`")))?;
            match declared {
                Some(prev) if prev != n => {
                    return Err(malformed("conflicting content-length headers"))
                }
                _ => declared = Some(n),
            }
        }
    }
    if let Some(n) = declared {
        if n > limits.max_body_bytes as u64 {
            return Err(HttpError::BodyTooLarge { declared: n });
        }
        // `take` bounds the read at the (capped) declaration; the buffer
        // grows with what actually arrives, not with what was promised.
        r.by_ref().take(n).read_to_end(&mut req.body).map_err(HttpError::Io)?;
        if (req.body.len() as u64) < n {
            return Err(HttpError::Incomplete("connection closed mid-body"));
        }
    }
    Ok(Some(req))
}

/// The reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// Serialize the response head (status line through the blank line) for a
/// body of `body_len` bytes. This is the *only* place response heads are
/// formatted: [`write_response`] and the response cache both call it, so a
/// cached response is byte-identical to a freshly written one by
/// construction, not by convention.
pub fn response_head(
    status: u16,
    content_type: &str,
    body_len: usize,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> String {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {body_len}\r\nConnection: {}\r\n",
        status_reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Serialize a response head + body. `extra_headers` are emitted verbatim.
pub fn write_response(
    w: &mut impl std::io::Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let head = response_head(status, content_type, body.len(), keep_alive, extra_headers);
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    // lint: allow(nonblocking, "flush on TcpStream/Vec is a no-op, not disk I/O; the event loop's only path here is the 503 reject")
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_get_with_headers() {
        let req = parse(b"GET /api/meta?x=1 HTTP/1.1\r\nHost: localhost\r\nX-Trace: a b\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path_and_query(), ("/api/meta", "x=1"));
        assert_eq!(req.version, HttpVersion::Http11);
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("x-trace"), Some("a b"));
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap().unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn reads_declared_body() {
        let req =
            parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap().unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_inputs_are_400() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
            b"GET / WTFP/9.9\r\n\r\n",
        ] {
            let err = parse(bad).expect_err("must reject");
            assert_eq!(err.status(), Some(400), "{bad:?} → {err:?}");
        }
    }

    #[test]
    fn caps_map_to_431_and_413() {
        let limits = Limits { max_request_line_bytes: 64, max_header_bytes: 128, max_body_bytes: 16 };
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(200));
        let err = read_request(&mut Cursor::new(long_line.into_bytes()), &limits).unwrap_err();
        assert_eq!(err.status(), Some(431));

        let fat_headers =
            format!("GET / HTTP/1.1\r\n{}\r\n", "X-Pad: yyyyyyyyyyyyyyyy\r\n".repeat(20));
        let err = read_request(&mut Cursor::new(fat_headers.into_bytes()), &limits).unwrap_err();
        assert_eq!(err.status(), Some(431));

        let err = read_request(
            &mut Cursor::new(b"POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n".to_vec()),
            &limits,
        )
        .unwrap_err();
        assert_eq!(err.status(), Some(413));
    }

    /// What the event loop gets when it runs a connection's buffered bytes
    /// through the parser, as one table: a request (with how many pipelined
    /// bytes stay buffered), a final status, or *pending* — more bytes
    /// needed, which is `Incomplete` or a bare `Ok(None)`, never a guess.
    /// Every strict prefix of every row must itself be pending or already
    /// the row's verdict: a drip-fed request is never answered early with
    /// a different status than the whole would get.
    #[test]
    fn buffered_input_is_a_request_a_status_or_pending() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Verdict {
            Pending,
            Request { unread: usize },
            Status(u16),
        }
        use Verdict::*;
        let l = Limits { max_request_line_bytes: 64, max_header_bytes: 128, max_body_bytes: 16 };
        let verdict = |input: &[u8]| {
            let mut rest = input;
            match read_request(&mut rest, &l) {
                Ok(None) | Err(HttpError::Incomplete(_)) => Pending,
                Ok(Some(_)) => Request { unread: rest.len() },
                Err(e) => Status(e.status().expect("a slice cannot fail with Io")),
            }
        };
        let long_line = vec![b'a'; l.max_request_line_bytes + 16];
        let fat_headers =
            format!("GET / HTTP/1.1\r\n{}X-dangling", "X-Pad: yyyyyyyyyyyyyyyy\r\n".repeat(8));
        let table: Vec<(&[u8], Verdict)> = vec![
            // Not all here yet.
            (b"", Pending),
            (b"\r\n", Pending),
            (b"GET / HT", Pending),
            (b"GET / HTTP/1.1\r\n", Pending),
            (b"GET / HTTP/1.1\r\nHost: x\r\n", Pending),
            (b"GET / HTTP/1.1\r\nX-a: 1\r\nX-b", Pending),
            (b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel", Pending),
            // Complete; a pipelined successor stays in the buffer.
            (b"GET / HTTP/1.1\r\n\r\n", Request { unread: 0 }),
            (b"\r\nGET / HTTP/1.1\r\n\r\n", Request { unread: 0 }),
            (b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", Request { unread: 0 }),
            (b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n", Request { unread: 19 }),
            // Over a cap as soon as the bytes at hand prove it — no
            // terminator needed — and 413 at the declaration, bodiless.
            (&long_line, Status(431)),
            (fat_headers.as_bytes(), Status(431)),
            (b"POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n", Status(413)),
            // Framing defects are final without waiting for a body.
            (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", Status(501)),
            (b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n", Status(400)),
            (b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", Status(400)),
            (b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", Status(400)),
            (b"GET / HTTP/2.0\r\n\r\n", Status(505)),
        ];
        for (input, want) in table {
            let text = String::from_utf8_lossy(input);
            assert_eq!(verdict(input), want, "{text:?}");
            for cut in 0..input.len() {
                let early = verdict(&input[..cut]);
                let settled = match (early, want) {
                    (Request { .. }, Request { .. }) => true,
                    _ => early == want,
                };
                assert!(early == Pending || settled, "{text:?} cut at {cut}: {early:?}");
            }
        }
        // The pipelined successor parses from what the first parse left.
        let mut rest: &[u8] = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        assert_eq!(read_request(&mut rest, &l).unwrap().unwrap().target, "/a");
        assert_eq!(read_request(&mut rest, &l).unwrap().unwrap().target, "/b");
        assert!(rest.is_empty());
        // At EOF "pending" is final: the 400 it has always been.
        let err = read_request(&mut &b"GET / HTTP/1.1\r\nHost: x"[..], &l).unwrap_err();
        assert_eq!(err.status(), Some(400));
        assert_eq!(err.message(), "bad request: connection closed mid-line");
    }

    #[test]
    fn unsupported_framing_is_typed() {
        let err = parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), Some(505));
        let err = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), Some(501));
    }
}
