//! The benchmark's own keep-alive HTTP/1.1 client.
//!
//! One connection, one request in flight, `Content-Length`-framed
//! responses. Buffers are reused across requests: the client threads share
//! the box's two cores with the server, so what the client burns per
//! request shows up in every latency it reports.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    line: String,
    /// Body of the last response.
    pub body: Vec<u8>,
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            request: Vec::new(),
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// `GET target`; returns the status, leaves the body in `self.body`. An
    /// `Err` means the connection is unusable — reconnect.
    pub fn get(&mut self, target: &str) -> std::io::Result<u16> {
        self.send("GET", target)
    }

    /// `POST target` with an empty body.
    pub fn post(&mut self, target: &str) -> std::io::Result<u16> {
        self.send("POST", target)
    }

    fn send(&mut self, method: &str, target: &str) -> std::io::Result<u16> {
        self.request.clear();
        self.request.extend_from_slice(method.as_bytes());
        self.request.push(b' ');
        self.request.extend_from_slice(target.as_bytes());
        self.request
            .extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n");
        if method == "POST" {
            self.request.extend_from_slice(b"Content-Length: 0\r\n");
        }
        self.request.extend_from_slice(b"\r\n");
        self.stream.write_all(&self.request)?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<u16> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {:?}", self.line)))?;
        let mut len = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the header block".into()));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                }
            }
        }
        self.body.resize(len, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }

    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// The unsigned integer after the first `"key":` in a JSON document (the
/// few scalar fields read off `/api/ingest/status` are unique there).
pub fn json_uint(body: &str, key: &str) -> Option<u64> {
    let rest = json_value(body, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest.get(..end)?.parse().ok()
}

/// The string after the first `"key":`, or `None` for `null`/absent.
pub fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let inner = json_value(body, key)?.strip_prefix('"')?;
    inner.get(..inner.find('"')?)
}

fn json_value<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    Some(body.get(body.find(&needle)? + needle.len()..)?.trim_start())
}
