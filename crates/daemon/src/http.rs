//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for
//! the daemon's JSON API, with none of it guessed: requests above the
//! header or body caps are rejected before buffering, bodies require an
//! explicit `Content-Length`, and every response carries
//! `Connection: close` so connection lifetime equals request lifetime
//! (no keep-alive state machine).

use std::io::{self, Read, Write};
use std::net::TcpStream;

use walshcheck_core::json::Json;

/// Upper bound on the request line + headers, in bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// Default upper bound on a request body (netlists are text; 8 MiB is
/// orders of magnitude above the paper benchmarks).
pub const DEFAULT_MAX_BODY: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Percent-decoded path without the query string.
    pub path: String,
    /// The raw query string (empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of query parameter `key`, if present (`k=v` pairs,
    /// `&`-separated, no percent-decoding — the API only passes integers).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// A request-reading failure that maps to a definite status code.
#[derive(Debug)]
pub struct HttpError {
    /// The status the connection should answer with.
    pub status: u16,
    /// Human-readable cause, sent as the JSON error body.
    pub message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }

    fn too_large(message: impl Into<String>) -> Self {
        HttpError {
            status: 413,
            message: message.into(),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::bad(format!("i/o while reading request: {e}"))
    }
}

/// Reads one request off `stream`. `max_body` caps the allowed
/// `Content-Length`; oversized requests fail with 413 *before* the body
/// is buffered, malformed ones with 400.
///
/// # Errors
///
/// [`HttpError`] with the status the connection should answer with.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    // Read byte-wise up to the blank line; MAX_HEAD bounds the loop.
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(HttpError::too_large(format!(
                "request head exceeds {MAX_HEAD} bytes"
            )));
        }
        match stream.read(&mut byte)? {
            0 => return Err(HttpError::bad("connection closed mid-request")),
            _ => head.push(byte[0]),
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| HttpError::bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::bad(format!("bad request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad(format!("unsupported version {version:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::bad(format!("bad Content-Length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::too_large(format!(
            "body of {content_length} bytes exceeds the {max_body}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// A response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond the fixed set (`Retry-After` on 503, ...).
    pub headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with `status`.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// The same response with `name: value` appended to its headers.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// A JSON error body `{"error": message}` with `status`.
    pub fn error(status: u16, message: &str) -> Self {
        let body = Json::obj([("error", Json::str(message))]);
        Response::json(status, body.to_canonical())
    }

    /// Serializes the response onto `stream` (always `Connection: close`).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Status",
        };
        let extra: String = self
            .headers
            .iter()
            .map(|(n, v)| format!("{n}: {v}\r\n"))
            .collect();
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn round_trip(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request(&mut conn, max_body);
        writer.join().expect("writer");
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip(
            b"POST /v1/jobs?x=1&y=2 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody",
            1024,
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query_param("y"), Some("2"));
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let err = round_trip(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 16)
            .expect_err("too large");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET /x SPDY/9 extra\r\n\r\n"[..],
        ] {
            let err = round_trip(raw, 1024).expect_err("malformed");
            assert_eq!(err.status, 400);
        }
    }
}
