//! A small blocking HTTP client for `walshcheckd` — what the CLI's
//! `submit`/`status`/`fetch` commands and the lifecycle tests speak. One
//! request per connection, mirroring the server's `Connection: close`
//! contract.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use walshcheck_core::json::{self, Json};

/// A client bound to one daemon address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
    connect_retries: u32,
    retry_base: Duration,
}

/// A completed exchange.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

impl Client {
    /// A client for the daemon at `addr` (`host:port`), with a 60 s
    /// read/write timeout and no connect retries.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(60),
            connect_retries: 0,
            retry_base: Duration::from_millis(100),
        }
    }

    /// The same client with `timeout` as its read/write timeout. A
    /// long-poll `events` call needs a timeout comfortably above its
    /// `wait_ms`.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// The same client retrying a refused/failed *connect* up to
    /// `retries` times with doubling backoff from `base` — for talking to
    /// a daemon that is mid-restart. Only connection establishment is
    /// retried (nothing has been sent yet, so this is safe for
    /// non-idempotent requests too).
    #[must_use]
    pub fn connect_retries(mut self, retries: u32, base: Duration) -> Client {
        self.connect_retries = retries;
        self.retry_base = base;
        self
    }

    /// Connects to the daemon, retrying per [`Client::connect_retries`].
    fn connect(&self) -> io::Result<TcpStream> {
        let mut delay = self.retry_base;
        let mut attempt = 0u32;
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(stream) => return Ok(stream),
                Err(e) if attempt < self.connect_retries => {
                    let _ = e;
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Performs one `method path` exchange with an optional body.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        let mut stream = self.connect()?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        // Half-close: the server may answer (413, 400) without reading the
        // whole body; signalling end-of-request lets it drain and respond
        // instead of both sides waiting on the other's EOF.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn get(&self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn post(&self, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// `DELETE path`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn delete(&self, path: &str) -> io::Result<ClientResponse> {
        self.request("DELETE", path, None)
    }

    /// Submits a job: `spec_json` is the spec document, `netlist` the
    /// ILANG source. Returns the server's `{"id","state","cached"}` body.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `spec_json` is not JSON;
    /// otherwise see [`Client::request`].
    pub fn submit(&self, spec_json: &str, netlist: &str) -> io::Result<ClientResponse> {
        let spec = json::parse(spec_json).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("spec is not JSON: {e}"),
            )
        })?;
        let body = Json::obj([("spec", spec), ("netlist", Json::str(netlist))]);
        self.post("/v1/jobs", body.to_canonical().as_bytes())
    }

    /// Fetches job `id`'s progress events from line `since` on;
    /// `wait_ms > 0` long-polls (the server blocks until a new event, a
    /// terminal state, or the wait expires).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn events(&self, id: &str, since: usize, wait_ms: u64) -> io::Result<ClientResponse> {
        self.get(&format!(
            "/v1/jobs/{id}/events?since={since}&wait_ms={wait_ms}"
        ))
    }
}

fn parse_response(raw: &[u8]) -> io::Result<ClientResponse> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::other("no header/body separator in response"))?;
    let head = std::str::from_utf8(&raw[..split])
        .map_err(|_| io::Error::other("response head is not UTF-8"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {status_line:?}")))?;
    Ok(ClientResponse {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_responses() {
        let r =
            parse_response(b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\nok").expect("parses");
        assert_eq!(r.status, 201);
        assert_eq!(r.text(), "ok");
        assert!(parse_response(b"garbage").is_err());
    }

    #[test]
    fn submit_refuses_a_spec_that_is_not_json() {
        // Refused before any connection is attempted: port 9 is never
        // dialed.
        let err = Client::new("127.0.0.1:9")
            .submit("{\"property\":", "module m")
            .expect_err("not JSON");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
