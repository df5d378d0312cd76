//! Minimal HTTP/1.1 framing over blocking `TcpStream`s: just enough to
//! parse `METHOD /path HTTP/1.1` requests with `Content-Length` bodies
//! and to write keep-alive responses. Deliberately not a web framework —
//! no chunked encoding, no TLS, no query strings — the serving layer's
//! endpoints are all small JSON bodies on persistent local connections.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Maximum accepted header block (request line + headers).
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Oversized declared bodies are drained (so the connection survives a
/// 413) only up to this multiple of the configured body cap; anything
/// larger closes the connection instead of reading unbounded data.
const DRAIN_FACTOR: usize = 4;

/// Maximum read-timeout ticks tolerated *inside* a request (after its
/// first byte) before the request fails as malformed. The stream's read
/// timeout is the serving layer's shutdown-poll interval (25 ms by
/// default), so this bounds a mid-request stall to a few seconds instead
/// of pinning the handler thread forever — a partial request followed by
/// an idle client would otherwise also hang `Server::shutdown()`, which
/// joins every handler.
const MAX_STALL_TICKS: u32 = 200;

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Uppercase method, e.g. `"POST"`.
    pub method: String,
    /// Request target, e.g. `"/forecast"`.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Outcome of waiting for the next request on a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was framed.
    Request(Request),
    /// Clean EOF before any byte of a new request.
    Closed,
    /// The read timeout elapsed before any byte of a new request (the
    /// caller polls its shutdown flag and retries).
    Idle,
    /// Broken framing — the caller answers 400 and closes.
    Malformed(String),
    /// Declared body exceeded the cap; the body was drained if `drained`,
    /// so a 413 can keep the connection, otherwise the caller closes.
    TooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Whether the connection is still framed (body fully discarded).
        drained: bool,
        /// Whether the client asked for keep-alive.
        keep_alive: bool,
    },
}

fn stalled() -> ReadOutcome {
    ReadOutcome::Malformed(format!(
        "request stalled for more than {MAX_STALL_TICKS} read-timeout ticks"
    ))
}

/// Counts one read-timeout tick against the per-request stall budget.
fn tick(stalls: &mut u32) -> Result<(), ReadOutcome> {
    *stalls += 1;
    if *stalls > MAX_STALL_TICKS {
        Err(stalled())
    } else {
        Ok(())
    }
}

fn read_byte(
    stream: &mut TcpStream,
    first: bool,
    stalls: &mut u32,
) -> Result<Option<u8>, ReadOutcome> {
    let mut b = [0u8; 1];
    loop {
        match stream.read(&mut b) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(b[0])),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if first {
                    return Err(ReadOutcome::Idle);
                }
                // Mid-request stall: keep waiting, but only within the
                // bounded stall budget.
                tick(stalls)?;
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadOutcome::Malformed(format!("read error: {e}"))),
        }
    }
}

/// Reads and frames one request. `max_body` caps accepted bodies.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> ReadOutcome {
    // Head: accumulate until CRLFCRLF.
    let mut head: Vec<u8> = Vec::with_capacity(256);
    let mut stalls = 0u32;
    loop {
        let first = head.is_empty();
        match read_byte(stream, first, &mut stalls) {
            Err(outcome) => return outcome,
            Ok(None) => {
                return if head.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Malformed("eof inside request head".to_string())
                };
            }
            Ok(Some(b)) => head.push(b),
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return ReadOutcome::Malformed("request head too large".to_string());
        }
    }
    let head = match std::str::from_utf8(&head) {
        Ok(s) => s,
        Err(_) => return ReadOutcome::Malformed("non-utf8 request head".to_string()),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, proto) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return ReadOutcome::Malformed(format!("bad request line `{request_line}`"));
        }
    };
    if !proto.starts_with("HTTP/1.") {
        return ReadOutcome::Malformed(format!("unsupported protocol `{proto}`"));
    }

    let mut content_length = 0usize;
    // Keep-alive is the HTTP/1.1 default; HTTP/1.0 defaults to close
    // unless the client asks for keep-alive explicitly.
    let mut keep_alive = !proto.eq_ignore_ascii_case("HTTP/1.0");
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return ReadOutcome::Malformed(format!("bad header line `{line}`"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => {
                    return ReadOutcome::Malformed(format!("bad content-length `{value}`"));
                }
            }
        } else if name == "connection" {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    if content_length > max_body {
        // Drain a bounded amount so the connection stays framed.
        let drained = if content_length <= max_body.saturating_mul(DRAIN_FACTOR) {
            let mut left = content_length;
            let mut sink = [0u8; 4096];
            while left > 0 {
                let want = left.min(sink.len());
                match stream.read(&mut sink[..want]) {
                    Ok(0) => break,
                    Ok(n) => left -= n,
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        if tick(&mut stalls).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            left == 0
        } else {
            false
        };
        return ReadOutcome::TooLarge {
            declared: content_length,
            drained,
            keep_alive,
        };
    }

    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        match stream.read(&mut body[filled..]) {
            Ok(0) => return ReadOutcome::Malformed("eof inside request body".to_string()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if let Err(outcome) = tick(&mut stalls) {
                    return outcome;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return ReadOutcome::Malformed(format!("read error: {e}")),
        }
    }

    ReadOutcome::Request(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        keep_alive,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one JSON response. `keep_alive` controls the `Connection` header
/// only; the caller decides whether to actually close the stream.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn framed(raw: &[u8], max_body: usize) -> ReadOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(raw).expect("write");
        client.flush().expect("flush");
        let (mut server_side, _) = listener.accept().expect("accept");
        read_request(&mut server_side, max_body)
    }

    #[test]
    fn frames_a_post_with_body() {
        let out = framed(
            b"POST /forecast HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        );
        match out {
            ReadOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/forecast");
                assert_eq!(req.body, b"abcd");
                assert!(req.keep_alive);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_request_line_and_protocol() {
        assert!(matches!(
            framed(b"NOT-HTTP\r\n\r\n", 1024),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            framed(b"GET /x SPDY/3\r\n\r\n", 1024),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn oversized_body_is_drained_for_keepalive() {
        let mut raw = b"POST /forecast HTTP/1.1\r\nContent-Length: 64\r\n\r\n".to_vec();
        raw.extend(std::iter::repeat(b'x').take(64));
        match framed(&raw, 16) {
            ReadOutcome::TooLarge {
                declared,
                drained,
                keep_alive,
            } => {
                assert_eq!(declared, 64);
                assert!(drained);
                assert!(keep_alive);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn connection_close_header_is_honored() {
        let out = framed(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 64);
        match out {
            ReadOutcome::Request(req) => assert!(!req.keep_alive),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn http10_defaults_to_close_unless_keepalive_requested() {
        match framed(b"GET /healthz HTTP/1.0\r\n\r\n", 64) {
            ReadOutcome::Request(req) => assert!(!req.keep_alive, "1.0 default must be close"),
            other => panic!("expected request, got {other:?}"),
        }
        match framed(
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            64,
        ) {
            ReadOutcome::Request(req) => assert!(req.keep_alive, "explicit keep-alive honored"),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn mid_request_stall_fails_instead_of_hanging() {
        // A client that sends a partial head and then idles must not pin
        // the reader forever: after MAX_STALL_TICKS read-timeout ticks the
        // request fails as malformed.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .write_all(b"POST /forecast HTTP/1.1\r\n")
            .expect("write");
        client.flush().expect("flush");
        let (mut server_side, _) = listener.accept().expect("accept");
        server_side
            .set_read_timeout(Some(std::time::Duration::from_millis(1)))
            .expect("set timeout");
        let out = read_request(&mut server_side, 1024);
        match out {
            ReadOutcome::Malformed(msg) => assert!(msg.contains("stalled"), "got `{msg}`"),
            other => panic!("expected stalled Malformed, got {other:?}"),
        }
        drop(client);
    }
}
