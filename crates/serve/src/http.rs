//! A deliberately tiny HTTP/1.0 layer over `std::net` — just enough to
//! serve `/metrics` and the JSON/HTML report endpoints to curl and a
//! Prometheus scraper, with no external dependencies (the workspace is
//! fully vendored/offline). One request per connection, `Connection:
//! close`, bounded header reads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Maximum accepted request head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;

/// A parsed request head: method and path (query strings are not split —
/// no endpoint takes one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The request target, e.g. `/jobs/alpha/report`.
    pub path: String,
}

/// Read and parse one request head off a stream. Returns `None` on
/// malformed input, over-long heads, or early EOF.
pub fn read_request(stream: &mut TcpStream) -> Option<Request> {
    // One budget bounds every read, the request line included, so a peer
    // that never sends a newline cannot make the server buffer past it.
    let mut reader = BufReader::new(stream).take(MAX_HEAD as u64 + 1);
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    if !path.starts_with('/') {
        return None;
    }
    // Drain headers until the blank line so the peer sees a clean close.
    loop {
        if reader.limit() == 0 {
            return None; // the head is longer than MAX_HEAD
        }
        let mut h = String::new();
        let n = reader.read_line(&mut h).ok()?;
        if n == 0 || h == "\r\n" || h == "\n" {
            break;
        }
    }
    Some(Request { method, path })
}

/// Write a complete response with `Content-Length` and close semantics.
pub fn respond(stream: &mut TcpStream, status: u32, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Blocking single-shot GET client used by gates, examples, and tests.
/// Returns `(status, body)`.
pub fn http_get<A: ToSocketAddrs>(addr: A, path: &str) -> std::io::Result<(u32, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .unwrap_or((raw.as_str(), ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// Percent-decode a URL path segment (enough for job ids in paths; invalid
/// escapes are passed through verbatim).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let (Some(h), Some(l)) = (
                bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
            ) {
                out.push((h * 16 + l) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_escapes_and_passthrough() {
        assert_eq!(percent_decode("plain-job"), "plain-job");
        assert_eq!(percent_decode("job%20one"), "job one");
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
    }

    #[test]
    fn request_response_over_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).expect("parses");
            assert_eq!(req.method, "GET");
            assert_eq!(req.path, "/metrics");
            respond(&mut s, 200, "text/plain", "hello 1\n");
        });
        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "hello 1\n");
        server.join().unwrap();
    }

    /// Parse `raw` sent by a client that keeps its socket open until the
    /// server is done. Also returns whether the server finished while the
    /// client was still waiting, i.e. without needing EOF.
    fn read_raw(raw: Vec<u8>) -> (Option<Request>, bool) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(&raw); // the server may stop reading early
            done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .is_ok()
        });
        let (mut s, _) = listener.accept().unwrap();
        let req = read_request(&mut s);
        drop(s);
        done_tx.send(()).unwrap();
        (req, client.join().unwrap())
    }

    #[test]
    fn over_long_request_line_is_rejected() {
        let raw = format!("GET /{} HTTP/1.0\r\n\r\n", "a".repeat(1 << 20));
        assert_eq!(read_raw(raw.into_bytes()).0, None);
    }

    #[test]
    fn unterminated_header_is_rejected_without_eof() {
        let mut raw = b"GET /metrics HTTP/1.0\r\nX-Pad: ".to_vec();
        raw.resize(raw.len() + MAX_HEAD, b'a');
        let (req, before_eof) = read_raw(raw);
        assert_eq!(req, None);
        assert!(before_eof, "read_request waited for the peer to close");
    }
}
