//! The benchmark's HTTP/1.1 client: one request per connection (the
//! daemon always answers `Connection: close`), timed in three parts —
//! connect, first byte after the request is written, and last byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-request socket timeout; a request that exceeds it is an error.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// One answered request.
pub struct Answer {
    pub status: u16,
    pub body: Vec<u8>,
    /// TCP connect.
    pub connect: Duration,
    /// From the request being written to the first response byte.
    pub ttfb: Duration,
}

/// Send one request and read the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Answer> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    let connect = t0.elapsed();
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    stream.write_all(&msg)?;
    let written = Instant::now();
    let mut raw = Vec::new();
    let mut first = [0u8; 1];
    if stream.read(&mut first)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let ttfb = written.elapsed();
    raw.push(first[0]);
    stream.read_to_end(&mut raw)?;
    let (status, body) = parse_response(&raw)?;
    Ok(Answer {
        status,
        body,
        connect,
        ttfb,
    })
}

/// Status code and body of a complete `Connection: close` response.
fn parse_response(raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response head not terminated"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("response head not UTF-8"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let body = raw[head_end + 4..].to_vec();
    let declared = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())
            .flatten()
    });
    if declared.is_some_and(|n| n != body.len()) {
        return Err(bad("body shorter than its Content-Length"));
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::parse_response;

    #[test]
    fn parses_status_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\nno";
        let (status, body) = parse_response(raw).unwrap();
        assert_eq!(status, 503);
        assert_eq!(body, b"no");
    }

    #[test]
    fn short_body_is_an_error() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab";
        assert!(parse_response(raw).is_err());
    }
}
