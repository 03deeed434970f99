//! A minimal HTTP/1.1 client: one request per connection, as the server
//! closes every connection after its response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::digest::{body_digest, BodyDigest};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Longer than any request of the workloads takes; a response slower
/// than this counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Response {
    pub status: u16,
    pub etag: Option<String>,
    /// Bytes of the body, as framed by `Content-Length`.
    pub body_len: usize,
    pub digest: BodyDigest,
    /// When the last byte of the body arrived.
    pub done: Instant,
    /// Kept only when asked for (`GET /stats`).
    pub body: Option<Vec<u8>>,
}

/// Sends one request and reads its response. Fails on a connection
/// error, a timeout, or a response whose framing is wrong: a missing
/// `Content-Length`, a short body, or bytes after the body.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    if_none_match: Option<&str>,
    keep_body: bool,
) -> Result<Response, String> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(tag) = if_none_match {
        head.push_str(&format!("If-None-Match: {tag}\r\n"));
    }
    head.push_str("\r\n");
    head.push_str(body);
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;

    let mut buf = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(format!(
                    "{path}: connection closed inside the response head"
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("{path}: reading response head: {e}")),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| format!("{path}: response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{path}: bad status line"))?;
    let mut content_length = None;
    let mut etag = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("etag") {
                etag = Some(value.trim().to_string());
            }
        }
    }
    let body_len =
        content_length.ok_or_else(|| format!("{path}: response {status} has no Content-Length"))?;
    let want = head_end + body_len;
    buf.reserve(want.saturating_sub(buf.len()));
    while buf.len() < want {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(format!(
                    "{path}: body cut short at {} of {body_len} bytes",
                    buf.len() - head_end
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("{path}: reading body: {e}")),
        }
    }
    let done = Instant::now();
    let mut extra = buf.len() - want;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => extra += n,
            Err(e) => return Err(format!("{path}: waiting for close: {e}")),
        }
    }
    if extra > 0 {
        return Err(format!(
            "{path}: {extra} bytes after a body of Content-Length {body_len}"
        ));
    }
    let body = &buf[head_end..];
    Ok(Response {
        status,
        etag,
        body_len,
        digest: body_digest(body),
        done,
        body: keep_body.then(|| body.to_vec()),
    })
}
