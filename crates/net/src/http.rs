//! Minimal HTTP/1.1 framing: request/response types, a reader for each, a
//! request writer and the one encoder behind every sent message. Enough
//! protocol for a JSON REST API — `Content-Length` bodies, keep-alive, and
//! nothing else (no chunked encoding, no TLS).

use std::io::{BufRead, Read, Write};

use crate::error::NetError;
use crate::url::split_target;

/// Maximum accepted header block (DoS guard).
pub(crate) const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Maximum accepted single line — request line, status line, or one header
/// (DoS guard: without it a line that never terminates buffers unboundedly).
pub(crate) const MAX_LINE_BYTES: usize = 8 * 1024;
/// Maximum accepted body (DoS guard; batch endpoints stay far below this).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// The HTTP minor version of a parsed message. Keep-alive defaults differ:
/// HTTP/1.1 connections persist unless `Connection: close`; HTTP/1.0
/// connections close unless `Connection: keep-alive`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Version {
    Http10,
    Http11,
}

/// Whether a `Connection` header value contains `token`, treating the value
/// as the comma-separated token list the RFC defines (`Connection: close,
/// x-foo` names two tokens). Comparing the whole value would miss `close`
/// there and wrongly keep the connection alive.
fn connection_has_token(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// Keep-alive decision shared by requests and responses.
fn keep_alive_for(version: Version, connection: Option<&str>) -> bool {
    match connection {
        Some(v) if connection_has_token(v, "close") => false,
        Some(v) if connection_has_token(v, "keep-alive") => true,
        _ => version == Version::Http11,
    }
}

/// An HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Protocol version from the request line (synthesized requests are 1.1).
    pub version: Version,
}

impl Request {
    /// Builds a GET request for a target like `/path?k=v`.
    pub fn get(target: &str) -> Request {
        let (path, query) = split_target(target);
        Request {
            method: "GET".into(),
            path,
            query,
            headers: Vec::new(),
            body: Vec::new(),
            version: Version::Http11,
        }
    }

    /// First query value for a key.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the sender asked to keep the connection open. `Connection` is
    /// parsed as a token list, and the default follows the protocol version:
    /// HTTP/1.1 persists unless `close` appears, HTTP/1.0 closes unless
    /// `keep-alive` appears.
    pub fn keep_alive(&self) -> bool {
        keep_alive_for(self.version, self.header("connection"))
    }
}

/// An HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Protocol version from the status line (synthesized responses are 1.1).
    pub version: Version,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(body: String) -> Response {
        Self::json_bytes(body.into_bytes())
    }

    /// 200 with an already-serialized JSON body (the wire-response cache
    /// hands out shared bodies without re-serializing).
    pub fn json_bytes(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body,
            version: Version::Http11,
        }
    }

    /// An error status with a short plain-text body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: message.as_bytes().to_vec(),
            version: Version::Http11,
        }
    }

    /// 200 with a plain-text body (health checks, metric expositions).
    pub fn text(body: String) -> Response {
        Response {
            status: 200,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into_bytes(),
            version: Version::Http11,
        }
    }

    /// Builder-style header addition.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Whether the sender will keep the connection open after this response
    /// (same token-list rules as [`Request::keep_alive`]). The client's
    /// connection pool returns a connection only when this holds.
    pub fn keep_alive(&self) -> bool {
        keep_alive_for(self.version, self.header("connection"))
    }
}

impl Version {
    fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }
}

/// Reason phrases for the statuses the API emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Reads one CRLF/LF-terminated line, raw. Refuses lines longer than
/// `MAX_LINE_BYTES` and non-UTF-8 bytes with a protocol error (the server maps
/// those to a 400 response; `std::io::BufRead::read_line` would instead
/// surface `Io(InvalidData)`, which clients misclassify as a transient I/O
/// failure). Returns `Ok(None)` on EOF before any bytes.
fn read_line_bounded<R: BufRead>(reader: &mut R) -> Result<Option<String>, NetError> {
    let mut buf = Vec::new();
    // +1 so a line of exactly MAX_LINE_BYTES (newline included) still passes;
    // the limit also stops a never-terminated line from buffering unboundedly.
    <&mut R as Read>::take(&mut *reader, MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() > MAX_LINE_BYTES {
        return Err(NetError::Http("line too long".into()));
    }
    let line =
        String::from_utf8(buf).map_err(|_| NetError::Http("non-UTF-8 bytes in line".into()))?;
    Ok(Some(line))
}

/// Reads one request from a buffered stream. Returns `Ok(None)` on a cleanly
/// closed connection (EOF before any bytes).
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, NetError> {
    let line = match read_line_bounded(reader)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(NetError::Http(format!("malformed request line: {line:?}"))),
    };
    let version = parse_version(version)
        .ok_or_else(|| NetError::Http(format!("unsupported version {version:?}")))?;
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers)?;
    let (path, query) = split_target(target);
    Ok(Some(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
        version,
    }))
}

/// Accepts exactly the HTTP/1.x versions this substrate speaks.
fn parse_version(token: &str) -> Option<Version> {
    match token {
        "HTTP/1.0" => Some(Version::Http10),
        "HTTP/1.1" => Some(Version::Http11),
        _ => None,
    }
}

/// Reads one response from a buffered stream.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, NetError> {
    // EOF before the status line is an I/O-level event (peer hung up), not a
    // protocol violation: it must classify as transient so retry policies
    // treat a dropped connection like any other connection failure.
    let line = read_line_bounded(reader)?.ok_or_else(|| {
        NetError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ))
    })?;
    let line = line.trim_end();
    let mut parts = line.splitn(3, ' ');
    let version = parse_version(parts.next().unwrap_or(""))
        .ok_or_else(|| NetError::Http(format!("bad status line: {line:?}")))?;
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| NetError::Http(format!("bad status line: {line:?}")))?;
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers)?;
    Ok(Response {
        status,
        headers,
        body,
        version,
    })
}

fn read_headers<R: BufRead>(reader: &mut R) -> Result<Vec<(String, String)>, NetError> {
    let mut headers = Vec::new();
    let mut total = 0usize;
    loop {
        let line = read_line_bounded(reader)?
            .ok_or_else(|| NetError::Http("eof inside headers".into()))?;
        total += line.len();
        if total > MAX_HEADER_BYTES {
            return Err(NetError::Http("header block too large".into()));
        }
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(headers);
        }
        match line.split_once(':') {
            Some((k, v)) => headers.push((k.trim().to_string(), v.trim().to_string())),
            None => return Err(NetError::Http(format!("malformed header: {line:?}"))),
        }
    }
}

fn read_body<R: BufRead>(
    reader: &mut R,
    headers: &[(String, String)],
) -> Result<Vec<u8>, NetError> {
    // Collect every Content-Length; conflicting duplicates are the classic
    // request-smuggling vector (two intermediaries disagreeing on where the
    // body ends), so they are a protocol error, not a pick-the-first.
    let mut len: Option<usize> = None;
    for (k, v) in headers {
        if !k.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let parsed: usize = v
            .parse()
            .map_err(|_| NetError::Http("bad content-length".into()))?;
        match len {
            Some(prev) if prev != parsed => {
                return Err(NetError::Http("conflicting content-length headers".into()));
            }
            _ => len = Some(parsed),
        }
    }
    let len = len.unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(NetError::Http(format!("body of {len} bytes exceeds limit")));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Writes a request (always with an explicit `Content-Length`) in one
/// `write_all`, so a `TCP_NODELAY` socket sends it without a segment per
/// header.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<(), NetError> {
    write_request_with(w, req, None)
}

/// [`write_request`] with one more header after the request's own: how the
/// client stamps `X-Steam-Trace` without cloning the request.
pub(crate) fn write_request_with<W: Write>(
    w: &mut W,
    req: &Request,
    extra: Option<(&str, &str)>,
) -> Result<(), NetError> {
    let mut wire = Vec::new();
    encode_request(&mut wire, req, extra);
    w.write_all(&wire)?;
    w.flush()?;
    Ok(())
}

/// Appends a request's exact wire bytes, `extra` header included, to `out`
/// (the client encodes every request of an exchange into one buffer).
pub(crate) fn encode_request(out: &mut Vec<u8>, req: &Request, extra: Option<(&str, &str)>) {
    let pairs: Vec<(&str, &str)> = req
        .query
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let target = crate::url::build_target(&req.path, &pairs);
    encode_message(
        out,
        [&req.method, &target, req.version.as_str()],
        &req.headers,
        extra,
        &req.body,
        req.body.len(),
    );
}

/// Appends a response's exact wire bytes, always with an explicit
/// `Content-Length`, to `out` (the server encodes straight into a
/// connection's write queue). `truncate` is the fault injector's mode: the
/// `Content-Length` still promises the whole body, but only its first half
/// follows. The server closes the connection after such a response, so the
/// peer sees an unexpected EOF mid-body, exactly like a connection torn
/// down mid-transfer.
pub(crate) fn encode_response(out: &mut Vec<u8>, resp: &Response, truncate: bool) {
    let sent = if truncate {
        resp.body.len() / 2
    } else {
        resp.body.len()
    };
    encode_message(
        out,
        [
            resp.version.as_str(),
            &resp.status.to_string(),
            reason(resp.status),
        ],
        &resp.headers,
        None,
        &resp.body,
        sent,
    );
}

/// The one encoder behind every sender: the start line's three tokens, the
/// headers in order (then `extra`), a `Content-Length` for the whole body,
/// the blank line, and the first `sent` bytes of the body.
fn encode_message(
    out: &mut Vec<u8>,
    start: [&str; 3],
    headers: &[(String, String)],
    extra: Option<(&str, &str)>,
    body: &[u8],
    sent: usize,
) {
    // Room for a typical head, so the body copy does not reallocate.
    out.reserve(256 + sent);
    out.extend_from_slice(start.join(" ").as_bytes());
    out.extend_from_slice(b"\r\n");
    let pairs = headers.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    for (k, v) in pairs.chain(extra) {
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"Content-Length: ");
    out.extend_from_slice(body.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(&body[..sent]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        write_request(&mut wire, req).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        read_request(&mut reader).unwrap().unwrap()
    }

    #[test]
    fn request_round_trip() {
        let mut req = Request::get("/ISteamUser/GetFriendList/v1?steamid=76561197960265728&key=K");
        req.headers.push(("Host".into(), "localhost".into()));
        let back = round_trip_request(&req);
        assert_eq!(back.method, "GET");
        assert_eq!(back.path, "/ISteamUser/GetFriendList/v1");
        assert_eq!(back.query_param("steamid"), Some("76561197960265728"));
        assert_eq!(back.query_param("key"), Some("K"));
        assert_eq!(back.query_param("missing"), None);
        assert_eq!(back.header("host"), Some("localhost"));
        assert!(back.keep_alive());
    }

    #[test]
    fn request_with_body() {
        let mut req = Request::get("/x");
        req.method = "POST".into();
        req.body = b"payload".to_vec();
        let back = round_trip_request(&req);
        assert_eq!(back.body, b"payload");
    }

    #[test]
    fn query_values_with_special_chars_round_trip() {
        let mut req = Request::get("/p");
        req.query.push(("q".into(), "a b&c=d,e".into()));
        let back = round_trip_request(&req);
        assert_eq!(back.query_param("q"), Some("a b&c=d,e"));
    }

    /// A response's wire bytes, as the server sends them.
    fn encoded(resp: &Response, truncate: bool) -> Vec<u8> {
        let mut wire = Vec::new();
        encode_response(&mut wire, resp, truncate);
        wire
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json("{\"ok\":true}".into());
        let wire = encoded(&resp, false);
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        let mut reader = BufReader::new(&wire[..]);
        let back = read_response(&mut reader).unwrap();
        assert_eq!(back.status, 200);
        assert!(back.is_success());
        assert_eq!(back.body_text(), "{\"ok\":true}");
        assert_eq!(back.header("content-type"), Some("application/json"));
    }

    #[test]
    fn error_response() {
        let resp = Response::error(429, "rate limited");
        let wire = encoded(&resp, false);
        assert!(String::from_utf8_lossy(&wire).contains("429 Too Many Requests"));
    }

    #[test]
    fn connection_close_header() {
        let mut req = Request::get("/");
        req.headers.push(("Connection".into(), "close".into()));
        assert!(!round_trip_request(&req).keep_alive());
    }

    #[test]
    fn connection_header_is_a_token_list() {
        // `close` buried in a token list must still close; whole-value
        // comparison wrongly kept these connections alive.
        for value in ["close, x-foo", "x-foo, close", "Close , Keep-Alive-Hint"] {
            let mut req = Request::get("/");
            req.headers.push(("Connection".into(), value.into()));
            assert!(!round_trip_request(&req).keep_alive(), "value {value:?}");
        }
        // Unrelated tokens alone do not close an HTTP/1.1 connection.
        let mut req = Request::get("/");
        req.headers
            .push(("Connection".into(), "x-foo, upgrade".into()));
        assert!(round_trip_request(&req).keep_alive());
    }

    #[test]
    fn http10_defaults_to_close_unless_keep_alive() {
        // Bare HTTP/1.0 request: no Connection header means close.
        let wire = b"GET / HTTP/1.0\r\n\r\n";
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.version, Version::Http10);
        assert!(!req.keep_alive(), "HTTP/1.0 without Connection must close");
        // Explicit keep-alive opts back in.
        let wire = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
        // And HTTP/1.1 still persists by default.
        let wire = b"GET / HTTP/1.1\r\n\r\n";
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.version, Version::Http11);
        assert!(req.keep_alive());
    }

    #[test]
    fn request_version_round_trips() {
        let mut req = Request::get("/old");
        req.version = Version::Http10;
        let back = round_trip_request(&req);
        assert_eq!(back.version, Version::Http10);
        assert!(!back.keep_alive());
    }

    #[test]
    fn response_connection_close_stops_reuse() {
        let resp = Response::json("{}".into()).with_header("Connection", "close, x-bar");
        let wire = encoded(&resp, false);
        let back = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert!(!back.keep_alive());
        // Plain responses stay reusable.
        let wire = encoded(&Response::json("{}".into()), false);
        assert!(read_response(&mut BufReader::new(&wire[..]))
            .unwrap()
            .keep_alive());
    }

    #[test]
    fn conflicting_duplicate_content_length_rejected() {
        // Request path.
        let wire = b"GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 7\r\n\r\nabc";
        let err = read_request(&mut BufReader::new(&wire[..])).unwrap_err();
        assert!(
            matches!(err, NetError::Http(ref m) if m.contains("conflicting")),
            "{err}"
        );
        // Response path.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nab";
        let err = read_response(&mut BufReader::new(&wire[..])).unwrap_err();
        assert!(
            matches!(err, NetError::Http(ref m) if m.contains("conflicting")),
            "{err}"
        );
    }

    #[test]
    fn identical_duplicate_content_length_accepted() {
        // Repeating the same value is redundant but unambiguous; the RFC
        // allows collapsing it.
        let wire = b"GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn eof_before_request_is_none() {
        let mut reader = BufReader::new(&b""[..]);
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn malformed_request_line_rejected() {
        for wire in [
            "GARBAGE\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/2.0\r\n\r\n",
            "GET / HTTP/1.1 X\r\n\r\n",
        ] {
            let mut reader = BufReader::new(wire.as_bytes());
            assert!(read_request(&mut reader).is_err(), "accepted {wire:?}");
        }
    }

    #[test]
    fn truncated_body_rejected() {
        let wire = b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let mut reader = BufReader::new(&wire[..]);
        assert!(read_request(&mut reader).is_err());
    }

    #[test]
    fn bad_content_length_rejected() {
        let wire = b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        assert!(read_request(&mut reader).is_err());
    }

    #[test]
    fn oversized_body_rejected() {
        let wire = format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            usize::MAX / 2
        );
        let mut reader = BufReader::new(wire.as_bytes());
        assert!(read_request(&mut reader).is_err());
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let wire = b"GET /census HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let req = read_request(&mut reader).unwrap().unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_header_line_rejected() {
        let wire = format!(
            "GET / HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "a".repeat(MAX_LINE_BYTES)
        );
        let mut reader = BufReader::new(wire.as_bytes());
        let err = read_request(&mut reader).unwrap_err();
        assert!(
            matches!(err, NetError::Http(ref m) if m.contains("too long")),
            "{err}"
        );
    }

    #[test]
    fn oversized_request_line_rejected_without_buffering_it() {
        // No terminating newline at all: the reader must give up after
        // MAX_LINE_BYTES rather than buffering the stream unboundedly.
        let wire = "G".repeat(MAX_LINE_BYTES * 4);
        let mut reader = BufReader::new(wire.as_bytes());
        let err = read_request(&mut reader).unwrap_err();
        assert!(
            matches!(err, NetError::Http(ref m) if m.contains("too long")),
            "{err}"
        );
    }

    #[test]
    fn non_utf8_bytes_are_a_protocol_error_not_io() {
        // Raw 0xFF in the request line and in a header value: both must map
        // to NetError::Http (→ a 400 at the server), never Io(InvalidData),
        // which retry policies misread as a transient network failure.
        let wires: [&[u8]; 2] = [
            b"GET /\xff\xfe HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nX-Bad: \xff\xfe\xfd\r\n\r\n",
        ];
        for wire in wires {
            let mut reader = BufReader::new(wire);
            let err = read_request(&mut reader).unwrap_err();
            assert!(
                matches!(err, NetError::Http(ref m) if m.contains("non-UTF-8")),
                "{err}"
            );
        }
    }

    #[test]
    fn non_utf8_status_line_is_a_protocol_error() {
        let wire: &[u8] = b"HTTP/1.1 \xc3\x28 OK\r\n\r\n";
        let mut reader = BufReader::new(wire);
        assert!(matches!(read_response(&mut reader), Err(NetError::Http(_))));
    }

    #[test]
    fn truncated_write_promises_more_than_it_sends() {
        let resp = Response::json("{\"ok\":true}".into());
        let wire = encoded(&resp, true);
        let text = String::from_utf8_lossy(&wire);
        assert!(
            text.contains(&format!("Content-Length: {}", resp.body.len())),
            "{text}"
        );
        // Reading it back hits EOF mid-body: an Io error, never a short body.
        let mut reader = BufReader::new(&wire[..]);
        assert!(matches!(read_response(&mut reader), Err(NetError::Io(_))));
    }

    /// Records every `write` call: on a socket, each would be one
    /// `write(2)` and, with `TCP_NODELAY`, one segment.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Runs one writer, checks it made exactly one `write`, returns the bytes.
    fn one_write(send: impl FnOnce(&mut CountingWriter) -> Result<(), NetError>) -> String {
        let mut w = CountingWriter::default();
        send(&mut w).unwrap();
        assert_eq!(w.writes, 1, "{:?}", String::from_utf8_lossy(&w.bytes));
        String::from_utf8(w.bytes).unwrap()
    }

    #[test]
    fn requests_leave_in_one_write() {
        let mut req = Request::get("/ISteamUser/GetFriendList/v1?steamid=76561197960265728&key=K");
        req.headers.push(("Host".into(), "localhost".into()));
        assert_eq!(
            one_write(|w| write_request(w, &req)),
            "GET /ISteamUser/GetFriendList/v1?steamid=76561197960265728&key=K HTTP/1.1\r\n\
             Host: localhost\r\nContent-Length: 0\r\n\r\n"
        );
        // The client's trace header goes after the request's own.
        let trace = ("X-Steam-Trace", "00000000000000ab-00000000000000cd");
        assert_eq!(
            one_write(|w| write_request_with(w, &req, Some(trace))),
            "GET /ISteamUser/GetFriendList/v1?steamid=76561197960265728&key=K HTTP/1.1\r\n\
             Host: localhost\r\nX-Steam-Trace: 00000000000000ab-00000000000000cd\r\n\
             Content-Length: 0\r\n\r\n"
        );
        let mut post = Request::get("/a b/c?q=x y");
        post.method = "POST".into();
        post.version = Version::Http10;
        post.headers.push((trace.0.into(), trace.1.into()));
        post.body = b"payload".to_vec();
        assert_eq!(
            one_write(|w| write_request(w, &post)),
            "POST /a%20b/c?q=x%20y HTTP/1.0\r\n\
             X-Steam-Trace: 00000000000000ab-00000000000000cd\r\n\
             Content-Length: 7\r\n\r\npayload"
        );
    }

    #[test]
    fn census_request_wire_bytes_are_pinned() {
        // A census batch: 100 ids joined by 99 commas, each sent as `%2C`.
        let ids: Vec<String> = (0..100u64)
            .map(|i| (76_561_197_960_265_728 + 1_000 * i).to_string())
            .collect();
        let target = format!(
            "/ISteamUser/GetPlayerSummaries/v2?key=crawler&steamids={}",
            ids.join(",")
        );
        let wire = one_write(|w| write_request(w, &Request::get(&target)));
        assert_eq!(
            wire,
            format!(
                "GET /ISteamUser/GetPlayerSummaries/v2?key=crawler&steamids={} HTTP/1.1\r\n\
                 Content-Length: 0\r\n\r\n",
                ids.join("%2C")
            )
        );
        assert_eq!(wire.len(), 2088);
        assert!(wire.starts_with(
            "GET /ISteamUser/GetPlayerSummaries/v2?key=crawler&steamids=\
             76561197960265728%2C76561197960266728%2C76561197960267728%2C"
        ));
        assert!(wire.ends_with("%2C76561197960364728 HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
    }

    #[test]
    fn response_wire_bytes_are_pinned() {
        let resp = Response::json("{\"ok\":true}".into())
            .with_header("X-Steam-Trace", "00000000000000ab")
            .with_header("Connection", "close");
        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                    X-Steam-Trace: 00000000000000ab\r\nConnection: close\r\n\
                    Content-Length: 11\r\n\r\n";
        let text = |wire: Vec<u8>| String::from_utf8(wire).unwrap();
        assert_eq!(
            text(encoded(&resp, false)),
            format!("{head}{{\"ok\":true}}")
        );
        // Truncated: the head promises all 11 bytes, the wire carries 5.
        assert_eq!(text(encoded(&resp, true)), format!("{head}{{\"ok\""));
        let error = Response::error(429, "rate limited");
        assert_eq!(
            text(encoded(&error, false)),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: text/plain\r\n\
             Content-Length: 12\r\n\r\nrate limited"
        );
        // Encoding appends: a response queued behind unsent bytes keeps them.
        let mut queue = b"HTTP/1.1 200 OK\r\n".to_vec();
        encode_response(&mut queue, &error, false);
        assert_eq!(queue[17..], encoded(&error, false)[..]);
    }

    #[test]
    fn two_requests_on_one_connection() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::get("/a")).unwrap();
        write_request(&mut wire, &Request::get("/b")).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/a");
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/b");
        assert!(read_request(&mut reader).unwrap().is_none());
    }
}
