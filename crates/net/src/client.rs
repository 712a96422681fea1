//! A blocking HTTP client with connection reuse — what the crawler uses to
//! talk to the emulated Steam Web API.

use std::io::Write;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use steam_obs::{TraceContext, TRACE_HEADER};

use crate::error::NetError;
use crate::http::{encode_request, read_response, Request, Response};
use crate::pool::{Conn, ConnectionPool};

/// Stale-pooled-connection retries allowed per exchange. With a shared pool
/// several parked connections can have gone stale at once (server restart),
/// so a couple of silent retries are allowed before the error surfaces.
const MAX_RECONNECTS_PER_REQUEST: u32 = 2;

/// What one request of an [`HttpClient::exchange`] came back with.
#[derive(Debug)]
pub struct Reply {
    /// The response, or why none arrived. A response that the connection
    /// broke or closed before is a retryable [`NetError::Io`].
    pub result: Result<Response, NetError>,
    /// When this request's own response had been read, or found missing.
    /// Later requests of one exchange never end earlier than earlier ones.
    pub at: Instant,
}

/// Upper bound on an honored `Retry-After` hint, matching the default
/// backoff policy's `max` (asserted in sync by a test). A misbehaving
/// server advertising `Retry-After: 99999` must not stall a retry loop for
/// a day; beyond this cap its hint is worth no more than our own schedule.
pub const MAX_RETRY_AFTER: Duration = Duration::from_secs(5);

/// A keep-alive HTTP client bound to one server address.
///
/// Connections come from a [`ConnectionPool`]: a private single-slot pool by
/// default ([`new`](Self::new)), or a pool shared with other clients across
/// threads ([`with_pool`](Self::with_pool)) — the crawler's phase-2 workers
/// share one pool so the whole crawl runs over a bounded socket set, and the
/// router's per-shard clients share one address-keyed pool across the fleet.
/// Reconnects transparently when a pooled connection has gone stale —
/// counting every reconnect (see [`reconnects`](Self::reconnects)) and
/// capping attempts per exchange so a flapping server can never trap a
/// request in a silent reconnect loop.
/// Not `Sync` — each thread owns its own client; the pool behind it is the
/// shared part.
pub struct HttpClient {
    addr: SocketAddr,
    pool: Arc<ConnectionPool>,
    reconnects: u64,
    trace: Option<TraceContext>,
}

impl HttpClient {
    /// A client with its own single-slot connection pool (the pre-pooling
    /// behavior: one keep-alive connection, reconnect when stale).
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient { addr, pool: Arc::new(ConnectionPool::new(1)), reconnects: 0, trace: None }
    }

    /// A client for `addr` drawing connections from a shared (possibly
    /// multi-address) pool.
    pub fn with_pool(addr: SocketAddr, pool: Arc<ConnectionPool>) -> Self {
        HttpClient { addr, pool, reconnects: 0, trace: None }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets (or clears) the trace context stamped onto outgoing requests:
    /// while set, every request carries `X-Steam-Trace` with this context.
    /// Callers running a retry loop refresh the span id per attempt while
    /// keeping the trace id, so all attempts of one logical request join.
    pub fn set_trace(&mut self, trace: Option<TraceContext>) {
        self.trace = trace;
    }

    /// The trace context currently stamped onto outgoing requests.
    pub fn trace(&self) -> Option<TraceContext> {
        self.trace
    }

    /// Sets the connect/read/write timeout. Only valid before the client's
    /// pool is shared (it rebuilds the pool's timeout in place).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        Arc::get_mut(&mut self.pool)
            .expect("with_timeout requires exclusive ownership of the pool");
        self.pool = Arc::new(ConnectionPool::new(1).with_timeout(timeout));
        self
    }

    /// The pool this client draws from.
    pub fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    /// Total stale-connection reconnects performed over this client's
    /// lifetime (the crawler exposes this as `crawl_reconnects_total`).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends `reqs` as one exchange on one connection: a single write of
    /// every request, each stamped with its own trace context, then the
    /// responses read back in order. Returns one [`Reply`] per request.
    ///
    /// A response that does not arrive — the connection broke, or an
    /// earlier response carried `Connection: close` — is a retryable
    /// [`NetError::Io`] in its own slot; the responses that did arrive are
    /// kept. A pooled connection that yields no response at all is stale:
    /// the exchange goes again on another connection, at most
    /// `MAX_RECONNECTS_PER_REQUEST` times. Failures on a freshly opened
    /// connection are real errors. The connection goes back to the pool
    /// only when every response arrived and none forbids reuse.
    ///
    /// One exchange must stay small (a few requests): the whole write
    /// completes before the first response is read, so requests that
    /// outgrow the socket buffers while the server's answers fill the
    /// other direction would deadlock.
    pub fn exchange(&mut self, reqs: &[(&Request, Option<TraceContext>)]) -> Vec<Reply> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let mut wire = Vec::new();
        for (req, trace) in reqs {
            // The trace header rides after the request's own headers; a
            // request that already carries one (caller-stamped) is sent
            // untouched.
            let value =
                trace.filter(|_| req.header(TRACE_HEADER).is_none()).map(|ctx| ctx.header_value());
            encode_request(&mut wire, req, value.as_deref().map(|v| (TRACE_HEADER, v)));
        }
        let mut reconnects_left = MAX_RECONNECTS_PER_REQUEST;
        loop {
            let (mut conn, pooled) = match self.pool.checkout(self.addr) {
                Some(conn) => (conn, true),
                None => match self.pool.connect(self.addr) {
                    Ok(conn) => (conn, false),
                    Err(e) => return Self::unanswered(Vec::new(), Err(e), reqs.len()),
                },
            };
            let replies = Self::exchange_on(&mut conn, &wire, reqs.len());
            if replies[0].result.is_err() && pooled && reconnects_left > 0 {
                // Stale pooled connection — drop it and go again on another.
                reconnects_left -= 1;
                self.reconnects += 1;
                continue;
            }
            // Reading stops at the first failure or close intent, so when
            // every response arrived only the last can forbid reuse; the
            // pool checks it.
            if replies.iter().all(|r| r.result.is_ok()) {
                if let Some(Reply { result: Ok(last), .. }) = replies.last() {
                    self.pool.checkin(conn, last);
                }
            }
            return replies;
        }
    }

    /// Writes an encoded exchange and reads its `n` responses in order.
    /// After the first failure or close intent nothing more is read.
    fn exchange_on(conn: &mut Conn, wire: &[u8], n: usize) -> Vec<Reply> {
        if let Err(e) = conn.writer.write_all(wire) {
            return Self::unanswered(Vec::new(), Err(e.into()), n);
        }
        let mut replies = Vec::with_capacity(n);
        while replies.len() < n {
            let result = read_response(&mut conn.reader);
            if !result.as_ref().is_ok_and(Response::keep_alive) {
                return Self::unanswered(replies, result, n);
            }
            replies.push(Reply { result, at: Instant::now() });
        }
        replies
    }

    /// Completes `replies` to `n` slots after `last`, the outcome that ended
    /// the exchange: the slots behind it get an I/O error naming it, so a
    /// retry policy treats each as a transient failure of its own.
    fn unanswered(
        mut replies: Vec<Reply>,
        last: Result<Response, NetError>,
        n: usize,
    ) -> Vec<Reply> {
        let cause = match &last {
            Ok(_) => "an earlier response closed the connection".to_string(),
            Err(e) => e.to_string(),
        };
        let at = Instant::now();
        replies.push(Reply { result: last, at });
        while replies.len() < n {
            let err = std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                format!("no response: {cause}"),
            );
            replies.push(Reply { result: Err(err.into()), at });
        }
        replies
    }

    /// Sends one request under the client's trace context: the
    /// one-request case of [`exchange`](Self::exchange).
    pub fn send(&mut self, req: &Request) -> Result<Response, NetError> {
        let trace = self.trace;
        self.exchange(&[(req, trace)]).pop().expect("one reply per request").result
    }

    /// GET a target; non-2xx statuses become [`NetError::Status`] (see
    /// [`check_status`]).
    pub fn get(&mut self, target: &str) -> Result<Response, NetError> {
        self.send(&Request::get(target)).and_then(check_status)
    }
}

/// Passes a 2xx response through and turns any other status into
/// [`NetError::Status`], carrying the `Retry-After` header the server sent.
/// The hint is parsed as whole seconds and clamped to [`MAX_RETRY_AFTER`];
/// non-numeric forms (the HTTP-date variant) yield no hint — the retry
/// itself is unaffected, the backoff schedule just falls back to its own
/// delays.
pub fn check_status(resp: Response) -> Result<Response, NetError> {
    if resp.is_success() {
        return Ok(resp);
    }
    let retry_after = resp
        .header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|secs| Duration::from_secs(secs).min(MAX_RETRY_AFTER));
    Err(NetError::Status { code: resp.status, body: resp.body_text(), retry_after })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Handler, HttpServer};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn counting_server() -> (HttpServer, Arc<AtomicU32>) {
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        let handler: Arc<dyn Handler> = Arc::new(move |req: Request| {
            h2.fetch_add(1, Ordering::Relaxed);
            match req.path.as_str() {
                "/missing" => Response::error(404, "nope"),
                "/limited" => Response::error(429, "slow down"),
                _ => Response::json(format!("{{\"n\":{}}}", h2.load(Ordering::Relaxed))),
            }
        });
        (HttpServer::bind("127.0.0.1:0", 4, handler).unwrap(), hits)
    }

    #[test]
    fn get_success() {
        let (server, _) = counting_server();
        let mut client = HttpClient::new(server.addr());
        let resp = client.get("/ok").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body_text().contains("\"n\""));
    }

    #[test]
    fn reuses_connection() {
        let (server, hits) = counting_server();
        let mut client = HttpClient::new(server.addr());
        for _ in 0..5 {
            client.get("/ok").unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 5);
        assert_eq!(client.pool().connects(), 1, "five requests over one socket");
        assert_eq!(client.pool().reuses(), 4);
        assert_eq!(client.pool().idle_len(), 1, "connection should be parked again");
    }

    #[test]
    fn shared_pool_bounds_sockets_across_clients() {
        // Two sequential clients on one pool share the same socket.
        let (server, hits) = counting_server();
        let pool = ConnectionPool::shared(2);
        let mut a = HttpClient::with_pool(server.addr(), Arc::clone(&pool));
        let mut b = HttpClient::with_pool(server.addr(), Arc::clone(&pool));
        a.get("/ok").unwrap();
        b.get("/ok").unwrap();
        a.get("/ok").unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        assert_eq!(pool.connects(), 1, "sequential clients must share the socket");
        assert_eq!(pool.reuses(), 2);
    }

    #[test]
    fn connection_close_response_is_not_pooled() {
        let handler: Arc<dyn Handler> = Arc::new(|_req: Request| {
            Response::json("{}".into()).with_header("Connection", "close")
        });
        let server = HttpServer::bind("127.0.0.1:0", 2, handler).unwrap();
        let mut client = HttpClient::new(server.addr());
        client.get("/a").unwrap();
        assert_eq!(client.pool().idle_len(), 0, "closed connection must not be parked");
        client.get("/b").unwrap();
        assert_eq!(client.pool().connects(), 2, "each close forces a fresh connection");
    }

    #[test]
    fn pool_does_not_resurrect_a_server_reaped_connection() {
        use crate::server::ServerConfig;
        use steam_obs::Registry;
        // Server reaps idle keep-alive connections quickly; the pool's
        // idle-age cap sits below that, so a parked connection ages out of
        // the pool before the server half-closes it under our feet.
        let registry = Arc::new(Registry::new());
        let handler: Arc<dyn Handler> = Arc::new(|_req: Request| Response::json("{}".into()));
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        };
        let server = HttpServer::bind_config(
            "127.0.0.1:0",
            config,
            handler,
            Some(Arc::clone(&registry)),
            None,
        )
        .unwrap();
        let pool =
            Arc::new(ConnectionPool::new(2).with_max_idle_age(Duration::from_millis(150)));
        let mut client = HttpClient::with_pool(server.addr(), Arc::clone(&pool));
        client.get("/a").unwrap();
        assert_eq!(pool.idle_len(), 1);
        // Well past both the pool's idle-age cap and the server's idle
        // timeout: the server has closed its side of the parked socket.
        std::thread::sleep(Duration::from_millis(600));
        client.get("/b").unwrap();
        assert_eq!(client.reconnects(), 0, "stale socket reached the wire before the TTL");
        assert_eq!(pool.expired(), 1);
        // The server's own connection counter confirms the second request
        // rode a genuinely fresh connection.
        assert_eq!(registry.counter("http_connections_total", &[]).get(), 2);
    }

    #[test]
    fn non_success_maps_to_status_error() {
        let (server, _) = counting_server();
        let mut client = HttpClient::new(server.addr());
        match client.get("/missing") {
            Err(NetError::Status { code: 404, .. }) => {}
            other => panic!("expected 404, got {other:?}"),
        }
        match client.get("/limited") {
            Err(NetError::Status { code: 429, .. }) => {}
            other => panic!("expected 429, got {other:?}"),
        }
    }

    #[test]
    fn retry_after_cap_matches_default_backoff_max() {
        assert_eq!(
            MAX_RETRY_AFTER,
            crate::backoff::Backoff::default().max,
            "the honored Retry-After cap is defined as the backoff policy's max"
        );
    }

    #[test]
    fn huge_retry_after_is_clamped_to_backoff_max() {
        // A shard advertising `Retry-After: 99999` must not stall the
        // router's (or crawler's) retry loop for a day.
        let handler: Arc<dyn Handler> = Arc::new(|_req: Request| {
            Response::error(429, "slow down").with_header("Retry-After", "99999")
        });
        let server = HttpServer::bind("127.0.0.1:0", 2, handler).unwrap();
        let mut client = HttpClient::new(server.addr());
        match client.get("/limited") {
            Err(NetError::Status { code: 429, retry_after, .. }) => {
                assert_eq!(retry_after, Some(MAX_RETRY_AFTER), "hint must be clamped");
            }
            other => panic!("expected 429, got {other:?}"),
        }
        // A modest hint below the cap passes through untouched.
        let handler: Arc<dyn Handler> = Arc::new(|_req: Request| {
            Response::error(429, "slow down").with_header("Retry-After", "2")
        });
        let server = HttpServer::bind("127.0.0.1:0", 2, handler).unwrap();
        let mut client = HttpClient::new(server.addr());
        match client.get("/limited") {
            Err(NetError::Status { retry_after, .. }) => {
                assert_eq!(retry_after, Some(Duration::from_secs(2)));
            }
            other => panic!("expected 429, got {other:?}"),
        }
    }

    #[test]
    fn http_date_retry_after_is_ignored_without_losing_the_retry() {
        use crate::backoff::Backoff;
        // First hit: 503 with the RFC 9110 HTTP-date form we don't parse.
        // The hint must degrade to None (backoff falls back to its own
        // schedule) and the retry itself must still happen and succeed.
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        let handler: Arc<dyn Handler> = Arc::new(move |_req: Request| {
            if h2.fetch_add(1, Ordering::Relaxed) == 0 {
                Response::error(503, "maintenance")
                    .with_header("Retry-After", "Fri, 31 Dec 1999 23:59:59 GMT")
            } else {
                Response::json("{\"ok\":true}".into())
            }
        });
        let server = HttpServer::bind("127.0.0.1:0", 2, handler).unwrap();
        let mut client = HttpClient::new(server.addr());
        match client.get("/flaky") {
            Err(NetError::Status { code: 503, retry_after, .. }) => {
                assert_eq!(retry_after, None, "date form must not parse as seconds");
            }
            other => panic!("expected 503, got {other:?}"),
        }
        // Drive the same exchange through the backoff loop: one retry wins.
        let backoff = Backoff { base: Duration::from_millis(1), ..Backoff::default() };
        hits.store(0, Ordering::Relaxed);
        let resp = backoff
            .run(
                || client.get("/flaky"),
                |e| matches!(e, NetError::Status { code: 503, .. }),
            )
            .expect("retry must survive an unparseable Retry-After");
        assert!(resp.body_text().contains("ok"));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn reconnects_after_server_restarts_on_same_addr() {
        // A stale pooled connection must not poison the client: simulate by
        // shutting the server down, then binding a new one on the same port.
        let (mut server, _) = counting_server();
        let addr = server.addr();
        let mut client = HttpClient::new(addr);
        client.get("/ok").unwrap();
        server.shutdown();
        let handler: Arc<dyn Handler> =
            Arc::new(|_req: Request| Response::json("{\"fresh\":true}".into()));
        let _server2 = HttpServer::bind(&addr.to_string(), 1, handler).unwrap();
        assert_eq!(client.reconnects(), 0);
        let resp = client.get("/again").unwrap();
        assert!(resp.body_text().contains("fresh"));
        assert_eq!(client.reconnects(), 1, "stale-connection reconnect must be counted");
    }

    #[test]
    fn reconnect_attempts_are_capped_per_request() {
        // Server goes away entirely: the pooled connection is stale AND the
        // fresh connect fails. The request must error out promptly instead
        // of looping, and the failed fresh connect must not be counted as a
        // reconnect beyond the cap.
        let (mut server, _) = counting_server();
        let addr = server.addr();
        let mut client = HttpClient::new(addr).with_timeout(Duration::from_millis(300));
        client.get("/ok").unwrap();
        server.shutdown();
        let err = client.get("/gone").unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "expected connect failure, got {err:?}");
        assert!(
            client.reconnects() <= u64::from(super::MAX_RECONNECTS_PER_REQUEST),
            "reconnects = {}",
            client.reconnects()
        );
    }

    #[test]
    fn trace_context_is_injected_and_echoed() {
        use steam_obs::{SpanId, TraceId};
        let handler: Arc<dyn Handler> = Arc::new(|req: Request| {
            Response::json(format!(
                "{{\"trace\":\"{}\"}}",
                req.header("x-steam-trace").unwrap_or("none")
            ))
        });
        let server = HttpServer::bind("127.0.0.1:0", 2, handler).unwrap();
        let mut client = HttpClient::new(server.addr());
        // No context set: nothing injected, but the server mints a trace
        // and echoes its id on the response.
        let resp = client.get("/plain").unwrap();
        assert!(resp.body_text().contains("\"trace\":\"none\""), "{}", resp.body_text());
        let minted = resp.header("x-steam-trace").expect("server must stamp a minted trace id");
        assert_eq!(minted.len(), 16, "echoed id must be 16 hex chars, got {minted:?}");
        // Context set: the pair rides the wire; the trace id comes back.
        let ctx = TraceContext { trace: TraceId(0xabcd), span: SpanId(0x1234) };
        client.set_trace(Some(ctx));
        let resp = client.get("/traced").unwrap();
        assert!(resp.body_text().contains(&ctx.header_value()), "{}", resp.body_text());
        assert_eq!(resp.header("x-steam-trace"), Some(ctx.trace.to_hex().as_str()));
        // Cleared: no more injection.
        client.set_trace(None);
        let resp = client.get("/plain").unwrap();
        assert!(resp.body_text().contains("\"trace\":\"none\""));
    }

    /// A one-connection server that reads all `n` requests before it
    /// answers any, then writes `answers` (perhaps fewer than `n`) and
    /// hangs up. A client that waited for each response before sending the
    /// next would time out against it. The handle yields the raw bytes
    /// the server received.
    fn read_all_then_answer(
        n: usize,
        answers: Vec<Response>,
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<u8>>) {
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            // Every request is a body-less GET, so each ends at its blank line.
            let mut received = Vec::new();
            let mut buf = [0u8; 4096];
            while received.windows(4).filter(|w| w == b"\r\n\r\n").count() < n {
                let k = stream.read(&mut buf).expect("all requests before any answer");
                assert!(k > 0, "client hung up before sending every request");
                received.extend_from_slice(&buf[..k]);
            }
            let mut wire = Vec::new();
            for resp in &answers {
                crate::http::write_response(&mut wire, resp).unwrap();
            }
            stream.write_all(&wire).unwrap();
            received
        });
        (addr, server)
    }

    fn traced(n: u64) -> Vec<Option<TraceContext>> {
        use steam_obs::{SpanId, TraceId};
        (1..=n).map(|s| Some(TraceContext { trace: TraceId(0x7e), span: SpanId(s) })).collect()
    }

    #[test]
    fn exchange_writes_every_request_before_reading_a_response() {
        let answers = (0..3).map(|i| Response::json(format!("{{\"i\":{i}}}"))).collect();
        let (addr, server) = read_all_then_answer(3, answers);
        let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(2));
        let reqs = [Request::get("/a"), Request::get("/b?x=1"), Request::get("/c")];
        let slots: Vec<_> = reqs.iter().zip(traced(3)).collect();
        let replies = client.exchange(&slots);
        let received = server.join().unwrap();
        for (i, reply) in replies.iter().enumerate() {
            let resp = reply.result.as_ref().expect("every request answered");
            assert_eq!(resp.body_text(), format!("{{\"i\":{i}}}"), "answers come back in order");
        }
        assert!(replies.windows(2).all(|w| w[0].at <= w[1].at), "each ends at its own response");
        // The wire carried the single-request encodings, concatenated, each
        // with its own trace header.
        let mut expected = Vec::new();
        for (req, ctx) in &slots {
            let value = ctx.expect("traced").header_value();
            crate::http::write_request_with(&mut expected, req, Some((TRACE_HEADER, &value)))
                .unwrap();
        }
        assert_eq!(String::from_utf8(received).unwrap(), String::from_utf8(expected).unwrap());
        assert_eq!(client.pool().idle_len(), 1, "a fully answered exchange parks its connection");
    }

    #[test]
    fn unanswered_slots_are_retryable_io_errors_and_answered_ones_are_kept() {
        // The first answer closes the connection on purpose; or the server
        // hangs up after a keep-alive answer, mid-exchange.
        let closing = Response::json("{\"i\":0}".into()).with_header("Connection", "close");
        let kept = Response::json("{\"i\":0}".into());
        for first in [closing, kept] {
            let (addr, server) = read_all_then_answer(3, vec![first]);
            let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(2));
            let reqs = [Request::get("/a"), Request::get("/b"), Request::get("/c")];
            let slots: Vec<_> = reqs.iter().zip(traced(3)).collect();
            let replies = client.exchange(&slots);
            server.join().unwrap();
            assert_eq!(replies[0].result.as_ref().unwrap().body_text(), "{\"i\":0}");
            for reply in &replies[1..] {
                match &reply.result {
                    Err(e @ NetError::Io(_)) => assert!(crate::backoff::transient(e)),
                    other => panic!("expected a retryable io error, got {other:?}"),
                }
            }
            assert_eq!(client.pool().idle_len(), 0, "a cut-short connection is never parked");
            assert_eq!(client.reconnects(), 0, "a fresh connection is never resent");
        }
    }

    #[test]
    fn stale_pooled_connection_resends_the_exchange_once_on_a_fresh_one() {
        let (mut server, _) = counting_server();
        let addr = server.addr();
        let mut client = HttpClient::new(addr);
        client.get("/park").unwrap();
        server.shutdown();
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        let handler: Arc<dyn Handler> = Arc::new(move |req: Request| {
            h2.fetch_add(1, Ordering::Relaxed);
            Response::json(format!("{{\"path\":\"{}\"}}", req.path))
        });
        let _server2 = HttpServer::bind(&addr.to_string(), 1, handler).unwrap();
        let reqs = [Request::get("/a"), Request::get("/b"), Request::get("/c")];
        let slots: Vec<_> = reqs.iter().zip(traced(3)).collect();
        let replies = client.exchange(&slots);
        for (reply, req) in replies.iter().zip(&reqs) {
            assert!(reply.result.as_ref().unwrap().body_text().contains(&req.path));
        }
        assert_eq!(client.reconnects(), 1, "one stale connection, one resend");
        assert_eq!(hits.load(Ordering::Relaxed), 3, "the fresh connection saw each request once");
    }

    #[test]
    fn connect_failure_is_io_error() {
        // Port 1 is essentially never listening.
        let mut client =
            HttpClient::new("127.0.0.1:1".parse().unwrap()).with_timeout(Duration::from_millis(200));
        assert!(matches!(client.get("/x"), Err(NetError::Io(_))));
    }
}
