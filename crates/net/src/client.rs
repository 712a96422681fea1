//! A blocking HTTP client with connection reuse — what the crawler uses to
//! talk to the emulated Steam Web API.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use steam_obs::{TraceContext, TRACE_HEADER};

use crate::error::NetError;
use crate::http::{read_response, write_request_with, Request, Response};
use crate::pool::{Conn, ConnectionPool};

/// Stale-pooled-connection retries allowed per request. With a shared pool
/// several parked connections can have gone stale at once (server restart),
/// so a couple of silent retries are allowed before the error surfaces.
const MAX_RECONNECTS_PER_REQUEST: u32 = 2;

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
/// capping attempts per request so a flapping server can never trap a
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

    fn send_on(
        conn: &mut Conn,
        req: &Request,
        trace: Option<(&str, &str)>,
    ) -> Result<Response, NetError> {
        write_request_with(&mut conn.writer, req, trace)?;
        read_response(&mut conn.reader)
    }

    /// Sends a request, reusing a pooled connection when possible. A stale
    /// pooled connection gets a transparent retry on another connection, at
    /// most [`MAX_RECONNECTS_PER_REQUEST`] times per request; failures on a
    /// freshly opened connection are real errors and propagate immediately.
    /// Healthy connections go back to the pool unless the response forbids
    /// reuse (`Connection: close`).
    pub fn send(&mut self, req: &Request) -> Result<Response, NetError> {
        // The trace header rides after the request's own headers; a request
        // that already carries one (caller-stamped) is sent untouched.
        let trace_value =
            self.trace.filter(|_| req.header(TRACE_HEADER).is_none()).map(|ctx| ctx.header_value());
        let trace = trace_value.as_deref().map(|v| (TRACE_HEADER, v));
        let mut reconnects_left = MAX_RECONNECTS_PER_REQUEST;
        loop {
            let (mut conn, pooled) = match self.pool.checkout(self.addr) {
                Some(conn) => (conn, true),
                None => (self.pool.connect(self.addr)?, false),
            };
            match Self::send_on(&mut conn, req, trace) {
                Ok(resp) => {
                    // The pool inspects the response's close intent itself;
                    // a `Connection: close` response is never parked.
                    self.pool.checkin(conn, &resp);
                    return Ok(resp);
                }
                Err(_stale) if pooled && reconnects_left > 0 => {
                    // Stale pooled connection — drop it and retry on another.
                    reconnects_left -= 1;
                    self.reconnects += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// GET a target; non-2xx statuses become [`NetError::Status`], carrying
    /// any `Retry-After` header the server sent. The hint is parsed as whole
    /// seconds and clamped to [`MAX_RETRY_AFTER`]; non-numeric forms (the
    /// HTTP-date variant) yield no hint — the retry itself is unaffected,
    /// the backoff schedule just falls back to its own delays.
    pub fn get(&mut self, target: &str) -> Result<Response, NetError> {
        let resp = self.send(&Request::get(target))?;
        if resp.is_success() {
            Ok(resp)
        } else {
            let retry_after = resp
                .header("retry-after")
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(|secs| Duration::from_secs(secs).min(MAX_RETRY_AFTER));
            Err(NetError::Status { code: resp.status, body: resp.body_text(), retry_after })
        }
    }
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

    #[test]
    fn connect_failure_is_io_error() {
        // Port 1 is essentially never listening.
        let mut client =
            HttpClient::new("127.0.0.1:1".parse().unwrap()).with_timeout(Duration::from_millis(200));
        assert!(matches!(client.get("/x"), Err(NetError::Io(_))));
    }
}
