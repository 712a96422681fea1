//! Per-connection request machinery shared by both server modes.
//!
//! The threaded server ([`server`](crate::server)) and the epoll reactor
//! ([`reactor`](crate::reactor)) must serve byte-identical responses for the
//! same request stream — `serve_bench` and the mode-parity suite assert it —
//! and must treat a slow, silent or pipelining peer alike. The only way to
//! guarantee that is to route both through one code path:
//!
//! * [`Session`] — one connection's protocol, whichever server drives it:
//!   the bytes received and not yet parsed, the responses encoded and not
//!   yet sent, a parked stall response, and the decisions to close or to
//!   answer 408. The two drivers differ only in how they wait for the
//!   socket: the reactor reads and writes nonblocking on readiness edges, a
//!   threaded worker blocks for at most
//!   [`POLL_SLICE`](crate::server::POLL_SLICE) per read, write or stall
//!   wait, so it sees shutdown within one slice.
//! * [`try_parse_request`] — incremental request parsing over a byte buffer,
//!   which distinguishes "not all bytes arrived yet" from "malformed"; it
//!   reuses the exact [`read_request`] parser over the buffered bytes.
//! * [`Dispatcher`] — everything that happens between a parsed request and
//!   the response it queues. An operational request (`/metrics`,
//!   `/healthz`, `/debug/*`) gets its answer from one helper and leaves
//!   through one exit. An app request has its trace extracted, the fault
//!   injector asked and the application handler called, and then its
//!   damage, stall delay, trace stamp and close intent decided, each once.
//!   A panicking handler answers 500 and the connection and server keep
//!   serving.
//!
//! ## Per-connection state machine
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!            v                                                │
//!  ┌──────────────────┐  header+body   ┌──────────┐  resp     │ keep-alive
//!  │ READ (accumulate │ ─────────────> │ DISPATCH │ ────────┐ │
//!  │ inbuf, try parse)│   complete     │          │         v │
//!  └──────────────────┘                └──────────┘   ┌───────────────┐
//!       │        │                          │ stall   │ WRITE (flush  │
//!       │ bad    │ idle                     v         │ outbuf queue) │
//!       v        v                     ┌─────────┐    └───────────────┘
//!   400+close  close (or 408+close  ──>│ STALLED │──deadline──^    │close
//!              if a request started)   └─────────┘                 v
//!                                                               CLOSED
//! ```
//!
//! Every complete request in `inbuf` is dispatched in order. Every response
//! the session sends (a dispatched one, the 400 for an unparsable request,
//! the idle rule's 408) goes through one queue method, which stamps its
//! close intent and encodes it onto the tail of `outbuf`, flushed as far as
//! the socket takes it. A `stall` fault parks the encoded response on a
//! deadline instead; later pipelined requests wait behind it, so responses
//! keep request order. A connection that goes
//! [`ServerConfig::idle_timeout`](crate::server::ServerConfig::idle_timeout)
//! without receiving request bytes or dispatching a request is answered 408
//! and closed if a request has started, and closed silently otherwise.
//!
//! ## Close intent
//!
//! A response that will be followed by the server closing the connection
//! always carries `Connection: close` ([`finalize_response`]). Before this,
//! the server could answer (a 400, say) and silently drop the socket — a
//! client connection pool would park that connection and find it dead on
//! the next checkout. Signaling intent on the wire lets
//! [`ConnectionPool::checkin`](crate::pool::ConnectionPool::checkin) refuse
//! half-closed connections instead of discovering them later.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use steam_obs::{
    next_span_id, now_us, obs_trace, record_span, Counter, Gauge, Histogram, Registry, SpanId,
    SpanKind, SpanRecord, TraceContext, TraceId, TRACE_HEADER,
};

use crate::error::NetError;
use crate::fault::{FaultInjector, FaultKind};
use crate::http::{
    encode_response, read_request, Request, Response, MAX_HEADER_BYTES, MAX_LINE_BYTES,
};
use crate::json::write_string;
use crate::server::{normalize_endpoint, Handler};

/// The server side of the observability layer: pre-registered instruments
/// plus the registry itself (for `/metrics`).
pub(crate) struct ServerObs {
    pub(crate) registry: Arc<Registry>,
    pub(crate) in_flight: Arc<Gauge>,
    pub(crate) connections: Arc<Counter>,
    pub(crate) handler_panics: Arc<Counter>,
}

impl ServerObs {
    pub(crate) fn new(registry: Arc<Registry>) -> Self {
        registry.describe(
            "http_requests_total",
            "HTTP requests served, by endpoint, method and status",
        );
        registry.describe(
            "http_request_duration_seconds",
            "Request handling latency, by endpoint",
        );
        registry.describe(
            "http_requests_in_flight",
            "Requests currently being handled",
        );
        registry.describe("http_connections_total", "TCP connections accepted");
        registry.describe(
            "http_handler_panics_total",
            "Requests whose handler panicked (answered 500)",
        );
        ServerObs {
            in_flight: registry.gauge("http_requests_in_flight", &[]),
            connections: registry.counter("http_connections_total", &[]),
            handler_panics: registry.counter("http_handler_panics_total", &[]),
            registry,
        }
    }
}

/// Per-connection cache of metric handles, so keep-alive request streams
/// touch only atomics after the first request to each series. (The
/// reactor keeps a single cache for all its connections — it is one
/// thread, so the map warms even faster.) It is looked up by `&str`, so a
/// request allocates here only on a series' first use.
#[derive(Default)]
pub(crate) struct ObsCache {
    endpoints: HashMap<String, EndpointObs>,
}

/// One endpoint's latency histogram and its request counters, a short list
/// keyed by method and status.
struct EndpointObs {
    latency: Arc<Histogram>,
    requests: Vec<(String, u16, Arc<Counter>)>,
}

impl ObsCache {
    pub(crate) fn record(
        &mut self,
        obs: &ServerObs,
        req_method: &str,
        endpoint: &str,
        status: u16,
        elapsed: Duration,
    ) {
        if !self.endpoints.contains_key(endpoint) {
            let latency = obs
                .registry
                .histogram("http_request_duration_seconds", &[("endpoint", endpoint)]);
            let series = EndpointObs {
                latency,
                requests: Vec::new(),
            };
            self.endpoints.insert(endpoint.to_string(), series);
        }
        let series = self.endpoints.get_mut(endpoint).expect("inserted above");
        series.latency.record_duration(elapsed);
        let requests = &mut series.requests;
        let known = requests
            .iter()
            .position(|(method, code, _)| method == req_method && *code == status);
        let i = known.unwrap_or_else(|| {
            let counter = obs.registry.counter(
                "http_requests_total",
                &[
                    ("endpoint", endpoint),
                    ("method", req_method),
                    ("status", &status.to_string()),
                ],
            );
            requests.push((req_method.to_string(), status, counter));
            requests.len() - 1
        });
        requests[i].2.inc();
        obs_trace!(
            "http",
            "{req_method} {endpoint} -> {status} in {:.3?}",
            elapsed
        );
    }
}

/// Lifecycle stage of a live connection, as exposed by `/debug/conns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum ConnState {
    Idle = 0,
    Reading = 1,
    Writing = 2,
    Stalled = 3,
}

impl ConnState {
    fn as_str(self) -> &'static str {
        match self {
            ConnState::Idle => "idle",
            ConnState::Reading => "reading",
            ConnState::Writing => "writing",
            ConnState::Stalled => "stalled",
        }
    }

    fn from_u8(v: u8) -> ConnState {
        match v {
            1 => ConnState::Reading,
            2 => ConnState::Writing,
            3 => ConnState::Stalled,
            _ => ConnState::Idle,
        }
    }
}

/// Live state of one connection, stored with relaxed atomic stores by its
/// [`Session`] (on the reactor thread or a worker thread) and read by
/// `/debug/conns` without coordination.
struct ConnStat {
    fd: i32,
    state: AtomicU8,
    last_activity_us: AtomicU64,
    inbuf: AtomicUsize,
    outbuf: AtomicUsize,
}

/// Registry of live connections behind `/debug/conns`, shared by both
/// server modes through the [`Dispatcher`]. The mutex is touched only on
/// accept, close, and introspection — never per request.
#[derive(Default)]
struct ConnTracker {
    conns: Mutex<HashMap<u64, Arc<ConnStat>>>,
    next: AtomicU64,
}

impl ConnTracker {
    fn register(&self, fd: i32) -> (u64, Arc<ConnStat>) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let stat = Arc::new(ConnStat {
            fd,
            state: AtomicU8::new(ConnState::Idle as u8),
            last_activity_us: AtomicU64::new(now_us()),
            inbuf: AtomicUsize::new(0),
            outbuf: AtomicUsize::new(0),
        });
        self.conns
            .lock()
            .expect("conn tracker poisoned")
            .insert(id, Arc::clone(&stat));
        (id, stat)
    }

    /// Called from `Session::drop`, which must not panic: a map poisoned by
    /// a panic elsewhere is still a valid map to remove from.
    fn deregister(&self, id: u64) {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    fn render_json(&self) -> String {
        let now = now_us();
        let mut entries: Vec<(u64, Arc<ConnStat>)> = {
            let conns = self.conns.lock().expect("conn tracker poisoned");
            conns
                .iter()
                .map(|(id, stat)| (*id, Arc::clone(stat)))
                .collect()
        };
        entries.sort_by_key(|(id, _)| *id);
        let mut body = String::with_capacity(entries.len() * 96 + 16);
        body.push_str("{\"conns\":[");
        for (i, (id, stat)) in entries.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let idle_us = now.saturating_sub(stat.last_activity_us.load(Ordering::Relaxed));
            use std::fmt::Write;
            let _ = write!(
                body,
                "{{\"id\":{},\"fd\":{},\"state\":\"{}\",\"idle_ms\":{},\"inbuf\":{},\"outbuf\":{}}}",
                id,
                stat.fd,
                ConnState::from_u8(stat.state.load(Ordering::Relaxed)).as_str(),
                idle_us / 1000,
                stat.inbuf.load(Ordering::Relaxed),
                stat.outbuf.load(Ordering::Relaxed),
            );
        }
        body.push_str("]}");
        body
    }
}

/// One step of incremental request parsing over accumulated bytes.
enum ParseStep {
    /// Not enough bytes yet; keep reading.
    Incomplete,
    /// A complete request; `consumed` bytes of the buffer belong to it.
    Request { req: Request, consumed: usize },
    /// The bytes can never become a valid request.
    Bad(NetError),
}

/// Attempts to parse one request from the front of `buf` without consuming
/// it. Parsing only runs once the full header block has arrived, so a
/// partial request line can never be misread as malformed; an incomplete
/// body (headers promise more `Content-Length` than has arrived) is
/// `Incomplete`, not an error. Delegates to [`read_request`] for the actual
/// parse — both server modes accept exactly the same byte streams.
fn try_parse_request(buf: &[u8]) -> ParseStep {
    if find_header_end(buf).is_none() {
        // A header block that exceeds the limits can never become valid.
        return if buf.len() > MAX_HEADER_BYTES + MAX_LINE_BYTES {
            ParseStep::Bad(NetError::Http("header block too large".into()))
        } else {
            ParseStep::Incomplete
        };
    }
    let mut cursor = std::io::Cursor::new(buf);
    match read_request(&mut cursor) {
        Ok(Some(req)) => ParseStep::Request {
            req,
            consumed: cursor.position() as usize,
        },
        Ok(None) => ParseStep::Incomplete,
        Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            // Headers are complete, the body is still in flight.
            ParseStep::Incomplete
        }
        Err(e) => ParseStep::Bad(e),
    }
}

/// Byte offset just past the header block's terminating empty line, if the
/// block is complete. Lines may end in `\r\n` or bare `\n` (the parser
/// accepts both), so the terminator is `\n\r\n` or `\n\n`: whichever
/// comes first, found in one forward scan that stops there. Bytes queued
/// behind the block (pipelined requests) are never looked at.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(p) = buf[from..].iter().position(|&b| b == b'\n') {
        let nl = from + p;
        match &buf[nl + 1..] {
            [b'\n', ..] => return Some(nl + 2),
            [b'\r', b'\n', ..] => return Some(nl + 3),
            _ => from = nl + 1,
        }
    }
    None
}

/// What the session should do with one parsed request.
enum Outcome {
    /// Write `resp` (after [`finalize_response`]); close afterwards if
    /// `close`. `truncate` damages the write on the wire (fault injection);
    /// `delay` postpones the write (`stall` fault): the session parks the
    /// encoded response until the delay has passed.
    Respond {
        resp: Response,
        close: bool,
        truncate: bool,
        delay: Option<Duration>,
    },
    /// Close the connection without writing anything (fault `drop`).
    Drop,
}

/// Stamps the server's close intent onto the response before it is
/// serialized: a connection the server will close must say so.
fn finalize_response(resp: &mut Response, close: bool) {
    if close && resp.header("connection").is_none() {
        resp.headers.push(("Connection".into(), "close".into()));
    }
}

/// Seed of the server-side trace-id mint. Fixed so two fresh servers fed
/// the same sequential request stream stamp identical ids — the cross-mode
/// byte-identity suites depend on it.
const SERVER_MINT_SEED: u64 = 0x5354_4541_4d73_7276;

/// The trace identity one request runs under on the server side: the trace
/// extracted from `X-Steam-Trace` (parent = the client's span), or a
/// server-minted root trace when the request carried none.
struct RequestTrace {
    trace: TraceId,
    parent: SpanId,
}

impl RequestTrace {
    /// Records the request's server span, whether it was handled, panicked
    /// or faulted, into the flight recorder. Span recording is not gated by
    /// the log level or the presence of a registry.
    fn record_span(
        &self,
        endpoint: &str,
        start_us: u64,
        duration_us: u64,
        status: u16,
        note: &str,
    ) {
        record_span(
            SpanRecord::new(
                self.trace,
                next_span_id(),
                self.parent,
                SpanKind::Server,
                "http",
                endpoint,
            )
            .with_timing(start_us, duration_us)
            .with_status(status)
            .with_annotation(note),
        );
    }
}

/// One span as a JSON object. Span targets, names and annotations may carry
/// request-path bytes, so they go through the JSON string writer.
fn span_json(out: &mut String, s: &SpanRecord) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\",\"kind\":\"{}\",\"target\":",
        s.trace.to_hex(),
        s.span.to_hex(),
        s.parent.to_hex(),
        s.kind.as_str(),
    );
    write_string(s.target, out);
    out.push_str(",\"name\":");
    write_string(s.name(), out);
    let _ = write!(
        out,
        ",\"start_us\":{},\"duration_us\":{},\"status\":{},\"annotation\":",
        s.start_us, s.duration_us, s.status,
    );
    write_string(s.annotation(), out);
    out.push('}');
}

fn spans_json(key: &str, spans: &[SpanRecord], filter: Option<TraceId>) -> String {
    let mut body = String::with_capacity(spans.len() * 192 + 16);
    body.push_str("{\"");
    body.push_str(key);
    body.push_str("\":[");
    let mut first = true;
    for span in spans {
        if filter.is_some_and(|f| span.trace != f) {
            continue;
        }
        if !first {
            body.push(',');
        }
        first = false;
        span_json(&mut body, span);
    }
    body.push_str("]}");
    body
}

/// Everything between a parsed request and its response, shared verbatim by
/// the threaded server and the epoll reactor: operational endpoints, fault
/// injection, metrics, tracing, the application handler, close intent.
pub(crate) struct Dispatcher {
    handler: Arc<dyn Handler>,
    obs: Option<Arc<ServerObs>>,
    faults: Option<Arc<FaultInjector>>,
    /// Counter behind the deterministic mint for traceless requests.
    mint: AtomicU64,
    conns: ConnTracker,
}

impl Dispatcher {
    pub(crate) fn new(
        handler: Arc<dyn Handler>,
        obs: Option<Arc<ServerObs>>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        Dispatcher {
            handler,
            obs,
            faults,
            mint: AtomicU64::new(0),
            conns: ConnTracker::default(),
        }
    }

    pub(crate) fn obs(&self) -> Option<&Arc<ServerObs>> {
        self.obs.as_ref()
    }

    fn extract_trace(&self, req: &Request) -> RequestTrace {
        match req.header(TRACE_HEADER).and_then(TraceContext::parse) {
            Some(ctx) => RequestTrace {
                trace: ctx.trace,
                parent: ctx.span,
            },
            None => RequestTrace {
                trace: TraceId::mint_seeded(
                    SERVER_MINT_SEED,
                    self.mint.fetch_add(1, Ordering::Relaxed),
                ),
                parent: SpanId(0),
            },
        }
    }

    /// Decides the response (or lack of one) for a single request. An app
    /// request's trace, fault, handler call, damage, stall, trace stamp and
    /// close intent are each decided once, in that order.
    fn dispatch(&self, req: Request, cache: &mut ObsCache) -> Outcome {
        let keep_alive = req.keep_alive();
        // Operational endpoints (`/metrics`, `/healthz`, `/debug/*`) are
        // never faulted, throttled, traced, or counted: the instruments
        // watching a drill must not be blinded by it, and polling the
        // introspection endpoints must not pollute what they expose.
        if req.method == "GET"
            && (req.path == "/metrics" || req.path == "/healthz" || req.path.starts_with("/debug/"))
        {
            let resp = self.operational(req);
            let close = !keep_alive || !resp.keep_alive();
            return Outcome::Respond {
                resp,
                close,
                truncate: false,
                delay: None,
            };
        }
        // Every app request runs under a trace: extracted from the wire, or
        // minted deterministically so both server modes stamp identical ids
        // on identical request streams.
        let trace = self.extract_trace(&req);
        let endpoint = normalize_endpoint(&req.path);
        let (fault, stall) = match self.faults.as_deref() {
            Some(inj) => (inj.decide(&req.path), inj.stall_duration()),
            None => (None, Duration::ZERO),
        };
        let mut resp = match fault {
            Some(FaultKind::Drop) => {
                trace.record_span(&endpoint, now_us(), 0, 0, "fault=drop");
                return Outcome::Drop;
            }
            Some(k @ (FaultKind::Status500 | FaultKind::Status503)) => {
                let status = if k == FaultKind::Status500 { 500 } else { 503 };
                if let Some(obs) = &self.obs {
                    cache.record(obs, &req.method, &endpoint, status, Duration::ZERO);
                }
                trace.record_span(&endpoint, now_us(), 0, status, "fault=status");
                Response::error(status, "injected fault")
            }
            // Truncate and corrupt damage the real response on the wire;
            // stall delays it.
            _ => self.handle_app(req, &endpoint, cache, &trace),
        };
        if fault == Some(FaultKind::Corrupt) {
            match resp.body.first_mut() {
                Some(b) => *b = b'#',
                None => resp.body.push(b'#'),
            }
        }
        // A truncated body will not honor its `Content-Length`; the only
        // coherent next step is closing the connection.
        let truncate = fault == Some(FaultKind::Truncate);
        let delay = (fault == Some(FaultKind::Stall)).then_some(stall);
        // Echo the trace id so a client can join its span to the server's
        // without parsing `/debug/spans`.
        resp.headers
            .push((TRACE_HEADER.into(), trace.trace.to_hex()));
        let close = truncate || !keep_alive || !resp.keep_alive();
        Outcome::Respond {
            resp,
            close,
            truncate,
            delay,
        }
    }

    /// The answer to an operational request. It comes before the
    /// application handler, so it is never subject to app-level rate
    /// limiting. The flight recorder is process-global, so
    /// `/debug/spans|slow|conns` answer whether or not a registry is
    /// attached — both modes identically.
    fn operational(&self, req: Request) -> Response {
        match (req.path.as_str(), &self.obs) {
            // A malformed id is refused: answering with the whole ring
            // would read like a match.
            ("/debug/spans", _) => match req.query_param("trace").map(TraceId::from_hex) {
                Some(None) => Response::error(400, "trace must be 16 hex digits"),
                filter => Response::json(spans_json(
                    "spans",
                    &steam_obs::recent_spans(),
                    filter.flatten(),
                )),
            },
            ("/debug/slow", _) => {
                Response::json(spans_json("slow", &steam_obs::slowest_spans(), None))
            }
            ("/debug/conns", _) => Response::json(self.conns.render_json()),
            ("/metrics", Some(obs)) => {
                // Refresh the process-wide peak-RSS gauge at scrape time
                // (kernel `VmHWM`; absent off Linux).
                if let Some(peak) = steam_obs::peak_rss_bytes() {
                    obs.registry.gauge("peak_rss_bytes", &[]).set(peak as i64);
                }
                Response::text(obs.registry.render_prometheus())
            }
            ("/healthz", Some(_)) => Response::text("ok\n".into()),
            // Remaining operational paths belong to the application layer
            // (e.g. the API service's `/debug/cache` and `/debug/limiter`):
            // still uninstrumented, untraced, and unstamped.
            _ => self.call_handler(req).unwrap_or_else(panic_response),
        }
    }

    /// The application handler's response, or `None` if it panicked. The
    /// panic is counted in `http_handler_panics_total`; it unwinds no
    /// further, so neither the connection nor the reactor thread dies.
    fn call_handler(&self, req: Request) -> Option<Response> {
        let resp = catch_unwind(AssertUnwindSafe(|| self.handler.handle(req))).ok();
        if let (None, Some(obs)) = (&resp, &self.obs) {
            obs.handler_panics.inc();
        }
        resp
    }

    /// Runs the application handler, instrumented when observed, and records
    /// its server span. A panicking handler answers 500, and its span is
    /// annotated `panic`.
    fn handle_app(
        &self,
        req: Request,
        endpoint: &str,
        cache: &mut ObsCache,
        trace: &RequestTrace,
    ) -> Response {
        let method = req.method.clone();
        if let Some(obs) = &self.obs {
            obs.in_flight.inc();
        }
        let start = Instant::now();
        let start_us = now_us();
        let handled = self.call_handler(req);
        let elapsed = start.elapsed();
        let note = if handled.is_some() { "" } else { "panic" };
        let resp = handled.unwrap_or_else(panic_response);
        if let Some(obs) = &self.obs {
            obs.in_flight.dec();
            cache.record(obs, &method, endpoint, resp.status, elapsed);
        }
        let duration_us = elapsed.as_micros() as u64;
        trace.record_span(endpoint, start_us, duration_us, resp.status, note);
        resp
    }
}

/// What a request whose handler panicked answers.
fn panic_response() -> Response {
    Response::error(500, "handler panicked")
}

/// One connection's protocol state, driven by the reactor or by a threaded
/// worker (module docs). The driver decides when to read, the session does
/// everything else: it parses, dispatches, encodes, parks a stall response,
/// applies the idle rule and decides when the connection closes.
///
/// A session is registered in `/debug/conns` from [`new`](Self::new) until
/// it is dropped, and mirrors its state there after every
/// [`advance`](Self::advance).
pub(crate) struct Session {
    stream: TcpStream,
    dispatcher: Arc<Dispatcher>,
    /// Accumulated unparsed request bytes.
    inbuf: Vec<u8>,
    /// Serialized responses not yet written; `written` bytes already sent.
    outbuf: Vec<u8>,
    written: usize,
    /// Close once `outbuf` drains (close intent already on the wire).
    close_after_flush: bool,
    /// The peer closed its write side; serve what is buffered, then close.
    peer_eof: bool,
    /// A stall-fault response parked until its deadline, with its close
    /// intent.
    stalled: Option<(Instant, Vec<u8>, bool)>,
    /// When request bytes last arrived or a request was last dispatched.
    last_activity: Instant,
    /// Registration in the dispatcher's `/debug/conns` tracker.
    track_id: u64,
    stat: Arc<ConnStat>,
}

/// A read or write that found the socket not ready: `WouldBlock` from a
/// nonblocking socket, or a read or write timeout (`WouldBlock` on Unix,
/// `TimedOut` elsewhere).
fn not_ready(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

impl Session {
    /// Adopts an accepted connection: counts it in `http_connections_total`
    /// and registers it in `/debug/conns`.
    pub(crate) fn new(stream: TcpStream, dispatcher: Arc<Dispatcher>) -> Session {
        #[cfg(unix)]
        let fd = std::os::fd::AsRawFd::as_raw_fd(&stream);
        #[cfg(not(unix))]
        let fd = -1;
        if let Some(obs) = dispatcher.obs() {
            obs.connections.inc();
        }
        let (track_id, stat) = dispatcher.conns.register(fd);
        Session {
            stream,
            dispatcher,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            written: 0,
            close_after_flush: false,
            peer_eof: false,
            stalled: None,
            last_activity: Instant::now(),
            track_id,
            stat,
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads what the peer sent: one read, or, when `drain`, reads until the
    /// socket has nothing more. A read that finds the socket not ready ends
    /// the call. Returns `false` when the socket is broken.
    pub(crate) fn receive(&mut self, drain: bool) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    return true;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    if !drain {
                        return true;
                    }
                }
                Err(ref e) if not_ready(e) => return true,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Dispatches every complete request received, writes as much of
    /// `outbuf` as the socket takes, and says whether the connection stays
    /// open.
    pub(crate) fn advance(&mut self, cache: &mut ObsCache) -> bool {
        self.process(cache);
        if !self.flush() {
            return false;
        }
        // Everything written: close if a response said so, or if the peer
        // finished sending and no stalled response is still to come.
        if !self.sending() && (self.close_after_flush || self.peer_eof && self.stalled.is_none()) {
            return false;
        }
        self.sync_stat();
        true
    }

    /// Whether some of `outbuf` is still unsent.
    pub(crate) fn sending(&self) -> bool {
        self.written < self.outbuf.len()
    }

    /// When the parked stall response is due, if one is parked.
    pub(crate) fn stalled_until(&self) -> Option<Instant> {
        self.stalled.as_ref().map(|(deadline, _, _)| *deadline)
    }

    /// Queues the parked stall response if its deadline has passed, and
    /// says whether it did; the next [`advance`](Self::advance) sends it and
    /// goes on with the requests pipelined behind it.
    pub(crate) fn release_stall(&mut self, now: Instant) -> bool {
        if self.stalled_until().is_none_or(|deadline| deadline > now) {
            return false;
        }
        let (_, wire, close) = self.stalled.take().expect("checked above");
        self.outbuf.extend_from_slice(&wire);
        self.close_after_flush |= close;
        true
    }

    /// Whether `timeout` has passed without request bytes arriving or a
    /// request being dispatched. A parked stall response is never idle.
    pub(crate) fn idle(&self, now: Instant, timeout: Duration) -> bool {
        self.stalled.is_none() && now.duration_since(self.last_activity) >= timeout
    }

    /// The idle rule, for a connection that has been [`idle`](Self::idle)
    /// too long. A request that has started is answered 408, and the
    /// connection stays open only to send it; a connection between requests,
    /// or one already closing that had a full idle period to flush, closes
    /// at once. Returns whether the connection stays open.
    pub(crate) fn time_out(&mut self) -> bool {
        if self.close_after_flush || self.inbuf.is_empty() {
            return false;
        }
        self.queue(
            Response::error(408, "request read timed out"),
            true,
            false,
            None,
        );
        true
    }

    /// Queues one response: stamps its close intent, then encodes it onto
    /// `outbuf`, or, with a `delay` (a `stall` fault), parks it encoded
    /// until the delay has passed. Every response the session sends goes
    /// through here. `truncate` damages the encoding (a `truncate` fault).
    fn queue(&mut self, mut resp: Response, close: bool, truncate: bool, delay: Option<Duration>) {
        finalize_response(&mut resp, close);
        match delay {
            Some(d) => {
                let mut wire = Vec::new();
                encode_response(&mut wire, &resp, truncate);
                self.stalled = Some((Instant::now() + d, wire, close));
            }
            None => {
                encode_response(&mut self.outbuf, &resp, truncate);
                self.close_after_flush |= close;
            }
        }
    }

    /// Parses and dispatches every complete request in `inbuf`, in order.
    /// Stops at a stalled response (ordering: later pipelined responses
    /// must not overtake it) or once the connection is closing. Each
    /// request is parsed where it starts in `inbuf`, and the consumed
    /// prefix is drained once at the end, so a call costs time linear in
    /// the bytes it consumes, however many requests are queued.
    fn process(&mut self, cache: &mut ObsCache) {
        let mut start = 0;
        while self.stalled.is_none() && !self.close_after_flush {
            match try_parse_request(&self.inbuf[start..]) {
                ParseStep::Incomplete => break,
                ParseStep::Bad(e) => {
                    self.queue(Response::error(400, &e.to_string()), true, false, None)
                }
                ParseStep::Request { req, consumed } => {
                    start += consumed;
                    self.last_activity = Instant::now();
                    match self.dispatcher.dispatch(req, cache) {
                        // Close without answering; earlier pipelined
                        // responses still flush first.
                        Outcome::Drop => self.close_after_flush = true,
                        Outcome::Respond {
                            resp,
                            close,
                            truncate,
                            delay,
                        } => self.queue(resp, close, truncate, delay),
                    }
                }
            }
        }
        self.inbuf.drain(..start);
    }

    /// Writes `outbuf` until it is empty or the socket takes no more for
    /// now. `written` tracks the offset across calls, so a write cut short
    /// by a timeout loses nothing. Returns `false` when the socket is broken.
    fn flush(&mut self) -> bool {
        while self.written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(ref e) if not_ready(e) => return true,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.outbuf.clear();
        self.written = 0;
        true
    }

    /// Mirrors the connection's state into its `/debug/conns` entry.
    fn sync_stat(&self) {
        let state = if self.stalled.is_some() {
            ConnState::Stalled
        } else if self.sending() {
            ConnState::Writing
        } else if !self.inbuf.is_empty() {
            ConnState::Reading
        } else {
            ConnState::Idle
        };
        let stat = &self.stat;
        stat.state.store(state as u8, Ordering::Relaxed);
        stat.inbuf.store(self.inbuf.len(), Ordering::Relaxed);
        stat.outbuf
            .store(self.outbuf.len() - self.written, Ordering::Relaxed);
        let idle_us = self.last_activity.elapsed().as_micros() as u64;
        stat.last_activity_us
            .store(now_us().saturating_sub(idle_us), Ordering::Relaxed);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.dispatcher.conns.deregister(self.track_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request};
    use std::io::Cursor;

    fn wire(req: &Request) -> Vec<u8> {
        let mut buf = Vec::new();
        write_request(&mut buf, req).unwrap();
        buf
    }

    #[test]
    fn obs_cache_keeps_one_series_per_endpoint_method_and_status() {
        let registry = Arc::new(Registry::new());
        let obs = ServerObs::new(Arc::clone(&registry));
        let mut cache = ObsCache::default();
        let ms = Duration::from_millis(1);
        for (method, endpoint, status) in [
            ("GET", "/a", 200),
            ("GET", "/a", 200),
            ("GET", "/a", 404),
            ("POST", "/a", 200),
            ("GET", "/b", 200),
        ] {
            cache.record(&obs, method, endpoint, status, ms);
        }
        let count = |endpoint, method, status| {
            let labels = [
                ("endpoint", endpoint),
                ("method", method),
                ("status", status),
            ];
            registry.counter("http_requests_total", &labels).get()
        };
        assert_eq!(count("/a", "GET", "200"), 2);
        assert_eq!(count("/a", "GET", "404"), 1);
        assert_eq!(count("/a", "POST", "200"), 1);
        assert_eq!(count("/b", "GET", "200"), 1);
        let latency = |endpoint| {
            let labels = [("endpoint", endpoint)];
            registry
                .histogram("http_request_duration_seconds", &labels)
                .count()
        };
        assert_eq!((latency("/a"), latency("/b")), (4, 1));
        assert_eq!(cache.endpoints.len(), 2);
        assert_eq!(cache.endpoints["/a"].requests.len(), 3);
    }

    #[test]
    fn span_strings_round_trip_through_the_json_writer() {
        // Targets, names and annotations may carry request-path bytes: every
        // character JSON must escape reads back unchanged.
        const AWKWARD: &str = "q\"b\\s\nc\u{1}";
        let span = SpanRecord::new(
            TraceId(1),
            SpanId(2),
            SpanId(0),
            SpanKind::Server,
            AWKWARD,
            AWKWARD,
        )
        .with_annotation(AWKWARD);
        let body = spans_json("spans", &[span], None);
        let json = crate::json::Json::parse(&body).expect("span body must be valid JSON");
        let spans = json
            .get("spans")
            .and_then(|v| v.as_arr())
            .expect("span array");
        for field in ["target", "name", "annotation"] {
            assert_eq!(
                spans[0].get(field).and_then(|v| v.as_str()),
                Some(AWKWARD),
                "{body}"
            );
        }
    }

    #[test]
    fn parses_complete_request_and_reports_consumed() {
        let bytes = wire(&Request::get("/a/b?x=1"));
        match try_parse_request(&bytes) {
            ParseStep::Request { req, consumed } => {
                assert_eq!(req.path, "/a/b");
                assert_eq!(consumed, bytes.len());
            }
            _ => panic!("expected a complete request"),
        }
    }

    #[test]
    fn every_prefix_is_incomplete_never_malformed() {
        // Byte-at-a-time arrival: no prefix of a valid request may parse as
        // malformed — the reactor would 400 a client mid-send.
        let mut req = Request::get("/ISteamUser/GetPlayerSummaries/v2?steamids=1,2,3");
        req.method = "POST".into();
        req.body = b"hello body".to_vec();
        let bytes = wire(&req);
        for cut in 0..bytes.len() {
            match try_parse_request(&bytes[..cut]) {
                ParseStep::Incomplete => {}
                ParseStep::Request { .. } => panic!("complete at {cut}/{}", bytes.len()),
                ParseStep::Bad(e) => panic!("malformed at {cut}: {e}"),
            }
        }
        assert!(matches!(
            try_parse_request(&bytes),
            ParseStep::Request { .. }
        ));
    }

    /// The bytes the mutation suite writes over each input byte: the
    /// framing characters, a length digit, and bytes UTF-8 rejects.
    const SUBSTITUTES: [u8; 7] = [0x00, b'\r', b'\n', b':', b' ', b'9', 0xff];

    /// Every single-byte change of `input` (each byte set to each of
    /// `SUBSTITUTES`), then every proper prefix, flagged `true`.
    fn mutations(input: &[u8]) -> impl Iterator<Item = (bool, Vec<u8>)> + '_ {
        let changes = (0..input.len()).flat_map(move |at| {
            SUBSTITUTES.iter().map(move |&byte| {
                let mut changed = input.to_vec();
                changed[at] = byte;
                (false, changed)
            })
        });
        changes.chain((0..input.len()).map(move |len| (true, input[..len].to_vec())))
    }

    /// The only errors a parser may return for bad bytes.
    fn is_parse_error(e: &NetError) -> bool {
        matches!(e, NetError::Http(_) | NetError::Io(_))
    }

    #[test]
    fn mutated_requests_parse_or_fail_typed_in_both_parsers() {
        let get =
            &b"GET /ISteamUser/GetFriendList/v1?steamid=76561197960265729&relationship=friend \
            HTTP/1.1\r\nHost: localhost\r\n\r\n"[..];
        let post = &b"POST /IPlayerService/GetOwnedGames/v1 HTTP/1.1\r\nHost: localhost\r\n\
            Content-Length: 11\r\n\r\nsteamid=123"[..];
        for input in [get, post] {
            assert!(matches!(read_request(&mut Cursor::new(input)), Ok(Some(_))));
            for (_, bytes) in mutations(input) {
                let shown = String::from_utf8_lossy(&bytes);
                if let Err(e) = read_request(&mut Cursor::new(&bytes)) {
                    assert!(is_parse_error(&e), "{e:?} for {shown:?}");
                }
                match try_parse_request(&bytes) {
                    ParseStep::Request { consumed, .. } => {
                        assert!(consumed <= bytes.len(), "consumed {consumed} of {shown:?}")
                    }
                    ParseStep::Bad(e) => assert!(is_parse_error(&e), "{e:?} for {shown:?}"),
                    ParseStep::Incomplete => {}
                }
            }
        }
    }

    #[test]
    fn mutated_responses_fail_typed_and_every_prefix_fails() {
        let response = &b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
            Content-Length: 13\r\n\r\n{\"games\":[1]}"[..];
        assert_eq!(
            read_response(&mut Cursor::new(response)).unwrap().body,
            b"{\"games\":[1]}"
        );
        for (prefix, bytes) in mutations(response) {
            let shown = String::from_utf8_lossy(&bytes);
            match read_response(&mut Cursor::new(&bytes)) {
                Ok(_) => assert!(!prefix, "proper prefix {shown:?} parsed"),
                Err(e) => assert!(is_parse_error(&e), "{e:?} for {shown:?}"),
            }
        }
    }

    #[test]
    fn pipelined_requests_consume_one_at_a_time() {
        let mut bytes = wire(&Request::get("/first"));
        let first_len = bytes.len();
        bytes.extend_from_slice(&wire(&Request::get("/second")));
        match try_parse_request(&bytes) {
            ParseStep::Request { req, consumed } => {
                assert_eq!(req.path, "/first");
                assert_eq!(consumed, first_len);
                match try_parse_request(&bytes[consumed..]) {
                    ParseStep::Request { req, .. } => assert_eq!(req.path, "/second"),
                    _ => panic!("second request should parse"),
                }
            }
            _ => panic!("first request should parse"),
        }
    }

    #[test]
    fn malformed_request_is_bad_once_headers_complete() {
        assert!(matches!(
            try_parse_request(b"NOT A REQUEST\r\n\r\n"),
            ParseStep::Bad(NetError::Http(_))
        ));
        // LF-only framing is accepted by the parser, so it must complete
        // here too.
        assert!(matches!(
            try_parse_request(b"GET / HTTP/1.1\n\n"),
            ParseStep::Request { .. }
        ));
    }

    #[test]
    fn header_end_is_the_first_terminator_of_either_kind() {
        let crlf_then_lf = b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\n\n";
        assert_eq!(find_header_end(crlf_then_lf), Some(28));
        let lf_then_crlf = b"GET /a HTTP/1.1\nHost: x\n\nGET /b HTTP/1.1\r\n\r\n";
        assert_eq!(find_header_end(lf_then_crlf), Some(25));
        // Mixed inside one block: a bare-LF line, then a CRLF blank line.
        assert_eq!(
            find_header_end(b"GET / HTTP/1.1\nHost: x\n\r\nrest"),
            Some(25)
        );
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\n"), Some(17));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\nHost: x\r\n\r"), None);
        assert_eq!(find_header_end(b"\n"), None);
    }

    #[test]
    fn unterminated_garbage_eventually_rejected() {
        // No header terminator, ever: must flip to Bad once past the limit
        // instead of buffering unboundedly.
        let junk = vec![b'a'; MAX_HEADER_BYTES + MAX_LINE_BYTES + 1];
        assert!(matches!(try_parse_request(&junk), ParseStep::Bad(_)));
        assert!(matches!(
            try_parse_request(&junk[..64]),
            ParseStep::Incomplete
        ));
    }

    /// What `dispatch` decided for one request; `None` is a drop.
    #[derive(Debug, PartialEq)]
    struct Decision {
        status: u16,
        close: bool,
        truncate: bool,
        delay: Option<Duration>,
        trace: Option<String>,
        first_byte: Option<u8>,
    }

    fn decide(dispatcher: &Dispatcher, req: Request) -> Option<Decision> {
        match dispatcher.dispatch(req, &mut ObsCache::default()) {
            Outcome::Drop => None,
            Outcome::Respond {
                resp,
                close,
                truncate,
                delay,
            } => Some(Decision {
                status: resp.status,
                close,
                truncate,
                delay,
                trace: resp.header(TRACE_HEADER).map(str::to_string),
                first_byte: resp.body.first().copied(),
            }),
        }
    }

    #[test]
    fn dispatch_decides_every_fault_for_every_request_form() {
        use crate::fault::FaultPlan;
        use crate::http::Version;
        const APP: &str = "/ISteamApps/GetAppList/v2";
        let handler: Arc<dyn Handler> =
            Arc::new(|_req: Request| Response::json("{\"ok\":true}".into()));
        let client = TraceContext {
            trace: TraceId(0xabc),
            span: SpanId(7),
        };
        // Each request form: its name, how a request takes that form, and
        // whether it asks to keep the connection open.
        type Shape = fn(&mut Request);
        let forms: [(&str, Shape, bool); 3] = [
            ("HTTP/1.1 keep-alive", |_| {}, true),
            (
                "HTTP/1.1 Connection: close",
                |r| r.headers.push(("Connection".into(), "close".into())),
                false,
            ),
            ("HTTP/1.0", |r| r.version = Version::Http10, false),
        ];
        // What an app request should get under a fault kind (`None`: no
        // fault); a drop decides `None`.
        let expect = |kind: Option<FaultKind>, keep_alive: bool, trace: String| {
            let ok = Decision {
                status: 200,
                close: !keep_alive,
                truncate: false,
                delay: None,
                trace: Some(trace),
                first_byte: Some(b'{'),
            };
            let injected = Some(b'i');
            match kind {
                None => Some(ok),
                Some(FaultKind::Drop) => None,
                Some(FaultKind::Status500) => Some(Decision {
                    status: 500,
                    first_byte: injected,
                    ..ok
                }),
                Some(FaultKind::Status503) => Some(Decision {
                    status: 503,
                    first_byte: injected,
                    ..ok
                }),
                Some(FaultKind::Truncate) => Some(Decision {
                    close: true,
                    truncate: true,
                    ..ok
                }),
                Some(FaultKind::Corrupt) => Some(Decision {
                    first_byte: Some(b'#'),
                    ..ok
                }),
                Some(FaultKind::Stall) => Some(Decision {
                    delay: Some(Duration::from_millis(25)),
                    ..ok
                }),
            }
        };
        for kind in std::iter::once(None).chain(FaultKind::ALL.map(Some)) {
            for (form, shape, keep_alive) in forms {
                let faults = kind.map(|k| {
                    let plan = FaultPlan::parse(&format!("{}=1.0", k.label()), 1).unwrap();
                    Arc::new(FaultInjector::new(plan, None))
                });
                let registry = Arc::new(Registry::new());
                let obs = Arc::new(ServerObs::new(Arc::clone(&registry)));
                let dispatcher = Dispatcher::new(Arc::clone(&handler), Some(obs), faults);
                let request = |target: &str| {
                    let mut req = Request::get(target);
                    shape(&mut req);
                    req
                };
                let case = format!("{form}, fault {kind:?}");
                // Operational endpoints are never faulted or stamped, and
                // they take no id from the mint.
                for (target, first) in [("/healthz", b'o'), ("/debug/conns", b'{')] {
                    let operational = Decision {
                        status: 200,
                        close: !keep_alive,
                        truncate: false,
                        delay: None,
                        trace: None,
                        first_byte: Some(first),
                    };
                    assert_eq!(
                        decide(&dispatcher, request(target)),
                        Some(operational),
                        "{case}: {target}"
                    );
                }
                let minted = TraceId::mint_seeded(SERVER_MINT_SEED, 0).to_hex();
                assert_eq!(
                    decide(&dispatcher, request(APP)),
                    expect(kind, keep_alive, minted),
                    "{case}: traceless"
                );
                let mut traced = request(APP);
                traced
                    .headers
                    .push((TRACE_HEADER.into(), client.header_value()));
                assert_eq!(
                    decide(&dispatcher, traced),
                    expect(kind, keep_alive, client.trace.to_hex()),
                    "{case}: traced"
                );
                // A status fault is counted under its status; a drop is not
                // counted at all.
                let counted = match kind {
                    Some(FaultKind::Drop) => None,
                    Some(FaultKind::Status500) => Some("500"),
                    Some(FaultKind::Status503) => Some("503"),
                    _ => Some("200"),
                };
                let text = registry.render_prometheus();
                let line = counted.map(|status| {
                    format!(
                        "http_requests_total{{endpoint=\"{APP}\",method=\"GET\",status=\"{status}\"}} 2"
                    )
                });
                assert_eq!(
                    text.lines().find(|l| l.starts_with("http_requests_total{")),
                    line.as_deref(),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn close_intent_is_stamped_once() {
        let mut resp = Response::json("{}".into());
        finalize_response(&mut resp, true);
        assert_eq!(resp.header("connection"), Some("close"));
        assert!(!resp.keep_alive());
        // Already-present headers are not duplicated.
        let mut resp = Response::json("{}".into()).with_header("Connection", "close");
        finalize_response(&mut resp, true);
        assert_eq!(
            resp.headers
                .iter()
                .filter(|(k, _)| k == "Connection")
                .count(),
            1
        );
        // No close intent, no header.
        let mut resp = Response::json("{}".into());
        finalize_response(&mut resp, false);
        assert_eq!(resp.header("connection"), None);
    }
}
