//! Per-connection request machinery shared by both server modes.
//!
//! The threaded server ([`server`](crate::server)) and the epoll reactor
//! ([`reactor`](crate::reactor)) must serve byte-identical responses for the
//! same request stream — `serve_bench` and the mode-parity suite assert it.
//! The only way to guarantee that is to route both through one code path:
//!
//! * [`try_parse_request`] — incremental request parsing over a byte buffer
//!   (the reactor accumulates nonblocking reads and needs to distinguish
//!   "not all bytes arrived yet" from "malformed"); it reuses the exact
//!   [`read_request`] parser over the buffered bytes, so the two modes
//!   cannot disagree on what constitutes a valid request.
//! * [`Dispatcher`] — everything that happens between a parsed request and
//!   the serialized response: operational endpoints (`/metrics`,
//!   `/healthz`), fault injection, per-endpoint metrics, the application
//!   handler, and the close-intent decision. A panicking handler answers
//!   500 and the connection and server keep serving.
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use steam_obs::{
    next_span_id, now_us, obs_trace, record_span, Counter, Gauge, Histogram, Registry, SpanId,
    SpanKind, SpanRecord, TraceContext, TraceId, TRACE_HEADER,
};

use crate::error::NetError;
use crate::fault::{FaultInjector, FaultKind};
use crate::http::{read_request, Request, Response, MAX_HEADER_BYTES, MAX_LINE_BYTES};
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
        registry
            .describe("http_request_duration_seconds", "Request handling latency, by endpoint");
        registry.describe("http_requests_in_flight", "Requests currently being handled");
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
/// touch only atomics after the first request to each endpoint. (The
/// reactor keeps a single cache for all its connections — it is one
/// thread, so the map warms even faster.)
#[derive(Default)]
pub(crate) struct ObsCache {
    latency: HashMap<String, Arc<Histogram>>,
    requests: HashMap<(String, String, u16), Arc<Counter>>,
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
        self.latency
            .entry(endpoint.to_string())
            .or_insert_with(|| {
                obs.registry.histogram("http_request_duration_seconds", &[("endpoint", endpoint)])
            })
            .record_duration(elapsed);
        self.requests
            .entry((endpoint.to_string(), req_method.to_string(), status))
            .or_insert_with(|| {
                obs.registry.counter(
                    "http_requests_total",
                    &[
                        ("endpoint", endpoint),
                        ("method", req_method),
                        ("status", &status.to_string()),
                    ],
                )
            })
            .inc();
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
pub(crate) enum ConnState {
    Idle = 0,
    Reading = 1,
    Dispatching = 2,
    Writing = 3,
    Stalled = 4,
}

impl ConnState {
    fn as_str(self) -> &'static str {
        match self {
            ConnState::Idle => "idle",
            ConnState::Reading => "reading",
            ConnState::Dispatching => "dispatching",
            ConnState::Writing => "writing",
            ConnState::Stalled => "stalled",
        }
    }

    fn from_u8(v: u8) -> ConnState {
        match v {
            1 => ConnState::Reading,
            2 => ConnState::Dispatching,
            3 => ConnState::Writing,
            4 => ConnState::Stalled,
            _ => ConnState::Idle,
        }
    }
}

/// Live state of one connection, updated with relaxed atomic stores by the
/// owning driver (reactor thread or worker thread) and read by
/// `/debug/conns` without coordination.
pub(crate) struct ConnStat {
    fd: i32,
    state: AtomicU8,
    last_activity_us: AtomicU64,
    inbuf: AtomicUsize,
    outbuf: AtomicUsize,
}

impl ConnStat {
    pub(crate) fn set_state(&self, state: ConnState) {
        self.state.store(state as u8, Ordering::Relaxed);
    }

    pub(crate) fn touch(&self) {
        self.last_activity_us.store(now_us(), Ordering::Relaxed);
    }

    pub(crate) fn set_last_activity(&self, us: u64) {
        self.last_activity_us.store(us, Ordering::Relaxed);
    }

    pub(crate) fn set_buffers(&self, inbuf: usize, outbuf: usize) {
        self.inbuf.store(inbuf, Ordering::Relaxed);
        self.outbuf.store(outbuf, Ordering::Relaxed);
    }
}

/// Registry of live connections behind `/debug/conns`, shared by both
/// server modes through the [`Dispatcher`]. The mutex is touched only on
/// accept, close, and introspection — never per request.
#[derive(Default)]
pub(crate) struct ConnTracker {
    conns: Mutex<HashMap<u64, Arc<ConnStat>>>,
    next: AtomicU64,
}

impl ConnTracker {
    pub(crate) fn register(&self, fd: i32) -> (u64, Arc<ConnStat>) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let stat = Arc::new(ConnStat {
            fd,
            state: AtomicU8::new(ConnState::Idle as u8),
            last_activity_us: AtomicU64::new(now_us()),
            inbuf: AtomicUsize::new(0),
            outbuf: AtomicUsize::new(0),
        });
        self.conns.lock().expect("conn tracker poisoned").insert(id, Arc::clone(&stat));
        (id, stat)
    }

    pub(crate) fn deregister(&self, id: u64) {
        self.conns.lock().expect("conn tracker poisoned").remove(&id);
    }

    fn render_json(&self) -> String {
        let now = now_us();
        let mut entries: Vec<(u64, Arc<ConnStat>)> = {
            let conns = self.conns.lock().expect("conn tracker poisoned");
            conns.iter().map(|(id, stat)| (*id, Arc::clone(stat))).collect()
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
pub(crate) enum ParseStep {
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
pub(crate) fn try_parse_request(buf: &[u8]) -> ParseStep {
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
        Ok(Some(req)) => ParseStep::Request { req, consumed: cursor.position() as usize },
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

/// What the connection driver should do with one parsed request.
pub(crate) enum Outcome {
    /// Write `resp` (after [`finalize_response`]); close afterwards if
    /// `close`. `truncate` damages the write on the wire (fault injection);
    /// `delay` postpones the write (`stall` fault) — the threaded server
    /// sleeps, the reactor parks the response on a deadline.
    Respond { resp: Response, close: bool, truncate: bool, delay: Option<Duration> },
    /// Close the connection without writing anything (fault `drop`).
    Drop,
}

/// Stamps the server's close intent onto the response before it is
/// serialized: a connection the server will close must say so.
pub(crate) fn finalize_response(resp: &mut Response, close: bool) {
    if close && resp.header("connection").is_none() {
        resp.headers.push(("Connection".into(), "close".into()));
    }
}

/// The 400 answered to an unparsable request; the connection closes after
/// it, and the response says so.
pub(crate) fn bad_request_response(err: &NetError) -> Response {
    let mut resp = Response::error(400, &err.to_string());
    finalize_response(&mut resp, true);
    resp
}

/// Seed of the server-side trace-id mint. Fixed so two fresh servers fed
/// the same sequential request stream stamp identical ids — the cross-mode
/// byte-identity suites depend on it.
const SERVER_MINT_SEED: u64 = 0x5354_4541_4d73_7276;

/// The trace identity one request runs under on the server side: the trace
/// extracted from `X-Steam-Trace` (parent = the client's span), or a
/// server-minted root trace when the request carried none.
pub(crate) struct RequestTrace {
    trace: TraceId,
    parent: SpanId,
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
        Dispatcher { handler, obs, faults, mint: AtomicU64::new(0), conns: ConnTracker::default() }
    }

    pub(crate) fn obs(&self) -> Option<&Arc<ServerObs>> {
        self.obs.as_ref()
    }

    pub(crate) fn conns(&self) -> &ConnTracker {
        &self.conns
    }

    fn extract_trace(&self, req: &Request) -> RequestTrace {
        match req.header(TRACE_HEADER).and_then(TraceContext::parse) {
            Some(ctx) => RequestTrace { trace: ctx.trace, parent: ctx.span },
            None => RequestTrace {
                trace: TraceId::mint_seeded(
                    SERVER_MINT_SEED,
                    self.mint.fetch_add(1, Ordering::Relaxed),
                ),
                parent: SpanId(0),
            },
        }
    }

    /// Echoes the request's trace id on the response so a client can join
    /// its span to the server's without parsing `/debug/spans`.
    fn stamp_trace(resp: &mut Response, trace: Option<&RequestTrace>) {
        if let Some(t) = trace {
            resp.headers.push((TRACE_HEADER.into(), t.trace.to_hex()));
        }
    }

    fn record_fault_span(&self, req: &Request, trace: &RequestTrace, status: u16, note: &str) {
        record_span(
            SpanRecord::new(
                trace.trace,
                next_span_id(),
                trace.parent,
                SpanKind::Server,
                "http",
                &normalize_endpoint(&req.path),
            )
            .with_timing(now_us(), 0)
            .with_status(status)
            .with_annotation(note),
        );
    }

    /// Decides the response (or lack of one) for a single request.
    pub(crate) fn dispatch(&self, req: Request, cache: &mut ObsCache) -> Outcome {
        let keep_alive = req.keep_alive();
        // Operational endpoints (`/metrics`, `/healthz`, `/debug/*`) are
        // never faulted, throttled, traced, or counted: the instruments
        // watching a drill must not be blinded by it, and polling the
        // introspection endpoints must not pollute what they expose.
        let operational = req.method == "GET"
            && (req.path == "/metrics"
                || req.path == "/healthz"
                || req.path.starts_with("/debug/"));
        // Every app request runs under a trace: extracted from the wire, or
        // minted deterministically so both server modes stamp identical ids
        // on identical request streams.
        let trace = if operational { None } else { Some(self.extract_trace(&req)) };
        let mut delay = None;
        if let Some(inj) = self.faults.as_deref().filter(|_| !operational) {
            match inj.decide(&req.path) {
                None => {}
                // Stall injects latency, then the request proceeds normally.
                Some(FaultKind::Stall) => delay = Some(inj.stall_duration()),
                Some(FaultKind::Drop) => {
                    if let Some(t) = &trace {
                        self.record_fault_span(&req, t, 0, "fault=drop");
                    }
                    return Outcome::Drop;
                }
                Some(k @ (FaultKind::Status500 | FaultKind::Status503)) => {
                    let status = if k == FaultKind::Status500 { 500 } else { 503 };
                    if let Some(obs) = &self.obs {
                        let endpoint = normalize_endpoint(&req.path);
                        cache.record(obs, &req.method, &endpoint, status, Duration::ZERO);
                    }
                    if let Some(t) = &trace {
                        self.record_fault_span(&req, t, status, "fault=status");
                    }
                    let mut resp = Response::error(status, "injected fault");
                    Self::stamp_trace(&mut resp, trace.as_ref());
                    return Outcome::Respond { resp, close: !keep_alive, truncate: false, delay };
                }
                Some(k @ (FaultKind::Truncate | FaultKind::Corrupt)) => {
                    // Compute the real response, then damage it on the wire.
                    let mut resp = self.handle_app(req, cache, trace.as_ref());
                    Self::stamp_trace(&mut resp, trace.as_ref());
                    if k == FaultKind::Corrupt {
                        match resp.body.first_mut() {
                            Some(b) => *b = b'#',
                            None => resp.body.push(b'#'),
                        }
                        let close = !keep_alive || !resp.keep_alive();
                        return Outcome::Respond { resp, close, truncate: false, delay };
                    }
                    // The declared Content-Length will not be honored; the
                    // only coherent next step is closing the connection.
                    return Outcome::Respond { resp, close: true, truncate: true, delay };
                }
            }
        }
        // Operational endpoints answer before the application handler, so
        // they are never subject to app-level rate limiting. The flight
        // recorder is process-global, so `/debug/spans|slow|conns` answer
        // whether or not a registry is attached — both modes identically.
        if operational {
            match req.path.as_str() {
                "/debug/spans" => {
                    let filter = req.query_param("trace").and_then(TraceId::from_hex);
                    let resp =
                        Response::json(spans_json("spans", &steam_obs::recent_spans(), filter));
                    return Outcome::Respond { resp, close: !keep_alive, truncate: false, delay };
                }
                "/debug/slow" => {
                    let resp =
                        Response::json(spans_json("slow", &steam_obs::slowest_spans(), None));
                    return Outcome::Respond { resp, close: !keep_alive, truncate: false, delay };
                }
                "/debug/conns" => {
                    let resp = Response::json(self.conns.render_json());
                    return Outcome::Respond { resp, close: !keep_alive, truncate: false, delay };
                }
                _ => {}
            }
            if let Some(obs) = &self.obs {
                if req.path == "/metrics" {
                    // Refresh the process-wide peak-RSS gauge at scrape
                    // time (kernel `VmHWM`; absent off Linux).
                    if let Some(peak) = steam_obs::peak_rss_bytes() {
                        obs.registry.gauge("peak_rss_bytes", &[]).set(peak as i64);
                    }
                    let resp = Response::text(obs.registry.render_prometheus());
                    return Outcome::Respond { resp, close: !keep_alive, truncate: false, delay };
                }
                if req.path == "/healthz" {
                    let resp = Response::text("ok\n".into());
                    return Outcome::Respond { resp, close: !keep_alive, truncate: false, delay };
                }
            }
            // Remaining operational paths belong to the application layer
            // (e.g. the API service's `/debug/cache` and `/debug/limiter`):
            // still uninstrumented, untraced, and unstamped.
            let resp = self.call_handler(req).unwrap_or_else(panic_response);
            let close = !keep_alive || !resp.keep_alive();
            return Outcome::Respond { resp, close, truncate: false, delay };
        }
        let mut resp = self.handle_app(req, cache, trace.as_ref());
        Self::stamp_trace(&mut resp, trace.as_ref());
        let close = !keep_alive || !resp.keep_alive();
        Outcome::Respond { resp, close, truncate: false, delay }
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

    /// Runs the application handler, instrumented when observed; the hop is
    /// recorded into the flight recorder whenever it runs under a trace
    /// (always, except operational endpoints) — span recording is not gated
    /// by the log level or the presence of a registry. A panicking handler
    /// answers 500, and its span is annotated `panic`.
    fn handle_app(
        &self,
        req: Request,
        cache: &mut ObsCache,
        trace: Option<&RequestTrace>,
    ) -> Response {
        let endpoint = normalize_endpoint(&req.path);
        let method = req.method.clone();
        if let Some(obs) = &self.obs {
            obs.in_flight.inc();
        }
        let start = Instant::now();
        let start_us = now_us();
        let handled = self.call_handler(req);
        let elapsed = start.elapsed();
        let panicked = handled.is_none();
        let resp = handled.unwrap_or_else(panic_response);
        if let Some(obs) = &self.obs {
            obs.in_flight.dec();
            cache.record(obs, &method, &endpoint, resp.status, elapsed);
        }
        if let Some(t) = trace {
            let span = SpanRecord::new(
                t.trace,
                next_span_id(),
                t.parent,
                SpanKind::Server,
                "http",
                &endpoint,
            )
            .with_timing(start_us, elapsed.as_micros() as u64)
            .with_status(resp.status);
            record_span(if panicked { span.with_annotation("panic") } else { span });
        }
        resp
    }
}

/// What a request whose handler panicked answers.
fn panic_response() -> Response {
    Response::error(500, "handler panicked")
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
    fn span_strings_round_trip_through_the_json_writer() {
        // Targets, names and annotations may carry request-path bytes: every
        // character JSON must escape reads back unchanged.
        const AWKWARD: &str = "q\"b\\s\nc\u{1}";
        let span =
            SpanRecord::new(TraceId(1), SpanId(2), SpanId(0), SpanKind::Server, AWKWARD, AWKWARD)
                .with_annotation(AWKWARD);
        let body = spans_json("spans", &[span], None);
        let json = crate::json::Json::parse(&body).expect("span body must be valid JSON");
        let spans = json.get("spans").and_then(|v| v.as_arr()).expect("span array");
        for field in ["target", "name", "annotation"] {
            assert_eq!(spans[0].get(field).and_then(|v| v.as_str()), Some(AWKWARD), "{body}");
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
        assert!(matches!(try_parse_request(&bytes), ParseStep::Request { .. }));
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
        assert_eq!(find_header_end(b"GET / HTTP/1.1\nHost: x\n\r\nrest"), Some(25));
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
        assert!(matches!(try_parse_request(&junk[..64]), ParseStep::Incomplete));
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
        assert_eq!(resp.headers.iter().filter(|(k, _)| k == "Connection").count(), 1);
        // No close intent, no header.
        let mut resp = Response::json("{}".into());
        finalize_response(&mut resp, false);
        assert_eq!(resp.header("connection"), None);
    }

    #[test]
    fn serialized_bytes_match_the_streaming_writer() {
        // The reactor encodes each response onto the tail of its write
        // queue, behind earlier pipelined responses still unsent.
        use crate::http::{encode_response, write_response, write_response_truncated};
        let resp = Response::json("{\"ok\":true}".into());
        let queued = b"HTTP/1.1 200 OK\r\n".to_vec();
        for truncate in [false, true] {
            let mut direct = queued.clone();
            if truncate {
                write_response_truncated(&mut direct, &resp).unwrap();
            } else {
                write_response(&mut direct, &resp).unwrap();
            }
            let mut outbuf = queued.clone();
            encode_response(&mut outbuf, &resp, truncate);
            assert_eq!(outbuf, direct, "truncate = {truncate}");
        }
    }
}
