//! The HTTP server behind the emulated Steam Web API, in two modes behind
//! one API:
//!
//! * [`ServerMode::Epoll`] (default on Linux) — a nonblocking epoll reactor
//!   (the private `reactor` module): one event-loop thread multiplexes every
//!   connection, so concurrency is bounded by file descriptors, not worker
//!   threads. This is what lets one process hold 10k+ keep-alive
//!   connections from a fleet of crawl workers.
//! * [`ServerMode::Threaded`] — the original blocking acceptor + fixed
//!   worker pool. Simple, portable, and still the right tool when the
//!   client count is small; concurrency is capped at the worker count.
//!
//! Both modes route every request through the same dispatcher (`Dispatcher`
//! in the private `conn` module), so responses are byte-identical across
//! modes — `serve_bench` and the mode-parity suite assert it.
//!
//! ## Connection lifecycle
//!
//! Idle keep-alive connections are closed after
//! [`ServerConfig::idle_timeout`] (worker threads poll in short slices; the
//! reactor sweeps on a timer), so an abandoned or slow-loris client cannot
//! pin a worker forever. A connection that stalls *mid-request* is answered
//! with `408 Request Timeout` and closed. Every response that precedes a
//! server-side close carries `Connection: close`, so client pools can see
//! the close intent instead of parking a half-closed socket.
//!
//! ## Observability
//!
//! [`HttpServer::bind_config`] attaches a [`steam_obs::Registry`]: the
//! server then records per-endpoint request counts
//! (`http_requests_total{endpoint,method,status}`), latency histograms
//! (`http_request_duration_seconds{endpoint}`), an in-flight gauge, a
//! connection counter and a handler-panic counter
//! (`http_handler_panics_total`; a panicking handler answers 500 and the
//! server keeps serving) — and serves two operational endpoints of its own,
//! `GET /metrics` (Prometheus text exposition) and `GET /healthz`, ahead of
//! the application handler (so neither is subject to application-level rate
//! limiting). Path segments that are purely numeric are normalized to `:id`
//! in the `endpoint` label, keeping its cardinality bounded.

use std::collections::HashMap;
use std::io::BufRead;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use steam_obs::Registry;

use crate::conn::{
    bad_request_response, finalize_response, ConnStat, ConnState, Dispatcher, ObsCache, Outcome,
    ServerObs,
};
use crate::error::NetError;
use crate::fault::FaultInjector;
use crate::http::{read_request, write_response, write_response_truncated, Request, Response};

/// A request handler. Must be cheap to share across worker threads.
pub trait Handler: Send + Sync + 'static {
    fn handle(&self, req: Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: Request) -> Response {
        self(req)
    }
}

/// Replaces purely numeric path segments with `:id`, so per-endpoint labels
/// stay bounded (`/community/group/12345` → `/community/group/:id`).
pub fn normalize_endpoint(path: &str) -> String {
    let normalized: Vec<&str> = path
        .split('/')
        .map(|seg| {
            if !seg.is_empty() && seg.bytes().all(|b| b.is_ascii_digit()) {
                ":id"
            } else {
                seg
            }
        })
        .collect();
    let joined = normalized.join("/");
    if joined.is_empty() {
        "/".to_string()
    } else {
        joined
    }
}

/// How the server multiplexes connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerMode {
    /// Nonblocking epoll reactor: one event-loop thread, unbounded
    /// keep-alive concurrency. Linux-only; on other platforms this falls
    /// back to [`ServerMode::Threaded`].
    Epoll,
    /// Blocking acceptor + fixed worker pool; concurrency capped at
    /// [`ServerConfig::workers`].
    Threaded,
}

impl Default for ServerMode {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            ServerMode::Epoll
        } else {
            ServerMode::Threaded
        }
    }
}

impl ServerMode {
    /// The mode that will actually run (epoll falls back to threaded off
    /// Linux).
    pub fn resolved(self) -> ServerMode {
        if self == ServerMode::Epoll && !cfg!(target_os = "linux") {
            ServerMode::Threaded
        } else {
            self
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            ServerMode::Epoll => "epoll",
            ServerMode::Threaded => "threaded",
        }
    }
}

/// Server tuning knobs shared by both modes.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads (threaded mode only; the reactor is one thread).
    pub workers: usize,
    pub mode: ServerMode,
    /// Close a keep-alive connection after this long with no request, and
    /// abort (408) a request that takes longer than this to arrive.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            mode: ServerMode::default(),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// How often blocked/idle paths re-check deadlines and the shutdown flag.
pub(crate) const POLL_SLICE: Duration = Duration::from_millis(100);

/// A running HTTP server; dropping it (or calling [`shutdown`](Self::shutdown))
/// stops accepting, closes connections, and joins all threads.
pub struct HttpServer {
    addr: SocketAddr,
    inner: Inner,
}

enum Inner {
    Threaded(ThreadedServer),
    #[cfg(target_os = "linux")]
    Epoll(crate::reactor::Reactor),
}

impl HttpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts serving
    /// in the default mode, without metrics or faults. `n_workers` sizes the
    /// pool in threaded mode.
    pub fn bind(addr: &str, n_workers: usize, handler: Arc<dyn Handler>) -> Result<Self, NetError> {
        let config = ServerConfig { workers: n_workers, ..ServerConfig::default() };
        Self::bind_config(addr, config, handler, None, None)
    }

    /// The fully general constructor. A `registry` makes the server record
    /// per-endpoint request/latency metrics and answer `GET /metrics` and
    /// `GET /healthz` itself (see module docs). A [`FaultInjector`] decides,
    /// per request, whether to misbehave (drop the connection, inject 5xx,
    /// truncate or corrupt the body, stall). Operational endpoints
    /// (`/metrics`, `/healthz`) are never faulted — observability must stay
    /// trustworthy during fault drills.
    pub fn bind_config(
        addr: &str,
        config: ServerConfig,
        handler: Arc<dyn Handler>,
        registry: Option<Arc<Registry>>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Self, NetError> {
        assert!(config.workers > 0);
        let obs = registry.map(|r| Arc::new(ServerObs::new(r)));
        let dispatcher = Arc::new(Dispatcher::new(handler, obs, faults));
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = match config.mode.resolved() {
            ServerMode::Threaded => {
                Inner::Threaded(ThreadedServer::start(listener, config, dispatcher)?)
            }
            #[cfg(target_os = "linux")]
            ServerMode::Epoll => {
                Inner::Epoll(crate::reactor::Reactor::start(listener, config, dispatcher)?)
            }
            #[cfg(not(target_os = "linux"))]
            ServerMode::Epoll => unreachable!("resolved() falls back to Threaded off Linux"),
        };
        Ok(HttpServer { addr: local, inner })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The mode actually serving (after platform fallback).
    pub fn mode(&self) -> ServerMode {
        match &self.inner {
            Inner::Threaded(_) => ServerMode::Threaded,
            #[cfg(target_os = "linux")]
            Inner::Epoll(_) => ServerMode::Epoll,
        }
    }

    /// Stops accepting, closes connections, joins threads. Idempotent.
    pub fn shutdown(&mut self) {
        match &mut self.inner {
            Inner::Threaded(s) => s.shutdown(),
            #[cfg(target_os = "linux")]
            Inner::Epoll(r) => r.shutdown(),
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The blocking acceptor + worker-pool server (the original mode).
struct ThreadedServer {
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    conn_tx: Option<Sender<TcpStream>>,
    /// Live connections, so shutdown can force-close sockets that workers
    /// are blocked reading from.
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
}

impl ThreadedServer {
    fn start(
        listener: TcpListener,
        config: ServerConfig,
        dispatcher: Arc<Dispatcher>,
    ) -> Result<Self, NetError> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded::<TcpStream>(config.workers * 4);
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let next_conn_id = Arc::new(AtomicU64::new(0));

        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let rx = rx.clone();
            let dispatcher = Arc::clone(&dispatcher);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let next_conn_id = Arc::clone(&next_conn_id);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || {
                        while let Ok(stream) = rx.recv() {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let id = next_conn_id.fetch_add(1, Ordering::Relaxed);
                            if let Ok(clone) = stream.try_clone() {
                                conns.lock().insert(id, clone);
                            }
                            if let Some(obs) = dispatcher.obs() {
                                obs.connections.inc();
                            }
                            // Individual connection failures must not kill
                            // the worker.
                            let _ = serve_connection(
                                stream,
                                &dispatcher,
                                &stop,
                                config.idle_timeout,
                            );
                            conns.lock().remove(&id);
                        }
                    })
                    .expect("spawn worker"),
            );
        }

        let acceptor = {
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            // Polling accept lets shutdown proceed without a wake-up
            // connection.
            listener.set_nonblocking(true)?;
            std::thread::Builder::new()
                .name("http-acceptor".into())
                .spawn(move || loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nodelay(true).ok();
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                })
                .expect("spawn acceptor")
        };

        Ok(ThreadedServer {
            stop,
            acceptor: Some(acceptor),
            workers,
            conn_tx: Some(tx),
            conns,
        })
    }

    /// Stops accepting, drains workers, joins threads. Idempotent.
    ///
    /// Three things unblock a worker, covering every race window: dropping
    /// the sender wakes workers parked on `recv`; force-closing the tracked
    /// sockets interrupts blocked reads; and workers that took a connection
    /// before `stop` was visible (or whose socket missed the force-close
    /// because it was not yet in the map) observe the flag within one
    /// [`POLL_SLICE`], because every blocking read is sliced. A worker
    /// mid-write when its socket is closed gets an I/O error, which
    /// [`serve_connection`] returns (never panics) — the worker then exits
    /// through the closed channel.
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.conn_tx.take();
        for (_, stream) in self.conns.lock().drain() {
            stream.shutdown(std::net::Shutdown::Both).ok();
        }
        if let Some(h) = self.acceptor.take() {
            h.join().ok();
        }
        for h in self.workers.drain(..) {
            h.join().ok();
        }
        // Connections registered between the drain above and worker exit.
        for (_, stream) in self.conns.lock().drain() {
            stream.shutdown(std::net::Shutdown::Both).ok();
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Serves requests on one connection until close, error, idle timeout, or
/// shutdown. Registers the connection in the dispatcher's `/debug/conns`
/// tracker for its lifetime, mirroring what the reactor does.
fn serve_connection(
    stream: TcpStream,
    dispatcher: &Dispatcher,
    stop: &AtomicBool,
    idle_timeout: Duration,
) -> Result<(), NetError> {
    #[cfg(unix)]
    let fd = {
        use std::os::fd::AsRawFd;
        stream.as_raw_fd()
    };
    #[cfg(not(unix))]
    let fd = -1;
    let (track_id, stat) = dispatcher.conns().register(fd);
    let result = serve_connection_tracked(stream, dispatcher, stop, idle_timeout, &stat);
    dispatcher.conns().deregister(track_id);
    result
}

fn serve_connection_tracked(
    stream: TcpStream,
    dispatcher: &Dispatcher,
    stop: &AtomicBool,
    idle_timeout: Duration,
    stat: &ConnStat,
) -> Result<(), NetError> {
    let mut writer = stream.try_clone()?;
    // Sliced read timeout: blocked reads wake every POLL_SLICE to check the
    // idle deadline and the shutdown flag.
    stream.set_read_timeout(Some(POLL_SLICE))?;
    let mut reader = BufReader::new(stream);
    let mut cache = ObsCache::default();
    loop {
        // Between requests: wait for the first byte of the next request.
        // An idle keep-alive connection (slow-loris, abandoned crawler) is
        // closed at the idle deadline instead of holding this worker
        // forever.
        let idle_start = Instant::now();
        stat.set_state(ConnState::Idle);
        loop {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            match reader.fill_buf() {
                Ok([]) => return Ok(()), // peer closed cleanly
                Ok(_) => break,          // request bytes waiting
                Err(ref e) if is_timeout(e) => {
                    if idle_start.elapsed() >= idle_timeout {
                        return Ok(()); // idle too long: close silently
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        stat.set_state(ConnState::Reading);
        stat.touch();
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // peer closed cleanly
            Err(NetError::Io(ref e)) if is_timeout(e) => {
                // A request started arriving but stalled mid-read (the
                // sliced timeout expired inside the parse, whose state
                // cannot be resumed). This is the slow-loris guard for the
                // mid-request case: answer 408 with close intent and drop.
                let mut resp = Response::error(408, "request read timed out");
                finalize_response(&mut resp, true);
                let _ = write_response(&mut writer, &resp);
                return Ok(());
            }
            Err(e) => {
                // Malformed request: answer 400 and drop the connection.
                let _ = write_response(&mut writer, &bad_request_response(&e));
                return Err(e);
            }
        };
        stat.set_state(ConnState::Dispatching);
        match dispatcher.dispatch(req, &mut cache) {
            Outcome::Drop => return Ok(()),
            Outcome::Respond { mut resp, close, truncate, delay } => {
                if let Some(d) = delay {
                    stat.set_state(ConnState::Stalled);
                    std::thread::sleep(d);
                }
                stat.set_state(ConnState::Writing);
                finalize_response(&mut resp, close);
                if truncate {
                    write_response_truncated(&mut writer, &resp)?;
                } else {
                    write_response(&mut writer, &resp)?;
                }
                stat.touch();
                if close {
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request, Request};
    use std::io::{Read, Write};

    /// Every mode this platform can run; core tests loop over all of them so
    /// the reactor and the thread pool stay behaviorally interchangeable.
    fn modes() -> Vec<ServerMode> {
        let mut modes = vec![ServerMode::Threaded];
        if cfg!(target_os = "linux") {
            modes.push(ServerMode::Epoll);
        }
        modes
    }

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: Request| Response::json(format!("{{\"path\":\"{}\"}}", req.path)))
    }

    fn echo_server(mode: ServerMode) -> HttpServer {
        let config = ServerConfig { workers: 2, mode, ..ServerConfig::default() };
        HttpServer::bind_config("127.0.0.1:0", config, echo_handler(), None, None).unwrap()
    }

    fn raw_get(addr: SocketAddr, target: &str, close: bool) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut req = Request::get(target);
        if close {
            req.headers.push(("Connection".into(), "close".into()));
        }
        write_request(&mut writer, &req).unwrap();
        let mut reader = BufReader::new(stream);
        read_response(&mut reader).unwrap()
    }

    /// One request with close intent; returns the raw response bytes (read
    /// to EOF), for byte-identity assertions.
    fn raw_bytes(addr: SocketAddr, target: &str) -> Vec<u8> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut req = Request::get(target);
        req.headers.push(("Connection".into(), "close".into()));
        write_request(&mut writer, &req).unwrap();
        let mut bytes = Vec::new();
        let mut reader = stream;
        reader.read_to_end(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn serves_requests() {
        for mode in modes() {
            let server = echo_server(mode);
            let resp = raw_get(server.addr(), "/hello", true);
            assert_eq!(resp.status, 200, "{}", mode.label());
            assert!(resp.body_text().contains("/hello"));
        }
    }

    #[test]
    fn default_mode_matches_platform() {
        let server = echo_server(ServerMode::default());
        if cfg!(target_os = "linux") {
            assert_eq!(server.mode(), ServerMode::Epoll);
        } else {
            assert_eq!(server.mode(), ServerMode::Threaded);
        }
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        for mode in modes() {
            let server = echo_server(mode);
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for path in ["/a", "/b", "/c"] {
                write_request(&mut writer, &Request::get(path)).unwrap();
                let resp = read_response(&mut reader).unwrap();
                assert!(resp.body_text().contains(path), "{}", mode.label());
                assert_eq!(resp.header("connection"), None, "keep-alive must not close");
            }
        }
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        for mode in modes() {
            let server = echo_server(mode);
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            // Both requests in one write: the server must answer in order
            // without waiting for the first response to be consumed.
            let mut bytes = Vec::new();
            write_request(&mut bytes, &Request::get("/one")).unwrap();
            write_request(&mut bytes, &Request::get("/two")).unwrap();
            writer.write_all(&bytes).unwrap();
            let mut reader = BufReader::new(stream);
            let first = read_response(&mut reader).unwrap();
            let second = read_response(&mut reader).unwrap();
            assert!(first.body_text().contains("/one"), "{}", mode.label());
            assert!(second.body_text().contains("/two"), "{}", mode.label());
        }
    }

    #[test]
    fn deep_pipelines_are_answered_in_order_in_linear_time() {
        // 32,000 GETs in one write: parsing that rescans or re-shifts the
        // queued bytes once per request took 7.6 s for 16,000 on the
        // reactor, with every other connection waiting behind it.
        const N: usize = 32_000;
        for mode in modes() {
            let server = echo_server(mode);
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut wire = Vec::new();
            for i in 0..N {
                write_request(&mut wire, &Request::get(&format!("/p{i}"))).unwrap();
            }
            let start = Instant::now();
            // The responses fill the socket buffers long before the requests
            // are all written, so the one write_all runs beside the reader.
            let sender = std::thread::spawn(move || writer.write_all(&wire).unwrap());
            let mut reader = BufReader::new(stream);
            for i in 0..N {
                let resp = read_response(&mut reader).unwrap();
                let want = format!("{{\"path\":\"/p{i}\"}}");
                assert_eq!(resp.body, want.into_bytes(), "{}", mode.label());
            }
            sender.join().unwrap();
            let elapsed = start.elapsed();
            let label = mode.label();
            assert!(elapsed < Duration::from_secs(5), "{label}: {N} pipelined in {elapsed:?}");
        }
    }

    #[test]
    fn concurrent_clients() {
        for mode in modes() {
            let server = echo_server(mode);
            let addr = server.addr();
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    std::thread::spawn(move || {
                        let resp = raw_get(addr, &format!("/client{i}"), true);
                        assert!(resp.body_text().contains(&format!("client{i}")));
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn malformed_request_gets_400_with_close_intent() {
        for mode in modes() {
            let server = echo_server(mode);
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
            let mut reader = BufReader::new(stream);
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, 400, "{}", mode.label());
            // The connection is about to be closed by the server; the
            // response must say so (the client pool relies on this).
            assert_eq!(resp.header("connection"), Some("close"));
        }
    }

    #[test]
    fn explicit_close_request_gets_close_intent_back() {
        for mode in modes() {
            let server = echo_server(mode);
            let resp = raw_get(server.addr(), "/x", true);
            assert_eq!(resp.header("connection"), Some("close"), "{}", mode.label());
        }
    }

    #[test]
    fn modes_serve_identical_bytes() {
        if !cfg!(target_os = "linux") {
            return; // only one mode exists off Linux
        }
        let threaded = echo_server(ServerMode::Threaded);
        let epoll = echo_server(ServerMode::Epoll);
        for path in ["/hello", "/user/42/profile", "/a/b?x=1&y=2"] {
            assert_eq!(
                raw_bytes(threaded.addr(), path),
                raw_bytes(epoll.addr(), path),
                "modes disagree on {path}"
            );
        }
    }

    /// Sends `pieces` on a fresh no-delay connection, one write (and so one
    /// segment) each, and returns the raw response bytes read to EOF.
    fn send_in_pieces(addr: SocketAddr, pieces: &[&[u8]]) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        for piece in pieces {
            stream.write_all(piece).unwrap();
        }
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn fragmented_requests_get_the_same_bytes_as_whole_ones_in_both_modes() {
        // Every client writes a request in one piece, so this is what keeps
        // the parsers' incomplete-request paths tested over a real socket.
        let handler: Arc<dyn Handler> = Arc::new(|req: Request| {
            Response::json(format!(
                "{{\"method\":\"{}\",\"path\":\"{}\",\"body\":\"{}\"}}",
                req.method,
                req.path,
                String::from_utf8_lossy(&req.body)
            ))
        });
        let server = |mode| {
            let config = ServerConfig { workers: 2, mode, ..ServerConfig::default() };
            HttpServer::bind_config("127.0.0.1:0", config, Arc::clone(&handler), None, None)
                .unwrap()
        };
        let mut get = Request::get("/fragments/get?x=1");
        get.headers.push(("Connection".into(), "close".into()));
        let mut post = Request::get("/fragments/post");
        post.method = "POST".into();
        post.body = b"0123456789abcdef".to_vec();
        post.headers.push(("Connection".into(), "close".into()));
        for req in [get, post] {
            let mut wire = Vec::new();
            write_request(&mut wire, &req).unwrap();
            // A GET arrives a byte at a time; a POST is split inside its body.
            let pieces: Vec<&[u8]> = if req.body.is_empty() {
                wire.chunks(1).collect()
            } else {
                let cut = wire.len() - req.body.len() / 2;
                vec![&wire[..cut], &wire[cut..]]
            };
            let mut answers = Vec::new();
            for mode in modes() {
                // A fresh server per delivery, so each mints the same trace id.
                let whole = send_in_pieces(server(mode).addr(), &[&wire]);
                let split = send_in_pieces(server(mode).addr(), &pieces);
                assert!(whole.starts_with(b"HTTP/1.1 200 OK\r\n"), "{}", mode.label());
                assert_eq!(split, whole, "{} {}", mode.label(), req.method);
                answers.push(whole);
            }
            assert!(answers.windows(2).all(|w| w[0] == w[1]), "modes disagree on {}", req.method);
        }
    }

    #[test]
    fn debug_endpoints_answer_in_both_modes() {
        for mode in modes() {
            let server = echo_server(mode);
            let addr = server.addr();
            let spans = raw_get(addr, "/debug/spans", false);
            assert_eq!(spans.status, 200, "{}", mode.label());
            assert!(
                spans.body_text().starts_with("{\"spans\":["),
                "{}: {}",
                mode.label(),
                spans.body_text()
            );
            let slow = raw_get(addr, "/debug/slow", false);
            assert_eq!(slow.status, 200, "{}", mode.label());
            assert!(slow.body_text().starts_with("{\"slow\":["), "{}", mode.label());
            let conns = raw_get(addr, "/debug/conns", true);
            assert_eq!(conns.status, 200, "{}", mode.label());
            let body = conns.body_text();
            assert!(body.starts_with("{\"conns\":["), "{}: {body}", mode.label());
            // The connection asking is itself tracked.
            assert!(body.contains("\"state\":"), "{}: {body}", mode.label());
        }
    }

    #[test]
    fn trace_header_is_echoed_identically_across_modes() {
        let mut echoed = Vec::new();
        for mode in modes() {
            let server = echo_server(mode);
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut req = Request::get("/traced");
            req.headers
                .push(("X-Steam-Trace".into(), "00000000000000ab-00000000000000cd".into()));
            req.headers.push(("Connection".into(), "close".into()));
            write_request(&mut writer, &req).unwrap();
            let mut reader = BufReader::new(stream);
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, 200, "{}", mode.label());
            assert_eq!(
                resp.header("x-steam-trace"),
                Some("00000000000000ab"),
                "{}",
                mode.label()
            );
            echoed.push(resp.header("x-steam-trace").unwrap().to_string());
        }
        assert!(echoed.windows(2).all(|w| w[0] == w[1]), "modes disagree on trace echo");
    }

    #[test]
    fn silent_client_cannot_starve_the_server() {
        for mode in modes() {
            // One worker, short idle timeout: in threaded mode a slow-loris
            // connection used to pin the lone worker forever.
            let config = ServerConfig {
                workers: 1,
                mode,
                idle_timeout: Duration::from_millis(250),
            };
            let server =
                HttpServer::bind_config("127.0.0.1:0", config, echo_handler(), None, None)
                    .unwrap();
            let addr = server.addr();
            let mut silent = TcpStream::connect(addr).unwrap();
            // Let the worker adopt the silent connection before the real
            // request arrives.
            std::thread::sleep(Duration::from_millis(50));
            let start = Instant::now();
            let resp = raw_get(addr, "/alive", true);
            assert_eq!(resp.status, 200, "{}", mode.label());
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "request starved behind an idle connection ({})",
                mode.label()
            );
            // And the idle sweep actually closed the silent connection.
            silent.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 16];
            assert!(
                matches!(silent.read(&mut buf), Ok(0) | Err(_)),
                "silent connection should have been closed ({})",
                mode.label()
            );
        }
    }

    #[test]
    fn stalled_mid_request_gets_408_with_close_intent() {
        for mode in modes() {
            let config = ServerConfig {
                workers: 2,
                mode,
                idle_timeout: Duration::from_millis(200),
            };
            let server =
                HttpServer::bind_config("127.0.0.1:0", config, echo_handler(), None, None)
                    .unwrap();
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            // Half a request, then silence: the server must not wait
            // forever for the rest.
            writer.write_all(b"GET /half HTTP/1.1\r\nHost: steam").unwrap();
            let mut reader = BufReader::new(stream);
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, 408, "{}", mode.label());
            assert_eq!(resp.header("connection"), Some("close"));
        }
    }

    #[test]
    fn normalize_endpoint_replaces_numeric_segments() {
        assert_eq!(normalize_endpoint("/community/group/12345"), "/community/group/:id");
        assert_eq!(normalize_endpoint("/profiles/765/games"), "/profiles/:id/games");
        assert_eq!(normalize_endpoint("/ISteamApps/GetAppList/v2"), "/ISteamApps/GetAppList/v2");
        assert_eq!(normalize_endpoint("/"), "/");
        assert_eq!(normalize_endpoint(""), "/");
    }

    #[test]
    fn metrics_and_healthz_endpoints() {
        for mode in modes() {
            let registry = Arc::new(Registry::new());
            let handler: Arc<dyn Handler> = Arc::new(|req: Request| {
                if req.path == "/fail" {
                    Response::error(500, "boom")
                } else {
                    Response::json("{}".into())
                }
            });
            let config = ServerConfig { workers: 2, mode, ..ServerConfig::default() };
            let server = HttpServer::bind_config(
                "127.0.0.1:0",
                config,
                handler,
                Some(Arc::clone(&registry)),
                None,
            )
            .unwrap();
            assert_eq!(raw_get(server.addr(), "/healthz", true).body_text(), "ok\n");
            raw_get(server.addr(), "/user/42/profile", true);
            raw_get(server.addr(), "/user/77/profile", true);
            raw_get(server.addr(), "/fail", true);

            let resp = raw_get(server.addr(), "/metrics", true);
            assert_eq!(resp.status, 200);
            assert!(resp.header("content-type").unwrap().starts_with("text/plain"));
            let body = resp.body_text();
            assert!(
                body.contains(
                    "http_requests_total{endpoint=\"/user/:id/profile\",method=\"GET\",status=\"200\"} 2"
                ),
                "numeric segments should collapse into one series ({}):\n{body}",
                mode.label()
            );
            assert!(body.contains(
                "http_requests_total{endpoint=\"/fail\",method=\"GET\",status=\"500\"} 1"
            ));
            assert!(body.contains("http_request_duration_seconds_bucket{endpoint=\"/fail\",le="));
            assert!(body.contains("http_requests_in_flight 0"));
            // /metrics and /healthz must not instrument themselves.
            assert!(!body.contains("endpoint=\"/metrics\""));
            assert!(!body.contains("endpoint=\"/healthz\""));
        }
    }

    #[test]
    fn handler_panic_answers_500_and_the_server_keeps_serving() {
        for (i, mode) in modes().into_iter().enumerate() {
            let registry = Arc::new(Registry::new());
            let handler: Arc<dyn Handler> = Arc::new(|req: Request| {
                if req.path.ends_with("/panic") {
                    panic!("handler bug on {}", req.path);
                }
                Response::json("{}".into())
            });
            let config = ServerConfig { workers: 2, mode, ..ServerConfig::default() };
            let server = HttpServer::bind_config(
                "127.0.0.1:0",
                config,
                handler,
                Some(Arc::clone(&registry)),
                None,
            )
            .unwrap();
            let trace = format!("00000000000000{:02x}", 0xe0 + i);
            let stream = TcpStream::connect(server.addr()).unwrap();
            // A server whose serving thread died must fail the test, not hang it.
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            // An app path under a trace, then an application-layer
            // operational path; each panics, and the connection serves on.
            let mut req = Request::get("/app/panic");
            req.headers.push(("X-Steam-Trace".into(), format!("{trace}-0000000000000001")));
            for req in [req, Request::get("/debug/panic")] {
                write_request(&mut writer, &req).unwrap();
                let resp = read_response(&mut reader).unwrap();
                assert_eq!(resp.status, 500, "{} {}", mode.label(), req.path);
                assert_eq!(resp.header("connection"), None, "{}", mode.label());
                write_request(&mut writer, &Request::get("/fine")).unwrap();
                let resp = read_response(&mut reader).unwrap();
                assert_eq!(resp.status, 200, "{} after {}", mode.label(), req.path);
            }
            assert_eq!(raw_get(server.addr(), "/fine", true).status, 200, "{}", mode.label());
            assert_eq!(registry.counter("http_handler_panics_total", &[]).get(), 2);
            let trace = steam_obs::TraceId::from_hex(&trace).unwrap();
            let span = steam_obs::recent_spans()
                .into_iter()
                .find(|s| s.trace == trace)
                .unwrap_or_else(|| panic!("{}: no span for the panicked request", mode.label()));
            assert_eq!((span.status, span.annotation()), (500, "panic"), "{}", mode.label());
        }
    }

    fn faulty_server(spec: &str, mode: ServerMode) -> HttpServer {
        let inj = Arc::new(FaultInjector::new(crate::FaultPlan::parse(spec, 11).unwrap(), None));
        let config = ServerConfig { workers: 2, mode, ..ServerConfig::default() };
        HttpServer::bind_config("127.0.0.1:0", config, echo_handler(), None, Some(inj)).unwrap()
    }

    #[test]
    fn injected_500_and_503_are_served() {
        for mode in modes() {
            let server = faulty_server("500=1.0", mode);
            let resp = raw_get(server.addr(), "/x", true);
            assert_eq!(resp.status, 500, "{}", mode.label());
            let server = faulty_server("503=1.0", mode);
            let resp = raw_get(server.addr(), "/x", true);
            assert_eq!(resp.status, 503, "{}", mode.label());
        }
    }

    #[test]
    fn injected_drop_closes_without_response() {
        for mode in modes() {
            let server = faulty_server("drop=1.0", mode);
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            write_request(&mut writer, &Request::get("/x")).unwrap();
            let mut reader = BufReader::new(stream);
            assert!(read_response(&mut reader).is_err(), "{}", mode.label());
        }
    }

    #[test]
    fn injected_corrupt_garbles_body() {
        for mode in modes() {
            let server = faulty_server("corrupt=1.0", mode);
            let resp = raw_get(server.addr(), "/x", true);
            assert_eq!(resp.status, 200, "{}", mode.label());
            assert!(resp.body.starts_with(b"#"), "{:?}", resp.body_text());
            assert!(crate::Json::parse(&resp.body_text()).is_err());
        }
    }

    #[test]
    fn injected_truncate_breaks_the_read() {
        for mode in modes() {
            let server = faulty_server("truncate=1.0", mode);
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            write_request(&mut writer, &Request::get("/x")).unwrap();
            let mut reader = BufReader::new(stream);
            assert!(
                matches!(read_response(&mut reader), Err(NetError::Io(_))),
                "{}",
                mode.label()
            );
        }
    }

    #[test]
    fn operational_endpoints_are_never_faulted() {
        for mode in modes() {
            let registry = Arc::new(Registry::new());
            let handler: Arc<dyn Handler> = Arc::new(|_req: Request| Response::json("{}".into()));
            let inj = Arc::new(FaultInjector::new(
                crate::FaultPlan::parse("drop=1.0", 1).unwrap(),
                Some(&registry),
            ));
            let config = ServerConfig { workers: 2, mode, ..ServerConfig::default() };
            let server = HttpServer::bind_config(
                "127.0.0.1:0",
                config,
                handler,
                Some(Arc::clone(&registry)),
                Some(inj),
            )
            .unwrap();
            // App traffic is dropped, but /healthz and /metrics always answer.
            assert_eq!(raw_get(server.addr(), "/healthz", true).body_text(), "ok\n");
            let body = raw_get(server.addr(), "/metrics", true).body_text();
            assert!(body.contains("crawl_faults_injected_total"), "{body}");
        }
    }

    #[test]
    fn shutdown_is_clean_and_idempotent() {
        for mode in modes() {
            let mut server = echo_server(mode);
            let addr = server.addr();
            raw_get(addr, "/x", true);
            // A connection sitting mid-request when shutdown lands: it must
            // neither hang the join nor panic a worker.
            let mut mid = TcpStream::connect(addr).unwrap();
            mid.write_all(b"GET /mid HTTP/1.1\r\nHost: st").unwrap();
            // An idle keep-alive connection, for good measure.
            let mut idle = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            server.shutdown();
            server.shutdown();
            // Both leftover connections are force-closed by shutdown.
            for (label, conn) in [("mid-request", &mut mid), ("idle", &mut idle)] {
                conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let mut buf = [0u8; 256];
                loop {
                    match conn.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {} // drain whatever was in flight (e.g. a 408)
                    }
                }
                let _ = label;
            }
            // New connections now fail or hang-up immediately.
            let result = TcpStream::connect(addr).map_err(|_| ()).and_then(|stream| {
                let mut writer = stream.try_clone().map_err(|_| ())?;
                write_request(&mut writer, &Request::get("/y")).map_err(|_| ())?;
                let mut reader = BufReader::new(stream);
                read_response(&mut reader).map_err(|_| ())
            });
            assert!(result.is_err(), "server still answering after shutdown ({})", mode.label());
        }
    }
}
