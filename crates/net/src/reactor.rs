//! A hand-rolled epoll event loop: the nonblocking backend behind
//! [`HttpServer`](crate::server::HttpServer) on Linux.
//!
//! The thread-per-connection server caps concurrency at its worker count —
//! fine for one crawler, fatal for heavy fan-in (the paper's serving
//! problem is one emulated API in front of a fleet of harvest workers).
//! The reactor multiplexes every connection on **one** thread, so the
//! concurrency ceiling becomes file descriptors, not threads.
//!
//! Zero dependencies, matching the project's vendored-stub discipline: the
//! only non-`std` surface is a minimal in-crate FFI shim over four libc
//! symbols (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`) that the
//! binary already links through `std`. Sockets are plain
//! `std::net::TcpStream`s in nonblocking mode.
//!
//! ## Readiness model
//!
//! Connections register `EPOLLIN | EPOLLOUT | EPOLLRDHUP` **edge-triggered**
//! (`EPOLLET`). Edge-triggered is the right fit for a state-machine server:
//! the loop always drains a readiness edge completely (read until
//! `WouldBlock`, write until `WouldBlock` or the buffer empties), so
//! level-triggered re-notifications would only be noise — and with both
//! directions registered once, no `epoll_ctl` churn happens on the hot
//! path at all. The cost is discipline: *every* wakeup must drain, which
//! [`Conn::handle_events`] centralizes.
//!
//! ## Per-connection state machine
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!            v                                                │
//!  ┌──────────────────┐  header+body   ┌──────────┐  resp     │ keep-alive
//!  │ READ (accumulate │ ─────────────> │ DISPATCH │ ────────┐ │
//!  │ inbuf, try parse)│   complete     │ (shared) │         v │
//!  └──────────────────┘                └──────────┘   ┌───────────────┐
//!       │        │                          │ stall   │ WRITE (flush  │
//!       │ bad    │ idle sweep               v         │ outbuf queue) │
//!       v        v                     ┌─────────┐    └───────────────┘
//!   400+close  close (or 408+close  ──>│ STALLED │──deadline──^    │close
//!              if a request started)   └─────────┘                 v
//!                                                               CLOSED
//! ```
//!
//! Parsing is incremental ([`try_parse_request`]) and pipelining-safe:
//! every complete request in `inbuf` is dispatched in order, responses are
//! appended to a small write-buffer queue (`outbuf`), and a response that
//! cannot be written in one go waits for the next `EPOLLOUT` edge. A
//! `stall` fault parks the serialized response on a deadline instead of
//! sleeping — the loop never blocks on a fault.
//!
//! The request→response path is the same [`Dispatcher`] the threaded mode
//! uses, so the two modes serve byte-identical responses; `/metrics`,
//! `/healthz`, fault injection, and the wire cache all behave identically.
//!
//! ## Fallback policy
//!
//! `epoll` is Linux-only. On other platforms
//! [`ServerMode::Epoll`](crate::server::ServerMode) resolves to `Threaded`
//! at bind time (`ServerMode::resolved`), and the CLI exposes `--threaded`
//! to force the fallback anywhere.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use steam_obs::{now_us, obs_debug, Counter, Gauge, Histogram, Registry};

use crate::conn::{
    bad_request_response, finalize_response, try_parse_request, ConnStat, ConnState, Dispatcher,
    ObsCache, Outcome, ParseStep,
};
use crate::error::NetError;
use crate::http::{encode_response, Response};
use crate::server::{ServerConfig, POLL_SLICE};

/// Minimal FFI shim over the epoll/eventfd syscall wrappers. These symbols
/// live in the libc every `std` binary already links; declaring them here
/// keeps the crate zero-dep (no `libc` crate).
mod sys {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const RLIMIT_NOFILE: c_int = 7;

    /// Linux `struct epoll_event`. The kernel ABI packs it on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct RLimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
}

fn cvt(ret: i32) -> std::io::Result<i32> {
    if ret < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Raises the process soft `RLIMIT_NOFILE` toward `want` (clamped to the
/// hard limit) and returns the resulting soft limit. 10k+ concurrent
/// sockets need more than the common 1024 default; `serve_bench` calls
/// this before opening its connection fleet.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = sys::RLimit { rlim_cur: 0, rlim_max: 0 };
    // SAFETY: getrlimit writes the struct we hand it; no other state.
    if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.rlim_cur < want {
        let target = sys::RLimit { rlim_cur: want.min(lim.rlim_max), rlim_max: lim.rlim_max };
        // SAFETY: setrlimit only reads the struct; failure leaves limits as-is.
        if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &target) } == 0 {
            return target.rlim_cur;
        }
    }
    lim.rlim_cur
}

/// An owned epoll instance.
struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        // SAFETY: epoll_create1 returns a fresh fd (or -1), which OwnedFd
        // then owns exclusively.
        let fd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent { events, data: token };
        // SAFETY: a valid epoll fd, a valid target fd, and a live event.
        cvt(unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), sys::EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    fn del(&self, fd: RawFd) {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        // SAFETY: as above; a failed DEL (fd already closed) is harmless.
        unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, &mut ev) };
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout: Duration) -> std::io::Result<usize> {
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: the events slice is valid for maxevents entries; the
        // kernel writes at most that many.
        let n = unsafe {
            sys::epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        match cvt(n) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// Event-loop health instruments: "is the reactor itself stalling" is the
/// one signal an edge-triggered single-thread loop cannot do without. All
/// updates happen on the reactor thread; the registry renders them at
/// `/metrics` like any other instrument.
struct ReactorObs {
    /// Time spent blocked in `epoll_wait` (idle time, healthy).
    wait_latency: Arc<Histogram>,
    /// Time spent processing one wake's events (busy time; growth here
    /// means the loop is falling behind its sockets).
    iter_latency: Arc<Histogram>,
    events_per_wake: Arc<Gauge>,
    active_conns: Arc<Gauge>,
    accepts: Arc<Counter>,
    sweeps: Arc<Counter>,
    stall_parks: Arc<Counter>,
}

impl ReactorObs {
    fn new(registry: &Registry) -> ReactorObs {
        registry.describe(
            "reactor_epoll_wait_duration_seconds",
            "Time the event loop spent blocked in epoll_wait",
        );
        registry.describe(
            "reactor_loop_iteration_duration_seconds",
            "Time the event loop spent processing one wake's events",
        );
        registry.describe("reactor_events_per_wake", "Events returned by the last epoll_wait");
        registry.describe("reactor_active_connections", "Connections currently registered");
        registry.describe("reactor_accepts_total", "Connections accepted by the reactor");
        registry.describe("reactor_sweeps_total", "Connections closed by the idle sweep");
        registry
            .describe("reactor_stall_parks_total", "Responses parked by the stall fault");
        ReactorObs {
            wait_latency: registry.histogram("reactor_epoll_wait_duration_seconds", &[]),
            iter_latency: registry.histogram("reactor_loop_iteration_duration_seconds", &[]),
            events_per_wake: registry.gauge("reactor_events_per_wake", &[]),
            active_conns: registry.gauge("reactor_active_connections", &[]),
            accepts: registry.counter("reactor_accepts_total", &[]),
            sweeps: registry.counter("reactor_sweeps_total", &[]),
            stall_parks: registry.counter("reactor_stall_parks_total", &[]),
        }
    }
}

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// Events drained per `epoll_wait` call.
const MAX_EVENTS: usize = 1024;
/// How often the idle sweep runs.
const SWEEP_INTERVAL: Duration = Duration::from_millis(500);

/// The reactor handle owned by [`HttpServer`](crate::server::HttpServer):
/// shutdown wakes the loop via an eventfd and joins the thread.
pub(crate) struct Reactor {
    stop: Arc<AtomicBool>,
    waker: std::fs::File,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Reactor {
    pub(crate) fn start(
        listener: TcpListener,
        config: ServerConfig,
        dispatcher: Arc<Dispatcher>,
    ) -> Result<Self, NetError> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        // SAFETY: eventfd returns a fresh fd which the File then owns.
        let efd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        let waker_rx = unsafe { std::fs::File::from_raw_fd(efd) };
        let waker_tx = waker_rx.try_clone()?;
        epoll.add(listener.as_raw_fd(), sys::EPOLLIN | sys::EPOLLET, TOK_LISTENER)?;
        epoll.add(waker_rx.as_raw_fd(), sys::EPOLLIN, TOK_WAKER)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("http-reactor".into())
                .spawn(move || {
                    let obs =
                        dispatcher.obs().map(|obs| ReactorObs::new(&obs.registry));
                    EventLoop {
                        epoll,
                        listener,
                        waker_rx,
                        dispatcher,
                        idle_timeout: config.idle_timeout,
                        stop,
                        conns: HashMap::new(),
                        next_token: FIRST_CONN_TOKEN,
                        cache: ObsCache::default(),
                        stall_count: 0,
                        accept_pending: false,
                        obs,
                    }
                    .run()
                })
                .expect("spawn reactor")
        };
        Ok(Reactor { stop, waker: waker_tx, thread: Some(thread) })
    }

    /// Stops the loop, closes every connection, joins the thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = (&self.waker).write_all(&1u64.to_ne_bytes());
        if let Some(h) = self.thread.take() {
            h.join().ok();
        }
    }
}

/// One nonblocking connection and its state machine.
struct Conn {
    stream: TcpStream,
    /// Accumulated unparsed request bytes.
    inbuf: Vec<u8>,
    /// Serialized responses not yet written; `written` bytes already sent.
    outbuf: Vec<u8>,
    written: usize,
    /// Close once `outbuf` drains (close intent already on the wire).
    close_after_flush: bool,
    /// The peer closed its write side; serve what is buffered, then close.
    peer_eof: bool,
    /// A stall-fault response parked until its deadline.
    stalled: Option<(Instant, Vec<u8>, bool)>,
    last_activity: Instant,
    /// Registration in the dispatcher's `/debug/conns` tracker.
    track_id: u64,
    stat: Arc<ConnStat>,
}

/// What `Conn::handle_events` decided about the connection's future.
enum Keep {
    Yes,
    Close,
}

impl Conn {
    fn new(stream: TcpStream, track_id: u64, stat: Arc<ConnStat>) -> Conn {
        Conn {
            stream,
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

    /// Mirrors the connection's state into its `/debug/conns` entry:
    /// relaxed stores on the reactor thread, read lock-free by the
    /// introspection endpoint.
    fn sync_stat(&self) {
        let state = if self.stalled.is_some() {
            ConnState::Stalled
        } else if self.written < self.outbuf.len() {
            ConnState::Writing
        } else if !self.inbuf.is_empty() {
            ConnState::Reading
        } else {
            ConnState::Idle
        };
        self.stat.set_state(state);
        self.stat.set_buffers(self.inbuf.len(), self.outbuf.len() - self.written);
        let idle_us = self.last_activity.elapsed().as_micros() as u64;
        self.stat.set_last_activity(now_us().saturating_sub(idle_us));
    }

    /// Drains a readiness edge: read everything, dispatch every complete
    /// request, flush everything writable. `evmask = 0` re-pumps the state
    /// machine without new readiness (stall release, idle sweep).
    fn handle_events(
        &mut self,
        evmask: u32,
        dispatcher: &Dispatcher,
        cache: &mut ObsCache,
        stall_count: &mut usize,
    ) -> Keep {
        if evmask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            return Keep::Close;
        }
        if evmask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !self.fill_inbuf() {
            return Keep::Close;
        }
        self.process(dispatcher, cache, stall_count);
        if self.flush().is_err() {
            return Keep::Close;
        }
        let flushed = self.written >= self.outbuf.len();
        if flushed && self.close_after_flush {
            return Keep::Close;
        }
        // Peer finished sending, nothing buffered in either direction, and
        // no stalled response pending: the exchange is over.
        if self.peer_eof && flushed && self.stalled.is_none() {
            return Keep::Close;
        }
        self.sync_stat();
        Keep::Yes
    }

    /// Reads until `WouldBlock`/EOF. Returns `false` on a hard error.
    fn fill_inbuf(&mut self) -> bool {
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
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Parses and dispatches every complete request in `inbuf`, in order.
    /// Stops at a stalled response (ordering: later pipelined responses
    /// must not overtake it) or once the connection is closing. Each
    /// request is parsed where it starts in `inbuf`, and the consumed
    /// prefix is drained once at the end, so a wake costs time linear in
    /// the bytes it consumes, however many requests are queued.
    fn process(&mut self, dispatcher: &Dispatcher, cache: &mut ObsCache, stall_count: &mut usize) {
        let mut start = 0;
        while self.stalled.is_none() && !self.close_after_flush {
            match try_parse_request(&self.inbuf[start..]) {
                ParseStep::Incomplete => break,
                ParseStep::Bad(e) => {
                    encode_response(&mut self.outbuf, &bad_request_response(&e), false);
                    self.close_after_flush = true;
                }
                ParseStep::Request { req, consumed } => {
                    start += consumed;
                    self.last_activity = Instant::now();
                    match dispatcher.dispatch(req, cache) {
                        Outcome::Drop => {
                            // Close without answering; earlier pipelined
                            // responses still flush first.
                            self.close_after_flush = true;
                        }
                        Outcome::Respond { mut resp, close, truncate, delay } => {
                            finalize_response(&mut resp, close);
                            match delay {
                                Some(d) => {
                                    let mut wire = Vec::new();
                                    encode_response(&mut wire, &resp, truncate);
                                    self.stalled = Some((Instant::now() + d, wire, close));
                                    *stall_count += 1;
                                }
                                None => {
                                    encode_response(&mut self.outbuf, &resp, truncate);
                                    if close {
                                        self.close_after_flush = true;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        self.inbuf.drain(..start);
    }

    /// Writes until done or `WouldBlock`. `Err` means the socket is broken.
    fn flush(&mut self) -> Result<(), ()> {
        while self.written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => return Err(()),
                Ok(n) => self.written += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        self.outbuf.clear();
        self.written = 0;
        Ok(())
    }
}

/// The event loop proper; lives on the reactor thread.
struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    waker_rx: std::fs::File,
    dispatcher: Arc<Dispatcher>,
    idle_timeout: Duration,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// One metric-handle cache for the whole loop (single-threaded).
    cache: ObsCache,
    /// Connections with a parked stall response (tightens the poll timeout).
    stall_count: usize,
    /// The last accept failed with an error other than `WouldBlock` (most
    /// often fd exhaustion), so connections may still be queued that the
    /// edge-triggered listener will not report again.
    accept_pending: bool,
    /// Event-loop health instruments; `None` when the server is unobserved.
    obs: Option<ReactorObs>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let mut last_sweep = Instant::now();
        while !self.stop.load(Ordering::Relaxed) {
            let timeout =
                if self.stall_count > 0 { Duration::from_millis(5) } else { POLL_SLICE };
            let wait_start = Instant::now();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(e) => {
                    obs_debug!("reactor", "epoll_wait failed, stopping: {e}");
                    break;
                }
            };
            let iter_start = Instant::now();
            if let Some(obs) = &self.obs {
                obs.wait_latency.record_duration(iter_start.duration_since(wait_start));
                obs.events_per_wake.set(n as i64);
            }
            for ev in events.iter().take(n).copied() {
                match ev.data {
                    TOK_LISTENER => self.accept_all(),
                    TOK_WAKER => {
                        let mut buf = [0u8; 8];
                        let _ = (&self.waker_rx).read(&mut buf);
                    }
                    token => self.pump(token, ev.events),
                }
            }
            self.release_stalls();
            if last_sweep.elapsed() >= SWEEP_INTERVAL {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
            // After this tick's closes, and at least every POLL_SLICE while
            // descriptors stay exhausted.
            if self.accept_pending {
                self.accept_all();
            }
            if let Some(obs) = &self.obs {
                obs.iter_latency.record_duration(iter_start.elapsed());
                obs.active_conns.set(self.conns.len() as i64);
            }
        }
        // Shutdown: dropping the map closes every socket; the listener
        // closes with the loop.
    }

    /// Accepts until `WouldBlock` (edge-triggered listener: one edge, all
    /// pending connections). Any other error leaves `accept_pending` set,
    /// and the loop retries on every tick until an accept reaches
    /// `WouldBlock`.
    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    if let Some(obs) = self.dispatcher.obs() {
                        obs.connections.inc();
                    }
                    if let Some(obs) = &self.obs {
                        obs.accepts.inc();
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let flags = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
                    if self.epoll.add(stream.as_raw_fd(), flags, token).is_err() {
                        continue; // fd exhaustion: drop the connection
                    }
                    let (track_id, stat) =
                        self.dispatcher.conns().register(stream.as_raw_fd());
                    self.conns.insert(token, Conn::new(stream, track_id, stat));
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.accept_pending = false;
                    return;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    if !self.accept_pending {
                        obs_debug!("reactor", "accept failed, retrying every tick: {e}");
                    }
                    self.accept_pending = true;
                    return;
                }
            }
        }
    }

    /// Drives one connection through `handle_events`, closing it if asked.
    fn pump(&mut self, token: u64, evmask: u32) {
        let parked_before = self.stall_count;
        let keep = match self.conns.get_mut(&token) {
            Some(conn) => conn.handle_events(
                evmask,
                &self.dispatcher,
                &mut self.cache,
                &mut self.stall_count,
            ),
            None => return,
        };
        if self.stall_count > parked_before {
            if let Some(obs) = &self.obs {
                obs.stall_parks.add((self.stall_count - parked_before) as u64);
            }
        }
        if matches!(keep, Keep::Close) {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.stalled.is_some() {
                self.stall_count -= 1;
            }
            self.dispatcher.conns().deregister(conn.track_id);
            self.epoll.del(conn.stream.as_raw_fd());
            // Dropping the stream closes the socket.
        }
    }

    /// Releases stall-fault responses whose deadline passed, then re-pumps
    /// those connections (their queued bytes and any pipelined requests
    /// behind the stall).
    fn release_stalls(&mut self) {
        if self.stall_count == 0 {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            if conn.stalled.as_ref().is_some_and(|(deadline, _, _)| *deadline <= now) {
                let (_, wire, close) = conn.stalled.take().expect("checked above");
                self.stall_count -= 1;
                conn.outbuf.extend_from_slice(&wire);
                if close {
                    conn.close_after_flush = true;
                }
                due.push(token);
            }
        }
        for token in due {
            self.pump(token, 0);
        }
    }

    /// Closes connections idle past the deadline. A connection with a
    /// half-received request gets a `408` (it is mid-request, so something
    /// is listening); a silently idle keep-alive connection just closes.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.stalled.is_none()
                    && now.duration_since(c.last_activity) >= self.idle_timeout
            })
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            if let Some(obs) = &self.obs {
                obs.sweeps.inc();
            }
            let conn = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => continue,
            };
            if conn.close_after_flush || conn.inbuf.is_empty() {
                // Already closing (it had a full idle period to flush) or
                // idle between requests: close now.
                self.close(token);
            } else {
                let mut resp = Response::error(408, "request read timed out");
                finalize_response(&mut resp, true);
                encode_response(&mut conn.outbuf, &resp, false);
                conn.close_after_flush = true;
                self.pump(token, 0);
            }
        }
    }
}
