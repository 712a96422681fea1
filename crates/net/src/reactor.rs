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
//! [`EventLoop::pump`] centralizes.
//!
//! ## One session per connection
//!
//! Each connection is a [`Session`], the per-connection state machine the
//! threaded server drives too (see the `conn` module): it parses, dispatches,
//! encodes, parks stall responses and decides close or 408. The reactor
//! only drives it. A readiness edge reads until `WouldBlock` and advances
//! the session once, so a wake costs time linear in the bytes it brought. A
//! timer releases due stall responses, so the loop never blocks on a fault,
//! and a sweep every 500 ms applies the idle rule.
//!
//! ## Fallback policy
//!
//! `epoll` is Linux-only. On other platforms
//! [`ServerMode::Epoll`](crate::server::ServerMode) resolves to `Threaded`
//! at bind time (`ServerMode::resolved`), and the CLI exposes `--threaded`
//! to force the fallback anywhere.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use steam_obs::{obs_debug, Counter, Gauge, Histogram, Registry};

use crate::conn::{Dispatcher, ObsCache, Session};
use crate::error::NetError;
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
    let mut lim = sys::RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: getrlimit writes the struct we hand it; no other state.
    if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.rlim_cur < want {
        let target = sys::RLimit {
            rlim_cur: want.min(lim.rlim_max),
            rlim_max: lim.rlim_max,
        };
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
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
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
        registry.describe(
            "reactor_events_per_wake",
            "Events returned by the last epoll_wait",
        );
        registry.describe(
            "reactor_active_connections",
            "Connections currently registered",
        );
        registry.describe(
            "reactor_accepts_total",
            "Connections accepted by the reactor",
        );
        registry.describe(
            "reactor_sweeps_total",
            "Connections closed by the idle sweep",
        );
        registry.describe(
            "reactor_stall_parks_total",
            "Responses parked by the stall fault",
        );
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
        epoll.add(
            listener.as_raw_fd(),
            sys::EPOLLIN | sys::EPOLLET,
            TOK_LISTENER,
        )?;
        epoll.add(waker_rx.as_raw_fd(), sys::EPOLLIN, TOK_WAKER)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("http-reactor".into())
                .spawn(move || {
                    let obs = dispatcher.obs().map(|obs| ReactorObs::new(&obs.registry));
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
        Ok(Reactor {
            stop,
            waker: waker_tx,
            thread: Some(thread),
        })
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

/// The event loop proper; lives on the reactor thread.
struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    waker_rx: std::fs::File,
    dispatcher: Arc<Dispatcher>,
    idle_timeout: Duration,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Session>,
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
            let timeout = if self.stall_count > 0 {
                Duration::from_millis(5)
            } else {
                POLL_SLICE
            };
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
                obs.wait_latency
                    .record_duration(iter_start.duration_since(wait_start));
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
                    if let Some(obs) = &self.obs {
                        obs.accepts.inc();
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let flags = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
                    if self.epoll.add(stream.as_raw_fd(), flags, token).is_err() {
                        continue; // fd exhaustion: drop the connection
                    }
                    self.conns
                        .insert(token, Session::new(stream, Arc::clone(&self.dispatcher)));
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

    /// Drains one readiness edge of a connection (`evmask = 0` re-pumps it
    /// without new readiness: stall release, idle sweep) and closes it if
    /// the session says so.
    fn pump(&mut self, token: u64, evmask: u32) {
        let Some(session) = self.conns.get_mut(&token) else {
            return;
        };
        let parked_before = session.stalled_until().is_some();
        let keep = evmask & (sys::EPOLLERR | sys::EPOLLHUP) == 0
            && (evmask & (sys::EPOLLIN | sys::EPOLLRDHUP) == 0 || session.receive(true))
            && session.advance(&mut self.cache);
        if !parked_before && session.stalled_until().is_some() {
            self.stall_count += 1;
            if let Some(obs) = &self.obs {
                obs.stall_parks.inc();
            }
        }
        if !keep {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(session) = self.conns.remove(&token) {
            if session.stalled_until().is_some() {
                self.stall_count -= 1;
            }
            self.epoll.del(session.stream().as_raw_fd());
            // Dropping the session deregisters it and closes the socket.
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
        for (&token, session) in self.conns.iter_mut() {
            if session.release_stall(now) {
                self.stall_count -= 1;
                due.push(token);
            }
        }
        for token in due {
            self.pump(token, 0);
        }
    }

    /// Applies the idle rule to every connection idle past the deadline: a
    /// connection mid-request gets its 408 flushed, any other closes.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, s)| s.idle(now, self.idle_timeout))
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            if let Some(obs) = &self.obs {
                obs.sweeps.inc();
            }
            if self.conns.get_mut(&token).is_some_and(Session::time_out) {
                self.pump(token, 0);
            } else {
                self.close(token);
            }
        }
    }
}
