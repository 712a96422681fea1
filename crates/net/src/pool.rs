//! A thread-safe keep-alive connection pool keyed by server address.
//!
//! [`HttpClient`](crate::client::HttpClient) checks a connection out, runs
//! one exchange on it (one or more requests written together, their
//! responses read back in order), and checks it back in if every response
//! arrived and none forbids reuse. Sharing one `Arc<ConnectionPool>`
//! across the crawler's phase-2 workers lets N worker threads drive the
//! whole crawl over at most `max_idle` sockets per address (plus short-lived
//! overflow connections when every pooled one is checked out at once)
//! instead of one socket per worker per lifetime — fewer TCP handshakes,
//! fewer server workers pinned to dead connections.
//!
//! The pool keeps one idle stack per address under a shared
//! `max_idle`/`max_idle_age` policy, so a single pool can front a whole
//! shard fleet: the router fans a batch out to N shards over one pool and
//! each shard reuses only its own sockets. Every [`Conn`] is stamped with
//! the address it was opened against, so a checkin can never park a socket
//! under the wrong shard even if the caller confuses addresses.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::NetError;
use crate::http::Response;

/// One pooled connection: a writer handle and a buffered reader over the
/// same socket, stamped with the address it was opened against. Crossing
/// request/response pairs is impossible because a connection is owned by
/// exactly one exchange between checkout and checkin; crossing *addresses*
/// is impossible because checkin files the connection under `addr`.
pub struct Conn {
    pub(crate) writer: TcpStream,
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) addr: SocketAddr,
}

/// A bounded pool of idle keep-alive connections, keyed by address.
pub struct ConnectionPool {
    timeout: Duration,
    /// Idle-stack cap *per address*, not across the whole pool.
    max_idle: usize,
    /// Parked connections older than this are discarded at checkout instead
    /// of reused: the server closes idle keep-alive connections after its
    /// own idle timeout, so a connection parked longer than that is dead on
    /// arrival. Kept below the server default (30 s) with margin.
    max_idle_age: Duration,
    /// One idle stack per address, each connection with its parking time.
    idle: Mutex<HashMap<SocketAddr, Vec<(Conn, Instant)>>>,
    connects: AtomicU64,
    reuses: AtomicU64,
    expired: AtomicU64,
}

impl ConnectionPool {
    /// A pool holding up to `max_idle` idle connections per address.
    pub fn new(max_idle: usize) -> Self {
        ConnectionPool {
            timeout: Duration::from_secs(30),
            max_idle: max_idle.max(1),
            max_idle_age: Duration::from_secs(20),
            idle: Mutex::new(HashMap::new()),
            connects: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Builder-style connect/read/write timeout (default 30 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Builder-style idle-age cap (default 20 s). Set it below the server's
    /// idle timeout, so the pool never hands out a connection the server has
    /// already reaped.
    pub fn with_max_idle_age(mut self, max_idle_age: Duration) -> Self {
        self.max_idle_age = max_idle_age;
        self
    }

    /// TCP connections opened over the pool's lifetime, all addresses.
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Checkouts served from an idle pooled connection, all addresses.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Idle connections currently parked in the pool, all addresses.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().values().map(Vec::len).sum()
    }

    /// Parked connections discarded at checkout for exceeding
    /// [`with_max_idle_age`](Self::with_max_idle_age), all addresses.
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Takes an idle connection to `addr` if a fresh-enough one is parked.
    /// Entries older than the idle-age cap are dropped (closing the socket)
    /// rather than handed out — the server has likely reaped them already.
    /// Connections parked under other addresses are never considered.
    pub(crate) fn checkout(&self, addr: SocketAddr) -> Option<Conn> {
        let now = Instant::now();
        let mut idle = self.idle.lock();
        let stack = idle.get_mut(&addr)?;
        while let Some((conn, parked_at)) = stack.pop() {
            if now.duration_since(parked_at) > self.max_idle_age {
                self.expired.fetch_add(1, Ordering::Relaxed);
                continue; // dropped: the socket closes here
            }
            self.reuses.fetch_add(1, Ordering::Relaxed);
            return Some(conn);
        }
        None
    }

    /// Opens a fresh connection to `addr` (counted).
    pub(crate) fn connect(&self, addr: SocketAddr) -> Result<Conn, NetError> {
        let stream = TcpStream::connect_timeout(&addr, self.timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let writer = stream.try_clone()?;
        self.connects.fetch_add(1, Ordering::Relaxed);
        Ok(Conn { writer, reader: BufReader::new(stream), addr })
    }

    /// Parks a connection for reuse after a successful exchange — unless
    /// `resp`, the exchange's last response, carries the server's close
    /// intent (`Connection: close`, sent ahead of every server-side close:
    /// errors, truncations, idle reaps). Parking such a connection would
    /// hand a half-closed socket to the next checkout. Also drops the
    /// connection when the address's idle stack is already full. The
    /// connection is filed under the address it was opened against, never
    /// anywhere else.
    pub(crate) fn checkin(&self, conn: Conn, resp: &Response) {
        if !resp.keep_alive() {
            return; // server is closing this connection: never park it
        }
        let mut idle = self.idle.lock();
        let stack = idle.entry(conn.addr).or_default();
        if stack.len() < self.max_idle {
            stack.push((conn, Instant::now()));
        }
    }

    /// Convenience for the common shared-pool construction.
    pub fn shared(max_idle: usize) -> Arc<Self> {
        Arc::new(Self::new(max_idle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Request, Response};
    use crate::server::{Handler, HttpServer};

    fn echo_server() -> HttpServer {
        let handler: Arc<dyn Handler> =
            Arc::new(|req: Request| Response::json(format!("{{\"path\":\"{}\"}}", req.path)));
        HttpServer::bind("127.0.0.1:0", 4, handler).unwrap()
    }

    fn reusable() -> Response {
        Response::json("{}".into())
    }

    #[test]
    fn pool_caps_idle_connections_per_addr() {
        let server = echo_server();
        let pool = ConnectionPool::new(2);
        let a = pool.connect(server.addr()).unwrap();
        let b = pool.connect(server.addr()).unwrap();
        let c = pool.connect(server.addr()).unwrap();
        pool.checkin(a, &reusable());
        pool.checkin(b, &reusable());
        pool.checkin(c, &reusable()); // over max_idle: dropped, socket closed
        assert_eq!(pool.idle_len(), 2);
        assert_eq!(pool.connects(), 3);
    }

    #[test]
    fn checkout_prefers_pooled() {
        let server = echo_server();
        let pool = ConnectionPool::new(4);
        assert!(pool.checkout(server.addr()).is_none(), "empty pool has nothing to reuse");
        let conn = pool.connect(server.addr()).unwrap();
        pool.checkin(conn, &reusable());
        assert!(pool.checkout(server.addr()).is_some());
        assert_eq!(pool.reuses(), 1);
        assert!(pool.checkout(server.addr()).is_none(), "checkout removes the connection");
    }

    #[test]
    fn close_intent_response_is_never_parked() {
        let server = echo_server();
        let pool = ConnectionPool::new(4);
        let conn = pool.connect(server.addr()).unwrap();
        let resp = Response::json("{}".into()).with_header("Connection", "close");
        pool.checkin(conn, &resp);
        assert_eq!(pool.idle_len(), 0, "a half-closed socket must not be pooled");
    }

    #[test]
    fn expired_idle_connections_are_discarded_at_checkout() {
        let server = echo_server();
        let pool = ConnectionPool::new(4).with_max_idle_age(Duration::from_millis(50));
        let conn = pool.connect(server.addr()).unwrap();
        pool.checkin(conn, &reusable());
        std::thread::sleep(Duration::from_millis(80));
        assert!(
            pool.checkout(server.addr()).is_none(),
            "aged-out connection must not be handed out"
        );
        assert_eq!(pool.expired(), 1);
        assert_eq!(pool.reuses(), 0);
    }

    #[test]
    fn checkin_against_one_addr_is_never_checked_out_for_another() {
        // Regression: the pool used to be hard-wired to a single address, so
        // a router fanning out to shards either funneled every shard through
        // one pool or cross-wired sockets. Park a connection to shard A and
        // assert shard B can never receive it.
        let shard_a = echo_server();
        let shard_b = echo_server();
        let pool = ConnectionPool::new(4);
        let conn = pool.connect(shard_a.addr()).unwrap();
        pool.checkin(conn, &reusable());
        assert!(
            pool.checkout(shard_b.addr()).is_none(),
            "a socket parked for shard A must never serve shard B"
        );
        let reused = pool.checkout(shard_a.addr()).expect("shard A gets its own socket back");
        assert_eq!(reused.addr, shard_a.addr());
        assert_eq!((pool.connects(), pool.reuses()), (1, 1));

        // An expiry at A leaves B's parked socket alone.
        let pool = ConnectionPool::new(4).with_max_idle_age(Duration::from_millis(50));
        let a = pool.connect(shard_a.addr()).unwrap();
        let b = pool.connect(shard_b.addr()).unwrap();
        pool.checkin(a, &reusable());
        pool.checkin(b, &reusable());
        std::thread::sleep(Duration::from_millis(80));
        assert!(pool.checkout(shard_a.addr()).is_none(), "shard A entry aged out");
        assert_eq!(pool.expired(), 1);
        assert_eq!(pool.idle_len(), 1, "shard B's parked socket was not touched");
    }
}
