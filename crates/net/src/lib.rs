//! # steam-net
//!
//! Networking substrate for the *Condensing Steam* (IMC 2016) reproduction:
//! everything needed to emulate and crawl a REST API, built directly on
//! `std::net` (see DESIGN.md for why no async runtime):
//!
//! * [`json`] — a JSON value type, the one pull reader its parser and the
//!   API's typed parsers share, and the number and string writers;
//! * [`url`] — percent-encoding and query strings;
//! * [`http`] — HTTP/1.1 request/response framing with keep-alive;
//! * [`server`] — an HTTP server with graceful shutdown, in two modes:
//!   a nonblocking epoll reactor (Linux default) and a thread pool;
//! * [`client`] — a blocking keep-alive client;
//! * [`pool`] — a shared keep-alive connection pool behind the client;
//! * [`lru`] — a bounded least-recently-used map (wire-response cache and
//!   per-key limiter);
//! * [`ratelimit`] — token buckets (the API's quota and the crawler's
//!   85%-of-quota self-throttle from §3.1), plus the bounded per-key
//!   [`KeyedLimiter`] the API server uses;
//! * [`backoff`] — retry with exponential backoff;
//! * [`fault`] — deterministic, seeded fault injection for the server
//!   (dropped connections, 5xx, truncated/corrupted bodies, stalls).

pub mod backoff;
pub mod client;
pub(crate) mod conn;
pub mod error;
pub mod fault;
pub mod http;
pub mod json;
pub mod lru;
pub mod pool;
pub mod ratelimit;
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub(crate) mod reactor;
pub mod server;
pub mod url;

pub use backoff::{transient, Backoff};
pub use client::{HttpClient, MAX_RETRY_AFTER};
pub use error::NetError;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
pub use http::{Request, Response};
pub use json::Json;
pub use lru::LruCache;
pub use pool::ConnectionPool;
pub use ratelimit::{KeyedLimiter, TokenBucket};
#[cfg(target_os = "linux")]
pub use reactor::raise_nofile_limit;
pub use server::{Handler, HttpServer, ServerConfig, ServerMode};

/// No-op off Linux (the reactor — and its fd-hungry bench — is Linux-only).
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit(_want: u64) -> u64 {
    0
}
