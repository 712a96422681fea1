//! # steam-api
//!
//! Emulation of the Steam Web API surface the paper crawled (§3.1), plus
//! the crawler that reconstructs a [`steam_model::Snapshot`] from it.
//!
//! * [`wire`] — the JSON shapes of each endpoint: one writer and one
//!   typed parser per body, with no `Json` tree in between;
//! * [`service`] — the one HTTP service, over a shard store (a whole
//!   snapshot is shard 0 of 1), with per-key token-bucket rate limiting and
//!   the batch-100 profile endpoint;
//! * [`crawler`] — the three-phase collection pipeline (ID-space census →
//!   per-user harvest → catalog), self-throttled to a configurable rate and
//!   retrying transient failures with exponential backoff;
//! * [`shard`] — the stores the service serves: the one splitter that cuts
//!   a world N ways (`shard-split`), the 1-of-1 store an unsharded server
//!   moves out of its snapshot, and the CSHD shard file codec;
//! * [`router`] — the scatter-gather front door over a shard fleet.
//!
//! The integration tests (and the `crawl_api` example) demonstrate the key
//! property: crawling the served snapshot reproduces it record-for-record —
//! whether served by one process or by a routed shard fleet.

pub mod cache;
pub mod checkpoint;
pub mod crawler;
pub mod router;
pub mod service;
pub mod shard;
pub mod wire;

pub use cache::{CacheKey, WireCache};
pub use checkpoint::{CheckpointStore, Record, Replay, UserRecord};
pub use crawler::{CrawlProgress, CrawlStats, Crawler, CrawlerConfig};
pub use router::{serve_router_config, RouterConfig, RouterService};
pub use service::{serve, serve_service_config, ApiService, RateLimit, ShardService};
pub use shard::{
    decode_shard, encode_shard, read_shard, shard_of, shard_of_app, shard_of_group, write_shard,
    ShardStore, StreamSplitter,
};
