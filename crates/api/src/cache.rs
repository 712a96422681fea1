//! Wire-response cache for the API service.
//!
//! The store behind [`ApiService`](crate::service::ApiService) is
//! immutable for the lifetime of the service, so any successful JSON body is
//! valid forever — no invalidation protocol, just a bounded LRU per shard to
//! keep the long tail (per-user endpoints over millions of users) from
//! holding every body in memory at once. Keys are `(endpoint, id)`; the hot
//! batch endpoint is keyed by its parsed, order-preserving id list so
//! repeated census sweeps hit too — and so equivalent batches that differ
//! only in encoding share one entry.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use steam_net::lru::LruCache;
use steam_obs::{Counter, Gauge, Registry};

/// What a cached body is keyed by. Every variant names an endpoint whose
/// response depends only on immutable snapshot state (never on the API key,
/// never on time), so serving a cached body is byte-equivalent to
/// re-serializing.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// `GetPlayerSummaries` keyed by the parsed, decoded, order-preserving
    /// (and de-duplicated) id list — never by the raw query string, so
    /// batches that differ only in percent-encoding, empty segments
    /// (`a,,b`), or duplicate ids share one entry. The router's re-batched
    /// sub-requests therefore hit the same entries a crawler warmed.
    Summaries(Vec<u64>),
    /// `GetFriendList` keyed by account index.
    Friends(u32),
    /// `GetOwnedGames` keyed by account index.
    Games(u32),
    /// `GetUserGroupList` keyed by account index.
    Groups(u32),
    /// The full `GetAppList` body (one entry).
    AppList,
    /// `appdetails` keyed by catalog index.
    AppDetails(u32),
    /// Achievement percentages keyed by catalog index.
    Achievements(u32),
    /// Community group page keyed by group index.
    GroupPage(u32),
    /// `/reproduction/panel` keyed by panel row.
    Panel(u32),
}

impl CacheKey {
    /// Stable `endpoint=` label value for metrics.
    pub fn endpoint(&self) -> &'static str {
        match self {
            CacheKey::Summaries(_) => "summaries",
            CacheKey::Friends(_) => "friends",
            CacheKey::Games(_) => "games",
            CacheKey::Groups(_) => "groups",
            CacheKey::AppList => "applist",
            CacheKey::AppDetails(_) => "appdetails",
            CacheKey::Achievements(_) => "achievements",
            CacheKey::GroupPage(_) => "grouppage",
            CacheKey::Panel(_) => "panel",
        }
    }
}

const ENDPOINTS: [&str; 9] = [
    "summaries",
    "friends",
    "games",
    "groups",
    "applist",
    "appdetails",
    "achievements",
    "grouppage",
    "panel",
];

/// Per-endpoint hit/miss counters plus a live-entry gauge, bound to a
/// metrics registry after construction (the service is built before the
/// server that owns the registry).
struct CacheMetrics {
    hits: Vec<(&'static str, Arc<Counter>)>,
    misses: Vec<(&'static str, Arc<Counter>)>,
    entries: Arc<Gauge>,
}

impl CacheMetrics {
    fn new(registry: &Registry) -> Self {
        let hits = ENDPOINTS
            .iter()
            .map(|&ep| (ep, registry.counter("api_cache_hits_total", &[("endpoint", ep)])))
            .collect();
        let misses = ENDPOINTS
            .iter()
            .map(|&ep| (ep, registry.counter("api_cache_misses_total", &[("endpoint", ep)])))
            .collect();
        CacheMetrics { hits, misses, entries: registry.gauge("api_cache_entries", &[]) }
    }

    fn count(side: &[(&'static str, Arc<Counter>)], endpoint: &str) {
        if let Some((_, c)) = side.iter().find(|(ep, _)| *ep == endpoint) {
            c.inc();
        }
    }
}

const DEFAULT_SHARDS: usize = 16;

/// Default total cached bodies across all shards. At typical body sizes
/// (tens of bytes to a few KB) this bounds the cache to single-digit MB.
pub const DEFAULT_MAX_ENTRIES: usize = 8192;

/// A sharded, bounded cache of serialized response bodies. All hot-path
/// state is per-shard or atomic; the only global lock is the one-time
/// metrics attachment.
type Shard = Mutex<LruCache<CacheKey, Arc<Vec<u8>>>>;

pub struct WireCache {
    shards: Box<[Shard]>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    live: AtomicUsize,
    capacity: usize,
    metrics: OnceLock<CacheMetrics>,
}

impl WireCache {
    /// A cache with the default shape (16 shards, 8192 entries total).
    pub fn new() -> Self {
        Self::with_shape(DEFAULT_SHARDS, DEFAULT_MAX_ENTRIES)
    }

    /// A cache with `shards` shards holding `max_entries` bodies in total.
    pub fn with_shape(shards: usize, max_entries: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = max_entries.div_ceil(shards).max(1);
        let capacity = per_shard * shards;
        let shards = (0..shards)
            .map(|_| Mutex::new(LruCache::new(per_shard)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        WireCache {
            shards,
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            capacity,
            metrics: OnceLock::new(),
        }
    }

    /// Binds per-endpoint hit/miss counters and the entry gauge to
    /// `registry`. Idempotent (first registry wins); counts recorded before
    /// attachment are not replayed.
    pub fn attach_registry(&self, registry: &Registry) {
        let _ = self.metrics.set(CacheMetrics::new(registry));
    }

    fn shard_for(&self, key: &CacheKey) -> usize {
        (self.hasher.hash_one(key) as usize) % self.shards.len()
    }

    /// Looks `key` up, counting a hit or a miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        let shard = self.shard_for(key);
        let got = self.shards[shard].lock().get(key).map(Arc::clone);
        let hit = got.is_some();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(m) = self.metrics.get() {
            CacheMetrics::count(if hit { &m.hits } else { &m.misses }, key.endpoint());
        }
        got
    }

    /// Stores a freshly built body (no hit/miss accounting — pair with
    /// [`lookup`](Self::lookup)). Racing stores of the same key are
    /// idempotent: bodies are deterministic serializations.
    pub fn store(&self, key: CacheKey, body: Vec<u8>) -> Arc<Vec<u8>> {
        let shard = self.shard_for(&key);
        let body = Arc::new(body);
        let grew = {
            let mut cache = self.shards[shard].lock();
            let before = cache.len();
            cache.insert(key, Arc::clone(&body));
            cache.len() > before
        };
        if grew {
            self.live.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(m) = self.metrics.get() {
            m.entries.set(self.live.load(Ordering::Relaxed) as i64);
        }
        body
    }

    /// Returns the cached body for `key`, building and caching it on a miss.
    pub fn get_or_insert(&self, key: CacheKey, build: impl FnOnce() -> Vec<u8>) -> Arc<Vec<u8>> {
        match self.lookup(&key) {
            Some(body) => body,
            None => self.store(key, build()),
        }
    }

    /// Live cached bodies across all shards.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime cache hits (independent of any registry).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime cache misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total bodies the cache can hold before LRU eviction (summed across
    /// shards; per-shard rounding may lift it slightly above the requested
    /// `max_entries`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for WireCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_identical_bytes() {
        let cache = WireCache::new();
        let first = cache.get_or_insert(CacheKey::Friends(7), || b"{\"a\":1}".to_vec());
        let second = cache.get_or_insert(CacheKey::Friends(7), || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&first, &second), "hit must return the same allocation");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = WireCache::new();
        let friends = cache.get_or_insert(CacheKey::Friends(7), || b"friends".to_vec());
        let games = cache.get_or_insert(CacheKey::Games(7), || b"games".to_vec());
        assert_ne!(&**friends, &**games, "same id, different endpoint");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bounded_by_shape() {
        let cache = WireCache::with_shape(4, 64);
        for i in 0..10_000u32 {
            cache.get_or_insert(CacheKey::AppDetails(i), || vec![0u8; 16]);
        }
        assert!(cache.len() <= 64 + 3, "len {} exceeds shaped bound", cache.len());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 10_000);
    }

    #[test]
    fn live_count_survives_eviction_churn() {
        let cache = WireCache::with_shape(2, 8);
        for round in 0..50u32 {
            for i in 0..8 {
                cache.get_or_insert(CacheKey::Friends(round * 8 + i), || b"x".to_vec());
            }
        }
        let live = cache.len();
        // Count the truth directly off the shards.
        let actual: usize = cache.shards.iter().map(|s| s.lock().len()).sum();
        assert_eq!(live, actual, "live counter drifted from shard contents");
    }

    #[test]
    fn registry_counters_labelled_by_endpoint() {
        let registry = Registry::new();
        let cache = WireCache::new();
        cache.attach_registry(&registry);
        cache.get_or_insert(CacheKey::AppList, || b"apps".to_vec());
        cache.get_or_insert(CacheKey::AppList, || unreachable!());
        cache.get_or_insert(CacheKey::Friends(1), || b"f".to_vec());
        let text = registry.render_prometheus();
        assert!(
            text.contains("api_cache_hits_total{endpoint=\"applist\"} 1"),
            "missing applist hit in:\n{text}"
        );
        assert!(
            text.contains("api_cache_misses_total{endpoint=\"applist\"} 1"),
            "missing applist miss in:\n{text}"
        );
        assert!(
            text.contains("api_cache_misses_total{endpoint=\"friends\"} 1"),
            "missing friends miss in:\n{text}"
        );
        assert!(text.contains("api_cache_entries 2"), "missing entry gauge in:\n{text}");
    }
}
