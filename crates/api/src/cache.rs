//! Wire-response cache for the API service.
//!
//! The store behind [`ApiService`](crate::service::ApiService) is
//! immutable for the lifetime of the service, so any successful JSON body is
//! valid forever — no invalidation protocol, just one bounded LRU to keep
//! the long tail (per-user endpoints over millions of users) from holding
//! every body in memory at once. Keys are `(endpoint, id)`; the hot
//! batch endpoint is keyed by its parsed, order-preserving id list so
//! repeated census sweeps hit too — and so equivalent batches that differ
//! only in encoding share one entry.

use std::sync::atomic::{AtomicU64, Ordering};
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

/// Default cap on cached bodies. At typical body sizes (tens of bytes to a
/// few KB) this bounds the cache to single-digit MB.
pub const DEFAULT_MAX_ENTRIES: usize = 8192;

/// A bounded cache of serialized response bodies: one least-recently-used
/// map behind one lock, plus lifetime hit/miss totals. The default epoll
/// server calls the handler from its single reactor thread; the threaded
/// server's workers take the lock for a lookup, and again for a store on a
/// miss.
pub struct WireCache {
    bodies: Mutex<LruCache<CacheKey, Arc<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    metrics: OnceLock<CacheMetrics>,
}

impl WireCache {
    /// A cache holding at most [`DEFAULT_MAX_ENTRIES`] bodies.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MAX_ENTRIES)
    }

    /// A cache holding at most `max_entries` bodies (clamped to at least 1).
    pub fn with_capacity(max_entries: usize) -> Self {
        WireCache {
            bodies: Mutex::new(LruCache::new(max_entries)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }
    }

    /// Binds per-endpoint hit/miss counters and the entry gauge to
    /// `registry`. Idempotent (first registry wins); counts recorded before
    /// attachment are not replayed.
    pub fn attach_registry(&self, registry: &Registry) {
        let _ = self.metrics.set(CacheMetrics::new(registry));
    }

    /// Looks `key` up, counting a hit or a miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        let got = self.bodies.lock().get(key).map(Arc::clone);
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
        let body = Arc::new(body);
        let len = {
            let mut bodies = self.bodies.lock();
            bodies.insert(key, Arc::clone(&body));
            bodies.len()
        };
        if let Some(m) = self.metrics.get() {
            m.entries.set(len as i64);
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

    /// Live cached bodies.
    pub fn len(&self) -> usize {
        self.bodies.lock().len()
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

    /// Bodies the cache holds before LRU eviction: the requested
    /// `max_entries`.
    pub fn capacity(&self) -> usize {
        self.bodies.lock().capacity()
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
        let cache = WireCache::with_capacity(63);
        for i in 0..10_000u32 {
            cache.get_or_insert(CacheKey::AppDetails(i), || vec![0u8; 16]);
        }
        assert_eq!(cache.capacity(), 63);
        assert_eq!(cache.len(), 63);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 10_000);
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
