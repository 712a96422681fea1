//! Token-bucket rate limiting.
//!
//! Two uses mirror the paper's §3.1: the emulated API enforces a per-key
//! request quota (Valve's terms of service), and the crawler throttles itself
//! to ~85% of that quota "to reduce strain on the Steam infrastructure".
//!
//! [`KeyedLimiter`] maps API keys to buckets through one bounded
//! least-recently-used map, so a client cycling random keys cannot grow it
//! without bound.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::lru::LruCache;

/// A thread-safe token bucket.
///
/// The bucket holds at most `capacity` tokens and refills continuously at
/// `rate` tokens per second. `try_acquire` never blocks; `acquire` sleeps
/// until a token is available.
#[derive(Debug)]
pub struct TokenBucket {
    state: Mutex<State>,
    capacity: f64,
    rate: f64,
}

#[derive(Debug)]
struct State {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// `rate` tokens per second, burst up to `capacity`.
    ///
    /// Capacities below one token are rounded up to 1.0: `acquire` takes whole
    /// tokens, so a sub-token bucket could never satisfy it and the caller
    /// would spin forever.
    pub fn new(rate: f64, capacity: f64) -> Self {
        assert!(rate > 0.0 && capacity > 0.0, "rate and capacity must be positive");
        let capacity = capacity.max(1.0);
        TokenBucket {
            state: Mutex::new(State { tokens: capacity, last_refill: Instant::now() }),
            capacity,
            rate,
        }
    }

    fn refill(&self, state: &mut State, now: Instant) {
        let elapsed = now.duration_since(state.last_refill).as_secs_f64();
        state.tokens = (state.tokens + elapsed * self.rate).min(self.capacity);
        state.last_refill = now;
    }

    /// Takes one token if available; returns whether it succeeded.
    pub fn try_acquire(&self) -> bool {
        self.try_acquire_n(1.0)
    }

    /// Takes `n` tokens if available.
    pub fn try_acquire_n(&self, n: f64) -> bool {
        let mut state = self.state.lock();
        self.refill(&mut state, Instant::now());
        if state.tokens >= n {
            state.tokens -= n;
            true
        } else {
            false
        }
    }

    /// Blocks (sleeping) until one token is available, then takes it.
    /// Returns how long the caller waited (`Duration::ZERO` when a token
    /// was immediately available) — the crawler feeds this into its
    /// throttle-wait metric.
    pub fn acquire(&self) -> Duration {
        let start = Instant::now();
        let mut slept = false;
        loop {
            let wait = {
                let mut state = self.state.lock();
                let now = Instant::now();
                self.refill(&mut state, now);
                if state.tokens >= 1.0 {
                    state.tokens -= 1.0;
                    // Report exactly zero when no sleep happened, so callers
                    // can count throttled acquisitions without epsilon checks.
                    return if slept { start.elapsed() } else { Duration::ZERO };
                }
                // Time until a full token accumulates. The division can
                // overflow Duration for tiny rates; saturate instead of
                // panicking — the 50ms sleep cap below bounds the wait anyway.
                wait_for_token(state.tokens, self.rate)
            };
            slept = true;
            std::thread::sleep(wait.min(Duration::from_millis(50)));
        }
    }

    /// Time until the next token accumulates, without taking one — the
    /// server's `Retry-After` hint on 429 responses.
    pub fn time_until_available(&self) -> Duration {
        let mut state = self.state.lock();
        self.refill(&mut state, Instant::now());
        if state.tokens >= 1.0 {
            Duration::ZERO
        } else {
            wait_for_token(state.tokens, self.rate)
        }
    }

    /// Current token count (for tests/metrics).
    pub fn available(&self) -> f64 {
        let mut state = self.state.lock();
        self.refill(&mut state, Instant::now());
        state.tokens
    }
}

/// Time until a full token accumulates, saturating at `Duration::MAX` when
/// the deficit-over-rate quotient exceeds what `Duration` can represent
/// (e.g. `rate = 1e-300`).
fn wait_for_token(tokens: f64, rate: f64) -> Duration {
    Duration::try_from_secs_f64((1.0 - tokens) / rate).unwrap_or(Duration::MAX)
}

/// A bounded map of rate-limit key → [`TokenBucket`]: one
/// least-recently-used map behind one lock.
///
/// A key's tokens live in exactly one bucket, so concurrent lookups of one
/// key cannot over-grant. The map holds at most `max_keys` keys; a new key
/// in a full map evicts the least-recently-used one, which bounds memory
/// against key-cycling clients, but not their rate: an evicted key that
/// returns starts from a fresh, full bucket, so a client cycling more than
/// `max_keys` distinct keys is not rate-limited at all (ROADMAP item 7).
/// The lock is held for one map lookup, not for the token arithmetic. The
/// default epoll server calls the handler from its single reactor thread;
/// the threaded server's workers each take the lock once per request.
pub struct KeyedLimiter {
    buckets: Mutex<LruCache<Arc<str>, Arc<TokenBucket>>>,
    rate: f64,
    burst: f64,
}

/// Default cap on distinct live keys.
pub const DEFAULT_MAX_KEYS: usize = 4096;

impl KeyedLimiter {
    /// A limiter granting each key `rate` tokens/sec with `burst` capacity,
    /// holding at most [`DEFAULT_MAX_KEYS`] live keys.
    pub fn new(rate: f64, burst: f64) -> Self {
        Self::with_max_keys(rate, burst, DEFAULT_MAX_KEYS)
    }

    /// Like [`new`](Self::new), holding at most `max_keys` live keys
    /// (clamped to at least 1).
    pub fn with_max_keys(rate: f64, burst: f64, max_keys: usize) -> Self {
        KeyedLimiter { buckets: Mutex::new(LruCache::new(max_keys)), rate, burst }
    }

    /// The bucket for `key`, created on first sight (evicting the
    /// least-recently-used key when the map is full), and the number of
    /// live keys after the lookup, read under the same lock so a caller
    /// that feeds a gauge takes the lock once per request.
    pub fn bucket(&self, key: &str) -> (Arc<TokenBucket>, usize) {
        let mut buckets = self.buckets.lock();
        let bucket = match buckets.get(key) {
            Some(bucket) => Arc::clone(bucket),
            None => {
                let bucket = Arc::new(TokenBucket::new(self.rate, self.burst));
                buckets.insert(Arc::from(key), Arc::clone(&bucket));
                bucket
            }
        };
        (bucket, buckets.len())
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.buckets.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hard ceiling on live keys: the requested `max_keys`.
    pub fn capacity(&self) -> usize {
        self.buckets.lock().capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_up_to_capacity_then_empty() {
        let b = TokenBucket::new(1000.0, 5.0);
        for _ in 0..5 {
            assert!(b.try_acquire());
        }
        assert!(!b.try_acquire());
    }

    #[test]
    fn refills_over_time() {
        let b = TokenBucket::new(200.0, 1.0);
        assert!(b.try_acquire());
        assert!(!b.try_acquire());
        std::thread::sleep(Duration::from_millis(20));
        assert!(b.try_acquire(), "should have refilled ~4 tokens' worth");
    }

    #[test]
    fn acquire_blocks_until_available() {
        let b = TokenBucket::new(100.0, 1.0);
        let first = b.acquire(); // drains the bucket
        assert_eq!(first, Duration::ZERO);
        let start = Instant::now();
        let waited = b.acquire(); // must wait ~10ms for a refill
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert!(waited >= Duration::from_millis(5), "reported wait {waited:?}");
    }

    #[test]
    fn time_until_available_hints_without_consuming() {
        let b = TokenBucket::new(10.0, 1.0);
        assert_eq!(b.time_until_available(), Duration::ZERO);
        b.acquire();
        let hint = b.time_until_available();
        assert!(hint > Duration::ZERO && hint <= Duration::from_millis(100), "{hint:?}");
        // The hint did not consume the refilling token.
        std::thread::sleep(Duration::from_millis(110));
        assert!(b.try_acquire());
    }

    #[test]
    fn multi_token_acquire() {
        let b = TokenBucket::new(1000.0, 10.0);
        assert!(b.try_acquire_n(10.0));
        assert!(!b.try_acquire_n(1.0));
    }

    #[test]
    fn tokens_capped_at_capacity() {
        let b = TokenBucket::new(1_000_000.0, 3.0);
        std::thread::sleep(Duration::from_millis(10));
        assert!(b.available() <= 3.0);
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let b = Arc::new(TokenBucket::new(1e9, 100.0));
        let mut handles = Vec::new();
        let taken = Arc::new(std::sync::atomic::AtomicU32::new(0));
        for _ in 0..4 {
            let b = Arc::clone(&b);
            let taken = Arc::clone(&taken);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    if b.try_acquire() {
                        taken.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // At enormous refill rate every acquire succeeds.
        assert_eq!(taken.load(std::sync::atomic::Ordering::Relaxed), 200);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        TokenBucket::new(0.0, 1.0);
    }

    #[test]
    fn fractional_capacity_rounds_up_so_acquire_completes() {
        // Before the clamp, a 0.5-token bucket could never hold a full token
        // and acquire() spun forever.
        let b = TokenBucket::new(1000.0, 0.5);
        b.acquire();
        assert!(b.available() <= 1.0);
    }

    #[test]
    fn tiny_rate_wait_saturates_instead_of_panicking() {
        // (1 - 0) / 1e-300 overflows Duration::from_secs_f64; the helper must
        // saturate to Duration::MAX.
        assert_eq!(wait_for_token(0.0, 1e-300), Duration::MAX);
        // Sanity: a normal deficit still yields a finite wait.
        assert_eq!(wait_for_token(0.5, 10.0), Duration::from_millis(50));
    }

    #[test]
    fn oversized_request_fails_cleanly() {
        let b = TokenBucket::new(1000.0, 5.0);
        assert!(!b.try_acquire_n(6.0), "request larger than capacity can never succeed");
        assert!(b.try_acquire(), "failed oversized request must not consume tokens");
    }

    #[test]
    fn keyed_limiter_same_key_same_bucket() {
        let l = KeyedLimiter::new(1000.0, 5.0);
        let (a, live) = l.bucket("alpha");
        assert_eq!(live, 1);
        let (b, live) = l.bucket("alpha");
        assert!(Arc::ptr_eq(&a, &b), "repeat lookups must share one bucket");
        assert_eq!(live, 1);
        let (c, live) = l.bucket("beta");
        assert!(!Arc::ptr_eq(&a, &c), "distinct keys get distinct buckets");
        assert_eq!(live, 2);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn keyed_limiter_grants_exactly_burst_across_threads() {
        // 8 threads hammer the same key through fresh lookups: total grants
        // must equal the burst exactly — one key never lands in two buckets
        // and over-grants.
        let l = Arc::new(KeyedLimiter::with_max_keys(1e-6, 40.0, 1024));
        let granted = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let granted = Arc::clone(&granted);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    if l.bucket("shared-key").0.try_acquire() {
                        granted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(granted.load(std::sync::atomic::Ordering::Relaxed), 40);
    }

    #[test]
    fn keyed_limiter_keys_are_independent() {
        // Draining one key leaves every other key's burst intact.
        let l = KeyedLimiter::new(1e-6, 3.0);
        let (hog, _) = l.bucket("hog");
        while hog.try_acquire() {}
        for key in ["a", "b", "c"] {
            assert!(l.bucket(key).0.try_acquire(), "key {key:?} starved by another key");
        }
    }

    #[test]
    fn keyed_limiter_eviction_caps_live_keys() {
        // A client cycling random keys fills the map to exactly its cap and
        // no further; the cap is the requested number, not a rounding of it.
        let l = KeyedLimiter::with_max_keys(1000.0, 5.0, 63);
        let mut live = 0;
        for i in 0..10_000 {
            live = l.bucket(&format!("key-{i}")).1;
        }
        assert_eq!(l.capacity(), 63);
        assert_eq!(l.len(), 63);
        assert_eq!(live, 63, "the count returned with a bucket matches len()");
    }

    #[test]
    fn keyed_limiter_evicts_the_idle_key_not_the_active_one() {
        // Capacity 2: keep key "hot" fresh while churning others; the hot
        // bucket must survive (same Arc) the whole time.
        let l = KeyedLimiter::with_max_keys(1000.0, 5.0, 2);
        let (hot, _) = l.bucket("hot");
        for i in 0..32 {
            // Each new key fills the map and forces an eviction; "hot" was
            // touched more recently than the previous churn key.
            l.bucket(&format!("churn-{i}"));
            let (again, _) = l.bucket("hot");
            assert!(Arc::ptr_eq(&hot, &again), "hot key evicted at churn {i}");
        }
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn keyed_limiter_shared_across_threads_with_distinct_keys() {
        // Concurrent first-sight inserts across many keys: the live count
        // must match the distinct-key count (no double insert, no lost
        // entry) as long as the cap is not hit.
        let l = Arc::new(KeyedLimiter::with_max_keys(1000.0, 5.0, 1024));
        let mut handles = Vec::new();
        for t in 0..4 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for i in 0..64 {
                    // Every thread touches the same 64 keys plus 16 of its own.
                    l.bucket(&format!("common-{i}"));
                    if i < 16 {
                        l.bucket(&format!("thread-{t}-{i}"));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.len(), 64 + 4 * 16);
    }
}
