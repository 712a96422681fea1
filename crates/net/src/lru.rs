//! A bounded least-recently-used map.
//!
//! Backing store for the API server's wire-response cache and its per-key
//! rate limiter: a `HashMap` from key to slab index plus an intrusive
//! doubly-linked recency list threaded through the slab, so get/insert are
//! O(1) and eviction always removes the entry untouched for longest. No
//! unsafe, no external crates.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity map that evicts the least-recently-used entry on
/// overflow. `get` refreshes recency; `peek` does not.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (minimum 1). Storage
    /// grows with use, not with the bound: an idle cache costs nothing.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn entry(&self, idx: usize) -> &Entry<K, V> {
        self.slab[idx].as_ref().expect("linked slot must be occupied")
    }

    fn entry_mut(&mut self, idx: usize) -> &mut Entry<K, V> {
        self.slab[idx].as_mut().expect("linked slot must be occupied")
    }

    /// Unlinks slot `idx` from the recency list.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.entry(idx);
            (e.prev, e.next)
        };
        if prev != NIL {
            self.entry_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entry_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links slot `idx` at the head (most recently used).
    fn link_front(&mut self, idx: usize) {
        let head = self.head;
        {
            let e = self.entry_mut(idx);
            e.prev = NIL;
            e.next = head;
        }
        if head != NIL {
            self.entry_mut(head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key` (any borrowed form, such as `&str` for `Arc<str>`
    /// keys), marking it most recently used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.link_front(idx);
        }
        Some(&self.entry(idx).value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.entry(idx).value)
    }

    /// Inserts or replaces `key`, evicting the least-recently-used entry if
    /// the cache is full. Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.entry_mut(idx).value = value;
            if idx != self.head {
                self.unlink(idx);
                self.link_front(idx);
            }
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let entry = self.slab[victim].take().expect("tail slot must be occupied");
            self.map.remove(&entry.key);
            self.free.push(victim);
            Some((entry.key, entry.value))
        } else {
            None
        };
        let entry = Entry { key: key.clone(), value, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(entry);
                slot
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.link_front(idx);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        let entry = self.slab[idx].take().expect("mapped slot must be occupied");
        self.free.push(idx);
        Some(entry.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.get(&"a"); // refresh a: b is now LRU
        let evicted = cache.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(cache.peek(&"a").is_some());
        assert!(cache.peek(&"b").is_none());
        assert!(cache.peek(&"c").is_some());
    }

    #[test]
    fn replace_refreshes_without_evicting() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.insert("a", 10), None);
        assert_eq!(cache.len(), 2);
        let evicted = cache.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)), "replaced key must have been refreshed");
        assert_eq!(cache.peek(&"a"), Some(&10));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.remove(&"a"), Some(1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.insert("c", 3), None, "removal must free a slot");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_str_keys_are_found_by_str() {
        use std::sync::Arc;
        let mut cache: LruCache<Arc<str>, u32> = LruCache::new(2);
        cache.insert(Arc::from("alpha"), 1);
        assert_eq!(cache.get("alpha"), Some(&1));
        assert_eq!(cache.get("beta"), None);
    }

    #[test]
    fn capacity_one_always_keeps_latest() {
        let mut cache = LruCache::new(1);
        for i in 0..100 {
            cache.insert(i, i * 2);
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.peek(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut cache = LruCache::new(4);
        for i in 0..1000u32 {
            cache.insert(i, vec![i; 8]);
        }
        assert_eq!(cache.len(), 4);
        assert!(cache.slab.len() <= 5, "slab grew to {}", cache.slab.len());
        for i in 996..1000 {
            assert_eq!(cache.get(&i), Some(&vec![i; 8]));
        }
    }

    #[test]
    fn long_mixed_workload_stays_consistent() {
        // Model: churn 200 keys through a 16-slot cache with interleaved
        // gets/removes; the cache must agree with a brute-force recency list.
        let mut cache = LruCache::new(16);
        let mut model: Vec<(u32, u32)> = Vec::new(); // front = MRU
        for step in 0..5000u32 {
            let key = (step * 7919) % 200;
            match step % 5 {
                0..=2 => {
                    // insert
                    model.retain(|&(k, _)| k != key);
                    model.insert(0, (key, step));
                    if model.len() > 16 {
                        model.pop();
                    }
                    cache.insert(key, step);
                }
                3 => {
                    // get
                    let expect = model.iter().position(|&(k, _)| k == key);
                    let got = cache.get(&key).copied();
                    assert_eq!(got, expect.map(|i| model[i].1), "step {step}");
                    if let Some(i) = expect {
                        let e = model.remove(i);
                        model.insert(0, e);
                    }
                }
                _ => {
                    // remove
                    let expect = model.iter().position(|&(k, _)| k == key);
                    let got = cache.remove(&key);
                    assert_eq!(got, expect.map(|i| model[i].1), "step {step}");
                    if let Some(i) = expect {
                        model.remove(i);
                    }
                }
            }
            assert_eq!(cache.len(), model.len(), "step {step}");
        }
    }
}
