//! Shared, thread-safe cache of per-graph derived data.
//!
//! The pipeline repeats two expensive graph-wide precomputations across a
//! query batch — vertex profiles (local pruning) and Eq. 1 feature matrices
//! (whole-graph featurization) — and both depend only on the graph's content
//! and a small key (a radius, a feature configuration). [`GraphCache`] is
//! the one memoization of that shape; `neursc_match::ProfileCache` and
//! `neursc_gnn::FeatureCache` are instantiations of it.
//!
//! Entries are keyed by [`Graph::content_fingerprint`], not by pointer or
//! name: a graph rebuilt with any change to labels or edges hashes to a
//! different key and can never be served stale data. By default the cache
//! holds an unbounded list of entries — in practice one data graph × one or
//! two keys — each behind an `Arc` so concurrent readers share one
//! allocation. Long-running servers that see many distinct data graphs can
//! bound it with [`GraphCache::with_capacity`]: over-capacity inserts evict
//! the least-recently-used entry and count it in
//! [`GraphCache::evicted_total`].

use crate::Graph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug)]
struct Entry<K, V> {
    fingerprint: u64,
    key: K,
    value: Arc<V>,
    /// Recency stamp from the cache-wide tick, updated on every hit (atomic
    /// so hits stay on the shared read lock).
    last_used: AtomicU64,
}

/// Thread-safe `(graph content, key) → value` cache.
///
/// Readers take a shared lock; a miss computes outside any lock and then
/// double-checks under the write lock, so concurrent first requests for the
/// same graph do redundant work at worst, never deadlock or corruption.
#[derive(Debug)]
pub struct GraphCache<K, V> {
    entries: RwLock<Vec<Entry<K, V>>>,
    /// Maximum number of entries; 0 = unbounded (the offline default).
    capacity: usize,
    /// Monotonic recency clock.
    tick: AtomicU64,
    /// Total entries evicted over the cache's lifetime.
    evicted: AtomicU64,
}

impl<K, V> Default for GraphCache<K, V> {
    fn default() -> Self {
        GraphCache {
            entries: RwLock::new(Vec::new()),
            capacity: 0,
            tick: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }
}

impl<K: PartialEq + Clone, V> GraphCache<K, V> {
    /// An empty, unbounded cache (the offline default — nothing is ever
    /// evicted, preserving bit-determinism of repeated runs).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to at most `capacity` entries (min 1). When
    /// an insert exceeds the bound, the least-recently-used entry is
    /// dropped and counted in [`Self::evicted_total`]; outstanding `Arc`s
    /// to an evicted value stay valid.
    pub fn with_capacity(capacity: usize) -> Self {
        GraphCache {
            capacity: capacity.max(1),
            ..Self::default()
        }
    }

    /// Total entries evicted since construction (0 while unbounded).
    pub fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Returns the value for `(g, key)`, running `build` and memoizing its
    /// result on first request. Also reports whether the request hit the
    /// cache and how long a miss spent in `build` (`build_ns`, 0 on a hit)
    /// — plain data the core layer turns into hit/miss counters and spans.
    pub fn get_or_build(
        &self,
        g: &Graph,
        key: &K,
        build: impl FnOnce() -> V,
    ) -> (Arc<V>, bool, u64) {
        let fp = g.content_fingerprint();
        if let Some(hit) = self.lookup(fp, key) {
            return (hit, true, 0);
        }
        let t0 = std::time::Instant::now();
        let built = Arc::new(build());
        let build_ns = t0.elapsed().as_nanos() as u64;
        (
            self.insert_or_share(fp, key.clone(), built),
            false,
            build_ns,
        )
    }

    /// Whether `(g, key)` is already memoized, without computing anything.
    pub fn contains(&self, g: &Graph, key: &K) -> bool {
        self.lookup(g.content_fingerprint(), key).is_some()
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Drops all entries (outstanding `Arc`s stay valid).
    pub fn clear(&self) {
        self.write().clear();
    }

    // A panicking lock holder cannot leave the entry list half-updated
    // (every mutation is a single push / swap_remove / clear), so a
    // poisoned lock is recovered rather than propagated.
    fn read(&self) -> RwLockReadGuard<'_, Vec<Entry<K, V>>> {
        self.entries
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Entry<K, V>>> {
        self.entries
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn stamp(&self, e: &Entry<K, V>) {
        e.last_used
            .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    fn lookup(&self, fp: u64, key: &K) -> Option<Arc<V>> {
        self.read()
            .iter()
            .find(|e| e.fingerprint == fp && e.key == *key)
            .map(|e| {
                self.stamp(e);
                Arc::clone(&e.value)
            })
    }

    fn insert_or_share(&self, fp: u64, key: K, value: Arc<V>) -> Arc<V> {
        let mut entries = self.write();
        // Another thread may have inserted while we computed; keep the
        // existing entry so all readers share one allocation.
        if let Some(e) = entries.iter().find(|e| e.fingerprint == fp && e.key == key) {
            self.stamp(e);
            return Arc::clone(&e.value);
        }
        let entry = Entry {
            fingerprint: fp,
            key,
            value: Arc::clone(&value),
            last_used: AtomicU64::new(0),
        };
        self.stamp(&entry);
        entries.push(entry);
        if self.capacity > 0 {
            while entries.len() > self.capacity {
                // Evict the least-recently-used entry (smallest stamp).
                let Some(victim) = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                    .map(|(i, _)| i)
                else {
                    break;
                };
                entries.swap_remove(victim);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cached "derived data" of these tests: the graph's degree
    /// sequence scaled by the key.
    type Cache = GraphCache<u32, Vec<usize>>;

    fn build(g: &Graph, k: u32) -> Vec<usize> {
        g.vertices().map(|v| g.degree(v) * k as usize).collect()
    }

    fn get(cache: &Cache, g: &Graph, k: u32) -> Arc<Vec<usize>> {
        cache.get_or_build(g, &k, || build(g, k)).0
    }

    fn path3() -> Graph {
        Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn second_request_is_a_hit_sharing_one_allocation() {
        let cache = Cache::new();
        let g = path3();
        let (a, hit_a, _) = cache.get_or_build(&g, &2, || build(&g, 2));
        let (b, hit_b, build_ns) =
            cache.get_or_build(&g, &2, || unreachable!("hit must not build"));
        assert!(!hit_a && hit_b);
        assert_eq!(build_ns, 0);
        assert!(Arc::ptr_eq(&a, &b), "second request recomputed");
        assert_eq!(*a, vec![2, 4, 2]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_are_cached_independently() {
        let cache = Cache::new();
        let g = path3();
        let k1 = get(&cache, &g, 1);
        let k2 = get(&cache, &g, 2);
        assert_eq!(cache.len(), 2);
        assert_ne!(*k1, *k2);
    }

    #[test]
    fn stale_content_is_never_served() {
        // A "mutated" graph (graphs are immutable, so mutation means a
        // rebuilt graph with different content) must get a fresh entry.
        let cache = Cache::new();
        let g = path3();
        let before = get(&cache, &g, 1);
        // Same shape, one extra edge → degrees change.
        let mutated = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let after = get(&cache, &mutated, 1);
        assert_eq!(cache.len(), 2, "mutated graph must occupy its own entry");
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(*after, build(&mutated, 1));
        assert_ne!(*before, *after);
        // A label-only change is a different graph too.
        let relabeled = Graph::from_edges(3, &[0, 1, 1], &[(0, 1), (1, 2)]).unwrap();
        let _ = get(&cache, &relabeled, 1);
        assert_eq!(cache.len(), 3);
        // The original graph still hits its own (unchanged) entry.
        assert!(Arc::ptr_eq(&before, &get(&cache, &g, 1)));
    }

    #[test]
    fn concurrent_first_requests_converge_to_one_entry() {
        let cache = Cache::new();
        let g = path3();
        let barrier = std::sync::Barrier::new(4);
        let values: Vec<Arc<Vec<usize>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        get(&cache, &g, 2)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        for v in &values {
            assert_eq!(**v, build(&g, 2));
        }
        // Every later reader shares the one surviving allocation.
        let winner = get(&cache, &g, 2);
        assert!(values.iter().any(|v| Arc::ptr_eq(v, &winner)));
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = Cache::with_capacity(2);
        let g = path3();
        let k1 = get(&cache, &g, 1);
        let _k2 = get(&cache, &g, 2);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(Arc::ptr_eq(&k1, &get(&cache, &g, 1)));
        let _k3 = get(&cache, &g, 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted_total(), 1);
        assert!(cache.contains(&g, &1), "recently-used entry survived");
        assert!(cache.contains(&g, &3), "new entry present");
        assert!(!cache.contains(&g, &2), "LRU entry evicted");
        // The evicted value is recomputed on demand, correctly.
        assert_eq!(*get(&cache, &g, 2), build(&g, 2));
        assert_eq!(cache.evicted_total(), 2, "recompute evicted the next LRU");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = Cache::new();
        let g = path3();
        for k in 1..=6 {
            let _ = get(&cache, &g, k);
        }
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.evicted_total(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_outstanding_arcs_valid() {
        let cache = Cache::new();
        let g = path3();
        let v = get(&cache, &g, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(v.len(), g.n_vertices()); // still readable
    }
}
