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
//! different key and can never be served stale data. Each entry sits behind
//! an `Arc` so concurrent readers share one allocation.
//!
//! The cache is an unbounded memo, and stays small because its keys are
//! *data graphs*, never per-query subgraphs: a batch, a training run or a
//! daemon works against one data graph, so it holds one entry per key in
//! use (in practice one or two). Never key it by anything a query creates.

use crate::Graph;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug)]
struct Entry<K, V> {
    fingerprint: u64,
    key: K,
    value: Arc<V>,
}

/// Thread-safe `(graph content, key) → value` cache.
///
/// Readers take a shared lock; a miss computes outside any lock and then
/// double-checks under the write lock, so concurrent first requests for the
/// same graph do redundant work at worst, never deadlock or corruption.
#[derive(Debug)]
pub struct GraphCache<K, V> {
    entries: RwLock<Vec<Entry<K, V>>>,
}

impl<K, V> Default for GraphCache<K, V> {
    fn default() -> Self {
        GraphCache {
            entries: RwLock::new(Vec::new()),
        }
    }
}

impl<K: PartialEq + Clone, V> GraphCache<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
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
        if let Some(hit) = find(&self.read(), fp, key) {
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

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    // A panicking lock holder cannot leave the entry list half-updated
    // (the only mutation is a single push), so a poisoned lock is
    // recovered rather than propagated.
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

    fn insert_or_share(&self, fp: u64, key: K, value: Arc<V>) -> Arc<V> {
        let mut entries = self.write();
        // Another thread may have inserted while we computed; keep the
        // existing entry so all readers share one allocation.
        if let Some(existing) = find(&entries, fp, &key) {
            return existing;
        }
        entries.push(Entry {
            fingerprint: fp,
            key,
            value: Arc::clone(&value),
        });
        value
    }
}

fn find<K: PartialEq, V>(entries: &[Entry<K, V>], fp: u64, key: &K) -> Option<Arc<V>> {
    entries
        .iter()
        .find(|e| e.fingerprint == fp && e.key == *key)
        .map(|e| Arc::clone(&e.value))
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
}
