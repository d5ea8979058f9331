//! The user context cache: PPR-pruned subgraphs memoized per user id.
//!
//! Building a user's layered computation graph is the expensive half of
//! online scoring (PPR-guided edge selection over the CSR, per layer); the
//! graph is also fully determined by the user id for a frozen model. This
//! LRU-style cache keyed by user id lets repeat requests skip pruning
//! entirely: a hit hands back the shared [`Arc<LayeredGraph>`] handle and
//! the worker goes straight to the forward pass.
//!
//! All counters use saturating arithmetic — a long-lived server must never
//! wrap its metrics — and obey one invariant: **every lookup is exactly one
//! hit or one miss** (`hits + misses == lookups`), including the two
//! awkward cases. A lost build race (two threads miss the same cold user;
//! the loser's build is discarded) counts a *hit* for the loser, because
//! its request was ultimately served from the resident entry. A build that
//! panics counts a *miss* before the panic is re-raised, so fault
//! injection cannot skew the balance.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kucnet_graph::{LayeredGraph, UserId};
use parking_lot::Mutex;

/// Increments an atomic counter without ever wrapping.
pub(crate) fn saturating_inc(counter: &AtomicU64) {
    // fetch_update never fails when the closure always returns Some.
    let _ =
        counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_add(1)));
}

/// Decrements an atomic counter, stopping at zero instead of wrapping.
pub(crate) fn saturating_dec(counter: &AtomicU64) {
    let _ =
        counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
}

/// Fixed per-entry bookkeeping bytes beyond the subgraph itself: the `u32`
/// key plus the two-component [`CacheVersion`] stamp and the `last_used`
/// tick. Counted by `approx_bytes` so cache-size metrics do not undercount
/// small-graph workloads.
const ENTRY_OVERHEAD_BYTES: usize = std::mem::size_of::<u32>() + 3 * std::mem::size_of::<u64>();

/// The two-component stamp a cached subgraph is keyed under: which **model
/// generation** scored it and which **graph epoch** it was built from. An
/// entry is reusable only when *both* components match the lookup — a model
/// hot-swap and a dynamic refresh each independently invalidate it, so a
/// stale subgraph can never be served across either kind of flip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct CacheVersion {
    /// The registry's globally unique model version the entry belongs to.
    pub model: u64,
    /// The per-user graph version ([`GraphContext::user_version`]) the
    /// subgraph was built against; always 0 for static services.
    ///
    /// [`GraphContext::user_version`]: kucnet::GraphContext::user_version
    pub graph: u64,
}

impl CacheVersion {
    /// A stamp from explicit model and graph components.
    pub fn new(model: u64, graph: u64) -> Self {
        Self { model, graph }
    }
}

struct Entry {
    graph: Arc<LayeredGraph>,
    /// Stamp the subgraph was built under. Static single-model services
    /// always pass the default (0, 0); registries stamp the pinned model
    /// version and dynamic services the user's graph version, either of
    /// which going stale lazily invalidates this entry.
    version: CacheVersion,
    last_used: u64,
}

struct Inner {
    map: HashMap<u32, Entry>,
    /// Monotonic use counter; larger = more recently used.
    tick: u64,
}

/// An LRU-style cache of per-user pruned subgraphs with hit/miss counters
/// and capacity-based eviction.
pub(crate) struct SubgraphCache {
    capacity: usize,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    patched: AtomicU64,
    inner: Mutex<Inner>,
}

/// A point-in-time snapshot of cache counters.
///
/// Invariant: `hits + misses == lookups` — every lookup resolves as
/// exactly one hit or one miss, even across racing builds and builds that
/// panic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups (`SubgraphCache::get_or_insert` calls).
    pub lookups: u64,
    /// Lookups served from a resident entry (including lost build races,
    /// which are served from the winner's entry).
    pub hits: u64,
    /// Lookups that had to build the subgraph (including builds that
    /// panicked before producing one).
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Resident entries dropped because their graph version went stale —
    /// lazily (a versioned lookup found an older stamp) or eagerly
    /// (`SubgraphCache::invalidate_user` after a refresh tick).
    pub invalidations: u64,
    /// Stale entries replaced in place by a rebuild at the new version
    /// through the versioned lookup path.
    pub patched: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate heap bytes pinned by resident subgraphs, including
    /// per-entry key and stamp overhead.
    pub approx_bytes: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl SubgraphCache {
    /// Creates a cache holding at most `capacity` subgraphs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            patched: AtomicU64::new(0),
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
        }
    }

    /// LRU-touches and returns the resident entry for `user` (graph handle
    /// plus the version it was built at), if any. Counts nothing — callers
    /// decide what the probe means.
    fn probe(inner: &mut Inner, user: UserId) -> Option<(Arc<LayeredGraph>, CacheVersion)> {
        inner.tick = inner.tick.saturating_add(1);
        let tick = inner.tick;
        inner.map.get_mut(&user.0).map(|entry| {
            entry.last_used = tick;
            (Arc::clone(&entry.graph), entry.version)
        })
    }

    /// Evicts least-recently-used entries until the map fits `capacity`.
    fn evict_over_capacity(&self, inner: &mut Inner) {
        while inner.map.len() > self.capacity {
            if let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, entry)| entry.last_used) {
                inner.map.remove(&victim);
                saturating_inc(&self.evictions);
            } else {
                break;
            }
        }
    }

    /// Drops the resident entry of `user`, if any, counting an invalidation
    /// when something was actually dropped. Called eagerly after a refresh
    /// tick for users whose subgraph changed; not a lookup, so the
    /// hit/miss/lookup balance is untouched.
    pub fn invalidate_user(&self, user: UserId) -> bool {
        let removed = self.inner.lock().map.remove(&user.0).is_some();
        if removed {
            saturating_inc(&self.invalidations);
        }
        removed
    }

    /// Returns the subgraph of `user` stamped `version`, building and
    /// inserting it via `build` on a miss, plus whether the lookup resolved
    /// as a hit. The build runs outside the cache lock so slow pruning
    /// never blocks hits for other users; if two threads race on the same
    /// cold user, the first inserted graph wins and both get its handle.
    ///
    /// A resident entry only counts as a hit when its stamp equals
    /// `version` (both the model and graph components). Counter semantics,
    /// one count per call so `hits + misses == lookups` always holds:
    ///
    /// - resident at `version` on first probe → **hit**;
    /// - built and inserted → **miss**;
    /// - resident at another stamp → dropped under the lock, counting an
    ///   **invalidation**, then rebuilt as a **miss** that also counts as
    ///   **patched** (a lazy in-place version upgrade);
    /// - lost race (another thread inserted at `version` while this one
    ///   built; the discarded build is not separately counted) → **hit**,
    ///   returning the *resident* handle so racers agree on the graph;
    /// - `build` panicked → **miss**, then the panic is re-raised.
    pub fn get_or_insert(
        &self,
        user: UserId,
        version: CacheVersion,
        build: impl FnOnce() -> Arc<LayeredGraph>,
    ) -> (Arc<LayeredGraph>, bool) {
        saturating_inc(&self.lookups);
        let mut was_stale = false;
        {
            let mut inner = self.inner.lock();
            match Self::probe(&mut inner, user) {
                Some((graph, v)) if v == version => {
                    saturating_inc(&self.hits);
                    return (graph, true);
                }
                Some(_) => {
                    // Stale stamp: drop it now so no other versioned lookup
                    // can be served from it while this thread rebuilds.
                    inner.map.remove(&user.0);
                    saturating_inc(&self.invalidations);
                    was_stale = true;
                }
                None => {}
            }
        }
        let graph = match catch_unwind(AssertUnwindSafe(build)) {
            Ok(graph) => graph,
            Err(payload) => {
                // The lookup still resolves — as a miss — before the fault
                // propagates, so panicking builds never skew the balance.
                saturating_inc(&self.misses);
                resume_unwind(payload);
            }
        };
        let mut inner = self.inner.lock();
        if let Some((resident, v)) = Self::probe(&mut inner, user) {
            if v == version {
                // Another thread built it first. This call is served from
                // the resident entry, so it is a hit; the discarded build
                // stays uncounted.
                saturating_inc(&self.hits);
                return (resident, true);
            }
            // A racing insert landed an entry at a different version;
            // replace it with this build (no extra invalidation count — the
            // racer's lookup owns its own accounting).
            inner.map.remove(&user.0);
        }
        saturating_inc(&self.misses);
        if was_stale {
            saturating_inc(&self.patched);
        }
        inner.tick = inner.tick.saturating_add(1);
        let tick = inner.tick;
        inner.map.insert(user.0, Entry { graph: Arc::clone(&graph), version, last_used: tick });
        self.evict_over_capacity(&mut inner);
        (graph, false)
    }

    /// Snapshot of counters and footprint.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            patched: self.patched.load(Ordering::Relaxed),
            entries: inner.map.len(),
            approx_bytes: inner
                .map
                .values()
                .map(|e| e.graph.approx_bytes() + ENTRY_OVERHEAD_BYTES)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_graph::NodeId;

    fn tiny_graph(root: u32) -> Arc<LayeredGraph> {
        Arc::new(LayeredGraph {
            root: NodeId(root),
            node_lists: vec![vec![NodeId(root)]],
            layers: vec![],
        })
    }

    /// Looks `user` up at the default stamp, building its tiny graph on a
    /// miss; returns whether the lookup hit.
    fn fill(cache: &SubgraphCache, user: u32) -> bool {
        cache.get_or_insert(UserId(user), CacheVersion::default(), || tiny_graph(user)).1
    }

    #[test]
    fn miss_then_hit_counts() {
        let cache = SubgraphCache::new(4);
        assert!(!fill(&cache, 1));
        assert!(fill(&cache, 1));
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (2, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = SubgraphCache::new(2);
        fill(&cache, 1);
        fill(&cache, 2);
        // Touch user 1 so user 2 becomes the LRU victim.
        assert!(fill(&cache, 1));
        fill(&cache, 3);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(fill(&cache, 1) && fill(&cache, 3), "recently used entries stay resident");
        assert!(!fill(&cache, 2), "LRU entry must be evicted");
    }

    #[test]
    fn get_or_insert_builds_once_per_resident_entry() {
        let cache = SubgraphCache::new(4);
        let mut builds = 0usize;
        for _ in 0..3 {
            let (g, _) = cache.get_or_insert(UserId(7), CacheVersion::default(), || {
                builds += 1;
                tiny_graph(7)
            });
            assert_eq!(g.root, NodeId(7));
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (3, 2, 1));
    }

    #[test]
    fn lost_build_race_counts_a_hit_not_a_second_miss() {
        // Regression: the loser of a build race used to count a miss for
        // its discarded build and no hit for the resident handle it was
        // actually served, skewing hit_rate downward under concurrency.
        // The race is simulated by a build that runs the "winner's" lookup
        // re-entrantly before returning the loser's build.
        let cache = SubgraphCache::new(4);
        let v = CacheVersion::default();
        let (got, hit) = cache.get_or_insert(UserId(7), v, || {
            cache.get_or_insert(UserId(7), v, || tiny_graph(42)); // another thread wins
            tiny_graph(7) // the loser's build, to be discarded
        });
        assert_eq!(got.root, NodeId(42), "racers must agree on the resident graph");
        assert!(hit, "the loser is served from the resident entry");
        let stats = cache.stats();
        assert_eq!(
            (stats.lookups, stats.hits, stats.misses),
            (2, 1, 1),
            "the winner's build is one miss, the lost race one hit: {stats:?}"
        );
    }

    #[test]
    fn counters_balance_under_builds_races_and_panics() {
        let cache = SubgraphCache::new(4);
        let v = CacheVersion::default();
        // 1: plain miss (builds and inserts).
        fill(&cache, 1);
        // 2: plain hit.
        cache.get_or_insert(UserId(1), v, || unreachable!("resident"));
        // 3: lost race → the winner's miss plus the loser's hit.
        cache.get_or_insert(UserId(2), v, || {
            fill(&cache, 2);
            tiny_graph(2)
        });
        // 4: panicking build → miss, and the panic propagates.
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_insert(UserId(3), v, || panic!("boom"))
        }));
        assert!(panicked.is_err(), "build panic must propagate");
        // 5: another miss, 6: another hit.
        assert!(!fill(&cache, 9));
        assert!(fill(&cache, 1));

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 4), "{stats:?}");
        assert_eq!(stats.lookups, 7, "{stats:?}");
        assert_eq!(
            stats.hits + stats.misses,
            stats.lookups,
            "every lookup is exactly one hit or one miss: {stats:?}"
        );
        assert!(!fill(&cache, 3), "panicked build must leave no entry");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = SubgraphCache::new(0);
        fill(&cache, 1);
        fill(&cache, 2);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn stats_report_bytes() {
        let cache = SubgraphCache::new(4);
        fill(&cache, 1);
        assert!(cache.stats().approx_bytes > 0);
    }

    #[test]
    fn approx_bytes_counts_key_and_stamp_overhead() {
        // Regression: approx_bytes used to sum only graph payloads, so a
        // cache of tiny graphs under-reported its footprint. Each entry now
        // carries key (u32) + version + last_used (2x u64) overhead.
        let cache = SubgraphCache::new(8);
        fill(&cache, 1);
        let one = cache.stats().approx_bytes;
        fill(&cache, 2);
        let two = cache.stats().approx_bytes;
        let per_graph = tiny_graph(1).approx_bytes();
        assert_eq!(one, per_graph + ENTRY_OVERHEAD_BYTES);
        assert_eq!(two - one, per_graph + ENTRY_OVERHEAD_BYTES);
        assert_eq!(ENTRY_OVERHEAD_BYTES, 28, "u32 key + (model, graph, last_used) u64 stamps");
    }

    #[test]
    fn stale_version_invalidates_and_patches() {
        let cache = SubgraphCache::new(4);
        let v = |graph: u64| CacheVersion::new(0, graph);
        // Build at graph version 1.
        let (g1, _) = cache.get_or_insert(UserId(5), v(1), || tiny_graph(1));
        assert_eq!(g1.root, NodeId(1));
        // Same version: hit, no rebuild.
        let (again, _) = cache.get_or_insert(UserId(5), v(1), || unreachable!("resident"));
        assert_eq!(again.root, NodeId(1));
        // Version bumped: stale entry dropped and rebuilt.
        let (g2, _) = cache.get_or_insert(UserId(5), v(2), || tiny_graph(2));
        assert_eq!(g2.root, NodeId(2));
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (3, 1, 2), "{stats:?}");
        assert_eq!((stats.invalidations, stats.patched), (1, 1), "{stats:?}");
    }

    #[test]
    fn model_component_invalidates_independently_of_graph_component() {
        // A hot-swap (model bump) and a refresh (graph bump) must each drop
        // a resident entry on their own — an entry from model 1 can never be
        // served under model 2 even on an unchanged graph epoch, and vice
        // versa.
        let cache = SubgraphCache::new(4);
        let (g, hit) = cache.get_or_insert(UserId(4), CacheVersion::new(1, 0), || tiny_graph(1));
        assert_eq!((g.root, hit), (NodeId(1), false), "cold build is a miss");
        let (_, hit) = cache.get_or_insert(UserId(4), CacheVersion::new(1, 0), || unreachable!());
        assert!(hit, "matching (model, graph) stamp is a hit");
        // Model swap, same graph epoch: stale.
        let (g, hit) = cache.get_or_insert(UserId(4), CacheVersion::new(2, 0), || tiny_graph(2));
        assert_eq!((g.root, hit), (NodeId(2), false));
        // Graph refresh, same model: stale again.
        let (g, hit) = cache.get_or_insert(UserId(4), CacheVersion::new(2, 1), || tiny_graph(3));
        assert_eq!((g.root, hit), (NodeId(3), false));
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (4, 1, 3), "{stats:?}");
        assert_eq!((stats.invalidations, stats.patched), (2, 2), "{stats:?}");
    }

    #[test]
    fn eager_invalidation_counts_only_when_resident() {
        let cache = SubgraphCache::new(4);
        assert!(!cache.invalidate_user(UserId(3)), "nothing resident yet");
        fill(&cache, 3);
        assert!(cache.invalidate_user(UserId(3)));
        assert!(!cache.invalidate_user(UserId(3)), "already dropped");
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1, "{stats:?}");
        assert_eq!(stats.lookups, 1, "invalidation is not a lookup: {stats:?}");
    }

    #[test]
    fn counters_balance_under_concurrent_invalidation() {
        // The satellite invariant: hits + misses == lookups must hold while
        // versioned lookups race with eager invalidations and version bumps.
        let cache = Arc::new(SubgraphCache::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let user = UserId((i % 8) as u32);
                    let version = CacheVersion::new((t + i) % 2, (t + i) % 3);
                    let (g, _) = c.get_or_insert(user, version, || tiny_graph(user.0));
                    assert_eq!(g.root, NodeId(user.0));
                    if i % 7 == 0 {
                        c.invalidate_user(user);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups, 800, "{stats:?}");
        assert_eq!(
            stats.hits + stats.misses,
            stats.lookups,
            "every lookup is exactly one hit or one miss: {stats:?}"
        );
        assert!(stats.invalidations > 0, "races must have invalidated entries: {stats:?}");
    }

    #[test]
    fn saturating_inc_never_wraps() {
        let c = AtomicU64::new(u64::MAX - 1);
        saturating_inc(&c);
        saturating_inc(&c);
        saturating_inc(&c);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn saturating_dec_stops_at_zero() {
        let c = AtomicU64::new(1);
        saturating_dec(&c);
        saturating_dec(&c);
        assert_eq!(c.load(Ordering::Relaxed), 0);
    }
}
