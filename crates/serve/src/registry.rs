//! Versioned model registry: zero-downtime hot-swap and deterministic
//! weighted A/B routing between [`ScoreService`] variants.
//!
//! The registry is the serving layer's single source of truth for *which
//! model scores a request*. Each **variant** (an A/B arm, e.g. `"control"`
//! vs `"treatment"`) holds one atomically swappable slot with the current
//! [`PinnedModel`] — an immutable `(variant, name, version, service)`
//! binding. [`ModelRegistry::reload`] publishes a new service into a slot
//! under a slot-local write lock held only for the pointer swap; readers
//! ([`ModelRegistry::pin`]) clone the `Arc` out and never observe a torn
//! state. In-flight batches keep scoring on the `PinnedModel` they pinned
//! at dispatch, so a swap is zero-downtime by construction: old and new
//! versions overlap until the last old-pinned batch drains.
//!
//! **Version numbers are global across variants** (one shared counter), so
//! a `model_version` in a response or a cache key uniquely identifies one
//! `(variant, generation)` — two variants can never collide on a version.
//!
//! **Routing** is a pure function `(seed, user id, weights) → variant`
//! ([`route_variant`]): a SplitMix64-finalized hash of the user id picks a
//! point in the cumulative weight distribution. No state, no RNG — the
//! assignment is bitwise-stable across threads, restarts, and machines,
//! which is what makes A/B bucketing reproducible and testable.
//!
//! **Lock discipline**: the registry owns exactly one lock kind (the
//! per-variant slot `RwLock`). Every update of a slot is one
//! read-modify-write under its write lock, with the new version taken
//! inside the lock, so concurrent reloads publish their versions in order.
//! No two slots are ever locked together, and no graph, cache, or scoring
//! code runs under a slot lock, so a reload cannot interact with
//! `kucnet-dynamic`'s tick mutex (DESIGN.md §15).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kucnet_graph::{mix64, UserId};
use parking_lot::RwLock;

use crate::cache::saturating_inc;
use crate::metrics::LatencyHistogram;
use crate::ScoreService;

/// An immutable binding of one model generation to its A/B variant: the
/// unit a batch pins at dispatch and scores on until it drains.
pub struct PinnedModel {
    variant: usize,
    name: Arc<str>,
    version: u64,
    service: Arc<dyn ScoreService>,
}

impl PinnedModel {
    /// Index of the variant this model is (or was) published under.
    pub fn variant(&self) -> usize {
        self.variant
    }

    /// The variant name (shared handle, cheap to clone into replies).
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Globally unique model version (monotonic across all variants).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The scoring service of this generation.
    pub fn service(&self) -> &Arc<dyn ScoreService> {
        &self.service
    }
}

/// One A/B arm: its current model slot, routing weight, and counters.
struct VariantState {
    name: String,
    weight: AtomicU64,
    slot: RwLock<Arc<PinnedModel>>,
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    latency: LatencyHistogram,
}

/// Versioned, hot-swappable model store with weighted A/B routing.
///
/// Build one with [`ModelRegistry::new`] + [`ModelRegistry::register`]
/// (requires `&mut self`, so registration finishes before the registry is
/// shared), then wrap it in an `Arc` and hand it to
/// [`Server::start_full`](crate::Server::start_full). All runtime
/// operations ([`reload`], [`pin`], [`set_weights`]) take `&self`.
///
/// [`reload`]: ModelRegistry::reload
/// [`pin`]: ModelRegistry::pin
/// [`set_weights`]: ModelRegistry::set_weights
pub struct ModelRegistry {
    seed: u64,
    n_users: usize,
    n_items: usize,
    next_version: AtomicU64,
    swaps_total: AtomicU64,
    variants: Vec<VariantState>,
}

impl ModelRegistry {
    /// Creates an empty registry whose A/B bucketing is seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            n_users: 0,
            n_items: 0,
            next_version: AtomicU64::new(0),
            swaps_total: AtomicU64::new(0),
            variants: Vec::new(),
        }
    }

    /// A single-variant registry (`"default"`, weight 100) around `service`
    /// — what [`Server::start`](crate::Server::start) and
    /// [`Server::start_dynamic`](crate::Server::start_dynamic) wrap a plain
    /// service in before calling
    /// [`Server::start_full`](crate::Server::start_full).
    pub fn single(service: Arc<dyn ScoreService>, seed: u64) -> Self {
        let mut registry = Self::new(seed);
        // audit: allow(no-panic) — the first registration into an empty registry cannot fail
        registry.register("default", 100, service).expect("first registration is infallible");
        registry
    }

    /// Registers a new variant at construction time. Fails on a duplicate
    /// name or a user/item-space mismatch with already-registered variants
    /// (every variant must score the same id spaces, or routing would
    /// change the meaning of a request).
    pub fn register(
        &mut self,
        name: &str,
        weight: u64,
        service: Arc<dyn ScoreService>,
    ) -> Result<(), String> {
        if name.is_empty() {
            return Err("variant name must be non-empty".to_string());
        }
        if self.variants.iter().any(|v| v.name == name) {
            return Err(format!("variant `{name}` is already registered"));
        }
        self.check_dims(&service)?;
        if self.variants.is_empty() {
            self.n_users = service.n_users();
            self.n_items = service.n_items();
        }
        let variant = self.variants.len();
        let pinned = Arc::new(PinnedModel {
            variant,
            name: Arc::from(name),
            version: self.take_version(),
            service,
        });
        self.variants.push(VariantState {
            name: name.to_string(),
            weight: AtomicU64::new(weight),
            slot: RwLock::new(pinned),
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        });
        Ok(())
    }

    /// The next globally unique model version.
    fn take_version(&self) -> u64 {
        self.next_version.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Index of the variant called `name`.
    fn index_of(&self, name: &str) -> Result<usize, String> {
        self.variants
            .iter()
            .position(|v| v.name == name)
            .ok_or_else(|| format!("unknown variant `{name}`"))
    }

    fn check_dims(&self, service: &Arc<dyn ScoreService>) -> Result<(), String> {
        if self.variants.is_empty() {
            return Ok(());
        }
        if service.n_users() != self.n_users || service.n_items() != self.n_items {
            return Err(format!(
                "model dimensions mismatch: registry serves {}x{} (users x items), \
                 candidate is {}x{}",
                self.n_users,
                self.n_items,
                service.n_users(),
                service.n_items()
            ));
        }
        Ok(())
    }

    /// Number of registered variants.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// True when no variant has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// Users every registered model scores.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Items every registered model scores.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The A/B bucketing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total successful [`reload`](ModelRegistry::reload) swaps so far.
    pub fn swaps_total(&self) -> u64 {
        self.swaps_total.load(Ordering::Relaxed)
    }

    /// Current `(name, weight)` of every variant, in registration order.
    pub fn weights(&self) -> Vec<(String, u64)> {
        self.variants.iter().map(|v| (v.name.clone(), v.weight.load(Ordering::Relaxed))).collect()
    }

    /// Atomically publishes `service` as the new generation of variant
    /// `name` and returns its globally unique version. Dimension-checked
    /// against the registry's id spaces. The slot write lock is held only
    /// for the read-modify-write of the slot — never across any graph,
    /// cache, or scoring call — so a reload can neither block nor deadlock
    /// against in-flight batches or a dynamic `refresh_tick`.
    pub fn reload(&self, name: &str, service: Arc<dyn ScoreService>) -> Result<u64, String> {
        let variant = self.index_of(name)?;
        self.check_dims(&service)?;
        #[cfg(test)]
        tests::before_slot_write();
        let mut slot = self.variants[variant].slot.write();
        let pinned = PinnedModel {
            variant,
            name: Arc::clone(&slot.name),
            version: self.take_version(),
            service,
        };
        let version = pinned.version;
        *slot = Arc::new(pinned);
        drop(slot);
        saturating_inc(&self.swaps_total);
        Ok(version)
    }

    /// Replaces the routing weights. Every name must be a registered
    /// variant; names absent from `pairs` keep their current weight. The
    /// update is applied only after all names validate, so a typo cannot
    /// leave the split half-changed.
    pub fn set_weights(&self, pairs: &[(String, u64)]) -> Result<(), String> {
        let updates = pairs
            .iter()
            .map(|(name, weight)| Ok((self.index_of(name)?, *weight)))
            .collect::<Result<Vec<(usize, u64)>, String>>()?;
        for (idx, weight) in updates {
            self.variants[idx].weight.store(weight, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Pins the current generation of every variant plus the current
    /// weights — one consistent routing table for a batch. Each slot's read
    /// guard is dropped immediately after the `Arc` clone, so a pin never
    /// blocks a concurrent reload for longer than a pointer copy.
    pub fn pin(&self) -> RegistryPin {
        let models: Vec<Arc<PinnedModel>> =
            self.variants.iter().map(|v| Arc::clone(&v.slot.read())).collect();
        let weights: Vec<u64> =
            self.variants.iter().map(|v| v.weight.load(Ordering::Relaxed)).collect();
        RegistryPin { seed: self.seed, weights, models }
    }

    /// Counts one answered request for variant `idx`.
    pub fn record_request(&self, idx: usize) {
        if let Some(v) = self.variants.get(idx) {
            saturating_inc(&v.requests);
        }
    }

    /// Records one end-to-end latency observation for variant `idx`.
    pub fn record_latency_us(&self, idx: usize, micros: u64) {
        if let Some(v) = self.variants.get(idx) {
            v.latency.record(micros);
        }
    }

    /// Counts one subgraph-cache outcome (`hit`/miss) for variant `idx`.
    pub fn record_cache(&self, idx: usize, hit: bool) {
        if let Some(v) = self.variants.get(idx) {
            saturating_inc(if hit { &v.cache_hits } else { &v.cache_misses });
        }
    }

    /// Renders the registry's `/metrics` lines: swap count plus per-variant
    /// weight, live model version, request count, cache hit/miss split, and
    /// latency percentiles, in the same flat `name value` style as
    /// [`ServeMetrics::render`](crate::ServeMetrics::render).
    pub fn render_metrics(&self) -> String {
        let mut out = String::with_capacity(256);
        let mut line = |name: String, value: String| {
            out.push_str(&name);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        };
        line("kucnet_model_swaps_total".to_string(), self.swaps_total().to_string());
        line("kucnet_variants".to_string(), self.variants.len().to_string());
        for v in &self.variants {
            let prefix = format!("kucnet_variant_{}", v.name);
            let version = v.slot.read().version;
            let hits = v.cache_hits.load(Ordering::Relaxed);
            let misses = v.cache_misses.load(Ordering::Relaxed);
            let total = hits.saturating_add(misses);
            let hit_rate = if total == 0 { 0.0 } else { hits as f64 / total as f64 };
            line(format!("{prefix}_weight"), v.weight.load(Ordering::Relaxed).to_string());
            line(format!("{prefix}_model_version"), version.to_string());
            line(format!("{prefix}_requests"), v.requests.load(Ordering::Relaxed).to_string());
            line(format!("{prefix}_cache_hits"), hits.to_string());
            line(format!("{prefix}_cache_misses"), misses.to_string());
            line(format!("{prefix}_cache_hit_rate"), format!("{hit_rate:.6}"));
            line(format!("{prefix}_latency_p50_us"), v.latency.quantile_us(0.50).to_string());
            line(format!("{prefix}_latency_p95_us"), v.latency.quantile_us(0.95).to_string());
        }
        out
    }
}

/// A consistent point-in-time view of the registry: one [`PinnedModel`] per
/// variant plus the weights, captured once per batch. Routing through the
/// pin guarantees every request in the batch sees the same generation even
/// if a reload or weight change lands mid-batch.
pub struct RegistryPin {
    seed: u64,
    weights: Vec<u64>,
    models: Vec<Arc<PinnedModel>>,
}

impl RegistryPin {
    /// The pinned models, indexed by variant.
    pub fn models(&self) -> &[Arc<PinnedModel>] {
        &self.models
    }

    /// Deterministically routes `user` to a variant index under the pinned
    /// weights (see [`route_variant`]).
    pub fn route(&self, user: UserId) -> usize {
        route_variant(self.seed, user.0, &self.weights)
    }

    /// The pinned model `user` routes to.
    pub fn model_for(&self, user: UserId) -> &Arc<PinnedModel> {
        &self.models[self.route(user)]
    }
}

/// Deterministic weighted A/B bucketing: hashes `(seed, user)` onto a point
/// in the cumulative distribution of `weights` and returns the variant
/// index it lands in. A pure function — same inputs, same variant, on every
/// thread, restart, and machine. All-zero (or empty) weights route
/// everything to variant 0 so a misconfigured split degrades to "serve the
/// first variant" instead of a panic.
pub fn route_variant(seed: u64, user: u32, weights: &[u64]) -> usize {
    if weights.len() <= 1 {
        return 0;
    }
    let total = weights.iter().fold(0u64, |acc, &w| acc.saturating_add(w));
    if total == 0 {
        return 0;
    }
    let h = mix64(seed ^ (u64::from(user) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut point = h % total;
    for (idx, &w) in weights.iter().enumerate() {
        if point < w {
            return idx;
        }
        point -= w;
    }
    weights.len() - 1
}

/// Builds a fresh [`ScoreService`] from a checkpoint path on behalf of
/// `POST /admin/reload`. The serving library stays model-agnostic: a
/// deployment supplies a loader that knows its config and CKG (e.g.
/// `KucNet::new` + `load_params`), and the server wires HTTP reloads
/// through it into [`ModelRegistry::reload`].
pub trait ModelLoader: Send + Sync {
    /// Loads a replacement service for `variant` from `path`. The returned
    /// service must score the registry's user/item spaces; a mismatch is
    /// rejected at [`ModelRegistry::reload`] time.
    fn load(&self, variant: &str, path: &str) -> Result<Arc<dyn ScoreService>, String>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_graph::{LayeredGraph, NodeId};
    use std::cell::RefCell;

    thread_local! {
        /// What the current test wants to happen between an update's start
        /// and its slot write, on this thread.
        static RACE: RefCell<Option<Box<dyn FnOnce()>>> = RefCell::new(None);
    }

    /// The seam `reload` passes just before taking the slot write lock:
    /// runs (once) the interleaving a test armed.
    pub(super) fn before_slot_write() {
        if let Some(race) = RACE.with(|r| r.borrow_mut().take()) {
            race();
        }
    }

    fn arm_race(race: impl FnOnce() + 'static) {
        RACE.with(|r| *r.borrow_mut() = Some(Box::new(race)));
    }

    struct Stub {
        tag: u32,
        n_users: usize,
        n_items: usize,
    }

    impl ScoreService for Stub {
        fn name(&self) -> String {
            format!("stub{}", self.tag)
        }

        fn n_users(&self) -> usize {
            self.n_users
        }

        fn n_items(&self) -> usize {
            self.n_items
        }

        fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph> {
            Arc::new(LayeredGraph {
                root: NodeId(user.0),
                node_lists: vec![vec![NodeId(user.0)]],
                layers: vec![],
            })
        }

        fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
            let u = graph.root.0 as usize + self.tag as usize;
            (0..self.n_items).map(|i| ((u * 31 + i * 17) % 97) as f32).collect()
        }
    }

    fn stub(tag: u32) -> Arc<dyn ScoreService> {
        Arc::new(Stub { tag, n_users: 16, n_items: 8 })
    }

    #[test]
    fn versions_are_global_and_monotonic_across_variants() {
        let mut r = ModelRegistry::new(7);
        r.register("control", 90, stub(0)).unwrap();
        r.register("treatment", 10, stub(1)).unwrap();
        let pin = r.pin();
        assert_eq!(pin.models()[0].version(), 1);
        assert_eq!(pin.models()[1].version(), 2);
        let v3 = r.reload("control", stub(2)).unwrap();
        assert_eq!(v3, 3);
        let v4 = r.reload("treatment", stub(3)).unwrap();
        assert_eq!(v4, 4);
        assert_eq!(r.swaps_total(), 2);
    }

    #[test]
    fn duplicate_and_unknown_variants_are_rejected() {
        let mut r = ModelRegistry::new(0);
        r.register("a", 1, stub(0)).unwrap();
        assert!(r.register("a", 1, stub(1)).is_err());
        assert!(r.register("", 1, stub(1)).is_err());
        assert!(r.reload("nope", stub(1)).is_err());
        assert!(r.set_weights(&[("nope".to_string(), 5)]).is_err());
    }

    #[test]
    fn dimension_mismatch_is_rejected_on_register_and_reload() {
        let mut r = ModelRegistry::new(0);
        r.register("a", 1, stub(0)).unwrap();
        let wrong: Arc<dyn ScoreService> = Arc::new(Stub { tag: 9, n_users: 3, n_items: 8 });
        assert!(r.register("b", 1, Arc::clone(&wrong)).is_err());
        assert!(r.reload("a", wrong).is_err());
        assert_eq!(r.swaps_total(), 0, "a failed reload must not count as a swap");
    }

    #[test]
    fn reload_does_not_disturb_an_existing_pin() {
        let mut r = ModelRegistry::new(0);
        r.register("a", 1, stub(0)).unwrap();
        let pin = r.pin();
        r.reload("a", stub(1)).unwrap();
        // The old pin still scores on the old generation.
        assert_eq!(pin.models()[0].version(), 1);
        assert_eq!(pin.models()[0].service().name(), "stub0");
        // A fresh pin sees the new one.
        let fresh = r.pin();
        assert_eq!(fresh.models()[0].version(), 2);
        assert_eq!(fresh.models()[0].service().name(), "stub1");
    }

    #[test]
    fn routing_is_pure_and_respects_degenerate_weights() {
        for user in 0..64u32 {
            assert_eq!(route_variant(1, user, &[0, 100]), 1, "zero weight must never route");
            assert_eq!(route_variant(1, user, &[100, 0]), 0);
            assert_eq!(route_variant(1, user, &[0, 0]), 0, "all-zero weights fall back to 0");
            assert_eq!(route_variant(1, user, &[5]), 0);
            assert_eq!(route_variant(1, user, &[]), 0);
            assert_eq!(
                route_variant(9, user, &[50, 50]),
                route_variant(9, user, &[50, 50]),
                "routing must be deterministic"
            );
        }
    }

    #[test]
    fn routing_split_tracks_weights() {
        let n = 1000u32;
        let count = |weights: &[u64]| -> usize {
            (0..n).filter(|&u| route_variant(42, u, weights) == 1).count()
        };
        let half = count(&[50, 50]);
        assert!((400..=600).contains(&half), "50/50 split off: {half}/1000 to variant 1");
        let tenth = count(&[90, 10]);
        assert!((50..=160).contains(&tenth), "90/10 split off: {tenth}/1000 to variant 1");
    }

    #[test]
    fn set_weights_is_all_or_nothing() {
        let mut r = ModelRegistry::new(0);
        r.register("a", 90, stub(0)).unwrap();
        r.register("b", 10, stub(1)).unwrap();
        let err = r.set_weights(&[("a".to_string(), 0), ("zzz".to_string(), 100)]);
        assert!(err.is_err());
        assert_eq!(r.weights(), vec![("a".to_string(), 90), ("b".to_string(), 10)]);
        r.set_weights(&[("a".to_string(), 0), ("b".to_string(), 100)]).unwrap();
        assert_eq!(r.weights(), vec![("a".to_string(), 0), ("b".to_string(), 100)]);
    }

    #[test]
    fn a_reload_landing_inside_a_reload_publishes_in_version_order() {
        // Each reload takes its version inside the slot write lock, so the
        // one that publishes last carries the highest version: the live
        // version never moves backwards and neither swap goes uncounted.
        let mut r = ModelRegistry::new(0);
        r.register("a", 100, stub(0)).unwrap();
        let r = Arc::new(r);
        let racer = Arc::clone(&r);
        arm_race(move || {
            assert_eq!(racer.reload("a", stub(1)).unwrap(), 2);
        });
        assert_eq!(
            r.reload("a", stub(2)).unwrap(),
            3,
            "the outer reload publishes after the racer"
        );
        let pin = r.pin();
        let live = &pin.models()[0];
        assert_eq!(live.service().name(), "stub2", "the last publish is live");
        assert_eq!((live.version(), r.swaps_total()), (3, 2));
    }

    #[test]
    fn metrics_render_per_variant_lines() {
        let mut r = ModelRegistry::new(0);
        r.register("control", 90, stub(0)).unwrap();
        r.register("treatment", 10, stub(1)).unwrap();
        r.record_request(0);
        r.record_cache(0, true);
        r.record_cache(0, false);
        r.record_latency_us(0, 750);
        r.reload("treatment", stub(2)).unwrap();
        let body = r.render_metrics();
        for key in [
            "kucnet_model_swaps_total 1",
            "kucnet_variants 2",
            "kucnet_variant_control_weight 90",
            "kucnet_variant_control_model_version 1",
            "kucnet_variant_control_requests 1",
            "kucnet_variant_control_cache_hits 1",
            "kucnet_variant_control_cache_misses 1",
            "kucnet_variant_control_cache_hit_rate 0.5",
            "kucnet_variant_control_latency_p50_us 1000",
            "kucnet_variant_treatment_model_version 3",
            "kucnet_variant_treatment_requests 0",
        ] {
            assert!(body.contains(key), "missing `{key}` in:\n{body}");
        }
    }
}
