//! Seeded, deterministic fault injection for the serving path.
//!
//! [`FaultyService`] wraps any [`ScoreService`] and injects faults at
//! configurable rates: panics (string payload), "error replies" (panics
//! with a typed non-string [`InjectedFault`] payload, exercising the
//! payload-agnostic capture path in `kucnet-par`), and delays. The chaos
//! test suite and `bench_chaos` use it to prove the server contains
//! faults instead of propagating them: one hostile subgraph build must
//! cost exactly one 500, never a hung client or a silently shrunken
//! worker pool.
//!
//! Fault decisions are a pure function of `(seed, call counter)` via a
//! SplitMix64 finalizer, so a single-threaded caller sees an exactly
//! reproducible fault sequence; under concurrency the *sequence* of draws
//! is fixed by the seed while their assignment to calls follows arrival
//! order. `panic_users` additionally forces a panic on every subgraph
//! build for the listed user ids — the deterministic hook the mixed-batch
//! regression test pins its 200/500 split on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kucnet_graph::{mix64, LayeredGraph, UserId};
use kucnet_tensor::MatrixPool;

use crate::cache::saturating_inc;
use crate::ScoreService;

/// Fault rates and targeting for a [`FaultyService`].
///
/// `panic_rate`, `error_rate`, and `delay_rate` partition one uniform draw
/// per intercepted call, so their sum must stay `<= 1.0`; the remainder is
/// the pass-through probability.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability a [`build_user_graph`](ScoreService::build_user_graph)
    /// call panics with a string payload.
    pub panic_rate: f64,
    /// Probability a call panics with a typed [`InjectedFault`] payload
    /// (a non-string "error reply").
    pub error_rate: f64,
    /// Probability a call stalls for [`delay`](FaultConfig::delay) before
    /// proceeding normally.
    pub delay_rate: f64,
    /// How long an injected delay stalls the call.
    pub delay: Duration,
    /// User ids whose subgraph builds *always* panic, independent of the
    /// rates above (deterministic targeting for regression tests).
    pub panic_users: Vec<u32>,
    /// Probability a [`score_graph`](ScoreService::score_graph) /
    /// [`score_items_pooled`](ScoreService::score_items_pooled) call
    /// panics (builds and scores fail independently).
    pub score_panic_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FF_EE00,
            panic_rate: 0.0,
            error_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(1),
            panic_users: Vec::new(),
            score_panic_rate: 0.0,
        }
    }
}

/// Counters describing what a [`FaultyService`] actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Calls intercepted (builds + scores).
    pub calls: u64,
    /// String-payload panics injected (targeted + rate-driven).
    pub injected_panics: u64,
    /// Typed-payload ([`InjectedFault`]) panics injected.
    pub injected_errors: u64,
    /// Delays injected.
    pub injected_delays: u64,
}

/// Typed panic payload for injected "error replies": deliberately not a
/// `String`, so fault capture must survive arbitrary payloads.
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// User whose call carried the fault.
    pub user: u32,
    /// Global call number the fault fired on.
    pub call: u64,
}

/// A [`ScoreService`] decorator injecting seeded, deterministic faults.
pub struct FaultyService {
    inner: Arc<dyn ScoreService>,
    config: FaultConfig,
    calls: AtomicU64,
    panics: AtomicU64,
    errors: AtomicU64,
    delays: AtomicU64,
}

/// Maps a hash onto a uniform draw in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultyService {
    /// Wraps `inner`, injecting faults per `config`.
    pub fn new(inner: Arc<dyn ScoreService>, config: FaultConfig) -> Self {
        Self {
            inner,
            config,
            calls: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// Snapshot of injection counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            calls: self.calls.load(Ordering::Relaxed),
            injected_panics: self.panics.load(Ordering::Relaxed),
            injected_errors: self.errors.load(Ordering::Relaxed),
            injected_delays: self.delays.load(Ordering::Relaxed),
        }
    }

    /// Rolls the fault dice for one intercepted call; panics or delays
    /// according to the configured rates, otherwise returns normally.
    fn roll(&self, user: u32, panic_rate: f64) {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let r = unit(mix64(self.config.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        if r < panic_rate {
            saturating_inc(&self.panics);
            // audit: allow(no-panic) — deliberate fault injection; panicking is this type's purpose
            panic!("injected panic: user {user}, call {n}");
        }
        if r < panic_rate + self.config.error_rate {
            saturating_inc(&self.errors);
            std::panic::panic_any(InjectedFault { user, call: n });
        }
        if r < panic_rate + self.config.error_rate + self.config.delay_rate {
            saturating_inc(&self.delays);
            std::thread::sleep(self.config.delay);
        }
    }
}

impl ScoreService for FaultyService {
    fn name(&self) -> String {
        format!("faulty({})", self.inner.name())
    }

    fn n_users(&self) -> usize {
        self.inner.n_users()
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }

    fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph> {
        if self.config.panic_users.contains(&user.0) {
            saturating_inc(&self.panics);
            // audit: allow(no-panic) — deliberate fault injection; panicking is this type's purpose
            panic!("injected panic: targeted user {}", user.0);
        }
        self.roll(user.0, self.config.panic_rate);
        self.inner.build_user_graph(user)
    }

    fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
        self.roll(graph.root.0, self.config.score_panic_rate);
        self.inner.score_graph(graph)
    }

    fn score_items_pooled(&self, pool: &mut MatrixPool, graph: &LayeredGraph) -> Vec<(u32, f32)> {
        self.roll(graph.root.0, self.config.score_panic_rate);
        self.inner.score_items_pooled(pool, graph)
    }

    fn explain_item(
        &self,
        user: UserId,
        item: u32,
        threshold: f32,
    ) -> Option<kucnet::ExplainOutput> {
        // Explanations pass through un-faulted: chaos tests target the
        // scoring path, and an explanation must stay comparable bytewise to
        // its offline reference even under injection.
        self.inner.explain_item(user, item, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_graph::NodeId;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    struct Clean {
        n_items: usize,
    }

    impl ScoreService for Clean {
        fn name(&self) -> String {
            "clean".to_string()
        }

        fn n_users(&self) -> usize {
            8
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
            (0..self.n_items).map(|i| (graph.root.0 as usize + i) as f32).collect()
        }
    }

    fn faulty(config: FaultConfig) -> FaultyService {
        FaultyService::new(Arc::new(Clean { n_items: 5 }), config)
    }

    #[test]
    fn zero_rates_pass_through() {
        let svc = faulty(FaultConfig::default());
        for u in 0..8u32 {
            let scores = svc.score_user(UserId(u));
            assert_eq!(scores.len(), 5);
        }
        let stats = svc.stats();
        assert_eq!(stats.injected_panics + stats.injected_errors + stats.injected_delays, 0);
        assert!(stats.calls >= 16, "builds and scores are both intercepted: {stats:?}");
    }

    #[test]
    fn targeted_user_always_panics() {
        let svc = faulty(FaultConfig { panic_users: vec![3], ..FaultConfig::default() });
        for _ in 0..3 {
            let err = catch_unwind(AssertUnwindSafe(|| svc.build_user_graph(UserId(3))))
                .expect_err("targeted build must panic");
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("targeted user 3"), "{msg}");
        }
        // Other users are untouched.
        assert_eq!(svc.build_user_graph(UserId(2)).root, NodeId(2));
        assert_eq!(svc.stats().injected_panics, 3);
    }

    #[test]
    fn panic_rate_one_always_panics_and_rate_zero_never_does() {
        let always = faulty(FaultConfig { panic_rate: 1.0, ..FaultConfig::default() });
        assert!(catch_unwind(AssertUnwindSafe(|| always.build_user_graph(UserId(0)))).is_err());
        let never = faulty(FaultConfig { panic_rate: 0.0, ..FaultConfig::default() });
        assert!(catch_unwind(AssertUnwindSafe(|| never.build_user_graph(UserId(0)))).is_ok());
    }

    #[test]
    fn fault_sequence_is_deterministic_for_a_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let svc = faulty(FaultConfig { seed, panic_rate: 0.3, ..FaultConfig::default() });
            (0..40u32)
                .map(|u| {
                    catch_unwind(AssertUnwindSafe(|| svc.build_user_graph(UserId(u % 8)))).is_err()
                })
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same fault sequence");
        assert_ne!(run(42), run(43), "different seeds must differ somewhere");
        assert!(run(42).iter().any(|&p| p), "rate 0.3 over 40 calls must panic at least once");
        assert!(!run(42).iter().all(|&p| p), "rate 0.3 must also pass some calls");
    }

    #[test]
    fn error_faults_carry_typed_payloads() {
        let svc = faulty(FaultConfig { error_rate: 1.0, ..FaultConfig::default() });
        let err = catch_unwind(AssertUnwindSafe(|| svc.build_user_graph(UserId(5))))
            .expect_err("error fault must unwind");
        let fault = err.downcast_ref::<InjectedFault>().expect("typed payload");
        assert_eq!(fault.user, 5);
        assert_eq!(svc.stats().injected_errors, 1);
    }

    #[test]
    fn delay_faults_stall_but_succeed() {
        let svc = faulty(FaultConfig {
            delay_rate: 1.0,
            delay: Duration::from_millis(20),
            ..FaultConfig::default()
        });
        let started = std::time::Instant::now();
        let graph = svc.build_user_graph(UserId(1));
        assert_eq!(graph.root, NodeId(1));
        assert!(started.elapsed() >= Duration::from_millis(15), "delay must be injected");
        assert_eq!(svc.stats().injected_delays, 1);
    }
}
