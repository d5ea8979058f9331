//! A/B routing differential suite: variant assignment must be a pure
//! function of `(ab_seed, user id, weights)` — bitwise-stable across
//! `batch_threads` settings and server restarts — and realized traffic
//! splits must track the configured weights.

use std::sync::Arc;

use kucnet::ScoreService;
use kucnet_graph::{LayeredGraph, NodeId, UserId};
use kucnet_serve::client::{get, metric, post, recommend, str_field};
use kucnet_serve::{route_variant, ModelRegistry, ServeConfig, Server};

const N_USERS: usize = 256;
const N_ITEMS: usize = 16;

/// A trivial deterministic model stub tagged per variant.
struct StubService {
    tag: usize,
}

impl ScoreService for StubService {
    fn name(&self) -> String {
        format!("stub{}", self.tag)
    }

    fn n_users(&self) -> usize {
        N_USERS
    }

    fn n_items(&self) -> usize {
        N_ITEMS
    }

    fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph> {
        Arc::new(LayeredGraph {
            root: NodeId(user.0),
            node_lists: vec![vec![NodeId(user.0)]],
            layers: vec![],
        })
    }

    fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
        let u = graph.root.0 as usize;
        (0..N_ITEMS).map(|i| ((u * 13 + i * 7 + self.tag * 29) % 53) as f32).collect()
    }
}

/// Builds a two-variant registry (`control`, `treatment`) with the given
/// weights and A/B seed.
fn two_variant_registry(seed: u64, w_control: u64, w_treatment: u64) -> Arc<ModelRegistry> {
    let mut registry = ModelRegistry::new(seed);
    registry.register("control", w_control, Arc::new(StubService { tag: 0 })).expect("control");
    registry
        .register("treatment", w_treatment, Arc::new(StubService { tag: 1 }))
        .expect("treatment");
    Arc::new(registry)
}

#[test]
fn pure_routing_splits_track_weights_across_seeds() {
    // The routing function itself, no server: for each (seed, weights)
    // cell the realized split over 1000 users must sit inside a generous
    // tolerance band, and degenerate weights must be exact.
    const N: u64 = 1000;
    for seed in [1u64, 7, 42] {
        // 0/100: every user goes to the second variant, no exceptions.
        for user in 0..N {
            assert_eq!(route_variant(seed, user as u32, &[0, 100]), 1, "seed {seed} user {user}");
            assert_eq!(route_variant(seed, user as u32, &[100, 0]), 0, "seed {seed} user {user}");
        }
        // 50/50: split within ±10 points of even.
        let to_first = (0..N).filter(|&u| route_variant(seed, u as u32, &[50, 50]) == 0).count();
        assert!((400..=600).contains(&to_first), "seed {seed}: 50/50 split {to_first}/1000");
        // 90/10: minority variant gets its slice, within ±6 points.
        let to_second = (0..N).filter(|&u| route_variant(seed, u as u32, &[90, 10]) == 1).count();
        assert!((40..=160).contains(&to_second), "seed {seed}: 90/10 split {to_second}/1000");
    }
    // Different seeds bucket differently (re-seeding reshuffles cohorts).
    let a: Vec<usize> = (0..64).map(|u| route_variant(1, u, &[50, 50])).collect();
    let b: Vec<usize> = (0..64).map(|u| route_variant(2, u, &[50, 50])).collect();
    assert_ne!(a, b, "distinct seeds must not produce identical assignments");
}

#[test]
fn served_assignment_is_stable_across_batch_threads_and_restarts() {
    // The served `variant` label must equal the pure-function prediction
    // for every user, at batch_threads = 1 and at batch_threads = 8 on a
    // freshly restarted server — assignment is a deployment invariant, not
    // an artifact of scheduling.
    let ab_seed = 0xAB_5EED;
    let weights = [50u64, 50];
    let names = ["control", "treatment"];
    let predicted: Vec<&str> =
        (0..64u32).map(|u| names[route_variant(ab_seed, u, &weights)]).collect();
    assert!(predicted.iter().any(|&v| v == "control"), "degenerate shuffle");
    assert!(predicted.iter().any(|&v| v == "treatment"), "degenerate shuffle");

    let mut observed: Vec<Vec<String>> = Vec::new();
    for batch_threads in [1usize, 8] {
        let config = ServeConfig { batch_threads, ab_seed, ..ServeConfig::default() };
        let handle = Server::start_full(
            two_variant_registry(ab_seed, weights[0], weights[1]),
            None,
            None,
            config,
            "127.0.0.1:0",
        )
        .expect("bind server");
        let addr = handle.addr();
        let assignments: Vec<String> = (0..64u64)
            .map(|user| {
                let resp = recommend(addr, user, 3).expect("recommend");
                assert_eq!(resp.status, 200, "{}", resp.body);
                str_field(&resp.body, "variant").expect("variant")
            })
            .collect();
        assert_eq!(
            assignments, predicted,
            "served assignment diverged from route_variant at batch_threads={batch_threads}"
        );
        observed.push(assignments);
        handle.shutdown();
    }
    assert_eq!(observed[0], observed[1], "assignment changed across restart/thread count");
}

#[test]
fn admin_ab_rebalances_routing_and_metrics_report_weights() {
    // Weight changes through POST /admin/ab take effect for subsequent
    // requests, are visible in /metrics, and malformed bodies are refused
    // without disturbing the live weights.
    let ab_seed = 0xAB_5EED;
    let config = ServeConfig { ab_seed, ..ServeConfig::default() };
    let handle = Server::start_full(
        two_variant_registry(ab_seed, 50, 50),
        None,
        None,
        config,
        "127.0.0.1:0",
    )
    .expect("bind server");
    let addr = handle.addr();

    // Flip all traffic to treatment.
    let resp = post(addr, "/admin/ab", "{\"control\": 0, \"treatment\": 100}").expect("post");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"control\":0"), "{}", resp.body);
    assert!(resp.body.contains("\"treatment\":100"), "{}", resp.body);
    for user in 0..32u64 {
        let resp = recommend(addr, user, 3).expect("recommend");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let variant = str_field(&resp.body, "variant").expect("variant");
        assert_eq!(variant, "treatment", "user {user}: {}", resp.body);
    }

    // Invalid updates are 400s and leave weights untouched.
    for bad in ["{}", "{\"nope\": 10}", "{\"quant.control\": 1}", "not json"] {
        let resp = post(addr, "/admin/ab", bad).expect("post");
        assert_eq!(resp.status, 400, "body {bad:?}: {}", resp.body);
    }

    let metrics = get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    for line in [
        "kucnet_variant_control_weight 0",
        "kucnet_variant_treatment_weight 100",
        "kucnet_variants 2",
    ] {
        assert!(
            metrics.body.lines().any(|l| l.trim() == line),
            "missing `{line}` in:\n{}",
            metrics.body
        );
    }
    // Treatment absorbed the post-rebalance traffic.
    let treated = metric(&metrics.body, "kucnet_variant_treatment_requests")
        .expect("treatment request counter");
    assert!(treated >= 32.0, "expected ≥32 treatment requests:\n{}", metrics.body);

    handle.shutdown();
}
