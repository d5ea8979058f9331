//! End-to-end test: a real `kucnet-serve` server on an ephemeral port,
//! concurrent HTTP clients, and rank parity against offline scoring.
//!
//! The parity claim is exact, not approximate: the server and the offline
//! path share the tape-free forward and one top-k accumulator (the server
//! ranks the final layer with `kucnet_eval::top_n_sparse`, offline ranks
//! the dense vector with `kucnet_eval::top_n_indices`), so the served
//! ranking must match the offline ranking item-for-item and
//! score-for-score, ties included.

use std::sync::Arc;

use kucnet::{KucNet, KucNetConfig, ScoreService, ShardService};
use kucnet_datasets::{
    load_shard_segments, write_scale_dataset, DatasetProfile, GeneratedDataset, ScaleProfile,
};
use kucnet_eval::top_n_indices;
use kucnet_graph::UserId;
use kucnet_serve::client::{self, get, items, metric, recommend};
use kucnet_serve::{ServeConfig, Server, ServerHandle};

/// Trains a small model and starts a server over it.
fn start_test_server() -> (Arc<KucNet>, ServerHandle) {
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 7);
    let ckg = data.build_ckg(&data.interactions);
    let mut model = KucNet::new(KucNetConfig::default().with_epochs(2), ckg);
    model.fit();
    let model = Arc::new(model);
    let service: Arc<dyn ScoreService> = Arc::clone(&model) as Arc<dyn ScoreService>;
    // Capacity exceeds the tiny profile's user count, so once a user's
    // subgraph is resident it can never be evicted — repeat requests are
    // deterministic cache hits even under concurrent thrash.
    let config =
        ServeConfig { cache_capacity: 256, max_batch: 4, workers: 2, ..ServeConfig::default() };
    let handle = Server::start(service, config, "127.0.0.1:0").expect("bind ephemeral port");
    (model, handle)
}

#[test]
fn served_rankings_match_offline_eval_exactly() {
    let (model, handle) = start_test_server();
    let addr = handle.addr();
    let top_k = 5usize;

    // Offline reference rankings through the same scoring path the
    // evaluator uses.
    let offline: Vec<Vec<(u32, f32)>> = (0..model.n_users())
        .map(|u| {
            let scores = model.score_user(kucnet_graph::UserId(u as u32));
            top_n_indices(&scores, top_k).into_iter().map(|i| (i as u32, scores[i])).collect()
        })
        .collect();

    // Concurrent clients: every user twice (second pass drives cache hits).
    let mut join = Vec::new();
    for pass in 0..2 {
        for user in 0..model.n_users() as u64 {
            let expected = offline[user as usize].clone();
            join.push(std::thread::spawn(move || {
                let resp = recommend(addr, user, top_k as u64).expect("recommend");
                assert_eq!(resp.status, 200, "user {user} pass {pass}: {}", resp.body);
                let got = items(&resp.body).expect("items");
                assert_eq!(got, expected, "rank mismatch for user {user}");
            }));
        }
    }
    for handle in join {
        handle.join().expect("client thread");
    }

    // Sequential repeats after the storm: user 0 is resident (the cache
    // never evicts in this test), so these are guaranteed hits.
    for _ in 0..3 {
        assert_eq!(recommend(addr, 0, top_k as u64).expect("recommend").status, 200);
    }

    // Repeat requests for the same user must have hit the subgraph cache.
    let metrics = get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let read = |name| metric(&metrics.body, name).expect(name);
    assert!(read("kucnet_cache_hit_rate") > 0.0, "{}", metrics.body);
    assert!(read("kucnet_requests_total") >= (2 * model.n_users()) as f64);
    assert!(read("kucnet_latency_p50_us") > 0.0);

    handle.shutdown();
}

#[test]
fn invalid_requests_get_4xx_not_panics() {
    let (model, handle) = start_test_server();
    let addr = handle.addr();

    // Unknown user id: 404.
    let resp = recommend(addr, model.n_users() as u64 + 10, 3).expect("recommend");
    assert_eq!(resp.status, 404, "{}", resp.body);

    // top_k out of range: 400.
    assert_eq!(recommend(addr, 0, 0).expect("recommend").status, 400);
    assert_eq!(recommend(addr, 0, 1_000_000).expect("recommend").status, 400);

    // Malformed JSON bodies: 400.
    for body in ["not json", "{\"user\": \"x\"}", "{\"user\": 1, \"bogus\": 2}", "[1]"] {
        let resp = client::post(addr, "/recommend", body).expect("post");
        assert_eq!(resp.status, 400, "body `{body}` must be rejected");
    }

    // Missing route and wrong method.
    assert_eq!(get(addr, "/nope").expect("get").status, 404);
    assert_eq!(get(addr, "/recommend").expect("get").status, 405);

    // The server still works after all that abuse.
    assert_eq!(recommend(addr, 0, 3).expect("recommend").status, 200);
    assert_eq!(get(addr, "/healthz").expect("get").status, 200);

    handle.shutdown();
}

#[test]
fn serving_a_checkpoint_restored_model_matches_the_original() {
    // Train, freeze to a KUCP checkpoint, restore into a fresh model over
    // the same CKG, and serve the restored model: rankings must equal the
    // original model's offline rankings exactly.
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 7);
    let ckg = data.build_ckg(&data.interactions);
    let config = KucNetConfig::default().with_epochs(2);
    let mut trained = KucNet::new(config.clone(), ckg.clone());
    trained.fit();

    let path = std::env::temp_dir().join(format!("kucnet_serve_e2e_{}.kucp", std::process::id()));
    trained.save_params(&path).expect("save checkpoint");
    let mut restored = KucNet::new(config, ckg);
    restored.load_params(&path).expect("load checkpoint");
    let _ = std::fs::remove_file(&path);

    let top_k = 5usize;
    let offline: Vec<(u32, f32)> = {
        let scores = trained.score_user(kucnet_graph::UserId(3));
        top_n_indices(&scores, top_k).into_iter().map(|i| (i as u32, scores[i])).collect()
    };

    let service: Arc<dyn ScoreService> = Arc::new(restored);
    let handle =
        Server::start(service, ServeConfig::default(), "127.0.0.1:0").expect("bind server");
    let resp = recommend(handle.addr(), 3, top_k as u64).expect("recommend");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let served = items(&resp.body).expect("items");
    assert_eq!(served, offline, "restored model must serve identical rankings");
    handle.shutdown();
}

#[test]
fn shutdown_is_graceful_and_idempotent() {
    let (_, handle) = start_test_server();
    let addr = handle.addr();
    assert_eq!(recommend(addr, 0, 2).expect("recommend").status, 200);
    handle.shutdown();
    handle.shutdown(); // second call must be a no-op
                       // The listener is gone: a request must not hang or return a ranking.
    assert!(recommend(addr, 0, 2).map_or(true, |r| r.status != 200));
}

#[test]
fn zero_filled_rankings_over_a_large_catalogue_match_dense_offline_bitwise() {
    // 64 islands of 16 items: a 1024-item catalogue, while a user's graph
    // only reaches the items of their own island. A top_k past the final
    // layer therefore has to come from the zero fill, whose tie order
    // (item id ascending) must match the dense ranking exactly.
    let profile = ScaleProfile {
        n_users: 128,
        n_islands: 64,
        items_per_island: 16,
        entities_per_island: 16,
        interactions_per_user: 4,
        kg_links_per_item: 3,
        entity_entity_links_per_island: 16,
        n_kg_relations: 4,
        popularity_exponent: 0.8,
        seed: 5,
    };
    let dir = std::env::temp_dir().join(format!("kucnet_serve_zero_fill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_scale_dataset(&profile, &dir).expect("generate scale dataset");
    let segments = load_shard_segments(&dir, &profile, 0, 1).expect("load shard");
    let _ = std::fs::remove_dir_all(&dir);
    let service = Arc::new(ShardService::from_segments(
        KucNetConfig::default(),
        profile.layout(),
        profile.n_base_relations(),
        segments,
        0,
    ));
    let top_k = 64usize;
    assert!(service.n_items() >= 16 * top_k, "catalogue must dwarf the final layer");
    let config = ServeConfig { max_top_k: top_k, ..ServeConfig::default() };
    let handle =
        Server::start(Arc::clone(&service) as Arc<dyn ScoreService>, config, "127.0.0.1:0")
            .expect("bind server");
    for u in 0..profile.n_users {
        let scores = service.score_user(UserId(u));
        let nonzero = scores.iter().filter(|s| **s != 0.0).count();
        assert!(nonzero < top_k, "user {u}: {nonzero} non-zero scores leave no zero fill");
        let expected: Vec<(u32, u32)> = top_n_indices(&scores, top_k)
            .into_iter()
            .map(|i| (i as u32, scores[i].to_bits()))
            .collect();
        let resp = recommend(handle.addr(), u64::from(u), top_k as u64).expect("recommend");
        assert_eq!(resp.status, 200, "user {u}: {}", resp.body);
        let got: Vec<(u32, u32)> = items(&resp.body)
            .expect("items")
            .into_iter()
            .map(|(item, score)| (item, score.to_bits()))
            .collect();
        assert_eq!(got, expected, "user {u}: served ranking differs from the dense one");
    }
    handle.shutdown();
}
