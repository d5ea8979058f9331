//! Serving demo: train a small KUCNet, stand up the kucnet-serve HTTP
//! frontend on an ephemeral port, issue a few requests over real TCP, and
//! show the cache/latency metrics the server collects along the way.
//!
//! Run with: `cargo run --release --example serve_demo`

use std::sync::Arc;

use kucnet::{KucNet, KucNetConfig, ScoreService};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_serve::{client, ServeConfig, Server};

fn main() {
    // 1. Train a small model (the server only needs a ScoreService).
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
    let ckg = data.build_ckg(&data.interactions);
    let mut model = KucNet::new(KucNetConfig::default().with_epochs(3), ckg);
    println!("training KUCNet on `{}`...", DatasetProfile::tiny().name);
    model.fit();
    let service: Arc<dyn ScoreService> = Arc::new(model);

    // 2. Start the frontend: subgraph LRU cache -> job queue -> workers.
    let config =
        ServeConfig { cache_capacity: 64, max_batch: 8, workers: 2, ..ServeConfig::default() };
    let handle = Server::start(service, config, "127.0.0.1:0").expect("start server");
    let addr = handle.addr();
    println!("serving on http://{addr}\n");

    // 3. A few requests: user 3 twice (the second one hits the cache).
    println!("GET /healthz -> {}", client::get(addr, "/healthz").expect("healthz").status);
    for (user, top_k) in [(3, 5), (3, 5), (0, 3)] {
        println!("POST /recommend user={user} top_k={top_k}");
        println!("  {}", client::recommend(addr, user, top_k).expect("recommend").body);
    }
    // Invalid input gets a 4xx, not a panic.
    println!("POST /recommend user=999999 (unknown)");
    let unknown = client::recommend(addr, 999_999, 5).expect("recommend");
    println!("  {} {}", unknown.status, unknown.body);

    // 4. The metrics endpoint, then a graceful shutdown.
    println!("\nGET /metrics");
    let metrics = client::get(addr, "/metrics").expect("metrics");
    for line in metrics.body.lines() {
        println!("  {line}");
    }
    handle.shutdown();
    println!("\nserver stopped cleanly");
}
