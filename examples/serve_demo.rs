//! Serving demo: train a small KUCNet, stand up the kucnet-serve HTTP
//! frontend on an ephemeral port, issue a few requests over real TCP, and
//! show the cache/latency metrics the server collects along the way.
//!
//! Run with: `cargo run --release --example serve_demo`

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use kucnet::{KucNet, KucNetConfig, ScoreService};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_serve::{ServeConfig, Server};

/// Sends one raw HTTP request and returns the full response text.
fn http(addr: std::net::SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut text = String::new();
    BufReader::new(stream).read_to_string(&mut text).expect("read response");
    text
}

/// Sends `POST /recommend` for `user` and returns the response body.
fn recommend(addr: std::net::SocketAddr, user: u64, top_k: u64) -> String {
    let body = format!("{{\"user\": {user}, \"top_k\": {top_k}}}");
    let raw = format!(
        "POST /recommend HTTP/1.1\r\nHost: demo\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let response = http(addr, &raw);
    response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or(response)
}

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
    println!(
        "GET /healthz -> {}",
        http(addr, "GET /healthz HTTP/1.1\r\nHost: d\r\n\r\n").lines().next().unwrap_or_default()
    );
    for (user, top_k) in [(3, 5), (3, 5), (0, 3)] {
        println!("POST /recommend user={user} top_k={top_k}");
        println!("  {}", recommend(addr, user, top_k));
    }
    // Invalid input gets a 4xx, not a panic.
    println!("POST /recommend user=999999 (unknown)");
    println!("  {}", recommend(addr, 999_999, 5));

    // 4. The metrics endpoint, then a graceful shutdown.
    println!("\nGET /metrics");
    let metrics = http(addr, "GET /metrics HTTP/1.1\r\nHost: d\r\n\r\n");
    let body = metrics.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    for line in body.lines() {
        println!("  {line}");
    }
    handle.shutdown();
    println!("\nserver stopped cleanly");
}
