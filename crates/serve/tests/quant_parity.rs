//! The quantized rank-parity gate (hard gate): on **all four** paper
//! dataset profiles, the i8 inference path must agree with the f32 path on
//! at least 99% of the served top-N, averaged over a pinned user sample —
//! and so must a dynamic graph after appends and a refresh tick. Runs on
//! seeded (untrained) models — parity is a property of the inference
//! kernels, not of training — so the gate is fast enough for
//! `scripts/check.sh` while still covering the paper-profile graph shapes.
//!
//! The HTTP tests drive the precision knob end-to-end on a static and a
//! dynamic server: toggling `POST /admin/ab {"quant.default": 1}`
//! republishes the model under a new version, serves quantized rankings
//! live, and toggling back yields a byte-identical f32 response (the master
//! weights are never touched).

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use kucnet::{KucNet, KucNetConfig, ScoreService};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_dynamic::DynamicService;
use kucnet_eval::top_n_indices;
use kucnet_graph::UserId;
use kucnet_serve::{ServeConfig, Server, ServerHandle};

/// Overlap size of the ranked prefix the gate compares (the harness
/// default recommendation depth).
const TOP_N: usize = 20;

/// Users sampled per profile; small enough to keep the gate fast in debug.
const SAMPLE_USERS: u32 = 64;

/// Fraction of the top-N that must agree, averaged over the sample.
const MIN_MEAN_OVERLAP: f64 = 0.99;

/// |top-N(a) ∩ top-N(b)| / N under the shared deterministic tie-break.
fn overlap_at_n(a: &[f32], b: &[f32], n: usize) -> f64 {
    let ta = top_n_indices(a, n);
    let tb = top_n_indices(b, n);
    let hits = ta.iter().filter(|i| tb.contains(i)).count();
    hits as f64 / ta.len().max(1) as f64
}

/// Builds the seeded, untrained model for one profile.
fn seeded_model(profile: &DatasetProfile) -> KucNet {
    let data = GeneratedDataset::generate(profile, 42);
    let ckg = data.build_ckg(&data.interactions);
    KucNet::new(KucNetConfig::default(), ckg)
}

/// Asserts the mean f32-vs-i8 top-N overlap of `service` over its first
/// [`SAMPLE_USERS`] users meets the gate.
fn assert_rank_parity(name: &str, service: &dyn ScoreService) {
    assert!(service.prepare_quantized(), "{name}: the service must expose the i8 path");
    let stash = kucnet_tensor::PoolStash::new();
    let mut pool = stash.checkout();
    let users = u32::try_from(service.n_users()).unwrap_or(u32::MAX).min(SAMPLE_USERS);
    let mut total = 0.0f64;
    let mut worst = 1.0f64;
    for u in 0..users {
        let graph = service.build_user_graph(UserId(u));
        let f32_scores = service.score_graph_pooled(&mut pool, &graph, false);
        let quant_scores = service.score_graph_pooled(&mut pool, &graph, true);
        assert_eq!(f32_scores.len(), quant_scores.len(), "{name}: score spaces differ");
        let overlap = overlap_at_n(&f32_scores, &quant_scores, TOP_N);
        total += overlap;
        worst = worst.min(overlap);
    }
    let mean = total / f64::from(users);
    assert!(
        mean >= MIN_MEAN_OVERLAP,
        "{name}: mean top-{TOP_N} overlap {mean:.4} < {MIN_MEAN_OVERLAP} \
         (worst user {worst:.4}) — the quantized path drifted past the rank-parity gate"
    );
}

#[test]
fn quantized_top_n_overlap_is_at_least_99_percent_on_all_four_profiles() {
    let profiles: [(&str, DatasetProfile); 4] = [
        ("lastfm-small", DatasetProfile::lastfm_small()),
        ("amazon-book-small", DatasetProfile::amazon_book_small()),
        ("ifashion-small", DatasetProfile::ifashion_small()),
        ("disgenet-small", DatasetProfile::disgenet_small()),
    ];
    for (name, profile) in profiles {
        assert_rank_parity(name, &seeded_model(&profile));
    }
}

#[test]
fn quantized_top_n_overlap_holds_on_a_dynamic_graph() {
    let model = Arc::new(seeded_model(&DatasetProfile::lastfm_small()));
    let n_items = u32::try_from(model.ckg().n_items()).expect("item ids fit u32");
    let service = DynamicService::for_model(model, usize::MAX);
    // Move the graph off its base epoch so the row scores overlay adjacency
    // and recomputed PPR, not just the static CSR.
    for u in 0..SAMPLE_USERS {
        service.graph().append_interaction(u, (u * 7 + 3) % n_items).expect("valid append");
    }
    assert!(service.graph().refresh_tick().epoch > 0, "the tick must commit a new epoch");
    assert_rank_parity("lastfm-small+dynamic", &service);
}

/// A parsed HTTP response: status code and body.
struct Response {
    status: u16,
    body: String,
}

/// Sends one raw HTTP request and reads the full response.
fn send(addr: std::net::SocketAddr, raw: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut reader = BufReader::new(stream);
    let mut text = String::new();
    reader.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Response { status, body }
}

/// POSTs a JSON body to `path` and returns the parsed response.
fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> Response {
    let raw =
        format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    send(addr, &raw)
}

/// GETs `path` and returns the parsed response.
fn get(addr: std::net::SocketAddr, path: &str) -> Response {
    send(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// Extracts a bare numeric field from a flat JSON body.
fn json_u64_field(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    body.split_once(&needle)
        .unwrap_or_else(|| panic!("no `{key}` field in: {body}"))
        .1
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

/// Item ids of a `/recommend` response body, in served order.
fn ranked_items(body: &str) -> Vec<u64> {
    body.split("\"item\":")
        .skip(1)
        .map(|rest| {
            rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
        })
        .collect()
}

/// The served ranking of a `/recommend` body — items and scores — as the
/// raw bytes after `"items":`.
fn ranking_bytes(body: &str) -> &str {
    body.split_once("\"items\":").unwrap_or_else(|| panic!("no items in: {body}")).1
}

/// Trains the tiny model the live-toggle tests serve.
fn trained_tiny_model() -> KucNet {
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
    let ckg = data.build_ckg(&data.interactions);
    let mut model = KucNet::new(KucNetConfig::default().with_epochs(2), ckg);
    model.fit();
    model
}

/// Drives the precision knob over HTTP on a freshly started single-variant
/// server: f32 at version 1, quantized at version 2, and back to f32 at
/// version 3 with a byte-identical ranking.
fn assert_live_precision_roundtrip(handle: ServerHandle) {
    let addr = handle.addr();
    let req = "{\"user\": 1, \"top_k\": 10}";

    // Baseline f32 response on the freshly registered model (version 1).
    let f32_resp = post(addr, "/recommend", req);
    assert_eq!(f32_resp.status, 200, "{}", f32_resp.body);
    assert_eq!(json_u64_field(&f32_resp.body, "model_version"), 1);

    // Flip to quantized: a republish under version 2, visible in /metrics.
    let resp = post(addr, "/admin/ab", "{\"quant.default\": 1}");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"quantized\":{\"default\":1}"), "{}", resp.body);
    let metrics = get(addr, "/metrics").body;
    assert!(metrics.contains("kucnet_variant_default_quantized 1"), "{metrics}");

    let quant_resp = post(addr, "/recommend", req);
    assert_eq!(quant_resp.status, 200, "{}", quant_resp.body);
    assert_eq!(json_u64_field(&quant_resp.body, "model_version"), 2);
    let f32_items = ranked_items(&f32_resp.body);
    let quant_items = ranked_items(&quant_resp.body);
    let hits = f32_items.iter().filter(|i| quant_items.contains(i)).count();
    assert!(
        hits * 10 >= f32_items.len() * 8,
        "live quantized ranking drifted too far: {f32_items:?} vs {quant_items:?}"
    );

    // Flip back: version 3, and the ranking is byte-identical to the f32
    // baseline — quantization never touches the master weights.
    let resp = post(addr, "/admin/ab", "{\"quant.default\": 0}");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let back_resp = post(addr, "/recommend", req);
    assert_eq!(json_u64_field(&back_resp.body, "model_version"), 3);
    assert_eq!(
        ranking_bytes(&back_resp.body),
        ranking_bytes(&f32_resp.body),
        "f32 path must be bitwise-unchanged after a quantized excursion"
    );
    let metrics = get(addr, "/metrics").body;
    assert!(metrics.contains("kucnet_variant_default_quantized 0"), "{metrics}");
    assert!(metrics.contains("kucnet_stage_warm_p50_us"), "{metrics}");

    // Unknown quant target and out-of-range value are rejected atomically.
    let resp = post(addr, "/admin/ab", "{\"quant.nope\": 1}");
    assert_eq!(resp.status, 400, "{}", resp.body);
    let resp = post(addr, "/admin/ab", "{\"quant.default\": 2}");
    assert_eq!(resp.status, 400, "{}", resp.body);

    handle.shutdown();
}

#[test]
fn live_precision_toggle_bumps_version_and_restores_f32_bitwise() {
    let service: Arc<dyn ScoreService> = Arc::new(trained_tiny_model());
    let handle =
        Server::start(service, ServeConfig::default(), "127.0.0.1:0").expect("bind server");
    assert_live_precision_roundtrip(handle);
}

#[test]
fn dynamic_server_accepts_the_precision_toggle_and_restores_f32_bitwise() {
    let service = Arc::new(DynamicService::for_model(Arc::new(trained_tiny_model()), usize::MAX));
    let scorer: Arc<dyn ScoreService> = Arc::clone(&service) as Arc<dyn ScoreService>;
    let handle = Server::start_dynamic(scorer, service, ServeConfig::default(), "127.0.0.1:0")
        .expect("bind server");
    assert_live_precision_roundtrip(handle);
}
