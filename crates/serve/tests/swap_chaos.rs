//! Hot-swap chaos suite: model reloads landing mid-burst, under fault
//! injection, must never drop a request or blur attribution.
//!
//! The contract under test (DESIGN.md §15):
//!
//! - a swap is **zero-downtime**: every request issued across the flip
//!   completes with 200 or 500 before `reply_timeout` — none are dropped;
//! - every 200 is **attributable to exactly one model generation**: the
//!   response's `model_version` names it, and the ranking bitwise-matches
//!   what that generation scores offline — never a blend of old and new;
//! - requests submitted after `reload` returns are served by the new
//!   version, old-pinned batches drain on the old one;
//! - the worker pool heals from injected panics across the swap, and the
//!   cache invariant `hits + misses == lookups` survives the version flip
//!   (model-version stamps make old entries lazily stale, never wrong).

use std::sync::Arc;
use std::time::{Duration, Instant};

use kucnet::{KucNet, KucNetConfig, ScoreService};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_eval::top_n_indices;
use kucnet_graph::{Ckg, LayeredGraph, NodeId, UserId};
use kucnet_serve::client::{self, get, metric, post, recommend};
use kucnet_serve::{
    FaultConfig, FaultyService, ModelLoader, ModelRegistry, ServeConfig, Server, ServerHandle,
};

const N_USERS: usize = 256;
const N_ITEMS: usize = 32;

/// The `model_version` a success body is attributed to.
fn model_version_of(body: &str) -> u64 {
    client::u64_field(body, "model_version").expect("model_version")
}

/// The ranked item ids (in order) of a success body.
fn items_of(body: &str) -> Vec<u32> {
    client::items(body).expect("items").into_iter().map(|(item, _)| item).collect()
}

/// A fast deterministic model stub: generation `tag` scores item `i` for
/// user `u` as `(u*31 + i*17 + tag*41) % 97`, so every generation ranks
/// differently and a served ranking pins down which generation produced it.
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
        (0..N_ITEMS).map(|i| ((u * 31 + i * 17 + self.tag * 41) % 97) as f32).collect()
    }
}

/// The ranking generation `tag` produces offline for `user` — ground truth
/// for response attribution (same scores, same `top_n_indices` tie-breaks
/// as the serving path).
fn expected_ranking(tag: usize, user: u64, k: usize) -> Vec<u32> {
    let u = user as usize;
    let scores: Vec<f32> =
        (0..N_ITEMS).map(|i| ((u * 31 + i * 17 + tag * 41) % 97) as f32).collect();
    top_n_indices(&scores, k).into_iter().map(|i| u32::try_from(i).expect("item id")).collect()
}

/// Polls until the worker pool is back at `want` workers with at least one
/// respawn recorded, or fails after `deadline`.
fn wait_for_heal(handle: &ServerHandle, want: u64, deadline: Duration) {
    let end = Instant::now() + deadline;
    loop {
        let stats = handle.batcher_stats();
        if stats.workers_alive == want && stats.workers_respawned >= 1 {
            return;
        }
        assert!(Instant::now() < end, "pool never healed to {want}: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Retries `recommend` until a 200 lands (fault injection may eat a few),
/// returning the success body.
fn recommend_until_200(addr: std::net::SocketAddr, user: u64, top_k: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = recommend(addr, user, top_k).expect("recommend");
        if resp.status == 200 {
            return resp.body;
        }
        assert_eq!(resp.status, 500, "only injected 500s allowed: {}", resp.body);
        assert!(Instant::now() < deadline, "no 200 for user {user} before deadline");
    }
}

#[test]
fn hot_swap_mid_burst_under_panics_is_zero_downtime_and_attributable() {
    // The acceptance scenario: a 110-request burst under 20% injected build
    // panics, with a model hot-swap landing mid-burst. Every request must
    // complete (200 or 500, never dropped), every 200 must carry a model
    // version whose offline ranking matches the served one exactly, both
    // the old and the new version must serve at least one request, the
    // pool must heal, and the cache ledger must balance across the flip.
    let top_k = 5u64;
    let reply_timeout = Duration::from_secs(10);
    let config = ServeConfig {
        workers: 3,
        max_batch: 8,
        cache_capacity: 8, // smaller than the user spread: builds keep happening
        reply_timeout,
        ..ServeConfig::default()
    };
    let old: Arc<dyn ScoreService> = Arc::new(FaultyService::new(
        Arc::new(StubService { tag: 0 }),
        FaultConfig { seed: 7, panic_rate: 0.2, ..FaultConfig::default() },
    ));
    let registry = Arc::new(ModelRegistry::single(old, config.ab_seed));
    let handle =
        Server::start_full(registry, None, None, config, "127.0.0.1:0").expect("bind server");
    let addr = handle.addr();

    // Deterministic pre-swap traffic: at least one request is served by v1.
    let pre = recommend_until_200(addr, 200, top_k);
    assert_eq!(model_version_of(&pre), 1, "pre-swap traffic must be on v1: {pre}");
    assert_eq!(items_of(&pre), expected_ranking(0, 200, top_k as usize), "{pre}");

    // The burst runs in three groups so that each side of the swap sees
    // traffic by construction, not by timing. FaultyService's dice depend
    // only on its seed and call index, so the first group's v1 builds
    // draw a fixed fault sequence.
    let spawn_clients = |ids: std::ops::Range<u64>| -> Vec<_> {
        ids.map(|i| {
            std::thread::spawn(move || {
                let started = Instant::now();
                let resp = recommend(addr, i % 100, top_k).expect("recommend");
                (i, resp, started.elapsed())
            })
        })
        .collect()
    };
    // 50 clients run to completion on v1.
    let mut results: Vec<_> =
        spawn_clients(0..50).into_iter().map(|c| c.join().expect("client must not hang")).collect();
    for (i, resp, _) in &results {
        if resp.status == 200 {
            assert_eq!(model_version_of(&resp.body), 1, "request {i} ran before the swap");
        }
    }
    // 50 more are in flight while the swap lands (in-process, like an
    // operator sidecar would).
    let racing = spawn_clients(50..100);
    let new: Arc<dyn ScoreService> = Arc::new(StubService { tag: 1 });
    let v2 = handle.registry().reload("default", new).expect("hot swap");
    assert_eq!(v2, 2);
    // A final group is submitted after `reload` returned.
    let after = spawn_clients(100..110);
    results
        .extend(racing.into_iter().chain(after).map(|c| c.join().expect("client must not hang")));

    let mut served = [0u32; 2]; // per-version 200 counts (v1, v2)
    let mut failed = 0u32;
    for (i, resp, elapsed) in results {
        assert!(
            elapsed < reply_timeout + Duration::from_secs(5),
            "request {i} took {elapsed:?}: client effectively hung"
        );
        match resp.status {
            200 => {
                let version = model_version_of(&resp.body);
                assert!(version == 1 || version == 2, "request {i}: bad version: {}", resp.body);
                // Attribution is exact: the served ranking must be the one
                // the claimed generation computes offline. A cross-version
                // blend (old scores labeled v2 or vice versa) fails here.
                let tag = (version - 1) as usize;
                assert_eq!(
                    items_of(&resp.body),
                    expected_ranking(tag, i % 100, top_k as usize),
                    "request {i} (v{version}): ranking does not match its label: {}",
                    resp.body
                );
                served[tag] += 1;
            }
            500 => {
                failed += 1;
                assert!(resp.body.contains("injected panic"), "request {i}: {}", resp.body);
            }
            other => panic!("request {i}: unexpected status {other}: {}", resp.body),
        }
    }
    assert!(served[0] + served[1] > 0, "some requests must survive a 20% fault rate");
    assert!(failed > 0, "a 20% fault rate over 100 builds must hit something");
    assert!(served[1] > 0, "the new version must serve during/after the swap window");

    // Post-swap traffic is exclusively v2: reload returned before these
    // submissions, so no batch containing them can still be pinned to v1.
    for user in [201u64, 202, 203] {
        let body = recommend_until_200(addr, user, top_k);
        assert_eq!(model_version_of(&body), 2, "post-swap request leaked to v1: {body}");
        assert_eq!(items_of(&body), expected_ranking(1, user, top_k as usize), "{body}");
    }

    wait_for_heal(&handle, 3, Duration::from_secs(10));

    // The swap and per-variant attribution are visible in /metrics.
    let metrics = get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let read = |name| metric(&metrics.body, name).expect(name);
    assert_eq!(read("kucnet_model_swaps_total"), 1.0, "{}", metrics.body);
    assert_eq!(read("kucnet_variant_default_model_version"), 2.0);
    assert!(read("kucnet_variant_default_requests") >= f64::from(served[0] + served[1]));
    assert!(read("kucnet_workers_respawned") > 0.0, "{}", metrics.body);

    // The cache ledger balances across the version flip: old-version
    // entries went stale (invalidations), none were served wrongly, and
    // every lookup resolved as exactly one hit or one miss.
    let cache = handle.cache_stats();
    assert_eq!(
        cache.hits + cache.misses,
        cache.lookups,
        "every lookup is exactly one hit or one miss across the swap: {cache:?}"
    );

    // Without a loader configured, HTTP reloads are refused (in-process
    // reloads through the handle keep working, as used above).
    let resp = post(addr, "/admin/reload", "{\"variant\": \"default\", \"path\": \"/nope\"}")
        .expect("post");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("no checkpoint loader"), "{}", resp.body);

    handle.shutdown();
}

/// Builds a replacement `KucNet` from a `KUCP` checkpoint — the concrete
/// [`ModelLoader`] a real deployment wires in.
struct KucpLoader {
    config: KucNetConfig,
    ckg: Ckg,
}

impl ModelLoader for KucpLoader {
    fn load(&self, _variant: &str, path: &str) -> Result<Arc<dyn ScoreService>, String> {
        let mut model = KucNet::new(self.config.clone(), self.ckg.clone());
        model.load_params(path).map_err(|e| format!("checkpoint load failed: {e}"))?;
        Ok(Arc::new(model))
    }
}

#[test]
fn http_reload_from_checkpoint_swaps_to_the_restored_model() {
    // End-to-end over the wire: train two generations of a real model,
    // serve generation A, `POST /admin/reload` generation B's checkpoint,
    // and verify served rankings flip to exactly what B scores offline.
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
    let ckg = data.build_ckg(&data.interactions);
    let config = KucNetConfig::default().with_epochs(1);

    let mut gen_a = KucNet::new(config.clone(), ckg.clone());
    gen_a.fit();
    let mut gen_b = KucNet::new(config.clone().with_epochs(3), ckg.clone());
    gen_b.fit();

    let ckpt = std::env::temp_dir().join(format!("kucnet_swap_{}.kucp", std::process::id()));
    gen_b.save_params(&ckpt).expect("save checkpoint");

    let top_k = 5;
    let user = 0u64;
    let expected_b: Vec<u32> = {
        let scores = gen_b.score_user(UserId(0));
        top_n_indices(&scores, top_k).into_iter().map(|i| u32::try_from(i).unwrap()).collect()
    };
    let expected_a: Vec<u32> = {
        let scores = gen_a.score_user(UserId(0));
        top_n_indices(&scores, top_k).into_iter().map(|i| u32::try_from(i).unwrap()).collect()
    };

    let loader = Arc::new(KucpLoader { config: config.clone().with_epochs(3), ckg: ckg.clone() });
    let serve_config = ServeConfig::default();
    let mut registry = ModelRegistry::new(serve_config.ab_seed);
    registry.register("default", 100, Arc::new(gen_a)).expect("register");
    let handle =
        Server::start_full(Arc::new(registry), Some(loader), None, serve_config, "127.0.0.1:0")
            .expect("bind server");
    let addr = handle.addr();

    // Generation A serves first.
    let before = recommend(addr, user, top_k as u64).expect("recommend");
    assert_eq!(before.status, 200, "{}", before.body);
    assert_eq!(model_version_of(&before.body), 1);
    assert_eq!(items_of(&before.body), expected_a, "{}", before.body);

    // Bad reloads are 400s and leave the live model untouched.
    let bad =
        post(addr, "/admin/reload", "{\"variant\": \"nope\", \"path\": \"/x\"}").expect("post");
    assert_eq!(bad.status, 400, "{}", bad.body);
    let bad =
        post(addr, "/admin/reload", "{\"variant\": \"default\", \"path\": \"/does/not/exist\"}")
            .expect("post");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert_eq!(model_version_of(&recommend(addr, user, top_k as u64).expect("recommend").body), 1);

    // The real reload, over HTTP, from the checkpoint file.
    let ckpt_json = ckpt.to_str().expect("utf-8 temp path").replace('\\', "\\\\");
    let resp = post(
        addr,
        "/admin/reload",
        &format!("{{\"variant\": \"default\", \"path\": \"{ckpt_json}\"}}"),
    )
    .expect("post");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"model_version\":2"), "{}", resp.body);

    // Served rankings are now generation B's, attributed to version 2.
    let after = recommend(addr, user, top_k as u64).expect("recommend");
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(model_version_of(&after.body), 2);
    assert_eq!(items_of(&after.body), expected_b, "restored model must serve B's rankings");

    handle.shutdown();
    let _ = std::fs::remove_file(&ckpt);
}
