//! Hot-swap × dynamic-graph interaction suite.
//!
//! Two orthogonal guarantees meet here:
//!
//! - **Explain parity across epochs** — the live `/explain` endpoint on a
//!   dynamic service stays byte-identical to the offline extraction both
//!   before and after a `refresh_tick`, at batch thread counts 1 and 8.
//! - **Reload ∦ tick independence** — a model reload landing *during* a
//!   refresh tick must not block on the tick mutex (the registry slot lock
//!   and the graph's tick/state locks are disjoint; DESIGN.md §15), and no
//!   response served across the combined (swap × tick) window may be a
//!   hybrid: every ranking must equal what its labeled model version
//!   scores against one single committed epoch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kucnet::{KucNet, KucNetConfig, ScoreService};
use kucnet_dynamic::{DynamicService, RefreshPhase};
use kucnet_eval::top_n_indices;
use kucnet_graph::{Ckg, CkgBuilder, EntityId, ItemId, KgNode, UserId};
use kucnet_serve::client::{items, post, recommend, str_field, u64_field};
use kucnet_serve::{GraphUpdater, ModelRegistry, ServeConfig, Server};

const N_USERS: u32 = 6;
const N_ITEMS: u32 = 8;
/// The cold item: no interactions, no KG edges at build time.
const NEW_ITEM: u32 = 7;
const THRESHOLD_MILLI: u16 = 200;

/// A CKG where item `NEW_ITEM` exists in the id space but has zero edges.
fn ckg_with_cold_item() -> Ckg {
    let mut b = CkgBuilder::new(N_USERS, N_ITEMS, 5, 2);
    for u in 0..N_USERS {
        b.interact(UserId(u), ItemId(u % NEW_ITEM));
        b.interact(UserId(u), ItemId((u + 2) % NEW_ITEM));
    }
    for i in 0..NEW_ITEM {
        b.kg_triple(KgNode::Item(ItemId(i)), i % 2, KgNode::Entity(EntityId(i % 5)));
    }
    b.build()
}

/// The full ranking `service` scores offline for `user`.
fn offline_ranking(service: &dyn ScoreService, user: u32) -> Vec<(u32, f32)> {
    let scores = service.score_user(UserId(user));
    top_n_indices(&scores, N_ITEMS as usize)
        .into_iter()
        .map(|i| (u32::try_from(i).expect("item id"), scores[i]))
        .collect()
}

/// Runs the explain-parity-across-a-tick scenario at one batch thread
/// count and returns every served DOT for cross-thread-count comparison.
fn explain_across_tick_at(batch_threads: usize) -> Vec<String> {
    let threshold = f32::from(THRESHOLD_MILLI) / 1000.0;
    let model = Arc::new(KucNet::new(KucNetConfig::default(), ckg_with_cold_item()));
    let service = Arc::new(DynamicService::for_model(Arc::clone(&model), 64));
    let pairs: Vec<(u32, u32)> = (0..N_USERS).map(|u| (u, u % NEW_ITEM)).collect();

    // Pre-tick, the dynamic explain path must agree with the static model's
    // own extraction: snapshot epoch 0 *is* the canonical CKG.
    for &(user, item) in &pairs {
        assert_eq!(
            service.explain_item(UserId(user), item, threshold),
            model.explain_item(UserId(user), item, threshold),
            "pre-tick dynamic explain diverged for (user {user}, item {item})"
        );
    }

    let config = ServeConfig { batch_threads, workers: 2, ..ServeConfig::default() };
    let handle = Server::start_dynamic(
        Arc::clone(&service) as Arc<dyn ScoreService>,
        Arc::clone(&service) as Arc<dyn GraphUpdater>,
        config,
        "127.0.0.1:0",
    )
    .expect("bind server");
    let addr = handle.addr();

    // Live pre-tick parity over HTTP.
    let mut dots = Vec::new();
    for &(user, item) in &pairs {
        let resp = post(
            addr,
            "/explain",
            &format!(
                "{{\"user\": {user}, \"item\": {item}, \"threshold_milli\": {THRESHOLD_MILLI}}}"
            ),
        )
        .expect("post");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let offline = model.explain_item(UserId(user), item, threshold).expect("explainable");
        assert_eq!(
            str_field(&resp.body, "dot").expect("dot"),
            offline.dot,
            "(user {user}, item {item})"
        );
        dots.push(offline.dot);
    }

    // Onboard the cold item through the live write path, then tick.
    assert_eq!(
        post(addr, "/update", &format!("{{\"user\": 0, \"item\": {NEW_ITEM}}}"))
            .expect("post")
            .status,
        200
    );
    let item_node = N_USERS + NEW_ITEM;
    let entity_node = N_USERS + N_ITEMS; // entity 0
    let r = post(
        addr,
        "/update",
        &format!("{{\"head\": {item_node}, \"rel\": 1, \"tail\": {entity_node}}}"),
    )
    .expect("post");
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(post(addr, "/update", "{\"refresh\": 1}").expect("post").status, 200);

    // Post-tick, live explanations must match a from-scratch rebuild of
    // the final graph — including for the freshly onboarded item.
    let reference =
        DynamicService::new(Arc::clone(&model), Arc::new(service.graph().rebuild_from_scratch()));
    let mut post_pairs = pairs.clone();
    post_pairs.push((0, NEW_ITEM));
    for &(user, item) in &post_pairs {
        let resp = post(
            addr,
            "/explain",
            &format!(
                "{{\"user\": {user}, \"item\": {item}, \"threshold_milli\": {THRESHOLD_MILLI}}}"
            ),
        )
        .expect("post");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let offline = reference.explain_item(UserId(user), item, threshold).expect("explainable");
        assert_eq!(
            str_field(&resp.body, "dot").expect("dot"),
            offline.dot,
            "post-tick explain diverged from rebuild for (user {user}, item {item})"
        );
        assert_eq!(str_field(&resp.body, "text").expect("text"), offline.text);
        dots.push(offline.dot);
    }

    handle.shutdown();
    dots
}

#[test]
fn live_explain_stays_parity_pinned_across_a_refresh_tick() {
    let at_t1 = explain_across_tick_at(1);
    let at_t8 = explain_across_tick_at(8);
    assert_eq!(at_t1, at_t8, "explanations must not depend on batch threads");
}

#[test]
fn reload_during_a_slow_tick_neither_deadlocks_nor_serves_hybrids() {
    // Two model generations over ONE shared dynamic graph, initialized
    // from different seeds so their scores are provably different. A
    // refresh tick is artificially held open for ~300ms at its Commit
    // phase while a reload and a burst of requests land inside the window.
    let ckg = ckg_with_cold_item();
    let model1 = Arc::new(KucNet::new(KucNetConfig::default(), ckg.clone()));
    let model2 = Arc::new(KucNet::new(KucNetConfig::default().with_seed(99), ckg));
    assert_ne!(
        model1.score_user(UserId(0)),
        model2.score_user(UserId(0)),
        "generations must be distinguishable for attribution checks"
    );

    let service1 = Arc::new(DynamicService::for_model(Arc::clone(&model1), 64));
    let graph = Arc::clone(service1.graph());
    let service2 = Arc::new(DynamicService::new(Arc::clone(&model2), Arc::clone(&graph)));

    let config = ServeConfig { workers: 2, ..ServeConfig::default() };
    let registry = Arc::new(ModelRegistry::single(
        Arc::clone(&service1) as Arc<dyn ScoreService>,
        config.ab_seed,
    ));
    let handle = Server::start_full(
        Arc::clone(&registry),
        None,
        Some(Arc::clone(&service1) as Arc<dyn GraphUpdater>),
        config,
        "127.0.0.1:0",
    )
    .expect("bind server");
    let addr = handle.addr();

    // Epoch-0 reference rankings for both generations, before any writes.
    let r1e0: Vec<_> = (0..N_USERS).map(|u| offline_ranking(service1.as_ref(), u)).collect();
    let r2e0: Vec<_> = (0..N_USERS).map(|u| offline_ranking(service2.as_ref(), u)).collect();

    // Stage pending writes, then hold the tick open at Commit for ~300ms.
    graph.append_interaction(0, NEW_ITEM).expect("append");
    graph.append_interaction(3, NEW_ITEM).expect("append");
    let tick_graph = Arc::clone(&graph);
    let tick = std::thread::spawn(move || {
        tick_graph.refresh_tick_observed(&mut |phase| {
            if phase == RefreshPhase::Commit {
                std::thread::sleep(Duration::from_millis(300));
            }
        })
    });
    // Let the tick thread reach (and stall in) the Commit observer.
    std::thread::sleep(Duration::from_millis(50));

    // Requests racing both the tick and the swap.
    let clients: Vec<_> = (0..3 * N_USERS as u64)
        .map(|i| {
            std::thread::spawn(move || {
                recommend(addr, i % 6, u64::from(N_ITEMS)).expect("recommend")
            })
        })
        .collect();

    // The reload MUST complete while the tick is still asleep: the registry
    // slot lock is disjoint from the graph's tick/state locks, so a swap
    // can never block behind (or deadlock with) a refresh.
    let started = Instant::now();
    let v2 =
        registry.reload("default", Arc::clone(&service2) as Arc<dyn ScoreService>).expect("reload");
    let reload_latency = started.elapsed();
    assert_eq!(v2, 2);
    assert!(
        reload_latency < Duration::from_millis(250),
        "reload took {reload_latency:?} — it blocked on the in-flight tick"
    );

    let ack = tick.join().expect("tick thread");
    assert_eq!(ack.epoch, 1, "the held tick must still commit its epoch");
    assert_eq!(graph.epoch(), 1);

    // Epoch-1 reference rankings, computed on the now-committed graph.
    let r1e1: Vec<_> = (0..N_USERS).map(|u| offline_ranking(service1.as_ref(), u)).collect();
    let r2e1: Vec<_> = (0..N_USERS).map(|u| offline_ranking(service2.as_ref(), u)).collect();

    // Every raced response must be a coherent (labeled model, single epoch)
    // pair: generation 1 responses match r1@e0 or r1@e1, generation 2
    // responses match r2@e0 or r2@e1. Anything else — a cross-model leak or
    // an intra-response epoch blend — fails.
    let mut saw = [0u32; 2];
    for client in clients {
        let resp = client.join().expect("client must not hang");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let user = u64_field(&resp.body, "user").expect("user") as usize;
        let got = items(&resp.body).expect("items");
        let version = u64_field(&resp.body, "model_version").expect("model_version");
        let (refs, label) = match version {
            1 => ([&r1e0[user], &r1e1[user]], "generation 1"),
            2 => ([&r2e0[user], &r2e1[user]], "generation 2"),
            other => panic!("unknown model version {other}: {}", resp.body),
        };
        assert!(
            refs.iter().any(|r| **r == got),
            "user {user}: response labeled {label} matches neither epoch of that model — \
             hybrid or cross-model leak: {}",
            resp.body
        );
        saw[version as usize - 1] += 1;
    }
    assert!(saw[1] > 0, "post-reload requests must reach generation 2");

    handle.shutdown();
}
