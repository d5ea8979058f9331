//! End-to-end dynamic serving: a live `POST /update` write path on a real
//! server, new-item onboarding within one refresh tick, and byte-identical
//! rankings against a from-scratch rebuild — at batch thread counts 1 and 8.

use std::sync::Arc;

use kucnet::{KucNet, KucNetConfig, ScoreService};
use kucnet_dynamic::DynamicService;
use kucnet_eval::top_n_indices;
use kucnet_graph::{Ckg, CkgBuilder, EntityId, ItemId, KgNode, UserId};
use kucnet_serve::client::{self, get, metric, post, recommend};
use kucnet_serve::{GraphUpdater, ServeConfig, Server};

const N_USERS: u32 = 6;
const N_ITEMS: u32 = 8;
/// The cold item: no interactions, no KG edges — unreachable at build time.
const NEW_ITEM: u32 = 7;

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

/// Runs the whole onboarding scenario at one batch thread count and returns
/// every user's served post-update ranking for cross-thread-count
/// comparison.
fn onboard_at(batch_threads: usize) -> Vec<Vec<(u32, f32)>> {
    let model = Arc::new(KucNet::new(KucNetConfig::default(), ckg_with_cold_item()));
    let service = Arc::new(DynamicService::for_model(Arc::clone(&model), 64));
    let config =
        ServeConfig { cache_capacity: 64, batch_threads, workers: 2, ..ServeConfig::default() };
    let handle = Server::start_dynamic(
        Arc::clone(&service) as Arc<dyn ScoreService>,
        Arc::clone(&service) as Arc<dyn GraphUpdater>,
        config,
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();
    let top_k = N_ITEMS as u64;

    // Before any update the cold item scores exactly 0 for every user: it
    // has no edges, so it cannot appear in any computation graph.
    for user in 0..N_USERS as u64 {
        let resp = recommend(addr, user, top_k).expect("recommend");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let score = client::items(&resp.body)
            .expect("items")
            .iter()
            .find(|(i, _)| *i == NEW_ITEM)
            .map(|&(_, s)| s);
        assert_eq!(score.unwrap_or(0.0), 0.0, "cold item scored for user {user}");
    }

    // Live onboarding through POST /update: one interaction and one KG
    // edge attach the item, then a refresh tick commits the epoch.
    let r = post(addr, "/update", &format!("{{\"user\": 0, \"item\": {NEW_ITEM}}}")).expect("post");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"op\":\"append_interaction\""), "{}", r.body);
    let item_node = N_USERS + NEW_ITEM;
    let entity_node = N_USERS + N_ITEMS; // entity 0
    let r = post(
        addr,
        "/update",
        &format!("{{\"head\": {item_node}, \"rel\": 1, \"tail\": {entity_node}}}"),
    )
    .expect("post");
    assert_eq!(r.status, 200, "{}", r.body);
    let r = post(addr, "/update", "{\"refresh\": 1}").expect("post");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"epoch\":1"), "{}", r.body);
    assert!(r.body.contains("\"applied\":2"), "{}", r.body);

    // Within one tick the item is recommendable: it reaches user 0's
    // computation graph through the new interaction edge.
    let resp = recommend(addr, 0, top_k).expect("recommend");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let items = client::items(&resp.body).expect("items");
    let (_, new_score) = *items.iter().find(|(i, _)| *i == NEW_ITEM).expect("new item served");
    assert_ne!(new_score, 0.0, "new item must score through its fresh edges");

    // Served rankings are byte-identical to a from-scratch rebuild of the
    // final graph (f32 `Display` round-trips exactly, so string-level
    // parity is score-level parity).
    let reference =
        DynamicService::new(Arc::clone(&model), Arc::new(service.graph().rebuild_from_scratch()));
    let mut served = Vec::new();
    for user in 0..N_USERS {
        let resp = recommend(addr, user as u64, top_k).expect("recommend");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let got = client::items(&resp.body).expect("items");
        let scores = reference.score_user(UserId(user));
        let expected: Vec<(u32, f32)> = top_n_indices(&scores, N_ITEMS as usize)
            .into_iter()
            .map(|i| (i as u32, scores[i]))
            .collect();
        assert_eq!(got, expected, "user {user}: served ranking diverged from rebuild");
        served.push(got);
    }

    // The update path is observable: epoch line, update counter, and the
    // eager invalidation of user 0's cached (now stale) subgraph.
    let m = get(addr, "/metrics").expect("metrics");
    assert_eq!(m.status, 200);
    let read = |name| metric(&m.body, name).expect(name);
    assert_eq!(read("kucnet_graph_epoch"), 1.0, "{}", m.body);
    assert!(read("kucnet_updates_total") >= 3.0, "{}", m.body);
    assert!(read("kucnet_cache_invalidations") >= 1.0, "{}", m.body);
    assert!(read("kucnet_cache_patched") >= 0.0, "{}", m.body);

    handle.shutdown();
    served
}

#[test]
fn new_item_onboards_within_one_tick_and_serves_identically_at_t1_and_t8() {
    let at_t1 = onboard_at(1);
    let at_t8 = onboard_at(8);
    assert_eq!(at_t1, at_t8, "served rankings must not depend on batch threads");
}

#[test]
fn static_server_rejects_updates_with_400() {
    let model = Arc::new(KucNet::new(KucNetConfig::default(), ckg_with_cold_item()));
    let handle =
        Server::start(model as Arc<dyn ScoreService>, ServeConfig::default(), "127.0.0.1:0")
            .expect("bind");
    let r = post(handle.addr(), "/update", "{\"refresh\": 1}").expect("post");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("static graph"), "{}", r.body);
    handle.shutdown();
}

#[test]
fn malformed_updates_get_400_not_panics() {
    let model = Arc::new(KucNet::new(KucNetConfig::default(), ckg_with_cold_item()));
    let service = Arc::new(DynamicService::for_model(model, 64));
    let handle = Server::start_dynamic(
        Arc::clone(&service) as Arc<dyn ScoreService>,
        Arc::clone(&service) as Arc<dyn GraphUpdater>,
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = handle.addr();
    for body in [
        "not json",
        "{\"user\": 1}",                          // half an interaction
        "{\"user\": 1, \"head\": 2}",             // mixed shapes
        "{\"refresh\": 0}",                       // refresh must be truthy
        "{\"user\": 99999, \"item\": 0}",         // user out of range
        "{\"user\": 0, \"item\": 99999}",         // item out of range
        "{\"head\": 0, \"rel\": 0, \"tail\": 7}", // interaction relation
        "{\"head\": 7, \"rel\": 1, \"tail\": 7}", // self-loop
        "{\"bogus\": 1}",                         // unknown field
    ] {
        assert_eq!(post(addr, "/update", body).expect("post").status, 400, "body `{body}`");
    }
    assert_eq!(service.epoch(), 0, "no malformed update may mutate the graph");
    // The write path still works after the abuse.
    assert_eq!(post(addr, "/update", "{\"user\": 0, \"item\": 7}").expect("post").status, 200);
    handle.shutdown();
}
