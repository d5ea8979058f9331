//! Shard-count differential suite (DESIGN.md §17): KUCNet scoring must be
//! **bitwise identical** at every shard count, and identical to the
//! unsharded `Csr` path.
//!
//! Three layers are pinned, each across shard counts `{1, 2, 8}`:
//!
//! - `ShardedCkg::from_ckg` over an in-memory CKG vs the unsharded
//!   `KucNet` reference (per-item f32 scores, bit pattern equality),
//! - the on-disk streaming `scale` dataset, loaded shard-by-shard with
//!   `load_shard_segments` (scores must not depend on how islands are
//!   grouped into shards),
//! - the serve layer over HTTP: one `Server` per shard, each request sent
//!   to the server at `shard_of(user, n)`, with every server's subgraph
//!   cache seeing only its own shard's users.
//!
//! The chain that makes this hold — edge-closed segments, monotone local
//! renumbering, parent-row copying — is argued in DESIGN.md §17.2; this
//! suite is the executable version of that argument.

use std::sync::Arc;

use kucnet::{KucNet, KucNetConfig, ScoreService, SelectorKind, ShardService};
use kucnet_datasets::{
    load_shard_segments, write_scale_dataset, DatasetProfile, GeneratedDataset, ScaleProfile,
};
use kucnet_graph::{shard_of, ShardedCkg, UserId};
use kucnet_serve::{client, ServeConfig, Server, ServerHandle};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn in_memory_sharding_matches_unsharded_csr_at_every_shard_count() {
    for selector in [SelectorKind::PprTopK, SelectorKind::RandomK] {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 7);
        let ckg = data.build_ckg(&data.interactions);
        let config = KucNetConfig::default().with_selector(selector);
        let shardings: Vec<ShardedCkg> =
            SHARD_COUNTS.iter().map(|&n| ShardedCkg::from_ckg(&ckg, n).unwrap()).collect();
        let reference = KucNet::new(config.clone(), ckg);
        for sharded in &shardings {
            let n = sharded.n_shards();
            let services: Vec<ShardService> =
                (0..n).map(|s| ShardService::for_shard(config.clone(), sharded, s)).collect();
            for u in 0..reference.n_users() {
                let user = UserId(u as u32);
                let expected = ScoreService::score_user(&reference, user);
                let got = services[shard_of(user.0, n)].score_user(user);
                assert_eq!(
                    expected.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "{selector:?} user {u} diverged at {n} shards"
                );
            }
        }
    }
}

/// A scale profile small enough for CI: 256 users over 8 islands, so every
/// shard count in `SHARD_COUNTS` divides the island count.
fn tiny_scale_profile() -> ScaleProfile {
    ScaleProfile {
        n_users: 256,
        n_islands: 8,
        items_per_island: 16,
        entities_per_island: 32,
        interactions_per_user: 4,
        kg_links_per_item: 4,
        entity_entity_links_per_island: 32,
        n_kg_relations: 8,
        popularity_exponent: 0.8,
        seed: 11,
    }
}

#[test]
fn on_disk_scale_dataset_scores_are_invariant_across_shard_counts() {
    let profile = tiny_scale_profile();
    let dir = std::env::temp_dir().join(format!("kucnet_shard_diff_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_scale_dataset(&profile, &dir).expect("generate scale dataset");

    let config = KucNetConfig::default();
    let mut reference: Option<Vec<Vec<u32>>> = None;
    for &n in &SHARD_COUNTS {
        let services: Vec<ShardService> = (0..n)
            .map(|s| {
                let segments = load_shard_segments(&dir, &profile, s, n).expect("load shard");
                ShardService::from_segments(
                    config.clone(),
                    profile.layout(),
                    profile.n_base_relations(),
                    segments,
                    s,
                )
            })
            .collect();
        let scores: Vec<Vec<u32>> = (0..profile.n_users)
            .map(|u| {
                let user = UserId(u);
                services[shard_of(u, n)].score_user(user).iter().map(|s| s.to_bits()).collect()
            })
            .collect();
        match &reference {
            None => reference = Some(scores),
            Some(expected) => {
                assert_eq!(expected, &scores, "scale scores diverged at {n} shards");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_served_rankings_are_invariant_across_shard_counts() {
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 3);
    let ckg = data.build_ckg(&data.interactions);
    let n_users = ckg.n_users() as u32;
    let config = KucNetConfig::default();
    let shardings: Vec<ShardedCkg> =
        SHARD_COUNTS.iter().map(|&n| ShardedCkg::from_ckg(&ckg, n).unwrap()).collect();
    drop(ckg);

    let serve = ServeConfig { workers: 1, batch_threads: 1, ..ServeConfig::default() };
    let mut reference: Option<Vec<Vec<(u32, u32)>>> = None;
    for sharded in &shardings {
        let n = sharded.n_shards();
        // One ordinary server per shard; the caller routes by `shard_of`.
        let servers: Vec<ServerHandle> = (0..n)
            .map(|s| {
                let service = Arc::new(ShardService::for_shard(config.clone(), sharded, s));
                Server::start(service, serve.clone(), "127.0.0.1:0").expect("start shard server")
            })
            .collect();
        let rankings: Vec<Vec<(u32, u32)>> = (0..n_users)
            .map(|u| {
                let addr = servers[shard_of(u, n)].addr();
                let resp = client::recommend(addr, u64::from(u), 10).expect("recommend");
                assert_eq!(resp.status, 200, "user {u} at {n} shards: {}", resp.body);
                let items = client::items(&resp.body).expect("items");
                items.iter().map(|&(item, score)| (item, score.to_bits())).collect()
            })
            .collect();
        // Every lookup landed on the cache of the user's own shard server.
        for (s, server) in servers.iter().enumerate() {
            let owned = (0..n_users).filter(|&u| shard_of(u, n) == s).count() as u64;
            assert_eq!(server.cache_stats().lookups, owned, "shard {s} of {n}");
            server.shutdown();
        }
        match &reference {
            None => reference = Some(rankings),
            Some(expected) => {
                assert_eq!(expected, &rankings, "served rankings diverged at {n} shards");
            }
        }
    }
}
