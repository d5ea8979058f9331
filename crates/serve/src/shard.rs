//! User-hash shard routing: N worker pools, each pinning one shard of a
//! segmented CKG (DESIGN.md §17).
//!
//! Each shard gets the full single-model serving stack — a
//! [`ModelRegistry`], a shard-aware [`SubgraphCache`], and a [`Batcher`]
//! worker pool — so per-shard caches only ever hold subgraphs of users the
//! shard owns, and a hot shard cannot evict another shard's working set.
//! Requests are routed by `kucnet_graph::shard_of`, the same pure hash the
//! dataset generator and the differential tests use, so a user's requests
//! always land on the pool pinning their segment.

use std::sync::Arc;

use kucnet::ScoreService;
use kucnet_graph::{shard_of, UserId};

use crate::batch::{Batcher, BatcherStats, ScoredReply};
use crate::cache::{CacheStats, SubgraphCache};
use crate::registry::ModelRegistry;
use crate::{ServeConfig, ServeError};

/// One shard's serving stack.
struct ShardHandle {
    registry: Arc<ModelRegistry>,
    cache: Arc<SubgraphCache>,
    batcher: Batcher,
}

/// Routes requests to per-shard worker pools by user hash.
pub struct ShardRouter {
    shards: Vec<ShardHandle>,
}

impl ShardRouter {
    /// Starts one pool per service. `services[s]` must be the scorer for
    /// shard `s` of the same sharded graph (same shard count, same layout);
    /// the router routes `user` to `services[shard_of(user, len)]`.
    pub fn start(
        services: Vec<Arc<dyn ScoreService>>,
        config: &ServeConfig,
    ) -> std::io::Result<Self> {
        if services.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a shard router needs at least one shard service",
            ));
        }
        let mut shards = Vec::with_capacity(services.len());
        for service in services {
            let registry = Arc::new(ModelRegistry::single(service, config.ab_seed));
            let cache = Arc::new(SubgraphCache::new(config.cache_capacity));
            let batcher = Batcher::start(Arc::clone(&registry), Arc::clone(&cache), config);
            shards.push(ShardHandle { registry, cache, batcher });
        }
        Ok(Self { shards })
    }

    /// Number of shards (worker pools).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that will serve `user`.
    pub fn shard_for(&self, user: UserId) -> usize {
        shard_of(user.0, self.shards.len())
    }

    /// Scores `user` on their shard's pool and returns the top-`top_k`
    /// ranking. Blocking, like [`Batcher::submit`]. Users outside the
    /// model's user space are rejected with [`ServeError::UnknownUser`],
    /// mirroring the HTTP frontend's validation.
    pub fn recommend(&self, user: UserId, top_k: usize) -> Result<ScoredReply, ServeError> {
        let shard = &self.shards[self.shard_for(user)];
        if user.0 as usize >= shard.registry.n_users() {
            return Err(ServeError::UnknownUser(user.0 as u64));
        }
        let k = top_k.min(shard.registry.n_items());
        shard.batcher.submit(user, k)
    }

    /// Batcher statistics of shard `s`.
    pub fn batcher_stats(&self, s: usize) -> BatcherStats {
        self.shards[s].batcher.stats()
    }

    /// Subgraph-cache statistics of shard `s`.
    pub fn cache_stats(&self, s: usize) -> CacheStats {
        self.shards[s].cache.stats()
    }

    /// The registry backing shard `s` (for admin-style toggles in benches).
    pub fn registry(&self, s: usize) -> &Arc<ModelRegistry> {
        &self.shards[s].registry
    }

    /// Shuts every pool down, draining in-flight work.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.batcher.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet::{KucNetConfig, ShardService};
    use kucnet_datasets::{DatasetProfile, GeneratedDataset};
    use kucnet_graph::ShardedCkg;

    fn router_for(n_shards: usize) -> (ShardRouter, usize) {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let ckg = data.build_ckg(&data.interactions);
        let n_users = ckg.n_users();
        let config = KucNetConfig::default();
        let sharded = ShardedCkg::from_ckg(&ckg, n_shards).unwrap();
        let services: Vec<Arc<dyn ScoreService>> = (0..n_shards)
            .map(|s| {
                Arc::new(ShardService::for_shard(config.clone(), &sharded, s))
                    as Arc<dyn ScoreService>
            })
            .collect();
        let serve = ServeConfig { workers: 1, batch_threads: 1, ..ServeConfig::default() };
        (ShardRouter::start(services, &serve).unwrap(), n_users)
    }

    #[test]
    fn rankings_are_invariant_across_shard_counts() {
        let (one, n_users) = router_for(1);
        let (two, _) = router_for(2);
        for u in 0..n_users {
            let user = UserId(u as u32);
            let a = one.recommend(user, 10).unwrap();
            let b = two.recommend(user, 10).unwrap();
            assert_eq!(a.ranking, b.ranking, "user {u} diverged between 1 and 2 shards");
        }
        one.shutdown();
        two.shutdown();
    }

    #[test]
    fn out_of_range_user_is_rejected() {
        let (router, n_users) = router_for(2);
        let err = router.recommend(UserId(n_users as u32 + 7), 5).unwrap_err();
        assert!(matches!(err, ServeError::UnknownUser(_)), "{err:?}");
        router.shutdown();
    }

    #[test]
    fn routing_is_pure_and_caches_stay_shard_local() {
        let (router, n_users) = router_for(2);
        for u in 0..n_users {
            let user = UserId(u as u32);
            assert_eq!(router.shard_for(user), shard_of(user.0, 2));
            router.recommend(user, 5).unwrap();
        }
        // Every lookup landed on the user's own shard cache.
        let total: u64 = (0..2).map(|s| router.cache_stats(s).lookups).sum();
        assert_eq!(total, n_users as u64);
        router.shutdown();
    }
}
