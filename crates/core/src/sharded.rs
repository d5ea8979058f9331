//! Shard-scoped scoring over a segmented CKG (DESIGN.md §17).
//!
//! A [`ShardService`] is one shard's slice of a [`ShardedCkg`]: the segments
//! whose users hash to the shard, plus a full copy of the (node-count
//! independent) model parameters. Because KUCNet learns no node embeddings,
//! every shard seeds identical parameters from the same config, so a request
//! scored on any shard holding the user's segment returns bitwise what the
//! unsharded [`crate::KucNet`] path would.
//!
//! Scale changes one policy decision: PPR is computed **lazily per request**
//! (`sparse_ppr` on the user's segment-local CSR) instead of eagerly for
//! every user at construction — at a million users an eager cache is neither
//! affordable nor useful, while a segment-local power iteration is small.
//! The serving layer's `SubgraphCache` memoizes the built graphs, which is
//! where repeated-user work is actually saved.

use std::sync::Arc;

use kucnet_graph::{Layer, LayeredGraph, NodeId, Segment, SegmentLayout, ShardedCkg, UserId};
use kucnet_ppr::{sparse_ppr, PprConfig, PPR_KEEP};
use kucnet_tensor::MatrixPool;

use crate::config::{KucNetConfig, SelectorKind};
use crate::frozen::{build_user_graph, FrozenModel};
use crate::infer::ScoreService;
use crate::model::model_rng;

/// One shard's scoring service over a segmented CKG.
pub struct ShardService {
    model: FrozenModel,
    segments: Vec<Arc<Segment>>,
    /// `(user id, index into segments)`, sorted by user id.
    user_index: Vec<(u32, u32)>,
    shard: usize,
}

impl ShardService {
    /// Builds the service for `shard`'s segments of a sharded CKG.
    ///
    /// Parameters are freshly initialized from `config.seed` — the same
    /// stream [`crate::KucNet::new`] draws, and KUCNet's parameter count is
    /// independent of the node count, so every shard (and the unsharded
    /// reference model) carries identical weights.
    pub fn for_shard(config: KucNetConfig, sharded: &ShardedCkg, shard: usize) -> Self {
        Self::from_segments(
            config,
            sharded.layout(),
            sharded.n_base_relations(),
            sharded.shard_segments(shard).to_vec(),
            shard,
        )
    }

    /// Builds the service from an explicit segment list (the streaming
    /// dataset path, where segments are loaded shard-by-shard from disk and
    /// no [`ShardedCkg`] is ever materialized whole).
    pub fn from_segments(
        config: KucNetConfig,
        layout: SegmentLayout,
        n_base_relations: u32,
        segments: Vec<Arc<Segment>>,
        shard: usize,
    ) -> Self {
        let mut rng = model_rng(&config);
        let model = FrozenModel::init(config, layout, n_base_relations, &mut rng);
        let mut user_index: Vec<(u32, u32)> = Vec::new();
        for (idx, seg) in segments.iter().enumerate() {
            let idx = kucnet_graph::index_u32(idx, "segment index");
            for u in seg.users(layout.n_users) {
                user_index.push((u.0, idx));
            }
        }
        user_index.sort_unstable();
        Self { model, segments, user_index, shard }
    }

    /// The shard index this service was built for.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The hyper-parameters the shard scores with.
    pub fn config(&self) -> &KucNetConfig {
        self.model.config()
    }

    /// The global node layout shared by every shard of the graph.
    pub fn layout(&self) -> SegmentLayout {
        self.model.layout()
    }

    /// Approximate resident bytes of the pinned segments (the per-shard
    /// memory figure BENCH_scale reports).
    pub fn approx_graph_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.approx_bytes()).sum::<usize>() + self.user_index.len() * 8
    }

    /// The segment holding `user`, if this shard pins one.
    fn segment_of(&self, user: UserId) -> Option<&Arc<Segment>> {
        let i = self.user_index.binary_search_by_key(&user.0, |&(u, _)| u).ok()?;
        Some(&self.segments[self.user_index[i].1 as usize])
    }

    /// A depth-`L` graph with the root and no edges: the shape every scorer
    /// accepts (the depth assertions hold) and that scores every item 0 —
    /// the deterministic answer for a user this shard has no segment for.
    fn empty_graph(&self, root: NodeId) -> LayeredGraph {
        let depth = self.config().depth;
        let mut node_lists = Vec::with_capacity(depth + 1);
        node_lists.push(vec![root]);
        for _ in 0..depth {
            node_lists.push(Vec::new());
        }
        LayeredGraph { root, node_lists, layers: vec![Layer::default(); depth] }
    }

    /// Builds the user's pruned computation graph against their segment.
    ///
    /// Runs the same [`build_user_graph`] as [`crate::KucNet::build_graph`];
    /// the segment view replays global ids in parent edge order, so the
    /// result is byte-identical to the unsharded build for segment-local
    /// users.
    pub fn build_graph(&self, user: UserId) -> LayeredGraph {
        let root = NodeId(user.0);
        // The user index only lists segment members, so both lookups succeed
        // for every user this shard pins; anyone else scores an empty graph.
        let found = self.segment_of(user).and_then(|seg| Some((seg, seg.local_of(root)?)));
        let Some((seg, local_root)) = found else {
            return self.empty_graph(root);
        };
        let config = self.config();
        let entries: Vec<(u32, f32)> = if config.selector == SelectorKind::PprTopK {
            // Lift entries local→global. The mapping is monotone, so the
            // slice stays sorted by node id as `PprTopK` requires, and the
            // score sequence is untouched.
            sparse_ppr(seg.csr(), NodeId(local_root), &PprConfig::default(), PPR_KEEP)
                .iter()
                .map(|&(n, s)| (seg.nodes()[n as usize], s))
                .collect()
        } else {
            Vec::new()
        };
        let view = seg.view(self.layout().n_nodes());
        build_user_graph(&view, user, config, &entries, Vec::new())
    }
}

impl ScoreService for ShardService {
    fn name(&self) -> String {
        format!("sharded-{}", self.config().variant_name())
    }

    fn n_users(&self) -> usize {
        self.layout().n_users as usize
    }

    fn n_items(&self) -> usize {
        self.layout().n_items as usize
    }

    fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph> {
        Arc::new(self.build_graph(user))
    }

    fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
        self.model.score_graph(graph)
    }

    fn score_items_pooled(&self, pool: &mut MatrixPool, graph: &LayeredGraph) -> Vec<(u32, f32)> {
        self.model.score_items_pooled(pool, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KucNet;
    use kucnet_datasets::{DatasetProfile, GeneratedDataset};
    use kucnet_graph::shard_of;

    fn small_sharded(selector: SelectorKind) -> (KucNet, ShardedCkg, KucNetConfig) {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let ckg = data.build_ckg(&data.interactions);
        let config = KucNetConfig::default().with_selector(selector);
        let sharded = ShardedCkg::from_ckg(&ckg, 2).unwrap();
        (KucNet::new(config.clone(), ckg), sharded, config)
    }

    #[test]
    fn shard_scores_match_unsharded_bitwise() {
        for selector in [SelectorKind::PprTopK, SelectorKind::RandomK, SelectorKind::KeepAll] {
            let (model, sharded, config) = small_sharded(selector);
            let services: Vec<ShardService> = (0..sharded.n_shards())
                .map(|s| ShardService::for_shard(config.clone(), &sharded, s))
                .collect();
            for u in 0..model.n_users() {
                let user = UserId(kucnet_graph::index_u32(u, "user id"));
                let svc = &services[shard_of(user.0, sharded.n_shards())];
                let reference = ScoreService::score_user(&model, user);
                let sharded_scores = svc.score_user(user);
                assert_eq!(reference, sharded_scores, "{selector:?} user {u} diverged");
            }
        }
    }

    #[test]
    fn unknown_user_scores_all_zero() {
        let (_, sharded, config) = small_sharded(SelectorKind::PprTopK);
        let svc = ShardService::for_shard(config, &sharded, 0);
        // A user id past every segment: the service answers with zeros
        // instead of panicking anywhere in the scoring pipeline.
        let scores = svc.score_user(UserId(999_999));
        assert_eq!(scores.len(), svc.n_items());
        assert!(scores.iter().all(|&s| s == 0.0));
    }
}
