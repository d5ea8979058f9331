//! The scoring pipeline every graph source shares.
//!
//! KUCNet scores a user with one pipeline (Algorithm 1, Eqs. 5–7): prune a
//! user-centric graph with PPR, run `L` attention layers over it, read out
//! one logit per final-layer node. Only where the adjacency and the PPR
//! entries come from differs between the in-memory [`crate::KucNet`], one
//! shard's segments ([`crate::ShardService`]) and a dynamic snapshot
//! (`kucnet_dynamic::DynamicService`). This module holds the rest, once:
//!
//! - [`build_user_graph`] — the selector dispatch over any [`GraphView`];
//! - [`FrozenModel`] — config, parameters, the node layout and the
//!   inference pools: everything that turns a built graph into per-item
//!   scores.

use rand::rngs::SmallRng;

use kucnet_graph::{
    build_layered_graph, GraphView, KeepAll, LayeredGraph, LayeringOptions, NodeId, SegmentLayout,
    UserId,
};
use kucnet_ppr::{PprTopK, RandomK};
use kucnet_tensor::{MatrixPool, ParamStore, PoolStash};

use crate::config::{KucNetConfig, SelectorKind};
use crate::infer::infer_node_logits_pooled;
use crate::model::KucNetParams;

/// Builds `user`'s pruned computation graph over `view` (Algorithm 1).
///
/// The root is the user's own node: users occupy node ids `0..n_users` in
/// every layout. `ppr_entries` are the user's sparse PPR scores in global
/// node ids, sorted by node; only [`SelectorKind::PprTopK`] reads them, so
/// a source may pass an empty slice for the other selectors. `excluded`
/// hides `(user, item)` interaction edges (training-time target masking).
/// Given the same view, entries and config, every source builds the same
/// graph edge for edge.
pub fn build_user_graph<G: GraphView>(
    view: &G,
    user: UserId,
    config: &KucNetConfig,
    ppr_entries: &[(u32, f32)],
    excluded: Vec<(NodeId, NodeId)>,
) -> LayeredGraph {
    let root = NodeId(user.0);
    let opts = LayeringOptions::new(config.depth).exclude_interactions(excluded);
    match config.selector {
        SelectorKind::PprTopK => {
            let mut sel = PprTopK::from_entries(ppr_entries, config.k);
            build_layered_graph(view, root, &opts, &mut sel)
        }
        SelectorKind::RandomK => {
            let seed =
                config.seed.wrapping_add(u64::from(user.0).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            build_layered_graph(view, root, &opts, &mut RandomK::new(config.k, seed))
        }
        SelectorKind::KeepAll => build_layered_graph(view, root, &opts, &mut KeepAll),
    }
}

/// The weights side of scoring: hyper-parameters, the parameters, the node
/// layout that maps final-layer nodes to items, and a stash of warm
/// inference pools.
///
/// KUCNet learns no node embeddings, so the parameters depend only on the
/// config and the relation vocabulary: every graph source seeded from the
/// same config carries bitwise-identical weights.
pub struct FrozenModel {
    config: KucNetConfig,
    layout: SegmentLayout,
    store: ParamStore,
    params: KucNetParams,
    pools: PoolStash,
}

impl FrozenModel {
    /// Initializes parameters for a graph with `layout` and
    /// `n_base_relations` base relations, drawing from `rng` (seeded by
    /// [`crate::model_rng`] so every source gets the same weights).
    pub(crate) fn init(
        config: KucNetConfig,
        layout: SegmentLayout,
        n_base_relations: u32,
        rng: &mut SmallRng,
    ) -> Self {
        let mut store = ParamStore::new();
        let n_relations_total = 2 * n_base_relations as usize + 1;
        let params = KucNetParams::init(&mut store, &config, n_relations_total, rng);
        Self { config, layout, store, params, pools: PoolStash::new() }
    }

    /// The hyper-parameters.
    pub(crate) fn config(&self) -> &KucNetConfig {
        &self.config
    }

    /// The global `users | items | entities` node layout.
    pub(crate) fn layout(&self) -> SegmentLayout {
        self.layout
    }

    /// The parameter values.
    pub(crate) fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter values (training, checkpoint restore).
    pub(crate) fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// The parameter handles into [`FrozenModel::store`].
    pub(crate) fn params(&self) -> &KucNetParams {
        &self.params
    }

    /// Scores every item over `graph` (indexed by item id), drawing
    /// intermediates from the model's own pool stash: the
    /// [`score_items_pooled`](Self::score_items_pooled) list scattered
    /// into a dense vector, so items absent from the final layer score 0
    /// (Algorithm 1).
    pub(crate) fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
        let mut item_scores = vec![0.0f32; self.layout.n_items as usize];
        for (item, logit) in self.score_items_pooled(&mut self.pools.checkout(), graph) {
            item_scores[item as usize] = logit;
        }
        item_scores
    }

    /// The `(item id, logit)` pair of every item node in `graph`'s final
    /// layer, in final-layer order, drawing intermediates from `pool`.
    /// Every other item scores 0 (Algorithm 1), so the list is the whole
    /// ranking input at the cost of the final layer, not the catalogue.
    pub fn score_items_pooled(
        &self,
        pool: &mut MatrixPool,
        graph: &LayeredGraph,
    ) -> Vec<(u32, f32)> {
        let logits = infer_node_logits_pooled(pool, &self.store, &self.params, &self.config, graph);
        let Some(last) = graph.node_lists.last() else { return Vec::new() };
        last.iter()
            .zip(logits)
            .filter_map(|(&node, logit)| Some((self.layout.item_index(node)?, logit)))
            .collect()
    }
}
