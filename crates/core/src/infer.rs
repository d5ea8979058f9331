//! Tape-free inference: the KUCNet forward pass with frozen parameters.
//!
//! Training records every op on a [`Tape`](kucnet_tensor::Tape) so gradients
//! can flow backward; scoring a user online needs none of that. This module
//! re-runs the exact arithmetic of [`crate::model::forward`] +
//! [`crate::model::score_logits`] directly over [`Matrix`] values — same
//! kernels, same op order, so the scores are bit-identical to the taped
//! forward in eval mode — without allocating a single tape node.
//!
//! It also defines [`ScoreService`], the trait the online serving layer
//! (`kucnet-serve`) and the offline benchmarks both consume: "give me the
//! pruned subgraph of a user" and "score all items over a subgraph" are
//! deliberately separate operations so a serving cache can memoize the
//! expensive pruning step and skip straight to scoring on repeat requests.
//! The three model-backed services (`KucNet`, `ShardService`,
//! `kucnet_dynamic::DynamicService`) differ only in their graph source and
//! all score through one [`FrozenModel`](crate::FrozenModel).

use std::sync::Arc;

use kucnet_graph::{LayeredGraph, UserId};
use kucnet_tensor::{
    fused_gather_add_scale_scatter_into, fused_gather_attn_scores_into, scale_rows_in_place, tanh,
    Matrix, MatrixPool, ParamStore,
};

use crate::config::{Activation, AggregationNorm, KucNetConfig};
use crate::model::KucNetParams;

/// Runs the KUCNet propagation (Eqs. 5–7) over `graph` with the frozen
/// parameters in `store`, returning the score logit of every node in the
/// final layer. No tape, no gradient bookkeeping.
///
/// Dropout is never applied (this is an eval-mode path), matching
/// `forward(..., dropout_rng: None)`.
pub fn infer_node_logits(
    store: &ParamStore,
    params: &KucNetParams,
    config: &KucNetConfig,
    graph: &LayeredGraph,
) -> Vec<f32> {
    infer_node_logits_pooled(&mut MatrixPool::new(), store, params, config, graph)
}

/// [`infer_node_logits`] drawing every intermediate from `pool`: on a warm
/// pool a whole propagation allocates nothing fresh. Scores are bitwise
/// identical to the unpooled path — every kernel overwrites (or starts
/// zeroed in) its output, and per-element arithmetic order is unchanged.
pub fn infer_node_logits_pooled(
    pool: &mut MatrixPool,
    store: &ParamStore,
    params: &KucNetParams,
    config: &KucNetConfig,
    graph: &LayeredGraph,
) -> Vec<f32> {
    assert_eq!(params.layers.len(), graph.depth(), "depth mismatch");
    // h^0_{u:u} = 0 for the single root node.
    let mut h = pool.matrix_zeroed(1, config.dim);
    for l in 0..graph.layers.len() {
        h = propagate_layer(pool, store, params, config, graph, l, h);
    }
    readout(pool, h, store.value(params.final_w))
}

/// ŷ = w^T h (Eq. 7): one logit per final-layer node, releasing `h`.
fn readout(pool: &mut MatrixPool, h: Matrix, final_w: &Matrix) -> Vec<f32> {
    let mut out = pool.matrix_raw(h.rows(), 1);
    h.matmul_into(final_w, &mut out);
    let logits = out.data().to_vec();
    pool.release_matrix(h);
    pool.release_matrix(out);
    logits
}

/// One propagation layer of the tape-free forward (the loop body of
/// [`infer_node_logits_pooled`]). Consumes (and releases) `h`, returning
/// the next layer's activations.
fn propagate_layer(
    pool: &mut MatrixPool,
    store: &ParamStore,
    params: &KucNetParams,
    config: &KucNetConfig,
    graph: &LayeredGraph,
    l: usize,
    h: Matrix,
) -> Matrix {
    let d = config.dim;
    let layer = &graph.layers[l];
    let p = &params.layers[l];
    let out_rows = graph.node_lists[l + 1].len();
    if layer.n_edges() == 0 {
        pool.release_matrix(h);
        return pool.matrix_zeroed(out_rows, d);
    }
    let e = layer.n_edges();
    let (n, da) = (h.rows(), config.attn_dim);
    let rel = store.value(p.rel);
    // message = W^l (h_s + h_r) = (h W^l)[s] + (h_r W^l)[r]: one matmul
    // over the node rows and one over the relation table, recomputed on
    // every call (R×d², small next to the node side).
    let mut node_msg = pool.matrix_raw(n, d);
    h.matmul_into(store.value(p.w), &mut node_msg);
    let mut rel_msg = pool.matrix_raw(rel.rows(), d);
    rel.matmul_into(store.value(p.w), &mut rel_msg);
    let mut scale = config.attention.then(|| {
        // α = σ(w_α^T ReLU(W_αs h_s + W_αr h_r + b_α))   (Eq. 6), with the
        // projections applied per node and per relation and the per-edge
        // gather + score fused into one pass.
        let mut node_attn = pool.matrix_raw(n, da);
        h.matmul_into(store.value(p.w_as), &mut node_attn);
        let mut rel_attn = pool.matrix_raw(rel.rows(), da);
        rel.matmul_into(store.value(p.w_ar), &mut rel_attn);
        let mut alpha = pool.matrix_raw(e, 1);
        fused_gather_attn_scores_into(
            &node_attn,
            &layer.src_pos,
            &rel_attn,
            &layer.rel,
            store.value(params.b_alpha),
            store.value(p.w_a),
            &mut alpha,
        );
        pool.release_matrix(node_attn);
        pool.release_matrix(rel_attn);
        alpha
    });
    if config.agg_norm == AggregationNorm::RandomWalk {
        let mut outdeg = pool.acquire_zeroed(graph.node_lists[l].len());
        for &sp in &layer.src_pos {
            outdeg[sp as usize] += 1.0;
        }
        // Fold 1/outdeg into α (or into a unit scale, exactly: 1.0 · x = x),
        // the same product the taped `mul_col_broadcast` records.
        let s = scale.get_or_insert_with(|| {
            let mut ones = pool.matrix_raw(e, 1);
            ones.data_mut().fill(1.0);
            ones
        });
        for (a, &sp) in s.data_mut().iter_mut().zip(&layer.src_pos) {
            *a *= 1.0 / outdeg[sp as usize].max(1.0);
        }
        pool.release(outdeg);
    }
    // Fused gather + add + scale + scatter into a pooled accumulator.
    let mut agg = pool.matrix_zeroed(out_rows, d);
    fused_gather_add_scale_scatter_into(
        &node_msg,
        &layer.src_pos,
        &rel_msg,
        &layer.rel,
        scale.as_ref(),
        &layer.dst_pos,
        &mut agg,
    );
    if let Some(s) = scale {
        pool.release_matrix(s);
    }
    pool.release_matrix(node_msg);
    pool.release_matrix(rel_msg);
    layer_epilogue(pool, config, &layer.dst_pos, &mut agg);
    pool.release_matrix(h);
    agg
}

/// The per-layer epilogue: mean-in normalization of the aggregated rows
/// (when configured), then the activation `δ`.
fn layer_epilogue(pool: &mut MatrixPool, config: &KucNetConfig, dst_pos: &[u32], agg: &mut Matrix) {
    if config.agg_norm == AggregationNorm::MeanIn {
        let mut indeg = pool.acquire_zeroed(agg.rows());
        for &dst in dst_pos {
            indeg[dst as usize] += 1.0;
        }
        let mut inv = pool.acquire(agg.rows());
        for (slot, &c) in inv.iter_mut().zip(indeg.iter()) {
            *slot = if c > 0.0 { 1.0 / c } else { 0.0 };
        }
        scale_rows_in_place(agg, &inv);
        pool.release(indeg);
        pool.release(inv);
    }
    match config.activation {
        Activation::Identity => {}
        Activation::Tanh => {
            for x in agg.data_mut() {
                *x = tanh(*x);
            }
        }
        Activation::Relu => {
            for x in agg.data_mut() {
                *x = x.max(0.0);
            }
        }
    }
}

/// A trained model usable as an online candidate scorer.
///
/// The two halves of scoring are exposed separately because they have very
/// different costs and cacheability: [`build_user_graph`] runs PPR-guided
/// pruning and layering (expensive, deterministic per user — memoizable),
/// while [`score_graph`] is one propagation over an already-built subgraph
/// (cheap, depends on the current parameters). `kucnet-serve` caches the
/// former per user and calls the latter per request.
///
/// **Sparse contract.** Items outside a graph's final layer score exactly 0
/// (Algorithm 1), so [`score_items_pooled`] returns only the scored items
/// as `(item id, score)` pairs; the dense [`score_graph`] is that list
/// scattered over zeros. A ranking of either form is the same under the
/// one tie rule every ranking here uses — score descending, then item id
/// ascending (`kucnet_eval::top_n_indices` on the dense vector,
/// `kucnet_eval::top_n_sparse` on the list).
///
/// [`build_user_graph`]: ScoreService::build_user_graph
/// [`score_graph`]: ScoreService::score_graph
/// [`score_items_pooled`]: ScoreService::score_items_pooled
pub trait ScoreService: Send + Sync {
    /// Display name of the underlying model.
    fn name(&self) -> String;

    /// Number of users the model can score.
    fn n_users(&self) -> usize;

    /// Number of items each score vector covers.
    fn n_items(&self) -> usize;

    /// Builds the pruned inference-time computation graph of `user` from
    /// scratch (no internal caching — callers own memoization policy).
    fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph>;

    /// Scores every item for the user `graph` was built for (indexed by
    /// `ItemId.0`; items absent from the final layer score 0).
    fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32>;

    /// The items [`score_graph`](ScoreService::score_graph) may score
    /// non-zero, as distinct `(item id, score)` pairs in any order, drawing
    /// intermediates from a caller-held pool. Every item not listed must
    /// score exactly 0 in `score_graph`, and every listed score must match
    /// it bitwise. Model-backed services return the final layer's items, so
    /// batch scorers that keep one warm pool per worker pay for the
    /// subgraph, not the catalogue. The default lists the whole dense
    /// `score_graph` vector and ignores the pool.
    fn score_items_pooled(&self, _pool: &mut MatrixPool, graph: &LayeredGraph) -> Vec<(u32, f32)> {
        (0u32..).zip(self.score_graph(graph)).collect()
    }

    /// Convenience: build the graph and score it in one call.
    fn score_user(&self, user: UserId) -> Vec<f32> {
        self.score_graph(&self.build_user_graph(user))
    }

    /// Renders the attention-path explanation (paper Figure 7) of scoring
    /// `item` for `user` against the service's *current* graph state,
    /// keeping edges with attention at least `threshold`.
    ///
    /// Returns `None` when the service cannot produce explanations (mocks,
    /// fault wrappers without an inner model) or when `user`/`item` are out
    /// of range; the serving layer maps that to a 400. The default is
    /// unsupported — `kucnet::KucNet` and `kucnet_dynamic::DynamicService`
    /// override it.
    fn explain_item(&self, _user: UserId, _item: u32, _threshold: f32) -> Option<ExplainOutput> {
        None
    }

    /// Pins the current graph state for a batch of builds.
    ///
    /// Static services return a [`StaticGraphContext`] (version 0 for every
    /// user, builds delegate to
    /// [`build_user_graph`](ScoreService::build_user_graph)). Services over a
    /// mutating graph override this to snapshot the live epoch once per
    /// batch, so every build in the batch sees one consistent graph even if
    /// a `refresh_tick` lands mid-batch.
    fn graph_context(&self) -> Box<dyn GraphContext + '_> {
        Box::new(StaticGraphContext(self))
    }
}

/// A rendered explanation as returned by [`ScoreService::explain_item`]:
/// the Figure 7 DOT digraph plus the human-readable text rendering.
///
/// Both strings are produced by `kucnet::Explanation::{to_dot, to_text}`,
/// so a live endpoint serving `dot` verbatim is byte-identical to the
/// offline `fig7_explain` extraction for the same `(user, item, threshold)`
/// on the same graph state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainOutput {
    /// Graphviz DOT digraph of the kept attention paths.
    pub dot: String,
    /// Indented per-edge text rendering of the same paths.
    pub text: String,
    /// Number of supporting edges kept at the threshold.
    pub n_edges: usize,
}

/// A pinned, immutable view of the graph state used to build user subgraphs
/// for one batch. See [`ScoreService::graph_context`].
pub trait GraphContext: Send + Sync {
    /// Monotonic version of `user`'s subgraph under this context. A cached
    /// subgraph built at an older version is stale and must be rebuilt.
    fn user_version(&self, user: UserId) -> u64;

    /// Builds `user`'s pruned computation graph against the pinned state.
    fn build(&self, user: UserId) -> Arc<LayeredGraph>;
}

/// The trivial [`GraphContext`] of an immutable service: every user is
/// forever at version 0 and builds go straight to the service.
pub struct StaticGraphContext<'a, S: ?Sized + ScoreService>(pub &'a S);

impl<S: ?Sized + ScoreService> GraphContext for StaticGraphContext<'_, S> {
    fn user_version(&self, _user: UserId) -> u64 {
        0
    }

    fn build(&self, user: UserId) -> Arc<LayeredGraph> {
        self.0.build_user_graph(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{forward, model_rng, score_logits};
    use crate::KucNet;
    use kucnet_datasets::{traditional_split, DatasetProfile, GeneratedDataset};
    use kucnet_eval::Recommender;
    use kucnet_graph::{build_layered_graph, KeepAll, LayeringOptions};
    use kucnet_tensor::Tape;

    fn logits_via_tape(
        store: &ParamStore,
        params: &KucNetParams,
        config: &KucNetConfig,
        graph: &LayeredGraph,
    ) -> Vec<f32> {
        let tape = Tape::new();
        let bound = params.bind_frozen(store, &tape);
        let out = forward(&tape, &bound, config, graph, None);
        let scores = score_logits(&tape, &bound, out.final_h);
        tape.value(scores).data().to_vec()
    }

    fn parity_case(config: KucNetConfig) {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 13);
        let ckg = data.build_ckg(&data.interactions);
        let mut store = ParamStore::new();
        let mut rng = model_rng(&config);
        let params = KucNetParams::init(
            &mut store,
            &config,
            ckg.csr().n_relations_total() as usize,
            &mut rng,
        );
        for u in 0..3u32 {
            let root = ckg.user_node(UserId(u));
            let graph = build_layered_graph(
                ckg.csr(),
                root,
                &LayeringOptions::new(config.depth),
                &mut KeepAll,
            );
            let taped = logits_via_tape(&store, &params, &config, &graph);
            let free = infer_node_logits(&store, &params, &config, &graph);
            assert_eq!(taped, free, "tape-free forward diverged (user {u}, {config:?})");
        }
    }

    #[test]
    fn tape_free_forward_is_bit_identical_to_taped() {
        parity_case(KucNetConfig::default());
        parity_case(KucNetConfig::default().without_attention());
        parity_case(KucNetConfig {
            activation: Activation::Relu,
            agg_norm: AggregationNorm::MeanIn,
            ..KucNetConfig::default()
        });
        parity_case(KucNetConfig {
            activation: Activation::Identity,
            agg_norm: AggregationNorm::RandomWalk,
            ..KucNetConfig::default()
        });
    }

    #[test]
    fn score_service_matches_recommender_scores() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 21);
        let split = traditional_split(&data, 0.25, 3);
        let model = KucNet::new(KucNetConfig::default(), data.build_ckg(&split.train));
        let service: &dyn ScoreService = &model;
        for u in 0..4u32 {
            let via_trait = service.score_user(UserId(u));
            let via_recommender = model.score_items(UserId(u));
            assert_eq!(via_trait, via_recommender, "user {u}");
        }
        assert_eq!(service.n_items(), model.ckg().n_items());
        assert_eq!(service.n_users(), model.ckg().n_users());
    }
}
