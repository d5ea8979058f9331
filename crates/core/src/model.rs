//! The KUCNet message-passing network (paper Section IV-B, Eqs. 5–7).
//!
//! Parameters per layer `l`: the message transform `W^l`, the attention
//! projections `W_αs^l`, `W_αr^l`, the attention vector `w_α^l`, and the
//! per-layer relation embeddings `h_r^l`. The attention bias `b_α` is shared
//! across layers and a final vector `w` maps the pair encoding `h_{u:i}^L` to
//! the score logit — exactly the parameter set `Θ` listed after Eq. (14).
//!
//! Crucially there are **no node embeddings**: representations are relative
//! to the user (`h^0_{u:u} = 0`) and propagate over the layered graph, which
//! is what makes KUCNet inductive for new items and users.

use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

use kucnet_graph::LayeredGraph;
use kucnet_tensor::{xavier_uniform, Matrix, ParamId, ParamStore, Tape, Var};

use crate::config::{Activation, AggregationNorm, KucNetConfig};

/// Parameter ids of one layer.
#[derive(Clone, Copy, Debug)]
pub struct LayerParamIds {
    /// Message transform `W^l` (`d x d`).
    pub w: ParamId,
    /// Attention source projection `W_αs^l` (`d x d_α`).
    pub w_as: ParamId,
    /// Attention relation projection `W_αr^l` (`d x d_α`).
    pub w_ar: ParamId,
    /// Attention vector `w_α^l` (`d_α x 1`).
    pub w_a: ParamId,
    /// Relation embeddings `h_r^l` (`n_relations x d`).
    pub rel: ParamId,
}

/// All KUCNet parameters (ids into a [`ParamStore`]).
#[derive(Clone, Debug)]
pub struct KucNetParams {
    /// Per-layer parameters.
    pub layers: Vec<LayerParamIds>,
    /// Shared attention bias `b_α` (`1 x d_α`).
    pub b_alpha: ParamId,
    /// Final scoring vector `w` (`d x 1`).
    pub final_w: ParamId,
}

impl KucNetParams {
    /// Initializes all parameters into `store` for a CKG with
    /// `n_relations_total` relation ids.
    pub fn init(
        store: &mut ParamStore,
        config: &KucNetConfig,
        n_relations_total: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let (d, da) = (config.dim, config.attn_dim);
        let mut layers = Vec::with_capacity(config.depth);
        for l in 0..config.depth {
            layers.push(LayerParamIds {
                w: store.add(format!("layer{l}.w"), xavier_uniform(d, d, rng)),
                w_as: store.add(format!("layer{l}.w_as"), xavier_uniform(d, da, rng)),
                w_ar: store.add(format!("layer{l}.w_ar"), xavier_uniform(d, da, rng)),
                w_a: store.add(format!("layer{l}.w_a"), xavier_uniform(da, 1, rng)),
                rel: store.add(format!("layer{l}.rel"), xavier_uniform(n_relations_total, d, rng)),
            });
        }
        let b_alpha = store.add("b_alpha", Matrix::zeros(1, config.attn_dim));
        let final_w = store.add("final_w", xavier_uniform(config.dim, 1, rng));
        Self { layers, b_alpha, final_w }
    }

    /// Binds every parameter onto `tape`, returning the bound vars and the
    /// `(id, var)` pairs needed to read gradients back.
    pub fn bind(&self, store: &ParamStore, tape: &Tape) -> (BoundParams, Vec<(ParamId, Var)>) {
        let mut bindings = Vec::new();
        let mut bind = |id: ParamId| {
            let v = store.bind(tape, id);
            bindings.push((id, v));
            v
        };
        let layers = self
            .layers
            .iter()
            .map(|l| BoundLayer {
                w: bind(l.w),
                w_as: bind(l.w_as),
                w_ar: bind(l.w_ar),
                w_a: bind(l.w_a),
                rel: bind(l.rel),
            })
            .collect();
        let b_alpha = bind(self.b_alpha);
        let final_w = bind(self.final_w);
        (BoundParams { layers, b_alpha, final_w }, bindings)
    }

    /// Binds every parameter as a constant (inference: no gradient buffers).
    pub fn bind_frozen(&self, store: &ParamStore, tape: &Tape) -> BoundParams {
        let bind = |id: ParamId| tape.constant_of(store.value(id));
        BoundParams {
            layers: self
                .layers
                .iter()
                .map(|l| BoundLayer {
                    w: bind(l.w),
                    w_as: bind(l.w_as),
                    w_ar: bind(l.w_ar),
                    w_a: bind(l.w_a),
                    rel: bind(l.rel),
                })
                .collect(),
            b_alpha: bind(self.b_alpha),
            final_w: bind(self.final_w),
        }
    }
}

/// Tape-bound parameters of one layer.
#[derive(Clone, Copy)]
pub struct BoundLayer {
    /// `W^l`.
    pub w: Var,
    /// `W_αs^l`.
    pub w_as: Var,
    /// `W_αr^l`.
    pub w_ar: Var,
    /// `w_α^l`.
    pub w_a: Var,
    /// `h_r^l` table.
    pub rel: Var,
}

/// Tape-bound parameters of the whole model.
pub struct BoundParams {
    /// Per-layer bound parameters.
    pub layers: Vec<BoundLayer>,
    /// Shared attention bias.
    pub b_alpha: Var,
    /// Final scoring vector.
    pub final_w: Var,
}

/// Output of one forward pass over a layered graph.
pub struct ForwardOutput {
    /// Representation of every node in the final layer (`|V^L| x d`).
    pub final_h: Var,
    /// Per-layer attention weights (empty when attention is disabled).
    /// `attention[l][e]` is `α` for edge `e` of layer `l`.
    pub attention: Vec<Vec<f32>>,
}

/// Runs the KUCNet message passing (Eq. 5 with message function Eq. 6) over
/// `graph` on `tape`. `dropout_rng` enables inverted dropout when training.
pub fn forward(
    tape: &Tape,
    params: &BoundParams,
    config: &KucNetConfig,
    graph: &LayeredGraph,
    mut dropout_rng: Option<&mut SmallRng>,
) -> ForwardOutput {
    assert_eq!(params.layers.len(), graph.depth(), "depth mismatch");
    let d = config.dim;
    // h^0_{u:u} = 0 for the single root node.
    let mut h = tape.zeros_constant(1, d);
    let mut attention = Vec::new();

    for (l, layer) in graph.layers.iter().enumerate() {
        let p = &params.layers[l];
        let out_rows = graph.node_lists[l + 1].len();
        if layer.n_edges() == 0 {
            h = tape.zeros_constant(out_rows, d);
            if config.attention {
                attention.push(Vec::new());
            }
            continue;
        }
        // message = W^l (h_s + h_r) = (h W^l)[s] + (h_r W^l)[r]: the
        // transform is linear, so it runs once per node and once per
        // relation, and each edge only gathers and adds two rows.
        let node_msg = tape.matmul(h, p.w);
        let rel_msg = tape.matmul(p.rel, p.w);
        let msg = tape.gather_pair_add(node_msg, &layer.src_pos, rel_msg, &layer.rel);
        // Per-edge scale: attention α, the random-walk 1/outdeg, or both.
        let mut edge_scale = config.attention.then(|| {
            // α = σ(w_α^T ReLU(W_αs h_s + W_αr h_r + b_α))   (Eq. 6), with
            // both projections likewise applied per node and per relation
            // and the add/broadcast/relu/matmul/sigmoid chain fused.
            let a_s = tape.gather_rows(tape.matmul(h, p.w_as), &layer.src_pos);
            let a_r = tape.gather_rows(tape.matmul(p.rel, p.w_ar), &layer.rel);
            let alpha = tape.attn_edge_score(a_s, a_r, params.b_alpha, p.w_a);
            attention.push(tape.with_value(alpha, |m| m.data().to_vec()));
            alpha
        });
        if config.agg_norm == AggregationNorm::RandomWalk {
            // Divide each message by its source's out-edge count in this
            // layer: aggregated values become degree-normalized path mass.
            let mut outdeg = vec![0.0f32; graph.node_lists[l].len()];
            for &sp in &layer.src_pos {
                outdeg[sp as usize] += 1.0;
            }
            let e = layer.n_edges();
            let mut inv = tape.scratch_buffer(e);
            for (slot, &sp) in inv.iter_mut().zip(&layer.src_pos) {
                *slot = 1.0 / outdeg[sp as usize].max(1.0);
            }
            let inv = tape.constant_from_buffer(e, 1, inv);
            edge_scale = Some(edge_scale.map_or(inv, |alpha| tape.mul_col_broadcast(alpha, inv)));
        }
        let mask = dropout_rng.as_deref_mut().filter(|_| config.dropout > 0.0).map(|rng| {
            let keep = 1.0 - config.dropout;
            let scale = 1.0 / keep;
            let mut mask = tape.scratch_buffer(layer.n_edges() * d);
            for slot in mask.iter_mut() {
                *slot = if rng.random_range(0.0f32..1.0) < keep { scale } else { 0.0 };
            }
            mask
        });
        // Fused scale + dropout-mask + scatter: replaces up to two full
        // edge-sized intermediates per layer with a single pass.
        let mut agg = tape.scale_mask_scatter_add(msg, edge_scale, mask, &layer.dst_pos, out_rows);
        if config.agg_norm == AggregationNorm::MeanIn {
            let mut indeg = vec![0.0f32; out_rows];
            for &d in &layer.dst_pos {
                indeg[d as usize] += 1.0;
            }
            let mut inv = tape.scratch_buffer(out_rows);
            for (slot, &c) in inv.iter_mut().zip(&indeg) {
                *slot = if c > 0.0 { 1.0 / c } else { 0.0 };
            }
            let inv = tape.constant_from_buffer(out_rows, 1, inv);
            agg = tape.mul_col_broadcast(agg, inv);
        }
        h = match config.activation {
            Activation::Identity => agg,
            Activation::Tanh => tape.tanh(agg),
            Activation::Relu => tape.relu(agg),
        };
    }
    ForwardOutput { final_h: h, attention }
}

/// Maps final-layer node representations to score logits `ŷ = w^T h` (Eq. 7),
/// returning a `(|V^L| x 1)` var.
pub fn score_logits(tape: &Tape, params: &BoundParams, final_h: Var) -> Var {
    tape.matmul(final_h, params.final_w)
}

/// Builds a fresh seeded RNG for a model config.
pub fn model_rng(config: &KucNetConfig) -> SmallRng {
    SmallRng::seed_from_u64(config.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_graph::{
        build_layered_graph, CkgBuilder, EntityId, ItemId, KeepAll, KgNode, LayeringOptions, UserId,
    };

    fn toy_ckg() -> kucnet_graph::Ckg {
        let mut b = CkgBuilder::new(2, 3, 2, 2);
        b.interact(UserId(0), ItemId(0));
        b.interact(UserId(0), ItemId(1));
        b.interact(UserId(1), ItemId(0));
        b.kg_triple(KgNode::Item(ItemId(1)), 0, KgNode::Entity(EntityId(0)));
        b.kg_triple(KgNode::Item(ItemId(2)), 0, KgNode::Entity(EntityId(0)));
        b.build()
    }

    fn setup(config: &KucNetConfig) -> (kucnet_graph::Ckg, ParamStore, KucNetParams) {
        let ckg = toy_ckg();
        let mut store = ParamStore::new();
        let mut rng = model_rng(config);
        let params = KucNetParams::init(
            &mut store,
            config,
            ckg.csr().n_relations_total() as usize,
            &mut rng,
        );
        (ckg, store, params)
    }

    #[test]
    fn forward_produces_final_layer_scores() {
        let config = KucNetConfig::default();
        let (ckg, store, params) = setup(&config);
        let root = ckg.user_node(UserId(0));
        let graph =
            build_layered_graph(ckg.csr(), root, &LayeringOptions::new(config.depth), &mut KeepAll);
        let tape = Tape::new();
        let bound = params.bind_frozen(&store, &tape);
        let out = forward(&tape, &bound, &config, &graph, None);
        let scores = score_logits(&tape, &bound, out.final_h);
        let v = tape.value(scores);
        assert_eq!(v.rows(), graph.node_lists[config.depth].len());
        assert_eq!(v.cols(), 1);
        assert!(v.all_finite());
    }

    #[test]
    fn attention_weights_in_unit_interval() {
        let config = KucNetConfig::default();
        let (ckg, store, params) = setup(&config);
        let graph = build_layered_graph(
            ckg.csr(),
            ckg.user_node(UserId(0)),
            &LayeringOptions::new(config.depth),
            &mut KeepAll,
        );
        let tape = Tape::new();
        let bound = params.bind_frozen(&store, &tape);
        let out = forward(&tape, &bound, &config, &graph, None);
        assert_eq!(out.attention.len(), config.depth);
        for layer in &out.attention {
            for &a in layer {
                assert!((0.0..=1.0).contains(&a), "alpha {a} outside [0,1]");
            }
        }
    }

    #[test]
    fn no_attention_skips_weights() {
        let config = KucNetConfig::default().without_attention();
        let (ckg, store, params) = setup(&config);
        let graph = build_layered_graph(
            ckg.csr(),
            ckg.user_node(UserId(0)),
            &LayeringOptions::new(config.depth),
            &mut KeepAll,
        );
        let tape = Tape::new();
        let bound = params.bind_frozen(&store, &tape);
        let out = forward(&tape, &bound, &config, &graph, None);
        assert!(out.attention.is_empty());
    }

    #[test]
    fn gradients_flow_to_all_parameter_kinds() {
        let config = KucNetConfig::default();
        let (ckg, store, params) = setup(&config);
        let graph = build_layered_graph(
            ckg.csr(),
            ckg.user_node(UserId(0)),
            &LayeringOptions::new(config.depth),
            &mut KeepAll,
        );
        let tape = Tape::new();
        let (bound, bindings) = params.bind(&store, &tape);
        let out = forward(&tape, &bound, &config, &graph, None);
        let scores = score_logits(&tape, &bound, out.final_h);
        let loss = tape.sum_all(tape.square(scores));
        tape.backward(loss);
        let with_grad = bindings.iter().filter(|&&(_, v)| tape.grad(v).is_some()).count();
        // Every parameter should receive a gradient for depth 3 on this graph.
        assert_eq!(with_grad, bindings.len(), "all params should get gradients");
    }

    #[test]
    fn deterministic_forward_under_seed() {
        let config = KucNetConfig::default();
        let run = || {
            let (ckg, store, params) = setup(&config);
            let graph = build_layered_graph(
                ckg.csr(),
                ckg.user_node(UserId(0)),
                &LayeringOptions::new(config.depth),
                &mut KeepAll,
            );
            let tape = Tape::new();
            let bound = params.bind_frozen(&store, &tape);
            let out = forward(&tape, &bound, &config, &graph, None);
            let scores = score_logits(&tape, &bound, out.final_h);
            tape.value(scores)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn param_count_is_independent_of_graph_size() {
        // The headline of Figure 5: parameters do not scale with |V|.
        let config = KucNetConfig::default();
        let (_, store, _) = setup(&config);
        let per_layer = config.dim * config.dim
            + 2 * config.dim * config.attn_dim
            + config.attn_dim
            + 7 * config.dim; // 7 relation ids total for this toy CKG (2*3+1)
        let expected = config.depth * per_layer + config.attn_dim + config.dim;
        assert_eq!(store.num_scalars(), expected);
    }
}
