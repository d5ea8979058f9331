//! Quantized inference (DESIGN.md §16): an i8 companion of the KUCNet
//! weights plus a forward pass restructured around node-level matmuls.
//!
//! The f32 forward computes `(h_s + h_r) @ W` per **edge** — `O(E·d²)`
//! multiply-adds per layer. The quantized path exploits distributivity:
//! `(h_s + h_r) @ W = h_s @ W + h_r @ W`, so it computes `h @ Wᵗ` once per
//! **node** (a two-digit `i8×i8→i32` matmul over `|V_l|` rows — activations
//! and weights each carry a high code and a residual code, see
//! [`quant2_matmul_into`](kucnet_tensor::quant2_matmul_into)) and
//! `rel @ Wᵗ` once per relation — precomputed at quantization time, since
//! relation embeddings are parameters — leaving each edge only a fused
//! gather + add + scale + scatter over precomputed rows (`O(E·d)`
//! streaming f32). The same restructuring applies to the attention
//! projections. This is *not* bitwise-equal to the f32 path (quantization
//! is lossy and the factored sum reassociates), which is why serving gates
//! it behind the ≥ 99 % rank-parity check instead of a bitwise one.

use kucnet_graph::LayeredGraph;
use kucnet_tensor::{
    fused_gather_add_scale_scatter_into, fused_gather_attn_scores_into, quant2_matmul_into, Matrix,
    MatrixPool, ParamStore, QuantMatrix,
};

use crate::config::{AggregationNorm, KucNetConfig};
use crate::infer::{layer_epilogue, readout};
use crate::model::KucNetParams;

/// One layer's quantized companion: transposed-quantized projections plus
/// the fully precomputed per-relation message and attention tables.
#[derive(Clone, Debug)]
pub struct QuantLayer {
    /// `(W^l)ᵀ` quantized per output channel (`d×d` codes), high digit.
    pub w_t: QuantMatrix,
    /// Second (residual) digit of `(W^l)ᵀ`: codes for
    /// `Wᵀ - dequantize(w_t)`, giving the message matmul ~15 effective bits
    /// ([`quant2_matmul_into`]) — the rank-parity gate needs more headroom
    /// than a single i8 digit leaves on the densest profiles.
    pub w_t_lo: QuantMatrix,
    /// Attention projection `W_αs^l` (`d×d_α`, exact f32). Kept out of i8:
    /// attention scores multiply every message, so their error compounds
    /// hardest, while the projection is only `d_α/d` of the message-matmul
    /// flops — the rank-parity gate is what forces this mixed precision.
    pub w_as: Matrix,
    /// Attention vector `w_α^l` (`d_α×1`, exact f32 copy — tiny).
    pub w_a: Matrix,
    /// Precomputed `h_r @ W^l` for every relation (`R×d`). Computed in f32
    /// at build time — relation embeddings are parameters, so these tables
    /// are exact constants; only the activation-dependent node side pays
    /// quantization error.
    pub rel_msg: Matrix,
    /// Precomputed `h_r @ W_αr^l` for every relation (`R×d_α`), exact f32.
    pub rel_attn: Matrix,
}

/// The inference-only i8 companion of a full parameter set. Built from the
/// f32 master weights at model load / hot-swap time ([`ScoreService::
/// prepare_quantized`](crate::ScoreService::prepare_quantized)); the master
/// copy stays authoritative and is never modified.
#[derive(Clone, Debug)]
pub struct QuantizedParams {
    layers: Vec<QuantLayer>,
    b_alpha: Matrix,
    final_w: Matrix,
}

impl QuantizedParams {
    /// Quantizes every layer's projections and precomputes the relation
    /// tables from the current values in `store`.
    pub fn build(store: &ParamStore, params: &KucNetParams, _config: &KucNetConfig) -> Self {
        let layers = params
            .layers
            .iter()
            .map(|p| {
                let rel = store.value(p.rel);
                let wt = store.value(p.w).transpose();
                let w_t = QuantMatrix::from_rows(&wt);
                let w_t_lo = QuantMatrix::from_residual(&wt, &w_t);
                // The relation tables are parameter-only products: compute
                // them exactly in f32 once, here, so serve-time error comes
                // solely from quantizing live activations.
                let w = store.value(p.w);
                let w_ar = store.value(p.w_ar);
                let mut rel_msg = Matrix::zeros(rel.rows(), w.cols());
                rel.matmul_into(w, &mut rel_msg);
                let mut rel_attn = Matrix::zeros(rel.rows(), w_ar.cols());
                rel.matmul_into(w_ar, &mut rel_attn);
                QuantLayer {
                    w_t,
                    w_t_lo,
                    w_as: store.value(p.w_as).clone(),
                    w_a: store.value(p.w_a).clone(),
                    rel_msg,
                    rel_attn,
                }
            })
            .collect();
        Self {
            layers,
            b_alpha: store.value(params.b_alpha).clone(),
            final_w: store.value(params.final_w).clone(),
        }
    }

    /// Per-layer quantized companions.
    pub fn layers(&self) -> &[QuantLayer] {
        &self.layers
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        let per_layer: usize = self
            .layers
            .iter()
            .map(|l| {
                l.w_t.approx_bytes()
                    + l.w_t_lo.approx_bytes()
                    + (l.w_as.len() + l.w_a.len() + l.rel_msg.len() + l.rel_attn.len()) * 4
            })
            .sum();
        per_layer + (self.b_alpha.len() + self.final_w.len()) * 4
    }
}

/// One quantized propagation layer: node-level quantized matmuls, then a
/// single fused streaming pass over the edges. Consumes (and releases) `h`.
fn quant_propagate_layer(
    pool: &mut MatrixPool,
    qp: &QuantizedParams,
    config: &KucNetConfig,
    graph: &LayeredGraph,
    l: usize,
    scratch: &mut (Vec<i8>, Vec<i8>),
    h: Matrix,
) -> Matrix {
    let d = config.dim;
    let layer = &graph.layers[l];
    let out_rows = graph.node_lists[l + 1].len();
    if layer.n_edges() == 0 {
        pool.release_matrix(h);
        return pool.matrix_zeroed(out_rows, d);
    }
    let e = layer.n_edges();
    let ql = &qp.layers[l];
    let n = h.rows();
    // Node-level message projection: |V_l| quantized rows instead of E,
    // two i8 digits per operand for rank-parity headroom.
    let mut node_msg = pool.matrix_raw(n, d);
    let (row_hi, row_lo) = scratch;
    quant2_matmul_into(&h, &ql.w_t, &ql.w_t_lo, row_hi, row_lo, &mut node_msg);
    // Per-edge scale: attention α, out-degree normalization, or both.
    let mut scale: Option<Matrix> = None;
    if config.attention {
        let da = config.attn_dim;
        let mut node_attn = pool.matrix_raw(n, da);
        h.matmul_into(&ql.w_as, &mut node_attn);
        let mut alpha = pool.matrix_raw(e, 1);
        fused_gather_attn_scores_into(
            &node_attn,
            &layer.src_pos,
            &ql.rel_attn,
            &layer.rel,
            &qp.b_alpha,
            &ql.w_a,
            &mut alpha,
        );
        pool.release_matrix(node_attn);
        scale = Some(alpha);
    }
    if config.agg_norm == AggregationNorm::RandomWalk {
        let mut outdeg = pool.acquire_zeroed(graph.node_lists[l].len());
        for &sp in &layer.src_pos {
            outdeg[sp as usize] += 1.0;
        }
        match &mut scale {
            Some(alpha) => {
                for (a, &sp) in alpha.data_mut().iter_mut().zip(&layer.src_pos) {
                    *a /= outdeg[sp as usize].max(1.0);
                }
            }
            None => {
                let mut inv = pool.matrix_raw(e, 1);
                for (slot, &sp) in inv.data_mut().iter_mut().zip(&layer.src_pos) {
                    *slot = 1.0 / outdeg[sp as usize].max(1.0);
                }
                scale = Some(inv);
            }
        }
        pool.release(outdeg);
    }
    // Fused per-edge gather + add + scale + scatter: no E×d intermediates.
    let mut agg = pool.matrix_zeroed(out_rows, d);
    fused_gather_add_scale_scatter_into(
        &node_msg,
        &layer.src_pos,
        &ql.rel_msg,
        &layer.rel,
        scale.as_ref(),
        &layer.dst_pos,
        &mut agg,
    );
    pool.release_matrix(node_msg);
    if let Some(s) = scale {
        pool.release_matrix(s);
    }
    layer_epilogue(pool, config, &layer.dst_pos, &mut agg);
    pool.release_matrix(h);
    agg
}

/// The full quantized forward: per-node logits over `graph`'s final layer.
pub fn infer_node_logits_quant(
    pool: &mut MatrixPool,
    qp: &QuantizedParams,
    config: &KucNetConfig,
    graph: &LayeredGraph,
) -> Vec<f32> {
    assert_eq!(qp.layers.len(), graph.depth(), "depth mismatch");
    let mut scratch = (Vec::new(), Vec::new());
    let mut h = pool.matrix_zeroed(1, config.dim);
    for l in 0..graph.layers.len() {
        h = quant_propagate_layer(pool, qp, config, graph, l, &mut scratch, h);
    }
    readout(pool, h, &qp.final_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Activation;
    use crate::infer::infer_node_logits_pooled;
    use crate::model::model_rng;
    use kucnet_datasets::{DatasetProfile, GeneratedDataset};
    use kucnet_graph::UserId;

    fn setup(config: &KucNetConfig) -> (ParamStore, KucNetParams, kucnet_graph::Ckg) {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 17);
        let ckg = data.build_ckg(&data.interactions);
        let mut store = ParamStore::new();
        let mut rng = model_rng(config);
        let params = KucNetParams::init(
            &mut store,
            config,
            ckg.csr().n_relations_total() as usize,
            &mut rng,
        );
        (store, params, ckg)
    }

    fn user_graph(ckg: &kucnet_graph::Ckg, config: &KucNetConfig, u: u32) -> LayeredGraph {
        kucnet_graph::build_layered_graph(
            ckg.csr(),
            ckg.user_node(UserId(u)),
            &kucnet_graph::LayeringOptions::new(config.depth),
            &mut kucnet_graph::KeepAll,
        )
    }

    fn overlap_at(a: &[f32], b: &[f32], n: usize) -> f64 {
        let top = |s: &[f32]| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..s.len()).collect();
            idx.sort_by(|&x, &y| s[y].partial_cmp(&s[x]).unwrap_or(std::cmp::Ordering::Equal));
            idx.truncate(n);
            idx
        };
        let ta = top(a);
        let tb = top(b);
        let hits = ta.iter().filter(|i| tb.contains(i)).count();
        hits as f64 / ta.len().max(1) as f64
    }

    #[test]
    fn quant_logits_track_f32_logits() {
        for config in [
            KucNetConfig::default(),
            KucNetConfig::default().without_attention(),
            KucNetConfig {
                activation: Activation::Identity,
                agg_norm: AggregationNorm::RandomWalk,
                ..KucNetConfig::default()
            },
        ] {
            let (store, params, ckg) = setup(&config);
            let qp = QuantizedParams::build(&store, &params, &config);
            let mut pool = MatrixPool::new();
            let mut worst = 1.0f64;
            for u in 0..6u32 {
                let graph = user_graph(&ckg, &config, u);
                let exact = infer_node_logits_pooled(&mut pool, &store, &params, &config, &graph);
                let quant = infer_node_logits_quant(&mut pool, &qp, &config, &graph);
                assert_eq!(exact.len(), quant.len());
                if exact.len() >= 10 {
                    worst = worst.min(overlap_at(&exact, &quant, 10));
                }
            }
            assert!(
                worst >= 0.8,
                "quantized ranking drifted too far: overlap {worst} ({config:?})"
            );
        }
    }

    #[test]
    fn building_quant_params_leaves_f32_path_bitwise_unchanged() {
        // The differential guarantee: quantization compiled in (and even
        // built) but disabled must not perturb the f32 path by a single bit.
        let config = KucNetConfig::default();
        let (store, params, ckg) = setup(&config);
        let mut pool = MatrixPool::new();
        let graph = user_graph(&ckg, &config, 0);
        let before = infer_node_logits_pooled(&mut pool, &store, &params, &config, &graph);
        let qp = QuantizedParams::build(&store, &params, &config);
        assert!(qp.approx_bytes() > 0);
        let after = infer_node_logits_pooled(&mut pool, &store, &params, &config, &graph);
        let b_bits: Vec<u32> = before.iter().map(|x| x.to_bits()).collect();
        let a_bits: Vec<u32> = after.iter().map(|x| x.to_bits()).collect();
        assert_eq!(b_bits, a_bits, "building the i8 companion perturbed the f32 path");
    }
}
