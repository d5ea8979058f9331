//! Shared infrastructure for the learned baselines: hyper-parameters, BPR
//! pair sampling, the one BPR training loop, and full-graph edge lists for
//! the GNN baselines.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use kucnet_graph::{Ckg, RelId, UserId};
use kucnet_tensor::{collect_grads, Adam, ParamId, ParamStore, Tape, Var};

/// Hyper-parameters shared by every learned baseline.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Training epochs.
    pub epochs: usize,
    /// BPR pairs per batch.
    pub batch_size: usize,
    /// GNN propagation layers (where applicable).
    pub layers: usize,
    /// Neighbor/ripple-set sample size (where applicable).
    pub sample_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            learning_rate: 0.01,
            weight_decay: 1e-5,
            epochs: 20,
            batch_size: 512,
            layers: 2,
            sample_size: 16,
            seed: 0,
        }
    }
}

impl BaselineConfig {
    /// Sets the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One BPR training triple `(user, positive item, negative item)`.
pub type BprTriple = (u32, u32, u32);

/// Per-user positive-item lists extracted from a CKG's interactions.
pub fn user_positives(ckg: &Ckg) -> Vec<Vec<u32>> {
    let mut pos = vec![Vec::new(); ckg.n_users()];
    for &(u, i) in ckg.interactions() {
        pos[u.0 as usize].push(i.0);
    }
    pos
}

/// Samples one epoch worth of shuffled BPR triples: every observed
/// interaction paired with a uniformly sampled negative.
pub fn bpr_epoch(ckg: &Ckg, pos: &[Vec<u32>], rng: &mut SmallRng) -> Vec<BprTriple> {
    let n_items = ckg.n_items() as u32;
    let mut triples: Vec<BprTriple> = ckg
        .interactions()
        .iter()
        .map(|&(u, i)| {
            let neg = sample_negative(rng, &pos[u.0 as usize], n_items);
            (u.0, i.0, neg)
        })
        .collect();
    triples.shuffle(rng);
    triples
}

/// Uniformly samples an item outside `pos`.
pub fn sample_negative(rng: &mut SmallRng, pos: &[u32], n_items: u32) -> u32 {
    for _ in 0..64 {
        let j = rng.random_range(0..n_items);
        if !pos.contains(&j) {
            return j;
        }
    }
    rng.random_range(0..n_items)
}

/// A fresh RNG for a config.
pub fn config_rng(config: &BaselineConfig) -> SmallRng {
    SmallRng::seed_from_u64(config.seed)
}

/// One minibatch of BPR triples as parallel id columns.
pub(crate) struct BprBatch {
    /// User ids.
    pub users: Vec<u32>,
    /// Positive item ids.
    pub pos: Vec<u32>,
    /// Negative item ids.
    pub neg: Vec<u32>,
}

impl BprBatch {
    /// BPR loss of `score(items)`, the `(B x 1)` scores of this batch's users
    /// against `items`, scoring positives before negatives.
    pub fn scored_loss(&self, tape: &Tape, score: impl Fn(&[u32]) -> Var) -> Var {
        let pos = score(&self.pos);
        let neg = score(&self.neg);
        bpr_loss(tape, pos, neg)
    }
}

/// A baseline trained by [`fit_bpr`]. The trainer owns everything the
/// models share; a model supplies only how one batch is scored.
pub(crate) trait BprModel {
    /// The config, the training graph and the parameters. The trainer binds
    /// every parameter in id order and may step them after this call, so a
    /// model that caches a forward pass drops the cache here.
    fn parts(&mut self) -> (&BaselineConfig, &Ckg, &mut ParamStore);

    /// One batch on `tape`, with `params` bound in id order: returns the BPR
    /// loss to report and the objective to minimize (the same var unless the
    /// model adds a term). Positives are scored before negatives.
    fn batch_step(
        &self,
        tape: &Tape,
        params: &[Var],
        batch: &BprBatch,
        rng: &mut SmallRng,
    ) -> (Var, Var);
}

/// The one BPR training loop of the learned baselines: per epoch, fresh
/// [`bpr_epoch`] triples in `batch_size` chunks, each chunk one tape,
/// backward pass and Adam step. Calls `callback(epoch, loss, model)` after
/// every epoch and returns the per-epoch mean BPR losses.
pub(crate) fn fit_bpr<M: BprModel>(
    model: &mut M,
    mut callback: impl FnMut(usize, f32, &M),
) -> Vec<f32> {
    let (config, ckg, _) = model.parts();
    let config = config.clone();
    let pos = user_positives(ckg);
    let mut rng = config_rng(&config);
    let mut adam = Adam::new(config.learning_rate, config.weight_decay);
    let mut losses = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let triples = bpr_epoch(model.parts().1, &pos, &mut rng);
        let mut epoch_loss = 0.0f64;
        for chunk in triples.chunks(config.batch_size) {
            let tape = Tape::new();
            let store = model.parts().2;
            let bindings: Vec<(ParamId, Var)> =
                (0..store.len()).map(|id| (id, store.bind(&tape, id))).collect();
            let params: Vec<Var> = bindings.iter().map(|&(_, var)| var).collect();
            let batch = BprBatch {
                users: chunk.iter().map(|t| t.0).collect(),
                pos: chunk.iter().map(|t| t.1).collect(),
                neg: chunk.iter().map(|t| t.2).collect(),
            };
            let (bpr, objective) = model.batch_step(&tape, &params, &batch, &mut rng);
            epoch_loss += tape.value(bpr).get(0, 0) as f64;
            tape.backward(objective);
            let grads = collect_grads(&tape, &bindings);
            adam.step(model.parts().2, &grads);
        }
        let loss = (epoch_loss / triples.len().max(1) as f64) as f32;
        losses.push(loss);
        callback(epoch, loss, model);
    }
    losses
}

/// Gives a [`BprModel`] its public `fit` and `fit_with_callback`.
macro_rules! bpr_fit {
    ($model:ty) => {
        impl $model {
            /// Trains with BPR; returns per-epoch mean losses.
            pub fn fit(&mut self) -> Vec<f32> {
                $crate::common::fit_bpr(self, |_, _, _| {})
            }

            /// [`Self::fit`], calling `callback(epoch, loss, &self)` after
            /// every epoch (`epoch` counts from 0).
            pub fn fit_with_callback(
                &mut self,
                callback: impl FnMut(usize, f32, &Self),
            ) -> Vec<f32> {
                $crate::common::fit_bpr(self, callback)
            }
        }
    };
}
pub(crate) use bpr_fit;

/// The summed BPR loss `Σ softplus(neg − pos)` of a batch's `(B x 1)`
/// positive and negative scores.
pub(crate) fn bpr_loss(tape: &Tape, pos: Var, neg: Var) -> Var {
    let diff = tape.sub(pos, neg);
    tape.sum_all(tape.softplus(tape.neg(diff)))
}

/// BPR loss of dot-product scores: row `users[k]` of `user_table` against
/// rows `pos[k]` and `neg[k]` of `item_table`.
pub(crate) fn dot_bpr_loss(
    tape: &Tape,
    user_table: Var,
    users: &[u32],
    item_table: Var,
    pos: &[u32],
    neg: &[u32],
) -> Var {
    let hu = tape.gather_rows(user_table, users);
    let hp = tape.gather_rows(item_table, pos);
    let hn = tape.gather_rows(item_table, neg);
    let pos_s = tape.sum_rows(tape.mul(hu, hp));
    let neg_s = tape.sum_rows(tape.mul(hu, hn));
    bpr_loss(tape, pos_s, neg_s)
}

/// Scores `user` against every item through a model's batch scorer
/// `score(tape, params, users, items)`, with every parameter frozen.
pub(crate) fn score_all_items(
    store: &ParamStore,
    n_items: usize,
    user: UserId,
    score: impl FnOnce(&Tape, &[Var], &[u32], &[u32]) -> Var,
) -> Vec<f32> {
    let tape = Tape::new();
    let params: Vec<Var> = (0..store.len()).map(|id| tape.constant_of(store.value(id))).collect();
    let items: Vec<u32> = (0..n_items as u32).collect();
    let users = vec![user.0; items.len()];
    let scores = score(&tape, &params, &users, &items);
    tape.value(scores).data().to_vec()
}

/// Full-graph edge lists in global node ids, used by the whole-graph GNN
/// baselines (R-GCN, KGAT, KGIN). Reverse edges are included; the arrays are
/// parallel.
pub struct GlobalEdges {
    /// Head node per edge.
    pub src: Vec<u32>,
    /// Relation id per edge (reverse ids included).
    pub rel: Vec<u32>,
    /// Tail node per edge.
    pub dst: Vec<u32>,
    /// `1 / in-degree(dst)` normalization per edge.
    pub norm: Vec<f32>,
}

impl GlobalEdges {
    /// Extracts all directed edges of the CKG.
    pub fn from_ckg(ckg: &Ckg) -> Self {
        let csr = ckg.csr();
        let n = csr.n_nodes();
        let mut src = Vec::with_capacity(csr.n_edges());
        let mut rel = Vec::with_capacity(csr.n_edges());
        let mut dst = Vec::with_capacity(csr.n_edges());
        for node in 0..n as u32 {
            for e in csr.out_edges(kucnet_graph::NodeId(node)) {
                src.push(node);
                rel.push(e.rel.0);
                dst.push(e.tail.0);
            }
        }
        let mut indeg = vec![0u32; n];
        for &d in &dst {
            indeg[d as usize] += 1;
        }
        let norm = dst.iter().map(|&d| 1.0 / indeg[d as usize].max(1) as f32).collect();
        Self { src, rel, dst, norm }
    }

    /// Number of directed edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when there are no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Keeps only edges satisfying `keep(src, rel, dst)`.
    pub fn filtered(&self, mut keep: impl FnMut(u32, u32, u32) -> bool) -> Self {
        let mut out = Self { src: vec![], rel: vec![], dst: vec![], norm: vec![] };
        for k in 0..self.len() {
            if keep(self.src[k], self.rel[k], self.dst[k]) {
                out.src.push(self.src[k]);
                out.rel.push(self.rel[k]);
                out.dst.push(self.dst[k]);
                out.norm.push(self.norm[k]);
            }
        }
        out
    }
}

/// KG neighbor lists for item-centric baselines (RippleNet, KGNN-LS, CKAN):
/// for every node, the `(rel, tail)` pairs of its *KG* out-edges (interaction
/// edges excluded so these models see only side information here).
pub fn kg_neighbors(ckg: &Ckg) -> Vec<Vec<(u32, u32)>> {
    let csr = ckg.csr();
    let interact_rev = RelId(csr.n_base_relations());
    let mut out = vec![Vec::new(); csr.n_nodes()];
    for node in 0..csr.n_nodes() as u32 {
        for e in csr.out_edges(kucnet_graph::NodeId(node)) {
            if e.rel == RelId::INTERACT || e.rel == interact_rev {
                continue;
            }
            out[node as usize].push((e.rel.0, e.tail.0));
        }
    }
    out
}

/// Item ids a user interacted with, as item node indices.
pub fn interacted_item_nodes(ckg: &Ckg, u: UserId) -> Vec<u32> {
    ckg.user_items(u).iter().map(|i| ckg.item_node(*i).0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_datasets::{DatasetProfile, GeneratedDataset};

    fn ckg() -> Ckg {
        let d = GeneratedDataset::generate(&DatasetProfile::tiny(), 3);
        d.build_ckg(&d.interactions)
    }

    #[test]
    fn bpr_epoch_negatives_are_negative() {
        let g = ckg();
        let pos = user_positives(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        let triples = bpr_epoch(&g, &pos, &mut rng);
        assert_eq!(triples.len(), g.interactions().len());
        for &(u, i, j) in triples.iter().take(200) {
            assert!(pos[u as usize].contains(&i));
            assert!(
                !pos[u as usize].contains(&j) || pos[u as usize].len() as u32 >= g.n_items() as u32
            );
        }
    }

    #[test]
    fn global_edges_match_csr() {
        let g = ckg();
        let edges = GlobalEdges::from_ckg(&g);
        assert_eq!(edges.len(), g.csr().n_edges());
        assert!(edges.norm.iter().all(|&n| n > 0.0 && n <= 1.0));
    }

    #[test]
    fn kg_neighbors_exclude_interactions() {
        let g = ckg();
        let nbrs = kg_neighbors(&g);
        let interact_rev = g.csr().n_base_relations();
        for list in &nbrs {
            for &(r, _) in list {
                assert_ne!(r, 0, "interact edge leaked into KG neighbors");
                assert_ne!(r, interact_rev, "reverse interact edge leaked");
            }
        }
    }

    #[test]
    fn filtered_keeps_subset() {
        let g = ckg();
        let edges = GlobalEdges::from_ckg(&g);
        let only_interact = edges.filtered(|_, r, _| r == 0);
        assert!(only_interact.len() < edges.len());
        assert!(only_interact.rel.iter().all(|&r| r == 0));
    }
}
