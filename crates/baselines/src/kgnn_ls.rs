//! KGNN-LS baseline [17]: knowledge-aware GNN with user-conditioned relation
//! scoring.
//!
//! Item representations aggregate sampled KG neighbors weighted by the
//! *user-specific* relation score `softmax(u · e_r)`; the score is
//! `u · h_item`. Simplification vs the original (documented in DESIGN.md):
//! one aggregation hop and no label-smoothness regularizer — the defining
//! inductive bias (user-personalized relation weights over the KG
//! neighborhood) is preserved.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use kucnet_eval::Recommender;
use kucnet_graph::{Ckg, ItemId, UserId};
use kucnet_tensor::{xavier_uniform, ParamStore, Tape, Var};

use crate::common::{
    bpr_fit, config_rng, kg_neighbors, score_all_items, BaselineConfig, BprBatch, BprModel,
};

/// KGNN-LS model.
pub struct KgnnLs {
    config: BaselineConfig,
    ckg: Ckg,
    /// Per item: sampled `(rel, tail)` KG neighbors (fixed receptive field).
    item_nbrs: Vec<Vec<(u32, u32)>>,
    /// `[user_emb, ent_emb, rel_emb, w_agg]`.
    store: ParamStore,
}

impl KgnnLs {
    /// Initializes KGNN-LS with a fixed sampled receptive field per item.
    pub fn new(config: BaselineConfig, ckg: Ckg) -> Self {
        let mut rng = config_rng(&config);
        let mut store = ParamStore::new();
        let d = config.dim;
        store.add("user_emb", xavier_uniform(ckg.n_users(), d, &mut rng));
        store.add("ent_emb", xavier_uniform(ckg.n_nodes(), d, &mut rng));
        store.add("rel_emb", xavier_uniform(ckg.csr().n_relations_total() as usize, d, &mut rng));
        store.add("w_agg", xavier_uniform(d, d, &mut rng));
        let nbrs = kg_neighbors(&ckg);
        let item_nbrs = (0..ckg.n_items() as u32)
            .map(|i| {
                let node = ckg.item_node(ItemId(i)).0;
                let mut list = nbrs[node as usize].clone();
                list.shuffle(&mut rng);
                list.truncate(config.sample_size);
                list
            })
            .collect();
        Self { config, ckg, item_nbrs, store }
    }

    /// Scores `(users[k], items[k])` pairs, returning a `(B x 1)` var.
    fn batch_scores(&self, tape: &Tape, p: &[Var], users: &[u32], items: &[u32]) -> Var {
        let (user_emb, ent_emb, rel_emb, w_agg) = (p[0], p[1], p[2], p[3]);
        let b = users.len();
        let hu = tape.gather_rows(user_emb, users);
        // Flatten neighbor lists.
        let mut tails = Vec::new();
        let mut rels = Vec::new();
        let mut sample_of = Vec::new();
        for (k, &i) in items.iter().enumerate() {
            for &(r, t) in &self.item_nbrs[i as usize] {
                rels.push(r);
                tails.push(t);
                sample_of.push(k as u32);
            }
        }
        let item_nodes: Vec<u32> = items.iter().map(|&i| self.ckg.item_node(ItemId(i)).0).collect();
        let self_emb = tape.gather_rows(ent_emb, &item_nodes);
        let agg = if tails.is_empty() {
            self_emb
        } else {
            let ht = tape.gather_rows(ent_emb, &tails);
            let hr = tape.gather_rows(rel_emb, &rels);
            let hu_exp = tape.gather_rows(hu, &sample_of);
            // User-conditioned relation score, softmax per sample.
            let logits = tape.sum_rows(tape.mul(hu_exp, hr));
            let att = kucnet_tensor::segment_softmax(tape, logits, &sample_of, b);
            let pooled = tape.scatter_add_rows(tape.mul_col_broadcast(ht, att), &sample_of, b);
            tape.add(self_emb, pooled)
        };
        let h_item = tape.tanh(tape.matmul(agg, w_agg));
        tape.sum_rows(tape.mul(hu, h_item))
    }
}

impl BprModel for KgnnLs {
    fn parts(&mut self) -> (&BaselineConfig, &Ckg, &mut ParamStore) {
        (&self.config, &self.ckg, &mut self.store)
    }

    fn batch_step(&self, tape: &Tape, p: &[Var], b: &BprBatch, _: &mut SmallRng) -> (Var, Var) {
        let loss = b.scored_loss(tape, |items| self.batch_scores(tape, p, &b.users, items));
        (loss, loss)
    }
}

bpr_fit!(KgnnLs);

impl Recommender for KgnnLs {
    fn name(&self) -> String {
        "KGNN-LS".into()
    }

    fn score_items(&self, user: UserId) -> Vec<f32> {
        score_all_items(&self.store, self.ckg.n_items(), user, |tape, p, users, items| {
            self.batch_scores(tape, p, users, items)
        })
    }

    fn num_params(&self) -> usize {
        self.store.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_datasets::{traditional_split, DatasetProfile, GeneratedDataset};
    use kucnet_eval::evaluate;

    #[test]
    fn kgnn_ls_learns() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = traditional_split(&data, 0.25, 7);
        let ckg = data.build_ckg(&split.train);
        let mut m = KgnnLs::new(BaselineConfig::default().with_epochs(10), ckg);
        let losses = m.fit();
        assert!(losses.last().unwrap() < losses.first().unwrap());
        let metrics = evaluate(&m, &split, 20);
        assert!(metrics.recall > 0.03, "KGNN-LS recall {}", metrics.recall);
    }

    #[test]
    fn receptive_field_is_capped() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let ckg = data.build_ckg(&data.interactions);
        let cfg = BaselineConfig { sample_size: 4, ..Default::default() };
        let m = KgnnLs::new(cfg, ckg);
        assert!(m.item_nbrs.iter().all(|l| l.len() <= 4));
    }
}
