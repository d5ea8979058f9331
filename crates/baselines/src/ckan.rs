//! CKAN baseline [18]: collaborative knowledge-aware attentive network.
//!
//! CKAN encodes users and items *separately* by propagating over ripple-style
//! neighbor sets with attention that depends only on the head and relation
//! (not on the scoring target, unlike RippleNet). The user side starts from
//! the user's interacted items; the item side starts from the item itself.
//! Scores are the dot product of the two encodings. Item embeddings still
//! anchor the item encoding, so new items carry little signal (Table IV).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use kucnet_eval::Recommender;
use kucnet_graph::{Ckg, ItemId, UserId};
use kucnet_tensor::{xavier_uniform, ParamStore, Tape, Var};

use crate::common::{
    bpr_fit, config_rng, interacted_item_nodes, kg_neighbors, score_all_items, BaselineConfig,
    BprBatch, BprModel,
};

/// Flattened neighbor set: parallel `(head, rel, tail)` arrays.
#[derive(Clone, Debug, Default)]
struct NeighborSet {
    heads: Vec<u32>,
    rels: Vec<u32>,
    tails: Vec<u32>,
}

fn expand(seeds: &[u32], nbrs: &[Vec<(u32, u32)>], cap: usize, rng: &mut SmallRng) -> NeighborSet {
    let mut triples: Vec<(u32, u32, u32)> =
        seeds.iter().flat_map(|&h| nbrs[h as usize].iter().map(move |&(r, t)| (h, r, t))).collect();
    triples.shuffle(rng);
    triples.truncate(cap);
    NeighborSet {
        heads: triples.iter().map(|t| t.0).collect(),
        rels: triples.iter().map(|t| t.1).collect(),
        tails: triples.iter().map(|t| t.2).collect(),
    }
}

/// CKAN model.
pub struct Ckan {
    config: BaselineConfig,
    ckg: Ckg,
    user_sets: Vec<NeighborSet>,
    item_sets: Vec<NeighborSet>,
    /// Seed items per user (their interacted item nodes).
    user_seeds: Vec<Vec<u32>>,
    /// `[emb, rel_emb]`.
    store: ParamStore,
}

impl Ckan {
    /// Initializes CKAN and precomputes user/item neighbor sets.
    pub fn new(config: BaselineConfig, ckg: Ckg) -> Self {
        let mut rng = config_rng(&config);
        let mut store = ParamStore::new();
        let d = config.dim;
        store.add("emb", xavier_uniform(ckg.n_nodes(), d, &mut rng));
        store.add("rel_emb", xavier_uniform(ckg.csr().n_relations_total() as usize, d, &mut rng));
        let nbrs = kg_neighbors(&ckg);
        let cap = config.sample_size * 2;
        let user_seeds: Vec<Vec<u32>> =
            (0..ckg.n_users() as u32).map(|u| interacted_item_nodes(&ckg, UserId(u))).collect();
        let user_sets: Vec<NeighborSet> =
            user_seeds.iter().map(|s| expand(s, &nbrs, cap, &mut rng)).collect();
        let item_sets: Vec<NeighborSet> = (0..ckg.n_items() as u32)
            .map(|i| expand(&[ckg.item_node(ItemId(i)).0], &nbrs, cap, &mut rng))
            .collect();
        Self { config, ckg, user_sets, item_sets, user_seeds, store }
    }

    /// Attentively pools a batch of flattened neighbor sets into `(B x d)`.
    /// `base` provides each sample's anchor rows added to the pooled vector.
    fn pool(
        &self,
        tape: &Tape,
        emb: Var,
        rel_emb: Var,
        sets: &[&NeighborSet],
        anchors: &[Vec<u32>],
    ) -> Var {
        let b = sets.len();
        let d = self.config.dim;
        let mut heads = Vec::new();
        let mut rels = Vec::new();
        let mut tails = Vec::new();
        let mut sample_of = Vec::new();
        for (k, s) in sets.iter().enumerate() {
            for j in 0..s.heads.len() {
                heads.push(s.heads[j]);
                rels.push(s.rels[j]);
                tails.push(s.tails[j]);
                sample_of.push(k as u32);
            }
        }
        // Anchor rows (seed embeddings averaged).
        let mut anchor_rows = Vec::new();
        let mut anchor_sample = Vec::new();
        for (k, a) in anchors.iter().enumerate() {
            for &n in a {
                anchor_rows.push(n);
                anchor_sample.push(k as u32);
            }
        }
        let anchor = if anchor_rows.is_empty() {
            tape.constant(kucnet_tensor::Matrix::zeros(b, d))
        } else {
            let rows = tape.gather_rows(emb, &anchor_rows);
            tape.scatter_add_rows(rows, &anchor_sample, b)
        };
        if heads.is_empty() {
            return anchor;
        }
        let hh = tape.gather_rows(emb, &heads);
        let hr = tape.gather_rows(rel_emb, &rels);
        let ht = tape.gather_rows(emb, &tails);
        // Attention depends on (head, rel) only: logits = <h, r>.
        let logits = tape.sum_rows(tape.mul(hh, hr));
        let att = kucnet_tensor::segment_softmax(tape, logits, &sample_of, b);
        let pooled = tape.scatter_add_rows(tape.mul_col_broadcast(ht, att), &sample_of, b);
        tape.add(anchor, pooled)
    }

    /// Scores `(users[k], items[k])` pairs, returning a `(B x 1)` var.
    fn batch_scores(&self, tape: &Tape, p: &[Var], users: &[u32], items: &[u32]) -> Var {
        let (emb, rel_emb) = (p[0], p[1]);
        let user_sets: Vec<&NeighborSet> =
            users.iter().map(|&u| &self.user_sets[u as usize]).collect();
        let user_anchors: Vec<Vec<u32>> =
            users.iter().map(|&u| self.user_seeds[u as usize].clone()).collect();
        let u_repr = self.pool(tape, emb, rel_emb, &user_sets, &user_anchors);

        let item_sets: Vec<&NeighborSet> =
            items.iter().map(|&i| &self.item_sets[i as usize]).collect();
        let item_anchors: Vec<Vec<u32>> =
            items.iter().map(|&i| vec![self.ckg.item_node(ItemId(i)).0]).collect();
        let i_repr = self.pool(tape, emb, rel_emb, &item_sets, &item_anchors);
        tape.sum_rows(tape.mul(u_repr, i_repr))
    }
}

impl BprModel for Ckan {
    fn parts(&mut self) -> (&BaselineConfig, &Ckg, &mut ParamStore) {
        (&self.config, &self.ckg, &mut self.store)
    }

    fn batch_step(&self, tape: &Tape, p: &[Var], b: &BprBatch, _: &mut SmallRng) -> (Var, Var) {
        let loss = b.scored_loss(tape, |items| self.batch_scores(tape, p, &b.users, items));
        (loss, loss)
    }
}

bpr_fit!(Ckan);

impl Recommender for Ckan {
    fn name(&self) -> String {
        "CKAN".into()
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
    fn ckan_learns() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = traditional_split(&data, 0.25, 7);
        let ckg = data.build_ckg(&split.train);
        let mut m = Ckan::new(BaselineConfig::default().with_epochs(8), ckg);
        let losses = m.fit();
        assert!(losses.last().unwrap() <= losses.first().unwrap());
        let metrics = evaluate(&m, &split, 20);
        assert!(metrics.recall > 0.02, "CKAN recall {}", metrics.recall);
    }

    #[test]
    fn item_sets_seeded_at_item() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let ckg = data.build_ckg(&data.interactions);
        let m = Ckan::new(BaselineConfig::default(), ckg.clone());
        for (i, s) in m.item_sets.iter().enumerate().take(10) {
            let node = ckg.item_node(ItemId(i as u32)).0;
            for &h in &s.heads {
                assert_eq!(h, node, "hop-1 heads must equal the item itself");
            }
        }
    }
}
