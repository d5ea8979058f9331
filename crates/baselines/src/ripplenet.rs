//! RippleNet baseline [31]: propagating user preferences along KG ripple
//! sets with item-conditioned attention.
//!
//! Each user gets `H` hop "ripple sets" — KG triples expanding from the
//! items they interacted with. Scoring an item `v` attends over each ripple
//! set with logits `⟨h ∘ r, v⟩` (the vectorized form of the original's
//! `v^T R h`), pools the tails, and dots the pooled user vector with the
//! item embedding. Item embeddings are required at score time, so RippleNet
//! collapses on new items (paper Table IV).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use kucnet_eval::Recommender;
use kucnet_graph::{Ckg, ItemId, UserId};
use kucnet_tensor::{xavier_uniform, ParamStore, Tape, Var};

use crate::common::{
    bpr_fit, config_rng, interacted_item_nodes, kg_neighbors, score_all_items, BaselineConfig,
    BprBatch, BprModel,
};

const N_HOPS: usize = 2;

/// One user's ripple sets: per hop, parallel `(head, rel, tail)` node arrays.
#[derive(Clone, Debug, Default)]
struct RippleSet {
    hops: Vec<(Vec<u32>, Vec<u32>, Vec<u32>)>,
}

/// Builds capped ripple sets for every user.
fn build_ripple_sets(ckg: &Ckg, cap: usize, rng: &mut SmallRng) -> Vec<RippleSet> {
    let nbrs = kg_neighbors(ckg);
    (0..ckg.n_users() as u32)
        .map(|u| {
            let mut set = RippleSet::default();
            let mut frontier = interacted_item_nodes(ckg, UserId(u));
            for _ in 0..N_HOPS {
                let mut triples: Vec<(u32, u32, u32)> = frontier
                    .iter()
                    .flat_map(|&h| nbrs[h as usize].iter().map(move |&(r, t)| (h, r, t)))
                    .collect();
                triples.shuffle(rng);
                triples.truncate(cap);
                frontier = triples.iter().map(|&(_, _, t)| t).collect();
                let heads = triples.iter().map(|t| t.0).collect();
                let rels = triples.iter().map(|t| t.1).collect();
                let tails = triples.iter().map(|t| t.2).collect();
                set.hops.push((heads, rels, tails));
            }
            set
        })
        .collect()
}

/// RippleNet model.
pub struct RippleNet {
    config: BaselineConfig,
    ckg: Ckg,
    ripples: Vec<RippleSet>,
    /// `[emb, rel_emb]`.
    store: ParamStore,
}

impl RippleNet {
    /// Initializes RippleNet and precomputes ripple sets.
    pub fn new(config: BaselineConfig, ckg: Ckg) -> Self {
        let mut rng = config_rng(&config);
        let mut store = ParamStore::new();
        let d = config.dim;
        store.add("emb", xavier_uniform(ckg.n_nodes(), d, &mut rng));
        store.add("rel_emb", xavier_uniform(ckg.csr().n_relations_total() as usize, d, &mut rng));
        let cap = config.sample_size * 2;
        let ripples = build_ripple_sets(&ckg, cap, &mut rng);
        Self { config, ckg, ripples, store }
    }

    /// Vectorized batch scoring: for samples `(users[k], items[k])` returns a
    /// `(B x 1)` score var.
    fn batch_scores(&self, tape: &Tape, p: &[Var], users: &[u32], items: &[u32]) -> Var {
        let (emb, rel_emb) = (p[0], p[1]);
        let b = users.len();
        let item_nodes: Vec<u32> = items.iter().map(|&i| self.ckg.item_node(ItemId(i)).0).collect();
        let v_items = tape.gather_rows(emb, &item_nodes);
        let mut u_repr: Option<Var> = None;
        for hop in 0..N_HOPS {
            // Flatten this hop's triples across the batch.
            let mut heads = Vec::new();
            let mut rels = Vec::new();
            let mut tails = Vec::new();
            let mut sample_of = Vec::new();
            let mut item_of = Vec::new();
            for (k, &u) in users.iter().enumerate() {
                let (h, r, t) = &self.ripples[u as usize].hops[hop];
                for j in 0..h.len() {
                    heads.push(h[j]);
                    rels.push(r[j]);
                    tails.push(t[j]);
                    sample_of.push(k as u32);
                    item_of.push(k as u32);
                }
            }
            if heads.is_empty() {
                continue;
            }
            let hh = tape.gather_rows(emb, &heads);
            let hr = tape.gather_rows(rel_emb, &rels);
            let ht = tape.gather_rows(emb, &tails);
            let v_exp = tape.gather_rows(v_items, &item_of);
            // logits = <h ∘ r, v>, normalized within each sample's set.
            let logits = tape.sum_rows(tape.mul(tape.mul(hh, hr), v_exp));
            let att = kucnet_tensor::segment_softmax(tape, logits, &sample_of, b);
            let o = tape.scatter_add_rows(tape.mul_col_broadcast(ht, att), &sample_of, b);
            u_repr = Some(match u_repr {
                Some(acc) => tape.add(acc, o),
                None => o,
            });
        }
        match u_repr {
            Some(u) => tape.sum_rows(tape.mul(u, v_items)),
            None => tape.constant(kucnet_tensor::Matrix::zeros(b, 1)),
        }
    }
}

impl BprModel for RippleNet {
    fn parts(&mut self) -> (&BaselineConfig, &Ckg, &mut ParamStore) {
        (&self.config, &self.ckg, &mut self.store)
    }

    fn batch_step(&self, tape: &Tape, p: &[Var], b: &BprBatch, _: &mut SmallRng) -> (Var, Var) {
        let loss = b.scored_loss(tape, |items| self.batch_scores(tape, p, &b.users, items));
        (loss, loss)
    }
}

bpr_fit!(RippleNet);

impl Recommender for RippleNet {
    fn name(&self) -> String {
        "RippleNet".into()
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
    fn ripplenet_learns() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = traditional_split(&data, 0.25, 7);
        let ckg = data.build_ckg(&split.train);
        let mut m = RippleNet::new(BaselineConfig::default().with_epochs(8), ckg);
        let losses = m.fit();
        assert!(losses.last().unwrap() <= losses.first().unwrap());
        let metrics = evaluate(&m, &split, 20);
        assert!(metrics.recall > 0.02, "RippleNet recall {}", metrics.recall);
    }

    #[test]
    fn ripple_sets_expand_from_interacted_items() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let ckg = data.build_ckg(&data.interactions);
        let mut rng = config_rng(&BaselineConfig::default());
        let sets = build_ripple_sets(&ckg, 16, &mut rng);
        // Hop-1 heads must all be item nodes the user interacted with.
        let u = 0u32;
        let items: Vec<u32> = interacted_item_nodes(&ckg, UserId(u));
        let (heads, _, _) = &sets[u as usize].hops[0];
        for &h in heads {
            assert!(items.contains(&h), "hop-1 head {h} not an interacted item");
        }
    }

    #[test]
    fn ripple_sets_respect_cap() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let ckg = data.build_ckg(&data.interactions);
        let mut rng = config_rng(&BaselineConfig::default());
        let sets = build_ripple_sets(&ckg, 5, &mut rng);
        for s in &sets {
            for (h, r, t) in &s.hops {
                assert!(h.len() <= 5);
                assert_eq!(h.len(), r.len());
                assert_eq!(h.len(), t.len());
            }
        }
    }
}
