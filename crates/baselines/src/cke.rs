//! CKE baseline [12]: collaborative knowledge-base embedding.
//!
//! MF embeddings fused with structural KG embeddings: the item vector used
//! for scoring is `i_cf + e_kg[item]`, where `e_kg` is trained jointly with
//! a TransR-style translation loss on the KG triples
//! (`f(h, r, t) = ‖M h + r − M t‖²`, shared projection `M` — a documented
//! lightening of per-relation projections). As in the paper, CKE remains a
//! shallow first-order method and fails on new items.

use rand::rngs::SmallRng;
use rand::Rng;

use kucnet_eval::Recommender;
use kucnet_graph::{Ckg, UserId};
use kucnet_tensor::{xavier_uniform, ParamId, ParamStore, Tape, Var};

use crate::common::{bpr_fit, bpr_loss, config_rng, BaselineConfig, BprBatch, BprModel};

/// CKE model. Trains jointly: BPR on interactions plus `0.1 ×` the
/// translation loss on KG triples with corrupted tails; the reported
/// per-epoch losses are the BPR part alone.
pub struct Cke {
    config: BaselineConfig,
    ckg: Ckg,
    store: ParamStore,
    user_emb: ParamId,
    item_emb: ParamId,
    kg_emb: ParamId,
}

impl Cke {
    /// Initializes CKE.
    pub fn new(config: BaselineConfig, ckg: Ckg) -> Self {
        let mut rng = config_rng(&config);
        let mut store = ParamStore::new();
        let d = config.dim;
        let user_emb = store.add("user_emb", xavier_uniform(ckg.n_users(), d, &mut rng));
        let item_emb = store.add("item_emb", xavier_uniform(ckg.n_items(), d, &mut rng));
        let kg_emb = store.add("kg_emb", xavier_uniform(ckg.n_nodes(), d, &mut rng));
        store.add("rel_emb", xavier_uniform(ckg.csr().n_relations_total() as usize, d, &mut rng));
        store.add("proj", xavier_uniform(d, d, &mut rng));
        Self { config, ckg, store, user_emb, item_emb, kg_emb }
    }
}

impl BprModel for Cke {
    fn parts(&mut self) -> (&BaselineConfig, &Ckg, &mut ParamStore) {
        (&self.config, &self.ckg, &mut self.store)
    }

    fn batch_step(&self, tape: &Tape, p: &[Var], b: &BprBatch, rng: &mut SmallRng) -> (Var, Var) {
        let (ue, ie, ke, re, pj) = (p[0], p[1], p[2], p[3], p[4]);
        // CF part: item vector = cf emb + kg emb of the item node.
        let n_users = self.ckg.n_users() as u32;
        let pn: Vec<u32> = b.pos.iter().map(|&i| n_users + i).collect();
        let nn: Vec<u32> = b.neg.iter().map(|&i| n_users + i).collect();
        let hu = tape.gather_rows(ue, &b.users);
        let hp = tape.add(tape.gather_rows(ie, &b.pos), tape.gather_rows(ke, &pn));
        let hn = tape.add(tape.gather_rows(ie, &b.neg), tape.gather_rows(ke, &nn));
        let pos_s = tape.sum_rows(tape.mul(hu, hp));
        let neg_s = tape.sum_rows(tape.mul(hu, hn));
        let bpr = bpr_loss(tape, pos_s, neg_s);

        // KG part: margin between true and corrupted triples.
        let kg_triples = self.ckg.kg_triples();
        if kg_triples.is_empty() {
            return (bpr, bpr);
        }
        let n_nodes = self.ckg.n_nodes() as u32;
        let m = b.users.len().min(kg_triples.len());
        let mut hs = Vec::with_capacity(m);
        let mut rs = Vec::with_capacity(m);
        let mut ts = Vec::with_capacity(m);
        let mut cs = Vec::with_capacity(m);
        for _ in 0..m {
            let t = &kg_triples[rng.random_range(0..kg_triples.len())];
            hs.push(t.head.0);
            rs.push(t.rel.0);
            ts.push(t.tail.0);
            cs.push(rng.random_range(0..n_nodes));
        }
        let h = tape.matmul(tape.gather_rows(ke, &hs), pj);
        let r = tape.gather_rows(re, &rs);
        let t = tape.matmul(tape.gather_rows(ke, &ts), pj);
        let c = tape.matmul(tape.gather_rows(ke, &cs), pj);
        let d_pos = tape.sum_rows(tape.square(tape.sub(tape.add(h, r), t)));
        let d_neg = tape.sum_rows(tape.square(tape.sub(tape.add(h, r), c)));
        // Want d_pos < d_neg: softplus(d_pos - d_neg).
        let kg = tape.sum_all(tape.softplus(tape.sub(d_pos, d_neg)));
        (bpr, tape.add(bpr, tape.scalar_mul(kg, 0.1)))
    }
}

bpr_fit!(Cke);

impl Recommender for Cke {
    fn name(&self) -> String {
        "CKE".into()
    }

    fn score_items(&self, user: UserId) -> Vec<f32> {
        let ue = self.store.value(self.user_emb);
        let ie = self.store.value(self.item_emb);
        let ke = self.store.value(self.kg_emb);
        let u = ue.row(user.0 as usize);
        let n_users = self.ckg.n_users();
        (0..self.ckg.n_items())
            .map(|i| {
                let cf = ie.row(i);
                let kg = ke.row(n_users + i);
                cf.iter().zip(kg).zip(u).map(|((&a, &b), &c)| (a + b) * c).sum()
            })
            .collect()
    }

    fn num_params(&self) -> usize {
        self.store.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_datasets::{new_item_split, traditional_split, DatasetProfile, GeneratedDataset};
    use kucnet_eval::evaluate;

    #[test]
    fn cke_learns() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = traditional_split(&data, 0.25, 7);
        let ckg = data.build_ckg(&split.train);
        let mut m = Cke::new(BaselineConfig::default().with_epochs(12), ckg);
        let losses = m.fit();
        assert!(losses.last().unwrap() < losses.first().unwrap());
        let metrics = evaluate(&m, &split, 20);
        assert!(metrics.recall > 0.04, "CKE recall {}", metrics.recall);
    }

    #[test]
    fn cke_fails_on_new_items() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = new_item_split(&data, 0, 5, 7);
        let ckg = data.build_ckg(&split.train);
        let mut m = Cke::new(BaselineConfig::default().with_epochs(6), ckg);
        m.fit();
        let metrics = evaluate(&m, &split, 20);
        let n_items = data.n_items();
        let flat = kucnet_eval::FnRecommender::new("flat", move |_| vec![0.0; n_items]);
        let chance = evaluate(&flat, &split, 20);
        assert!(
            metrics.recall < chance.recall + 0.15,
            "CKE should be near chance on new items: cke={} chance={}",
            metrics.recall,
            chance.recall
        );
    }
}
