//! Matrix Factorization with the BPR loss (paper baseline "MF", [9]).
//!
//! Pure collaborative filtering: user and item embeddings, dot-product
//! scoring, no KG. New items keep their random initialization, which is why
//! MF collapses to ~0 in the paper's new-item setting (Table IV).

use rand::rngs::SmallRng;

use kucnet_eval::Recommender;
use kucnet_graph::{Ckg, UserId};
use kucnet_tensor::{xavier_uniform, ParamId, ParamStore, Tape, Var};

use crate::common::{bpr_fit, config_rng, dot_bpr_loss, BaselineConfig, BprBatch, BprModel};

/// BPR-MF model.
pub struct Mf {
    config: BaselineConfig,
    ckg: Ckg,
    store: ParamStore,
    user_emb: ParamId,
    item_emb: ParamId,
}

impl Mf {
    /// Initializes MF for a CKG (only its interactions are used).
    pub fn new(config: BaselineConfig, ckg: Ckg) -> Self {
        let mut rng = config_rng(&config);
        let mut store = ParamStore::new();
        let user_emb = store.add("user_emb", xavier_uniform(ckg.n_users(), config.dim, &mut rng));
        let item_emb = store.add("item_emb", xavier_uniform(ckg.n_items(), config.dim, &mut rng));
        Self { config, ckg, store, user_emb, item_emb }
    }
}

impl BprModel for Mf {
    fn parts(&mut self) -> (&BaselineConfig, &Ckg, &mut ParamStore) {
        (&self.config, &self.ckg, &mut self.store)
    }

    fn batch_step(&self, tape: &Tape, p: &[Var], b: &BprBatch, _: &mut SmallRng) -> (Var, Var) {
        let loss = dot_bpr_loss(tape, p[0], &b.users, p[1], &b.pos, &b.neg);
        (loss, loss)
    }
}

bpr_fit!(Mf);

impl Recommender for Mf {
    fn name(&self) -> String {
        "MF".into()
    }

    fn score_items(&self, user: UserId) -> Vec<f32> {
        let ue = self.store.value(self.user_emb);
        let ie = self.store.value(self.item_emb);
        let u = ue.row(user.0 as usize);
        (0..self.ckg.n_items())
            .map(|i| ie.row(i).iter().zip(u).map(|(&a, &b)| a * b).sum())
            .collect()
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
    fn mf_learns_traditional_split() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = traditional_split(&data, 0.25, 7);
        let ckg = data.build_ckg(&split.train);
        let mut mf = Mf::new(BaselineConfig::default().with_epochs(15), ckg);
        let losses = mf.fit();
        assert!(losses.last().unwrap() < losses.first().unwrap());
        let m = evaluate(&mf, &split, 20);
        assert!(m.recall > 0.05, "MF recall {}", m.recall);
    }

    #[test]
    fn mf_fails_on_new_items() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = kucnet_datasets::new_item_split(&data, 0, 5, 7);
        let ckg = data.build_ckg(&split.train);
        let mut mf = Mf::new(BaselineConfig::default().with_epochs(8), ckg);
        mf.fit();
        let m = evaluate(&mf, &split, 20);
        // New items keep random embeddings: recall must not beat chance
        // (a flat scorer) by any real margin.
        let n_items = data.n_items();
        let flat = kucnet_eval::FnRecommender::new("flat", move |_| vec![0.0; n_items]);
        let chance = evaluate(&flat, &split, 20);
        assert!(
            m.recall < chance.recall + 0.12,
            "MF should be near chance on new items: mf={} chance={}",
            m.recall,
            chance.recall
        );
    }

    #[test]
    fn param_count_scales_with_nodes() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let ckg = data.build_ckg(&data.interactions);
        let mf = Mf::new(BaselineConfig::default(), ckg);
        let expected = (40 + 60) * 32;
        assert_eq!(mf.num_params(), expected);
    }
}
