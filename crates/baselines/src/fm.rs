//! Factorization Machines ("FM", [10]) and Neural FM ("NFM", [11]).
//!
//! Feature vector of a pair `(u, i)`: the user one-hot, the item one-hot and
//! a multi-hot over the item's KG entities (this is how FM-family baselines
//! consume side information in the paper's setup). Second-order interactions
//! use the standard `0.5 * ((Σv)² − Σv²)` identity; NFM feeds the
//! bi-interaction pooled vector through an MLP instead of summing it.

use rand::rngs::SmallRng;

use kucnet_eval::Recommender;
use kucnet_graph::{Ckg, ItemId, NodeKind, RelId, UserId};
use kucnet_tensor::{xavier_uniform, Matrix, ParamStore, Tape, Var};

use crate::common::{bpr_fit, config_rng, score_all_items, BaselineConfig, BprBatch, BprModel};

/// Per-item KG entity features: entity feature ids (offset into the feature
/// vocabulary) for each item, capped at `cap`.
fn item_entity_features(ckg: &Ckg, cap: usize) -> Vec<Vec<u32>> {
    let n_users = ckg.n_users() as u32;
    let n_items = ckg.n_items() as u32;
    let interact_rev = RelId(ckg.csr().n_base_relations());
    let mut feats = vec![Vec::new(); ckg.n_items()];
    for item in 0..n_items {
        let node = ckg.item_node(ItemId(item));
        for e in ckg.csr().out_edges(node) {
            if e.rel == RelId::INTERACT || e.rel == interact_rev {
                continue;
            }
            if let NodeKind::Entity(ent) = ckg.kind(e.tail) {
                if feats[item as usize].len() < cap {
                    feats[item as usize].push(n_users + n_items + ent.0);
                }
            }
        }
    }
    feats
}

/// Builds the flattened feature lists for a batch of `(user, item)` pairs:
/// `(feature_ids, sample_of)` parallel arrays.
fn batch_features(
    users: &[u32],
    items: &[u32],
    n_users: u32,
    item_feats: &[Vec<u32>],
) -> (Vec<u32>, Vec<u32>) {
    let mut feats = Vec::new();
    let mut sample_of = Vec::new();
    for (k, (&u, &i)) in users.iter().zip(items).enumerate() {
        feats.push(u);
        sample_of.push(k as u32);
        feats.push(n_users + i);
        sample_of.push(k as u32);
        for &f in &item_feats[i as usize] {
            feats.push(f);
            sample_of.push(k as u32);
        }
    }
    (feats, sample_of)
}

/// Shared FM machinery: first-order weights plus factorized second-order
/// embeddings over the `users + items + entities` feature vocabulary. The
/// store holds `[w0, w_lin, v]` first; NFM appends its MLP after them.
struct FmCore {
    store: ParamStore,
    item_feats: Vec<Vec<u32>>,
    n_users: u32,
}

impl FmCore {
    fn new(config: &BaselineConfig, ckg: &Ckg) -> Self {
        let mut rng = config_rng(config);
        let n_feats = ckg.n_users() + ckg.n_items() + ckg.n_entities();
        let mut store = ParamStore::new();
        store.add("w0", Matrix::zeros(1, 1));
        store.add("w_lin", Matrix::zeros(n_feats, 1));
        store.add("v", xavier_uniform(n_feats, config.dim, &mut rng));
        let item_feats = item_entity_features(ckg, config.sample_size);
        Self { store, item_feats, n_users: ckg.n_users() as u32 }
    }

    /// Computes `(linear_score, bi_interaction_vector)` for a batch:
    /// `linear` is `(B x 1)`, `bi` is `(B x d)`.
    fn forward(&self, tape: &Tape, p: &[Var], users: &[u32], items: &[u32]) -> (Var, Var) {
        let (w0, w_lin, v) = (p[0], p[1], p[2]);
        let b = users.len();
        let (feats, sample_of) = batch_features(users, items, self.n_users, &self.item_feats);
        let vf = tape.gather_rows(v, &feats);
        let sum_v = tape.scatter_add_rows(vf, &sample_of, b);
        let sum_v_sq = tape.square(sum_v);
        let sq_v = tape.square(vf);
        let sum_sq = tape.scatter_add_rows(sq_v, &sample_of, b);
        let bi = tape.scalar_mul(tape.sub(sum_v_sq, sum_sq), 0.5);
        let lf = tape.gather_rows(w_lin, &feats);
        let lin = tape.scatter_add_rows(lf, &sample_of, b);
        let lin = tape.add_row_broadcast(lin, w0);
        (lin, bi)
    }
}

/// Factorization Machine with BPR training.
pub struct Fm {
    config: BaselineConfig,
    ckg: Ckg,
    core: FmCore,
}

impl Fm {
    /// Initializes FM over the CKG's feature vocabulary.
    pub fn new(config: BaselineConfig, ckg: Ckg) -> Self {
        let core = FmCore::new(&config, &ckg);
        Self { config, ckg, core }
    }

    /// Scores `(users[k], items[k])` pairs, returning a `(B x 1)` var.
    fn batch_scores(&self, tape: &Tape, p: &[Var], users: &[u32], items: &[u32]) -> Var {
        let (lin, bi) = self.core.forward(tape, p, users, items);
        tape.add(lin, tape.sum_rows(bi))
    }
}

impl BprModel for Fm {
    fn parts(&mut self) -> (&BaselineConfig, &Ckg, &mut ParamStore) {
        (&self.config, &self.ckg, &mut self.core.store)
    }

    fn batch_step(&self, tape: &Tape, p: &[Var], b: &BprBatch, _: &mut SmallRng) -> (Var, Var) {
        let loss = b.scored_loss(tape, |items| self.batch_scores(tape, p, &b.users, items));
        (loss, loss)
    }
}

bpr_fit!(Fm);

impl Recommender for Fm {
    fn name(&self) -> String {
        "FM".into()
    }

    fn score_items(&self, user: UserId) -> Vec<f32> {
        score_all_items(&self.core.store, self.ckg.n_items(), user, |tape, p, users, items| {
            self.batch_scores(tape, p, users, items)
        })
    }

    fn num_params(&self) -> usize {
        self.core.store.num_scalars()
    }
}

/// Neural Factorization Machine: MLP over the bi-interaction vector.
pub struct Nfm {
    config: BaselineConfig,
    ckg: Ckg,
    core: FmCore,
}

impl Nfm {
    /// Initializes NFM with one hidden MLP layer of `dim` units.
    pub fn new(config: BaselineConfig, ckg: Ckg) -> Self {
        let mut core = FmCore::new(&config, &ckg);
        let mut rng = config_rng(&config);
        let d = config.dim;
        core.store.add("mlp_w1", xavier_uniform(d, d, &mut rng));
        core.store.add("mlp_b1", Matrix::zeros(1, d));
        core.store.add("mlp_w2", xavier_uniform(d, 1, &mut rng));
        Self { config, ckg, core }
    }

    /// Scores `(users[k], items[k])` pairs, returning a `(B x 1)` var.
    fn batch_scores(&self, tape: &Tape, p: &[Var], users: &[u32], items: &[u32]) -> Var {
        let (w1, b1, w2) = (p[3], p[4], p[5]);
        let (lin, bi) = self.core.forward(tape, p, users, items);
        let h = tape.relu(tape.add_row_broadcast(tape.matmul(bi, w1), b1));
        tape.add(lin, tape.matmul(h, w2))
    }
}

impl BprModel for Nfm {
    fn parts(&mut self) -> (&BaselineConfig, &Ckg, &mut ParamStore) {
        (&self.config, &self.ckg, &mut self.core.store)
    }

    fn batch_step(&self, tape: &Tape, p: &[Var], b: &BprBatch, _: &mut SmallRng) -> (Var, Var) {
        let loss = b.scored_loss(tape, |items| self.batch_scores(tape, p, &b.users, items));
        (loss, loss)
    }
}

bpr_fit!(Nfm);

impl Recommender for Nfm {
    fn name(&self) -> String {
        "NFM".into()
    }

    fn score_items(&self, user: UserId) -> Vec<f32> {
        score_all_items(&self.core.store, self.ckg.n_items(), user, |tape, p, users, items| {
            self.batch_scores(tape, p, users, items)
        })
    }

    fn num_params(&self) -> usize {
        self.core.store.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_datasets::{traditional_split, DatasetProfile, GeneratedDataset};
    use kucnet_eval::evaluate;

    fn setup() -> (kucnet_graph::Ckg, kucnet_datasets::Split) {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = traditional_split(&data, 0.25, 7);
        let ckg = data.build_ckg(&split.train);
        (ckg, split)
    }

    #[test]
    fn fm_learns() {
        let (ckg, split) = setup();
        let mut fm = Fm::new(BaselineConfig::default().with_epochs(12), ckg);
        let losses = fm.fit();
        assert!(losses.last().unwrap() < losses.first().unwrap());
        let m = evaluate(&fm, &split, 20);
        assert!(m.recall > 0.05, "FM recall {}", m.recall);
    }

    #[test]
    fn nfm_learns() {
        let (ckg, split) = setup();
        let mut nfm = Nfm::new(BaselineConfig::default().with_epochs(12), ckg);
        let losses = nfm.fit();
        assert!(losses.last().unwrap() < losses.first().unwrap());
        let m = evaluate(&nfm, &split, 20);
        assert!(m.recall > 0.03, "NFM recall {}", m.recall);
    }

    #[test]
    fn item_features_include_entities() {
        let (ckg, _) = setup();
        let feats = item_entity_features(&ckg, 8);
        let with_entities = feats.iter().filter(|f| !f.is_empty()).count();
        assert!(with_entities > feats.len() / 2);
        let lo = (ckg.n_users() + ckg.n_items()) as u32;
        for f in feats.iter().flatten() {
            assert!(*f >= lo, "entity features must live above user/item ids");
        }
    }

    #[test]
    fn nfm_has_more_params_than_fm() {
        let (ckg, _) = setup();
        let fm = Fm::new(BaselineConfig::default(), ckg.clone());
        let nfm = Nfm::new(BaselineConfig::default(), ckg);
        assert!(nfm.num_params() > fm.num_params());
    }
}
