//! R-GCN baseline [33]: relational graph convolution over the whole CKG with
//! basis decomposition, trained end-to-end with BPR.
//!
//! Per layer: `h'_v = ReLU(W_self h_v + Σ_{(s,r,v)} norm · W_r h_s)` with
//! `W_r = Σ_b a_{r,b} B_b` (basis decomposition, B bases). As in the paper's
//! discussion, R-GCN is not recommendation-specific — it treats "interact"
//! as just another relation — which is why it underperforms the dedicated
//! recommenders in Table III yet transfers reasonably to DisGeNet's
//! user-side KG (Table V).

use std::sync::OnceLock;

use rand::rngs::SmallRng;

use kucnet_eval::Recommender;
use kucnet_graph::{Ckg, UserId};
use kucnet_tensor::{xavier_uniform, Matrix, ParamId, ParamStore, Tape, Var};

use crate::common::{bpr_fit, config_rng, BaselineConfig, BprBatch, BprModel, GlobalEdges};
use crate::gnn_common::{gnn_bpr_loss, gnn_scores};

const N_BASES: usize = 3;

/// R-GCN model over the CKG.
pub struct Rgcn {
    config: BaselineConfig,
    ckg: Ckg,
    edges: GlobalEdges,
    store: ParamStore,
    ids: Vec<ParamId>,
    cached: OnceLock<Matrix>,
}

impl Rgcn {
    /// Initializes R-GCN: node embeddings plus per-layer bases, basis
    /// coefficients and self-transforms.
    pub fn new(config: BaselineConfig, ckg: Ckg) -> Self {
        let mut rng = config_rng(&config);
        let mut store = ParamStore::new();
        let d = config.dim;
        let n_rel = ckg.csr().n_relations_total() as usize;
        let mut ids = Vec::new();
        ids.push(store.add("emb", xavier_uniform(ckg.n_nodes(), d, &mut rng)));
        for l in 0..config.layers {
            for b in 0..N_BASES {
                ids.push(store.add(format!("l{l}.basis{b}"), xavier_uniform(d, d, &mut rng)));
                ids.push(store.add(format!("l{l}.coef{b}"), xavier_uniform(n_rel, 1, &mut rng)));
            }
            ids.push(store.add(format!("l{l}.w_self"), xavier_uniform(d, d, &mut rng)));
        }
        let edges = GlobalEdges::from_ckg(&ckg);
        Self { config, ckg, edges, store, ids, cached: OnceLock::new() }
    }

    /// The full-graph forward pass: final `(V x d)` node representations.
    fn forward(&self, tape: &Tape, bound: &[Var]) -> Var {
        let edges = &self.edges;
        let n_nodes = self.ckg.n_nodes();
        let norm = tape.constant(Matrix::col_vector(&edges.norm));
        let mut h = bound[0];
        let mut cursor = 1;
        for _ in 0..self.config.layers {
            let mut agg: Option<Var> = None;
            for _ in 0..N_BASES {
                let basis = bound[cursor];
                let coef = bound[cursor + 1];
                cursor += 2;
                let hb = tape.matmul(h, basis);
                let msg = tape.gather_rows(hb, &edges.src);
                let c = tape.gather_rows(coef, &edges.rel);
                let msg = tape.mul_col_broadcast(msg, c);
                agg = Some(match agg {
                    Some(a) => tape.add(a, msg),
                    None => msg,
                });
            }
            let w_self = bound[cursor];
            cursor += 1;
            // audit: allow(no-panic) — N_BASES is a nonzero constant, so the
            // basis fold above always produces at least one message term.
            let msg = tape.mul_col_broadcast(agg.expect("N_BASES > 0"), norm);
            let neigh = tape.scatter_add_rows(msg, &edges.dst, n_nodes);
            let own = tape.matmul(h, w_self);
            h = tape.tanh(tape.add(neigh, own));
        }
        h
    }
}

impl BprModel for Rgcn {
    fn parts(&mut self) -> (&BaselineConfig, &Ckg, &mut ParamStore) {
        self.cached.take();
        (&self.config, &self.ckg, &mut self.store)
    }

    fn batch_step(&self, tape: &Tape, p: &[Var], b: &BprBatch, _: &mut SmallRng) -> (Var, Var) {
        let loss = gnn_bpr_loss(tape, &self.ckg, self.forward(tape, p), b);
        (loss, loss)
    }
}

bpr_fit!(Rgcn);

impl Recommender for Rgcn {
    fn name(&self) -> String {
        "R-GCN".into()
    }

    fn score_items(&self, user: UserId) -> Vec<f32> {
        let forward = |tape: &Tape, p: &[Var]| self.forward(tape, p);
        gnn_scores(&self.ckg, &self.store, &self.ids, &self.cached, forward, user)
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
    fn rgcn_learns() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = traditional_split(&data, 0.25, 7);
        let ckg = data.build_ckg(&split.train);
        let mut m = Rgcn::new(BaselineConfig::default().with_epochs(10), ckg);
        let losses = m.fit();
        assert!(losses.last().unwrap() < losses.first().unwrap());
        let metrics = evaluate(&m, &split, 20);
        assert!(metrics.recall > 0.03, "R-GCN recall {}", metrics.recall);
    }

    #[test]
    fn scores_finite_without_fit() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let m = Rgcn::new(BaselineConfig::default(), data.build_ckg(&data.interactions));
        let s = m.score_items(UserId(0));
        assert!(s.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn params_include_node_embeddings() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let ckg = data.build_ckg(&data.interactions);
        let n_nodes = ckg.n_nodes();
        let m = Rgcn::new(BaselineConfig::default(), ckg);
        assert!(m.num_params() >= n_nodes * 32);
    }
}
