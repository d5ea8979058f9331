//! The "PPR" baseline (paper Section V-C1): score items directly by their
//! personalized PageRank w.r.t. the user on the CKG. Non-parametric and
//! fully inductive — new items are reachable through KG edges.

use kucnet_eval::Recommender;
use kucnet_graph::{Ckg, ItemId, UserId};
use kucnet_ppr::{PprConfig, PprGraph};

/// PPR-based recommender.
pub struct PprRec {
    ckg: Ckg,
    graph: PprGraph,
    config: PprConfig,
}

impl PprRec {
    /// Builds the recommender (no training needed; the CKG's [`PprGraph`]
    /// is built once and serves every user).
    pub fn new(ckg: Ckg) -> Self {
        let graph = PprGraph::new(ckg.csr());
        Self { ckg, graph, config: PprConfig::default() }
    }
}

impl Recommender for PprRec {
    fn name(&self) -> String {
        "PPR".into()
    }

    fn score_items(&self, user: UserId) -> Vec<f32> {
        let scores = self.graph.scores(self.ckg.user_node(user), &self.config);
        (0..self.ckg.n_items() as u32)
            .map(|i| scores[self.ckg.item_node(ItemId(i)).0 as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_datasets::{new_item_split, traditional_split, DatasetProfile, GeneratedDataset};
    use kucnet_eval::evaluate;

    #[test]
    fn ppr_beats_chance_on_traditional() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = traditional_split(&data, 0.25, 7);
        let rec = PprRec::new(data.build_ckg(&split.train));
        let m = evaluate(&rec, &split, 20);
        // tiny has 60 items; random top-20 recall ≈ 20/60 per item ≈ 0.33 of
        // positives... use a flat scorer as the chance reference instead.
        let n_items = data.n_items();
        let flat = kucnet_eval::FnRecommender::new("flat", move |_| vec![0.0; n_items]);
        let chance = evaluate(&flat, &split, 20);
        assert!(m.recall > chance.recall, "ppr {} <= chance {}", m.recall, chance.recall);
    }

    #[test]
    fn ppr_scores_new_items_nonzero() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = new_item_split(&data, 0, 5, 7);
        let rec = PprRec::new(data.build_ckg(&split.train));
        let m = evaluate(&rec, &split, 20);
        assert!(m.recall > 0.0, "PPR should reach new items through the KG");
    }

    #[test]
    fn zero_params() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let rec = PprRec::new(data.build_ckg(&data.interactions));
        assert_eq!(rec.num_params(), 0);
    }
}
