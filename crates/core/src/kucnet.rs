//! The trainable KUCNet model: Algorithm 1 plus BPR optimization (Eq. 14).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use kucnet_eval::Recommender;
use kucnet_graph::{mix64, Ckg, ItemId, LayeredGraph, NodeId, UserId};
use kucnet_ppr::{PprCache, PprConfig, PPR_KEEP};
use kucnet_tensor::{
    collect_grads, Adam, GradEntry, Matrix, MatrixPool, ParamStore, Tape, TapeStash, Var,
};

use crate::config::{KucNetConfig, SelectorKind};
use crate::frozen::{build_user_graph, FrozenModel};
use crate::infer::ScoreService;
use crate::model::{forward, model_rng, score_logits};

/// A KUCNet model bound to one CKG (built from a training split).
pub struct KucNet {
    model: FrozenModel,
    ckg: Ckg,
    ppr: Option<PprCache>,
    user_pos: Vec<Vec<ItemId>>,
    adam: Adam,
    /// Drives only the per-epoch user shuffle; all per-user randomness
    /// (sampling, dropout) comes from streams derived from
    /// `(seed, epoch, user)` so parallel training stays deterministic.
    rng: SmallRng,
    /// Epochs trained so far — the `epoch` half of per-user RNG derivation.
    epochs_trained: u64,
    /// Inference-time graph cache: with no excluded edges the pruned
    /// user-centric graph is fully determined by (user, selector, K, L), so
    /// repeated evaluations (learning curves, ranking sweeps) reuse it.
    infer_cache: RwLock<HashMap<u32, Arc<LayeredGraph>>>,
    /// Warm training tapes: each worker checks one out per epoch and reuses
    /// it (and its buffer pool) across every user it processes, so steady-
    /// state training allocates O(1) matrices per user instead of O(ops).
    tape_stash: TapeStash,
    /// Wall-clock seconds spent in `PprCache::compute` (paper Table VI).
    pub ppr_seconds: f64,
}

impl KucNet {
    /// Creates a model for `ckg`, precomputing PPR scores when the selector
    /// needs them (a one-time preprocessing step, paper Section IV-C2).
    pub fn new(config: KucNetConfig, ckg: Ckg) -> Self {
        debug_assert_eq!(ckg.csr().validate(), Ok(()), "CKG adjacency violates CSR invariants");
        let mut rng = model_rng(&config);
        let (ppr, ppr_seconds) = if config.selector == SelectorKind::PprTopK {
            let started = std::time::Instant::now();
            let cache = PprCache::compute(
                ckg.csr(),
                ckg.n_users(),
                &PprConfig::default(),
                PPR_KEEP,
                config.threads,
            );
            (Some(cache), started.elapsed().as_secs_f64())
        } else {
            (None, 0.0)
        };
        let mut user_pos = vec![Vec::new(); ckg.n_users()];
        for &(u, i) in ckg.interactions() {
            user_pos[u.0 as usize].push(i);
        }
        let adam = Adam::new(config.learning_rate, config.weight_decay);
        let model = FrozenModel::init(config, ckg.layout(), ckg.csr().n_base_relations(), &mut rng);
        Self {
            model,
            ckg,
            ppr,
            user_pos,
            adam,
            rng,
            epochs_trained: 0,
            infer_cache: RwLock::new(HashMap::new()),
            tape_stash: TapeStash::new(),
            ppr_seconds,
        }
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> &KucNetConfig {
        self.model.config()
    }

    /// The CKG the model is bound to.
    pub fn ckg(&self) -> &Ckg {
        &self.ckg
    }

    /// The per-user PPR entries computed at construction, when the
    /// selector uses them (`SelectorKind::PprTopK`).
    pub fn ppr_cache(&self) -> Option<&PprCache> {
        self.ppr.as_ref()
    }

    /// The weights side of the model: what every graph source scores
    /// through (see [`FrozenModel`]).
    pub fn frozen(&self) -> &FrozenModel {
        &self.model
    }

    /// Builds the pruned user-centric computation graph for `user`,
    /// optionally hiding interaction edges (training-time target masking).
    pub fn build_graph(&self, user: UserId, excluded: Vec<(NodeId, NodeId)>) -> LayeredGraph {
        let entries = self.ppr.as_ref().map_or(&[][..], |cache| cache.entries(user));
        let graph = build_user_graph(self.ckg.csr(), user, self.config(), entries, excluded);
        debug_assert_eq!(
            graph.validate(self.ckg.csr()),
            Ok(()),
            "layered graph for user {user:?} violates its invariants"
        );
        graph
    }

    /// Runs one training epoch; returns the mean BPR loss per pair.
    ///
    /// Users of a batch are processed in parallel on `config.threads`
    /// workers: each user's sampling, edge-dropout draws, subgraph build,
    /// forward tape, and backward pass are independent, seeded by an RNG
    /// stream derived from `(seed, epoch, user)`. Per-user gradients are
    /// then reduced in deterministic user order and applied as one Adam
    /// step per batch, so losses and checkpoints are bitwise identical for
    /// every thread count.
    pub fn train_epoch(&mut self) -> f32 {
        let epoch = self.epochs_trained;
        self.epochs_trained += 1;
        let mut users: Vec<u32> = (0..self.ckg.n_users() as u32)
            .filter(|&u| !self.user_pos[u as usize].is_empty())
            .collect();
        users.shuffle(&mut self.rng);
        let threads = self.config().threads.max(1);
        let mut total_loss = 0.0f64;
        let mut total_pairs = 0usize;

        for batch in users.chunks(self.config().batch_users) {
            let contributions = {
                let this: &Self = self;
                // Each worker checks one warm tape out of the stash and
                // reuses it (buffers and all) for every user it draws.
                kucnet_par::par_map_with(
                    threads,
                    batch.len(),
                    || this.tape_stash.checkout(),
                    |tape, i| this.user_contribution(epoch, tape, UserId(batch[i])),
                )
            };

            // Ordered reduction: per-parameter gradient matrices are summed
            // in batch (user) order, so float accumulation order — and thus
            // the Adam step — is independent of the thread count.
            let mut acc: Vec<Option<Matrix>> =
                (0..self.model.store().len()).map(|_| None).collect();
            let mut batch_loss = 0.0f64;
            let mut batch_pairs = 0usize;
            for c in contributions {
                batch_loss += c.loss;
                batch_pairs += c.pairs;
                for g in c.grads {
                    match &mut acc[g.id] {
                        Some(m) => m.add_assign_scaled(&g.grad, 1.0),
                        slot @ None => *slot = Some(g.grad),
                    }
                }
            }
            if batch_pairs == 0 {
                continue;
            }
            total_loss += batch_loss;
            total_pairs += batch_pairs;
            let grads: Vec<GradEntry> = acc
                .into_iter()
                .enumerate()
                .filter_map(|(id, m)| m.map(|grad| GradEntry { id, grad }))
                .collect();
            self.adam.step(self.model.store_mut(), &grads);
        }

        if total_pairs == 0 {
            0.0
        } else {
            (total_loss / total_pairs as f64) as f32
        }
    }

    /// Computes one user's training contribution for `epoch`: BPR pair loss
    /// and parameter gradients from that user's subgraph, on the provided
    /// (reset-on-entry, pooled) tape. Pure given `(epoch, user)` and the
    /// current parameters — safe to run on any worker thread in any order.
    fn user_contribution(&self, epoch: u64, tape: &Tape, user: UserId) -> UserContribution {
        tape.reset();
        let config = self.config();
        let mut rng = per_user_rng(config.seed, epoch, user);
        let pos_all = &self.user_pos[user.0 as usize];
        let n_pos = config.pos_per_user.min(pos_all.len());
        let mut pos: Vec<ItemId> = pos_all.clone();
        pos.shuffle(&mut rng);
        pos.truncate(n_pos);

        let mut excluded: Vec<(NodeId, NodeId)> =
            pos.iter().map(|&i| (self.ckg.user_node(user), self.ckg.item_node(i))).collect();
        // Interaction-edge dropout (config.ui_edge_dropout): hide a random
        // share of the user's remaining history so positives must also be
        // explained through KG paths.
        if config.ui_edge_dropout > 0.0 {
            for &i in pos_all {
                if !pos.contains(&i) && rng.random_range(0.0f32..1.0) < config.ui_edge_dropout {
                    excluded.push((self.ckg.user_node(user), self.ckg.item_node(i)));
                }
            }
        }
        let graph = self.build_graph(user, excluded);
        let (bound, bindings) = self.model.params().bind(self.model.store(), tape);
        let out = forward(tape, &bound, config, &graph, Some(&mut rng));
        let scores = score_logits(tape, &bound, out.final_h);

        let score_of = |item: ItemId| -> Var {
            match graph.final_position(self.ckg.item_node(item)) {
                Some(p) => tape.gather_rows(scores, &[p as u32]),
                None => tape.zeros_constant(1, 1),
            }
        };

        let n_items = self.ckg.n_items() as u32;
        let mut terms: Vec<Var> = Vec::new();
        for &p in &pos {
            let sp = score_of(p);
            for _ in 0..config.neg_per_pos {
                let neg = sample_negative(&mut rng, pos_all, n_items);
                let sn = score_of(neg);
                // -ln σ(ŷ_ui - ŷ_uj) == softplus(-(ŷ_ui - ŷ_uj))
                let diff = tape.sub(sp, sn);
                let term = tape.softplus(tape.neg(diff));
                terms.push(term);
            }
        }
        if terms.is_empty() {
            return UserContribution { loss: 0.0, pairs: 0, grads: Vec::new() };
        }
        let mut loss = terms[0];
        for &t in &terms[1..] {
            loss = tape.add(loss, t);
        }
        let loss_value = tape.value(loss).get(0, 0) as f64;
        tape.backward(loss);
        debug_assert_eq!(
            tape.check_graph(),
            Ok(()),
            "training tape violates its invariants after backward"
        );
        let grads = collect_grads(&tape, &bindings);
        UserContribution { loss: loss_value, pairs: terms.len(), grads }
    }

    /// Trains for `config.epochs` epochs; returns the per-epoch mean losses.
    pub fn fit(&mut self) -> Vec<f32> {
        self.fit_with_callback(|_, _, _| {})
    }

    /// Trains with a per-epoch callback `(epoch, mean_loss, &model)` — used
    /// for learning curves and early diagnostics.
    pub fn fit_with_callback(&mut self, mut callback: impl FnMut(usize, f32, &Self)) -> Vec<f32> {
        let epochs = self.config().epochs;
        let mut losses = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            let loss = self.train_epoch();
            losses.push(loss);
            callback(epoch, loss, self);
        }
        losses
    }

    /// The cached inference-time computation graph of `user` (built on
    /// first use; valid because every selector is deterministic per user).
    pub fn inference_graph(&self, user: UserId) -> Arc<LayeredGraph> {
        if let Some(g) = self.infer_cache.read().get(&user.0) {
            return Arc::clone(g);
        }
        let graph = Arc::new(self.build_graph(user, Vec::new()));
        self.infer_cache.write().insert(user.0, Arc::clone(&graph));
        graph
    }

    /// Scores every item from an already-built inference graph of a user,
    /// via the tape-free forward path (no gradient bookkeeping; see
    /// [`crate::infer`]). Items absent from the final layer score 0, per
    /// Algorithm 1.
    pub fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
        self.model.score_graph(graph)
    }

    /// Number of edges in the pruned inference graph of `user`
    /// (the instrumentation behind the paper's Figure 6 right panel).
    pub fn inference_edge_count(&self, user: UserId) -> usize {
        self.inference_graph(user).total_edges()
    }

    /// Saves the trained parameters to a `KUCP` checkpoint file. The file
    /// stores only parameters; reload into a model built with the same
    /// config and CKG relation vocabulary.
    pub fn save_params(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), kucnet_tensor::CheckpointError> {
        self.model.store().save(path)
    }

    /// Restores parameters from a checkpoint produced by
    /// [`KucNet::save_params`] for an identically-configured model.
    ///
    /// # Errors
    /// Fails when the file is unreadable/corrupt or the parameter set does
    /// not match this model's (names, count).
    pub fn load_params(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), kucnet_tensor::CheckpointError> {
        let loaded = ParamStore::load(path)?;
        let store = self.model.store();
        if loaded.len() != store.len() {
            return Err(kucnet_tensor::CheckpointError::Format(format!(
                "parameter count mismatch: checkpoint has {}, model has {}",
                loaded.len(),
                store.len()
            )));
        }
        for (name, id) in store.names() {
            let src = loaded.id(name).ok_or_else(|| {
                kucnet_tensor::CheckpointError::Format(format!("missing parameter {name}"))
            })?;
            if loaded.value(src).shape() != store.value(id).shape() {
                return Err(kucnet_tensor::CheckpointError::Format(format!(
                    "shape mismatch for {name}"
                )));
            }
        }
        *self.model.store_mut() = loaded;
        Ok(())
    }

    /// Binds the trained parameters as constants onto `tape` (used by the
    /// per-pair `KUCNet-UI` scoring path).
    pub fn params_frozen(&self, tape: &Tape) -> crate::model::BoundParams {
        self.model.params().bind_frozen(self.model.store(), tape)
    }

    /// Attention weights and graph for explanation (Figure 7); see
    /// [`crate::explain`].
    pub fn forward_with_attention(&self, user: UserId) -> (Arc<LayeredGraph>, Vec<Vec<f32>>) {
        let graph = self.inference_graph(user);
        let attention = self.attention_on(&graph);
        (graph, attention)
    }

    /// Per-layer edge attention weights of one eval-mode forward pass over
    /// an already-built `graph` — the explanation path for subgraphs the
    /// model did not build itself (e.g. a pinned dynamic snapshot).
    pub fn attention_on(&self, graph: &LayeredGraph) -> Vec<Vec<f32>> {
        let tape = self.tape_stash.checkout();
        let bound = self.params_frozen(&tape);
        let out = forward(&tape, &bound, self.config(), graph, None);
        out.attention
    }
}

impl Recommender for KucNet {
    fn name(&self) -> String {
        self.config().variant_name().to_string()
    }

    fn score_items(&self, user: UserId) -> Vec<f32> {
        // Tape-free inference path: same arithmetic as the taped forward,
        // zero autodiff bookkeeping (see `crate::infer`).
        let graph = self.inference_graph(user);
        self.score_graph(&graph)
    }

    fn num_params(&self) -> usize {
        self.model.store().num_scalars()
    }
}

impl ScoreService for KucNet {
    fn name(&self) -> String {
        self.config().variant_name().to_string()
    }

    fn n_users(&self) -> usize {
        self.ckg.n_users()
    }

    fn n_items(&self) -> usize {
        self.ckg.n_items()
    }

    fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph> {
        // Deliberately bypasses `infer_cache`: the serving layer owns its
        // own bounded LRU, and feeding it from an unbounded internal cache
        // would defeat its eviction policy.
        Arc::new(self.build_graph(user, Vec::new()))
    }

    fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
        KucNet::score_graph(self, graph)
    }

    fn score_items_pooled(&self, pool: &mut MatrixPool, graph: &LayeredGraph) -> Vec<(u32, f32)> {
        self.model.score_items_pooled(pool, graph)
    }

    fn explain_item(
        &self,
        user: UserId,
        item: u32,
        threshold: f32,
    ) -> Option<crate::infer::ExplainOutput> {
        if user.0 as usize >= self.ckg.n_users() || item as usize >= self.ckg.n_items() {
            return None;
        }
        let ex = crate::explain::explain(self, user, ItemId(item), threshold);
        Some(crate::infer::ExplainOutput {
            n_edges: ex.edges.len(),
            dot: ex.to_dot(&self.ckg),
            text: ex.to_text(&self.ckg),
        })
    }
}

/// One user's share of a training batch: the summed pair loss, the number
/// of BPR pairs it covers, and the parameter gradients from its tape.
struct UserContribution {
    loss: f64,
    pairs: usize,
    grads: Vec<GradEntry>,
}

/// Derives the RNG stream for one `(epoch, user)` training task. Decoupling
/// per-user draws from a shared sequential RNG is what makes parallel
/// training order-independent: each stream is a pure function of
/// `(seed, epoch, user)`.
///
/// The combination is finalized with [`mix64`] rather than handed to
/// `seed_from_u64` directly: `seed_from_u64` expands its input with
/// SplitMix64, whose internal counter advances by the Weyl constant
/// `0x9E37_79B9_7F4A_7C15` per output. If derived seeds for neighboring
/// users differ by (a small multiple of) that constant, their four-word
/// expansions are *overlapping windows of the same SplitMix sequence* —
/// consecutive users would share 3 of 4 xoshiro state words and draw
/// visibly correlated positives/negatives, which systematically biases
/// sampling across the whole batch. Finalizing destroys any fixed additive
/// structure in the inputs before they reach SplitMix64.
fn per_user_rng(seed: u64, epoch: u64, user: UserId) -> SmallRng {
    let combined = seed
        .wrapping_add(epoch.wrapping_add(1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add((user.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SmallRng::seed_from_u64(mix64(combined))
}

/// Samples an item uniformly outside `pos` (BPR negative, Eq. 14).
fn sample_negative(rng: &mut SmallRng, pos: &[ItemId], n_items: u32) -> ItemId {
    for _ in 0..64 {
        let j = ItemId(rng.random_range(0..n_items));
        if !pos.contains(&j) {
            return j;
        }
    }
    ItemId(rng.random_range(0..n_items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_datasets::{traditional_split, DatasetProfile, GeneratedDataset};
    use kucnet_eval::evaluate;

    fn tiny_model(config: KucNetConfig) -> (KucNet, kucnet_datasets::Split) {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let split = traditional_split(&data, 0.25, 7);
        let ckg = data.build_ckg(&split.train);
        (KucNet::new(config, ckg), split)
    }

    #[test]
    fn training_reduces_loss() {
        let config = KucNetConfig { epochs: 4, batch_users: 8, ..Default::default() };
        let (mut model, _) = tiny_model(config);
        let losses = model.fit();
        assert_eq!(losses.len(), 4);
        let first = losses.first().copied().unwrap();
        let last = losses.last().copied().unwrap();
        assert!(last < first, "loss should decrease: first={first} last={last} ({losses:?})");
    }

    #[test]
    fn trained_model_beats_untrained() {
        let config = KucNetConfig { epochs: 5, ..Default::default() };
        let (mut model, split) = tiny_model(config.clone());
        let before = evaluate(&model, &split, 20);
        model.fit();
        let after = evaluate(&model, &split, 20);
        assert!(
            after.recall >= before.recall,
            "training should not hurt: before={} after={}",
            before.recall,
            after.recall
        );
        assert!(after.recall > 0.05, "trained recall too low: {}", after.recall);
    }

    #[test]
    fn training_is_bitwise_identical_across_thread_counts() {
        // The tentpole invariant: losses and parameters must not depend on
        // the worker-thread count. (The full differential suite lives in
        // tests/parallel_differential.rs; this is the fast unit version.)
        let run = |threads: usize| {
            let config = KucNetConfig {
                epochs: 2,
                ui_edge_dropout: 0.2,
                dropout: 0.1,
                threads,
                ..Default::default()
            };
            let (mut model, _) = tiny_model(config);
            let losses = model.fit();
            let w = model.model.store().value(model.model.params().final_w).data().to_vec();
            (losses, w)
        };
        let (loss1, w1) = run(1);
        for threads in [2, 8] {
            let (loss_t, w_t) = run(threads);
            assert_eq!(loss1, loss_t, "losses diverged at threads={threads}");
            assert_eq!(w1, w_t, "parameters diverged at threads={threads}");
        }
    }

    #[test]
    fn scores_cover_all_items() {
        let (model, _) = tiny_model(KucNetConfig::default());
        let scores = model.score_items(UserId(0));
        assert_eq!(scores.len(), model.ckg().n_items());
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn variants_construct_and_score() {
        for selector in [SelectorKind::PprTopK, SelectorKind::RandomK, SelectorKind::KeepAll] {
            let config = KucNetConfig::default().with_selector(selector).with_epochs(1);
            let (mut model, _) = tiny_model(config);
            model.fit();
            let s = model.score_items(UserId(1));
            assert!(s.iter().all(|x| x.is_finite()), "{selector:?}");
        }
    }

    #[test]
    fn pruning_reduces_edge_count() {
        let full = KucNetConfig::default().with_selector(SelectorKind::KeepAll);
        let pruned = KucNetConfig::default().with_k(3);
        let (m_full, _) = tiny_model(full);
        let (m_pruned, _) = tiny_model(pruned);
        let u = UserId(0);
        assert!(
            m_pruned.inference_edge_count(u) < m_full.inference_edge_count(u),
            "PPR pruning must shrink the computation graph"
        );
    }

    #[test]
    fn num_params_independent_of_node_count() {
        // The key claim of Figure 5: KUCNet has no node embeddings, so the
        // parameter count does not grow with the graph. Two datasets with
        // the same relation vocabulary but ~3x the nodes must give the same
        // parameter count.
        let small = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let big = GeneratedDataset::generate(&DatasetProfile::tiny().scaled(3.0), 1);
        let m_small = KucNet::new(KucNetConfig::default(), small.build_ckg(&small.interactions));
        let m_big = KucNet::new(KucNetConfig::default(), big.build_ckg(&big.interactions));
        assert!(m_small.num_params() > 0);
        assert_eq!(m_small.num_params(), m_big.num_params());
    }
}
