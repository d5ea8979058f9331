//! [`DynamicService`]: a trained `KucNet` scoring over a [`DynamicGraph`].
//!
//! The service implements both serve-side contracts:
//!
//! * [`ScoreService`] — subgraph builds run against the **committed
//!   snapshot**, and [`ScoreService::graph_context`] pins one snapshot per
//!   batch so every build in a batch sees a single epoch even if a
//!   `refresh_tick` commits mid-batch;
//! * [`GraphUpdater`] — the `POST /update` write path, delegating to the
//!   shared [`DynamicGraph`].
//!
//! Subgraphs come from the same `kucnet::build_user_graph` that
//! `KucNet::build_graph` runs, with adjacency and PPR entries sourced from
//! the snapshot, so on an unchanged graph the built subgraphs (and
//! therefore the scores) are bitwise identical to the static model's.
//! Scoring goes through the model's `FrozenModel`, the same scorer the
//! static and sharded services use.

use std::sync::Arc;

use kucnet::{build_user_graph, explain_on, ExplainOutput, GraphContext, KucNet, ScoreService};
use kucnet_graph::{ItemId, LayeredGraph, UserId};
use kucnet_serve::{AppendAck, GraphUpdater, RefreshAck, ServeError};
use kucnet_tensor::MatrixPool;

use crate::graph::{DynamicConfig, DynamicGraph, GraphSnapshot};

/// A `KucNet` model serving recommendations over a mutable graph.
pub struct DynamicService {
    model: Arc<KucNet>,
    graph: Arc<DynamicGraph>,
}

impl DynamicService {
    /// Pairs `model` with an explicitly constructed graph. The graph's PPR
    /// parameters must match the model's preprocessing (`PprConfig::default()`
    /// and `keep = kucnet_ppr::PPR_KEEP` for a stock `KucNet`) or subgraphs
    /// will diverge from the static scoring path.
    pub fn new(model: Arc<KucNet>, graph: Arc<DynamicGraph>) -> Self {
        debug_assert_eq!(model.ckg().n_users(), graph.snapshot().n_users());
        Self { model, graph }
    }

    /// Builds the dynamic graph from `model`'s own CKG with matching PPR
    /// parameters — the standard way to make a trained model updatable.
    /// Epoch 0 starts from a copy of the model's PPR cache when it has one
    /// (the model computed it over the same CSR with the same parameters),
    /// and computes the entries otherwise.
    pub fn for_model(model: Arc<KucNet>, compact_threshold: usize) -> Self {
        let config = DynamicConfig {
            compact_threshold,
            threads: model.config().threads,
            ..DynamicConfig::default()
        };
        let graph = match model.ppr_cache() {
            Some(cache) => {
                DynamicGraph::with_entries(model.ckg(), config, cache.clone().into_entries())
            }
            None => DynamicGraph::new(model.ckg(), config),
        };
        Self { model, graph: Arc::new(graph) }
    }

    /// The shared mutable graph (for driving ticks outside HTTP).
    pub fn graph(&self) -> &Arc<DynamicGraph> {
        &self.graph
    }

    /// The underlying trained model.
    pub fn model(&self) -> &Arc<KucNet> {
        &self.model
    }
}

/// Builds `user`'s pruned computation graph against `snap`.
fn build_on(model: &KucNet, snap: &GraphSnapshot, user: UserId) -> Arc<LayeredGraph> {
    let entries = snap.ppr_entries(user.0);
    Arc::new(build_user_graph(&snap.view(), user, model.config(), entries, Vec::new()))
}

impl ScoreService for DynamicService {
    fn name(&self) -> String {
        format!("{}+dynamic", ScoreService::name(self.model.as_ref()))
    }

    fn n_users(&self) -> usize {
        self.model.ckg().n_users()
    }

    fn n_items(&self) -> usize {
        self.model.ckg().n_items()
    }

    fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph> {
        build_on(&self.model, &self.graph.snapshot(), user)
    }

    fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
        self.model.score_graph(graph)
    }

    fn score_items_pooled(&self, pool: &mut MatrixPool, graph: &LayeredGraph) -> Vec<(u32, f32)> {
        self.model.frozen().score_items_pooled(pool, graph)
    }

    fn graph_context(&self) -> Box<dyn GraphContext + '_> {
        Box::new(PinnedContext { service: self, snapshot: self.graph.snapshot() })
    }

    fn explain_item(&self, user: UserId, item: u32, threshold: f32) -> Option<ExplainOutput> {
        let ckg = self.model.ckg();
        if user.0 as usize >= ckg.n_users() || (item as usize) >= ckg.n_items() {
            return None;
        }
        // Build against the committed snapshot (one coherent epoch), run
        // one eval-mode forward for the attention weights, then backtrack —
        // the exact pipeline `kucnet::explain` runs on a static graph.
        let graph = build_on(&self.model, &self.graph.snapshot(), user);
        let attention = self.model.attention_on(&graph);
        let ex = explain_on(ckg, &graph, &attention, user, ItemId(item), threshold);
        Some(ExplainOutput { n_edges: ex.edges.len(), dot: ex.to_dot(ckg), text: ex.to_text(ckg) })
    }
}

/// One batch's pinned epoch: user versions and subgraph builds both come
/// from the snapshot captured when the batch started, never from a newer
/// one.
struct PinnedContext<'a> {
    service: &'a DynamicService,
    snapshot: Arc<GraphSnapshot>,
}

impl GraphContext for PinnedContext<'_> {
    fn user_version(&self, user: UserId) -> u64 {
        self.snapshot.user_version(user.0)
    }

    fn build(&self, user: UserId) -> Arc<LayeredGraph> {
        build_on(&self.service.model, &self.snapshot, user)
    }
}

fn id_u32(value: u64, what: &str) -> Result<u32, ServeError> {
    u32::try_from(value)
        .map_err(|_| ServeError::BadRequest(format!("{what} {value} exceeds the u32 id space")))
}

impl GraphUpdater for DynamicService {
    fn append_interaction(&self, user: u64, item: u64) -> Result<AppendAck, ServeError> {
        let (user, item) = (id_u32(user, "user")?, id_u32(item, "item")?);
        self.graph.append_interaction(user, item).map_err(ServeError::BadRequest)
    }

    fn append_triple(&self, head: u64, rel: u64, tail: u64) -> Result<AppendAck, ServeError> {
        let head = id_u32(head, "head")?;
        let rel = id_u32(rel, "relation")?;
        let tail = id_u32(tail, "tail")?;
        self.graph.append_triple(head, rel, tail).map_err(ServeError::BadRequest)
    }

    fn refresh_tick(&self) -> Result<RefreshAck, ServeError> {
        Ok(self.graph.refresh_tick())
    }

    fn epoch(&self) -> u64 {
        self.graph.epoch()
    }
}
