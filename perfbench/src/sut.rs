//! Every call the benchmark makes into the system under test, in one
//! place. The rest of the benchmark drives the program only through these
//! functions, over a socket (`Server::start*`) or through long-lived public
//! entry points (`ScoreService`, `sparse_ppr`, `build_layered_graph`,
//! `DynamicGraph::refresh_tick_observed`, `KucNet::train_epoch`,
//! `evaluate`).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kucnet::{KucNet, KucNetConfig, ScoreService, ShardService};
use kucnet_datasets::{
    load_shard_segments, traditional_split, update_stream, write_scale_dataset, DatasetProfile,
    GeneratedDataset, ScaleProfile, Split, UpdateOp,
};
use kucnet_dynamic::{DynamicConfig, DynamicService, RefreshPhase};
use kucnet_eval::{evaluate_with_threads, top_n_indices, FnRecommender};
use kucnet_graph::{
    build_layered_graph, Ckg, KgNode, LayeredGraph, LayeringOptions, NodeId, Segment,
    SegmentLayout, UserId,
};
use kucnet_ppr::{sparse_ppr, PprConfig, PprTopK};
use kucnet_serve::{BatcherStats, CacheStats, RefreshAck, ServeConfig, Server, ServerHandle};

pub use kucnet::ScoreService as Service;
pub use kucnet_serve::ServerHandle as Handle;

/// Seed of the dataset, the split and the model: fixed, so the workload
/// seed changes only the generated request sequences.
pub const DATA_SEED: u64 = 42;
/// Worker threads for training, PPR precompute and evaluation (the host's
/// core count the benchmark was sized on).
pub const THREADS: usize = 2;
/// Training epochs run to prepare the served model (untimed input).
pub const TRAIN_EPOCHS: usize = 3;
/// Sparse PPR entries kept per user on the segment path (as in
/// `ShardService`).
const PPR_KEEP: usize = 4096;

pub fn model_config() -> KucNetConfig {
    KucNetConfig { threads: THREADS, seed: DATA_SEED, ..KucNetConfig::default() }
}

pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
}

/// lastfm-small with a traditional split: the trained-model workloads'
/// inputs.
pub struct Lastfm {
    pub profile: DatasetProfile,
    pub split: Split,
    pub ckg: Ckg,
    /// Train items per user, for filtering served rankings.
    pub train_items: Vec<Vec<u32>>,
}

pub fn lastfm() -> Lastfm {
    let profile = DatasetProfile::lastfm_small();
    let data = GeneratedDataset::generate(&profile, DATA_SEED);
    let split = traditional_split(&data, 0.2, DATA_SEED);
    let ckg = data.build_ckg(&split.train);
    let mut train_items = vec![Vec::new(); ckg.n_users()];
    for &(u, i) in &split.train {
        train_items[u.0 as usize].push(i.0);
    }
    Lastfm { profile, split, ckg, train_items }
}

/// Trains a model for `epochs` epochs and saves its parameters to `path`;
/// returns the wall time of each `train_epoch` call, in seconds.
pub fn train_to_checkpoint(data: &Lastfm, epochs: usize, path: &Path) -> Vec<f64> {
    let mut model = KucNet::new(model_config(), data.ckg.clone());
    let times = (0..epochs)
        .map(|_| {
            let t = Instant::now();
            model.train_epoch();
            t.elapsed().as_secs_f64()
        })
        .collect();
    model.save_params(path).expect("write the model checkpoint");
    times
}

/// Builds a model (PPR precompute included) and restores trained weights.
pub fn load_model(data: &Lastfm, path: &Path) -> KucNet {
    let mut model = KucNet::new(model_config(), data.ckg.clone());
    model.load_params(path).expect("read the model checkpoint");
    model
}

/// Seconds `KucNet::new` spent in `PprCache::compute`.
pub fn ppr_cache_seconds(model: &KucNet) -> f64 {
    model.ppr_seconds
}

/// `KucNet::build_graph` with the user's first `pos_per_user` train items
/// hidden, as a training step extracts it.
pub fn training_graph(model: &KucNet, data: &Lastfm, user: u32) -> LayeredGraph {
    let user_node = data.ckg.user_node(UserId(user));
    let excluded = data.train_items[user as usize]
        .iter()
        .take(model.config().pos_per_user)
        .map(|&i| (user_node, data.ckg.item_node(kucnet_graph::ItemId(i))))
        .collect();
    model.build_graph(UserId(user), excluded)
}

pub fn start_static(service: Arc<dyn ScoreService>) -> ServerHandle {
    Server::start(service, serve_config(), "127.0.0.1:0").expect("bind a loopback port")
}

pub fn dynamic_service(model: Arc<KucNet>) -> Arc<DynamicService> {
    Arc::new(DynamicService::for_model(model, DynamicConfig::default().compact_threshold))
}

pub fn start_dynamic(service: &Arc<DynamicService>) -> ServerHandle {
    let scorer: Arc<dyn ScoreService> = Arc::clone(service) as Arc<dyn ScoreService>;
    Server::start_dynamic(scorer, Arc::clone(service) as _, serve_config(), "127.0.0.1:0")
        .expect("bind a loopback port")
}

pub fn cache_stats(handle: &ServerHandle) -> CacheStats {
    handle.cache_stats()
}

pub fn batcher_stats(handle: &ServerHandle) -> BatcherStats {
    handle.batcher_stats()
}

/// Offline top-`k` of `user` on `service`: the ranking the server must
/// reproduce.
pub fn offline_top_k(service: &dyn ScoreService, user: u32, k: usize) -> Vec<(u32, f32)> {
    let scores = service.score_user(UserId(user));
    top_n_indices(&scores, k).into_iter().map(|i| (i as u32, scores[i])).collect()
}

/// `evaluate` (Recall@20, NDCG@20) of `service` on the split's test users.
pub fn evaluate(service: &dyn ScoreService, split: &Split) -> (f64, f64) {
    let rec = FnRecommender::new("served", |u| service.score_user(u));
    let m = evaluate_with_threads(&rec, split, 20, THREADS);
    (m.recall, m.ndcg)
}

/// Recall@n and NDCG@n of one ranked list against a test set.
pub fn ranking_quality(ranked: &[u32], test: &[u32], n: usize) -> (f64, f64) {
    let ranked: Vec<kucnet_graph::ItemId> =
        ranked.iter().map(|&i| kucnet_graph::ItemId(i)).collect();
    let test = test.iter().map(|&i| kucnet_graph::ItemId(i)).collect();
    (kucnet_eval::recall_at_n(&ranked, &test, n), kucnet_eval::ndcg_at_n(&ranked, &test, n))
}

pub fn score_graph(service: &dyn ScoreService, graph: &LayeredGraph) -> Vec<f32> {
    service.score_graph(graph)
}

pub fn build_user_graph(service: &dyn ScoreService, user: u32) -> Arc<LayeredGraph> {
    service.build_user_graph(UserId(user))
}

/// Per-layer edge counts of a layered graph (Eq. 12).
pub fn layer_edges(graph: &LayeredGraph) -> Vec<usize> {
    graph.layers.iter().map(|l| l.n_edges()).collect()
}

/// Whether two layered graphs are identical node for node and edge for
/// edge.
pub fn same_graph(a: &LayeredGraph, b: &LayeredGraph) -> bool {
    a.root == b.root
        && a.node_lists == b.node_lists
        && a.layers.len() == b.layers.len()
        && a.layers
            .iter()
            .zip(&b.layers)
            .all(|(x, y)| x.src_pos == y.src_pos && x.rel == y.rel && x.dst_pos == y.dst_pos)
}

// ---- the sharded scale dataset (serve-cold) ----

pub fn scale_profile() -> ScaleProfile {
    ScaleProfile { n_users: 1 << 17, ..ScaleProfile::full() }
}

pub fn write_scale(profile: &ScaleProfile, dir: &Path) {
    write_scale_dataset(profile, dir).expect("generate the scale dataset");
}

/// One serving shard holding every segment.
pub struct ColdShard {
    pub service: Arc<ShardService>,
    pub segments: Vec<Arc<Segment>>,
    pub layout: SegmentLayout,
    /// Seconds spent in `load_shard_segments`.
    pub load_s: f64,
}

pub fn load_cold(profile: &ScaleProfile, dir: &Path) -> ColdShard {
    let t = Instant::now();
    let segments = load_shard_segments(dir, profile, 0, 1).expect("load the shard segments");
    let load_s = t.elapsed().as_secs_f64();
    let service = Arc::new(ShardService::from_segments(
        model_config(),
        profile.layout(),
        profile.n_base_relations(),
        segments.clone(),
        0,
    ));
    ColdShard { service, segments, layout: profile.layout(), load_s }
}

/// Index from user id to the segment holding it.
pub fn segment_index(shard: &ColdShard) -> HashMap<u32, usize> {
    let mut index = HashMap::new();
    for (s, seg) in shard.segments.iter().enumerate() {
        for u in seg.users(shard.layout.n_users) {
            index.insert(u.0, s);
        }
    }
    index
}

/// `sparse_ppr` of `user` on its segment, lifted to global node ids: the
/// cache-miss PPR step of `ShardService`.
pub fn segment_ppr(seg: &Segment, user: u32) -> Vec<(u32, f32)> {
    let local_root = seg.local_of(NodeId(user)).expect("user is a member of its segment");
    sparse_ppr(seg.csr(), NodeId(local_root), &PprConfig::default(), PPR_KEEP)
        .iter()
        .map(|&(n, s)| (seg.nodes()[n as usize], s))
        .collect()
}

/// `build_layered_graph` with `PprTopK` over the segment view: the
/// cache-miss layering step of `ShardService`.
pub fn segment_layering(
    seg: &Segment,
    layout: SegmentLayout,
    user: u32,
    entries: &[(u32, f32)],
) -> LayeredGraph {
    let config = model_config();
    let mut sel = PprTopK::from_entries(entries, config.k);
    let view = seg.view(layout.n_nodes());
    build_layered_graph(&view, NodeId(user), &LayeringOptions::new(config.depth), &mut sel)
}

// ---- the dynamic graph (update-mixed) ----

/// The HTTP body of one update-stream operation.
pub fn update_body(ckg: &Ckg, op: UpdateOp) -> String {
    let node = |n: KgNode| match n {
        KgNode::User(u) => ckg.user_node(u).0,
        KgNode::Item(i) => ckg.item_node(i).0,
        KgNode::Entity(e) => ckg.entity_node(e).0,
    };
    match op {
        UpdateOp::Interact(u, i) => format!("{{\"user\":{},\"item\":{}}}", u.0, i.0),
        UpdateOp::KgTriple(h, r, t) => {
            format!("{{\"head\":{},\"rel\":{},\"tail\":{}}}", node(h), r + 1, node(t))
        }
        UpdateOp::Refresh => "{\"refresh\":1}".to_string(),
    }
}

pub fn update_ops(
    profile: &DatasetProfile,
    seed: u64,
    n_appends: usize,
    every: usize,
) -> Vec<UpdateOp> {
    update_stream(profile, seed, n_appends, every)
}

/// One refresh tick with a phase observer: `(phase, when it began)` in
/// order, when the tick returned, and its acknowledgement.
pub fn refresh_tick_observed(
    service: &DynamicService,
) -> (Vec<(RefreshPhase, Instant)>, Instant, RefreshAck) {
    let mut phases = Vec::with_capacity(5);
    let ack = service.graph().refresh_tick_observed(&mut |p| phases.push((p, Instant::now())));
    (phases, Instant::now(), ack)
}

/// The span name of a refresh-tick phase.
pub fn phase_name(phase: RefreshPhase) -> &'static str {
    match phase {
        RefreshPhase::Collect => "dynamic.tick.collect",
        RefreshPhase::Frontier => "dynamic.tick.frontier",
        RefreshPhase::Recompute => "dynamic.tick.recompute",
        RefreshPhase::Compact => "dynamic.tick.compact",
        RefreshPhase::Commit => "dynamic.tick.commit",
    }
}

/// Users the served model knows.
pub fn n_users(handle: &ServerHandle) -> usize {
    handle.registry().n_users()
}

/// The same model over a from-scratch rebuild of the dynamic graph's
/// committed state.
pub fn rebuilt_service(service: &DynamicService) -> DynamicService {
    let rebuilt = Arc::new(service.graph().rebuild_from_scratch());
    DynamicService::new(Arc::clone(service.model()), rebuilt)
}
