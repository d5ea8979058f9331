//! The dynamic determinism gate: replay a seeded update stream through the
//! live write path (appends + refresh ticks, incremental PPR, optional
//! compaction) and require **byte-identical** rankings against a
//! from-scratch rebuild of the same final graph — at every thread count.

use std::sync::Arc;

use kucnet::{KucNet, KucNetConfig, ScoreService};
use kucnet_datasets::{
    traditional_split, update_stream, DatasetProfile, GeneratedDataset, UpdateOp,
};
use kucnet_dynamic::{DynamicConfig, DynamicGraph, DynamicService};
use kucnet_graph::{Ckg, Csr, KgNode, UserId};
use kucnet_ppr::{PprCache, PprConfig, PPR_KEEP};

fn tiny_model() -> Arc<KucNet> {
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 7);
    let ckg = data.build_ckg(&data.interactions);
    Arc::new(KucNet::new(KucNetConfig::default(), ckg))
}

/// Replays one stream op against the live graph. KG nodes and relations
/// are translated from dataset-domain ids (0-based KG relation, typed
/// item/entity nodes) to the graph's global id spaces.
fn apply(graph: &DynamicGraph, ckg: &Ckg, op: UpdateOp) {
    match op {
        UpdateOp::Interact(u, i) => {
            graph.append_interaction(u.0, i.0).expect("in-range interaction");
        }
        UpdateOp::KgTriple(h, r, t) => {
            let node = |n: KgNode| match n {
                KgNode::User(u) => ckg.user_node(u).0,
                KgNode::Item(i) => ckg.item_node(i).0,
                KgNode::Entity(e) => ckg.entity_node(e).0,
            };
            graph.append_triple(node(h), r + 1, node(t)).expect("in-range triple");
        }
        UpdateOp::Refresh => {
            graph.refresh_tick();
        }
    }
}

/// All users' full score vectors under `service`.
fn all_scores(service: &DynamicService) -> Vec<Vec<f32>> {
    (0..service.n_users()).map(|u| service.score_user(UserId(u as u32))).collect()
}

#[test]
fn epoch_zero_matches_the_static_model_exactly() {
    // Before any update, the dynamic service must be a transparent wrapper:
    // its snapshot-built subgraphs score bit-for-bit like the static path.
    let model = tiny_model();
    let service = DynamicService::for_model(Arc::clone(&model), 64);
    for u in 0..model.ckg().n_users() as u32 {
        let via_dynamic = service.score_user(UserId(u));
        let via_static = ScoreService::score_user(model.as_ref(), UserId(u));
        assert_eq!(via_dynamic, via_static, "user {u} diverged at epoch 0");
    }
}

#[test]
fn for_model_entries_equal_a_fresh_compute_on_lastfm_small() {
    // `for_model` starts epoch 0 from a copy of the model's PPR cache; it
    // must equal a fresh compute over the CSR of the graph's own canonical
    // triples, bit for bit.
    let data = GeneratedDataset::generate(&DatasetProfile::lastfm_small(), 42);
    let split = traditional_split(&data, 0.2, 42);
    let model = Arc::new(KucNet::new(KucNetConfig::default(), data.build_ckg(&split.train)));
    let service = DynamicService::for_model(Arc::clone(&model), 64);
    let snap = service.graph().snapshot();
    let ckg = model.ckg();
    let base = Csr::build(ckg.n_nodes(), ckg.n_base_relations(), &snap.final_triples());
    let fresh = PprCache::compute(&base, ckg.n_users(), &PprConfig::default(), PPR_KEEP, 1);
    let key = |e: &[(u32, f32)]| e.iter().map(|&(n, s)| (n, s.to_bits())).collect::<Vec<_>>();
    for u in 0..ckg.n_users() as u32 {
        assert_eq!(
            key(snap.ppr_entries(u)),
            key(fresh.entries(UserId(u))),
            "user {u}'s epoch-0 entries differ from a fresh compute"
        );
    }
}

#[test]
fn replayed_stream_matches_from_scratch_rebuild() {
    let model = tiny_model();
    let service = DynamicService::for_model(Arc::clone(&model), 16);
    let ops = update_stream(&DatasetProfile::tiny(), 31, 60, 20);
    for &op in &ops {
        apply(service.graph(), model.ckg(), op);
    }
    assert!(service.graph().epoch() > 0, "stream must commit at least one epoch");

    let rebuilt = Arc::new(service.graph().rebuild_from_scratch());
    assert_eq!(rebuilt.epoch(), 0, "rebuild starts a fresh epoch history");
    let reference = DynamicService::new(Arc::clone(&model), rebuilt);
    assert_eq!(
        all_scores(&service),
        all_scores(&reference),
        "incremental maintenance diverged from a from-scratch rebuild"
    );
}

#[test]
fn replay_is_bitwise_identical_across_thread_counts() {
    let model = tiny_model();
    let ops = update_stream(&DatasetProfile::tiny(), 5, 45, 15);
    let run = |threads: usize| {
        let config = DynamicConfig { threads, compact_threshold: 16, ..DynamicConfig::default() };
        let graph = Arc::new(DynamicGraph::new(model.ckg(), config));
        let service = DynamicService::new(Arc::clone(&model), graph);
        for &op in &ops {
            apply(service.graph(), model.ckg(), op);
        }
        all_scores(&service)
    };
    let reference = run(1);
    for threads in [2, 8] {
        assert_eq!(reference, run(threads), "rankings diverged at threads={threads}");
    }
}

#[test]
fn compaction_cadence_never_changes_rankings() {
    // Compact on every tick vs never: the served scores must not know the
    // difference.
    let model = tiny_model();
    let ops = update_stream(&DatasetProfile::tiny(), 13, 40, 10);
    let run = |compact_threshold: usize| {
        let config = DynamicConfig { compact_threshold, ..DynamicConfig::default() };
        let graph = Arc::new(DynamicGraph::new(model.ckg(), config));
        let service = DynamicService::new(Arc::clone(&model), graph);
        for &op in &ops {
            apply(service.graph(), model.ckg(), op);
        }
        (service.graph().snapshot().delta_len(), all_scores(&service))
    };
    let (delta_eager, scores_eager) = run(0);
    let (delta_never, scores_never) = run(usize::MAX);
    assert_eq!(delta_eager, 0, "threshold 0 must compact every tick");
    assert!(delta_never > 0, "threshold MAX must never compact");
    assert_eq!(scores_eager, scores_never, "compaction changed served scores");
}
