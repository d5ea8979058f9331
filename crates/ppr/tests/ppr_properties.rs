//! Property-based tests of PPR power iteration and top-K pruning on random
//! CKGs: the pull-order `PprGraph` kernel equals the push-order oracle bit
//! for bit, lane-batched `sparse_many` equals per-source `sparse` bit for
//! bit, golden checksums pin the tiny profile's vectors and lastfm-small's
//! pruned layered graphs, the pre-scored `PprTopK::select` keeps exactly
//! what the per-comparison oracle keeps, and probability-mass invariants
//! of `ppr_scores` and the keep-exactly-K / keep-the-highest contract of
//! `PprTopK` hold.

use proptest::prelude::*;

use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_graph::{
    build_layered_graph, CkgBuilder, Csr, EdgeSelector, EntityId, GraphView, ItemId, KgNode,
    LayeringOptions, NodeId, OutEdge, RelId, Triple, UserId,
};
use kucnet_ppr::{ppr_scores, validate_scores, PprCache, PprConfig, PprGraph, PprTopK, PPR_KEEP};

#[path = "support/push_oracle.rs"]
mod push_oracle;
use push_oracle::push_ppr_scores;

#[path = "support/select_oracle.rs"]
mod select_oracle;
use select_oracle::select_per_comparison;

/// Strategy: a raw multigraph. Triples repeat (multi-edges) and may be
/// self-loops; `isolated` trailing nodes get no edge at all; and node 0 may
/// be a star hub joined to every other linked node once or twice, so its
/// chunk's column is far longer than its neighbours' (padding).
fn random_multigraph() -> impl Strategy<Value = Csr> {
    let triples = proptest::collection::vec((0u32..40, 0u32..3, 0u32..40), 0..120);
    (1u32..40, 0usize..4, triples, 0u32..3).prop_map(|(linked, isolated, raw, hub)| {
        let mut triples: Vec<Triple> = raw
            .into_iter()
            .map(|(h, r, t)| Triple::new(NodeId(h % linked), RelId(r), NodeId(t % linked)))
            .collect();
        for _ in 0..hub {
            triples.extend((1..linked).map(|t| Triple::new(NodeId(0), RelId(0), NodeId(t))));
        }
        Csr::build(linked as usize + isolated, 3, &triples)
    })
}

/// A non-symmetric view: only a CSR's forward (base-relation) edges, so a
/// node's in- and out-neighbours differ and nodes without forward edges
/// dangle (their mass leaves the graph).
struct ForwardOnly<'a>(&'a Csr);

impl GraphView for ForwardOnly<'_> {
    fn n_nodes(&self) -> usize {
        self.0.n_nodes()
    }

    fn n_base_relations(&self) -> u32 {
        self.0.n_base_relations()
    }

    fn degree(&self, node: NodeId) -> usize {
        let mut d = 0;
        self.visit_out_edges(node, |_| d += 1);
        d
    }

    fn visit_out_edges<F: FnMut(OutEdge)>(&self, node: NodeId, mut visit: F) {
        let n_base = self.0.n_base_relations();
        self.0.out_edges(node).filter(|e| e.rel.0 < n_base).for_each(&mut visit);
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Asserts `PprGraph::scores` equals the push oracle bitwise for every
/// source of `graph`.
fn assert_pull_matches_push<G: GraphView>(graph: &G, config: &PprConfig) {
    let pull = PprGraph::new(graph);
    assert_eq!(pull.n_nodes(), graph.n_nodes());
    for s in 0..graph.n_nodes() as u32 {
        let got = pull.scores(NodeId(s), config);
        let want = push_ppr_scores(graph, NodeId(s), config);
        assert_eq!(bits(&got), bits(&want), "source {s}, {config:?}");
    }
}

#[test]
fn star_hub_matches_push_oracle_bitwise() {
    // One hub with 200 spokes (in-degree 200 beside 1s and 2s: 7 padded
    // lanes in the hub's chunk), a duplicated spoke edge, a chain hanging
    // off one spoke and two isolated nodes at the end.
    let mut triples: Vec<Triple> =
        (1..=200).map(|t| Triple::new(NodeId(0), RelId(0), NodeId(t))).collect();
    triples.push(Triple::new(NodeId(0), RelId(1), NodeId(7)));
    triples.extend((200..220).map(|t| Triple::new(NodeId(t), RelId(1), NodeId(t + 1))));
    let graph = Csr::build(223, 2, &triples);
    for iterations in [0, 1, 20] {
        let config = PprConfig { iterations, ..PprConfig::default() };
        assert_pull_matches_push(&graph, &config);
        assert_pull_matches_push(&ForwardOnly(&graph), &config);
    }
}

/// FNV-1a over the little-endian bits of every tiny-profile user's full PPR
/// vector. The constant was computed with the push-order iteration, before
/// the pull-order kernel replaced it.
#[test]
fn tiny_profile_scores_match_golden_checksum() {
    let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
    let ckg = data.build_ckg(&data.interactions);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for u in 0..ckg.n_users() as u32 {
        for s in ppr_scores(ckg.csr(), ckg.user_node(UserId(u)), &PprConfig::default()) {
            for b in s.to_bits().to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(hash, 0xdcc7_451a_9029_0d35, "tiny-profile PPR vectors changed");
}

/// FNV-1a over every lastfm-small user's `PprTopK` layered graph at depth 3
/// and K = 5 and K = 20: each layer's node ids, then each layer's
/// `src_pos`, `rel` and `dst_pos`. The constant was computed before the
/// selector scored each candidate once and layering hashed ids
/// multiplicatively.
#[test]
fn lastfm_small_layered_graphs_match_golden_checksum() {
    let data = GeneratedDataset::generate(&DatasetProfile::lastfm_small(), 42);
    let ckg = data.build_ckg(&data.interactions);
    let cache = PprCache::compute(ckg.csr(), ckg.n_users(), &PprConfig::default(), PPR_KEEP, 2);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |words: &mut dyn Iterator<Item = u32>| {
        for w in words {
            for b in w.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    };
    for k in [5, 20] {
        for u in 0..ckg.n_users() as u32 {
            let mut selector = PprTopK::from_entries(cache.entries(UserId(u)), k);
            let root = ckg.user_node(UserId(u));
            let graph =
                build_layered_graph(ckg.csr(), root, &LayeringOptions::new(3), &mut selector);
            for list in &graph.node_lists {
                feed(&mut list.iter().map(|n| n.0));
            }
            for layer in &graph.layers {
                feed(&mut layer.src_pos.iter().copied());
                feed(&mut layer.rel.iter().copied());
                feed(&mut layer.dst_pos.iter().copied());
            }
        }
    }
    assert_eq!(hash, 0x2ab6_c50c_cb4c_cde0, "lastfm-small layered graphs changed");
}

/// Strategy: a random small CKG. User 0 is always given one interaction so
/// the PPR source node has at least one out-edge (every reached node then
/// has out-degree >= 1 too, because each triple adds its reverse edge).
fn random_ckg() -> impl Strategy<Value = kucnet_graph::Ckg> {
    let interactions = proptest::collection::vec((0u32..8, 0u32..12), 0..40);
    let kg = proptest::collection::vec((0u32..12, 0u32..3, 0u32..10), 0..50);
    (interactions, kg).prop_map(|(inter, kg)| {
        let mut b = CkgBuilder::new(8, 12, 10, 3);
        b.interact(UserId(0), ItemId(0));
        for (u, i) in inter {
            b.interact(UserId(u), ItemId(i));
        }
        for (i, r, e) in kg {
            b.kg_triple(KgNode::Item(ItemId(i)), r, KgNode::Entity(EntityId(e)));
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pull-order kernel returns the push oracle's bits for every
    /// source, on symmetric CSRs and on their forward-only views.
    #[test]
    fn pull_kernel_matches_push_oracle_bitwise(
        graph in random_multigraph(),
        iterations in 0usize..30,
        alpha in 0.01f32..0.99,
    ) {
        let config = PprConfig { alpha, iterations };
        assert_pull_matches_push(&graph, &config);
        assert_pull_matches_push(&ForwardOnly(&graph), &config);
    }
}

/// Asserts `sparse_many` over `sources` equals per-source `sparse` bitwise.
fn assert_many_matches_single<G: GraphView>(
    graph: &G,
    sources: &[NodeId],
    config: &PprConfig,
    keep: usize,
    threads: usize,
) {
    let pull = PprGraph::new(graph);
    let many = pull.sparse_many(sources, config, keep, threads);
    assert_eq!(many.len(), sources.len());
    let key = |e: &[(u32, f32)]| e.iter().map(|&(n, s)| (n, s.to_bits())).collect::<Vec<_>>();
    for (&s, got) in sources.iter().zip(&many) {
        let want = pull.sparse(s, config, keep);
        assert_eq!(key(got), key(&want), "source {s:?} of {sources:?}, keep {keep}, {config:?}");
    }
}

/// Strategy: a sparse score row sorted by node id, with scores from a
/// three-value set so tails tie often. Nodes missing from the row score 0.
fn random_entries() -> impl Strategy<Value = Vec<(u32, f32)>> {
    proptest::collection::vec((0u32..40, 0u32..3), 0..30).prop_map(|raw| {
        let mut entries: Vec<(u32, f32)> =
            raw.into_iter().map(|(n, s)| (n, [0.125, 0.25, 0.5][s as usize])).collect();
        entries.sort_by_key(|&(n, _)| n);
        entries.dedup_by_key(|e| e.0);
        entries
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lane-batched `sparse_many` returns per-source `sparse`'s entries bit
    /// for bit: 1-20 sources (duplicates and counts that are not multiples
    /// of 8 included), at 1-3 threads, on symmetric CSRs and forward-only
    /// views.
    #[test]
    fn sparse_many_matches_per_source_sparse_bitwise(
        graph in random_multigraph(),
        raw_sources in proptest::collection::vec(0u32..64, 1..21),
        threads in 1usize..4,
        raw_keep in 0usize..16,
        iterations in 0usize..30,
        alpha in 0.01f32..0.99,
    ) {
        let n = graph.n_nodes() as u32;
        let sources: Vec<NodeId> = raw_sources.iter().map(|&s| NodeId(s % n)).collect();
        // 12 and up keep every entry.
        let keep = if raw_keep < 12 { raw_keep } else { usize::MAX };
        let config = PprConfig { alpha, iterations };
        assert_many_matches_single(&graph, &sources, &config, keep, threads);
        assert_many_matches_single(&ForwardOnly(&graph), &sources, &config, keep, threads);
    }

    /// The pre-scored `PprTopK::select` keeps the candidates the
    /// per-comparison oracle keeps, in the same order, with ties, tails
    /// absent from the row (score 0) and every K from 0 to two past the
    /// candidate count.
    #[test]
    fn pre_scored_select_matches_per_comparison_oracle(
        entries in random_entries(),
        raw in proptest::collection::vec((0u32..5, 0u32..48), 0..200),
        raw_k in 0usize..1000,
    ) {
        let candidates: Vec<(RelId, NodeId)> =
            raw.into_iter().map(|(r, t)| (RelId(r), NodeId(t))).collect();
        let k = raw_k % (candidates.len() + 3);
        let mut want = candidates.clone();
        select_per_comparison(&entries, k, &mut want);
        let mut got = candidates.clone();
        let mut selector = PprTopK::from_entries(&entries, k);
        selector.select(NodeId(0), &mut got);
        prop_assert_eq!(&got, &want, "k {}, entries {:?}", k, entries);
        // The selector's scratch carries nothing from one head to the next.
        let mut again = candidates;
        selector.select(NodeId(1), &mut again);
        prop_assert_eq!(again, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// PPR scores are a probability distribution: every entry is in [0, 1],
    /// all are finite and non-negative (`validate_scores`), and because the
    /// source and every reachable node have out-edges, no mass leaks — the
    /// total stays ~1 after the full power iteration.
    #[test]
    fn ppr_scores_are_a_probability_distribution(
        ckg in random_ckg(),
        iterations in 1usize..30,
    ) {
        let config = PprConfig { iterations, ..PprConfig::default() };
        let source = ckg.user_node(UserId(0));
        let scores = ppr_scores(ckg.csr(), source, &config);
        prop_assert_eq!(validate_scores(&scores, ckg.n_nodes()), Ok(()));
        for (n, &s) in scores.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&s), "node {}: score {} outside [0, 1]", n, s);
        }
        let total: f64 = scores.iter().map(|&s| s as f64).sum();
        prop_assert!(
            (total - 1.0).abs() < 1e-3,
            "PPR mass not conserved: total = {}", total
        );
    }

    /// `PprTopK::select` keeps exactly `min(K, out_degree)` candidate edges
    /// per head, and the kept tails dominate the dropped tails by PPR
    /// score: min(kept) >= max(dropped).
    #[test]
    fn topk_pruning_keeps_k_highest_ppr_tails(
        ckg in random_ckg(),
        k in 1usize..8,
        head in 0u32..30,
    ) {
        let head = NodeId(head % ckg.n_nodes() as u32);
        let cache = PprCache::compute(ckg.csr(), 8, &PprConfig::default(), usize::MAX, 2);
        let user = UserId(0);
        let before: Vec<(RelId, NodeId)> =
            ckg.csr().out_edges(head).map(|e| (e.rel, e.tail)).collect();
        let mut kept = before.clone();
        cache.selector(user, k).select(head, &mut kept);
        prop_assert_eq!(kept.len(), k.min(before.len()), "kept wrong edge count");
        // Every kept edge must come from the candidate set (dedup-free
        // multiset containment: count occurrences).
        for e in &kept {
            let in_before = before.iter().filter(|b| *b == e).count();
            let in_kept = kept.iter().filter(|b| *b == e).count();
            prop_assert!(in_kept <= in_before, "edge {:?} fabricated by selector", e);
        }
        if kept.len() < before.len() {
            let score = |n: NodeId| cache.score(user, n);
            let min_kept = kept
                .iter()
                .map(|&(_, t)| score(t))
                .fold(f32::INFINITY, f32::min);
            let mut dropped = before.clone();
            for e in &kept {
                if let Some(pos) = dropped.iter().position(|b| b == e) {
                    dropped.remove(pos);
                }
            }
            let max_dropped = dropped
                .iter()
                .map(|&(_, t)| score(t))
                .fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(
                min_kept >= max_dropped,
                "selector kept a lower-PPR tail ({} < {})", min_kept, max_dropped
            );
        }
    }
}
