//! Property-based and chaos tests of incremental PPR maintenance.
//!
//! The core property: after an arbitrary sequence of edge inserts and
//! refresh ticks, every user's sparse PPR entries — pruned (`keep` small)
//! or unpruned (`keep = MAX`) — equal a from-scratch recompute over the
//! final graph, entry for entry and bit for bit. Beneath it, the pull-order
//! PPR kernel over a delta overlay equals the push-order oracle bitwise.

use proptest::prelude::*;

use kucnet_dynamic::{DeltaAdj, DeltaView, DynamicConfig, DynamicGraph, RefreshPhase};
use kucnet_graph::{Ckg, CkgBuilder, EntityId, ItemId, KgNode, NodeId, RelId, Triple, UserId};
use kucnet_ppr::{PprConfig, PprGraph};

#[path = "../../ppr/tests/support/push_oracle.rs"]
mod push_oracle;

const N_USERS: u32 = 6;
const N_ITEMS: u32 = 8;
const N_ENTITIES: u32 = 6;
const N_KG_RELS: u32 = 3;

/// A random small base CKG. User 0 always gets one interaction so the
/// graph is never completely empty.
fn random_base() -> impl Strategy<Value = Ckg> {
    let interactions = proptest::collection::vec((0..N_USERS, 0..N_ITEMS), 0..20);
    let kg = proptest::collection::vec((0..N_ITEMS, 0..N_KG_RELS, 0..N_ENTITIES), 0..25);
    (interactions, kg).prop_map(|(inter, kg)| {
        let mut b = CkgBuilder::new(N_USERS, N_ITEMS, N_ENTITIES, N_KG_RELS);
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

/// A random update script: interaction/KG-triple appends with embedded
/// tick boundaries (`None` = refresh).
type Op = Option<(u32, u32, u32)>;
fn random_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u32..10, 0..N_USERS.max(N_ITEMS), 0..N_KG_RELS, 0..N_ENTITIES).prop_map(
        |(kind, a, r, e)| match kind {
            // ~20% of ops are tick boundaries
            0 | 1 => None,
            // user→item interaction (ids folded into range by the replayer)
            2..=6 => Some((a, 0, e)),
            // item→entity KG triple
            _ => Some((a, r + 1, e)),
        },
    );
    proptest::collection::vec(op, 1..30)
}

/// Replays `ops` against `graph`, folding raw ids into valid ranges.
/// Returns how many ticks actually committed.
fn replay(graph: &DynamicGraph, ckg: &Ckg, ops: &[Op]) -> u64 {
    for op in ops {
        match *op {
            Some((a, 0, e)) => {
                graph.append_interaction(a % N_USERS, e % N_ITEMS).expect("in-range interaction");
            }
            Some((a, rel, e)) => {
                let head = ckg.item_node(ItemId(a % N_ITEMS)).0;
                let tail = ckg.entity_node(EntityId(e % N_ENTITIES)).0;
                graph.append_triple(head, rel, tail).expect("in-range triple");
            }
            None => {
                graph.refresh_tick();
            }
        }
    }
    graph.refresh_tick();
    graph.epoch()
}

/// Asserts every user's PPR entries match between `graph` and a
/// from-scratch rebuild of its committed state.
fn assert_ppr_matches_rebuild(graph: &DynamicGraph) {
    let live = graph.snapshot();
    let rebuilt = graph.rebuild_from_scratch();
    let fresh = rebuilt.snapshot();
    assert_eq!(live.final_triples(), fresh.final_triples(), "committed triples differ");
    for u in 0..live.n_users() as u32 {
        assert_eq!(
            live.ppr_entries(u),
            fresh.ppr_entries(u),
            "PPR entries of user {u} diverged from a from-scratch recompute"
        );
    }
}

fn fast_config(keep: usize) -> DynamicConfig {
    DynamicConfig {
        ppr: PprConfig { iterations: 4, ..PprConfig::default() },
        keep,
        compact_threshold: 8,
        threads: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `PprGraph` built over a `DeltaView` (base edges, then appended
    /// triples, per node) returns the push oracle's bits for every source.
    #[test]
    fn pull_ppr_over_delta_view_matches_push_oracle(
        ckg in random_base(),
        appended in proptest::collection::vec((0u32..64, 0u32..8, 0u32..64), 0..30),
        iterations in 0usize..30,
        alpha in 0.01f32..0.99,
    ) {
        let base = ckg.csr();
        let (n, n_base) = (base.n_nodes() as u32, base.n_base_relations());
        let mut delta = DeltaAdj::new(base.n_nodes());
        for (h, r, t) in appended {
            delta.push(Triple::new(NodeId(h % n), RelId(r % n_base), NodeId(t % n)), n_base);
        }
        let view = DeltaView::new(base, &delta);
        let config = PprConfig { alpha, iterations };
        let pull = PprGraph::new(&view);
        for s in 0..n {
            let got: Vec<u32> = pull.scores(NodeId(s), &config).iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = push_oracle::push_ppr_scores(&view, NodeId(s), &config)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            prop_assert_eq!(got, want, "source {}", s);
        }
    }

    /// Lane-batched `sparse_many` over a `DeltaView` returns per-source
    /// `sparse`'s entries bit for bit, for 1-20 sources (duplicates
    /// included) at 1-3 threads.
    #[test]
    fn sparse_many_over_delta_view_matches_per_source_sparse(
        ckg in random_base(),
        appended in proptest::collection::vec((0u32..64, 0u32..8, 0u32..64), 0..30),
        raw_sources in proptest::collection::vec(0u32..64, 1..21),
        threads in 1usize..4,
        keep in 0usize..12,
    ) {
        let base = ckg.csr();
        let (n, n_base) = (base.n_nodes() as u32, base.n_base_relations());
        let mut delta = DeltaAdj::new(base.n_nodes());
        for (h, r, t) in appended {
            delta.push(Triple::new(NodeId(h % n), RelId(r % n_base), NodeId(t % n)), n_base);
        }
        let pull = PprGraph::new(&DeltaView::new(base, &delta));
        let sources: Vec<NodeId> = raw_sources.iter().map(|&s| NodeId(s % n)).collect();
        let config = PprConfig::default();
        let key = |e: &[(u32, f32)]| e.iter().map(|&(n, s)| (n, s.to_bits())).collect::<Vec<_>>();
        let many = pull.sparse_many(&sources, &config, keep, threads);
        prop_assert_eq!(many.len(), sources.len());
        for (&s, got) in sources.iter().zip(&many) {
            prop_assert_eq!(key(got), key(&pull.sparse(s, &config, keep)), "source {:?}", s);
        }
    }

    /// Unpruned incremental PPR equals from-scratch PPR on the final graph.
    #[test]
    fn incremental_ppr_matches_from_scratch_unpruned(
        ckg in random_base(),
        ops in random_ops(),
    ) {
        let graph = DynamicGraph::new(&ckg, fast_config(usize::MAX));
        replay(&graph, &ckg, &ops);
        assert_ppr_matches_rebuild(&graph);
    }

    /// Top-K-pruned incremental PPR equals from-scratch pruned PPR: the
    /// dirty-frontier optimization may skip recomputes, never change them.
    #[test]
    fn incremental_ppr_matches_from_scratch_pruned(
        ckg in random_base(),
        ops in random_ops(),
    ) {
        let graph = DynamicGraph::new(&ckg, fast_config(3));
        replay(&graph, &ckg, &ops);
        assert_ppr_matches_rebuild(&graph);
    }
}

/// Chaos: a fault injected at every phase of a refresh tick, one at a time,
/// must leave the previous epoch fully servable — same snapshot contents,
/// same pending log — and a subsequent clean tick must land exactly where
/// an unfaulted history would have.
#[test]
fn fault_injected_tick_leaves_old_epoch_servable() {
    let mut b = CkgBuilder::new(N_USERS, N_ITEMS, N_ENTITIES, N_KG_RELS);
    for u in 0..N_USERS {
        b.interact(UserId(u), ItemId(u % N_ITEMS));
    }
    b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(1)));
    let ckg = b.build();

    for phase in [
        RefreshPhase::Collect,
        RefreshPhase::Frontier,
        RefreshPhase::Recompute,
        RefreshPhase::Compact,
        RefreshPhase::Commit,
    ] {
        let faulted = DynamicGraph::new(&ckg, fast_config(4));
        let clean = DynamicGraph::new(&ckg, fast_config(4));
        for g in [&faulted, &clean] {
            g.append_interaction(1, 5).expect("valid");
            g.append_interaction(3, 6).expect("valid");
        }
        let before = faulted.snapshot();

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulted.refresh_tick_observed(&mut |p| assert_ne!(p, phase, "injected fault"));
        }));
        assert!(caught.is_err(), "fault at {phase:?} must propagate");

        // Old epoch still fully servable: the committed snapshot is the
        // very same object, and the pending log survived.
        let after = faulted.snapshot();
        assert!(std::sync::Arc::ptr_eq(&before, &after), "snapshot replaced at {phase:?}");
        assert_eq!(faulted.pending_len(), 2, "pending log lost at {phase:?}");

        // Recovery: the next clean tick matches an unfaulted history.
        let (recovered, unfaulted) = (faulted.refresh_tick(), clean.refresh_tick());
        assert_eq!(recovered, unfaulted, "post-fault tick diverged after {phase:?}");
        let (s1, s2) = (faulted.snapshot(), clean.snapshot());
        assert_eq!(s1.final_triples(), s2.final_triples(), "{phase:?}");
        for u in 0..s1.n_users() as u32 {
            assert_eq!(s1.ppr_entries(u), s2.ppr_entries(u), "user {u} after {phase:?}");
        }
    }
}
