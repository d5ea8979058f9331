//! PPR score caching and the edge selectors used by Algorithm 1 line 4.
//!
//! [`PprCache`] precomputes (in parallel, on the shared `kucnet-par` worker
//! pool) a sparsified PPR vector for every user. [`PprTopK`] then keeps, for
//! each head node in the layered expansion, the `K` out-edges whose *tail*
//! has the highest PPR score w.r.t. the current user. [`RandomK`] is the
//! paper's `KUCNet-random` ablation.

use kucnet_graph::{index_u32, EdgeSelector, GraphView, NodeId, RelId, UserId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::power::{PprConfig, PprGraph, LANES};

/// Sparse PPR entries kept per user by every KUCNet path: the eager
/// [`PprCache`] of a trained model, the lazy per-request [`sparse_ppr`] of
/// a shard and the dynamic graph's per-tick recompute. One constant keeps
/// their kept-entry sets, and so their pruned subgraphs, identical.
pub const PPR_KEEP: usize = 4096;

/// Sparse per-user PPR scores: for each user, the top entries of its PPR
/// vector stored as `(node, score)` sorted by node id for binary search.
#[derive(Clone, Debug)]
pub struct PprCache {
    per_user: Vec<Vec<(u32, f32)>>,
}

impl PprCache {
    /// Computes PPR vectors for all `n_users` users of the CKG (user nodes
    /// occupy ids `0..n_users`), keeping at most `keep` entries per user.
    /// The graph's [`PprGraph`] is built once and [`PprGraph::sparse_many`]
    /// sweeps it for eight users at a time, the sweeps spread over
    /// `threads` worker threads on the shared `kucnet-par` pool; results
    /// are identical for every thread count.
    pub fn compute<G: GraphView>(
        csr: &G,
        n_users: usize,
        config: &PprConfig,
        keep: usize,
        threads: usize,
    ) -> Self {
        let users: Vec<NodeId> = (0..n_users).map(|u| NodeId(index_u32(u, "user id"))).collect();
        Self { per_user: PprGraph::new(csr).sparse_many(&users, config, keep, threads) }
    }

    /// Number of users covered.
    pub fn n_users(&self) -> usize {
        self.per_user.len()
    }

    /// PPR score of `node` w.r.t. `user` (0 when truncated away).
    pub fn score(&self, user: UserId, node: NodeId) -> f32 {
        entry_score(&self.per_user[user.0 as usize], node)
    }

    /// The stored (sparse) entries for a user, sorted by node id.
    pub fn entries(&self, user: UserId) -> &[(u32, f32)] {
        &self.per_user[user.0 as usize]
    }

    /// Approximate heap footprint of the cached PPR vectors in bytes —
    /// reported by serving metrics alongside the subgraph cache size.
    pub fn approx_bytes(&self) -> usize {
        self.per_user.iter().map(|v| v.len() * std::mem::size_of::<(u32, f32)>()).sum::<usize>()
    }

    /// Builds a top-K selector for `user` borrowing this cache.
    pub fn selector(&self, user: UserId, k: usize) -> PprTopK<'_> {
        PprTopK::from_entries(self.entries(user), k)
    }

    /// Consumes the cache, yielding the per-user sparse entry vectors
    /// (indexed by user id). Used by the dynamic graph layer, which owns and
    /// incrementally patches the entries rather than recomputing the cache.
    pub fn into_entries(self) -> Vec<Vec<(u32, f32)>> {
        self.per_user
    }

    /// Rebuilds a cache from per-user entry vectors previously produced by
    /// [`PprCache::into_entries`] or [`sparse_ppr`].
    pub fn from_entries(per_user: Vec<Vec<(u32, f32)>>) -> Self {
        Self { per_user }
    }
}

/// Computes the sparsified PPR entries for a single source node: the `keep`
/// highest-scoring `(node, score)` pairs, sorted by node id — exactly one
/// user's slice of what [`PprCache::compute`] produces (same iteration, same
/// truncation, bitwise identical). Builds the graph's [`PprGraph`] for this
/// one source; callers scoring many sources keep a [`PprGraph`] and call
/// [`PprGraph::sparse`].
pub fn sparse_ppr<G: GraphView>(
    csr: &G,
    source: NodeId,
    config: &PprConfig,
    keep: usize,
) -> Vec<(u32, f32)> {
    PprGraph::new(csr).sparse(source, config, keep)
}

impl PprGraph {
    /// The `keep` highest-scoring `(node, score)` pairs of
    /// [`PprGraph::scores`], sorted by node id.
    pub fn sparse(&self, source: NodeId, config: &PprConfig, keep: usize) -> Vec<(u32, f32)> {
        sparsify(self.scores(source, config).into_iter(), keep)
    }

    /// [`PprGraph::sparse`] for every source, in order: the sources are cut
    /// into groups of eight, each group runs as the lanes of one sweep
    /// (a short last group repeats its first source in the spare lanes),
    /// and the groups are spread over `threads` worker threads on the
    /// shared `kucnet-par` pool. Every lane is bitwise its one-source
    /// vector, so the result equals per-source [`PprGraph::sparse`] for
    /// every thread count.
    pub fn sparse_many(
        &self,
        sources: &[NodeId],
        config: &PprConfig,
        keep: usize,
        threads: usize,
    ) -> Vec<Vec<(u32, f32)>> {
        let groups: Vec<&[NodeId]> = sources.chunks(LANES).collect();
        let per_group = kucnet_par::par_map(threads, groups.len(), |g| {
            let group = groups[g];
            let mut lanes = [group[0]; LANES];
            lanes[..group.len()].copy_from_slice(group);
            let scores = self.sweep(lanes, config);
            (0..group.len())
                .map(|w| {
                    let lane = scores[w..].iter().step_by(LANES).copied();
                    debug_assert_eq!(
                        crate::power::validate_scores(
                            &lane.clone().collect::<Vec<_>>(),
                            self.n_nodes()
                        ),
                        Ok(()),
                        "PPR invariants violated for source {:?}",
                        group[w]
                    );
                    sparsify(lane, keep)
                })
                .collect::<Vec<_>>()
        });
        per_group.into_iter().flatten().collect()
    }
}

/// The `keep` highest positive `(node, score)` pairs of a score vector,
/// sorted by node id.
fn sparsify(scores: impl Iterator<Item = f32>, keep: usize) -> Vec<(u32, f32)> {
    let mut entries: Vec<(u32, f32)> = scores
        .enumerate()
        .filter(|&(_, s)| s > 0.0)
        .map(|(n, s)| (index_u32(n, "node id"), s))
        .collect();
    if entries.len() > keep {
        // keep = 0 keeps no entries; there is nothing to partition.
        if let Some(last) = keep.checked_sub(1) {
            entries.select_nth_unstable_by(last, |a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        entries.truncate(keep);
    }
    entries.sort_unstable_by_key(|&(n, _)| n);
    entries
}

/// Keeps the `K` out-edges per head node with the highest tail PPR score
/// w.r.t. a fixed user (the full KUCNet selector).
///
/// Borrows a sparse `(node, score)` slice sorted by node id — either a
/// [`PprCache`] row (via [`PprCache::selector`]) or a standalone
/// [`sparse_ppr`] result.
pub struct PprTopK<'a> {
    entries: &'a [(u32, f32)],
    k: usize,
    /// Scratch `(score, rel, tail)` rows of the head being selected, reused
    /// across heads.
    scored: Vec<(f32, RelId, NodeId)>,
}

impl<'a> PprTopK<'a> {
    /// Builds the selector from a sparse score slice sorted by node id.
    pub fn from_entries(entries: &'a [(u32, f32)], k: usize) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries not sorted by node");
        Self { entries, k, scored: Vec::new() }
    }
}

/// The score of `node` in a sparse row sorted by node id (0 when absent).
fn entry_score(entries: &[(u32, f32)], node: NodeId) -> f32 {
    match entries.binary_search_by_key(&node.0, |&(n, _)| n) {
        Ok(idx) => entries[idx].1,
        Err(_) => 0.0,
    }
}

impl EdgeSelector for PprTopK<'_> {
    /// Looks each candidate's tail score up once, then partitions the
    /// scored rows by score, descending. The comparator sees the same
    /// scores as one that looked them up per comparison, so it makes the
    /// same swaps and keeps the same edges in the same order.
    fn select(&mut self, _head: NodeId, candidates: &mut Vec<(RelId, NodeId)>) {
        if candidates.len() <= self.k {
            return;
        }
        // K = 0 keeps no edges; there is nothing to partition.
        if let Some(last) = self.k.checked_sub(1) {
            let entries = self.entries;
            self.scored.clear();
            self.scored.extend(
                candidates.iter().map(|&(rel, tail)| (entry_score(entries, tail), rel, tail)),
            );
            self.scored.select_nth_unstable_by(last, |a, b| {
                b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal)
            });
            candidates.clear();
            candidates.extend(self.scored[..self.k].iter().map(|&(_, rel, tail)| (rel, tail)));
        }
        candidates.truncate(self.k);
    }
}

/// Keeps `K` uniformly random out-edges per head node
/// (the paper's `KUCNet-random` ablation).
pub struct RandomK {
    k: usize,
    rng: SmallRng,
}

impl RandomK {
    /// Creates the selector with an explicit seed for reproducibility.
    pub fn new(k: usize, seed: u64) -> Self {
        Self { k, rng: SmallRng::seed_from_u64(seed) }
    }
}

impl EdgeSelector for RandomK {
    fn select(&mut self, _head: NodeId, candidates: &mut Vec<(RelId, NodeId)>) {
        if candidates.len() <= self.k {
            return;
        }
        candidates.shuffle(&mut self.rng);
        candidates.truncate(self.k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::ppr_scores;
    use kucnet_graph::{CkgBuilder, EntityId, ItemId, KgNode, UserId};

    fn star() -> kucnet_graph::Ckg {
        // u0 interacts with items 0..4; item 0 is "popular" (also liked by u1).
        let mut b = CkgBuilder::new(2, 5, 1, 1);
        for i in 0..5 {
            b.interact(UserId(0), ItemId(i));
        }
        b.interact(UserId(1), ItemId(0));
        b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(0)));
        b.build()
    }

    #[test]
    fn cache_scores_match_direct_computation() {
        let g = star();
        let cache = PprCache::compute(g.csr(), 2, &PprConfig::default(), usize::MAX, 2);
        let direct = ppr_scores(g.csr(), g.user_node(UserId(0)), &PprConfig::default());
        for (n, &expect) in direct.iter().enumerate() {
            let c = cache.score(UserId(0), kucnet_graph::NodeId(n as u32));
            assert!((c - expect).abs() < 1e-6, "node {n}: {c} vs {expect}");
        }
    }

    #[test]
    fn sparsify_keeps_top_entries() {
        let scores = vec![0.5, 0.0, 0.1, 0.3, 0.05];
        let kept = sparsify(scores.into_iter(), 2);
        assert_eq!(kept.len(), 2);
        let nodes: Vec<u32> = kept.iter().map(|&(n, _)| n).collect();
        assert!(nodes.contains(&0));
        assert!(nodes.contains(&3));
    }

    #[test]
    fn sparsify_with_zero_keep_keeps_nothing() {
        assert!(sparsify([0.5, 0.0, 0.1].into_iter(), 0).is_empty());
    }

    #[test]
    fn topk_selector_with_zero_k_keeps_no_edges() {
        let g = star();
        let cache = PprCache::compute(g.csr(), 2, &PprConfig::default(), usize::MAX, 1);
        let u0 = g.user_node(UserId(0));
        let mut cands: Vec<(RelId, NodeId)> =
            g.csr().out_edges(u0).map(|e| (e.rel, e.tail)).collect();
        assert!(!cands.is_empty());
        cache.selector(UserId(0), 0).select(u0, &mut cands);
        assert!(cands.is_empty());
    }

    #[test]
    fn topk_selector_truncates_to_k() {
        let g = star();
        let cache = PprCache::compute(g.csr(), 2, &PprConfig::default(), usize::MAX, 1);
        let mut sel = cache.selector(UserId(0), 2);
        let u0 = g.user_node(UserId(0));
        let mut cands: Vec<(RelId, NodeId)> =
            g.csr().out_edges(u0).map(|e| (e.rel, e.tail)).collect();
        assert_eq!(cands.len(), 5);
        sel.select(u0, &mut cands);
        assert_eq!(cands.len(), 2);
        // Item 0 (popular, KG-linked) has the highest PPR among tails.
        assert!(cands.iter().any(|&(_, t)| t == g.item_node(ItemId(0))));
    }

    #[test]
    fn random_selector_is_seeded() {
        let g = star();
        let u0 = g.user_node(UserId(0));
        let base: Vec<(RelId, NodeId)> = g.csr().out_edges(u0).map(|e| (e.rel, e.tail)).collect();
        let run = |seed| {
            let mut c = base.clone();
            RandomK::new(2, seed).select(u0, &mut c);
            c
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn cache_identical_across_thread_counts() {
        let g = star();
        let reference = PprCache::compute(g.csr(), 2, &PprConfig::default(), 8, 1);
        for threads in [2, 4, 8] {
            let cache = PprCache::compute(g.csr(), 2, &PprConfig::default(), 8, threads);
            for u in 0..2u32 {
                assert_eq!(
                    cache.entries(UserId(u)),
                    reference.entries(UserId(u)),
                    "threads={threads} user={u}"
                );
            }
        }
    }

    #[test]
    fn selector_noop_when_under_k() {
        let g = star();
        let cache = PprCache::compute(g.csr(), 2, &PprConfig::default(), usize::MAX, 1);
        let mut sel = cache.selector(UserId(0), 100);
        let u0 = g.user_node(UserId(0));
        let mut cands: Vec<(RelId, NodeId)> =
            g.csr().out_edges(u0).map(|e| (e.rel, e.tail)).collect();
        let before = cands.clone();
        sel.select(u0, &mut cands);
        assert_eq!(cands, before);
    }
}
