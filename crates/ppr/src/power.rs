//! Power-iteration personalized PageRank (paper Eq. 13).

use kucnet_graph::{index_u32, GraphView, NodeId};

/// Parameters for the PPR power iteration.
#[derive(Clone, Copy, Debug)]
pub struct PprConfig {
    /// Restart probability `alpha` (paper uses 0.15).
    pub alpha: f32,
    /// Number of power iterations (paper uses ~20).
    pub iterations: usize,
}

impl Default for PprConfig {
    fn default() -> Self {
        Self { alpha: 0.15, iterations: 20 }
    }
}

/// Targets per chunk of the sliced in-adjacency: each chunk sums its
/// targets in this many independent accumulators.
const CHUNK: usize = 8;

/// Sources per sweep of [`PprGraph::sparse_many`]: every round loads the
/// in-adjacency once and adds this many sources' shares per slot.
pub(crate) const LANES: usize = 8;

/// A graph's in-adjacency laid out for pull-order PPR rounds (a sliced ELL,
/// SELL-C-σ with C = 8 and σ = all nodes): targets are grouped 8 to a chunk
/// in descending in-degree order (ties by id), and each chunk stores its
/// source ids column-major, padded to the chunk's longest column with slot
/// `n_nodes`, whose share is always `+0.0`.
///
/// Every target lists its sources in ascending id order with multiplicity,
/// which is the order a push-style round (every source, ascending, scatters
/// its share to every out-edge) adds them, and a padded `+0.0` leaves a
/// nonnegative sum unchanged. So [`PprGraph::scores`] returns bitwise what
/// the push iteration returns, over any [`GraphView`] of the same edges.
#[derive(Clone, Debug)]
pub struct PprGraph {
    /// Out-degree of every node, as the divisor of its share.
    degree: Vec<f32>,
    /// Node ids in chunk order (descending in-degree, then ascending id).
    order: Vec<u32>,
    /// Start of each chunk's block in `sources`; one entry per chunk, plus
    /// the end.
    offsets: Vec<usize>,
    /// Source ids: slot `k` of target `j` in chunk `c` is at
    /// `offsets[c] + k * CHUNK + j`; padding slots hold `n_nodes`.
    sources: Vec<u32>,
}

impl PprGraph {
    /// Builds the in-adjacency of `graph` in two passes over its out-edges:
    /// the first records out-degrees and counts in-degrees, the second
    /// scatters each source id, in ascending source order, into its
    /// target's next slot.
    pub fn new<G: GraphView>(graph: &G) -> Self {
        let n = graph.n_nodes();
        let pad = index_u32(n, "node count");
        let mut degree = Vec::with_capacity(n);
        let mut in_degree = vec![0usize; n];
        for node in 0..n {
            let node = NodeId(index_u32(node, "node id"));
            degree.push(graph.degree(node) as f32);
            graph.visit_out_edges(node, |e| in_degree[e.tail.0 as usize] += 1);
        }

        // Counting sort by descending in-degree; ascending id breaks ties.
        let max_in = in_degree.iter().copied().max().unwrap_or(0);
        let mut bucket_start = vec![0usize; max_in + 2];
        for &d in &in_degree {
            bucket_start[max_in - d + 1] += 1;
        }
        for b in 1..bucket_start.len() {
            bucket_start[b] += bucket_start[b - 1];
        }
        let mut order = vec![0u32; n];
        for (node, &d) in in_degree.iter().enumerate() {
            let slot = &mut bucket_start[max_in - d];
            order[*slot] = index_u32(node, "node id");
            *slot += 1;
        }

        // Each chunk is as long as its first (largest) column; every
        // target's cursor starts at its lane of slot 0.
        let mut offsets = Vec::with_capacity(n.div_ceil(CHUNK) + 1);
        offsets.push(0usize);
        let mut cursor = vec![0usize; n];
        for targets in order.chunks(CHUNK) {
            let start = offsets[offsets.len() - 1];
            for (j, &t) in targets.iter().enumerate() {
                cursor[t as usize] = start + j;
            }
            offsets.push(start + CHUNK * in_degree[targets[0] as usize]);
        }
        let mut sources = vec![pad; offsets[offsets.len() - 1]];
        for node in 0..n {
            let id = index_u32(node, "node id");
            graph.visit_out_edges(NodeId(id), |e| {
                let slot = &mut cursor[e.tail.0 as usize];
                sources[*slot] = id;
                *slot += CHUNK;
            });
        }
        Self { degree, order, offsets, sources }
    }

    /// Number of nodes (the length of every score vector).
    pub fn n_nodes(&self) -> usize {
        self.degree.len()
    }

    /// Computes the PPR score vector `r_u` for `source` by iterating
    /// `r^{k+1} = (1 - alpha) * M * r^k + alpha * p`, where `M` is the
    /// column-normalized adjacency and `p` the one-hot restart vector at
    /// `source`: the one-lane case of the sweep [`PprGraph::sparse_many`]
    /// runs, so the scores equal that lane bit for bit.
    pub fn scores(&self, source: NodeId, config: &PprConfig) -> Vec<f32> {
        self.sweep([source], config)
    }

    /// Runs the power iteration for `W` sources at once and returns their
    /// score vectors node-major: entry `node * W + w` is lane `w`'s score of
    /// `node`. Each round computes every node's per-lane share
    /// `(1 - alpha) * r[s] / deg[s]` (0 for a node without mass or
    /// out-edges), then each target sums its sources' shares lane by lane.
    ///
    /// Every lane adds the same shares in the same order as a one-source
    /// sweep, so lane `w` is bitwise `scores(sources[w])`, and `W = 1`
    /// returns that vector itself.
    pub(crate) fn sweep<const W: usize>(
        &self,
        sources: [NodeId; W],
        config: &PprConfig,
    ) -> Vec<f32> {
        let n = self.n_nodes();
        let mut r = vec![0.0f32; n * W];
        // One extra row: the padding source, whose shares stay +0.0.
        let mut share = vec![0.0f32; (n + 1) * W];
        for (w, s) in sources.iter().enumerate() {
            r[s.0 as usize * W + w] = 1.0;
        }
        for _ in 0..config.iterations {
            // One flat pass over node-major entries: at W = 1 it is the
            // plain per-node loop, which vectorizes across nodes.
            for (i, (sh, &mass)) in share.iter_mut().zip(&r).enumerate() {
                let deg = self.degree[i / W];
                *sh =
                    if mass == 0.0 || deg == 0.0 { 0.0 } else { (1.0 - config.alpha) * mass / deg };
            }
            let (share_rows, _) = share.as_chunks::<W>();
            let (r_rows, _) = r.as_chunks_mut::<W>();
            for (targets, bounds) in self.order.chunks(CHUNK).zip(self.offsets.windows(2)) {
                let mut acc = [[0.0f32; W]; CHUNK];
                for row in self.sources[bounds[0]..bounds[1]].chunks_exact(CHUNK) {
                    for (a, &s) in acc.iter_mut().zip(row) {
                        for (a, &sh) in a.iter_mut().zip(&share_rows[s as usize]) {
                            *a += sh;
                        }
                    }
                }
                for (&t, a) in targets.iter().zip(acc) {
                    r_rows[t as usize] = a;
                }
            }
            for (w, s) in sources.iter().enumerate() {
                r[s.0 as usize * W + w] += config.alpha;
            }
        }
        r
    }
}

/// Computes the PPR score vector of `source` over `graph` (paper Eq. 13):
/// builds the graph's [`PprGraph`] and runs [`PprGraph::scores`]. Callers
/// scoring many sources over one graph build the [`PprGraph`] once.
///
/// Generic over [`GraphView`]: a plain CSR and a dynamic delta overlay of
/// the same edges give bitwise the same scores.
pub fn ppr_scores<G: GraphView>(graph: &G, source: NodeId, config: &PprConfig) -> Vec<f32> {
    PprGraph::new(graph).scores(source, config)
}

/// Checks the invariants a PPR vector from [`ppr_scores`] must satisfy:
/// one entry per node, every score finite and nonnegative, and total
/// probability mass at most 1 (up to float accumulation error).
///
/// Returns `Err` describing the first violation found.
pub fn validate_scores(scores: &[f32], n_nodes: usize) -> Result<(), String> {
    if scores.len() != n_nodes {
        return Err(format!("score vector has {} entries for {n_nodes} nodes", scores.len()));
    }
    let mut total = 0.0f64;
    for (n, &s) in scores.iter().enumerate() {
        if !s.is_finite() {
            return Err(format!("node {n}: score {s} is not finite"));
        }
        if s < 0.0 {
            return Err(format!("node {n}: score {s} is negative"));
        }
        total += s as f64;
    }
    if total > 1.0 + 1e-3 {
        return Err(format!("total PPR mass {total} exceeds 1"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_graph::{CkgBuilder, EntityId, ItemId, KgNode, UserId};

    fn chain_graph() -> kucnet_graph::Ckg {
        // u0 - i0 - e0 - (i1) : chain
        let mut b = CkgBuilder::new(1, 2, 1, 1);
        b.interact(UserId(0), ItemId(0));
        b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(0)));
        b.kg_triple(KgNode::Item(ItemId(1)), 0, KgNode::Entity(EntityId(0)));
        b.build()
    }

    #[test]
    fn source_keeps_restart_mass() {
        // The source always retains at least the restart probability, and
        // dominates the farthest node in the chain.
        let g = chain_graph();
        let src = g.user_node(UserId(0));
        let r = ppr_scores(g.csr(), src, &PprConfig::default());
        assert!(r[src.0 as usize] >= 0.15, "source score {}", r[src.0 as usize]);
        assert!(r[src.0 as usize] > r[g.item_node(ItemId(1)).0 as usize]);
    }

    #[test]
    fn scores_sum_to_about_one() {
        let g = chain_graph();
        let r = ppr_scores(g.csr(), g.user_node(UserId(0)), &PprConfig::default());
        let total: f32 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "total={total}");
    }

    #[test]
    fn closer_nodes_score_higher() {
        let g = chain_graph();
        let r = ppr_scores(g.csr(), g.user_node(UserId(0)), &PprConfig::default());
        let i0 = r[g.item_node(ItemId(0)).0 as usize];
        let e0 = r[g.entity_node(EntityId(0)).0 as usize];
        let i1 = r[g.item_node(ItemId(1)).0 as usize];
        assert!(i0 > e0, "i0={i0} e0={e0}");
        assert!(e0 > i1, "e0={e0} i1={i1}");
        assert!(i1 > 0.0);
    }

    #[test]
    fn higher_alpha_concentrates_on_source() {
        let g = chain_graph();
        let src = g.user_node(UserId(0));
        let low = ppr_scores(g.csr(), src, &PprConfig { alpha: 0.1, iterations: 30 });
        let high = ppr_scores(g.csr(), src, &PprConfig { alpha: 0.6, iterations: 30 });
        assert!(high[src.0 as usize] > low[src.0 as usize]);
    }

    #[test]
    fn validate_accepts_real_scores() {
        let g = chain_graph();
        let r = ppr_scores(g.csr(), g.user_node(UserId(0)), &PprConfig::default());
        assert_eq!(validate_scores(&r, g.csr().n_nodes()), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_vectors() {
        assert!(validate_scores(&[0.5, 0.5], 3).unwrap_err().contains("entries"));
        assert!(validate_scores(&[0.5, -0.1], 2).unwrap_err().contains("negative"));
        assert!(validate_scores(&[f32::NAN, 0.0], 2).unwrap_err().contains("finite"));
        assert!(validate_scores(&[0.9, 0.9], 2).unwrap_err().contains("mass"));
    }

    #[test]
    fn disconnected_node_gets_zero() {
        let mut b = CkgBuilder::new(1, 2, 1, 1);
        b.interact(UserId(0), ItemId(0));
        b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(0)));
        // Item 1 has no edges at all.
        let g = b.build();
        let r = ppr_scores(g.csr(), g.user_node(UserId(0)), &PprConfig::default());
        assert_eq!(r[g.item_node(ItemId(1)).0 as usize], 0.0);
    }
}
