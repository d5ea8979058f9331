//! # kucnet-ppr
//!
//! Personalized PageRank (PPR) over the collaborative knowledge graph, as
//! used by KUCNet to prune user-centric computation graphs (paper
//! Section IV-C2, Eq. 13) and by the PPR recommendation baseline
//! (Section V-C1).
//!
//! Scores are computed by power iteration on the column-normalized adjacency
//! matrix with restart probability `alpha` (default 0.15, 20 iterations,
//! matching the paper). One kernel runs every round: [`PprGraph`] lays a
//! graph's in-adjacency out once as a sliced ELL (8 targets per chunk,
//! sources column-major), and each round every target gathers its sources'
//! shares in ascending source order — the order a push-style scatter adds
//! them, so the scores are bitwise those of the push iteration over any
//! [`kucnet_graph::GraphView`] of the same edges. Many sources share one
//! pass as lanes ([`PprGraph::sparse_many`], eight per sweep): training's
//! [`PprCache::compute`] and the dynamic graph's refresh ticks run that
//! way, while lazy per-request serving ([`sparse_ppr`]) and the PPR
//! baseline run the one-lane case. Vectors are
//! sparsified to the top [`PPR_KEEP`] entries, since PPR mass is heavily
//! localized around the source.

#![warn(missing_docs)]

mod power;
mod prune;
mod push;

pub use power::{ppr_scores, validate_scores, PprConfig, PprGraph};
pub use prune::{sparse_ppr, PprCache, PprTopK, RandomK, PPR_KEEP};
pub use push::influence_frontier;
