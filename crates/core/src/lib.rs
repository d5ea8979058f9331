//! # kucnet
//!
//! The paper's primary contribution: **KUCNet**, the Knowledge-enhanced
//! User-Centric subgraph Network for recommendation (Liu, Yao, Zhang, Chen —
//! ICDE 2024).
//!
//! KUCNet scores user–item pairs by encoding U-I subgraphs of a collaborative
//! knowledge graph with an attention-based relational GNN (Eqs. 5–7). It is
//! efficient because all candidate items of one user are scored in a single
//! propagation over a *user-centric computation graph* (Eqs. 9–11) pruned by
//! Personalized PageRank (Algorithm 1), and it is inductive because it learns
//! **no node embeddings** — new items and new users are handled natively.
//!
//! ## Quickstart
//! ```
//! use kucnet::{KucNet, KucNetConfig};
//! use kucnet_datasets::{DatasetProfile, GeneratedDataset, traditional_split};
//! use kucnet_eval::{evaluate, Recommender};
//!
//! let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
//! let split = traditional_split(&data, 0.2, 7);
//! let ckg = data.build_ckg(&split.train);
//!
//! let mut model = KucNet::new(KucNetConfig::default().with_epochs(2), ckg);
//! model.fit();
//! let metrics = evaluate(&model, &split, 20);
//! assert!(metrics.recall >= 0.0);
//! ```

#![warn(missing_docs)]

mod config;
mod explain;
mod frozen;
mod infer;
mod kucnet;
mod model;
mod sharded;
mod variants;

pub use config::{Activation, AggregationNorm, KucNetConfig, SelectorKind};
pub use explain::{explain, explain_on, ExplainedEdge, Explanation};
pub use frozen::{build_user_graph, FrozenModel};
pub use infer::{infer_node_logits, ExplainOutput, GraphContext, ScoreService, StaticGraphContext};
pub use kucnet::KucNet;
pub use model::{
    forward, score_logits, BoundLayer, BoundParams, ForwardOutput, KucNetParams, LayerParamIds,
};
pub use sharded::ShardService;
pub use variants::{score_items_pairwise, score_pair, ui_comparison_config, PairScore};
