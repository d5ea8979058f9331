//! # kucnet-eval
//!
//! Evaluation harness for the KUCNet reproduction: the [`Recommender`] trait
//! every model implements, the all-ranking protocol of the paper's
//! Section V-A2 ([`evaluate`]), Recall@N / NDCG@N (Eqs. 15–16), and
//! learning-curve recording for Figure 4.
//!
//! ## Example
//! ```
//! use kucnet_datasets::{DatasetProfile, GeneratedDataset, traditional_split};
//! use kucnet_eval::{evaluate, FnRecommender};
//!
//! let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
//! let split = traditional_split(&data, 0.2, 1);
//! let n_items = data.n_items();
//! let flat = FnRecommender::new("flat", move |_| vec![0.0; n_items]);
//! let m = evaluate(&flat, &split, 20);
//! assert!(m.recall >= 0.0 && m.recall <= 1.0);
//! ```

#![warn(missing_docs)]

mod curve;
mod extra_metrics;
mod metrics;
mod ranking;

pub use curve::{CurvePoint, LearningCurve};
pub use extra_metrics::{evaluate_extended, hit_rate_at_n, precision_at_n, ExtendedMetrics};
pub use metrics::{ndcg_at_n, recall_at_n, top_n_indices, top_n_sparse, Metrics};
pub use ranking::{evaluate, evaluate_with_threads, FnRecommender, Recommender};
