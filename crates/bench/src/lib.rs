//! # kucnet-bench
//!
//! Benchmark harnesses regenerating every table and figure of the KUCNet
//! paper's evaluation section on the synthetic datasets. Each `src/bin/`
//! binary prints one table/figure and appends a TSV copy under `results/`.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2_stats` | Table II (dataset statistics) |
//! | `table3_traditional` | Table III (traditional recommendation) |
//! | `table4_new_item` | Table IV (new-item recommendation) |
//! | `table5_disgenet` | Table V (DisGeNet new item / new user) |
//! | `table6_runtime` | Table VI (PPR / training / inference minutes) |
//! | `table7_k_sweep` | Table VII (sampling size K) |
//! | `table8_l_sweep` | Table VIII (model depth L) |
//! | `table9_ablation` | Table IX (KUCNet variants) |
//! | `fig4_learning_curves` | Figure 4 (metric vs training time) |
//! | `fig5_params` | Figure 5 (model parameter counts) |
//! | `fig6_inference` | Figure 6 (inference time and #edges) |
//! | `fig7_explain` | Figure 7 (learned subgraph visualizations) |
//! | `ablation_extras` | beyond-paper ablations (activation δ, dropout) |
//! | `bench_serve` | online serving: latency percentiles, cache hit rate |
//!
//! All binaries accept `--quick` (fewer epochs, for smoke runs) and print
//! deterministic output for a fixed seed.

#![warn(missing_docs)]

use std::time::Instant;

use kucnet::{KucNet, KucNetConfig, SelectorKind};
use kucnet_baselines::{
    BaselineConfig, Ckan, Cke, Fm, Kgat, Kgin, KgnnLs, Mf, Nfm, PathSim, PprRec, RedGnn, RippleNet,
};
use kucnet_datasets::{GeneratedDataset, Split};
use kucnet_eval::{evaluate, Metrics, Recommender};

/// Which model to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// BPR matrix factorization.
    Mf,
    /// Factorization machine.
    Fm,
    /// Neural factorization machine.
    Nfm,
    /// RippleNet.
    RippleNet,
    /// KGNN-LS.
    KgnnLs,
    /// CKAN.
    Ckan,
    /// KGIN.
    Kgin,
    /// CKE.
    Cke,
    /// R-GCN.
    Rgcn,
    /// KGAT.
    Kgat,
    /// Personalized PageRank scoring.
    Ppr,
    /// PathSim meta-path similarity.
    PathSim,
    /// RED-GNN.
    RedGnn,
    /// Full KUCNet.
    KucNet,
    /// KUCNet with random instead of PPR sampling.
    KucNetRandom,
    /// KUCNet without edge attention.
    KucNetNoAttn,
    /// KUCNet without any pruning.
    KucNetNoPpr,
}

impl ModelKind {
    /// The eleven models of Table III, in the paper's row order.
    pub fn table3_lineup() -> Vec<ModelKind> {
        use ModelKind::*;
        vec![Mf, Fm, Nfm, RippleNet, KgnnLs, Ckan, Kgin, Cke, Rgcn, Kgat, KucNet]
    }

    /// The fourteen models of Table IV (adds the inductive baselines).
    pub fn table4_lineup() -> Vec<ModelKind> {
        use ModelKind::*;
        vec![
            Mf, Fm, Nfm, RippleNet, KgnnLs, Ckan, Kgin, Cke, Rgcn, Kgat, Ppr, PathSim, RedGnn,
            KucNet,
        ]
    }
}

/// Harness-wide options.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Epochs for KUCNet-family models (per-user propagation is costlier).
    pub epochs_kucnet: usize,
    /// Epochs for the embedding baselines.
    pub epochs_baseline: usize,
    /// PPR top-K sampling size for KUCNet.
    pub k: usize,
    /// Model depth L for KUCNet-family models.
    pub depth: usize,
    /// Top-N cutoff for metrics.
    pub n: usize,
    /// Interaction-edge dropout for KUCNet training (see DESIGN.md §6.3).
    pub ui_edge_dropout: f32,
    /// KUCNet learning rate — tuned per scenario as the paper does
    /// (5e-3 traditional, 1e-2 in the new-item/new-user settings).
    pub learning_rate: f32,
    /// Seed shared by dataset splits and model init.
    pub seed: u64,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        Self {
            epochs_kucnet: 6,
            epochs_baseline: 15,
            k: 15,
            depth: 3,
            n: 20,
            ui_edge_dropout: 0.0,
            learning_rate: 5e-3,
            seed: 0,
        }
    }
}

impl HarnessOpts {
    /// Applies `--quick` from the command line: 2/4 epochs.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        if std::env::args().any(|a| a == "--quick") {
            opts.epochs_kucnet = 2;
            opts.epochs_baseline = 4;
        }
        opts
    }
}

/// The outcome of one (model, dataset, split) run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Model display name.
    pub model: String,
    /// Evaluation metrics.
    pub metrics: Metrics,
    /// Wall-clock training seconds (0 for non-parametric models).
    pub train_secs: f64,
    /// Wall-clock seconds of the full evaluation pass.
    pub eval_secs: f64,
    /// Scalar parameter count.
    pub params: usize,
    /// PPR preprocessing seconds (KUCNet only; 0 elsewhere).
    pub ppr_secs: f64,
}

/// KUCNet config derived from harness options.
pub fn kucnet_config(opts: &HarnessOpts, selector: SelectorKind, attention: bool) -> KucNetConfig {
    KucNetConfig {
        k: opts.k,
        depth: opts.depth,
        selector,
        attention,
        epochs: opts.epochs_kucnet,
        ui_edge_dropout: opts.ui_edge_dropout,
        learning_rate: opts.learning_rate,
        seed: opts.seed,
        ..KucNetConfig::default()
    }
}

/// Trains `kind` on `split.train` and evaluates it on `split.test`.
pub fn fit_and_eval(
    kind: ModelKind,
    data: &GeneratedDataset,
    split: &Split,
    opts: &HarnessOpts,
) -> RunResult {
    let ckg = data.build_ckg(&split.train);
    let bc = BaselineConfig {
        epochs: opts.epochs_baseline,
        seed: opts.seed,
        ..BaselineConfig::default()
    };
    let started = Instant::now();
    let (rec, ppr_secs): (Box<dyn Recommender + Sync>, f64) = match kind {
        ModelKind::Mf => {
            let mut m = Mf::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::Fm => {
            let mut m = Fm::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::Nfm => {
            let mut m = Nfm::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::RippleNet => {
            let mut m = RippleNet::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::KgnnLs => {
            let mut m = KgnnLs::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::Ckan => {
            let mut m = Ckan::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::Kgin => {
            let mut m = Kgin::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::Cke => {
            let mut m = Cke::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::Rgcn => {
            let mut m = kucnet_baselines::Rgcn::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::Kgat => {
            let mut m = Kgat::new(bc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::Ppr => (Box::new(PprRec::new(ckg)), 0.0),
        ModelKind::PathSim => (Box::new(PathSim::new(ckg)), 0.0),
        ModelKind::RedGnn => {
            let rc = BaselineConfig { epochs: opts.epochs_kucnet, ..bc };
            let mut m = RedGnn::new(rc, ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::KucNet => {
            let mut m = KucNet::new(kucnet_config(opts, SelectorKind::PprTopK, true), ckg);
            let ppr = m.ppr_seconds;
            m.fit();
            (Box::new(m), ppr)
        }
        ModelKind::KucNetRandom => {
            let mut m = KucNet::new(kucnet_config(opts, SelectorKind::RandomK, true), ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
        ModelKind::KucNetNoAttn => {
            let mut m = KucNet::new(kucnet_config(opts, SelectorKind::PprTopK, false), ckg);
            let ppr = m.ppr_seconds;
            m.fit();
            (Box::new(m), ppr)
        }
        ModelKind::KucNetNoPpr => {
            let mut m = KucNet::new(kucnet_config(opts, SelectorKind::KeepAll, true), ckg);
            m.fit();
            (Box::new(m), 0.0)
        }
    };
    let train_secs = started.elapsed().as_secs_f64();
    let eval_started = Instant::now();
    let metrics = evaluate(rec.as_ref(), split, opts.n);
    let eval_secs = eval_started.elapsed().as_secs_f64();
    RunResult {
        model: rec.name(),
        metrics,
        train_secs,
        eval_secs,
        params: rec.num_params(),
        ppr_secs,
    }
}

/// Mean and sample standard deviation over per-fold metric values — the
/// paper reports `mean ± std` over folds (e.g. Table V's 5-fold protocol).
#[derive(Clone, Copy, Debug, Default)]
pub struct FoldStats {
    /// Mean recall across folds.
    pub recall_mean: f64,
    /// Sample standard deviation of recall.
    pub recall_std: f64,
    /// Mean NDCG across folds.
    pub ndcg_mean: f64,
    /// Sample standard deviation of NDCG.
    pub ndcg_std: f64,
}

impl FoldStats {
    /// Aggregates per-fold metrics.
    pub fn from_metrics(folds: &[Metrics]) -> Self {
        let n = folds.len().max(1) as f64;
        let rm = folds.iter().map(|m| m.recall).sum::<f64>() / n;
        let nm = folds.iter().map(|m| m.ndcg).sum::<f64>() / n;
        let var = |mean: f64, get: fn(&Metrics) -> f64| {
            if folds.len() < 2 {
                0.0
            } else {
                folds.iter().map(|m| (get(m) - mean).powi(2)).sum::<f64>()
                    / (folds.len() - 1) as f64
            }
        };
        Self {
            recall_mean: rm,
            recall_std: var(rm, |m| m.recall).sqrt(),
            ndcg_mean: nm,
            ndcg_std: var(nm, |m| m.ndcg).sqrt(),
        }
    }

    /// `0.1234±0.0010`-style rendering of the recall column.
    pub fn display_recall(&self) -> String {
        format!("{:.4}±{:.4}", self.recall_mean, self.recall_std)
    }
}

/// Runs `kind` on several folds produced by `make_split(fold)` and
/// aggregates the metrics (the paper's 5-fold protocol for DisGeNet).
pub fn fit_and_eval_folds(
    kind: ModelKind,
    data: &GeneratedDataset,
    n_folds: usize,
    opts: &HarnessOpts,
    make_split: impl Fn(usize) -> Split,
) -> FoldStats {
    let metrics: Vec<Metrics> = (0..n_folds)
        .map(|fold| fit_and_eval(kind, data, &make_split(fold), opts).metrics)
        .collect();
    FoldStats::from_metrics(&metrics)
}

/// Prints an aligned results table and returns the TSV body.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            widths[k] = widths[k].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(k, c)| format!("{:<w$}", c, w = widths[k] + 2))
            .collect::<String>()
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    let mut tsv = String::new();
    tsv.push_str(&headers.join("\t"));
    tsv.push('\n');
    for row in rows {
        println!("{}", fmt_row(row));
        tsv.push_str(&row.join("\t"));
        tsv.push('\n');
    }
    tsv
}

/// The short git commit hash of the working tree, or `"unknown"` when git
/// is unavailable (e.g. a source tarball). Stamped into every `BENCH_*.json`
/// so recorded numbers stay attributable to the code that produced them.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a report under `results/` (created on demand). A binary run with
/// `--smoke` writes under `target/bench-smoke/` instead, so CI-sized runs
/// never overwrite the committed full-mode results.
pub fn write_results(name: &str, tsv: &str) {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dir = std::path::Path::new(if smoke { "target/bench-smoke" } else { "results" });
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, tsv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(written to {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_datasets::{traditional_split, DatasetProfile};

    #[test]
    fn fit_and_eval_runs_cheap_models() {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 1);
        let split = traditional_split(&data, 0.2, 1);
        let opts = HarnessOpts { epochs_kucnet: 1, epochs_baseline: 1, ..HarnessOpts::default() };
        for kind in [ModelKind::Mf, ModelKind::Ppr, ModelKind::PathSim] {
            let r = fit_and_eval(kind, &data, &split, &opts);
            assert!(r.metrics.recall >= 0.0 && r.metrics.recall <= 1.0, "{kind:?}");
        }
    }

    #[test]
    fn table_printer_produces_tsv() {
        let rows = vec![vec!["a".to_string(), "1".to_string()]];
        let tsv = print_table("t", &["model", "x"], &rows);
        assert_eq!(tsv, "model\tx\na\t1\n");
    }

    #[test]
    fn fold_stats_mean_and_std() {
        let folds = vec![Metrics { recall: 0.2, ndcg: 0.1 }, Metrics { recall: 0.4, ndcg: 0.3 }];
        let s = FoldStats::from_metrics(&folds);
        assert!((s.recall_mean - 0.3).abs() < 1e-12);
        assert!((s.recall_std - (0.02f64).sqrt()).abs() < 1e-9);
        assert!(s.display_recall().contains('±'));
    }

    #[test]
    fn fold_runner_aggregates() {
        let data = GeneratedDataset::generate(&kucnet_datasets::DatasetProfile::tiny(), 1);
        let opts = HarnessOpts { epochs_kucnet: 1, epochs_baseline: 1, ..HarnessOpts::default() };
        let stats = fit_and_eval_folds(ModelKind::Ppr, &data, 2, &opts, |fold| {
            kucnet_datasets::new_item_split(&data, fold, 5, 1)
        });
        assert!(stats.recall_mean >= 0.0 && stats.recall_mean <= 1.0);
    }

    #[test]
    fn git_commit_is_a_short_hash_or_unknown() {
        let c = git_commit();
        assert!(
            c == "unknown" || (c.len() >= 7 && c.chars().all(|ch| ch.is_ascii_hexdigit())),
            "unexpected commit stamp: {c}"
        );
    }

    #[test]
    fn lineups_match_paper_row_counts() {
        assert_eq!(ModelKind::table3_lineup().len(), 11);
        assert_eq!(ModelKind::table4_lineup().len(), 14);
    }
}
