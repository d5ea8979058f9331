//! Figure 4: learning curves on Last-FM — recall@20 / ndcg@20 versus
//! training wall-clock for KUCNet and the GNN baselines (KGAT, KGIN, R-GCN,
//! CKAN). The paper's claim: KUCNet reaches its best metric in less wall
//! time than the embedding GNNs.

use kucnet::{KucNet, SelectorKind};
use kucnet_baselines::{BaselineConfig, Ckan, Kgat, Kgin, Rgcn};
use kucnet_bench::{kucnet_config, print_table, write_results, HarnessOpts};
use kucnet_datasets::{traditional_split, DatasetProfile, GeneratedDataset};
use kucnet_eval::{evaluate, LearningCurve, Recommender};

fn main() {
    let opts = HarnessOpts::from_args();
    let data = GeneratedDataset::generate(&DatasetProfile::lastfm_small(), 42);
    let split = traditional_split(&data, 0.2, opts.seed);
    let ckg = data.build_ckg(&split.train);
    let mut curves: Vec<LearningCurve> = Vec::new();
    let eval_into = |curve: &mut LearningCurve, epoch: usize, m: &(dyn Recommender + Sync)| {
        let metrics = evaluate(m, &split, opts.n);
        eprintln!("  {} epoch {epoch}: recall={:.4}", curve.label(), metrics.recall);
        curve.record(epoch, metrics);
    };

    // Each model trains once on its own clock and is evaluated after every
    // epoch. KUCNet's epochs count from 0; a baseline's label is the number
    // of epochs trained.
    let mut curve = LearningCurve::start("KUCNet");
    KucNet::new(kucnet_config(&opts, SelectorKind::PprTopK, true), ckg.clone())
        .fit_with_callback(|epoch, _, m| eval_into(&mut curve, epoch, m));
    curves.push(curve);

    let bc = BaselineConfig {
        epochs: opts.epochs_baseline,
        seed: opts.seed,
        ..BaselineConfig::default()
    };
    let mut curve = LearningCurve::start("KGAT");
    Kgat::new(bc.clone(), ckg.clone()).fit_with_callback(|e, _, m| eval_into(&mut curve, e + 1, m));
    curves.push(curve);
    let mut curve = LearningCurve::start("KGIN");
    Kgin::new(bc.clone(), ckg.clone()).fit_with_callback(|e, _, m| eval_into(&mut curve, e + 1, m));
    curves.push(curve);
    let mut curve = LearningCurve::start("R-GCN");
    Rgcn::new(bc.clone(), ckg.clone()).fit_with_callback(|e, _, m| eval_into(&mut curve, e + 1, m));
    curves.push(curve);
    let mut curve = LearningCurve::start("CKAN");
    Ckan::new(bc, ckg).fit_with_callback(|e, _, m| eval_into(&mut curve, e + 1, m));
    curves.push(curve);

    let mut rows = Vec::new();
    for c in &curves {
        for p in c.points() {
            rows.push(vec![
                c.label().to_string(),
                p.epoch.to_string(),
                format!("{:.2}", p.seconds),
                format!("{:.4}", p.metrics.recall),
                format!("{:.4}", p.metrics.ndcg),
            ]);
        }
    }
    let tsv = print_table(
        "Figure 4: learning curves on Last-FM",
        &["model", "epoch", "seconds", "recall@20", "ndcg@20"],
        &rows,
    );
    write_results("fig4_learning_curves.tsv", &tsv);

    println!("\nbest recall per model:");
    for c in &curves {
        println!("  {:<8} {:.4}", c.label(), c.best_recall());
    }
}
