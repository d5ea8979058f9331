//! Quantized-serving benchmark: f32 vs i8 scoring on every paper dataset
//! profile. Writes `results/BENCH_quant.json`.
//!
//! For each profile the harness builds one model, quantizes its weights
//! (the load-time step `ModelRegistry` performs), builds each sampled
//! user's subgraph once, and then measures the two scoring paths the
//! server runs over a resident subgraph:
//!
//! - **f32 full** — the full L-layer f32 propagation.
//! - **quant full** — the full L-layer i8 propagation: the production path
//!   when a variant serves quantized.
//!
//! Reported per profile: throughput (scores/sec), exact p50/p95/p99 over
//! the per-call latency samples, and the top-20 f32-vs-i8 rank overlap the
//! parity gate enforces. Without `--smoke`/`--quick` the binary **exits
//! nonzero** unless at least one paper profile shows quant-full throughput
//! ≥ 1.5× f32-full with a p99 that is no worse, so harness runs cannot
//! silently record a regression.

use std::time::Instant;

use kucnet::{KucNet, ScoreService, SelectorKind};
use kucnet_bench::{git_commit, kucnet_config, write_results, HarnessOpts};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_eval::top_n_indices;
use kucnet_graph::UserId;

/// Ranked-prefix size for the f32-vs-i8 overlap column.
const TOP_N: usize = 20;

/// Exact percentile (µs) from an unsorted latency sample.
fn percentile_us(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Throughput + latency percentiles of one scoring path.
struct PathStats {
    rps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

/// Times `score(user_index)` over `rounds` passes of the user sample.
fn time_path(n_users: usize, rounds: usize, mut score: impl FnMut(usize)) -> PathStats {
    // One untimed pass warms the matrix pool and the branch predictors.
    for u in 0..n_users {
        score(u);
    }
    let mut samples = Vec::with_capacity(n_users * rounds);
    let started = Instant::now();
    for _ in 0..rounds {
        for u in 0..n_users {
            let call = Instant::now();
            score(u);
            samples.push(u64::try_from(call.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
    }
    let total = started.elapsed().as_secs_f64().max(1e-9);
    PathStats {
        rps: samples.len() as f64 / total,
        p50_us: percentile_us(&mut samples, 0.50),
        p95_us: percentile_us(&mut samples, 0.95),
        p99_us: percentile_us(&mut samples, 0.99),
    }
}

/// |top-N(a) ∩ top-N(b)| / N.
fn overlap_at_n(a: &[f32], b: &[f32], n: usize) -> f64 {
    let ta = top_n_indices(a, n);
    let tb = top_n_indices(b, n);
    let hits = ta.iter().filter(|i| tb.contains(i)).count();
    hits as f64 / ta.len().max(1) as f64
}

struct ProfileReport {
    name: &'static str,
    users: usize,
    overlap_mean: f64,
    overlap_worst: f64,
    f32_full: PathStats,
    quant_full: PathStats,
    speedup: f64,
}

fn bench_profile(
    name: &'static str,
    profile: &DatasetProfile,
    opts: &HarnessOpts,
    epochs: usize,
    sample_users: usize,
    rounds: usize,
) -> ProfileReport {
    let data = GeneratedDataset::generate(profile, opts.seed);
    let ckg = data.build_ckg(&data.interactions);
    let mut config = kucnet_config(opts, SelectorKind::PprTopK, true);
    config.epochs = epochs;
    let mut model = KucNet::new(config, ckg);
    if epochs > 0 {
        eprintln!("[bench_quant] {name}: training {epochs} epochs...");
        model.fit();
    }
    assert!(model.prepare_quantized(), "{name}: quantizing master weights failed");

    let stash = kucnet_tensor::PoolStash::new();
    let mut pool = stash.checkout();
    let users = model.n_users().min(sample_users);
    // The user sample's subgraphs, built up front (cache-fill work,
    // excluded from the scoring timings).
    let graphs: Vec<_> = (0..users).map(|u| model.build_user_graph(UserId(u as u32))).collect();

    let (mut total, mut worst) = (0.0f64, 1.0f64);
    for graph in &graphs {
        let exact = model.score_graph_pooled(&mut pool, graph, false);
        let quant = model.score_graph_pooled(&mut pool, graph, true);
        let overlap = overlap_at_n(&exact, &quant, TOP_N);
        total += overlap;
        worst = worst.min(overlap);
    }
    let overlap_mean = total / graphs.len().max(1) as f64;

    let mut time = |quantized: bool| {
        time_path(users, rounds, |u| {
            let _ = model.score_graph_pooled(&mut pool, &graphs[u], quantized);
        })
    };
    let f32_full = time(false);
    let quant_full = time(true);
    let speedup = quant_full.rps / f32_full.rps.max(1e-9);

    ProfileReport { name, users, overlap_mean, overlap_worst: worst, f32_full, quant_full, speedup }
}

fn main() {
    let opts = HarnessOpts::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = std::env::args().any(|a| a == "--quick");
    let (epochs, sample_users, rounds) = if smoke {
        (0, 12, 2)
    } else if quick {
        (0, 32, 4)
    } else {
        (2, 64, 8)
    };

    let profiles: [(&str, DatasetProfile); 4] = [
        ("lastfm-small", DatasetProfile::lastfm_small()),
        ("amazon-book-small", DatasetProfile::amazon_book_small()),
        ("ifashion-small", DatasetProfile::ifashion_small()),
        ("disgenet-small", DatasetProfile::disgenet_small()),
    ];
    eprintln!("[bench_quant] smoke={smoke} quick={quick} users/profile={sample_users}");

    let reports: Vec<ProfileReport> = profiles
        .iter()
        .map(|(name, p)| bench_profile(name, p, &opts, epochs, sample_users, rounds))
        .collect();

    println!("\n== Quantized serving benchmark (f32 vs i8) ==");
    for r in &reports {
        println!(
            "{:<18} overlap@{TOP_N} {:.4} (worst {:.4})   f32_full {:>7.0}/s p99={}us   \
             quant_full {:>7.0}/s p99={}us   {:.2}x",
            r.name,
            r.overlap_mean,
            r.overlap_worst,
            r.f32_full.rps,
            r.f32_full.p99_us,
            r.quant_full.rps,
            r.quant_full.p99_us,
            r.speedup
        );
    }
    let best = reports
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .expect("at least one profile");
    let gate_ok =
        reports.iter().any(|r| r.speedup >= 1.5 && r.quant_full.p99_us <= r.f32_full.p99_us);
    println!(
        "best quantized speedup: {:.2}x on {} (acceptance gate {})",
        best.speedup,
        best.name,
        if gate_ok { "met" } else { "NOT met" }
    );

    let path = |s: &PathStats| {
        format!(
            "{{\"rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
            s.rps, s.p50_us, s.p95_us, s.p99_us
        )
    };
    let mut profile_json = String::new();
    for (k, r) in reports.iter().enumerate() {
        profile_json.push_str(&format!(
            concat!(
                "    {{\"profile\": \"{}\", \"users\": {}, \"epochs\": {}, ",
                "\"overlap_mean\": {:.4}, \"overlap_worst\": {:.4},\n",
                "     \"f32_full\": {}, \"quant_full\": {}, ",
                "\"speedup\": {:.3}}}{}\n"
            ),
            r.name,
            r.users,
            epochs,
            r.overlap_mean,
            r.overlap_worst,
            path(&r.f32_full),
            path(&r.quant_full),
            r.speedup,
            if k + 1 < reports.len() { "," } else { "" },
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"smoke\": {},\n",
            "  \"seed\": {},\n",
            "  \"threads\": 1,\n",
            "  \"git_commit\": \"{}\",\n",
            "  \"top_n\": {},\n",
            "  \"profiles\": [\n",
            "{}",
            "  ],\n",
            "  \"best_speedup\": {:.3},\n",
            "  \"gate_speedup_ok\": {}\n",
            "}}\n"
        ),
        smoke,
        opts.seed,
        git_commit(),
        TOP_N,
        profile_json,
        best.speedup,
        gate_ok,
    );
    write_results("BENCH_quant.json", &json);

    if !smoke && !quick && !gate_ok {
        eprintln!(
            "[bench_quant] FAILED: no profile reached 1.5x quantized speedup \
             with p99 no worse than f32"
        );
        std::process::exit(1);
    }
}
