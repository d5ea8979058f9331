//! Serving benchmark: drives the `kucnet-serve` HTTP frontend with
//! concurrent clients over a skewed user distribution and reports
//! end-to-end latency percentiles, cache effectiveness, and batching
//! behavior. Writes `results/BENCH_serve.json`.
//!
//! The paper's efficiency story (§V-G: one propagation scores all items of
//! a user) is measured offline by `fig6_inference`; this harness measures
//! the *online* half — what a request actually costs once subgraph caching
//! and request batching sit in front of the model.

use std::sync::Arc;
use std::time::Instant;

use kucnet::{KucNet, ScoreService, SelectorKind};
use kucnet_bench::{git_commit, kucnet_config, write_results, HarnessOpts};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_serve::{client, ServeConfig, Server};

fn main() {
    let opts = HarnessOpts::from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_requests, n_clients) = if quick { (60, 4) } else { (400, 8) };

    let profile = DatasetProfile::tiny();
    let data = GeneratedDataset::generate(&profile, opts.seed);
    let ckg = data.build_ckg(&data.interactions);
    let mut model = KucNet::new(kucnet_config(&opts, SelectorKind::PprTopK, true), ckg);
    eprintln!("[bench_serve] training ({} epochs)...", opts.epochs_kucnet);
    model.fit();
    let n_users = model.n_users() as u64;
    let service: Arc<dyn ScoreService> = Arc::new(model);

    let config = ServeConfig::default();
    let threads = config.workers;
    let handle = Server::start(service, config, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();
    eprintln!("[bench_serve] serving on {addr}; {n_clients} clients x {n_requests} requests");

    let started = Instant::now();
    let mut clients = Vec::new();
    for c in 0..n_clients {
        clients.push(std::thread::spawn(move || {
            let mut ok = 0u64;
            for i in 0..n_requests {
                // Skewed access: half the traffic goes to a handful of hot
                // users, the rest round-robins the full user space.
                let r = (c * 7919 + i * 104_729) as u64;
                let user = if i % 2 == 0 { r % 4.min(n_users) } else { r % n_users };
                if client::recommend(addr, user, 10).is_ok_and(|r| r.status == 200) {
                    ok += 1;
                }
            }
            ok
        }));
    }
    let ok: u64 = clients.into_iter().map(|h| h.join().expect("client")).sum();
    let wall_secs = started.elapsed().as_secs_f64();

    let metrics = handle.metrics();
    let cache = handle.cache_stats();
    let batch = handle.batcher_stats();
    handle.shutdown();

    let total = (n_clients * n_requests) as u64;
    let rps = if wall_secs > 0.0 { ok as f64 / wall_secs } else { 0.0 };
    let avg_batch = if batch.batches > 0 { batch.jobs as f64 / batch.batches as f64 } else { 0.0 };

    println!("\n== Serving benchmark ==");
    println!("requests          {ok}/{total} ok in {wall_secs:.2}s ({rps:.0} req/s)");
    println!(
        "latency           p50={}us p95={}us p99={}us",
        metrics.p50_us, metrics.p95_us, metrics.p99_us
    );
    println!(
        "subgraph cache    hit_rate={:.3} (hits={} misses={} evictions={})",
        cache.hit_rate(),
        cache.hits,
        cache.misses,
        cache.evictions
    );
    println!("batching          {} batches, avg size {avg_batch:.2}", batch.batches);

    let json = format!(
        concat!(
            "{{\n",
            "  \"profile\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"threads\": {},\n",
            "  \"git_commit\": \"{}\",\n",
            "  \"requests_total\": {},\n",
            "  \"requests_ok\": {},\n",
            "  \"wall_secs\": {:.3},\n",
            "  \"throughput_rps\": {:.1},\n",
            "  \"p50_us\": {},\n",
            "  \"p95_us\": {},\n",
            "  \"p99_us\": {},\n",
            "  \"cache_hit_rate\": {:.4},\n",
            "  \"cache_evictions\": {},\n",
            "  \"batches\": {},\n",
            "  \"avg_batch_size\": {:.2}\n",
            "}}\n"
        ),
        profile.name,
        opts.seed,
        threads,
        git_commit(),
        total,
        ok,
        wall_secs,
        rps,
        metrics.p50_us,
        metrics.p95_us,
        metrics.p99_us,
        cache.hit_rate(),
        cache.evictions,
        batch.batches,
        avg_batch,
    );
    write_results("BENCH_serve.json", &json);
}
