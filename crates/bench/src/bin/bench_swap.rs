//! Hot-swap benchmark: latency and availability of a zero-downtime model
//! reload landing mid-burst. Writes `results/BENCH_swap.json`.
//!
//! Generation A (fault-injected, 10% build panics) serves a concurrent
//! request burst; roughly a quarter of the way in, `POST /admin/reload`
//! swaps in generation B from a `KUCP` checkpoint through the registered
//! [`ModelLoader`]. The harness records the observed swap latency (the
//! reload round-trip), how many requests each generation answered across
//! the window, availability (every request must come back 200 or 500 —
//! never dropped), and whether the worker pool healed afterwards.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kucnet::{KucNet, KucNetConfig, ScoreService, SelectorKind};
use kucnet_bench::{git_commit, kucnet_config, write_results, HarnessOpts};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_graph::Ckg;
use kucnet_serve::{
    client, FaultConfig, FaultyService, ModelLoader, ModelRegistry, ServeConfig, Server,
};

/// Builds replacement models from `KUCP` checkpoints.
struct KucpLoader {
    config: KucNetConfig,
    ckg: Ckg,
}

impl ModelLoader for KucpLoader {
    fn load(&self, _variant: &str, path: &str) -> Result<Arc<dyn ScoreService>, String> {
        let mut model = KucNet::new(self.config.clone(), self.ckg.clone());
        model.load_params(path).map_err(|e| format!("checkpoint load failed: {e}"))?;
        Ok(Arc::new(model))
    }
}

fn main() {
    // Injected panics fire by the dozen here; keep their backtraces out of
    // the benchmark output. Genuine panics still print via the old hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info.payload().downcast_ref::<kucnet_serve::InjectedFault>().is_some()
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let opts = HarnessOpts::from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_requests, n_clients) = if quick { (40, 4) } else { (200, 8) };
    let workers = 3usize;

    let profile = DatasetProfile::tiny();
    let data = GeneratedDataset::generate(&profile, opts.seed);
    let ckg = data.build_ckg(&data.interactions);
    let config_a = kucnet_config(&opts, SelectorKind::PprTopK, true);
    let mut gen_a = KucNet::new(config_a.clone(), ckg.clone());
    eprintln!("[bench_swap] training generation A ({} epochs)...", opts.epochs_kucnet);
    gen_a.fit();
    let n_users = gen_a.n_users() as u64;

    // Generation B: same shapes, different initialization seed — written
    // out as a checkpoint so the reload exercises the full loader path.
    let config_b = config_a.clone().with_seed(opts.seed ^ 0x5A4F);
    let gen_b = KucNet::new(config_b.clone(), ckg.clone());
    let ckpt = std::env::temp_dir().join(format!("kucnet_bench_swap_{}.kucp", std::process::id()));
    gen_b.save_params(&ckpt).expect("save checkpoint");

    let faults =
        FaultConfig { seed: opts.seed ^ 0xC4A0_5EED, panic_rate: 0.1, ..FaultConfig::default() };
    let service: Arc<dyn ScoreService> = Arc::new(FaultyService::new(Arc::new(gen_a), faults));
    let serve_config = ServeConfig { workers, cache_capacity: 4, ..ServeConfig::default() };
    let registry = Arc::new(ModelRegistry::single(service, serve_config.ab_seed));
    let loader = Arc::new(KucpLoader { config: config_b, ckg });
    let handle = Server::start_full(registry, Some(loader), None, serve_config, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = handle.addr();
    eprintln!("[bench_swap] {n_clients} clients x {n_requests} requests, swap at ~25%");

    let started = Instant::now();
    let clients: Vec<_> = (0..n_clients)
        .map(|c| {
            std::thread::spawn(move || {
                // (200@old, 200@new, 500, other)
                let mut counts = (0u64, 0u64, 0u64, 0u64);
                for i in 0..n_requests {
                    let user = ((c * 7919 + i * 104_729) as u64) % n_users;
                    let reply = client::recommend(addr, user, 10)
                        .map(|r| (r.status, client::u64_field(&r.body, "model_version")));
                    match reply {
                        Ok((200, Some(1))) => counts.0 += 1,
                        Ok((200, _)) => counts.1 += 1,
                        Ok((500, _)) => counts.2 += 1,
                        _ => counts.3 += 1,
                    }
                }
                counts
            })
        })
        .collect();

    // Land the reload roughly a quarter of the way into the burst and time
    // the round-trip: parse + checkpoint load + registry swap.
    std::thread::sleep(Duration::from_millis(if quick { 20 } else { 60 }));
    let ckpt_json = ckpt.to_str().expect("utf-8 temp path").replace('\\', "\\\\");
    let swap_started = Instant::now();
    let resp = client::post(
        addr,
        "/admin/reload",
        &format!("{{\"variant\": \"default\", \"path\": \"{ckpt_json}\"}}"),
    )
    .expect("reload request");
    let swap_latency_us = swap_started.elapsed().as_micros() as u64;
    assert_eq!(resp.status, 200, "reload failed: {}", resp.body);
    eprintln!("[bench_swap] swap done in {swap_latency_us}us: {}", resp.body);

    let (mut old_ok, mut new_ok, mut failed, mut other) = (0u64, 0u64, 0u64, 0u64);
    for client in clients {
        let (a, b, c, d) = client.join().expect("client");
        old_ok += a;
        new_ok += b;
        failed += c;
        other += d;
    }
    let wall_secs = started.elapsed().as_secs_f64();

    // Pool heal check: generation B is un-faulted, so once the burst
    // drains the supervisor should hold the pool at full strength.
    let deadline = Instant::now() + Duration::from_secs(5);
    let pool_healed = loop {
        let stats = handle.batcher_stats();
        if stats.workers_alive == workers as u64 {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let batch = handle.batcher_stats();
    let swaps_total = handle.registry().swaps_total();
    handle.shutdown();
    let _ = std::fs::remove_file(&ckpt);

    let total = (n_clients * n_requests) as u64;
    let answered_200 = old_ok + new_ok;
    let availability = if total > 0 { answered_200 as f64 / total as f64 } else { 0.0 };
    println!("\n== Hot-swap benchmark (reload mid-burst under faults) ==");
    println!(
        "swap_us={swap_latency_us} old_200={old_ok} new_200={new_ok} 500={failed} \
         other={other} avail={availability:.3} healed={pool_healed}"
    );
    if old_ok == 0 || new_ok == 0 {
        eprintln!(
            "[bench_swap] WARNING: swap window one-sided (old={old_ok}, new={new_ok}); \
             rerun without --quick for a wider window"
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"profile\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"threads\": {},\n",
            "  \"git_commit\": \"{}\",\n",
            "  \"workers\": {},\n",
            "  \"swap_latency_us\": {},\n",
            "  \"swaps_total\": {},\n",
            "  \"served_old_version\": {},\n",
            "  \"served_new_version\": {},\n",
            "  \"answered_200\": {},\n",
            "  \"answered_500\": {},\n",
            "  \"unanswered\": {},\n",
            "  \"availability\": {:.4},\n",
            "  \"panics_total\": {},\n",
            "  \"workers_respawned\": {},\n",
            "  \"pool_healed\": {},\n",
            "  \"wall_secs\": {:.3}\n",
            "}}\n"
        ),
        profile.name,
        opts.seed,
        workers,
        git_commit(),
        workers,
        swap_latency_us,
        swaps_total,
        old_ok,
        new_ok,
        answered_200,
        failed,
        other,
        availability,
        batch.panics_total,
        batch.workers_respawned,
        pool_healed,
        wall_secs,
    );
    write_results("BENCH_swap.json", &json);
}
