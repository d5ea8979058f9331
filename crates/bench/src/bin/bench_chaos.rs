//! Chaos benchmark: availability and latency of the serving path under
//! seeded fault injection. Writes `results/BENCH_chaos.json`.
//!
//! A `FaultyService` wraps the trained model and panics on a configurable
//! fraction of subgraph builds. For each fault rate the harness fires a
//! concurrent request burst and records: availability (the fraction of
//! requests answered 200), how many were answered at all (200 or 500 —
//! anything else counts as a hang or a dropped connection), tail latency,
//! and the self-healing counters (panics caught, workers respawned,
//! whether the pool returned to full size).

use std::sync::Arc;
use std::time::{Duration, Instant};

use kucnet::{KucNet, ScoreService, SelectorKind};
use kucnet_bench::{kucnet_config, write_results, HarnessOpts};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_serve::{client, FaultConfig, FaultyService, ServeConfig, Server};

/// Fault rates swept by the benchmark (fraction of builds that panic).
const FAULT_RATES: [f64; 3] = [0.0, 0.1, 0.3];

/// One fault-rate sweep point.
struct SweepPoint {
    fault_rate: f64,
    answered_200: u64,
    answered_500: u64,
    unanswered: u64,
    availability: f64,
    p95_us: u64,
    panics_total: u64,
    workers_respawned: u64,
    pool_healed: bool,
    wall_secs: f64,
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
    let mut model = KucNet::new(kucnet_config(&opts, SelectorKind::PprTopK, true), ckg);
    eprintln!("[bench_chaos] training ({} epochs)...", opts.epochs_kucnet);
    model.fit();
    let n_users = model.n_users() as u64;
    let model: Arc<dyn ScoreService> = Arc::new(model);

    let mut points = Vec::new();
    for &fault_rate in &FAULT_RATES {
        let faults = FaultConfig {
            seed: opts.seed ^ 0xC4A0_5EED,
            panic_rate: fault_rate,
            ..FaultConfig::default()
        };
        let service: Arc<dyn ScoreService> =
            Arc::new(FaultyService::new(Arc::clone(&model), faults));
        // A small cache keeps builds (the faulted call) on the hot path
        // even when the burst revisits users.
        let config = ServeConfig { workers, cache_capacity: 4, ..ServeConfig::default() };
        let handle = Server::start(service, config, "127.0.0.1:0").expect("bind ephemeral port");
        let addr = handle.addr();
        eprintln!(
            "[bench_chaos] fault_rate={fault_rate}: {n_clients} clients x {n_requests} requests"
        );

        let started = Instant::now();
        let clients: Vec<_> = (0..n_clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut counts = (0u64, 0u64, 0u64); // (200, 500, other)
                    for i in 0..n_requests {
                        let user = ((c * 7919 + i * 104_729) as u64) % n_users;
                        match client::recommend(addr, user, 10).map(|r| r.status) {
                            Ok(200) => counts.0 += 1,
                            Ok(500) => counts.1 += 1,
                            _ => counts.2 += 1,
                        }
                    }
                    counts
                })
            })
            .collect();
        let (mut ok, mut failed, mut other) = (0u64, 0u64, 0u64);
        for client in clients {
            let (a, b, c) = client.join().expect("client");
            ok += a;
            failed += b;
            other += c;
        }
        let wall_secs = started.elapsed().as_secs_f64();

        // Give the supervisor a moment to finish healing, then check the
        // pool is back at full strength.
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

        let metrics = handle.metrics();
        let batch = handle.batcher_stats();
        handle.shutdown();

        let total = (n_clients * n_requests) as u64;
        let availability = if total > 0 { ok as f64 / total as f64 } else { 0.0 };
        eprintln!(
            "[bench_chaos]   200={ok} 500={failed} other={other} \
             availability={availability:.3} panics={} respawned={} healed={pool_healed}",
            batch.panics_total, batch.workers_respawned
        );
        points.push(SweepPoint {
            fault_rate,
            answered_200: ok,
            answered_500: failed,
            unanswered: other,
            availability,
            p95_us: metrics.p95_us,
            panics_total: batch.panics_total,
            workers_respawned: batch.workers_respawned,
            pool_healed,
            wall_secs,
        });
    }

    println!("\n== Chaos benchmark (availability under injected faults) ==");
    println!("rate    200     500   other   avail   p95_us  panics  respawn healed");
    for p in &points {
        println!(
            "{:<7} {:<7} {:<5} {:<7} {:<7.3} {:<7} {:<7} {:<7} {}",
            p.fault_rate,
            p.answered_200,
            p.answered_500,
            p.unanswered,
            p.availability,
            p.p95_us,
            p.panics_total,
            p.workers_respawned,
            p.pool_healed
        );
    }

    let mut json = format!(
        "{{\n  \"profile\": \"{}\",\n  \"seed\": {},\n  \"threads\": {workers},\n  \"sweep\": [\n",
        profile.name, opts.seed
    );
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"fault_rate\": {}, \"answered_200\": {}, \"answered_500\": {}, ",
                "\"unanswered\": {}, \"availability\": {:.4}, \"p95_us\": {}, ",
                "\"panics_total\": {}, \"workers_respawned\": {}, \"pool_healed\": {}, ",
                "\"wall_secs\": {:.3}}}{}\n"
            ),
            p.fault_rate,
            p.answered_200,
            p.answered_500,
            p.unanswered,
            p.availability,
            p.p95_us,
            p.panics_total,
            p.workers_respawned,
            p.pool_healed,
            p.wall_secs,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    write_results("BENCH_chaos.json", &json);
}
