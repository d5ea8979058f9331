//! Out-of-core scale benchmark: generates the streaming `scale` dataset
//! shard-by-shard, serves each of its 8 shards from its own HTTP
//! [`Server`], and drives them over loopback with a Zipf-skewed closed-loop
//! burst plus an open-loop target-rps sweep. Each request goes to the
//! server at `shard_of(user, 8)`. Writes `results/BENCH_scale.json` with
//! throughput / latency / memory vs user count.
//!
//! Each user-count scale runs in a **child process** (`--child --users N`)
//! so `VmHWM` (the kernel's peak-RSS high-water mark, which never goes
//! down) isolates per-phase peaks: the child measures it once after
//! generation — proving gen never held more than one island in RAM — and
//! again after the shards are loaded and served.
//!
//! `--smoke` shrinks the profile and request counts for CI.

use std::io::Read as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kucnet::{KucNetConfig, ScoreService, ShardService};
use kucnet_bench::{git_commit, write_results};
use kucnet_datasets::{load_shard_segments, write_scale_dataset, ScaleProfile};
use kucnet_graph::{shard_of, UserId};
use kucnet_serve::{client, ServeConfig, Server, ServerHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N_SHARDS: usize = 8;
const N_CLIENTS: usize = 4;

/// Kernel-reported peak resident set (VmHWM) of this process, in KiB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Total bytes of the generated dataset files on disk.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Zipf-ish popularity draw matching the generator's interaction skew:
/// low user ids are hot, tail users are cold.
fn zipf_user(rng: &mut SmallRng, n_users: u32, exponent: f32) -> UserId {
    let r: f64 = rng.random_range(0.0f64..1.0);
    let picked = (r.powf(1.0 + exponent as f64) * n_users as f64) as u32;
    UserId(picked.min(n_users - 1))
}

/// Sends `user`'s top-20 request to the server of their shard; true on a
/// 200.
fn recommend(addrs: &[SocketAddr], user: UserId) -> bool {
    let addr = addrs[shard_of(user.0, addrs.len())];
    client::recommend(addr, u64::from(user.0), 20).is_ok_and(|r| r.status == 200)
}

/// p50/p95/p99 of a latency sample, in microseconds.
fn percentiles(lat_us: &mut Vec<u64>) -> (u64, u64, u64) {
    if lat_us.is_empty() {
        return (0, 0, 0);
    }
    lat_us.sort_unstable();
    let pick = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q) as usize];
    (pick(0.50), pick(0.95), pick(0.99))
}

struct LoopResult {
    ok: u64,
    total: u64,
    wall_secs: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

/// Closed loop: every client fires its next request the moment the previous
/// reply lands. Measures the shard servers' saturated throughput.
fn closed_loop(addrs: &Arc<[SocketAddr]>, profile: &ScaleProfile, per_client: u64) -> LoopResult {
    let started = Instant::now();
    let mut clients = Vec::new();
    for c in 0..N_CLIENTS {
        let addrs = Arc::clone(addrs);
        let n_users = profile.n_users;
        let expo = profile.popularity_exponent;
        clients.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0xC10_5ED ^ (c as u64) << 32);
            let mut lat = Vec::with_capacity(per_client as usize);
            let mut ok = 0u64;
            for _ in 0..per_client {
                let user = zipf_user(&mut rng, n_users, expo);
                let t = Instant::now();
                if recommend(&addrs, user) {
                    ok += 1;
                }
                lat.push(t.elapsed().as_micros().min(u64::MAX as u128) as u64);
            }
            (ok, lat)
        }));
    }
    let mut ok = 0u64;
    let mut lat = Vec::new();
    for h in clients {
        let (c_ok, c_lat) = h.join().expect("closed-loop client");
        ok += c_ok;
        lat.extend(c_lat);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let (p50_us, p95_us, p99_us) = percentiles(&mut lat);
    LoopResult { ok, total: N_CLIENTS as u64 * per_client, wall_secs, p50_us, p95_us, p99_us }
}

/// Open loop: clients fire on a fixed arrival schedule derived from
/// `target_rps`, regardless of reply progress; latency is measured from the
/// *scheduled* arrival, so queueing delay under overload is charged to the
/// request rather than hidden by client back-pressure.
fn open_loop(
    addrs: &Arc<[SocketAddr]>,
    profile: &ScaleProfile,
    target_rps: u64,
    duration_secs: u64,
) -> LoopResult {
    let total = target_rps * duration_secs;
    let per_client = total / N_CLIENTS as u64;
    let period = Duration::from_secs_f64(N_CLIENTS as f64 / target_rps as f64);
    let started = Instant::now();
    let mut clients = Vec::new();
    for c in 0..N_CLIENTS {
        let addrs = Arc::clone(addrs);
        let n_users = profile.n_users;
        let expo = profile.popularity_exponent;
        clients.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0x0B_E27 ^ (c as u64) << 32);
            let mut lat = Vec::with_capacity(per_client as usize);
            let mut ok = 0u64;
            let base = Instant::now() + period.mul_f64(c as f64 / N_CLIENTS as f64);
            for k in 0..per_client {
                let deadline = base + period.mul_f64(k as f64);
                if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let user = zipf_user(&mut rng, n_users, expo);
                if recommend(&addrs, user) {
                    ok += 1;
                }
                lat.push(deadline.elapsed().as_micros().min(u64::MAX as u128) as u64);
            }
            (ok, lat)
        }));
    }
    let mut ok = 0u64;
    let mut lat = Vec::new();
    for h in clients {
        let (c_ok, c_lat) = h.join().expect("open-loop client");
        ok += c_ok;
        lat.extend(c_lat);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let (p50_us, p95_us, p99_us) = percentiles(&mut lat);
    LoopResult { ok, total: per_client * N_CLIENTS as u64, wall_secs, p50_us, p95_us, p99_us }
}

/// One scale, run in its own process: generate → measure → load → serve.
/// Prints a single JSON object on stdout; all progress goes to stderr.
fn run_child(n_users: u32, smoke: bool, dir: &Path) {
    let mut profile = if smoke { ScaleProfile::smoke() } else { ScaleProfile::full() };
    profile.n_users = n_users;
    profile.validate().expect("profile");

    // Phase 1: streaming generation, never more than one island in RAM.
    let _ = std::fs::remove_dir_all(dir);
    let gen_started = Instant::now();
    let stats = write_scale_dataset(&profile, dir).expect("generate scale dataset");
    let gen_secs = gen_started.elapsed().as_secs_f64();
    let gen_peak_rss_kb = peak_rss_kb();
    let disk_bytes = dir_bytes(dir);
    eprintln!(
        "[bench_scale] users={n_users}: generated {} triples ({} MB on disk) in {gen_secs:.1}s, \
         gen peak rss {} MB",
        stats.total_triples,
        disk_bytes / (1 << 20),
        gen_peak_rss_kb / 1024
    );

    // Phase 2: load the 8 serve shards, island by island.
    let load_started = Instant::now();
    let config = KucNetConfig::default();
    let mut services: Vec<Arc<dyn ScoreService>> = Vec::new();
    let mut max_shard_graph_bytes = 0u64;
    let mut total_graph_bytes = 0u64;
    for s in 0..N_SHARDS {
        let segments = load_shard_segments(dir, &profile, s, N_SHARDS).expect("load shard");
        let service = ShardService::from_segments(
            config.clone(),
            profile.layout(),
            profile.n_base_relations(),
            segments,
            s,
        );
        let bytes = service.approx_graph_bytes() as u64;
        max_shard_graph_bytes = max_shard_graph_bytes.max(bytes);
        total_graph_bytes += bytes;
        services.push(Arc::new(service));
    }
    let load_secs = load_started.elapsed().as_secs_f64();
    let load_peak_rss_kb = peak_rss_kb();
    eprintln!(
        "[bench_scale] users={n_users}: loaded {N_SHARDS} shards in {load_secs:.1}s \
         (max shard {} MB, total {} MB, peak rss {} MB)",
        max_shard_graph_bytes / (1 << 20),
        total_graph_bytes / (1 << 20),
        load_peak_rss_kb / 1024
    );

    // Phase 3: serve, one HTTP server per shard.
    let serve = ServeConfig {
        workers: 1,
        batch_threads: 1,
        cache_capacity: 8192,
        ..ServeConfig::default()
    };
    let servers: Vec<ServerHandle> = services
        .into_iter()
        .map(|service| Server::start(service, serve.clone(), "127.0.0.1:0").expect("start server"))
        .collect();
    let addrs: Arc<[SocketAddr]> = servers.iter().map(ServerHandle::addr).collect();

    let per_client = if smoke { 16 } else { 256 };
    let closed = closed_loop(&addrs, &profile, per_client);
    let closed_rps = if closed.wall_secs > 0.0 { closed.ok as f64 / closed.wall_secs } else { 0.0 };
    eprintln!(
        "[bench_scale] users={n_users}: closed loop {}/{} ok, {closed_rps:.0} rps, \
         p50={}us p95={}us p99={}us",
        closed.ok, closed.total, closed.p50_us, closed.p95_us, closed.p99_us
    );

    let (targets, duration_secs): (&[u64], u64) =
        if smoke { (&[50], 1) } else { (&[20, 50, 100], 10) };
    let mut open_json = Vec::new();
    for &target in targets {
        let r = open_loop(&addrs, &profile, target, duration_secs);
        let achieved = if r.wall_secs > 0.0 { r.ok as f64 / r.wall_secs } else { 0.0 };
        eprintln!(
            "[bench_scale] users={n_users}: open loop target={target}rps answered {}/{} \
             ({achieved:.0} rps achieved), p50={}us p95={}us p99={}us",
            r.ok, r.total, r.p50_us, r.p95_us, r.p99_us
        );
        open_json.push(format!(
            concat!(
                "    {{ \"target_rps\": {}, \"answered\": {}, \"total\": {}, ",
                "\"achieved_rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {} }}"
            ),
            target, r.ok, r.total, achieved, r.p50_us, r.p95_us, r.p99_us
        ));
    }

    let hits: u64 = servers.iter().map(|s| s.cache_stats().hits).sum();
    let lookups: u64 = servers.iter().map(|s| s.cache_stats().lookups).sum();
    let cache_hit_rate = if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 };
    for server in &servers {
        server.shutdown();
    }
    let final_peak_rss_kb = peak_rss_kb();

    println!(
        concat!(
            "{{\n",
            "  \"users\": {},\n",
            "  \"islands\": {},\n",
            "  \"total_triples\": {},\n",
            "  \"total_nodes\": {},\n",
            "  \"dataset_disk_bytes\": {},\n",
            "  \"gen_secs\": {:.2},\n",
            "  \"gen_peak_rss_kb\": {},\n",
            "  \"max_island_bytes\": {},\n",
            "  \"load_secs\": {:.2},\n",
            "  \"max_shard_graph_bytes\": {},\n",
            "  \"total_graph_bytes\": {},\n",
            "  \"load_peak_rss_kb\": {},\n",
            "  \"final_peak_rss_kb\": {},\n",
            "  \"cache_hit_rate\": {:.4},\n",
            "  \"closed_loop\": {{ \"requests\": {}, \"ok\": {}, \"wall_secs\": {:.2}, ",
            "\"rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {} }},\n",
            "  \"open_loop\": [\n{}\n  ]\n",
            "}}"
        ),
        profile.n_users,
        profile.n_islands,
        stats.total_triples,
        stats.total_nodes,
        disk_bytes,
        gen_secs,
        gen_peak_rss_kb,
        stats.max_island_bytes,
        load_secs,
        max_shard_graph_bytes,
        total_graph_bytes,
        load_peak_rss_kb,
        final_peak_rss_kb,
        cache_hit_rate,
        closed.total,
        closed.ok,
        closed.wall_secs,
        closed_rps,
        closed.p50_us,
        closed.p95_us,
        closed.p99_us,
        open_json.join(",\n"),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let child = args.iter().any(|a| a == "--child");
    let users_arg = args
        .iter()
        .position(|a| a == "--users")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u32>().ok());
    let dir_arg = args.iter().position(|a| a == "--dir").and_then(|i| args.get(i + 1));

    if child {
        let n_users = users_arg.expect("--child requires --users N");
        let dir = dir_arg.map(PathBuf::from).expect("--child requires --dir PATH");
        run_child(n_users, smoke, &dir);
        return;
    }

    let scales: &[u32] = if smoke { &[2048, 8192] } else { &[1 << 17, 1 << 18, 1 << 20] };
    let exe = std::env::current_exe().expect("current exe");
    let root = std::env::temp_dir().join("kucnet_bench_scale");
    let mut scale_json = Vec::new();
    for &n_users in scales {
        let dir = root.join(format!("users_{n_users}"));
        eprintln!("[bench_scale] === scale: {n_users} users ({N_SHARDS} shards) ===");
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--child").arg("--users").arg(n_users.to_string()).arg("--dir").arg(&dir);
        if smoke {
            cmd.arg("--smoke");
        }
        let mut spawned = cmd
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .expect("spawn child scale run");
        let mut json = String::new();
        spawned
            .stdout
            .take()
            .expect("child stdout")
            .read_to_string(&mut json)
            .expect("read child output");
        let status = spawned.wait().expect("child exit");
        assert!(status.success(), "child run for {n_users} users failed: {status}");
        scale_json.push(json.trim_end().to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&root);

    let json = format!(
        concat!(
            "{{\n",
            "  \"mode\": \"{}\",\n",
            "  \"git_commit\": \"{}\",\n",
            "  \"n_shards\": {},\n",
            "  \"n_clients\": {},\n",
            "  \"scales\": [\n{}\n  ]\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        git_commit(),
        N_SHARDS,
        N_CLIENTS,
        scale_json.join(",\n"),
    );
    // Smoke runs go to their own file, under `target/bench-smoke/` (see
    // `write_results`), so CI never clobbers the recorded full-scale
    // (>= 1M user) numbers.
    write_results(if smoke { "BENCH_scale_smoke.json" } else { "BENCH_scale.json" }, &json);
    println!("\n== Scale benchmark done: {} user counts ==", scales.len());
}
