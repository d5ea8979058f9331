//! Chaos suite: a real server under seeded fault injection.
//!
//! [`FaultyService`] wraps a deterministic stub model and injects panics,
//! typed-payload errors, and delays at configured rates. The assertions
//! are availability-shaped, not rate-shaped: every request completes with
//! 200 or 500 before `reply_timeout` (no hung clients), the worker pool
//! heals back to its configured size, admission control sheds with 503
//! instead of queueing without bound, and every counter stays consistent
//! (`hits + misses == lookups`, `panics_total > 0` after injected panics).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kucnet_graph::{LayeredGraph, NodeId, UserId};
use kucnet_serve::client::{get, metric, recommend, Response};
use kucnet_serve::{FaultConfig, FaultyService, ScoreService, ServeConfig, Server, ServerHandle};

/// A fast deterministic model stub: user `u` scores item `i` as
/// `(u * 31 + i * 17) % 97`. No training, so chaos runs stay quick.
struct StubService {
    n_users: usize,
    n_items: usize,
}

impl ScoreService for StubService {
    fn name(&self) -> String {
        "stub".to_string()
    }

    fn n_users(&self) -> usize {
        self.n_users
    }

    fn n_items(&self) -> usize {
        self.n_items
    }

    fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph> {
        Arc::new(LayeredGraph {
            root: NodeId(user.0),
            node_lists: vec![vec![NodeId(user.0)]],
            layers: vec![],
        })
    }

    fn score_graph(&self, graph: &LayeredGraph) -> Vec<f32> {
        let u = graph.root.0 as usize;
        (0..self.n_items).map(|i| ((u * 31 + i * 17) % 97) as f32).collect()
    }
}

/// Starts a server over a fault-injecting wrapper of the stub model.
fn start_chaos_server(faults: FaultConfig, config: ServeConfig) -> ServerHandle {
    let stub: Arc<dyn ScoreService> = Arc::new(StubService { n_users: 256, n_items: 32 });
    let service: Arc<dyn ScoreService> = Arc::new(FaultyService::new(stub, faults));
    Server::start(service, config, "127.0.0.1:0").expect("bind ephemeral port")
}

/// Polls until the worker pool is back at `want` workers with at least one
/// respawn recorded, or fails after `deadline`.
fn wait_for_heal(handle: &ServerHandle, want: u64, deadline: Duration) {
    let end = Instant::now() + deadline;
    loop {
        let stats = handle.batcher_stats();
        if stats.workers_alive == want && stats.workers_respawned >= 1 {
            return;
        }
        assert!(Instant::now() < end, "pool never healed to {want}: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn burst_under_panics_completes_heals_and_counts() {
    // The acceptance scenario: 20% of subgraph builds panic under a
    // 100-request burst. Every request must complete (200 or 500) before
    // reply_timeout, the pool must heal to its configured size, and the
    // fault metrics must show up in /metrics.
    let reply_timeout = Duration::from_secs(10);
    let config = ServeConfig {
        workers: 3,
        max_batch: 8,
        cache_capacity: 8, // smaller than the user spread: builds keep happening
        reply_timeout,
        ..ServeConfig::default()
    };
    let faults = FaultConfig { seed: 7, panic_rate: 0.2, ..FaultConfig::default() };
    let handle = start_chaos_server(faults, config);
    let addr = handle.addr();

    let clients: Vec<_> = (0..100u64)
        .map(|i| {
            std::thread::spawn(move || {
                let started = Instant::now();
                // 100 distinct users, so every request exercises a build.
                let resp = recommend(addr, i % 100, 5).expect("recommend");
                (i, resp, started.elapsed())
            })
        })
        .collect();

    let mut ok = 0u32;
    let mut failed = 0u32;
    for client in clients {
        let (i, resp, elapsed) = client.join().expect("client must not hang");
        assert!(
            elapsed < reply_timeout + Duration::from_secs(5),
            "request {i} took {elapsed:?}: client effectively hung"
        );
        match resp.status {
            200 => ok += 1,
            500 => {
                failed += 1;
                assert!(resp.body.contains("injected panic"), "request {i}: {}", resp.body);
            }
            other => panic!("request {i}: unexpected status {other}: {}", resp.body),
        }
    }
    assert!(ok > 0, "some requests must survive a 20% fault rate");
    assert!(failed > 0, "a 20% fault rate over 100 builds must hit something");

    wait_for_heal(&handle, 3, Duration::from_secs(10));

    // The server still works at full strength after the storm.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        // Post-heal request; retry on an (unlucky) injected panic.
        if recommend(addr, 200, 3).expect("recommend").status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "server never recovered");
    }

    // Fault accounting is visible end-to-end through /metrics.
    let metrics = get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let read = |name| metric(&metrics.body, name).expect(name);
    assert!(read("kucnet_panics_total") > 0.0, "{}", metrics.body);
    assert!(read("kucnet_workers_respawned") > 0.0, "{}", metrics.body);
    assert_eq!(read("kucnet_workers_alive"), 3.0, "{}", metrics.body);
    assert_eq!(read("kucnet_queue_depth"), 0.0, "{}", metrics.body);

    // Cache counters stay balanced even with panicking builds in the mix.
    let cache = handle.cache_stats();
    assert_eq!(
        cache.hits + cache.misses,
        cache.lookups,
        "every lookup is exactly one hit or one miss: {cache:?}"
    );

    handle.shutdown();
}

#[test]
fn one_panicking_user_in_a_mixed_batch_gets_500_rest_get_200() {
    // Targeted fault: user 3's builds always panic. Six users submitted
    // concurrently (coalescing into few batches): user 3 answers 500 with
    // the panic message, every other user answers 200 — all within
    // reply_timeout.
    let reply_timeout = Duration::from_secs(10);
    let config = ServeConfig {
        workers: 1,
        max_batch: 16,
        cache_capacity: 64,
        reply_timeout,
        ..ServeConfig::default()
    };
    let faults = FaultConfig { panic_users: vec![3], ..FaultConfig::default() };
    let handle = start_chaos_server(faults, config);
    let addr = handle.addr();

    let clients: Vec<_> = (0..6u64)
        .map(|u| {
            std::thread::spawn(move || {
                let started = Instant::now();
                let resp = recommend(addr, u, 5).expect("recommend");
                (u, resp, started.elapsed())
            })
        })
        .collect();
    for client in clients {
        let (u, resp, elapsed) = client.join().expect("client must not hang");
        assert!(elapsed < reply_timeout, "user {u} answered too slowly: {elapsed:?}");
        if u == 3 {
            assert_eq!(resp.status, 500, "targeted user must fail: {}", resp.body);
            assert!(resp.body.contains("targeted user 3"), "{}", resp.body);
        } else {
            assert_eq!(resp.status, 200, "user {u} must succeed: {}", resp.body);
        }
    }

    // The single tainted worker is replaced and keeps serving.
    wait_for_heal(&handle, 1, Duration::from_secs(10));
    assert_eq!(recommend(addr, 1, 3).expect("recommend").status, 200, "healed pool must serve");
    handle.shutdown();
}

#[test]
fn queue_overflow_sheds_503_and_counts() {
    // A one-deep queue and slow (delayed) scoring: a concurrent burst must
    // shed most submissions with 503 while at least one goes through, and
    // shed_total must account for every 503.
    let config = ServeConfig {
        workers: 1,
        max_batch: 1,
        max_queue_depth: 1,
        cache_capacity: 1,
        ..ServeConfig::default()
    };
    let faults = FaultConfig {
        delay_rate: 1.0,
        delay: Duration::from_millis(150),
        ..FaultConfig::default()
    };
    let handle = start_chaos_server(faults, config);
    let addr = handle.addr();

    let clients: Vec<_> = (0..6u64)
        .map(|u| std::thread::spawn(move || recommend(addr, u, 3).expect("recommend")))
        .collect();
    let responses: Vec<Response> = clients.into_iter().map(|c| c.join().expect("client")).collect();
    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed = responses.iter().filter(|r| r.status == 503).count();
    assert!(ok >= 1, "at least one request must be admitted");
    assert!(shed >= 1, "a 1-deep queue under a burst of 6 must shed");
    for r in &responses {
        assert!(
            r.status == 200 || r.status == 503,
            "only success or shed allowed, got {}: {}",
            r.status,
            r.body
        );
    }

    let metrics = get(addr, "/metrics").expect("metrics");
    let shed_total = metric(&metrics.body, "kucnet_shed_total").expect("kucnet_shed_total");
    assert!(shed_total >= shed as f64, "{}", metrics.body);
    handle.shutdown();
}

#[test]
fn connection_cap_sheds_503_inline() {
    // With one allowed connection and slow scoring, concurrent clients past
    // the cap get an immediate 503 from the accept thread rather than a
    // handler thread each.
    let config = ServeConfig { workers: 1, max_connections: 1, ..ServeConfig::default() };
    let faults = FaultConfig {
        delay_rate: 1.0,
        delay: Duration::from_millis(300),
        ..FaultConfig::default()
    };
    let handle = start_chaos_server(faults, config);
    let addr = handle.addr();

    let clients: Vec<_> = (0..6u64)
        .map(|u| std::thread::spawn(move || recommend(addr, u, 3).expect("recommend")))
        .collect();
    let responses: Vec<Response> = clients.into_iter().map(|c| c.join().expect("client")).collect();
    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed = responses.iter().filter(|r| r.status == 503).count();
    assert!(ok >= 1, "the admitted connection must succeed");
    assert!(shed >= 1, "connections past the cap must shed 503");
    assert_eq!(ok + shed, responses.len(), "only 200 or 503 expected");

    // After the burst drains, the cap frees up and the server serves again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if recommend(addr, 9, 3).expect("recommend").status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "cap never released");
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
}

#[test]
fn half_open_client_is_cut_loose_and_server_stays_live() {
    // A client that opens a connection, sends half a request, and stalls
    // forever must be disconnected by the io timeout — and must not block
    // other clients meanwhile.
    let config = ServeConfig { io_timeout: Duration::from_millis(200), ..ServeConfig::default() };
    let handle = start_chaos_server(FaultConfig::default(), config);
    let addr = handle.addr();

    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(b"POST /recommend HTTP/1.1\r\nContent-Le").expect("partial write");
    // No more bytes ever arrive on this connection.

    // Healthy clients are unaffected while the stalled one is pending.
    assert_eq!(recommend(addr, 1, 3).expect("recommend").status, 200);

    // The stalled connection is closed by the server within bounded time:
    // reading it must finish (error response or EOF), never hang.
    let started = Instant::now();
    stalled.set_read_timeout(Some(Duration::from_secs(5))).expect("client read timeout");
    let mut sink = String::new();
    let read = stalled.read_to_string(&mut sink);
    assert!(
        read.is_ok(),
        "server must close the half-open connection, got {read:?} after {:?}",
        started.elapsed()
    );
    assert!(started.elapsed() < Duration::from_secs(5), "half-open teardown took too long");

    // And the server is still fully live.
    assert_eq!(recommend(addr, 2, 3).expect("recommend").status, 200);
    assert_eq!(get(addr, "/healthz").expect("healthz").status, 200);
    handle.shutdown();
}
