//! The request queue and its work-conserving scoring worker pool.
//!
//! Requests enter a `std::sync::mpsc` job channel that the scoring workers
//! drain directly. A worker blocks for one job, then takes — without
//! waiting — up to `max_batch − 1` more jobs that are already queued, and
//! scores that batch. Nothing ever holds a job back to wait for company: an
//! idle worker picks up a lone request at once, and batches form only from
//! work that queued up while every worker was busy. Workers group a batch
//! by user id, so a burst of requests for the same user costs a single
//! subgraph build + forward pass, and the whole batch shares one registry
//! pin.
//!
//! KUCNet's forward pass already "batches" across candidate items: one
//! L-layer propagation scores every item for a user (PAPER.md §IV), so a
//! request is one independent per-user pass and waiting to gather requests
//! would fuse no work. Batching here buys only duplicate collapsing and
//! pin amortization under concurrent load.
//!
//! ## Fault containment
//!
//! Because one user-centric propagation answers all of a user's candidates,
//! a single hostile subgraph would otherwise take out every job batched
//! with it. Per-user scoring therefore runs under
//! [`kucnet_par::par_try_map_with`] (per-item `catch_unwind`): a panic in
//! one user's build or forward pass answers *that user's* jobs with
//! [`ServeError::Internal`] while the rest of the batch still succeeds.
//! The worker that caught the panic is treated as tainted — its warm pools
//! may be torn mid-mutation — so it finishes answering its batch, exits,
//! and a supervisor thread respawns a fresh replacement (`panics_total`,
//! `workers_respawned`, `workers_alive` in [`BatcherStats`] track all of
//! it). [`Batcher::submit`] additionally sheds load with
//! [`ServeError::Overloaded`] once `max_queue_depth` jobs are pending, so
//! a stalled pool degrades into fast 503s instead of unbounded queueing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kucnet::GraphContext;
use kucnet_eval::top_n_sparse;
use kucnet_graph::UserId;
use parking_lot::Mutex;

use crate::cache::{saturating_dec, saturating_inc, CacheVersion, SubgraphCache};
use crate::metrics::LatencyHistogram;
use crate::registry::ModelRegistry;
use crate::{ServeConfig, ServeError};

/// A ranked recommendation list: `(item id, score)` in descending score
/// order.
pub(crate) type Ranking = Vec<(u32, f32)>;

/// A scored reply with full model attribution: which A/B variant the user
/// routed to and which model generation produced the ranking. Every
/// response is attributable to exactly one `(variant, model_version)` pair
/// — during a hot-swap, replies from batches pinned before the swap carry
/// the old version and later ones the new, never a mixture.
#[derive(Clone, Debug)]
pub(crate) struct ScoredReply {
    /// Index of the variant that scored this request.
    pub variant: usize,
    /// Name of that variant (shared handle into the registry's pin).
    pub variant_name: Arc<str>,
    /// Globally unique version of the model generation that scored it.
    pub model_version: u64,
    /// The ranked items.
    pub ranking: Ranking,
}

/// One queued scoring request.
struct Job {
    user: UserId,
    top_k: usize,
    /// When the job entered the queue; a worker records the wait until it
    /// drains the job as the queue stage.
    enqueued: Instant,
    reply: mpsc::Sender<Result<ScoredReply, ServeError>>,
}

/// Counters describing batching behavior (exposed for tests and metrics).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatcherStats {
    /// Batches the workers drained from the queue.
    pub batches: u64,
    /// Individual requests across all drained batches.
    pub jobs: u64,
    /// Unique users actually scored (jobs minus duplicates collapsed).
    pub users_scored: u64,
    /// Scoring panics caught and converted into per-job 500s.
    pub panics_total: u64,
    /// Workers respawned after exiting tainted by a caught panic.
    pub workers_respawned: u64,
    /// Scoring workers currently alive (gauge; heals back to the
    /// configured pool size after panics).
    pub workers_alive: u64,
    /// Jobs currently queued or in flight (gauge).
    pub queue_depth: u64,
    /// Submissions shed with [`ServeError::Overloaded`] because the queue
    /// was at `max_queue_depth`.
    pub shed_total: u64,
    /// p50 of the queue stage (enqueue until a worker drains the job), in
    /// microseconds.
    pub queue_p50_us: u64,
    /// p95 of the queue stage, in microseconds.
    pub queue_p95_us: u64,
    /// p99 of the queue stage, in microseconds.
    pub queue_p99_us: u64,
    /// p50 of the cache-fill stage (subgraph build on a miss), in
    /// microseconds.
    pub fill_p50_us: u64,
    /// p95 of the cache-fill stage, in microseconds.
    pub fill_p95_us: u64,
    /// p99 of the cache-fill stage, in microseconds.
    pub fill_p99_us: u64,
    /// p50 of the warm scoring stage (forward pass after the subgraph is
    /// resident), in microseconds.
    pub warm_p50_us: u64,
    /// p95 of the warm scoring stage, in microseconds.
    pub warm_p95_us: u64,
    /// p99 of the warm scoring stage, in microseconds.
    pub warm_p99_us: u64,
    /// p50 of the rank stage (top-k selection over one job's scored
    /// items), in microseconds.
    pub rank_p50_us: u64,
    /// p95 of the rank stage, in microseconds.
    pub rank_p95_us: u64,
    /// p99 of the rank stage, in microseconds.
    pub rank_p99_us: u64,
}

/// Control messages for the supervisor thread.
enum Notice {
    /// A worker exited after catching a panic; spawn a replacement.
    Tainted,
    /// The batcher is shutting down; join workers and exit.
    Shutdown,
}

/// Why a worker's loop ended.
enum WorkerExit {
    /// The job channel closed and drained (orderly shutdown).
    Shutdown,
    /// A caught panic tainted this worker's warm state.
    Tainted,
}

/// Counters, gauges and stage histograms shared by the [`Batcher`] and
/// every worker it spawns.
#[derive(Default)]
struct PoolState {
    batches: AtomicU64,
    jobs: AtomicU64,
    users_scored: AtomicU64,
    panics_total: AtomicU64,
    workers_respawned: AtomicU64,
    workers_alive: AtomicU64,
    queue_depth: AtomicU64,
    shed_total: AtomicU64,
    stage_queue: LatencyHistogram,
    stage_fill: LatencyHistogram,
    stage_warm: LatencyHistogram,
    stage_rank: LatencyHistogram,
    /// Set once shutdown begins; stops the supervisor respawning workers.
    shutting_down: AtomicBool,
}

/// Everything a scoring worker needs; cloneable so the supervisor can mint
/// replacement workers after a panic.
#[derive(Clone)]
struct WorkerCtx {
    job_rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    registry: Arc<ModelRegistry>,
    cache: Arc<SubgraphCache>,
    state: Arc<PoolState>,
    notice_tx: mpsc::Sender<Notice>,
    max_batch: usize,
    batch_threads: usize,
}

impl WorkerCtx {
    /// Spawns one scoring worker; the `workers_alive` gauge is incremented
    /// before the thread starts and decremented when it exits. A worker
    /// that exits tainted notifies the supervisor so it can respawn.
    fn spawn(&self) -> JoinHandle<()> {
        saturating_inc(&self.state.workers_alive);
        let ctx = self.clone();
        std::thread::spawn(move || {
            let exit = run_worker(&ctx);
            saturating_dec(&ctx.state.workers_alive);
            if matches!(exit, WorkerExit::Tainted) {
                let _ = ctx.notice_tx.send(Notice::Tainted);
            }
        })
    }
}

/// The request queue: accepts requests and scores them on a self-healing,
/// work-conserving worker pool over a shared [`SubgraphCache`].
pub(crate) struct Batcher {
    queue: Mutex<Option<mpsc::Sender<Job>>>,
    reply_timeout: Duration,
    max_queue_depth: u64,
    state: Arc<PoolState>,
    notice_tx: Mutex<Option<mpsc::Sender<Notice>>>,
    supervisor_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// Starts `config.workers` scoring workers over the model `registry`
    /// (memoizing pruned subgraphs in `cache`, keyed by `(model version,
    /// graph version)`), and a supervisor that respawns workers which die
    /// catching a scoring panic. Each worker drains up to
    /// `config.max_batch` queued jobs per batch and pins the registry once
    /// per batch, so a hot-swap landing mid-batch never mixes model
    /// generations within a batch.
    pub(crate) fn start(
        registry: Arc<ModelRegistry>,
        cache: Arc<SubgraphCache>,
        config: &ServeConfig,
    ) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (notice_tx, notice_rx) = mpsc::channel::<Notice>();
        let state = Arc::new(PoolState::default());
        let ctx = WorkerCtx {
            job_rx: Arc::new(Mutex::new(job_rx)),
            registry,
            cache,
            state: Arc::clone(&state),
            notice_tx: notice_tx.clone(),
            max_batch: config.max_batch.max(1),
            batch_threads: config.batch_threads.max(1),
        };
        let worker_threads: Vec<JoinHandle<()>> =
            (0..config.workers.max(1)).map(|_| ctx.spawn()).collect();

        let supervisor_thread = std::thread::spawn(move || {
            run_supervisor(&notice_rx, &ctx, worker_threads);
        });

        Self {
            queue: Mutex::new(Some(job_tx)),
            reply_timeout: config.reply_timeout,
            max_queue_depth: config.max_queue_depth.max(1) as u64,
            state,
            notice_tx: Mutex::new(Some(notice_tx)),
            supervisor_thread: Mutex::new(Some(supervisor_thread)),
        }
    }

    /// Submits one request and blocks until its ranking is scored (or the
    /// queue shut down / shed the request / the reply timed out). The reply
    /// names the A/B variant and model version that produced it.
    pub(crate) fn submit(&self, user: UserId, top_k: usize) -> Result<ScoredReply, ServeError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        {
            let queue = self.queue.lock();
            let Some(tx) = queue.as_ref() else {
                return Err(ServeError::Unavailable);
            };
            // Admission control: claim a queue slot atomically, or shed.
            let admitted = self
                .state
                .queue_depth
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                    (depth < self.max_queue_depth).then(|| depth.saturating_add(1))
                })
                .is_ok();
            if !admitted {
                saturating_inc(&self.state.shed_total);
                return Err(ServeError::Overloaded);
            }
            if tx.send(Job { user, top_k, enqueued: Instant::now(), reply: reply_tx }).is_err() {
                saturating_dec(&self.state.queue_depth);
                return Err(ServeError::Unavailable);
            }
        }
        match reply_rx.recv_timeout(self.reply_timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(ServeError::Internal("scoring timed out".to_string()))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Unavailable),
        }
    }

    /// Snapshot of batching, fault, and admission counters.
    pub(crate) fn stats(&self) -> BatcherStats {
        let s = &self.state;
        BatcherStats {
            batches: s.batches.load(Ordering::Relaxed),
            jobs: s.jobs.load(Ordering::Relaxed),
            users_scored: s.users_scored.load(Ordering::Relaxed),
            panics_total: s.panics_total.load(Ordering::Relaxed),
            workers_respawned: s.workers_respawned.load(Ordering::Relaxed),
            workers_alive: s.workers_alive.load(Ordering::Relaxed),
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            shed_total: s.shed_total.load(Ordering::Relaxed),
            queue_p50_us: s.stage_queue.quantile_us(0.50),
            queue_p95_us: s.stage_queue.quantile_us(0.95),
            queue_p99_us: s.stage_queue.quantile_us(0.99),
            fill_p50_us: s.stage_fill.quantile_us(0.50),
            fill_p95_us: s.stage_fill.quantile_us(0.95),
            fill_p99_us: s.stage_fill.quantile_us(0.99),
            warm_p50_us: s.stage_warm.quantile_us(0.50),
            warm_p95_us: s.stage_warm.quantile_us(0.95),
            warm_p99_us: s.stage_warm.quantile_us(0.99),
            rank_p50_us: s.stage_rank.quantile_us(0.50),
            rank_p95_us: s.stage_rank.quantile_us(0.95),
            rank_p99_us: s.stage_rank.quantile_us(0.99),
        }
    }

    /// Stops accepting work, drains queued and in-flight jobs, and joins
    /// every thread (including respawned workers). Idempotent; also runs on
    /// drop.
    pub(crate) fn shutdown(&self) {
        // Respawns stop first, so a worker dying during drain stays dead.
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // Dropping the job sender lets the workers answer every job still
        // queued; each exits once the channel is empty and disconnected.
        self.queue.lock().take();
        // Wake the supervisor; it joins all current workers before exiting.
        if let Some(tx) = self.notice_tx.lock().take() {
            let _ = tx.send(Notice::Shutdown);
        }
        if let Some(handle) = self.supervisor_thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Supervisor loop: respawn workers that exited tainted, join everything on
/// shutdown. Finished handles are reaped as replacements are spawned so the
/// handle list stays bounded by the pool size plus in-flight deaths.
fn run_supervisor(
    notice_rx: &mpsc::Receiver<Notice>,
    ctx: &WorkerCtx,
    mut workers: Vec<JoinHandle<()>>,
) {
    loop {
        match notice_rx.recv() {
            Ok(Notice::Tainted) => {
                let (finished, live): (Vec<_>, Vec<_>) =
                    workers.into_iter().partition(|h| h.is_finished());
                for handle in finished {
                    let _ = handle.join();
                }
                workers = live;
                if ctx.state.shutting_down.load(Ordering::SeqCst) {
                    continue; // draining: the pool is allowed to shrink now
                }
                saturating_inc(&ctx.state.workers_respawned);
                workers.push(ctx.spawn());
            }
            Ok(Notice::Shutdown) | Err(_) => break,
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
}

/// Worker loop: drain a batch, score each unique user once, answer all jobs.
/// A batch is one job taken blocking plus up to `max_batch − 1` more that
/// are already queued; the worker never waits for a batch to fill.
/// Unique users within a batch are scored concurrently on the shared
/// `kucnet-par` pool (`batch_threads` wide) in ascending user order, so
/// replies are independent of both HashMap iteration order and scheduling.
///
/// Scoring runs under per-user `catch_unwind`: a panicking user costs that
/// user's jobs a 500 while the rest of the batch succeeds. Any caught panic
/// taints this worker (its warm pools may hold torn state), so it returns
/// [`WorkerExit::Tainted`] after answering the batch and lets the
/// supervisor replace it.
fn run_worker(ctx: &WorkerCtx) -> WorkerExit {
    // Warm matrix pools shared across all batches this worker processes:
    // after the first few users, scoring stops allocating entirely (each
    // scoped scoring thread checks one pool out per batch).
    let pool_stash = kucnet_tensor::PoolStash::new();
    loop {
        // Holding the lock while waiting parks the other idle workers on
        // the mutex instead of the channel — same wakeup semantics, and the
        // lock is released before any scoring work happens.
        let batch = {
            let rx = ctx.job_rx.lock();
            let Ok(first) = rx.recv() else {
                return WorkerExit::Shutdown;
            };
            let mut batch = vec![first];
            while batch.len() < ctx.max_batch {
                match rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
            batch
        };
        let drained = Instant::now();
        for job in &batch {
            ctx.state.stage_queue.record(micros(drained.saturating_duration_since(job.enqueued)));
        }
        saturating_inc(&ctx.state.batches);
        for _ in 0..batch.len() {
            saturating_inc(&ctx.state.jobs);
        }
        let mut by_user: HashMap<u32, Vec<Job>> = HashMap::new();
        for job in batch {
            by_user.entry(job.user.0).or_default().push(job);
        }
        let mut users: Vec<u32> = by_user.keys().copied().collect();
        users.sort_unstable();
        // Pinning order (DESIGN.md §15): the **model pin comes first**, and
        // everything downstream derives from it. One registry pin per batch
        // freezes the model generation of every variant; each graph context
        // is then taken *from the pinned model's service*, freezing the
        // graph epoch. A hot-swap or refresh tick landing mid-batch can
        // therefore never produce an (old-model, new-epoch) hybrid — both
        // coordinates were fixed together at dispatch.
        let pin = ctx.registry.pin();
        let variants: Vec<usize> = users.iter().map(|&u| pin.route(UserId(u))).collect();
        let bctxs: Vec<Box<dyn GraphContext + '_>> =
            pin.models().iter().map(|m| m.service().graph_context()).collect();
        let scored: Vec<Result<Vec<(u32, f32)>, String>> = kucnet_par::par_try_map_with(
            ctx.batch_threads,
            users.len(),
            || pool_stash.checkout(),
            |pool, i| {
                let user = UserId(users[i]);
                let variant = variants[i];
                let model = &pin.models()[variant];
                let bctx = &bctxs[variant];
                let version = CacheVersion::new(model.version(), bctx.user_version(user));
                let fill_started = Instant::now();
                let (graph, hit) = ctx.cache.get_or_insert(user, version, || bctx.build(user));
                if !hit {
                    ctx.state.stage_fill.record(micros(fill_started.elapsed()));
                }
                // Attribute the cache outcome to the variant only once the
                // build actually resolved (a panicking build propagates
                // before reaching this line).
                ctx.registry.record_cache(variant, hit);
                let warm_started = Instant::now();
                let items = model.service().score_items_pooled(pool, &graph);
                ctx.state.stage_warm.record(micros(warm_started.elapsed()));
                items
            },
        );
        drop(bctxs);
        let mut tainted = false;
        for (i, (user, result)) in users.iter().zip(scored).enumerate() {
            let jobs = by_user.remove(user).unwrap_or_default();
            let model = &pin.models()[variants[i]];
            match result {
                Ok(items) => {
                    saturating_inc(&ctx.state.users_scored);
                    // The zero-filled sparse ranking runs the accumulator of
                    // the offline `top_n_indices`, so served rankings equal
                    // offline ones, ties included, without an n_items buffer.
                    let n_items = model.service().n_items();
                    for job in jobs {
                        let rank_started = Instant::now();
                        let ranking = top_n_sparse(n_items, &items, job.top_k);
                        ctx.state.stage_rank.record(micros(rank_started.elapsed()));
                        saturating_dec(&ctx.state.queue_depth);
                        let _ = job.reply.send(Ok(ScoredReply {
                            variant: variants[i],
                            variant_name: Arc::clone(model.name()),
                            model_version: model.version(),
                            ranking,
                        }));
                    }
                }
                Err(message) => {
                    tainted = true;
                    saturating_inc(&ctx.state.panics_total);
                    for job in jobs {
                        saturating_dec(&ctx.state.queue_depth);
                        let _ = job.reply.send(Err(ServeError::Internal(format!(
                            "scoring panicked: {message}"
                        ))));
                    }
                }
            }
        }
        if tainted {
            return WorkerExit::Tainted;
        }
    }
}

/// A stage duration in whole microseconds for a [`LatencyHistogram`].
fn micros(elapsed: Duration) -> u64 {
    // audit: allow(no-lossy-cast) — a latency past u64::MAX µs is unreachable; saturating is the right histogram clamp
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScoreService;
    use kucnet_graph::{LayeredGraph, NodeId};

    fn single_registry(service: Arc<dyn ScoreService>) -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::single(service, 0))
    }

    /// A deterministic stand-in model: user `u` scores item `i` as
    /// `((u * 31 + i * 17) % 97)`; optionally panics on one user's build,
    /// or blocks one user's build until the gate's sender is dropped.
    struct MockService {
        n_users: usize,
        n_items: usize,
        build_delay: Duration,
        panic_user: Option<u32>,
        gate: Option<(u32, Mutex<mpsc::Receiver<()>>)>,
    }

    impl ScoreService for MockService {
        fn name(&self) -> String {
            "mock".to_string()
        }

        fn n_users(&self) -> usize {
            self.n_users
        }

        fn n_items(&self) -> usize {
            self.n_items
        }

        fn build_user_graph(&self, user: UserId) -> Arc<LayeredGraph> {
            if self.panic_user == Some(user.0) {
                panic!("mock build exploded for user {}", user.0);
            }
            if let Some((gated, gate)) = &self.gate {
                if *gated == user.0 {
                    let _ = gate.lock().recv();
                }
            }
            std::thread::sleep(self.build_delay);
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

    fn test_config(max_batch: usize) -> ServeConfig {
        ServeConfig { max_batch, workers: 2, cache_capacity: 16, ..ServeConfig::default() }
    }

    fn mock_batcher(config: &ServeConfig) -> (Arc<Batcher>, Arc<SubgraphCache>) {
        let service: Arc<dyn ScoreService> = Arc::new(MockService {
            n_users: 8,
            n_items: 20,
            build_delay: Duration::ZERO,
            panic_user: None,
            gate: None,
        });
        let cache = Arc::new(SubgraphCache::new(config.cache_capacity));
        (Arc::new(Batcher::start(single_registry(service), Arc::clone(&cache), config)), cache)
    }

    #[test]
    fn single_request_dispatches_without_a_partner() {
        // max_batch is high and nothing else is queued: the lone job must
        // be scored at once rather than held for company.
        let (batcher, _) = mock_batcher(&test_config(64));
        let ranking = batcher.submit(UserId(2), 3).unwrap().ranking;
        assert_eq!(ranking.len(), 3);
        let stats = batcher.stats();
        assert_eq!((stats.batches, stats.jobs), (1, 1), "{stats:?}");
    }

    #[test]
    fn full_batch_flushes_before_deadline() {
        // Two concurrent submits with max_batch=2 are both answered
        // promptly, whether they share a batch or not.
        let (batcher, _) = mock_batcher(&test_config(2));
        let started = Instant::now();
        let b2 = Arc::clone(&batcher);
        let other = std::thread::spawn(move || b2.submit(UserId(1), 2));
        let ranking = batcher.submit(UserId(2), 2).unwrap().ranking;
        let other_ranking = other.join().expect("submitter thread").unwrap().ranking;
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(4), "batch never dispatched: {elapsed:?}");
        assert_eq!(ranking.len(), 2);
        assert_eq!(other_ranking.len(), 2);
    }

    /// Polls `stats` until `done` holds, failing after five seconds.
    fn wait_for(batcher: &Batcher, done: impl Fn(&BatcherStats) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(&batcher.stats()) {
            assert!(Instant::now() < deadline, "stats never settled: {:?}", batcher.stats());
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn duplicate_users_in_a_batch_are_scored_once() {
        // One worker, blocked on user 0's build, while four requests for
        // user 3 queue up behind it: releasing the gate must drain all four
        // as one batch and score user 3 once.
        let config = ServeConfig { workers: 1, ..test_config(16) };
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let service: Arc<dyn ScoreService> = Arc::new(MockService {
            n_users: 8,
            n_items: 20,
            build_delay: Duration::ZERO,
            panic_user: None,
            gate: Some((0, Mutex::new(gate_rx))),
        });
        let cache = Arc::new(SubgraphCache::new(16));
        let batcher = Arc::new(Batcher::start(single_registry(service), cache, &config));
        let b = Arc::clone(&batcher);
        let blocked = std::thread::spawn(move || b.submit(UserId(0), 5));
        wait_for(&batcher, |s| s.batches == 1);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit(UserId(3), 5))
            })
            .collect();
        wait_for(&batcher, |s| s.queue_depth == 5);
        std::thread::sleep(Duration::from_millis(20));
        drop(gate_tx);

        assert_eq!(blocked.join().expect("submitter").unwrap().ranking.len(), 5);
        let rankings: Vec<Ranking> =
            handles.into_iter().map(|h| h.join().expect("submitter").unwrap().ranking).collect();
        for r in &rankings {
            assert_eq!(r, &rankings[0], "duplicate requests must agree");
        }
        let stats = batcher.stats();
        assert_eq!((stats.jobs, stats.batches, stats.users_scored), (5, 2, 2), "{stats:?}");
        // Four of the five jobs waited out the 20 ms gate in the queue.
        assert!(stats.queue_p50_us >= 20_000, "queue wait not recorded: {stats:?}");
    }

    #[test]
    fn rankings_are_descending_and_match_scores() {
        let (batcher, _) = mock_batcher(&test_config(1));
        let ranking = batcher.submit(UserId(1), 10).unwrap().ranking;
        assert_eq!(ranking.len(), 10);
        for pair in ranking.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "not descending: {ranking:?}");
        }
    }

    #[test]
    fn parallel_batch_scoring_matches_serial() {
        // Same burst of distinct users scored with batch_threads = 1 and 4:
        // every reply must be identical (scoring is a pure per-user map).
        let burst = |batch_threads: usize| -> Vec<Ranking> {
            let config = ServeConfig { batch_threads, ..test_config(8) };
            let (batcher, _) = mock_batcher(&config);
            let handles: Vec<_> = (0..6u32)
                .map(|u| {
                    let b = Arc::clone(&batcher);
                    std::thread::spawn(move || b.submit(UserId(u), 5))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("submitter").unwrap().ranking).collect()
        };
        assert_eq!(burst(1), burst(4));
    }

    #[test]
    fn stage_histograms_split_fill_from_warm_scoring() {
        let (batcher, cache) = mock_batcher(&test_config(1));
        batcher.submit(UserId(4), 2).unwrap(); // cold: fill + warm
        batcher.submit(UserId(4), 2).unwrap(); // warm only
        let stats = batcher.stats();
        assert!(stats.fill_p50_us > 0, "cold request must record a fill: {stats:?}");
        assert!(stats.warm_p50_us > 0, "every request must record warm scoring: {stats:?}");
        assert!(cache.stats().hits >= 1, "second request must skip the fill stage");
    }

    #[test]
    fn submit_after_shutdown_is_unavailable() {
        let (batcher, _) = mock_batcher(&test_config(2));
        batcher.shutdown();
        assert!(matches!(batcher.submit(UserId(0), 1), Err(ServeError::Unavailable)));
    }

    #[test]
    fn repeat_user_hits_cache() {
        let (batcher, cache) = mock_batcher(&test_config(1));
        batcher.submit(UserId(5), 2).unwrap();
        batcher.submit(UserId(5), 2).unwrap();
        let stats = cache.stats();
        assert!(stats.hits >= 1, "second request must hit the cache: {stats:?}");
    }

    #[test]
    fn panicking_user_gets_500_others_succeed_and_pool_heals() {
        // One user's build panics inside a mixed batch: its jobs get
        // Internal, every other job still succeeds, and the supervisor
        // respawns the tainted worker back to full pool size.
        let config = ServeConfig { workers: 2, ..test_config(8) };
        let service: Arc<dyn ScoreService> = Arc::new(MockService {
            n_users: 8,
            n_items: 20,
            build_delay: Duration::ZERO,
            panic_user: Some(3),
            gate: None,
        });
        let cache = Arc::new(SubgraphCache::new(16));
        let batcher = Arc::new(Batcher::start(single_registry(service), cache, &config));

        let handles: Vec<_> = (0..6u32)
            .map(|u| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || (u, b.submit(UserId(u), 5)))
            })
            .collect();
        for handle in handles {
            let (u, result) = handle.join().expect("submitter");
            if u == 3 {
                match result {
                    Err(ServeError::Internal(msg)) => {
                        assert!(msg.contains("mock build exploded"), "payload lost: {msg}");
                    }
                    other => panic!("user 3 must get Internal, got {other:?}"),
                }
            } else {
                assert_eq!(result.expect("healthy user must succeed").ranking.len(), 5, "user {u}");
            }
        }

        // The pool heals back to its configured size.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = batcher.stats();
            if stats.workers_alive == 2 && stats.workers_respawned >= 1 {
                assert!(stats.panics_total >= 1, "{stats:?}");
                break;
            }
            assert!(Instant::now() < deadline, "pool never healed: {stats:?}");
            std::thread::sleep(Duration::from_millis(10));
        }

        // And it still serves after healing.
        assert_eq!(batcher.submit(UserId(1), 3).expect("post-heal request").ranking.len(), 3);
        batcher.shutdown();
    }

    #[test]
    fn queue_overflow_sheds_with_overloaded() {
        // Capacity 1 queue + slow builds: concurrent submits must shed
        // rather than queue without bound.
        let config = ServeConfig { workers: 1, max_queue_depth: 1, ..test_config(1) };
        let service: Arc<dyn ScoreService> = Arc::new(MockService {
            n_users: 8,
            n_items: 20,
            build_delay: Duration::from_millis(100),
            panic_user: None,
            gate: None,
        });
        let cache = Arc::new(SubgraphCache::new(1));
        let batcher = Arc::new(Batcher::start(single_registry(service), cache, &config));
        let handles: Vec<_> = (0..4u32)
            .map(|u| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit(UserId(u), 2))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("submitter")).collect();
        let shed = results.iter().filter(|r| matches!(r, Err(ServeError::Overloaded))).count();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert!(shed >= 1, "at least one submit must shed: {results:?}");
        assert!(ok >= 1, "at least one submit must succeed: {results:?}");
        assert_eq!(batcher.stats().shed_total, shed as u64);
        batcher.shutdown();
        assert_eq!(batcher.stats().workers_alive, 0, "shutdown joins all workers");
    }
}
