//! # kucnet-serve
//!
//! Online inference for a trained KUCNet model: the serving path the paper's
//! efficiency claims point at. One L-layer propagation over a user-centric
//! computation graph scores *all* candidate items for a user at once
//! (PAPER.md §IV), which is exactly the shape a low-latency candidate
//! scorer needs. This crate turns any [`ScoreService`] (in practice a
//! trained `kucnet::KucNet`, optionally restored from a `KUCP` checkpoint)
//! into an HTTP service:
//!
//! ```text
//!  HTTP conn ──► parse/validate ──► job queue ──► worker pool
//!                                   (drained ≤ B at a time,   │
//!                                    never held back)         ▼
//!                            subgraph LRU cache ◄──── PPR-pruned layering
//!                                      │                      │
//!                                      └──── tape-free forward┘──► top-k
//! ```
//!
//! Components:
//!
//! - `SubgraphCache` — an LRU-style user-context cache memoizing the
//!   PPR-pruned layered subgraph per user id, with hit/miss counters.
//!   Repeat requests skip pruning entirely and go straight to the forward
//!   pass.
//! - `Batcher` — a `std::sync::mpsc` request queue drained directly by a
//!   work-conserving worker pool: a worker takes one job plus whatever is
//!   already queued, up to `max_batch`, and never waits for more (duplicate
//!   users in a batch are scored once).
//! - [`ServeMetrics`] / [`LatencyHistogram`] — request counters and a
//!   fixed-bucket latency histogram reporting p50/p95/p99, all with
//!   saturating arithmetic.
//! - [`Server`] — a dependency-free HTTP/1.1 frontend on
//!   `std::net::TcpListener` exposing `POST /recommend`, `GET /healthz`,
//!   and `GET /metrics`, with graceful shutdown. It owns the cache and the
//!   batcher; [`ServerHandle`] reports their counters.
//! - [`client`] — the matching blocking HTTP client and response readers.
//!
//! A sharded deployment (DESIGN.md §17) is N ordinary servers, one per
//! `kucnet::ShardService`. The caller sends each request to the server at
//! `kucnet_graph::shard_of(user, N)`, so every server's cache holds only
//! its own shard's users and `/metrics`, `/explain` and `/admin` work per
//! shard unchanged.
//!
//! ## Example
//! ```no_run
//! use std::sync::Arc;
//! use kucnet::{KucNet, KucNetConfig, ScoreService};
//! use kucnet_datasets::{DatasetProfile, GeneratedDataset};
//! use kucnet_serve::{Server, ServeConfig};
//!
//! let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
//! let mut model = KucNet::new(KucNetConfig::default(), data.build_ckg(&data.interactions));
//! model.fit();
//! let service: Arc<dyn ScoreService> = Arc::new(model);
//! let handle = Server::start(service, ServeConfig::default(), "127.0.0.1:0").unwrap();
//! println!("serving on http://{}", handle.addr());
//! # handle.shutdown();
//! ```

#![warn(missing_docs)]

mod batch;
mod cache;
pub mod client;
mod fault;
mod http;
mod metrics;
mod registry;
mod server;
mod update;

pub use batch::BatcherStats;
pub use cache::CacheStats;
pub use fault::{FaultConfig, FaultStats, FaultyService, InjectedFault};
pub use http::{http_request, HttpRequest};
pub use metrics::{LatencyHistogram, MetricsSnapshot, ServeMetrics};
pub use registry::{route_variant, ModelLoader, ModelRegistry, PinnedModel, RegistryPin};
pub use server::{Server, ServerHandle};
pub use update::{AppendAck, GraphUpdater, RefreshAck};

use std::time::Duration;

pub use kucnet::{ExplainOutput, ScoreService};

/// Serving-layer configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum number of user subgraphs retained by the LRU cache.
    pub cache_capacity: usize,
    /// Maximum number of queued requests one worker drains into a batch.
    /// A worker never waits for a batch to fill: it takes one request and
    /// whatever else is already queued, up to this cap.
    pub max_batch: usize,
    /// Number of scoring worker threads.
    pub workers: usize,
    /// Worker threads used *within* one dispatched batch to score its
    /// unique users concurrently on the shared `kucnet-par` pool. `1`
    /// scores users sequentially; results are identical for every value.
    pub batch_threads: usize,
    /// Upper bound accepted for `top_k` in requests (requests above it are
    /// rejected with 400; independently `top_k` may not exceed the item
    /// count).
    pub max_top_k: usize,
    /// How long a frontend connection waits for its scored reply before
    /// giving up with a 500.
    pub reply_timeout: Duration,
    /// Maximum concurrently open client connections; connections beyond
    /// the cap are shed immediately with 503 instead of spawning an
    /// unbounded handler thread per `TcpStream`.
    pub max_connections: usize,
    /// Maximum requests waiting in the batcher queue; submissions beyond
    /// the cap are shed with [`ServeError::Overloaded`] (503) instead of
    /// queueing without bound.
    pub max_queue_depth: usize,
    /// Per-connection socket read **and** write timeout: a client that
    /// stalls sending its request or reading its response is cut loose
    /// instead of pinning a handler thread forever.
    pub io_timeout: Duration,
    /// Seed for deterministic A/B bucketing ([`route_variant`]). Routing is
    /// a pure function of `(ab_seed, user id, weights)`, so deployments
    /// sharing a seed assign users to variants identically across restarts
    /// and replicas.
    pub ab_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 1024,
            max_batch: 16,
            workers: 2,
            batch_threads: 1,
            max_top_k: 1000,
            reply_timeout: Duration::from_secs(30),
            max_connections: 256,
            max_queue_depth: 1024,
            io_timeout: Duration::from_secs(10),
            ab_seed: 0x5EED_AB00,
        }
    }
}

/// Errors surfaced to serving clients; each maps onto one HTTP status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Malformed or invalid request (HTTP 400).
    BadRequest(String),
    /// The requested user id is outside the model's user space (HTTP 404).
    UnknownUser(u64),
    /// The server is shutting down and no longer accepts work (HTTP 503).
    Unavailable,
    /// Admission control shed this request: the connection cap or the
    /// batcher queue depth is exhausted (HTTP 503). Retryable.
    Overloaded,
    /// The scoring pipeline failed or timed out (HTTP 500).
    Internal(String),
}

impl ServeError {
    /// The HTTP status code this error renders as.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::UnknownUser(_) => 404,
            ServeError::Unavailable => 503,
            ServeError::Overloaded => 503,
            ServeError::Internal(_) => 500,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::UnknownUser(u) => write!(f, "unknown user {u}"),
            ServeError::Unavailable => write!(f, "server is shutting down"),
            ServeError::Overloaded => write!(f, "server overloaded; retry later"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
