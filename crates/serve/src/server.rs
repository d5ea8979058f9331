//! The HTTP frontend: a `std::net::TcpListener` accept loop routing
//! requests into the batching scorer.
//!
//! Endpoints:
//!
//! | Route             | Method | Body                                    |
//! |-------------------|--------|-----------------------------------------|
//! | `/recommend`      | POST   | `{"user": <id>, "top_k": <k>}`          |
//! | `/explain`        | POST   | `{"user": u, "item": i, "threshold_milli": t}` |
//! | `/admin/reload`   | POST   | `{"variant": "<name>", "path": "<ckpt>"}` |
//! | `/admin/ab`       | POST   | `{"<variant>": <weight>, ...}`          |
//! | `/healthz`        | GET    | —                                       |
//! | `/metrics`        | GET    | —                                       |
//!
//! `/recommend` answers `{"user":u,"top_k":k,"variant":"v","model_version":
//! n,"items":[{"item":i,"score":s},...]}` ranked by descending score —
//! every response names the A/B variant and model generation that scored
//! it. `/explain` returns the attention-path explanation (Graphviz DOT +
//! text) for one `(user, item)` pair on the live model. `/admin/reload`
//! hot-swaps a variant's model from a checkpoint with zero downtime, and
//! `/admin/ab` replaces the routing weights (all-or-nothing: an unknown
//! variant name changes nothing). Invalid input (bad JSON,
//! unknown fields, out-of-range `top_k`) is a 400 and an out-of-range user
//! id a 404 — never a panic. Shutdown is graceful: the listener stops
//! accepting, in-flight connections finish, and the batcher drains before
//! threads are joined.
//!
//! Two admission-control gates protect the handler pool: connections past
//! `max_connections` are answered `503` inline on the accept thread (no
//! handler thread is spawned), and every accepted socket gets symmetric
//! read *and* write timeouts (`io_timeout`) so a client that stalls in
//! either direction is cut loose instead of pinning a thread.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kucnet_graph::UserId;
use parking_lot::Mutex;

use crate::batch::{Batcher, BatcherStats, ScoredReply};
use crate::cache::{CacheStats, SubgraphCache};
use crate::http::{
    http_request, json_escape, parse_flat_str_json, parse_flat_u64_json, write_response,
};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::registry::{ModelLoader, ModelRegistry};
use crate::update::GraphUpdater;
use crate::{ScoreService, ServeConfig, ServeError};

/// Default `top_k` when a request omits the field.
const DEFAULT_TOP_K: u64 = 10;

/// Default `/explain` attention threshold in thousandths (0.5, the paper's
/// Figure 7 cutoff).
const DEFAULT_THRESHOLD_MILLI: u64 = 500;

/// Shared state every connection handler sees.
struct Shared {
    registry: Arc<ModelRegistry>,
    cache: Arc<SubgraphCache>,
    batcher: Batcher,
    metrics: ServeMetrics,
    config: ServeConfig,
    /// Checkpoint loader backing `POST /admin/reload`; `None` answers the
    /// route with 400 (in-process reloads through
    /// [`ServerHandle::registry`] still work).
    loader: Option<Arc<dyn ModelLoader>>,
    /// The graph write path, present only for dynamic deployments
    /// ([`Server::start_dynamic`]); `None` answers `POST /update` with 400.
    updater: Option<Arc<dyn GraphUpdater>>,
}

/// The serving frontend; [`Server::start`] returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), starts
    /// the batcher, worker pool, and accept loop, and returns a handle for
    /// inspection and shutdown.
    pub fn start(
        service: Arc<dyn ScoreService>,
        config: ServeConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ServerHandle> {
        let registry = Arc::new(ModelRegistry::single(service, config.ab_seed));
        Self::start_full(registry, None, None, config, addr)
    }

    /// [`Server::start`] with a graph write path: `POST /update` routes
    /// appends and refresh ticks into `updater`, `/metrics` reports its
    /// committed epoch, and a refresh eagerly invalidates the cached
    /// subgraphs of users whose PPR top-K changed. `updater` must be backed
    /// by the same graph state as `service` (in practice both are one
    /// `kucnet_dynamic::DynamicService`).
    pub fn start_dynamic(
        service: Arc<dyn ScoreService>,
        updater: Arc<dyn GraphUpdater>,
        config: ServeConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ServerHandle> {
        let registry = Arc::new(ModelRegistry::single(service, config.ab_seed));
        Self::start_full(registry, None, Some(updater), config, addr)
    }

    /// The fully explicit constructor: a pre-built (possibly multi-variant)
    /// [`ModelRegistry`], an optional checkpoint `loader` backing
    /// `POST /admin/reload`, and an optional graph `updater` backing
    /// `POST /update`. `registry` must have at least one variant.
    pub fn start_full(
        registry: Arc<ModelRegistry>,
        loader: Option<Arc<dyn ModelLoader>>,
        updater: Option<Arc<dyn GraphUpdater>>,
        config: ServeConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ServerHandle> {
        if registry.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the model registry has no variants registered",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let cache = Arc::new(SubgraphCache::new(config.cache_capacity));
        let batcher = Batcher::start(Arc::clone(&registry), Arc::clone(&cache), &config);
        let shared = Arc::new(Shared {
            registry,
            cache,
            batcher,
            metrics: ServeMetrics::new(),
            config,
            loader,
            updater,
        });

        let running = Arc::new(AtomicBool::new(true));
        let accept_running = Arc::clone(&running);
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            run_accept_loop(&listener, &accept_running, &accept_shared);
        });

        Ok(ServerHandle {
            addr: local_addr,
            running,
            shared,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }
}

/// A running server: address, live metrics, and graceful shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    shared: Arc<Shared>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound socket address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of request counters and latency percentiles.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Snapshot of subgraph-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Snapshot of batching counters.
    pub fn batcher_stats(&self) -> BatcherStats {
        self.shared.batcher.stats()
    }

    /// The live model registry — for in-process hot-swaps
    /// ([`ModelRegistry::reload`]) and weight changes without going through
    /// HTTP.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Stops accepting connections, drains the scoring pipeline, and joins
    /// all threads. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            // Wake the blocking accept() with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(handle) = self.accept_thread.lock().take() {
            let _ = handle.join();
        }
        self.shared.batcher.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections until `running` flips false, handling each on its
/// own thread; finished handler threads are reaped as the loop goes.
///
/// Connections past `max_connections` are shed with a `503` written
/// directly from the accept thread — no handler thread is spawned for
/// them, so a flood of idle clients cannot exhaust threads or memory.
fn run_accept_loop(listener: &TcpListener, running: &Arc<AtomicBool>, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if !running.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let admitted = active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < shared.config.max_connections.max(1)).then(|| n + 1)
            })
            .is_ok();
        if !admitted {
            shared.metrics.record_shed();
            shared.metrics.record_error();
            shed_connection(&mut stream, shared);
            continue;
        }
        let shared = Arc::clone(shared);
        let active = Arc::clone(&active);
        handlers.retain(|h| !h.is_finished());
        handlers.push(std::thread::spawn(move || {
            handle_connection(stream, &shared);
            active.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Answers a shed connection with a 503 and drains it briefly before
/// closing. The drain matters: closing with unread request bytes in the
/// receive buffer turns the close into a TCP RST, which can destroy the
/// 503 in flight before the client reads it. The drain is tightly bounded
/// (small timeout, few KB) so a hostile sender cannot stall the accept
/// thread for long.
fn shed_connection(stream: &mut TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    respond_error(stream, &ServeError::Overloaded);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut sink = [0u8; 1024];
    for _ in 0..8 {
        match std::io::Read::read(stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Serves exactly one request on `stream` and closes it. Read *and* write
/// timeouts are symmetric: a client that stalls reading its response (a
/// half-open or deliberately slow reader) errors out of `write_response`
/// instead of blocking the handler thread forever.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let request = {
        let mut reader = BufReader::new(&mut stream);
        http_request(&mut reader)
    };
    let request = match request {
        Ok(request) => request,
        Err(err) => {
            shared.metrics.record_error();
            respond_error(&mut stream, &err);
            return;
        }
    };

    match (request.method.as_str(), route_of(&request.path)) {
        ("GET", "/healthz") => {
            let _ = write_response(&mut stream, 200, "text/plain", "ok\n");
        }
        ("GET", "/metrics") => {
            let epoch = shared.updater.as_ref().map_or(0, |u| u.epoch());
            let mut body =
                shared.metrics.render(&shared.cache.stats(), &shared.batcher.stats(), epoch);
            body.push_str(&shared.registry.render_metrics());
            let _ = write_response(&mut stream, 200, "text/plain", &body);
        }
        ("POST", "/recommend") => {
            shared.metrics.record_request();
            let started = Instant::now();
            match handle_recommend(&request.body, shared) {
                Ok((user, top_k, reply)) => {
                    // audit: allow(no-lossy-cast) — a latency past u64::MAX µs is unreachable; saturating is the right histogram clamp
                    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    shared.metrics.record_latency_us(micros);
                    shared.registry.record_request(reply.variant);
                    shared.registry.record_latency_us(reply.variant, micros);
                    let body = render_ranking(user, top_k, &reply);
                    let _ = write_response(&mut stream, 200, "application/json", &body);
                }
                Err(err) => {
                    if err == ServeError::Overloaded {
                        shared.metrics.record_shed();
                    }
                    shared.metrics.record_error();
                    respond_error(&mut stream, &err);
                }
            }
        }
        ("POST", "/explain") => match handle_explain(&request.body, shared) {
            Ok(body) => {
                let _ = write_response(&mut stream, 200, "application/json", &body);
            }
            Err(err) => {
                shared.metrics.record_error();
                respond_error(&mut stream, &err);
            }
        },
        ("POST", "/admin/reload") => match handle_reload(&request.body, shared) {
            Ok(body) => {
                let _ = write_response(&mut stream, 200, "application/json", &body);
            }
            Err(err) => {
                shared.metrics.record_error();
                respond_error(&mut stream, &err);
            }
        },
        ("POST", "/admin/ab") => match handle_ab(&request.body, shared) {
            Ok(body) => {
                let _ = write_response(&mut stream, 200, "application/json", &body);
            }
            Err(err) => {
                shared.metrics.record_error();
                respond_error(&mut stream, &err);
            }
        },
        ("POST", "/update") => match handle_update(&request.body, shared) {
            Ok(body) => {
                shared.metrics.record_update();
                let _ = write_response(&mut stream, 200, "application/json", &body);
            }
            Err(err) => {
                shared.metrics.record_error();
                respond_error(&mut stream, &err);
            }
        },
        (
            _,
            "/healthz" | "/metrics" | "/recommend" | "/update" | "/explain" | "/admin/reload"
            | "/admin/ab",
        ) => {
            shared.metrics.record_error();
            let body = "{\"error\":\"method not allowed\"}";
            let _ = write_response(&mut stream, 405, "application/json", body);
        }
        _ => {
            shared.metrics.record_error();
            let body = "{\"error\":\"no such route\"}";
            let _ = write_response(&mut stream, 404, "application/json", body);
        }
    }
}

/// Strips the query string off a request target.
fn route_of(path: &str) -> &str {
    path.split_once('?').map_or(path, |(route, _)| route)
}

/// Validates a `/recommend` body and scores it through the batcher.
fn handle_recommend(body: &[u8], shared: &Shared) -> Result<(u64, usize, ScoredReply), ServeError> {
    let mut user: Option<u64> = None;
    let mut top_k: u64 = DEFAULT_TOP_K;
    for (key, value) in parse_flat_u64_json(body)? {
        match key.as_str() {
            "user" => user = Some(value),
            "top_k" => top_k = value,
            other => {
                return Err(ServeError::BadRequest(format!("unknown field `{other}`")));
            }
        }
    }
    let user = user.ok_or_else(|| ServeError::BadRequest("missing field `user`".to_string()))?;

    if top_k == 0 {
        return Err(ServeError::BadRequest("top_k must be at least 1".to_string()));
    }
    // audit: allow(no-lossy-cast) — widening a config bound for comparison; saturation only loosens the check
    let max_top_k = u64::try_from(shared.config.max_top_k).unwrap_or(u64::MAX);
    if top_k > max_top_k {
        return Err(ServeError::BadRequest(format!("top_k must be at most {max_top_k}")));
    }
    let user_id = validate_user(user, shared)?;

    // audit: allow(no-lossy-cast) — top_k is already bounded by max_top_k; the min() clamp makes saturation harmless
    let k = usize::try_from(top_k).unwrap_or(usize::MAX).min(shared.registry.n_items());
    let reply = shared.batcher.submit(user_id, k)?;
    Ok((user, k, reply))
}

/// Checks `user` against the registry's user space (404 when out of range).
fn validate_user(user: u64, shared: &Shared) -> Result<UserId, ServeError> {
    // audit: allow(no-lossy-cast) — widening the user count for comparison; saturation only loosens the check
    let n_users = u64::try_from(shared.registry.n_users()).unwrap_or(u64::MAX);
    if user >= n_users {
        return Err(ServeError::UnknownUser(user));
    }
    Ok(UserId(u32::try_from(user).map_err(|_| ServeError::UnknownUser(user))?))
}

/// Validates a `POST /explain` body and runs the explanation on the live
/// model the user's A/B assignment routes to.
///
/// Body: `{"user": u, "item": i, "threshold_milli": t}` — `threshold_milli`
/// is the attention cutoff in thousandths (default 500 = the paper's 0.5;
/// at most 1000). Routing and model pinning follow the exact `/recommend`
/// path, so the explanation always comes from the same model generation
/// that would have scored the request.
fn handle_explain(body: &[u8], shared: &Shared) -> Result<String, ServeError> {
    let mut user: Option<u64> = None;
    let mut item: Option<u64> = None;
    let mut threshold_milli: u64 = DEFAULT_THRESHOLD_MILLI;
    for (key, value) in parse_flat_u64_json(body)? {
        match key.as_str() {
            "user" => user = Some(value),
            "item" => item = Some(value),
            "threshold_milli" => threshold_milli = value,
            other => {
                return Err(ServeError::BadRequest(format!("unknown field `{other}`")));
            }
        }
    }
    let user = user.ok_or_else(|| ServeError::BadRequest("missing field `user`".to_string()))?;
    let item = item.ok_or_else(|| ServeError::BadRequest("missing field `item`".to_string()))?;
    if threshold_milli > 1000 {
        return Err(ServeError::BadRequest("threshold_milli must be at most 1000".to_string()));
    }
    // Exact integer → f32 conversion (no lossy cast): milli ≤ 1000 fits u16.
    let milli = u16::try_from(threshold_milli)
        .map_err(|_| ServeError::BadRequest("threshold_milli must be at most 1000".to_string()))?;
    let threshold = f32::from(milli) / 1000.0;
    let user_id = validate_user(user, shared)?;
    // audit: allow(no-lossy-cast) — widening the item count for comparison; saturation only loosens the check
    let n_items = u64::try_from(shared.registry.n_items()).unwrap_or(u64::MAX);
    if item >= n_items {
        return Err(ServeError::BadRequest(format!("item {item} is out of range")));
    }
    let item = u32::try_from(item)
        .map_err(|_| ServeError::BadRequest(format!("item {item} is out of range")))?;

    let pin = shared.registry.pin();
    let model = pin.model_for(user_id);
    let out = model.service().explain_item(user_id, item, threshold).ok_or_else(|| {
        ServeError::BadRequest(format!("variant `{}` does not support explanations", model.name()))
    })?;
    Ok(format!(
        "{{\"user\":{user},\"item\":{item},\"variant\":\"{}\",\"model_version\":{},\
         \"threshold_milli\":{threshold_milli},\"n_edges\":{},\"dot\":\"{}\",\"text\":\"{}\"}}",
        json_escape(model.name()),
        model.version(),
        out.n_edges,
        json_escape(&out.dot),
        json_escape(&out.text)
    ))
}

/// Validates a `POST /admin/reload` body and hot-swaps one variant's model
/// from a checkpoint via the configured [`ModelLoader`].
fn handle_reload(body: &[u8], shared: &Shared) -> Result<String, ServeError> {
    let Some(loader) = shared.loader.as_ref() else {
        return Err(ServeError::BadRequest(
            "this deployment has no checkpoint loader configured".to_string(),
        ));
    };
    let mut variant: Option<String> = None;
    let mut path: Option<String> = None;
    for (key, value) in parse_flat_str_json(body)? {
        match key.as_str() {
            "variant" => variant = Some(value),
            "path" => path = Some(value),
            other => {
                return Err(ServeError::BadRequest(format!("unknown field `{other}`")));
            }
        }
    }
    let variant =
        variant.ok_or_else(|| ServeError::BadRequest("missing field `variant`".to_string()))?;
    let path = path.ok_or_else(|| ServeError::BadRequest("missing field `path`".to_string()))?;
    let service = loader.load(&variant, &path).map_err(ServeError::BadRequest)?;
    let version = shared.registry.reload(&variant, service).map_err(ServeError::BadRequest)?;
    Ok(format!(
        "{{\"op\":\"reload\",\"variant\":\"{}\",\"model_version\":{version}}}",
        json_escape(&variant)
    ))
}

/// Validates a `POST /admin/ab` body (`{"<variant>": <weight>, ...}`) and
/// atomically applies it: every name must be a registered variant, or no
/// weight changes.
fn handle_ab(body: &[u8], shared: &Shared) -> Result<String, ServeError> {
    let pairs = parse_flat_u64_json(body)?;
    if pairs.is_empty() {
        return Err(ServeError::BadRequest(
            "body must map at least one variant name to a weight".to_string(),
        ));
    }
    shared.registry.set_weights(&pairs).map_err(ServeError::BadRequest)?;
    let mut body = String::from("{\"op\":\"ab\",\"weights\":{");
    for (i, (name, weight)) in shared.registry.weights().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"{}\":{weight}", json_escape(name)));
    }
    body.push_str("}}");
    Ok(body)
}

/// Validates a `POST /update` body and applies it through the updater.
///
/// Accepted shapes (flat JSON objects of unsigned integers):
///
/// - `{"user": u, "item": i}` — log an interaction append;
/// - `{"head": h, "rel": r, "tail": t}` — log a KG-triple append
///   (node-id space);
/// - `{"refresh": 1}` — fold all pending appends into a new graph epoch.
fn handle_update(body: &[u8], shared: &Shared) -> Result<String, ServeError> {
    let Some(updater) = shared.updater.as_ref() else {
        return Err(ServeError::BadRequest("this deployment serves a static graph".to_string()));
    };
    let mut user: Option<u64> = None;
    let mut item: Option<u64> = None;
    let mut head: Option<u64> = None;
    let mut rel: Option<u64> = None;
    let mut tail: Option<u64> = None;
    let mut refresh = false;
    for (key, value) in parse_flat_u64_json(body)? {
        match key.as_str() {
            "user" => user = Some(value),
            "item" => item = Some(value),
            "head" => head = Some(value),
            "rel" => rel = Some(value),
            "tail" => tail = Some(value),
            "refresh" => refresh = value != 0,
            other => {
                return Err(ServeError::BadRequest(format!("unknown field `{other}`")));
            }
        }
    }
    match (user, item, head, rel, tail, refresh) {
        (Some(user), Some(item), None, None, None, false) => {
            let ack = updater.append_interaction(user, item)?;
            Ok(format!(
                "{{\"op\":\"append_interaction\",\"epoch\":{},\"pending\":{},\"deduped\":{}}}",
                ack.epoch, ack.pending, ack.deduped
            ))
        }
        (None, None, Some(head), Some(rel), Some(tail), false) => {
            let ack = updater.append_triple(head, rel, tail)?;
            Ok(format!(
                "{{\"op\":\"append_triple\",\"epoch\":{},\"pending\":{},\"deduped\":{}}}",
                ack.epoch, ack.pending, ack.deduped
            ))
        }
        (None, None, None, None, None, true) => {
            let ack = updater.refresh_tick()?;
            // Eagerly drop cached subgraphs of users whose PPR top-K
            // changed; untouched residents stay warm across the epoch.
            let mut invalidated = 0usize;
            for &u in &ack.changed_users {
                if shared.cache.invalidate_user(UserId(u)) {
                    invalidated += 1;
                }
            }
            Ok(format!(
                "{{\"op\":\"refresh\",\"epoch\":{},\"applied\":{},\"recomputed\":{},\
                 \"changed\":{},\"compacted\":{},\"invalidated\":{invalidated}}}",
                ack.epoch,
                ack.applied,
                ack.recomputed,
                ack.changed_users.len(),
                ack.compacted
            ))
        }
        _ => Err(ServeError::BadRequest(
            "body must be {\"user\",\"item\"}, {\"head\",\"rel\",\"tail\"}, or {\"refresh\":1}"
                .to_string(),
        )),
    }
}

/// Renders the `/recommend` success body with model attribution.
pub(crate) fn render_ranking(user: u64, top_k: usize, reply: &ScoredReply) -> String {
    let mut body = format!(
        "{{\"user\":{user},\"top_k\":{top_k},\"variant\":\"{}\",\"model_version\":{},\"items\":[",
        json_escape(&reply.variant_name),
        reply.model_version
    );
    for (i, (item, score)) in reply.ranking.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"item\":{item},\"score\":{score}}}"));
    }
    body.push_str("]}");
    body
}

/// Writes a JSON error body with the status of `err`.
fn respond_error(stream: &mut TcpStream, err: &ServeError) {
    let body = format!("{{\"error\":\"{}\"}}", json_escape(&err.to_string()));
    let _ = write_response(stream, err.status(), "application/json", &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_of_strips_query() {
        assert_eq!(route_of("/metrics?verbose=1"), "/metrics");
        assert_eq!(route_of("/recommend"), "/recommend");
    }

    #[test]
    fn ranking_renders_as_json() {
        let reply = ScoredReply {
            variant: 0,
            variant_name: Arc::from("default"),
            model_version: 4,
            ranking: vec![(7, 1.5), (2, 0.25)],
        };
        let body = render_ranking(3, 2, &reply);
        assert_eq!(
            body,
            "{\"user\":3,\"top_k\":2,\"variant\":\"default\",\"model_version\":4,\
             \"items\":[{\"item\":7,\"score\":1.5},{\"item\":2,\"score\":0.25}]}"
        );
    }
}
