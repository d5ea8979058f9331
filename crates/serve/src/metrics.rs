//! Request-level serving metrics: counters and a fixed-bucket latency
//! histogram.
//!
//! The histogram trades exactness for constant memory and lock-free
//! recording: latencies land in one of a fixed set of buckets
//! (microsecond upper bounds, roughly logarithmic from 50µs to 10s), and a
//! percentile is reported as the upper bound of the bucket containing it —
//! an upper estimate that is monotone and stable under load. Every counter
//! uses saturating arithmetic; a long-lived server must never wrap.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::batch::BatcherStats;
use crate::cache::{saturating_inc, CacheStats};

/// Bucket upper bounds in microseconds (last bucket catches everything).
/// The tail extends to 10 minutes: under scale-profile load, queueing can
/// push tail latencies far past the old 10s top bound, and a histogram that
/// clamps there reports a silently saturated p99.
const BUCKET_BOUNDS_US: [u64; 20] = [
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    30_000_000,
    60_000_000,
    120_000_000,
    600_000_000,
];

/// A fixed-bucket latency histogram with saturating counters.
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKET_BOUNDS_US.len()],
    /// Observations past the last bucket bound. They still count toward
    /// the last bucket (quantiles stay monotone upper estimates), but the
    /// saturation is visible here instead of silent.
    overflow: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { counts: std::array::from_fn(|_| AtomicU64::new(0)), overflow: AtomicU64::new(0) }
    }

    /// Records one observation of `micros`. Observations past the last
    /// bucket bound are clamped into the last bucket *and* counted in
    /// [`LatencyHistogram::overflow_count`], so top-bound saturation is
    /// observable rather than silent.
    pub fn record(&self, micros: u64) {
        match BUCKET_BOUNDS_US.iter().position(|&bound| micros <= bound) {
            Some(idx) => saturating_inc(&self.counts[idx]),
            None => {
                saturating_inc(&self.overflow);
                saturating_inc(&self.counts[BUCKET_BOUNDS_US.len() - 1]);
            }
        }
    }

    /// Number of observations that exceeded the last bucket bound.
    pub fn overflow_count(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0u64, |acc, c| acc.saturating_add(c.load(Ordering::Relaxed)))
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound in microseconds of
    /// the bucket containing it; 0 when nothing was recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // ceil(q * total) observations must be at or below the answer.
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c.load(Ordering::Relaxed));
            if seen >= target {
                return BUCKET_BOUNDS_US[idx];
            }
        }
        BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]
    }
}

/// Counters for the HTTP serving frontend.
#[derive(Default)]
pub struct ServeMetrics {
    requests_total: AtomicU64,
    errors_total: AtomicU64,
    shed_total: AtomicU64,
    updates_total: AtomicU64,
    latency: LatencyHistogram,
}

/// A point-in-time snapshot of [`ServeMetrics`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsSnapshot {
    /// All `/recommend` requests received (including rejected ones).
    pub requests_total: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors_total: u64,
    /// Requests shed by admission control (connection cap or queue depth)
    /// with a 503.
    pub shed_total: u64,
    /// Accepted `POST /update` write operations (appends and refresh
    /// ticks).
    pub updates_total: u64,
    /// Median end-to-end latency (µs, bucket upper bound).
    pub p50_us: u64,
    /// 95th-percentile latency (µs, bucket upper bound).
    pub p95_us: u64,
    /// 99th-percentile latency (µs, bucket upper bound).
    pub p99_us: u64,
    /// Latency observations past the last histogram bound — nonzero means
    /// the reported percentiles are saturated at the top bucket.
    pub latency_overflow_total: u64,
}

impl ServeMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one incoming `/recommend` request.
    pub fn record_request(&self) {
        saturating_inc(&self.requests_total);
    }

    /// Counts one error response.
    pub fn record_error(&self) {
        saturating_inc(&self.errors_total);
    }

    /// Counts one request shed by admission control (also an error).
    pub fn record_shed(&self) {
        saturating_inc(&self.shed_total);
    }

    /// Counts one accepted `POST /update` write operation.
    pub fn record_update(&self) {
        saturating_inc(&self.updates_total);
    }

    /// Records the end-to-end latency of a successfully answered request.
    pub fn record_latency_us(&self, micros: u64) {
        self.latency.record(micros);
    }

    /// Snapshot of counters and latency percentiles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            errors_total: self.errors_total.load(Ordering::Relaxed),
            shed_total: self.shed_total.load(Ordering::Relaxed),
            updates_total: self.updates_total.load(Ordering::Relaxed),
            p50_us: self.latency.quantile_us(0.50),
            p95_us: self.latency.quantile_us(0.95),
            p99_us: self.latency.quantile_us(0.99),
            latency_overflow_total: self.latency.overflow_count(),
        }
    }

    /// Renders the `/metrics` endpoint body: one `name value` pair per
    /// line, in the flat text style Prometheus scrapers accept.
    /// `graph_epoch` is the current epoch of the (possibly dynamic) graph;
    /// static deployments report a constant 0.
    pub fn render(&self, cache: &CacheStats, batch: &BatcherStats, graph_epoch: u64) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(768);
        let mut line = |name: &str, value: String| {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        };
        line("kucnet_requests_total", snap.requests_total.to_string());
        line("kucnet_errors_total", snap.errors_total.to_string());
        line("kucnet_shed_total", snap.shed_total.to_string());
        line("kucnet_panics_total", batch.panics_total.to_string());
        line("kucnet_workers_respawned", batch.workers_respawned.to_string());
        line("kucnet_workers_alive", batch.workers_alive.to_string());
        line("kucnet_queue_depth", batch.queue_depth.to_string());
        line("kucnet_batches_total", batch.batches.to_string());
        line("kucnet_jobs_total", batch.jobs.to_string());
        line("kucnet_cache_lookups", cache.lookups.to_string());
        line("kucnet_cache_hits", cache.hits.to_string());
        line("kucnet_cache_misses", cache.misses.to_string());
        line("kucnet_cache_evictions", cache.evictions.to_string());
        line("kucnet_cache_invalidations", cache.invalidations.to_string());
        line("kucnet_cache_patched", cache.patched.to_string());
        line("kucnet_cache_entries", cache.entries.to_string());
        line("kucnet_cache_bytes", cache.approx_bytes.to_string());
        line("kucnet_cache_hit_rate", format!("{:.6}", cache.hit_rate()));
        line("kucnet_graph_epoch", graph_epoch.to_string());
        line("kucnet_updates_total", snap.updates_total.to_string());
        line("kucnet_latency_p50_us", snap.p50_us.to_string());
        line("kucnet_latency_p95_us", snap.p95_us.to_string());
        line("kucnet_latency_p99_us", snap.p99_us.to_string());
        line("kucnet_latency_overflow_total", snap.latency_overflow_total.to_string());
        line("kucnet_stage_queue_p50_us", batch.queue_p50_us.to_string());
        line("kucnet_stage_queue_p95_us", batch.queue_p95_us.to_string());
        line("kucnet_stage_queue_p99_us", batch.queue_p99_us.to_string());
        line("kucnet_stage_fill_p50_us", batch.fill_p50_us.to_string());
        line("kucnet_stage_fill_p95_us", batch.fill_p95_us.to_string());
        line("kucnet_stage_fill_p99_us", batch.fill_p99_us.to_string());
        line("kucnet_stage_warm_p50_us", batch.warm_p50_us.to_string());
        line("kucnet_stage_warm_p95_us", batch.warm_p95_us.to_string());
        line("kucnet_stage_warm_p99_us", batch.warm_p99_us.to_string());
        line("kucnet_stage_rank_p50_us", batch.rank_p50_us.to_string());
        line("kucnet_stage_rank_p95_us", batch.rank_p95_us.to_string());
        line("kucnet_stage_rank_p99_us", batch.rank_p99_us.to_string());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), 0);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let h = LatencyHistogram::new();
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.record(80); // bucket <= 100
        }
        for _ in 0..10 {
            h.record(900_000); // bucket <= 1_000_000
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 100);
        assert_eq!(h.quantile_us(0.90), 100);
        assert_eq!(h.quantile_us(0.95), 1_000_000);
        assert_eq!(h.quantile_us(0.99), 1_000_000);
    }

    #[test]
    fn oversized_latency_lands_in_last_bucket_and_counts_overflow() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile_us(1.0), 600_000_000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.overflow_count(), 1);
        // An in-range observation at the exact top bound does NOT overflow.
        h.record(600_000_000);
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn tail_buckets_resolve_past_ten_seconds() {
        // The old histogram clamped everything over 10s into one bucket,
        // silently saturating p99 under heavy load. The extended tail must
        // distinguish tens-of-seconds latencies without overflowing.
        let h = LatencyHistogram::new();
        h.record(25_000_000);
        assert_eq!(h.quantile_us(1.0), 30_000_000);
        assert_eq!(h.overflow_count(), 0);
    }

    #[test]
    fn render_contains_all_keys() {
        let m = ServeMetrics::new();
        m.record_request();
        m.record_shed();
        m.record_latency_us(750);
        m.record_update();
        let cache = CacheStats {
            lookups: 4,
            hits: 3,
            misses: 1,
            invalidations: 2,
            patched: 1,
            ..CacheStats::default()
        };
        let batch = BatcherStats {
            panics_total: 2,
            workers_respawned: 1,
            workers_alive: 4,
            queue_p50_us: 100,
            fill_p50_us: 5_000,
            warm_p50_us: 200,
            rank_p50_us: 20,
            rank_p95_us: 50,
            ..BatcherStats::default()
        };
        let body = m.render(&cache, &batch, 7);
        for key in [
            "kucnet_requests_total 1",
            "kucnet_shed_total 1",
            "kucnet_panics_total 2",
            "kucnet_workers_respawned 1",
            "kucnet_workers_alive 4",
            "kucnet_cache_lookups 4",
            "kucnet_cache_hits 3",
            "kucnet_cache_invalidations 2",
            "kucnet_cache_patched 1",
            "kucnet_cache_hit_rate 0.75",
            "kucnet_graph_epoch 7",
            "kucnet_updates_total 1",
            "kucnet_latency_p50_us 1000",
            "kucnet_latency_overflow_total 0",
            "kucnet_stage_queue_p50_us 100",
            "kucnet_stage_queue_p99_us 0",
            "kucnet_stage_fill_p50_us 5000",
            "kucnet_stage_warm_p50_us 200",
            "kucnet_stage_warm_p99_us 0",
            "kucnet_stage_rank_p50_us 20",
            "kucnet_stage_rank_p95_us 50",
            "kucnet_stage_rank_p99_us 0",
        ] {
            assert!(body.contains(key), "missing `{key}` in:\n{body}");
        }
    }

    #[test]
    fn counters_saturate() {
        let m = ServeMetrics::new();
        m.requests_total.store(u64::MAX, Ordering::Relaxed);
        m.record_request();
        assert_eq!(m.snapshot().requests_total, u64::MAX);
    }
}
