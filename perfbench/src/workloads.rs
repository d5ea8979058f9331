//! The three workloads. Each prepares its inputs (untimed), sets the
//! system up several times (timed: `setup_s`), drives it in a closed loop
//! over a real socket, and checks the outputs. With `--trace 1` the timed
//! loop is replaced by an untraced and a traced phase that yield the
//! per-layer metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::client;
use crate::report::{Args, Report};
use crate::serving::{
    check_quality, check_rankings, closed_loop, exec_http, more_setups, pinned_sample,
    setup_seconds, timed_setup, warm_pass, Checks, Op, Outcome, Phase, SetupTime, Tally,
    CHECK_USERS, CLIENTS, SETUP_REPS,
};
use crate::stats::{cpu_ms, median, peak_rss_mb, reset_peak_rss, skewed_rank, SplitMix64};
use crate::sut;
use crate::trace::{self_times, write_spans, Span, Tracer};

/// Every `WRITE_EVERY`-th operation of update-mixed is a write. No
/// measurement or source in the repository fixes a read/write ratio for
/// the dynamic service; one write in ten is an assumption: a read-dominated
/// mix in which writes still run several refresh ticks per second.
const WRITE_EVERY: usize = 10;
/// Appends per refresh tick in update-mixed's update stream: one of the
/// append rates the repository's `bench_dynamic` sweeps (1, 4, 16, 64).
/// Which rate a deployment sees is recorded nowhere, so the pick among
/// them is an assumption too.
const REFRESH_EVERY: usize = 16;
/// Requests in serve-cold's warm pass (the cache is not meant to be warm).
const COLD_WARM_REQUESTS: u32 = 64;

/// Operations generated per run: more than a run can use on this host;
/// a faster host wraps around the sequence.
fn n_ops(seconds: u64) -> usize {
    2000 * seconds as usize + 10_000
}

/// Users with training interactions, ascending (rank 0 is the most
/// popular under `skewed_rank`).
fn trained_users(data: &sut::Lastfm) -> Vec<u32> {
    (0..data.train_items.len() as u32)
        .filter(|&u| !data.train_items[u as usize].is_empty())
        .collect()
}

/// A read of a popularity-skewed user, with the skew the dataset profile
/// gives item popularity (as the repository's `bench_scale` does).
fn skewed_read(users: &[u32], rng: &mut SplitMix64, data: &sut::Lastfm) -> Op {
    Op::Read(users[skewed_rank(rng, users.len(), f64::from(data.profile.popularity_exponent))])
}

/// Per-client state of the traced phase.
pub struct TraceState<'a> {
    tracer: Tracer<'a>,
    /// Per-layer edge counts of each graph scored in-process.
    edges: Vec<Vec<usize>>,
    /// `(recomputed users, changed users)` of each in-process tick.
    ticks: Vec<(usize, usize)>,
}

/// Measurements shared by every workload's run.
struct Driven {
    tally: Tally,
    /// Peak RSS at the end of the measured phases.
    peak_rss_mb: f64,
    /// End-to-end mode: the timed phase.
    phase: Option<Phase>,
    /// Traced mode: per-layer metrics from the untraced and traced phases.
    layers: BTreeMap<&'static str, f64>,
    /// Traced mode: spans recorded per span name (the sample count behind
    /// each per-layer median).
    span_counts: BTreeMap<&'static str, usize>,
    /// Traced mode: slices of both phases disturbed by the host.
    disturbed: usize,
}

/// Runs the timed phase (end-to-end mode) or the untraced + traced phases
/// (traced mode) of a serving workload.
fn drive(
    args: &Args,
    handle: &sut::Handle,
    ops: &[Op],
    spans_out: &Path,
    traced: impl Fn(&mut TraceState, &Op) -> Outcome + Sync,
) -> Driven {
    let addr = handle.addr();
    let mut cursor = 0usize;
    let http = |_: &mut (), op: &Op| exec_http(addr, op);
    if !args.trace {
        let run = closed_loop(ops, &mut cursor, args.seconds as f64, || (), http);
        return Driven {
            tally: Tally::of_records(&run.records),
            peak_rss_mb: peak_rss_mb(),
            phase: Some(Phase::of(&run)),
            layers: BTreeMap::new(),
            span_counts: BTreeMap::new(),
            disturbed: 0,
        };
    }

    // Untraced phase: the workload's own loop, for counters and the
    // throughput the tracing overhead is measured against.
    let half = args.seconds as f64 / 2.0;
    let (batch0, cache0, cpu0) = (sut::batcher_stats(handle), sut::cache_stats(handle), cpu_ms());
    let untraced_run = closed_loop(ops, &mut cursor, half, || (), http);
    let (batch1, cache1, cpu1) = (sut::batcher_stats(handle), sut::cache_stats(handle), cpu_ms());
    let untraced = Phase::of(&untraced_run);
    let records_a = untraced_run.records;

    // Traced phase: the next operations of the same sequence.
    let epoch = Instant::now();
    let ids = AtomicU64::new(1);
    let make =
        || TraceState { tracer: Tracer::new(epoch, &ids), edges: Vec::new(), ticks: Vec::new() };
    let traced_run = closed_loop(ops, &mut cursor, half, make, traced);
    let traced_phase = Phase::of(&traced_run);
    let disturbed = untraced.disturbed + traced_phase.disturbed;
    let (records_b, states) = (traced_run.records, traced_run.states);
    let peak_rss_mb = peak_rss_mb();

    let mut spans: Vec<Span> = Vec::new();
    let mut edges: Vec<Vec<usize>> = Vec::new();
    let mut ticks: Vec<(usize, usize)> = Vec::new();
    for s in states {
        spans.extend(s.tracer.spans);
        edges.extend(s.edges);
        ticks.extend(s.ticks);
    }
    if let Err(e) = write_spans(spans_out, &spans) {
        eprintln!("perfbench: could not write spans to {}: {e}", spans_out.display());
    }

    let mut layers = layer_metrics(&spans, &edges);
    let per = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    layers.insert(
        "serve.batch.size",
        per(batch1.jobs - batch0.jobs, batch1.batches - batch0.batches),
    );
    layers.insert(
        "serve.cache.hit_rate",
        per(cache1.hits - cache0.hits, cache1.lookups - cache0.lookups),
    );
    layers.insert("serve.cache.mb", cache1.approx_bytes as f64 / (1u64 << 20) as f64);
    layers.insert("process.cpu_ms_per_op", (cpu1 - cpu0) / records_a.len().max(1) as f64);
    layers.insert("trace.overhead_frac", 1.0 - traced_phase.throughput / untraced.throughput);
    if !ticks.is_empty() {
        let users = sut::n_users(handle) as f64;
        let recomputed: Vec<f64> = ticks.iter().map(|t| t.0 as f64 / users).collect();
        let changed: Vec<f64> = ticks.iter().map(|t| t.1 as f64).collect();
        layers.insert("dynamic.recompute_frac", median(&recomputed));
        layers.insert("dynamic.invalidated", median(&changed));
    }
    let mut span_counts = BTreeMap::new();
    for s in &spans {
        *span_counts.entry(s.name).or_default() += 1;
    }
    let mut tally = Tally::of_records(&records_a);
    tally.merge(Tally::of_records(&records_b));
    Driven { tally, peak_rss_mb, phase: None, layers, span_counts, disturbed }
}

/// Medians of the span-derived per-layer metrics.
///
/// The server's layers run inside its process, where the benchmark cannot
/// place spans; the replay runs the same calls in the client after the
/// request. A traced read therefore yields a model of the served latency
/// `e2e` (the `serve.recommend` span): one `/healthz` round trip `rtt`, the
/// replayed layer self time `layers`, and the rest, which the model assigns
/// to the batcher (`serve.batch.wait_ms`, the median of
/// `e2e - rtt - layers`). `trace.covered_frac` is the share of served
/// latency the measured parts account for, `Σ (rtt + layers) / Σ e2e` over
/// the traced reads. Above 1 the replay took longer than the server's whole
/// request, the model does not hold, and the traced run fails its checks.
fn layer_metrics(spans: &[Span], edges: &[Vec<usize>]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e6);
    }
    let p50 = |name: &str| by_name.get(name).map(|v| median(v));

    let mut out = BTreeMap::new();
    for (metric, span) in [
        ("serve.http.rtt_ms", "serve.http.rtt"),
        ("ppr.sparse_ms", "ppr.sparse"),
        ("graph.layering_ms", "graph.layering"),
        ("core.score_ms", "core.score"),
        ("dynamic.append_ms", "dynamic.append"),
        ("dynamic.tick_ms", "dynamic.tick"),
        ("dynamic.tick.frontier_ms", "dynamic.tick.frontier"),
        ("dynamic.tick.recompute_ms", "dynamic.tick.recompute"),
        ("dynamic.tick.commit_ms", "dynamic.tick.commit"),
    ] {
        if let Some(v) = p50(span) {
            out.insert(metric, v);
        }
    }

    // Per read request: e2e, rtt and layers.
    let mut reqs: BTreeMap<u64, (f64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let ms = s.dur_ns() as f64 / 1e6;
        let entry = reqs.entry(s.req).or_default();
        match s.name {
            "serve.recommend" => entry.0 = ms,
            "serve.http.rtt" => entry.1 = ms,
            "ppr.sparse" | "graph.build" | "graph.layering" | "core.score" => {
                entry.2 += selfs[&s.id] as f64 / 1e6;
            }
            _ => {}
        }
    }
    let reads: Vec<&(f64, f64, f64)> = reqs.values().filter(|r| r.0 > 0.0).collect();
    if !reads.is_empty() {
        let waits: Vec<f64> = reads.iter().map(|r| (r.0 - r.1 - r.2).max(0.0)).collect();
        out.insert("serve.batch.wait_ms", median(&waits));
        let e2e: f64 = reads.iter().map(|r| r.0).sum();
        let covered: f64 = reads.iter().map(|r| r.1 + r.2).sum();
        out.insert("trace.covered_frac", covered / e2e);
    }

    if !edges.is_empty() {
        let col = |f: &dyn Fn(&Vec<usize>) -> usize| {
            median(&edges.iter().map(|e| f(e) as f64).collect::<Vec<_>>())
        };
        let total = col(&|e| e.iter().sum());
        out.insert("graph.edges", total);
        out.insert("graph.edges.l1", col(&|e| e.first().copied().unwrap_or(0)));
        out.insert("graph.edges.l2", col(&|e| e.get(1).copied().unwrap_or(0)));
        out.insert("graph.edges.l3", col(&|e| e.get(2).copied().unwrap_or(0)));
        if let (Some(score_ms), true) = (p50("core.score"), total > 0.0) {
            out.insert("core.score_ns_per_edge", score_ms * 1e6 / total);
        }
    }
    out
}

/// The header and result shared by the workloads.
fn finish(
    report: &mut Report,
    driven: Driven,
    setup_times: &[SetupTime],
    mut tally: Tally,
    mut checks: Checks,
) {
    if let Some(&covered) = driven.layers.get("trace.covered_frac") {
        checks.expect(covered <= 1.0, || {
            format!("trace.covered_frac {covered} > 1: the replay outlasted the served requests")
        });
    }
    tally.merge(driven.tally);
    report.correct = checks.mismatches == 0;
    report.attempted = tally.attempted + checks.attempted;
    report.failed = tally.failed_total() + checks.mismatches;
    report.header("ops_attempted", tally.attempted);
    report.header("ops_succeeded", tally.ok);
    report.header("ops_failed", tally.failed);
    report.header("ops_shed", tally.shed);
    report.header("checks_attempted", checks.attempted);
    report.header("checks_mismatched", checks.mismatches);
    for note in &checks.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let list = |f: &dyn Fn(&SetupTime) -> f64| {
        let v: Vec<String> = setup_times.iter().map(|t| format!("{:.4}", f(t))).collect();
        format!("[{}]", v.join(","))
    };
    report.header_json("setup_times_s", list(&|t| t.secs));
    report.header_json("setup_steal", list(&|t| t.steal));
    report.metric("setup_s", setup_seconds(setup_times));
    report.metric("peak_rss_mb", driven.peak_rss_mb);
    if let Some(phase) = &driven.phase {
        let n = phase.read_latencies.len();
        report.header("slices", phase.slices);
        report.header("slices_disturbed", phase.disturbed);
        report.header("phase_fallback", phase.fallback);
        report.header("steal_share", format!("{:.4}", phase.steal));
        report.header("latency_samples", n);
        report.header("p99_ms", phase.latency_ms(0.99));
        report.header("p99_supported", n >= 1000);
        report.metric("throughput", phase.throughput);
        report.metric("p50_ms", phase.latency_ms(0.50));
        report.header("p90_ms", phase.latency_ms(0.90));
    }
    for (name, value) in driven.layers {
        report.layer(name, value);
    }
    if driven.phase.is_none() {
        report.header("slices_disturbed", driven.disturbed);
    }
    if !driven.span_counts.is_empty() {
        let counts: Vec<String> =
            driven.span_counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        report.header_json("span_samples", format!("{{{}}}", counts.join(",")));
    }
}

// ---------------------------------------------------------------- serve-hot

/// serve-hot: a trained lastfm-small model behind `Server::start`, every
/// user requested once before timing, skewed reads: every lookup hits the
/// subgraph cache.
pub fn serve_hot(args: &Args, work: &Path, report: &mut Report) {
    let data = sut::lastfm();
    let ckpt = work.join("model.kucp");
    let epoch_s = sut::train_to_checkpoint(&data, sut::TRAIN_EPOCHS, &ckpt);
    let users = trained_users(&data);
    let mut rng = SplitMix64::new(args.seed);
    let ops: Vec<Op> =
        (0..n_ops(args.seconds)).map(|_| skewed_read(&users, &mut rng, &data)).collect();

    let mut build = || {
        let model = Arc::new(sut::load_model(&data, &ckpt));
        let handle = sut::start_static(Arc::clone(&model) as Arc<dyn sut::Service>);
        let warm = warm_pass(handle.addr(), &users);
        ((model, handle), warm)
    };
    reset_peak_rss();
    let ((model, handle), mut tally, first_setup) = timed_setup(&mut build);
    let addr = handle.addr();

    // Graphs the server scores from its cache, built once for the replay.
    let graphs: BTreeMap<u32, _> = if args.trace {
        users.iter().map(|&u| (u, sut::build_user_graph(model.as_ref(), u))).collect()
    } else {
        BTreeMap::new()
    };
    let driven = drive(args, &handle, &ops, &work.join("spans.jsonl"), |st, op| {
        let TraceState { tracer, edges, .. } = st;
        match op {
            Op::Read(u) => tracer.request("read", |t| {
                let outcome = traced_read(t, addr, op);
                let graph = &graphs[u];
                t.span("core.score", |_| black_box(sut::score_graph(model.as_ref(), graph)));
                edges.push(sut::layer_edges(graph));
                outcome
            }),
            _ => exec_http(addr, op),
        }
    });

    let mut checks = Checks::default();
    check_rankings(
        &mut checks,
        addr,
        model.as_ref(),
        &pinned_sample(&users, CHECK_USERS, args.seed),
    );
    let (recall, ndcg) = check_quality(&mut checks, addr, &data, model.as_ref());
    report.header("recall_at_20", recall);
    report.header("ndcg_at_20", ndcg);
    if args.trace {
        training_layers(report, &model, &data, &users, &epoch_s);
        report.layer("eval.recall_at_20", recall);
        report.layer("eval.ndcg_at_20", ndcg);
    }
    handle.shutdown();
    drop((model, handle, graphs));
    let setup_times = more_setups(first_setup, &mut tally, &mut build);
    header_common(
        report,
        "lastfm-small traditional split (20% test)",
        data.profile.popularity_exponent,
    );
    finish(report, driven, &setup_times, tally, checks);
}

/// One traced read: the `/healthz` round trip, then the request itself.
fn traced_read(t: &mut Tracer, addr: SocketAddr, op: &Op) -> Outcome {
    let rtt = t.span("serve.http.rtt", |_| Outcome::of(&client::send(addr, "GET", "/healthz", "")));
    let outcome = t.span("serve.recommend", |_| exec_http(addr, op));
    if rtt == Outcome::Ok {
        outcome
    } else {
        Outcome::Failed
    }
}

/// Layers measured while preparing a trained model: the epochs run as
/// input preparation, per-user training extraction, and the PPR precompute
/// of the live model.
fn training_layers(
    report: &mut Report,
    model: &kucnet::KucNet,
    data: &sut::Lastfm,
    users: &[u32],
    epoch_s: &[f64],
) {
    report.layer("train.epoch_s", median(epoch_s));
    let extract: Vec<f64> = users
        .iter()
        .map(|&u| {
            let t = Instant::now();
            black_box(sut::training_graph(model, data, u));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.layer("train.extract_ms", median(&extract));
    report.layer("ppr.cache_build_s", sut::ppr_cache_seconds(model));
}

fn header_common(report: &mut Report, profile: &str, read_skew: f32) {
    let serve = sut::serve_config();
    report.header("profile", profile);
    report.header("read_skew_exponent", read_skew);
    report.header("connections", CLIENTS);
    report.header("serve_workers", serve.workers);
    report.header("serve_batch_threads", serve.batch_threads);
    report.header("serve_cache_capacity", serve.cache_capacity);
    report.header("model_threads", sut::model_config().threads);
    report.header("train_epochs", sut::TRAIN_EPOCHS);
    report.header("setup_reps", SETUP_REPS);
}

// --------------------------------------------------------------- serve-cold

/// serve-cold: the 2^17-user scale profile loaded into one `ShardService`,
/// uniform reads: nearly every lookup misses, so every request runs
/// `sparse_ppr` and `build_layered_graph` on its island.
pub fn serve_cold(args: &Args, work: &Path, report: &mut Report) {
    let profile = sut::scale_profile();
    let dir = work.join("scale");
    sut::write_scale(&profile, &dir);
    let mut rng = SplitMix64::new(args.seed);
    let ops: Vec<Op> =
        (0..n_ops(args.seconds)).map(|_| Op::Read(rng.below(profile.n_users))).collect();
    let warm: Vec<u32> = (0..COLD_WARM_REQUESTS).map(|_| rng.below(profile.n_users)).collect();

    let mut load_times = Vec::new();
    let mut build = || {
        let shard = sut::load_cold(&profile, &dir);
        load_times.push(shard.load_s);
        let handle = sut::start_static(Arc::clone(&shard.service) as Arc<dyn sut::Service>);
        let warm = warm_pass(handle.addr(), &warm);
        ((shard, handle), warm)
    };
    reset_peak_rss();
    let ((shard, handle), mut tally, first_setup) = timed_setup(&mut build);
    let addr = handle.addr();
    let index = if args.trace { sut::segment_index(&shard) } else { Default::default() };

    let driven = drive(args, &handle, &ops, &work.join("spans.jsonl"), |st, op| {
        let TraceState { tracer, edges, .. } = st;
        match op {
            Op::Read(u) => tracer.request("read", |t| {
                let outcome = traced_read(t, addr, op);
                let seg = &shard.segments[index[u]];
                let graph = t.span("graph.build", |t| {
                    let entries = t.span("ppr.sparse", |_| sut::segment_ppr(seg, *u));
                    t.span("graph.layering", |_| {
                        sut::segment_layering(seg, shard.layout, *u, &entries)
                    })
                });
                t.span("core.score", |_| {
                    black_box(sut::score_graph(shard.service.as_ref(), &graph))
                });
                edges.push(sut::layer_edges(&graph));
                outcome
            }),
            _ => exec_http(addr, op),
        }
    });

    let mut checks = Checks::default();
    let sample: Vec<u32> = {
        let mut r = SplitMix64::new(args.seed ^ 0xC01D);
        (0..CHECK_USERS).map(|_| r.below(profile.n_users)).collect()
    };
    check_rankings(&mut checks, addr, shard.service.as_ref(), &sample);
    if args.trace {
        // The in-process replay must build exactly what the service builds.
        for &u in &sample {
            let seg = &shard.segments[index[&u]];
            let replayed = sut::segment_layering(seg, shard.layout, u, &sut::segment_ppr(seg, u));
            let built = sut::build_user_graph(shard.service.as_ref(), u);
            checks.expect(sut::same_graph(&replayed, &built), || {
                format!("user {u}: replayed graph differs from ShardService's")
            });
        }
    }
    handle.shutdown();
    drop((shard, handle, index));
    let setup_times = more_setups(first_setup, &mut tally, &mut build);
    if args.trace {
        report.layer("datasets.load_s", median(&load_times));
    }
    header_common(report, "scale n_users=2^17 (ScaleProfile::full otherwise), 1 shard", 0.0);
    finish(report, driven, &setup_times, tally, checks);
}

// ------------------------------------------------------------- update-mixed

/// update-mixed: the serve-hot model as a `DynamicService` behind
/// `Server::start_dynamic`; skewed reads with every tenth operation a write
/// from a seeded update stream (appends and refresh ticks).
pub fn update_mixed(args: &Args, work: &Path, report: &mut Report) {
    let data = sut::lastfm();
    let ckpt = work.join("model.kucp");
    let epoch_s = sut::train_to_checkpoint(&data, sut::TRAIN_EPOCHS, &ckpt);
    let users = trained_users(&data);
    let mut rng = SplitMix64::new(args.seed);
    let n = n_ops(args.seconds);
    let stream = sut::update_ops(&data.profile, args.seed, n / WRITE_EVERY + 1, REFRESH_EVERY);
    let mut writes = stream.iter().map(|&op| match op {
        kucnet_datasets::UpdateOp::Refresh => Op::Refresh,
        op => Op::Append(sut::update_body(&data.ckg, op)),
    });
    let ops: Vec<Op> = (0..n)
        .map(|i| match (i % WRITE_EVERY == WRITE_EVERY - 1).then(|| writes.next()).flatten() {
            Some(w) => w,
            None => skewed_read(&users, &mut rng, &data),
        })
        .collect();

    let mut build = || {
        let model = Arc::new(sut::load_model(&data, &ckpt));
        let service = sut::dynamic_service(model);
        let handle = sut::start_dynamic(&service);
        let warm = warm_pass(handle.addr(), &users);
        ((service, handle), warm)
    };
    reset_peak_rss();
    let ((service, handle), mut tally, first_setup) = timed_setup(&mut build);
    let addr = handle.addr();

    // Users whose cached subgraph is current, as far as the replay knows.
    let cached: Mutex<BTreeSet<u32>> = Mutex::new(users.iter().copied().collect());
    let driven = drive(args, &handle, &ops, &work.join("spans.jsonl"), |st, op| {
        let TraceState { tracer, edges, ticks } = st;
        match op {
            Op::Read(u) => tracer.request("read", |t| {
                let outcome = traced_read(t, addr, op);
                let hit = !cached.lock().expect("replay cache set").insert(*u);
                let graph = if hit {
                    sut::build_user_graph(service.as_ref(), *u)
                } else {
                    t.span("graph.layering", |_| sut::build_user_graph(service.as_ref(), *u))
                };
                t.span("core.score", |_| black_box(sut::score_graph(service.as_ref(), &graph)));
                edges.push(sut::layer_edges(&graph));
                outcome
            }),
            Op::Append(_) => {
                tracer.request("append", |t| t.span("dynamic.append", |_| exec_http(addr, op)))
            }
            Op::Refresh => tracer.request("tick", |t| {
                t.span("dynamic.tick", |t| {
                    let (phases, end, ack) = sut::refresh_tick_observed(&service);
                    for (i, &(phase, start)) in phases.iter().enumerate() {
                        let stop = phases.get(i + 1).map_or(end, |p| p.1);
                        t.record(sut::phase_name(phase), start, stop);
                    }
                    let mut c = cached.lock().expect("replay cache set");
                    for u in &ack.changed_users {
                        c.remove(u);
                    }
                    ticks.push((ack.recomputed, ack.changed_users.len()));
                });
                Outcome::Ok
            }),
        }
    });

    // Fold in anything still pending, then check against a rebuild.
    let fin = client::send(addr, "POST", "/update", "{\"refresh\":1}");
    tally.add(Outcome::of(&fin));
    let mut checks = Checks::default();
    let rebuilt = sut::rebuilt_service(&service);
    check_rankings(&mut checks, addr, &rebuilt, &pinned_sample(&users, CHECK_USERS, args.seed));
    let (recall, ndcg) = check_quality(&mut checks, addr, &data, service.as_ref());
    report.header("recall_at_20", recall);
    report.header("ndcg_at_20", ndcg);
    report.header("write_every", WRITE_EVERY);
    report.header("refresh_every_appends", REFRESH_EVERY);
    if args.trace {
        training_layers(report, service.model(), &data, &users, &epoch_s);
        report.layer("eval.recall_at_20", recall);
        report.layer("eval.ndcg_at_20", ndcg);
    }
    handle.shutdown();
    drop((service, handle, rebuilt));
    let setup_times = more_setups(first_setup, &mut tally, &mut build);
    header_common(
        report,
        "lastfm-small traditional split (20% test), dynamic graph",
        data.profile.popularity_exponent,
    );
    finish(report, driven, &setup_times, tally, checks);
}
