//! Hot-path kernel benchmark: times reference implementations against the
//! kernels that replaced them, checks every pair agrees, and writes
//! `results/BENCH_kernels.json`.
//!
//! Four comparisons and two timing rows:
//!
//! 1. **matmul** — the pre-overhaul naive i/k/j triple loop (including its
//!    `a == 0.0` skip) vs the register-blocked [`Matrix::matmul`], bitwise.
//! 2. **train_epoch** — a full training epoch before and after the pool is
//!    warm, with `global_pool_stats` deltas showing fresh allocations drop
//!    to ~0 per user once every worker tape has seen one batch.
//! 3. **node-level layer** — one propagation layer computed per edge
//!    (`(h_s + h_r) W` over `E` rows, built from the allocating [`Matrix`]
//!    ops) vs the node-level forward the model runs (`h W` over `|V|` rows
//!    and `h_r W` over the relation table, then the fused gather kernels
//!    over a warm [`MatrixPool`]; DESIGN.md §11). The two sum in a different
//!    order, so they agree to a max abs difference of 1e-5, not bitwise.
//!    Timed on a smoke shape and on the paper-profile shape (`d = 32`,
//!    `d_α = 5`, `E ≈ 15·|V|` — the K=15 PPR fan-out).
//! 4. **tanh** — the host libm's `f32::tanh` vs [`kucnet_tensor::tanh`],
//!    the activation every forward pass applies, in ns per element over a
//!    64k slice of values in [-4, 4]. The kernel is within 8 ulp of the
//!    exact value, so the two agree to 1e-6, not bitwise.
//! 5. **ppr** — per-user [`sparse_ppr`] (p50/p90 ms over every user) and
//!    the all-users [`PprCache::compute`] (median of 3, one thread) on
//!    lastfm-small and on one island shaped like the 2^17-user scale
//!    profile's (256 users, 2048 items, 4096 entities). Every user's
//!    `sparse_ppr` entries must equal its cache row bitwise; `entries_fnv`
//!    (FNV-1a over every row's ids and score bits) lets two commits show
//!    they computed the same vectors.
//! 6. **layering** — per-user [`build_user_graph`] (the `PprTopK` layered
//!    graph the serve path builds on a cache miss; p50/p90 µs over five
//!    passes of every user) on the same two graphs, the island's through
//!    its [`kucnet_graph::SegmentView`] with entries lifted to global ids
//!    as a shard does. `graph_fnv` (FNV-1a over every user's node lists,
//!    `src_pos`, `rel` and `dst_pos`) lets two commits show they built the
//!    same graphs.
//!
//! `--smoke` shrinks every size so the whole binary runs in seconds (used
//! by `scripts/check.sh`) and writes under `target/bench-smoke/`, never
//! over the committed results; `--quick` only trims the train-epoch phase.
//! Every run stamps `profile`, `seed`, `threads`, and the git commit into
//! `BENCH_kernels.json` so the recorded deltas stay attributable.

use std::time::Instant;

use kucnet::{build_user_graph, KucNet, KucNetConfig, SelectorKind};
use kucnet_bench::{git_commit, kucnet_config, write_results, HarnessOpts};
use kucnet_datasets::{
    load_island, traditional_split, write_scale_dataset, DatasetProfile, GeneratedDataset,
    ScaleProfile,
};
use kucnet_graph::{Csr, GraphView, NodeId, UserId};
use kucnet_ppr::{sparse_ppr, PprCache, PprConfig, PPR_KEEP};
use kucnet_tensor::{
    add_row_broadcast, fused_gather_add_scale_scatter_into, fused_gather_attn_scores_into,
    gather_rows, global_pool_stats, mul_col_broadcast, scatter_add_rows, stable_sigmoid, tanh,
    Matrix, MatrixPool,
};

/// Largest allowed |per-edge − node-level| over a layer's output.
const NODE_LEVEL_TOL: f32 = 1e-5;

/// Largest allowed |libm − kernel| tanh difference.
const TANH_TOL: f32 = 1e-6;

/// Relation-table rows in the synthetic layer (`2·3 + 1` relation ids).
const N_REL: usize = 7;

/// Deterministic, hash-scrambled non-zero test value in roughly [-1, 1].
fn awkward(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let mut x = (r as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((c as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
        x ^= x >> 31;
        x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x ^= x >> 29;
        // Map 24 scrambled bits to (0, 1], shift to (-0.5, 0.5]. On finite
        // data the old matmul's `a == 0.0` skip is bitwise-inert (skipped
        // contributions are signed zeros that cannot flip a +0.0-seeded
        // accumulator), so the naive reference stays bitwise comparable.
        ((x >> 40) as f32 + 1.0) / 16_777_216.0 - 0.5
    })
}

/// The pre-overhaul matmul, verbatim: naive i/k/j loops with the
/// zero-operand skip. Kept here as the timing + bitwise baseline.
fn naive_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    assert_eq!(lhs.cols(), rhs.rows());
    let (m, k_dim, n) = (lhs.rows(), lhs.cols(), rhs.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for k in 0..k_dim {
            let a = lhs.get(i, k);
            if a == 0.0 {
                continue;
            }
            for j in 0..n {
                let v = out.get(i, j) + a * rhs.get(k, j);
                out.set(i, j, v);
            }
        }
    }
    out
}

/// Wall-clock seconds for `iters` runs of `f`, plus the last return value
/// (kept alive so the work is not optimized away).
fn time<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut last = f();
    let started = Instant::now();
    for _ in 0..iters.saturating_sub(1) {
        last = f();
    }
    (started.elapsed().as_secs_f64().max(1e-9), last)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

struct Pair {
    old_secs: f64,
    new_secs: f64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.old_secs / self.new_secs
    }
}

/// Comparison 1: naive vs tiled matmul on a training-shaped problem
/// (edge-rows x dim times dim x dim).
fn bench_matmul(rows: usize, dim: usize, iters: usize) -> Pair {
    let a = awkward(rows, dim, 1);
    let b = awkward(dim, dim, 2);
    let (old_secs, old_out) = time(iters, || naive_matmul(&a, &b));
    let (new_secs, new_out) = time(iters, || a.matmul(&b));
    assert_eq!(bits(&old_out), bits(&new_out), "tiled matmul diverged from naive");
    Pair { old_secs, new_secs }
}

/// Comparison 3: one attention layer computed per edge (the reference,
/// allocating every intermediate) vs node-level over a warm pool. Returns
/// the timings and the max abs difference of the two outputs.
fn bench_node_level(
    nodes: usize,
    edges: usize,
    dim: usize,
    attn_dim: usize,
    iters: usize,
) -> (Pair, f32) {
    let h = awkward(nodes, dim, 31);
    let rel = awkward(N_REL, dim, 32);
    let w = awkward(dim, dim, 33);
    let w_as = awkward(dim, attn_dim, 34);
    let w_ar = awkward(dim, attn_dim, 35);
    let b_alpha = awkward(1, attn_dim, 36);
    let w_a = awkward(attn_dim, 1, 37);
    // Deterministic index streams with plenty of duplicates (real layered
    // graphs gather the same source node many times).
    let src: Vec<u32> = (0..edges).map(|e| ((e * 131 + 7) % nodes) as u32).collect();
    let ri: Vec<u32> = (0..edges).map(|e| ((e * 17 + 3) % N_REL) as u32).collect();
    let dst: Vec<u32> = (0..edges).map(|e| ((e * 29 + 11) % nodes) as u32).collect();

    let per_edge = || {
        let hs = gather_rows(&h, &src);
        let hr = gather_rows(&rel, &ri);
        let msg = hs.zip_map(&hr, |x, y| x + y).matmul(&w);
        let pre =
            add_row_broadcast(&hs.matmul(&w_as).zip_map(&hr.matmul(&w_ar), |x, y| x + y), &b_alpha);
        let alpha = pre.map(|x| x.max(0.0)).matmul(&w_a).map(stable_sigmoid);
        scatter_add_rows(&mul_col_broadcast(&msg, &alpha), &dst, nodes)
    };
    let (old_secs, old_out) = time(iters, per_edge);

    let mut pool = MatrixPool::new();
    let node_level = |pool: &mut MatrixPool, prev: Option<Matrix>| {
        if let Some(m) = prev {
            pool.release_matrix(m);
        }
        let mut node_msg = pool.matrix_raw(nodes, dim);
        h.matmul_into(&w, &mut node_msg);
        let mut rel_msg = pool.matrix_raw(N_REL, dim);
        rel.matmul_into(&w, &mut rel_msg);
        let mut node_attn = pool.matrix_raw(nodes, attn_dim);
        h.matmul_into(&w_as, &mut node_attn);
        let mut rel_attn = pool.matrix_raw(N_REL, attn_dim);
        rel.matmul_into(&w_ar, &mut rel_attn);
        let mut alpha = pool.matrix_raw(edges, 1);
        fused_gather_attn_scores_into(&node_attn, &src, &rel_attn, &ri, &b_alpha, &w_a, &mut alpha);
        let mut agg = pool.matrix_zeroed(nodes, dim);
        fused_gather_add_scale_scatter_into(
            &node_msg,
            &src,
            &rel_msg,
            &ri,
            Some(&alpha),
            &dst,
            &mut agg,
        );
        for m in [node_msg, rel_msg, node_attn, rel_attn, alpha] {
            pool.release_matrix(m);
        }
        agg
    };
    let (new_secs, new_out) = {
        let mut last = node_level(&mut pool, None);
        let started = Instant::now();
        for _ in 0..iters.saturating_sub(1) {
            last = node_level(&mut pool, Some(last));
        }
        (started.elapsed().as_secs_f64().max(1e-9), last)
    };

    let max_abs_diff =
        new_out.data().iter().zip(old_out.data()).fold(0f32, |m, (a, b)| m.max((a - b).abs()));
    assert!(
        max_abs_diff <= NODE_LEVEL_TOL,
        "node-level layer drifted from per-edge: max abs diff {max_abs_diff} > {NODE_LEVEL_TOL}"
    );
    (Pair { old_secs, new_secs }, max_abs_diff)
}

/// Applies `f` to every element of `x`, writing `out`.
fn map_into(x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = f(v);
    }
}

/// Comparison 4: libm `f32::tanh` vs the workspace kernel over `len`
/// values in [-4, 4]. Returns the timings and the max abs difference.
fn bench_tanh(len: usize, iters: usize) -> (Pair, f32) {
    let x: Vec<f32> = awkward(1, len, 41).data().iter().map(|v| 8.0 * v).collect();
    let mut old_out = vec![0f32; len];
    let mut new_out = vec![0f32; len];
    let (old_secs, ()) =
        time(iters, || map_into(std::hint::black_box(&x), &mut old_out, f32::tanh));
    let (new_secs, ()) = time(iters, || map_into(std::hint::black_box(&x), &mut new_out, tanh));
    let max_abs_diff = new_out.iter().zip(&old_out).fold(0f32, |m, (a, b)| m.max((a - b).abs()));
    assert!(max_abs_diff <= TANH_TOL, "tanh kernel drifted from libm: {max_abs_diff}");
    (Pair { old_secs, new_secs }, max_abs_diff)
}

/// Row 5: PPR timings on one graph.
struct PprRow {
    graph: String,
    nodes: usize,
    edges: usize,
    users: usize,
    sparse_p50_ms: f64,
    sparse_p90_ms: f64,
    cache_secs: f64,
    entries_fnv: u64,
}

/// Times `sparse_ppr` for each of the `users` user nodes (ids `0..users`)
/// of `csr`, then `PprCache::compute` over all of them, and checks both
/// produced the same entries bit for bit.
fn bench_ppr(graph: String, csr: &Csr, users: usize) -> (PprRow, PprCache) {
    let config = PprConfig::default();
    let mut per_user_ms = Vec::with_capacity(users);
    let mut rows = Vec::with_capacity(users);
    for u in 0..users {
        let started = Instant::now();
        let entries = sparse_ppr(csr, NodeId(u as u32), &config, PPR_KEEP);
        per_user_ms.push(started.elapsed().as_secs_f64() * 1e3);
        rows.push(std::hint::black_box(entries));
    }
    per_user_ms.sort_by(f64::total_cmp);
    let pct = |q: f64| per_user_ms[((per_user_ms.len() - 1) as f64 * q).round() as usize];
    let mut cache_secs = Vec::new();
    let mut cache = None;
    for _ in 0..3 {
        let started = Instant::now();
        cache = Some(PprCache::compute(csr, users, &config, PPR_KEEP, 1));
        cache_secs.push(started.elapsed().as_secs_f64());
    }
    cache_secs.sort_by(f64::total_cmp);
    let cache = cache.expect("three timed runs");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (u, row) in rows.iter().enumerate() {
        let cached = cache.entries(UserId(u as u32));
        let key = |e: &[(u32, f32)]| e.iter().map(|&(n, s)| (n, s.to_bits())).collect::<Vec<_>>();
        assert_eq!(key(row), key(cached), "sparse_ppr diverged from the cache for user {u}");
        for (n, bits) in key(row) {
            for b in n.to_le_bytes().into_iter().chain(bits.to_le_bytes()) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let row = PprRow {
        graph,
        nodes: csr.n_nodes(),
        edges: csr.n_edges(),
        users,
        sparse_p50_ms: pct(0.5),
        sparse_p90_ms: pct(0.9),
        cache_secs: cache_secs[1],
        entries_fnv: hash,
    };
    (row, cache)
}

/// Row 6: per-user layering timings on one graph.
struct LayeringRow {
    graph: String,
    users: usize,
    edges: usize,
    p50_us: f64,
    p90_us: f64,
    graph_fnv: u64,
}

/// Times `build_user_graph` for every user of `users` over `view`, five
/// passes, with `entries[i]` as user `i`'s sparse PPR row, and hashes the
/// graphs of the first pass.
fn bench_layering<G: GraphView>(
    graph: String,
    view: &G,
    users: &[UserId],
    entries: &[Vec<(u32, f32)>],
    config: &KucNetConfig,
) -> LayeringRow {
    let mut samples_us = Vec::with_capacity(5 * users.len());
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut edges = 0;
    for pass in 0..5 {
        for (&user, row) in users.iter().zip(entries) {
            let started = Instant::now();
            let built = build_user_graph(view, user, config, row, Vec::new());
            samples_us.push(started.elapsed().as_secs_f64() * 1e6);
            if pass > 0 {
                continue;
            }
            edges += built.total_edges();
            let words = built.node_lists.iter().flat_map(|l| l.iter().map(|n| n.0)).chain(
                built
                    .layers
                    .iter()
                    .flat_map(|l| l.src_pos.iter().chain(&l.rel).chain(&l.dst_pos).copied()),
            );
            for w in words {
                for b in w.to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    samples_us.sort_by(f64::total_cmp);
    let pct = |q: f64| samples_us[((samples_us.len() - 1) as f64 * q).round() as usize];
    LayeringRow {
        graph,
        users: users.len(),
        edges,
        p50_us: pct(0.5),
        p90_us: pct(0.9),
        graph_fnv: hash,
    }
}

/// Rows 5 and 6 over lastfm-small (tiny under `--smoke`) and one
/// scale-profile island (the smoke scale profile's shape under `--smoke`).
fn bench_graph_rows(opts: &HarnessOpts, smoke: bool) -> (Vec<PprRow>, Vec<LayeringRow>) {
    let config = kucnet_config(opts, SelectorKind::PprTopK, true);
    let profile = if smoke { DatasetProfile::tiny() } else { DatasetProfile::lastfm_small() };
    let data = GeneratedDataset::generate(&profile, opts.seed);
    let ckg = data.build_ckg(&traditional_split(&data, 0.2, opts.seed).train);
    let (ppr_row, cache) = bench_ppr(profile.name.to_string(), ckg.csr(), ckg.n_users());
    let users: Vec<UserId> = (0..ckg.n_users() as u32).map(UserId).collect();
    let entries: Vec<Vec<(u32, f32)>> = users.iter().map(|&u| cache.entries(u).to_vec()).collect();
    let mut ppr = vec![ppr_row];
    let mut layering =
        vec![bench_layering(profile.name.to_string(), ckg.csr(), &users, &entries, &config)];

    // One island: the full profile at 2^17 users has 2^17 / 512 = 256
    // users per island, so a one-island profile with 256 users has its
    // shape without generating the other 511.
    let (base, name) = if smoke {
        (ScaleProfile::smoke(), "scale-smoke-island")
    } else {
        (ScaleProfile { n_users: 1 << 17, ..ScaleProfile::full() }, "scale-2^17-island")
    };
    let island = ScaleProfile { n_users: base.n_users / base.n_islands, n_islands: 1, ..base };
    let dir = std::env::temp_dir().join(format!("kucnet_bench_kernels_{}", std::process::id()));
    write_scale_dataset(&island, &dir).expect("generate the island");
    let seg = load_island(&dir, &island, 0).expect("load the island");
    let _ = std::fs::remove_dir_all(&dir);
    // Segment-local ids are monotone in global ids, and users come first.
    let users: Vec<UserId> = seg.users(island.n_users).collect();
    let (ppr_row, cache) = bench_ppr(name.to_string(), seg.csr(), users.len());
    // Lift each row local→global, as a shard does before layering.
    let entries: Vec<Vec<(u32, f32)>> = (0..users.len() as u32)
        .map(|u| {
            cache.entries(UserId(u)).iter().map(|&(n, s)| (seg.nodes()[n as usize], s)).collect()
        })
        .collect();
    let view = seg.view(island.layout().n_nodes());
    ppr.push(ppr_row);
    layering.push(bench_layering(name.to_string(), &view, &users, &entries, &config));
    (ppr, layering)
}

/// Comparison 2: one full train epoch cold (pool empty) vs warm, with the
/// fresh-allocation counts that prove pooling works.
struct EpochStats {
    users: usize,
    cold_secs: f64,
    cold_fresh: u64,
    warm_secs: f64,
    warm_fresh: u64,
    warm_reused: u64,
}

fn bench_train_epoch(opts: &HarnessOpts, smoke: bool) -> EpochStats {
    let profile = if smoke { DatasetProfile::tiny() } else { DatasetProfile::lastfm_small() };
    let data = GeneratedDataset::generate(&profile, opts.seed);
    let split = traditional_split(&data, 0.2, opts.seed);
    let config = kucnet_config(opts, SelectorKind::PprTopK, true);
    let mut model = KucNet::new(config, data.build_ckg(&split.train));
    let users = model.ckg().n_users();

    let (f0, _) = global_pool_stats();
    let started = Instant::now();
    model.train_epoch();
    let cold_secs = started.elapsed().as_secs_f64();
    let (f1, _) = global_pool_stats();

    let (wf0, wr0) = global_pool_stats();
    let started = Instant::now();
    model.train_epoch();
    let warm_secs = started.elapsed().as_secs_f64();
    let (wf1, wr1) = global_pool_stats();

    EpochStats {
        users,
        cold_secs,
        cold_fresh: f1 - f0,
        warm_secs,
        warm_fresh: wf1 - wf0,
        warm_reused: wr1 - wr0,
    }
}

fn main() {
    let opts = HarnessOpts::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = std::env::args().any(|a| a == "--quick");

    let (mm_rows, dim, mm_iters) = if smoke { (64, 16, 3) } else { (2048, 64, 20) };
    // Node-level shapes: a small smoke shape plus the paper-profile shape
    // (d=32, d_α=5 — the KucNet defaults; E ≈ 15·|V| from K=15).
    let nl_iters = if smoke { 3 } else { 20 };
    let shapes = [("smoke", 48, 720, 32, 5, nl_iters), ("paper", 480, 7200, 32, 5, 20)];

    eprintln!("[bench_kernels] smoke={smoke} quick={quick}");
    let mm = bench_matmul(mm_rows, dim, mm_iters);
    let node_level: Vec<_> = shapes
        .iter()
        .map(|&(_, nodes, edges, d, da, iters)| bench_node_level(nodes, edges, d, da, iters))
        .collect();
    let tanh_len = 1 << 16;
    let tanh_iters = if smoke { 3 } else { 200 };
    let (th, th_diff) = bench_tanh(tanh_len, tanh_iters);
    let ns_per_elem = |secs: f64| secs * 1e9 / (tanh_iters * tanh_len) as f64;
    let ep = bench_train_epoch(&opts, smoke || quick);
    let (ppr, layering) = bench_graph_rows(&opts, smoke);
    let fresh_per_user_warm = ep.warm_fresh as f64 / ep.users.max(1) as f64;

    println!("\n== Hot-path kernel benchmark ==");
    println!(
        "matmul ({mm_rows}x{dim} * {dim}x{dim})   naive {:>8.4}s   tiled {:>8.4}s   {:.2}x",
        mm.old_secs,
        mm.new_secs,
        mm.speedup()
    );
    for (&(name, _, edges, ..), (pair, diff)) in shapes.iter().zip(&node_level) {
        println!(
            "node-level layer {name} ({edges} edges)  per-edge {:>8.4}s   node-level {:>8.4}s   \
             {:.2}x   max |diff| {diff:.2e}",
            pair.old_secs,
            pair.new_secs,
            pair.speedup()
        );
    }
    println!(
        "tanh ({tanh_len} values)       libm {:>6.2} ns/elem   kernel {:>6.2} ns/elem   {:.2}x   \
         max |diff| {th_diff:.2e}",
        ns_per_elem(th.old_secs),
        ns_per_elem(th.new_secs),
        th.speedup()
    );
    println!(
        "train_epoch ({} users)    cold {:>8.4}s ({} fresh allocs)   warm {:>8.4}s ({} fresh, {} reused)",
        ep.users, ep.cold_secs, ep.cold_fresh, ep.warm_secs, ep.warm_fresh, ep.warm_reused
    );
    println!(
        "pool steady state         {:.2} fresh matrix allocs per user per epoch after warm-up",
        fresh_per_user_warm
    );
    for row in &ppr {
        println!(
            "ppr {} ({} nodes, {} edges, {} users)   sparse_ppr p50 {:.3} ms p90 {:.3} ms   \
             PprCache::compute {:.4}s   entries fnv {:#018x}",
            row.graph,
            row.nodes,
            row.edges,
            row.users,
            row.sparse_p50_ms,
            row.sparse_p90_ms,
            row.cache_secs,
            row.entries_fnv
        );
    }

    for row in &layering {
        println!(
            "layering {} ({} users, {} edges)   build_user_graph p50 {:.1} us p90 {:.1} us   \
             graph fnv {:#018x}",
            row.graph, row.users, row.edges, row.p50_us, row.p90_us, row.graph_fnv
        );
    }

    let node_level_json: Vec<String> = shapes
        .iter()
        .zip(&node_level)
        .map(|(&(name, nodes, edges, d, da, _), (pair, diff))| {
            format!(
                concat!(
                    "    {{\"shape\": \"{}\", \"nodes\": {}, \"edges\": {}, \"dim\": {}, ",
                    "\"attn_dim\": {}, \"per_edge_secs\": {:.6}, \"node_level_secs\": {:.6}, ",
                    "\"speedup\": {:.3}, \"max_abs_diff\": {:.3e}}}"
                ),
                name,
                nodes,
                edges,
                d,
                da,
                pair.old_secs,
                pair.new_secs,
                pair.speedup(),
                diff
            )
        })
        .collect();
    let ppr_json: Vec<String> = ppr
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "    {{\"graph\": \"{}\", \"nodes\": {}, \"edges\": {}, \"users\": {}, ",
                    "\"sparse_ppr_p50_ms\": {:.4}, \"sparse_ppr_p90_ms\": {:.4}, ",
                    "\"cache_compute_secs\": {:.4}, \"entries_fnv\": \"{:#018x}\"}}"
                ),
                row.graph,
                row.nodes,
                row.edges,
                row.users,
                row.sparse_p50_ms,
                row.sparse_p90_ms,
                row.cache_secs,
                row.entries_fnv
            )
        })
        .collect();
    let layering_json: Vec<String> = layering
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "    {{\"graph\": \"{}\", \"users\": {}, \"edges\": {}, ",
                    "\"build_user_graph_p50_us\": {:.2}, \"build_user_graph_p90_us\": {:.2}, ",
                    "\"graph_fnv\": \"{:#018x}\"}}"
                ),
                row.graph, row.users, row.edges, row.p50_us, row.p90_us, row.graph_fnv
            )
        })
        .collect();
    let train_profile =
        if smoke || quick { DatasetProfile::tiny() } else { DatasetProfile::lastfm_small() };
    let json = format!(
        concat!(
            "{{\n",
            "  \"smoke\": {},\n",
            "  \"profile\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"threads\": 1,\n",
            "  \"git_commit\": \"{}\",\n",
            "  \"matmul\": {{\"rows\": {}, \"dim\": {}, \"old_secs\": {:.6}, \"new_secs\": {:.6}, \"speedup\": {:.3}}},\n",
            "  \"node_level\": [\n{}\n  ],\n",
            "  \"tanh\": {{\"len\": {}, \"libm_ns_per_elem\": {:.3}, \"kernel_ns_per_elem\": {:.3}, \"speedup\": {:.3}, \"max_abs_diff\": {:.3e}}},\n",
            "  \"train_epoch\": {{\n",
            "    \"users\": {},\n",
            "    \"cold_secs\": {:.4},\n",
            "    \"cold_fresh_allocs\": {},\n",
            "    \"warm_secs\": {:.4},\n",
            "    \"warm_fresh_allocs\": {},\n",
            "    \"warm_reused_allocs\": {},\n",
            "    \"warm_fresh_allocs_per_user\": {:.3}\n",
            "  }},\n",
            "  \"ppr\": [\n{}\n  ],\n",
            "  \"layering\": [\n{}\n  ]\n",
            "}}\n"
        ),
        smoke,
        train_profile.name,
        opts.seed,
        git_commit(),
        mm_rows,
        dim,
        mm.old_secs,
        mm.new_secs,
        mm.speedup(),
        node_level_json.join(",\n"),
        tanh_len,
        ns_per_elem(th.old_secs),
        ns_per_elem(th.new_secs),
        th.speedup(),
        th_diff,
        ep.users,
        ep.cold_secs,
        ep.cold_fresh,
        ep.warm_secs,
        ep.warm_fresh,
        ep.warm_reused,
        fresh_per_user_warm,
        ppr_json.join(",\n"),
        layering_json.join(",\n"),
    );
    write_results("BENCH_kernels.json", &json);
}
