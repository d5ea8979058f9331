//! Criterion: U-I subgraph extraction and user-centric layered-graph
//! construction (with and without PPR pruning).

use criterion::{criterion_group, criterion_main, Criterion};
use kucnet_datasets::{DatasetProfile, GeneratedDataset};
use kucnet_graph::{
    build_layered_graph, build_pair_computation_graph, extract_ui_subgraph, ItemId, KeepAll,
    LayeringOptions, UserId,
};
use kucnet_ppr::{PprCache, PprConfig, PPR_KEEP};

fn bench_subgraph(c: &mut Criterion) {
    let data = GeneratedDataset::generate(&DatasetProfile::lastfm_small(), 42);
    let ckg = data.build_ckg(&data.interactions);
    let cache = PprCache::compute(ckg.csr(), ckg.n_users(), &PprConfig::default(), PPR_KEEP, 4);
    let u = ckg.user_node(UserId(0));
    let i = ckg.item_node(ItemId(0));

    let mut group = c.benchmark_group("subgraph");
    group.sample_size(20);
    group.bench_function("ui_subgraph_extract", |b| {
        b.iter(|| extract_ui_subgraph(ckg.csr(), u, i, 3))
    });
    group.bench_function("pair_computation_graph", |b| {
        b.iter(|| build_pair_computation_graph(ckg.csr(), u, i, 3))
    });
    group.bench_function("user_centric_keep_all", |b| {
        b.iter(|| build_layered_graph(ckg.csr(), u, &LayeringOptions::new(3), &mut KeepAll))
    });
    group.bench_function("user_centric_ppr_top15", |b| {
        b.iter(|| {
            let mut sel = cache.selector(UserId(0), 15);
            build_layered_graph(ckg.csr(), u, &LayeringOptions::new(3), &mut sel)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_subgraph);
criterion_main!(benches);
