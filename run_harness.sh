#!/bin/bash
# Regenerates every table and figure of the paper (plus extra ablations).
cd /root/repo
rm -f results/HARNESS_DONE

# Refuse to spend harness time on a tree that fails its own audit (lint
# rules + runtime invariant validators; see crates/audit).
echo "=== AUDIT ($(date +%H:%M:%S)) ==="
cargo run -q -p kucnet-audit --bin audit || exit 1
./scripts/audit_ratchet.sh || exit 1

# Serving gate: the online subsystem must build and pass its end-to-end
# tests (rank parity vs offline eval) before the long benchmark run.
echo "=== SERVE TESTS ($(date +%H:%M:%S)) ==="
cargo build --release -p kucnet-serve || exit 1
cargo test -q -p kucnet-serve || exit 1

# Chaos gate: the serving path must contain injected panics (one 500 per
# faulted user, everything else answered, pool self-heals) before the
# availability numbers in BENCH_chaos.json mean anything.
echo "=== SERVE CHAOS ($(date +%H:%M:%S)) ==="
cargo test -q -p kucnet-serve --test chaos || exit 1

# Hot-swap / A/B / explain gates: a model reload landing mid-burst must be
# zero-downtime with exact per-version attribution, A/B assignment must be
# a pure function of (seed, user, weights), and the live /explain endpoint
# must stay byte-identical to the offline fig7 extraction — including
# across a dynamic refresh tick (DESIGN.md §15). BENCH_swap.json means
# nothing unless these hold.
echo "=== SWAP / AB / EXPLAIN GATES ($(date +%H:%M:%S)) ==="
cargo test -q -p kucnet-serve --test swap_chaos || exit 1
cargo test -q -p kucnet-serve --test ab_routing || exit 1
cargo test -q -p kucnet-serve --test explain_parity || exit 1
cargo test -q -p kucnet-dynamic --test hot_swap || exit 1

# Parallel-determinism gate: the differential suite must prove training
# and evaluation are bitwise identical across worker-thread counts before
# any benchmark numbers are recorded (see DESIGN.md §10).
echo "=== PARALLEL DETERMINISM ($(date +%H:%M:%S)) ==="
for t in 1 8; do
  KUCNET_DIFF_EXTRA_THREADS=$t cargo test -q --test parallel_differential || exit 1
done

# Sharding gate: scoring must be bitwise identical at every shard count —
# in memory, from the on-disk streaming dataset, and over HTTP through one
# server per shard (DESIGN.md §17) — before BENCH_scale.json's
# throughput/memory numbers mean anything.
echo "=== SHARD DIFFERENTIAL ($(date +%H:%M:%S)) ==="
cargo test -q --test shard_differential || exit 1

# Dynamic-graph gate: replayed update streams (appends + refresh ticks +
# compaction) must serve byte-identical rankings to a from-scratch rebuild
# of the final graph before BENCH_dynamic.json means anything (DESIGN.md
# §14).
echo "=== DYNAMIC DIFFERENTIAL ($(date +%H:%M:%S)) ==="
cargo test -q -p kucnet-dynamic || exit 1

# The loop below runs ./target/release/<bench> directly; `cargo build
# --release` at the workspace root only builds the root package, so build
# the bench binaries explicitly or the loop silently runs nothing.
echo "=== BUILD BENCH BINARIES ($(date +%H:%M:%S)) ==="
cargo build --release -p kucnet-bench || exit 1

for b in table2_stats fig5_params table3_traditional table4_new_item \
         table5_disgenet table9_ablation table6_runtime fig6_inference \
         fig7_explain fig4_learning_curves table7_k_sweep table8_l_sweep \
         ablation_extras bench_serve bench_chaos bench_dynamic bench_parallel \
         bench_kernels bench_swap; do
  echo "=== RUNNING $b ($(date +%H:%M:%S)) ==="
  ./target/release/$b 2>&1
  echo "=== DONE $b ==="
done

# Out-of-core sharding smoke: small-N end-to-end (generate -> load 8 shards
# -> Zipf sweep), writing target/bench-smoke/BENCH_scale_smoke.json (smoke
# runs never write under results/). The recorded full >=1M-user sweep in
# results/BENCH_scale.json is produced by running bench_scale without
# --smoke (minutes, not harness-loop material by default).
echo "=== RUNNING bench_scale --smoke ($(date +%H:%M:%S)) ==="
./target/release/bench_scale --smoke 2>&1
echo "=== DONE bench_scale ==="
touch results/HARNESS_DONE
