#!/bin/bash
# Full pre-merge check: formatting, the self-hosted audit (lint + runtime
# invariants), and the tier-1 build/test gate. Exits nonzero on the first
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== kucnet-audit (lint + runtime invariants) =="
cargo run -q -p kucnet-audit --bin audit

echo "== kucnet-audit --json gate (baseline diff + per-rule counts) =="
gate_start=$SECONDS
json="$(cargo run -q -p kucnet-audit --bin audit -- --json 2>/tmp/audit_counts.txt)" || {
  cat /tmp/audit_counts.txt
  echo "audit gate FAILED: new findings or stale baseline entries:"
  echo "$json" | tr ',' '\n' | grep -B1 -A4 '"suppressed":false' || true
  exit 1
}
cat /tmp/audit_counts.txt
echo "audit gate wall-time: $((SECONDS - gate_start))s"

echo "== audit baseline ratchet =="
./scripts/audit_ratchet.sh

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== ranking + model: kucnet-eval and kucnet suites (top-k tie rule, sparse == dense) =="
cargo test -q -p kucnet-eval -p kucnet

# Release build: the baselines' golden test trains ten models on
# lastfm-small, ~3 min unoptimized against ~10 s optimized.
echo "== baselines (golden digests), graph, datasets, par, audit and bench suites =="
cargo test --release -q -p kucnet-baselines -p kucnet-graph -p kucnet-datasets -p kucnet-par \
  -p kucnet-audit -p kucnet-bench

echo "== PPR: unit + property tests (pull kernel == push oracle bitwise, golden checksum) =="
cargo test -q -p kucnet-ppr

echo "== tensor unit tests: tanh kernel contract (ulp bound, odd symmetry, special values) =="
cargo test -q -p kucnet-tensor --lib

echo "== fused kernels: bitwise fused-vs-unfused property suite =="
cargo test -q -p kucnet-tensor --test fused_kernels

echo "== kernel bench smoke: tiled/fused/pooled paths stay bitwise clean =="
cargo build --release -p kucnet-bench
./target/release/bench_kernels --smoke

echo "== serving: build + integration tests =="
cargo build --release -p kucnet-serve
cargo test -q -p kucnet-serve

echo "== serving: chaos suite (fault injection, self-healing, shedding) =="
cargo test -q -p kucnet-serve --test chaos

echo "== serving: hot-swap chaos (reload mid-burst, zero-downtime, attribution) =="
cargo test -q -p kucnet-serve --test swap_chaos

echo "== serving: A/B routing differential (pure-fn, restart/thread stability) =="
cargo test -q -p kucnet-serve --test ab_routing

echo "== serving: /explain parity vs offline fig7 extraction =="
cargo test -q -p kucnet-serve --test explain_parity

echo "== dynamic x swap: explain parity across ticks + reload/tick independence =="
cargo test -q -p kucnet-dynamic --test hot_swap

echo "== sharding: shard-count differential (bitwise at {1,2,8}, on-disk + shard servers over HTTP) =="
cargo test -q --test shard_differential

echo "== sharding: out-of-core scale bench smoke (gen -> 8 shard servers -> Zipf sweep over HTTP) =="
./target/release/bench_scale --smoke

echo "== parallel-determinism: differential suite at T=1 and T=8 =="
for t in 1 8; do
  KUCNET_DIFF_EXTRA_THREADS=$t cargo test -q --test parallel_differential
done

echo "== dynamic graphs: incremental-vs-rebuild differential + chaos + e2e =="
cargo test -q -p kucnet-dynamic

echo "All checks passed."
