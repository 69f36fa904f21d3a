#!/usr/bin/env bash
# Tier-1 gate: formatting, release build, full test suite (once
# normally, once with TYPILUS_THREADS=2 to exercise the worker pool's
# env-driven thread resolution), the kernel bit-equivalence properties
# under each forced SIMD width, the exhaustive sweep of the vectorised
# tanh against its scalar reference over all 2^32 inputs (release build,
# every width), the fault-injection suites (core
# atomic-I/O faults and serve chaos: engine panics, disk faults, torn
# reply writes), the determinism/panic-freedom lint (stale
# suppressions denied), the dynamic determinism and kill-and-resume
# check (threads x SIMD width x kernel mode), the serve round-trip gate
# (byte-identical served replies, untouched artifacts), the reproduction
# gate (all eleven paper outputs at a small scale byte-identical to
# results/small/), the release-mode speed gates (crates/bench/tests/
# speed_gates.rs: each fast path's median speedup against the committed
# BENCH_nn.json / BENCH_space.json figures, serve throughput scaling
# and supervision overhead), clippy with warnings denied. It also fails
# if crossbeam re-enters the dependency graph: `typilus_nn::WorkerPool`
# is the one parallel engine. Run from anywhere; operates on the repo
# root.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo fmt --check
if cargo tree --offline -q -i crossbeam >/dev/null 2>&1; then
    echo "tier1: crossbeam is in the dependency graph; run parallel work on typilus_nn::WorkerPool" >&2
    exit 1
fi
cargo build --release
cargo test -q
TYPILUS_THREADS=2 cargo test -q
TYPILUS_SIMD=sse2 cargo test -q -p typilus-nn --test kernel_bitident
TYPILUS_SIMD=avx2 cargo test -q -p typilus-nn --test kernel_bitident
cargo test --release -q -p typilus-nn --test kernel_bitident -- --ignored
cargo test -q -p typilus --features faults --test fault_injection
cargo test -q -p typilus-serve --features faults --test serve_faults
cargo run -p typilus-lint --release -- --deny-stale
scripts/detcheck.sh
scripts/servecheck.sh
scripts/reprocheck.sh
cargo test --release -q -p typilus-bench --test speed_gates -- --ignored --test-threads=1
cargo clippy --workspace --all-targets -- -D warnings

echo "tier1: OK"
