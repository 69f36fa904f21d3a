#!/usr/bin/env bash
# Reproduction gate: renders all eleven paper outputs with the `repro`
# runner at a small scale (30 files, 2 epochs, the other scale
# variables at their defaults) and compares every .txt and .csv byte for
# byte with the goldens under results/small/. Takes about 20 s on
# 2 vCPUs after the build.
#
# The goldens pin the evaluation's output, so a change that moves a
# trained model or a metric fails here. Regenerate them only with a
# change that means to move the published numbers:
#
#   TYPILUS_FILES=30 TYPILUS_EPOCHS=2 \
#       cargo run --release -p typilus-bench --bin repro -- --out results/small
#
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
unset TYPILUS_DIM TYPILUS_GNN_STEPS TYPILUS_SEED TYPILUS_COMMON

WORK=$(mktemp -d "${TMPDIR:-/tmp}/typilus_repro.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

cargo build --release -q -p typilus-bench --bin repro
if ! TYPILUS_FILES=30 TYPILUS_EPOCHS=2 cargo run --release -q -p typilus-bench --bin repro \
    -- --out "$WORK/out" 2>"$WORK/repro.log"; then
    cat "$WORK/repro.log" >&2
    echo "reprocheck: repro failed" >&2
    exit 1
fi

list() { (cd "$1" && find . -type f \( -name '*.txt' -o -name '*.csv' \) | sort); }
if ! diff <(list results/small) <(list "$WORK/out") >&2; then
    echo "reprocheck: repro wrote a different set of files than results/small" >&2
    exit 1
fi
status=0
while read -r rel; do
    cmp "results/small/$rel" "$WORK/out/$rel" >&2 || status=1
done < <(list results/small)
if [ "$status" -ne 0 ]; then
    echo "reprocheck: output differs from results/small" >&2
    exit 1
fi
echo "reprocheck: $(list results/small | wc -l) files byte-identical to results/small"
