#!/usr/bin/env bash
# Serve round-trip gate: trains a tiny model, builds its sharded index
# with `typilus index --shards 2`, serves it over a Unix socket, and
# asserts
#
#   1. the served predict report is byte-identical to one-shot
#      `typilus predict` output over the same files (the serve
#      determinism contract),
#   2. the chaos suite passes: `serve_faults` (under `--features
#      faults`) injects engine panics, disk faults, and torn/failed
#      reply writes, and the live daemon still serves the byte-
#      identical report afterwards — resilience never costs
#      determinism,
#   3. add-marker / reindex / stats round-trip and predictions still
#      render afterwards,
#   4. the daemon shuts down cleanly on `query --shutdown` (exit 0),
#   5. serving (including the in-memory add-marker and reindex) never
#      modified the on-disk model or sidecar artifacts.
#
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

BIN=target/release/typilus
[ -x "$BIN" ] || cargo build --release -p typilus-cli

WORK=$(mktemp -d "${TMPDIR:-/tmp}/typilus_serve.XXXXXX")
SERVER_PID=
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "servecheck: training a tiny model ..."
"$BIN" gen-corpus --out "$WORK/corpus" --files 24 --seed 7 >/dev/null
"$BIN" train --corpus "$WORK/corpus" --model "$WORK/model.typilus" \
    --epochs 3 --dim 16 --gnn-steps 3 >/dev/null 2>&1
"$BIN" index --model "$WORK/model.typilus" --shards 2 >/dev/null

mapfile -t FILES < <(find "$WORK/corpus" -name '*.py' | sort | head -3)
[ "${#FILES[@]}" -ge 1 ] || { echo "servecheck: no corpus files" >&2; exit 1; }

"$BIN" predict --model "$WORK/model.typilus" --out "$WORK/oneshot.txt" "${FILES[@]}"

artifact_hash() {
    sha256sum "$WORK/model.typilus" "$WORK/model.typilus.space" | sha256sum
}
hash_before=$(artifact_hash)

SOCK="$WORK/serve.sock"
"$BIN" serve --model "$WORK/model.typilus" --socket "$SOCK" \
    >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
[ -S "$SOCK" ] || {
    echo "servecheck: server did not come up" >&2
    cat "$WORK/serve.log" >&2
    exit 1
}

# 1. byte-identity of served vs one-shot predictions
"$BIN" query --socket "$SOCK" --out "$WORK/served.txt" "${FILES[@]}"
cmp "$WORK/oneshot.txt" "$WORK/served.txt" || {
    echo "servecheck: served report differs from one-shot predict output" >&2
    exit 1
}
echo "servecheck: served report byte-identical to one-shot output"

# 2. chaos leg: fault-injection suite, then prove the daemon that was
# running the whole time still serves the byte-identical report.
echo "servecheck: running serve fault-injection suite ..."
cargo test -q -p typilus-serve --features faults --test serve_faults >/dev/null || {
    echo "servecheck: serve fault-injection suite failed" >&2
    exit 1
}
"$BIN" query --socket "$SOCK" --out "$WORK/served_chaos.txt" "${FILES[@]}"
cmp "$WORK/oneshot.txt" "$WORK/served_chaos.txt" || {
    echo "servecheck: served report drifted after chaos suite" >&2
    exit 1
}
echo "servecheck: chaos suite green; served report still byte-identical"

# 3. add-marker / reindex / stats round trip
printf 'def drain(fresh_marker_symbol):\n    return fresh_marker_symbol\n' \
    >"$WORK/bind.py"
"$BIN" query --socket "$SOCK" --add-symbol fresh_marker_symbol --add-type int \
    "$WORK/bind.py" | grep -q 'bound fresh_marker_symbol' || {
    echo "servecheck: add-marker round trip failed" >&2
    exit 1
}
"$BIN" query --socket "$SOCK" --reindex | grep -q 'reindexed' || {
    echo "servecheck: reindex round trip failed" >&2
    exit 1
}
"$BIN" query --socket "$SOCK" --stats | grep -q 'markers added' || {
    echo "servecheck: stats round trip failed" >&2
    exit 1
}
"$BIN" query --socket "$SOCK" --out "$WORK/served2.txt" "${FILES[@]}"
[ -s "$WORK/served2.txt" ] || {
    echo "servecheck: predictions stopped rendering after mutation" >&2
    exit 1
}

# 4. clean shutdown
"$BIN" query --socket "$SOCK" --shutdown >/dev/null
wait "$SERVER_PID" || {
    echo "servecheck: server exited non-zero" >&2
    cat "$WORK/serve.log" >&2
    exit 1
}
SERVER_PID=

# 5. artifacts untouched by serving
hash_after=$(artifact_hash)
[ "$hash_before" = "$hash_after" ] || {
    echo "servecheck: serving modified the on-disk artifacts" >&2
    exit 1
}
echo "servecheck: artifacts untouched; clean shutdown"
echo "servecheck: OK"
