#!/usr/bin/env bash
# End-to-end smoke test for the drli CLI: generate -> build -> stats ->
# query -> compare -> serve, asserting exit codes and key output
# fragments. $2 is the drli_client binary for the serving case.
set -euo pipefail

CLI="$1"
CLIENT="${2:-}"
WORK="$(mktemp -d)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

"$CLI" generate --dist=ant --n=2000 --d=3 --seed=9 --out="$WORK/data.csv" \
  | grep -q "wrote 2000 x 3 ant tuples"

BUILD_OUT="$("$CLI" build --input="$WORK/data.csv" --kind=dl+ --out="$WORK/index.bin")"
echo "$BUILD_OUT" | grep -q "saved to"
# Per-phase build observability.
echo "$BUILD_OUT" | grep -q "build phases: skyline="
echo "$BUILD_OUT" | grep -q "fine_peel="
echo "$BUILD_OUT" | grep -qE "eds: lp_calls=[0-9]+ bbox_rejects=[0-9]+"
echo "$BUILD_OUT" | grep -qE "coarse edges: pairs_pruned=[0-9]+ pairs_tested=[0-9]+"

"$CLI" stats --index="$WORK/index.bin" | grep -q "coarse layers:"

"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 \
  | grep -q "top-5"

# Kernel dispatch is reported, and --no-simd forces the scalar target
# with an identical answer.
"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 \
  | grep -qE "kernel=(scalar|avx2|neon)"
"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 --no-simd \
  | grep -q "kernel=scalar"
"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 \
  | grep "tuple " >"$WORK/simd_items.txt"
"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 --no-simd \
  | grep "tuple " >"$WORK/scalar_items.txt"
diff "$WORK/simd_items.txt" "$WORK/scalar_items.txt"
"$CLI" inspect --index="$WORK/index.bin" | grep -q "kernel dispatch:"

"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 --explain \
  | grep -q "access breakdown"

"$CLI" query --input="$WORK/data.csv" --kind=hl+ --weights=0.5,0.3,0.2 --k=3 \
  | grep -q "HL+ top-3"

# Budgeted query: an unsatisfiable step budget yields a certified
# partial result and still exits zero (partial is a valid answer).
"$CLI" query --input="$WORK/data.csv" --kind=scan --weights=0.5,0.3,0.2 \
  --k=5 --max-evals=7 | grep -q "stopped on step-budget"

# DG and DG+ are the dual-layer index without fine sublayers; compare
# drives them beside DL+.
COMPARE_OUT="$("$CLI" compare --input="$WORK/data.csv" --kinds=scan,dg,dg+,dl+ \
  --k=10 --queries=5)"
echo "$COMPARE_OUT" | grep -q "DG+"
echo "$COMPARE_OUT" | grep -q "DL+"

"$CLI" generate --dist=ind --n=300 --d=2 --seed=3 --out="$WORK/d2.csv" >/dev/null
"$CLI" sweep --input="$WORK/d2.csv" --k=3 --reverse=0 >"$WORK/sweep.txt"
grep -q "weight-space partition" "$WORK/sweep.txt"
grep -q "reverse top-3 of tuple 0:" "$WORK/sweep.txt"

# Query scenarios: constrained (box pushdown with the pruning counter),
# diversified (greedy with utility column), reverse (interval answer).
"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 \
  --box=0.1:0.9,:0.8,0.2: | grep -q "constrained top-5"
"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 \
  --box=0.1:0.9,:0.8,0.2: | grep -qE "boxes pruned"
"$CLI" query --input="$WORK/data.csv" --kind=tdl+64 --weights=0.2,0.3,0.5 \
  --k=5 --box=0.1:0.9,:0.8,0.2: | grep -q "constrained top-5"
# --box runs a registry-built sharded engine, which evaluates fewer
# tuples than the scan; a family without a box tree says the scan
# answered.
evals_of() { sed -nE 's/.* ([0-9]+) tuples evaluated.*/\1/p'; }
SDL_EVALS="$("$CLI" query --input="$WORK/data.csv" --kind=sdl+4 \
  --weights=0.2,0.3,0.5 --k=5 --box=0.1:0.9,:0.8,0.2: | evals_of)"
SCAN_EVALS="$("$CLI" query --input="$WORK/data.csv" --kind=scan \
  --weights=0.2,0.3,0.5 --k=5 --box=0.1:0.9,:0.8,0.2: | evals_of)"
[ -n "$SDL_EVALS" ] && [ "$SDL_EVALS" -lt "$SCAN_EVALS" ]
# One walk over every shard's box tree costs about what one index's
# tree walk costs: sdl+4 evaluates at most twice what dl+ does.
DL_EVALS="$("$CLI" query --input="$WORK/data.csv" --kind=dl+ \
  --weights=0.2,0.3,0.5 --k=5 --box=0.1:0.9,:0.8,0.2: | evals_of)"
[ -n "$DL_EVALS" ] && [ "$SDL_EVALS" -le $((2 * DL_EVALS)) ]
# A budgeted constrained call stops partial inside the forest walk: on
# sdl+4 before a box-tree node is expanded, on tdl+64 because the
# memtable's in-box rows, scored before the first node, spend the budget.
for kind in sdl+4 tdl+64; do
  "$CLI" query --input="$WORK/data.csv" --kind="$kind" --weights=0.2,0.3,0.5 \
    --k=5 --box=0.1:0.9,:0.8,0.2: --max-evals=3 \
    | grep -q "partial result: stopped on step-budget"
done
"$CLI" query --input="$WORK/data.csv" --kind=ta --weights=0.2,0.3,0.5 \
  --k=5 --box=0.1:0.9,:0.8,0.2: | grep -q "answered by the full scan"
"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=4 \
  --lambda=0.5 | grep -q "utility"
"$CLI" query --input="$WORK/d2.csv" --k=3 --reverse=0 \
  | grep -q "reverse top-3 of tuple 0 (.* tuples compared)"
# An inverted box is legal and empty; a malformed box is rejected.
"$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 \
  --box=0.9:0.1,:,: | grep -q "constrained top-5"
if "$CLI" query --index="$WORK/index.bin" --weights=0.2,0.3,0.5 --k=5 \
    --box=0.1:0.9 2>/dev/null; then
  echo "expected failure for wrong-arity box" >&2
  exit 1
fi
# Reverse needs a 2-d relation: recoverable rejection on 3-d.
if "$CLI" query --index="$WORK/index.bin" --k=3 --reverse=0 2>/dev/null; then
  echo "expected failure for 3-d reverse query" >&2
  exit 1
fi

# Invariant checker: saved index and on-the-fly builds both pass.
"$CLI" check --index="$WORK/index.bin" | grep -q "OK"
"$CLI" check --input="$WORK/data.csv" --kind=dl --samples=8 | grep -q "OK"
"$CLI" check --input="$WORK/d2.csv" --kind=dl+ | grep -q "OK"

# Sharded index: build a manifest + per-shard snapshots, inspect the
# partition, query through the scatter-gather path, and audit shards.
SHARD_OUT="$("$CLI" build --input="$WORK/data.csv" --kind=dl+ --shards=4 \
  --partitioner=hyperplane --out="$WORK/sharded.bin")"
echo "$SHARD_OUT" | grep -q "built SDL+x4h over 2000 tuples"
echo "$SHARD_OUT" | grep -q "saved manifest to"
test -f "$WORK/sharded.bin.shard-0003"
"$CLI" inspect --index="$WORK/sharded.bin" | grep -q "shard manifest v1"
"$CLI" inspect --index="$WORK/sharded.bin" | grep -q "partitioner=hyperplane"
"$CLI" inspect --index="$WORK/sharded.bin.shard-0000" \
  | grep -q "kernel dispatch:"
"$CLI" query --index="$WORK/sharded.bin" --weights=0.2,0.3,0.5 --k=5 \
  | grep -qE "shards touched [1-4]/4"
"$CLI" check --index="$WORK/sharded.bin" | grep -q "OK"
# The sharded merge is bit-identical to the unsharded answer.
"$CLI" query --index="$WORK/sharded.bin" --weights=0.2,0.3,0.5 --k=5 \
  | grep "tuple " >"$WORK/sharded_items.txt"
diff "$WORK/simd_items.txt" "$WORK/sharded_items.txt"
# A manifest pointing at a missing shard file fails cleanly.
mv "$WORK/sharded.bin.shard-0002" "$WORK/sharded.bin.shard-0002.gone"
if "$CLI" query --index="$WORK/sharded.bin" --weights=0.2,0.3,0.5 --k=5 \
    2>/dev/null; then
  echo "expected failure for missing shard file" >&2
  exit 1
fi
mv "$WORK/sharded.bin.shard-0002.gone" "$WORK/sharded.bin.shard-0002"
# A v1 snapshot (a checked-in fixture) is no longer read: inspect and
# query fail and tell the user to rebuild.
V1_FIXTURE="$(dirname "$0")/../tests/golden/dl_plus_d3_v1.bin"
test -f "$V1_FIXTURE"
for ARGS in "inspect" "query --weights=0.2,0.3,0.5 --k=5"; do
  # shellcheck disable=SC2086  # ARGS is a command plus its flags
  if "$CLI" $ARGS --index="$V1_FIXTURE" >/dev/null 2>"$WORK/v1_err.txt"; then
    echo "expected $ARGS to reject a v1 snapshot" >&2
    exit 1
  fi
  grep -q "drli build" "$WORK/v1_err.txt"
done

# Tiered dynamic index: stream the relation through the insert path,
# persist the generation (manifest + run snapshots), inspect the run
# table, and query through the multi-run merge.
TIERED_OUT="$("$CLI" build --input="$WORK/data.csv" --kind=tdl+256 \
  --out="$WORK/tiered.drlt")"
echo "$TIERED_OUT" | grep -q "built DL+lsm over 2000 tuples"
echo "$TIERED_OUT" | grep -q "saved manifest to"
# Run files are named by immutable uid; compaction may have retired
# uid 0, so take the first surviving run file from the manifest table.
RUN_FILE="$WORK/$("$CLI" inspect --index="$WORK/tiered.drlt" \
  | awk '$4 ~ /\.run-/ { print $4; exit }')"
test -f "$RUN_FILE"
"$CLI" inspect --index="$WORK/tiered.drlt" | grep -q "tiered manifest v1"
"$CLI" inspect --index="$WORK/tiered.drlt" | grep -qE "generation=[0-9]+"
"$CLI" inspect --index="$RUN_FILE" | grep -q "kernel dispatch:"
"$CLI" query --index="$WORK/tiered.drlt" --weights=0.2,0.3,0.5 --k=5 \
  | grep -qE "runs opened [0-9]+/[0-9]+"
# The tiered merge is bit-identical to the single-index answer.
"$CLI" query --index="$WORK/tiered.drlt" --weights=0.2,0.3,0.5 --k=5 \
  | grep "tuple " >"$WORK/tiered_items.txt"
diff "$WORK/simd_items.txt" "$WORK/tiered_items.txt"
# The invariant checker audits every run of the manifest.
"$CLI" check --index="$WORK/tiered.drlt" >"$WORK/tiered_check.txt"
grep -qE "[0-9]+ runs, [0-9]+ memtable rows" "$WORK/tiered_check.txt"
grep -q "OK" "$WORK/tiered_check.txt"
# A manifest pointing at a missing run file fails cleanly.
mv "$RUN_FILE" "$RUN_FILE.gone"
if "$CLI" query --index="$WORK/tiered.drlt" --weights=0.2,0.3,0.5 --k=5 \
    2>/dev/null; then
  echo "expected failure for missing run file" >&2
  exit 1
fi
mv "$RUN_FILE.gone" "$RUN_FILE"

# Error paths exit non-zero.
if "$CLI" build --input="$WORK/data.csv" --kind=onion --out="$WORK/x.bin" 2>/dev/null; then
  echo "expected failure for non-serializable kind" >&2
  exit 1
fi
if "$CLI" query --index="$WORK/missing.bin" --weights=0.5,0.5 --k=1 2>/dev/null; then
  echo "expected failure for missing index" >&2
  exit 1
fi
if "$CLI" sweep --input="$WORK/data.csv" --k=3 2>/dev/null; then
  echo "expected failure for 3-d sweep" >&2
  exit 1
fi
if "$CLI" frobnicate 2>/dev/null; then
  echo "expected usage failure" >&2
  exit 1
fi
# An unknown flag exits 2 and names the flag instead of being ignored.
expect_unknown_flag() {
  local flag="$1" status=0
  shift
  "$CLI" "$@" 2>"$WORK/flag_err.txt" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- "--$flag" "$WORK/flag_err.txt"; then
    echo "expected exit 2 naming --$flag for: $* (got $status)" >&2
    exit 1
  fi
}
expect_unknown_flag format build --input="$WORK/data.csv" --format=v1 \
  --out="$WORK/y.bin"
[ ! -e "$WORK/y.bin" ]
expect_unknown_flag kk query --index="$WORK/index.bin" \
  --weights=0.2,0.3,0.5 --kk=5
# A malformed flag value exits 2 and names the flag: trailing
# characters, non-numbers, non-finite numbers and negative counts.
expect_bad_value() {
  local flag="$1" status=0
  shift
  "$@" 2>"$WORK/value_err.txt" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- "--$flag=" "$WORK/value_err.txt"; then
    echo "expected exit 2 naming --$flag for: $* (got $status)" >&2
    exit 1
  fi
}
Q=(query --index="$WORK/index.bin")
expect_bad_value weights "$CLI" "${Q[@]}" --weights=0.2,abc,0.5 --k=3
expect_bad_value weights "$CLI" "${Q[@]}" --weights=0.2,inf,0.5 --k=3
expect_bad_value k "$CLI" "${Q[@]}" --weights=0.2,0.3,0.5 --k=3x
expect_bad_value k "$CLI" "${Q[@]}" --weights=0.2,0.3,0.5 --k=-1
expect_bad_value deadline-ms "$CLI" "${Q[@]}" --weights=0.2,0.3,0.5 \
  --deadline-ms=soon
expect_bad_value box "$CLI" "${Q[@]}" --weights=0.2,0.3,0.5 \
  --box=0.1:0.9x,:,:
expect_bad_value n "$CLI" generate --n=2e3 --out="$WORK/z.csv"
[ ! -e "$WORK/z.csv" ]
# sweep: top-0 is a flag error, and an out-of-range reverse target
# fails as it does for `query --reverse`, before anything is printed.
expect_bad_value k "$CLI" sweep --input="$WORK/d2.csv" --k=0
for cmd in sweep query; do
  status=0
  "$CLI" "$cmd" --input="$WORK/d2.csv" --k=3 --reverse=5000 \
    >"$WORK/rev_out.txt" 2>"$WORK/rev_err.txt" || status=$?
  if [ "$status" -ne 1 ] || [ -s "$WORK/rev_out.txt" ] ||
      ! grep -q "target id out of range" "$WORK/rev_err.txt"; then
    echo "expected $cmd --reverse=5000 to fail as out of range" >&2
    exit 1
  fi
done
if [ -n "$CLIENT" ]; then
  expect_bad_value port "$CLIENT" health --port=70000
  expect_bad_value k "$CLIENT" query --port=1 --weights=0.5,0.5 --k=5o
  status=0
  "$CLIENT" health --port=1 --frobnicate 2>"$WORK/flag_err.txt" || status=$?
  [ "$status" -eq 2 ] && grep -q -- "--frobnicate" "$WORK/flag_err.txt"
fi
if "$CLI" check --input="$WORK/data.csv" --kind=onion 2>/dev/null; then
  echo "expected failure for non-checkable kind" >&2
  exit 1
fi
# A malformed query (negative weight survives normalization) is a
# recoverable rejection: non-zero exit, no crash.
if "$CLI" query --index="$WORK/index.bin" --weights=-0.2,0.6,0.6 --k=3 \
    2>"$WORK/err.txt"; then
  echo "expected failure for negative weight" >&2
  exit 1
fi
grep -q "invalid-query" "$WORK/err.txt"

# Serving front end: serve a directory, query over the socket, hot-swap
# the generation with `publish`, and drain on SIGTERM.
if [ -n "$CLIENT" ]; then
  mkdir "$WORK/srv"
  cp "$WORK/index.bin" "$WORK/srv/gen-1.v2"
  "$CLI" generate --dist=ind --n=2000 --d=3 --seed=17 --out="$WORK/data3.csv" \
    >/dev/null
  "$CLI" build --input="$WORK/data3.csv" --kind=dl+ \
    --out="$WORK/srv/gen-2.v2" >/dev/null
  "$CLI" publish --dir="$WORK/srv" --snapshot=gen-1.v2 \
    | grep -q "published"
  "$CLI" serve --dir="$WORK/srv" --port=0 --port-file="$WORK/port.txt" \
    --reload-poll=0.05 >"$WORK/serve.log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/port.txt" ] && break
    sleep 0.1
  done
  [ -s "$WORK/port.txt" ]
  PORT="$(cat "$WORK/port.txt")"
  "$CLIENT" health --port="$PORT" | grep -q "^serving generation=1"
  # The wire answer is bit-identical to the local one.
  "$CLIENT" query --port="$PORT" --weights=0.2,0.3,0.5 --k=5 \
    | tee "$WORK/wire.txt" | grep -q "generation 1"
  grep "tuple " "$WORK/wire.txt" >"$WORK/wire_items.txt"
  diff "$WORK/simd_items.txt" "$WORK/wire_items.txt"
  # Scenario routing and budget propagation over the wire.
  "$CLIENT" query --port="$PORT" --weights=0.2,0.3,0.5 --k=5 \
    --box=0.1:0.9,:0.8,0.2: | grep -q "tuple "
  "$CLIENT" query --port="$PORT" --weights=0.2,0.3,0.5 --k=5 --max-evals=7 \
    | grep -q "partial result"
  # A malformed query is a recoverable wire rejection, not a crash.
  if "$CLIENT" query --port="$PORT" --weights=0.5,0.5 --k=5 2>"$WORK/err.txt"
  then
    echo "expected wire rejection for 2-d weights on 3-d index" >&2
    exit 1
  fi
  grep -q "dimensionality mismatch" "$WORK/err.txt"
  # Hot reload: publish gen-2, force a poll, and re-query -- the swap
  # happens with the server up and the old connection draining.
  "$CLI" publish --dir="$WORK/srv" --snapshot=gen-2.v2 >/dev/null
  "$CLIENT" reload --port="$PORT" | grep -qE "^(swapped|unchanged)"
  "$CLIENT" inspect --port="$PORT" | grep -q "snapshot gen-2.v2"
  "$CLIENT" query --port="$PORT" --weights=0.2,0.3,0.5 --k=5 \
    | grep -q "generation 2"
  # Graceful drain: SIGTERM answers in-flight work, then exits 0.
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
  SERVER_PID=""
  grep -q "draining" "$WORK/serve.log"
  grep -qE "served [0-9]+ queries" "$WORK/serve.log"
fi

echo "CLI smoke test passed"
