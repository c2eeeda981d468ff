#!/usr/bin/env bash
# LSMIO analysis matrix: lint (Clang thread-safety + clang-tidy), TSan, ASan,
# and the bench smoke leg the CI pipeline runs.
#
# Each leg configures its own build tree under build-ci/ and runs the tier-1
# ctest suite. Legs that need a toolchain the host lacks (the lint leg needs
# Clang) are SKIPPED with a notice rather than failed, so the script is
# useful both on full CI images and on minimal dev boxes. Under GitHub
# Actions a skip additionally emits a ::warning:: annotation so it is
# visible on the run instead of silently passing.
#
# Usage:
#   ci/check.sh                 # run the default legs (lint, tsan, asan, shards)
#   ci/check.sh --leg asan      # run exactly one leg
#   ci/check.sh asan            # same (positional form kept for compat)
# Legs: plain | lint | tsan | asan | shards | valuelog | bench | bench-build |
#       tail-latency | bench-files | bench-compare | all
set -u -o pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 4)"

PASS=()
FAIL=()
SKIP=()

note_skip() {
  local name="$1" reason="$2"
  echo "=== [$name] SKIPPED: $reason ==="
  if [ "${GITHUB_ACTIONS:-}" = "true" ]; then
    echo "::warning title=ci/check.sh leg skipped::$name skipped: $reason"
  fi
  SKIP+=("$name ($reason)")
}

run_leg() {
  local name="$1"; shift
  local builddir="$ROOT/build-ci/$name"
  mkdir -p "$ROOT/build-ci"
  echo
  echo "=== [$name] cmake $* ==="
  if ! cmake -B "$builddir" -S "$ROOT" "$@" >"$builddir.configure.log" 2>&1; then
    tail -30 "$builddir.configure.log" || true
    FAIL+=("$name (configure)")
    return 1
  fi
  if ! cmake --build "$builddir" -j "$JOBS" >"$builddir.build.log" 2>&1; then
    tail -40 "$builddir.build.log" || true
    FAIL+=("$name (build)")
    return 1
  fi
  if ! ctest --test-dir "$builddir" --output-on-failure -j "$JOBS"; then
    FAIL+=("$name (test)")
    return 1
  fi
  PASS+=("$name")
}

leg_plain() {
  run_leg plain
}

leg_lint() {
  local clangxx
  clangxx="$(command -v clang++ || true)"
  if [ -z "$clangxx" ]; then
    note_skip lint "clang++ not found (thread-safety analysis needs Clang)"
    return 0
  fi
  # LSMIO_LINT_REQUIRE_PLUGIN=1 in the environment turns a missing
  # lsmio-checks plugin (no clang-tidy dev headers) from a skip-with-warning
  # into a hard configure failure.
  local extra=()
  if [ "${LSMIO_LINT_REQUIRE_PLUGIN:-0}" = "1" ]; then
    extra+=(-DLSMIO_LINT_REQUIRE_PLUGIN=ON)
  fi
  run_leg lint -DCMAKE_CXX_COMPILER="$clangxx" -DLSMIO_LINT=ON \
    ${extra[@]+"${extra[@]}"}
  local rc=$?
  # Surface whether the lsmio-* project checks were actually live: a lint
  # leg that quietly ran without the plugin is easy to mistake for full
  # coverage (the configure-time gate guarantees the inverse — if the
  # plugin IS active, all four checks were proven to fire).
  local cfglog="$ROOT/build-ci/lint.configure.log"
  if [ "$rc" -eq 0 ] && [ -f "$cfglog" ]; then
    if grep -q "lsmio-checks plugin gate passed" "$cfglog"; then
      echo "=== [lint] lsmio-checks plugin active (gate: 4/4 seeded violations caught) ==="
    elif [ "${GITHUB_ACTIONS:-}" = "true" ]; then
      echo "::warning title=lsmio-checks plugin inactive::lint leg ran without the lsmio-* project checks (clang-tidy dev headers missing?)"
    else
      echo "=== [lint] NOTE: lsmio-checks plugin inactive (clang-tidy dev headers missing?) ==="
    fi
  fi
  return $rc
}

leg_tsan() {
  run_leg tsan -DLSMIO_SANITIZE=thread
}

leg_asan() {
  run_leg asan -DLSMIO_SANITIZE=address
}

# Full suite under TSan with a 4-way sharded store: every test that opens a
# DB through the env-sensitive paths (crash soak) runs sharded, and the rest
# of the suite exercises the sharded open/reopen/destroy machinery compiled
# in. export/unset rather than a prefix assignment: `VAR=x fn` would leak
# the variable past the function call in bash.
leg_shards() {
  export LSMIO_SHARDS=4
  run_leg shards -DLSMIO_SANITIZE=thread
  local rc=$?
  unset LSMIO_SHARDS
  return $rc
}

# Full suite under TSan with WAL-time key/value separation on: the crash
# soak runs with a 64-byte threshold and blob segments in its fault
# schedule, and the rest of the suite exercises the value-log machinery
# compiled in.
leg_valuelog() {
  export LSMIO_VALUE_LOG=1
  run_leg valuelog -DLSMIO_SANITIZE=thread
  local rc=$?
  unset LSMIO_VALUE_LOG
  return $rc
}

# Tiny-config benchmark smoke run: builds the bench binaries, runs them with
# a deliberately small workload, and validates that both emit parseable JSON
# into bench_results/. Catches bench bit-rot without burning CI minutes on a
# real measurement.
leg_bench() {
  local name=bench
  local builddir="$ROOT/build-ci/$name"
  local outdir="$ROOT/bench_results"
  if ! command -v python3 >/dev/null 2>&1; then
    note_skip "$name" "python3 not found (needed to validate bench JSON)"
    return 0
  fi
  mkdir -p "$ROOT/build-ci" "$outdir"
  echo
  echo "=== [$name] bench smoke (tiny config) ==="
  if ! cmake -B "$builddir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
       >"$builddir.configure.log" 2>&1; then
    tail -30 "$builddir.configure.log" || true
    FAIL+=("$name (configure)")
    return 1
  fi
  if ! cmake --build "$builddir" -j "$JOBS" \
       --target bench_micro_lsm bench_concurrent_writers bench_value_log \
       >"$builddir.build.log" 2>&1; then
    tail -40 "$builddir.build.log" || true
    FAIL+=("$name (build)")
    return 1
  fi
  if ! "$builddir/bench/bench_micro_lsm" \
       --benchmark_min_time=0.01 \
       --benchmark_out="$outdir/micro_lsm_smoke.json" \
       --benchmark_out_format=json; then
    FAIL+=("$name (bench_micro_lsm)")
    return 1
  fi
  if ! LSMIO_BENCH_OPS=64 LSMIO_BENCH_VALUE_BYTES=512 LSMIO_BENCH_MAX_THREADS=2 \
       "$builddir/bench/bench_concurrent_writers" \
       >"$outdir/concurrent_writers_smoke.json"; then
    FAIL+=("$name (bench_concurrent_writers)")
    return 1
  fi
  # 64 x 256 KiB values: small enough for CI, large enough that every value
  # crosses the separation threshold and compactions actually run.
  if ! LSMIO_BENCH_OPS=64 LSMIO_BENCH_VALUE_BYTES=$((256 * 1024)) \
       "$builddir/bench/bench_value_log" \
       >"$outdir/value_log_smoke.json"; then
    FAIL+=("$name (bench_value_log)")
    return 1
  fi
  if ! python3 - "$outdir/micro_lsm_smoke.json" \
       "$outdir/concurrent_writers_smoke.json" \
       "$outdir/value_log_smoke.json" <<'PY'
import json, sys
micro = json.load(open(sys.argv[1]))
assert micro.get("benchmarks"), "bench_micro_lsm produced no benchmarks"
conc = json.load(open(sys.argv[2]))
assert conc.get("results"), "bench_concurrent_writers produced no results"
vlog = json.load(open(sys.argv[3]))
assert len(vlog.get("results", [])) == 2, "bench_value_log produced no A/B pair"
print(f"bench JSON ok: {len(micro['benchmarks'])} micro benchmarks, "
      f"{len(conc['results'])} concurrent-writer configs, "
      f"value-log compaction reduction {vlog['compaction_bytes_reduction']}x")
PY
  then
    FAIL+=("$name (json validation)")
    return 1
  fi
  if ! validate_bench_results; then
    FAIL+=("$name (bench_results manifest)")
    return 1
  fi
  PASS+=("$name")
}

# Builds the end-to-end benchmark through its own runner. lsmio_bench/
# compiles src/ standalone through src/lsm/CMakeLists.txt and reads DbStats
# fields by name, so a deleted source file or a renamed statistic breaks it
# while the main build stays green. The self-test builds and runs the
# benchmark's arithmetic tests; the lsmio_bench target is then built in the
# same tree (build-ci/lsmio_bench).
leg_bench_build() {
  local name=bench-build
  if ! command -v python3 >/dev/null 2>&1; then
    note_skip "$name" "python3 not found (the benchmark runner is a Python script)"
    return 0
  fi
  mkdir -p "$ROOT/build-ci"
  echo
  echo "=== [$name] lsmio_bench self-test and build ==="
  if ! CARGO_TARGET_DIR=build-ci python3 "$ROOT/lsmio_bench/run.py" --self-test; then
    FAIL+=("$name (self-test)")
    return 1
  fi
  if ! cmake --build "$ROOT/build-ci/lsmio_bench" -j "$JOBS" --target lsmio_bench \
       >"$ROOT/build-ci/lsmio_bench.build.log" 2>&1; then
    tail -40 "$ROOT/build-ci/lsmio_bench.build.log" || true
    FAIL+=("$name (build)")
    return 1
  fi
  PASS+=("$name")
}

# Validates the bench_results/ filename scheme so stale artifacts cannot
# accumulate under two names for the same bench again:
#   * committed real measurements use bare names (concurrent_writers.json);
#   * transient tiny-config smoke outputs use the *_smoke.json suffix
#     (gitignored; regenerated by the bench / tail-latency legs);
#   * regression-gate baselines live under bench_results/baseline/ with the
#     same *_smoke.json names they gate.
# Any other file in the directory fails the check.
validate_bench_results() {
  local outdir="$ROOT/bench_results"
  local committed="concurrent_writers.json value_log.json tail_latency.json \
fig10_read.json multiget.json figures.txt"
  local ok=0
  local f base
  for f in "$outdir"/* "$outdir"/baseline/*; do
    [ -e "$f" ] || continue
    base="$(basename "$f")"
    case "$f" in
      "$outdir"/baseline) continue ;;
      "$outdir"/baseline/*)
        case "$base" in
          *_smoke.json) continue ;;
          *) echo "bench_results: unexpected baseline file: baseline/$base" ;;
        esac
        ;;
      *)
        case " $committed " in
          *" $base "*) continue ;;
          *)
            case "$base" in
              *_smoke.json) continue ;;
              *) echo "bench_results: unexpected file: $base (committed measurements use bare names, smoke outputs *_smoke.json)" ;;
            esac
            ;;
        esac
        ;;
    esac
    ok=1
  done
  if [ "$ok" -ne 0 ] && [ "${GITHUB_ACTIONS:-}" = "true" ]; then
    echo "::error title=bench_results manifest::unexpected files in bench_results/ (see log)"
  fi
  [ "$ok" -eq 0 ] && echo "bench_results: filename manifest ok"
  return "$ok"
}

leg_bench_files() {
  if validate_bench_results; then
    PASS+=("bench-files")
  else
    FAIL+=("bench-files")
    return 1
  fi
}

# Bench-regression gate: diffs the *_smoke.json outputs of the bench and
# tail-latency legs against the committed baselines in
# bench_results/baseline/. Regressions beyond 15% warn by default (CI
# runner perf is noisy); BENCH_COMPARE_STRICT=1 makes them fail.
leg_bench_compare() {
  local name=bench-compare
  if ! command -v python3 >/dev/null 2>&1; then
    note_skip "$name" "python3 not found"
    return 0
  fi
  echo
  echo "=== [$name] bench-regression gate ==="
  if python3 "$ROOT/ci/bench_compare.py"; then
    PASS+=("$name")
  else
    FAIL+=("$name")
    return 1
  fi
}

# Tiny-config tail-latency smoke: runs the hard-stall vs graduated A/B with
# a seconds-long workload and validates the JSON shape. The committed
# bench_results/tail_latency.json is a real measurement; the smoke run
# writes to tail_latency_smoke.json so it never clobbers it.
leg_tail_latency() {
  local name=tail-latency
  local builddir="$ROOT/build-ci/bench"
  local outdir="$ROOT/bench_results"
  if ! command -v python3 >/dev/null 2>&1; then
    note_skip "$name" "python3 not found (needed to validate bench JSON)"
    return 0
  fi
  mkdir -p "$ROOT/build-ci" "$outdir"
  echo
  echo "=== [$name] tail-latency smoke (tiny config) ==="
  if ! cmake -B "$builddir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
       >"$builddir.configure.log" 2>&1; then
    tail -30 "$builddir.configure.log" || true
    FAIL+=("$name (configure)")
    return 1
  fi
  if ! cmake --build "$builddir" -j "$JOBS" --target bench_tail_latency \
       >"$builddir.build.log" 2>&1; then
    tail -40 "$builddir.build.log" || true
    FAIL+=("$name (build)")
    return 1
  fi
  if ! LSMIO_BENCH_OPS=256 LSMIO_BENCH_VALUE_BYTES=1024 \
       LSMIO_BENCH_WRITERS=2 LSMIO_BENCH_READERS=1 \
       LSMIO_BENCH_BG_BYTES_PER_SEC=$((4 * 1024 * 1024)) \
       "$builddir/bench/bench_tail_latency" \
       >"$outdir/tail_latency_smoke.json"; then
    FAIL+=("$name (bench_tail_latency)")
    return 1
  fi
  if ! python3 - "$outdir/tail_latency_smoke.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
modes = doc.get("modes", [])
assert [m.get("mode") for m in modes] == ["hard_stall", "graduated"], \
    f"expected a hard_stall/graduated A/B pair, got {modes}"
for m in modes:
    lat = m["write_latency_us"]
    assert lat["count"] == doc["total_ops"], \
        f"{m['mode']}: histogram saw {lat['count']} of {doc['total_ops']} writes"
    for pct in ("p50", "p95", "p99", "max"):
        assert lat[pct] >= 0, f"{m['mode']}: bad {pct}"
    stalls = m["stalls"]
    assert stalls["write_stall_micros"] == (
        stalls["stall_memtable_micros"] + stalls["stall_l0_micros"]), \
        f"{m['mode']}: stall-cause split does not sum to the total"
assert modes[0]["stalls"]["slowdown_writes"] == 0, "hard_stall mode was paced"
assert "p99_improvement" in doc and "throughput_ratio" in doc
print(f"tail-latency JSON ok: p99 improvement {doc['p99_improvement']}x "
      f"at {doc['throughput_ratio']}x throughput (tiny config; "
      "the committed tail_latency.json holds the real measurement)")
PY
  then
    FAIL+=("$name (json validation)")
    return 1
  fi
  if ! validate_bench_results; then
    FAIL+=("$name (bench_results manifest)")
    return 1
  fi
  PASS+=("$name")
}

# --- argument parsing --------------------------------------------------------

LEGS=()
while [ "$#" -gt 0 ]; do
  case "$1" in
    --leg)
      if [ "$#" -lt 2 ]; then
        echo "error: --leg requires a name" >&2
        exit 2
      fi
      LEGS+=("$2")
      shift 2
      ;;
    --leg=*)
      LEGS+=("${1#--leg=}")
      shift
      ;;
    -h|--help)
      echo "usage: ci/check.sh [--leg <name>]... [all|plain|lint|tsan|asan|shards|valuelog|bench|bench-build|tail-latency|bench-files|bench-compare]"
      exit 0
      ;;
    *)
      LEGS+=("$1")
      shift
      ;;
  esac
done
[ "${#LEGS[@]}" -eq 0 ] && LEGS=(all)

for leg in "${LEGS[@]}"; do
  case "$leg" in
    plain) leg_plain ;;
    lint)  leg_lint ;;
    tsan)  leg_tsan ;;
    asan)  leg_asan ;;
    shards) leg_shards ;;
    valuelog) leg_valuelog ;;
    bench) leg_bench ;;
    bench-build) leg_bench_build ;;
    tail-latency) leg_tail_latency ;;
    bench-files) leg_bench_files ;;
    bench-compare) leg_bench_compare ;;
    all)
      leg_lint
      leg_tsan
      leg_asan
      leg_shards
      leg_valuelog
      ;;
    *)
      echo "usage: ci/check.sh [--leg <name>]... [all|plain|lint|tsan|asan|shards|valuelog|bench|bench-build|tail-latency|bench-files|bench-compare]" >&2
      exit 2
      ;;
  esac
done

echo
echo "=== analysis matrix summary ==="
for leg in "${PASS[@]:-}";  do [ -n "$leg" ] && echo "  PASS  $leg"; done
for leg in "${SKIP[@]:-}";  do [ -n "$leg" ] && echo "  SKIP  $leg"; done
for leg in "${FAIL[@]:-}";  do [ -n "$leg" ] && echo "  FAIL  $leg"; done

# Exit non-zero iff any leg failed; skips are not failures.
[ "${#FAIL[@]}" -eq 0 ]
