#!/usr/bin/env bash
# CI entry point: configure, build, run the tier-1 test suite, then run the
# same suite under ASan+UBSan and under TSan, and finally run one bench in
# JSON mode and archive its BENCH_*.json next to the build tree.
#
# Usage: ci/run_tests.sh [build-dir]
#
# Knobs (all optional):
#   TDE_BENCH         bench to archive (default: bench_filtering)
#   TDE_LARGE_ROWS    shrink the bench's large table for CI budgets
#   TDE_SKIP_SANITIZE set to 1 to skip the ASan+UBSan stage
#   TDE_SKIP_TSAN     set to 1 to skip the ThreadSanitizer stage
#
# The suite runs twice up front: once with stats on (default) and once with
# TDE_STATS=0, with the batch examples and the benchmark self-test
# (perfbench/selftest.py) in between; the perf-regression gate
# (ci/check_bench.sh) runs last.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-"$ROOT/build"}"
BENCH="${TDE_BENCH:-bench_filtering}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j"$(nproc)"

ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

# The four batch examples, end to end through the public facade (imports,
# SQL, save and reopen; url_analysis also runs a plain EXPLAIN). Each exits
# nonzero when a step fails; together they take under a second.
for e in quickstart date_rollup url_analysis flights_analysis; do
  "$BUILD/examples/$e" > /dev/null
done

# Benchmark self-test: runs every perfbench workload at tiny sizes and
# checks each answer (TPC-H Q1/Q3/Q4lite/Q6/Q12 through ExecuteSql against
# the all-rewrites-off plans) plus the metric names and units, so a wrong
# rewritten plan fails here before the longer stages. Builds the
# benchmark binary into the checkout's .bench_build/ on first use.
(cd "$ROOT" && python3 perfbench/selftest.py)

# Second pass with the observability layer off: TDE_STATS=0 drops the
# journal, per-query scopes, and registry counters; every query must still
# produce identical answers (tests that assert on telemetry re-enable it
# explicitly via SetStatsEnabled).
TDE_STATS=0 ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

# Second pass with mmap disabled: the pager's read()-fallback path must
# produce identical results — lazy column loads go through plain I/O.
TDE_NO_MMAP=1 ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

# Pass with a tiny sealing threshold: every FlowTable build and append in
# the suite runs segmented (512-row segments), so the whole test surface —
# scans, filters, joins, aggregates, persistence — exercises segmented
# storage, not just segment_test.
TDE_SEGMENT_ROWS=512 ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

# Bounded differential sweep beyond the tier-1 default: more query seeds
# against a second dataset shape. The long multi-dataset sweep lives in
# ci/fuzz_extended.sh (nightly); this stage keeps a meaningful slice on
# every commit.
TDE_DIFF_SEEDS="${TDE_DIFF_SEEDS:-800}" TDE_DIFF_DATA_SEED=3 \
TDE_DIFF_ROWS=300 TDE_DIFF_SEG_ROWS=100 \
    "$BUILD/tests/differential_test"

# The two benches that save and reopen the single-file database, at tiny
# sizes: an import written through the paged writer (bench_parsing) and
# lazy cold opens of v2 and v3 files (bench_storage). Either exits nonzero
# when a save, open or query fails.
for b in bench_parsing bench_storage; do
  TDE_SF=0.001 TDE_FLIGHTS_ROWS=1000 "$BUILD/bench/$b" > /dev/null
done

# Same suite under AddressSanitizer + UndefinedBehaviorSanitizer: the
# storage pager and the corruption sweeps must be clean under both.
if [[ "${TDE_SKIP_SANITIZE:-0}" != "1" ]]; then
  SAN_BUILD="$BUILD-asan"
  cmake -B "$SAN_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DTDE_SANITIZE=address,undefined
  cmake --build "$SAN_BUILD" -j"$(nproc)"
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
      ctest --test-dir "$SAN_BUILD" --output-on-failure -j"$(nproc)"
fi

# Same suite under ThreadSanitizer: the shared scheduler pool, parallel
# rollup, exchange, and pager paths run multi-threaded and must be
# race-free. TDE_WORKERS=4 pins the pool size so the concurrency stress
# test contends a known number of workers regardless of the CI host.
if [[ "${TDE_SKIP_TSAN:-0}" != "1" ]]; then
  TSAN_BUILD="$BUILD-tsan"
  cmake -B "$TSAN_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DTDE_SANITIZE=thread
  cmake --build "$TSAN_BUILD" -j"$(nproc)"
  TSAN_OPTIONS=halt_on_error=1 TDE_WORKERS=4 \
      ctest --test-dir "$TSAN_BUILD" --output-on-failure -j"$(nproc)"
  # A longer concurrency soak (20 iterations, tier-1 runs 3): concurrent
  # queries' segment-morsel tasks overlap on the shared pool long enough
  # for TSan to see the shared join builds, code tables and partials.
  TSAN_OPTIONS=halt_on_error=1 TDE_WORKERS=4 TDE_STRESS_ITERS=20 \
      "$TSAN_BUILD/tests/concurrency_test"
fi

# Archive one bench run with per-operator stats. Keep CI cheap: the bench's
# large table shrinks unless the caller overrides it.
ARCHIVE="$BUILD/bench-archive"
mkdir -p "$ARCHIVE"
(cd "$ARCHIVE" && TDE_LARGE_ROWS="${TDE_LARGE_ROWS:-2000000}" \
    "$BUILD/bench/$BENCH" --json)
ls -l "$ARCHIVE"/BENCH_*.json

# Perf-regression gate: bench_rollup, bench_heap_sorting, bench_parsing,
# bench_tpch (SF 0.1) and bench_invisible_join of this build against the
# same benches built from the change's base (HEAD with uncommitted edits,
# else HEAD~1), alternated, 5 runs a side; a median >25% AND >20ms slower
# fails (see ci/check_bench.sh).
"$ROOT/ci/check_bench.sh" "$BUILD"
