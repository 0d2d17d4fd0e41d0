#!/usr/bin/env bash
# Perf-regression gate: the change against its base, measured on the same
# host in the same run. Builds bench_rollup, bench_heap_sorting,
# bench_parsing, bench_tpch and bench_invisible_join from a checkout of the
# base ref with the same
# CMake build type as <build-dir> (the change's build), runs the two sides'
# benches alternately, and compares the median of each named measurement.
# Records without a "name" (bench_tpch's per-query profiles, and every
# record of a base whose bench_tpch wrote no gate rows) are not gated.
# A measurement fails the gate when its median is BOTH more than
# TDE_BENCH_TOLERANCE slower relatively AND more than TDE_BENCH_MIN_MS
# slower absolutely than the base's median — the absolute floor keeps
# sub-millisecond timer noise from failing CI. A measurement whose output
# row count ("groups") differs between the sides also fails: the bench's
# answer changed.
#
# Usage: ci/check_bench.sh <build-dir> [base-ref]
#
#   base-ref  the commit to compare against. By default the change is the
#             working tree's: against HEAD when tracked files have
#             uncommitted edits, else against HEAD~1 (HEAD is the change).
#             The base tree comes from `git archive`, so the gate compares
#             committed code on the base side and <build-dir>'s binaries on
#             the other. Each side's benches run 5 times.
#
# Knobs (all optional):
#   TDE_BENCH_TOLERANCE  relative slowdown allowed (default: 0.25 = 25%)
#   TDE_BENCH_MIN_MS     absolute slowdown floor in ms (default: 20)
#   TDE_ROLLUP_ROWS      bench_rollup table size (default: 1000000)
#   TDE_SORT_ROWS        ORDER BY / Top-N table size (default: 1000000)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:?usage: ci/check_bench.sh <build-dir> [base-ref]}"
BUILD="$(cd "$BUILD" && pwd)"
if [[ $# -ge 2 ]]; then
  BASE_REF="$2"
elif git -C "$ROOT" diff --quiet HEAD; then
  BASE_REF="HEAD~1"
else
  BASE_REF="HEAD"
fi
RUNS=5
ROWS="${TDE_ROLLUP_ROWS:-1000000}"
SORT_ROWS="${TDE_SORT_ROWS:-1000000}"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$BUILD/CMakeCache.txt")"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# The base side: the base ref's tree, built like the change.
BASE_COMMIT="$(git -C "$ROOT" rev-parse --verify "$BASE_REF^{commit}")"
mkdir -p "$WORK/base"
git -C "$ROOT" archive "$BASE_COMMIT" | tar -x -C "$WORK/base"
cmake -S "$WORK/base" -B "$WORK/base-build" \
    -DCMAKE_BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}" > "$WORK/base.log" 2>&1
TARGETS=(--target bench_rollup --target bench_heap_sorting
         --target bench_parsing --target bench_tpch
         --target bench_invisible_join)
cmake --build "$WORK/base-build" -j"$(nproc)" "${TARGETS[@]}" \
    >> "$WORK/base.log" 2>&1 || { tail -40 "$WORK/base.log"; exit 1; }
cmake --build "$BUILD" -j"$(nproc)" "${TARGETS[@]}" > /dev/null

# One run of the benches from `bin` into `out`, one JSON doc per bench.
run_side() {
  local bin="$1" out="$2"
  mkdir -p "$out"
  (cd "$out" && TDE_ROLLUP_ROWS="$ROWS" "$bin/bench_rollup" --json \
      > rollup.out) || { cat "$out/rollup.out"; exit 1; }
  # The sorting bench's Fig. 6 half replays TPC-H imports; shrink them so
  # the gate only pays for the ORDER BY / Top-N measurements.
  (cd "$out" && TDE_SORT_ROWS="$SORT_ROWS" TDE_SF=0.001 \
      TDE_FLIGHTS_ROWS=1000 "$bin/bench_heap_sorting" --json \
      > sorting.out) || { cat "$out/sorting.out"; exit 1; }
  # Fig. 4's import ladder on lineitem: SF 0.03 keeps every full import
  # above the gate's 20 ms floor; Flights shrinks to a token size.
  (cd "$out" && TDE_SF=0.03 TDE_FLIGHTS_ROWS=1000 "$bin/bench_parsing" \
      --json > parsing.out) || { cat "$out/parsing.out"; exit 1; }
  # The TPC-H queries through SQL, joins included: at SF 0.1 each gate row
  # (the total of a query's 9 timed runs) is large enough for the 20 ms
  # floor to let a real slowdown through.
  (cd "$out" && TDE_SF=0.1 "$bin/bench_tpch" --json > tpch.out) \
      || { cat "$out/tpch.out"; exit 1; }
  # The invisible join on 2M-row tables, rewrite on and off: one gate row
  # per shape and setting (string equality, date range, computation).
  (cd "$out" && "$bin/bench_invisible_join" --json > invisible_join.out) \
      || { cat "$out/invisible_join.out"; exit 1; }
}

# Alternate the sides, and which goes first, so host drift during the gate
# lands on both.
for ((i = 0; i < RUNS; ++i)); do
  if ((i % 2 == 0)); then
    run_side "$WORK/base-build/bench" "$WORK/runs/base/$i"
    run_side "$BUILD/bench" "$WORK/runs/change/$i"
  else
    run_side "$BUILD/bench" "$WORK/runs/change/$i"
    run_side "$WORK/base-build/bench" "$WORK/runs/base/$i"
  fi
done

python3 - "$WORK/runs" "$RUNS" "$BASE_REF" <<'EOF'
import glob, json, os, statistics, sys
runs_dir, runs, base_ref = sys.argv[1], int(sys.argv[2]), sys.argv[3]
tol = float(os.environ.get("TDE_BENCH_TOLERANCE", "0.25"))
floor_ms = float(os.environ.get("TDE_BENCH_MIN_MS", "20"))

def side(name):
    ms, groups = {}, {}
    for path in glob.glob(f"{runs_dir}/{name}/*/BENCH_*.json"):
        for r in json.load(open(path))["results"]:
            if "name" not in r:
                continue
            ms.setdefault(r["name"], []).append(r["ms"])
            groups.setdefault(r["name"], set()).add(r.get("groups"))
    return ms, groups

base_ms, base_groups = side("base")
new_ms, new_groups = side("change")
missing = sorted(set(base_ms) - set(new_ms))
if missing:
    sys.exit(f"measurements missing from the change's runs: {missing}")

failed = []
print(f"{runs} runs per side; medians against {base_ref}")
print(f"{'measurement':<28}{'base_ms':>10}{'new_ms':>10}{'delta':>8}")
for name in sorted(base_ms):
    b = statistics.median(base_ms[name])
    n = statistics.median(new_ms[name])
    if base_groups[name] != new_groups[name]:
        failed.append(f"{name}: groups {sorted(base_groups[name])} -> "
                      f"{sorted(new_groups[name])} (the bench's answer "
                      "changed)")
    rel = (n - b) / b if b > 0 else 0.0
    mark = ""
    if n - b > floor_ms and rel > tol:
        failed.append(f"{name}: median {b:.1f}ms -> {n:.1f}ms (+{rel:.0%}, "
                      f"tolerance {tol:.0%})")
        mark = "  REGRESSION"
    print(f"{name:<28}{b:>10.1f}{n:>10.1f}{rel:>+8.0%}{mark}")

added = sorted(set(new_ms) - set(base_ms))
if added:
    print(f"note: measurements the base does not have (not gated): {added}")
if failed:
    print("\nperf-regression gate FAILED:")
    for f in failed:
        print(f"  {f}")
    sys.exit(1)
print("\nperf-regression gate passed "
      f"(tolerance {tol:.0%}, floor {floor_ms:.0f}ms)")
EOF
