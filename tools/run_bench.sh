#!/usr/bin/env bash
# Runs the perf-tracking benches and records the results:
#   BENCH_micro.json   google-benchmark JSON from bench_micro (hot-path
#                      microbenchmarks: scheduler, ROHC, MD5, serialisation)
#   BENCH_fig10.txt    bench_fig10_goodput output + wall-clock, the
#                      end-to-end "how fast does a full experiment run" probe
#   BENCH_scale.json   bench_scale dense-cell sweep (stations x proto x
#                      HACK): goodput, events/PPDU, wall clock. Exits
#                      nonzero if a dense cell stops delivering, so this
#                      doubles as the CI scaling-regression gate.
#
# Usage: tools/run_bench.sh [build_dir] [out_dir]
#   build_dir  defaults to ./build (must be configured with -DHACKSIM_BENCH=ON)
#   out_dir    defaults to the repo root
# Honours HACKSIM_QUICK=1 for a fast smoke pass (CI).
# BENCH_micro.json (its context) and BENCH_fig10.txt record the 1-minute
# load average before and after their bench. Writing into the repository
# root, where the committed artifacts live, is refused when the load
# exceeds 1.0 at the start (hackbench's busy-machine threshold): more than
# one other core's worth of work skews every number.
# Each bench runs under a hard timeout (HACKSIM_BENCH_TIMEOUT, seconds;
# default 1800, 600 in quick mode) so a wedged simulation fails the job
# with a named culprit instead of hanging it until the CI runner is killed.
#
# docs/perf.md describes how to read BENCH_micro.json and which entries the
# perf trajectory tracks across PRs.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="${2:-$repo_root}"
mkdir -p "$out_dir"

max_load=1.0
load_avg() { python3 -c 'import os; print("%.2f" % os.getloadavg()[0])'; }
start_load="$(load_avg)"
if [[ "$(cd "$out_dir" && pwd)" == "$repo_root" ]] &&
   python3 -c "import sys; sys.exit(not $start_load > $max_load)"; then
  echo "error: the 1-minute load average is $start_load, above $max_load;" \
       "committed artifacts need a quiet machine. Wait, or write elsewhere:" \
       "$0 $build_dir /tmp/bench-out" >&2
  exit 1
fi

if [[ ! -x "$build_dir/bench_micro" ]]; then
  echo "error: $build_dir/bench_micro not found." >&2
  echo "Configure with: cmake -B build -S . -DHACKSIM_BENCH=ON && cmake --build build -j" >&2
  exit 1
fi

# Refuse to record numbers from a non-Release build: a Debug/Sanitize build
# silently poisons the perf trajectory the committed artifacts track.
# Override (for local experiments only) with HACKSIM_ALLOW_NON_RELEASE=1 —
# the output is then loudly marked and must not be committed.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt" 2>/dev/null || true)"
sanitize="$(sed -n 's/^HACKSIM_SANITIZE:[^=]*=//p' "$build_dir/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$build_type" != "Release" || ( -n "$sanitize" && "$sanitize" != "OFF" ) ]]; then
  if [[ "${HACKSIM_ALLOW_NON_RELEASE:-0}" != "1" ]]; then
    echo "error: build dir '$build_dir' is CMAKE_BUILD_TYPE='$build_type'" \
         "HACKSIM_SANITIZE='${sanitize:-OFF}' — benchmarks must come from a" \
         "Release, sanitizer-free build." >&2
    echo "Reconfigure with: cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DHACKSIM_BENCH=ON" >&2
    echo "(or set HACKSIM_ALLOW_NON_RELEASE=1 to run anyway, loudly marked)" >&2
    exit 1
  fi
  echo "#############################################################" >&2
  echo "## WARNING: NON-RELEASE BUILD ($build_type sanitize=${sanitize:-OFF})" >&2
  echo "## These numbers are NOT comparable; do not commit them." >&2
  echo "#############################################################" >&2
fi

repetitions="${BENCH_REPETITIONS:-5}"
bench_timeout="${HACKSIM_BENCH_TIMEOUT:-1800}"
if [[ "${HACKSIM_QUICK:-0}" == "1" ]]; then
  repetitions=1
  bench_timeout="${HACKSIM_BENCH_TIMEOUT:-600}"
fi

# Hard wall-clock bound around one bench invocation. A liveness bug (stalled
# queue, NAV leak, event-loop wedge) that slips past the in-sim watchdog
# shows up here as an infinite bench run; kill it (SIGTERM, then SIGKILL
# after 30 s of grace) and name the culprit instead of hanging CI.
run_with_timeout() {
  local name="$1"
  shift
  local rc=0
  timeout --kill-after=30 "$bench_timeout" "$@" || rc=$?
  if (( rc == 124 || rc == 137 )); then
    echo "error: $name exceeded the ${bench_timeout}s bench timeout and was" \
         "killed — the simulation wedged or the run is drastically slower" \
         "than the perf trajectory allows. Reproduce locally with:" \
         "$*" >&2
    exit 1
  fi
  if (( rc != 0 )); then
    echo "error: $name failed with exit code $rc" >&2
    exit "$rc"
  fi
}

echo "== bench_micro (repetitions=$repetitions, timeout=${bench_timeout}s) =="
micro_load_before="$(load_avg)"
run_with_timeout bench_micro "$build_dir/bench_micro" \
  --benchmark_repetitions="$repetitions" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out="$out_dir/BENCH_micro.json" \
  --benchmark_out_format=json
python3 - "$out_dir/BENCH_micro.json" "$micro_load_before" "$(load_avg)" <<'PY'
import json, sys
path, before, after = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
with open(path) as f:
    data = json.load(f)
data["context"]["load_avg_1m_before"] = before
data["context"]["load_avg_1m_after"] = after
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
PY

if grep -q '"library_build_type": "debug"' "$out_dir/BENCH_micro.json"; then
  echo "WARNING: the google-benchmark *library* on this machine is a debug" >&2
  echo "build (see library_build_type in BENCH_micro.json). The project code" >&2
  echo "is Release, but compare BM_* numbers only against artifacts from the" >&2
  echo "same library build." >&2
fi

echo
echo "== bench_fig10_goodput =="
fig10_load_before="$(load_avg)"
start_ns=$(date +%s%N)
run_with_timeout bench_fig10_goodput "$build_dir/bench_fig10_goodput" \
  | tee "$out_dir/BENCH_fig10.txt"
end_ns=$(date +%s%N)
wall_ms=$(( (end_ns - start_ns) / 1000000 ))
{
  echo "wall_clock_ms=$wall_ms"
  echo "load_avg_1m_before=$fig10_load_before"
  echo "load_avg_1m_after=$(load_avg)"
} | tee -a "$out_dir/BENCH_fig10.txt"

echo
echo "== bench_scale (timeout=${bench_timeout}s) =="
run_with_timeout bench_scale \
  "$build_dir/bench_scale" --json "$out_dir/BENCH_scale.json"

echo
echo "wrote $out_dir/BENCH_micro.json, $out_dir/BENCH_fig10.txt and $out_dir/BENCH_scale.json"
