#!/usr/bin/env bash
# Runs the engine/relation/distributed/observability/crypto benchmarks
# REPETITIONS times each and merges the results into one machine-readable
# JSON: "benchmarks" maps name -> median ns/op and "stddev" maps name ->
# the standard deviation of the repetitions (ns/op). The report is stamped
# with the host and build it ran on (nproc, affinity mask, CPU model,
# compiler, build type, git SHA), so reports are only compared when they
# come from the same host. The checked-in BENCH_PR*.json files are past
# captures; a fresh report goes under the build directory unless an output
# path is given.
#
# Usage: tools/bench_report.sh [build-dir] [out-json]
#   build-dir  defaults to build-bench (configured Release + benches if it
#              does not exist yet; an existing build dir is reused as-is,
#              so you can point it at a RelWithDebInfo tree for
#              apples-to-apples before/after runs)
#   out-json   defaults to <build-dir>/bench_report.json
# Environment:
#   BENCH_BUILD_TYPE   CMake build type for a fresh build dir (Release)
#   BENCH_TARGETS      space-separated bench binaries (bench_engine
#                      bench_relation bench_dist bench_obs bench_crypto)
#   BENCH_MIN_TIME     --benchmark_min_time per bench (0.2)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
OUT="${2:-${BUILD_DIR}/bench_report.json}"
TARGETS=(${BENCH_TARGETS:-bench_engine bench_relation bench_dist bench_obs bench_crypto})
MIN_TIME="${BENCH_MIN_TIME:-0.2}"
# Fixed so that every report carries the same sample count per benchmark.
REPETITIONS=5

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE="${BENCH_BUILD_TYPE:-Release}" \
    -DLBTRUST_BENCH=ON \
    -DLBTRUST_TESTS=OFF \
    -DLBTRUST_EXAMPLES=OFF
fi
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TARGETS[@]}"

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
for bench in "${TARGETS[@]}"; do
  echo "== ${bench} =="
  "${BUILD_DIR}/${bench}" \
    --benchmark_format=json \
    --benchmark_min_time="${MIN_TIME}" \
    --benchmark_repetitions="${REPETITIONS}" \
    --benchmark_report_aggregates_only=true > "${TMP}/${bench}.json"
done

python3 - "${OUT}" "${BUILD_DIR}" "${REPETITIONS}" "${TMP}"/*.json <<'EOF'
import json
import os
import subprocess
import sys

out_path, build_dir, repetitions = sys.argv[1], sys.argv[2], int(sys.argv[3])
scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
aggregates = {"median": {}, "stddev": {}}
for path in sys.argv[4:]:
    with open(path) as f:
        report = json.load(f)
    for bench in report.get("benchmarks", []):
        series = aggregates.get(bench.get("aggregate_name"))
        if bench.get("run_type") != "aggregate" or series is None:
            continue
        ns = bench["real_time"] * scale[bench.get("time_unit", "ns")]
        series[bench["run_name"]] = round(ns, 1)

cache = {}
with open(f"{build_dir}/CMakeCache.txt") as f:
    for line in f:
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            cache[key.split(":", 1)[0]] = value.strip()

def first_line(cmd):
    try:
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        return out.stdout.splitlines()[0].strip()
    except (OSError, subprocess.CalledProcessError, IndexError):
        return None

cpu = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break

cpus = sorted(os.sched_getaffinity(0))

out = {
    "unit": "ns/op",
    "repetitions": repetitions,
    "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo (default)",
    "host": {
        "nproc": len(cpus),
        "affinity": hex(sum(1 << c for c in cpus)),
        "cpu": cpu,
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                "--version"]),
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
    },
    "benchmarks": aggregates["median"],
    "stddev": aggregates["stddev"],
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path} ({len(aggregates['median'])} benchmarks)")
EOF
